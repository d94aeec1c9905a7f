// Compare the three distributed MST algorithms in this library on a chosen
// workload: the Elkin algorithm, the GKP Pipeline baseline, and the
// GHS-style synchronous Boruvka baseline. All three must return the same
// (unique) MST; they differ in round and message complexity.

#include <iostream>
#include <utility>
#include <vector>

#include "dmst/exp/workloads.h"
#include "dmst/graph/metrics.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/scenario.h"
#include "dmst/util/cli.h"
#include "dmst/util/table.h"

int main(int argc, char** argv)
{
    using namespace dmst;

    Args args;
    args.define("family", "cliques8", "workload family (see exp/workloads.h)");
    args.define("n", "512", "graph size");
    args.define("seed", "1", "generator seed");
    try {
        args.parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n" << args.help();
        return 1;
    }

    auto g = make_workload(args.get("family"), args.get_int("n"),
                           args.get_int("seed"));
    std::cout << "workload " << args.get("family") << ": n=" << g.vertex_count()
              << " m=" << g.edge_count()
              << " D=" << hop_diameter_estimate(g) << "\n\n";

    const std::pair<const char*, const char*> runs[] = {
        {"elkin", "elkin"}, {"gkp_pipeline", "pipeline"},
        {"sync_boruvka", "boruvka"}};
    Table t({"algorithm", "rounds", "messages", "mst_weight"});
    std::vector<std::vector<EdgeId>> trees;
    for (const auto& [label, algo] : runs) {
        AlgorithmRun r = run_algorithm(algo, g, NetConfig{});
        t.new_row().add(std::string(label)).add(r.stats.rounds)
            .add(r.stats.messages)
            .add(total_weight(g, r.edges));
        trees.push_back(std::move(r.edges));
    }
    t.print(std::cout);

    const bool agree = trees[1] == trees[0] && trees[2] == trees[0];
    std::cout << "\nall algorithms agree: " << (agree ? "yes" : "NO") << "\n";
    return agree ? 0 : 1;
}
