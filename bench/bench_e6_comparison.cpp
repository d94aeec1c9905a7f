// Experiment E6 — the paper's positioning table (Section 1): the Elkin
// algorithm against the two prior complexity classes it improves on:
//
//   * SyncBoruvka  — GHS-style merging: O(n log n) time, O(m log n) msgs
//   * GKP Pipeline — O(D + sqrt(n) log* n) time, O(m + n^{3/2}) msgs
//   * Elkin        — O((D + sqrt n) log n) time, O(m log n + ...) msgs
//
// "Who wins": SyncBoruvka's rounds blow up with fragment diameters; GKP's
// phase-2 messages blow up with D; Elkin is never the worst on either axis.

#include <iostream>

#include "dmst/sim/engine.h"

#include "dmst/core/elkin_mst.h"
#include "dmst/core/pipeline_mst.h"
#include "dmst/core/sync_boruvka.h"
#include "dmst/exp/workloads.h"
#include "dmst/graph/metrics.h"
#include "dmst/util/cli.h"
#include "dmst/util/table.h"

using namespace dmst;

int main(int argc, char** argv)
{
    Args args;
    args.define("n", "1024", "graph size");
    args.define("seed", "6", "workload seed");
    args.define("csv", "false", "emit CSV instead of an aligned table");
    define_engine_flags(args);
    try {
        args.parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n" << args.help();
        return 1;
    }

    ElkinOptions elkin_opts;
    read_engine_flags(args, elkin_opts);
    PipelineMstOptions gkp_opts;
    read_engine_flags(args, gkp_opts);
    const std::size_t n = args.get_int("n");
    const std::uint64_t seed = args.get_int("seed");

    std::cout << "E6: Elkin vs GKP Pipeline vs SyncBoruvka (n ~ " << n << ")\n";
    Table table({"family", "D", "algorithm", "rounds", "messages", "p2_msgs"});
    for (const char* family : {"er", "grid", "path", "cliques8", "lollipop"}) {
        auto g = make_workload(family, n, seed);
        auto d = hop_diameter_estimate(g);

        auto elkin = run_elkin_mst(g, elkin_opts);
        auto gkp = run_pipeline_mst(g, gkp_opts);
        SyncBoruvkaOptions boruvka_opts;
        read_engine_flags(args, boruvka_opts);
        auto boruvka = run_sync_boruvka(g, boruvka_opts);
        if (elkin.mst_edges != gkp.mst_edges ||
            elkin.mst_edges != boruvka.mst_edges) {
            std::cerr << "FATAL: algorithms disagree on " << family << "\n";
            return 1;
        }

        auto row = [&](const char* name, std::uint64_t rounds,
                       std::uint64_t messages, std::uint64_t p2) {
            table.new_row()
                .add(std::string(family))
                .add(static_cast<std::uint64_t>(d))
                .add(std::string(name))
                .add(rounds)
                .add(messages)
                .add(p2);
        };
        row("elkin", elkin.stats.rounds, elkin.stats.messages,
            elkin.phase2_messages);
        row("gkp", gkp.stats.rounds, gkp.stats.messages, gkp.phase2_messages);
        row("boruvka", boruvka.stats.rounds, boruvka.stats.messages, 0);
    }
    if (args.get_bool("csv"))
        table.print_csv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\nExpected shape: on high-D families (path, cliques8,\n"
                 "lollipop) GKP's p2_msgs exceeds Elkin's by a growing\n"
                 "factor; SyncBoruvka stays competitive in rounds only when\n"
                 "fragment diameters stay small (its O(n log n) class).\n"
                 "All three always return the identical (unique) MST.\n";
    return 0;
}
