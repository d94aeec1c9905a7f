// Experiment E3 — Theorem 4.3: Controlled-GHS builds an (n/k, O(k))-MST
// forest in O(k log* n) rounds with O(m log k + n log k log* n) messages.
//
// Sweeps k on fixed graphs and reports fragment count vs 2n/k, maximum
// fragment height vs 6k, rounds vs k log* n, and the message ratio.

#include <iostream>

#include "dmst/sim/engine.h"

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/forest_stats.h"
#include "dmst/exp/workloads.h"
#include "dmst/util/cli.h"
#include "dmst/util/intmath.h"
#include "dmst/util/table.h"

using namespace dmst;

int main(int argc, char** argv)
{
    Args args;
    args.define("n", "1024", "graph size");
    args.define("seed", "3", "workload seed");
    args.define("csv", "false", "emit CSV instead of an aligned table");
    define_engine_flags(args);
    try {
        args.parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n" << args.help();
        return 1;
    }

    const std::size_t n = args.get_int("n");
    const std::uint64_t seed = args.get_int("seed");

    std::cout << "E3: Theorem 4.3 — Controlled-GHS (n/k, O(k))-MST forest\n";
    Table table({"family", "k", "rounds", "r_bound", "r_ratio", "frags",
                 "f_bound", "max_h", "h_bound", "messages", "m_ratio"});
    for (const char* family : {"er", "grid"}) {
        auto g = make_workload(family, n, seed);
        for (std::uint64_t k = 2; k <= 256 && k <= n / 4; k *= 4) {
            GhsOptions opts;
            opts.k = k;
            read_engine_flags(args, opts);
            auto r = run_controlled_ghs(g, opts);
            auto stats = analyze_forest(g, r.parent_port, r.fragment_id);
            std::uint64_t frag_bound = std::max<std::uint64_t>(1, 2 * n / k);
            std::uint64_t height_bound =
                3 * (std::uint64_t{1} << ceil_log2(k)) + 4;
            double round_bound =
                static_cast<double>(k) * (log_star(n) + 6);
            double msg_bound = (static_cast<double>(g.edge_count()) +
                                static_cast<double>(n) * (log_star(n) + 6)) *
                               (ceil_log2(k) + 1);
            table.new_row()
                .add(std::string(family))
                .add(k)
                .add(r.stats.rounds)
                .add(round_bound, 0)
                .add(static_cast<double>(r.stats.rounds) / round_bound, 2)
                .add(static_cast<std::uint64_t>(stats.fragment_count))
                .add(frag_bound)
                .add(stats.max_height)
                .add(height_bound)
                .add(r.stats.messages)
                .add(static_cast<double>(r.stats.messages) / msg_bound, 3);
        }
    }
    if (args.get_bool("csv"))
        table.print_csv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\nExpected shape: frags <= f_bound and max_h <= h_bound at\n"
                 "every k; r_ratio and m_ratio stay within constant bands.\n";
    return 0;
}
