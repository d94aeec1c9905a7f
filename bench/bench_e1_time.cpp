// Experiment E1 — Theorem 3.1, round complexity.
//
// Measures the round count of the Elkin algorithm across graph sizes and
// families, against the bound (D + sqrt(n)) * ceil(log2 n). The
// reproduction criterion is a roughly flat bound ratio: the constants are
// ours, the shape is the paper's.

#include <cmath>

#include "dmst/sim/engine.h"
#include <iostream>

#include "dmst/core/elkin_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/graph/metrics.h"
#include "dmst/util/cli.h"
#include "dmst/util/intmath.h"
#include "dmst/util/table.h"

using namespace dmst;

int main(int argc, char** argv)
{
    Args args;
    args.define("max_n", "1024", "largest graph size in the sweep");
    args.define("seed", "1", "workload seed");
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

    std::cout << "E1: Theorem 3.1 (time) — rounds vs (D + sqrt(n)) log n\n";
    Table table({"family", "n", "m", "D", "k", "phases", "rounds", "bound",
                 "ratio"});
    const std::uint64_t seed = args.get_int("seed");
    const std::size_t max_n = args.get_int("max_n");

    for (const char* family : {"er", "grid", "cliques8"}) {
        for (std::size_t n = 128; n <= max_n; n *= 2) {
            auto g = make_workload(family, n, seed + n);
            auto d = hop_diameter_estimate(g);
            auto r = run_elkin_mst(g, elkin_opts);
            double bound = (d + std::sqrt(static_cast<double>(n))) *
                           (ceil_log2(n) + 1);
            table.new_row()
                .add(std::string(family))
                .add(static_cast<std::uint64_t>(g.vertex_count()))
                .add(static_cast<std::uint64_t>(g.edge_count()))
                .add(static_cast<std::uint64_t>(d))
                .add(r.k_used)
                .add(static_cast<std::int64_t>(r.boruvka_phases))
                .add(r.stats.rounds)
                .add(bound, 0)
                .add(static_cast<double>(r.stats.rounds) / bound, 2);
        }
    }
    if (args.get_bool("csv"))
        table.print_csv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\nExpected shape: ratio stays within a constant band while\n"
                 "n grows 8x and D varies by two orders of magnitude.\n";
    return 0;
}
