// Experiment E4 — Theorem 3.2: in CONGEST(b log n) the Elkin algorithm
// runs in O((D + sqrt(n/b)) log n) rounds with unchanged message count.
//
// Sweeps b on fixed low-diameter and high-diameter graphs.

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
    args.define("n", "1024", "graph size");
    args.define("seed", "4", "workload seed");
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

    std::cout << "E4: Theorem 3.2 — CONGEST(b log n) bandwidth sweep\n";
    Table table({"family", "b", "k", "rounds", "bound", "r_ratio", "messages"});
    for (const char* family : {"er", "cliques8"}) {
        auto g = make_workload(family, n, seed);
        auto d = hop_diameter_estimate(g);
        for (int b : {1, 2, 4, 8, 16}) {
            auto r = run_elkin_mst(g, [&] {
                ElkinOptions o;
                o.bandwidth = b;
                read_engine_flags(args, o);
                return o;
            }());
            double bound =
                (static_cast<double>(d) +
                 std::sqrt(static_cast<double>(n) / b)) *
                (ceil_log2(n) + 1);
            table.new_row()
                .add(std::string(family))
                .add(static_cast<std::int64_t>(b))
                .add(r.k_used)
                .add(r.stats.rounds)
                .add(bound, 0)
                .add(static_cast<double>(r.stats.rounds) / bound, 2)
                .add(r.stats.messages);
        }
    }
    if (args.get_bool("csv"))
        table.print_csv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\nExpected shape: on the low-diameter family rounds fall\n"
                 "with b (the sqrt(n/b) term); messages stay essentially\n"
                 "flat across b; on the high-D family the D log n term\n"
                 "dominates and b has little effect.\n";
    return 0;
}
