// Experiment E5 — Section 3, large-diameter regime: when D > sqrt(n), the
// (n/k, O(k)) base forest with k = Theta(D) keeps the per-phase upcast and
// downcast at O(D * n/k) = O(n) messages, while forcing k = sqrt(n) (the
// GKP-style base forest) pays Theta(D sqrt(n)) in the second phase —
// "super-linear for D = omega(sqrt n)".
//
// Sweeps the diameter via paths of 8-cliques, comparing the automatic k
// against a forced k = sqrt(n); reports the post-GHS (phase-2) traffic.

#include <iostream>

#include "dmst/sim/engine.h"

#include "dmst/core/elkin_mst.h"
#include "dmst/graph/generators.h"
#include "dmst/graph/metrics.h"
#include "dmst/util/cli.h"
#include "dmst/util/intmath.h"
#include "dmst/util/rng.h"
#include "dmst/util/table.h"

using namespace dmst;

int main(int argc, char** argv)
{
    Args args;
    args.define("max_cliques", "128", "largest chain length in the sweep");
    args.define("seed", "5", "workload seed");
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
    const std::size_t max_cliques = args.get_int("max_cliques");
    const std::uint64_t seed = args.get_int("seed");

    std::cout << "E5: large-D regime — auto k = Theta(D) vs forced k = sqrt(n)\n";
    Table table({"n", "D", "k_auto", "p2_msgs_auto", "k_sqrt", "p2_msgs_sqrt",
                 "p2_blowup", "rounds_auto", "rounds_sqrt"});
    for (std::size_t cliques = 16; cliques <= max_cliques; cliques *= 2) {
        Rng rng(seed + cliques);
        auto g = gen_cliques_path(cliques, 8, rng);
        const std::size_t n = g.vertex_count();
        auto d = hop_diameter_estimate(g);

        auto auto_k = run_elkin_mst(g, elkin_opts);
        auto forced =
            [&] {
                ElkinOptions o = elkin_opts;
                o.k_override = isqrt(n);
                return run_elkin_mst(g, o);
            }();

        table.new_row()
            .add(static_cast<std::uint64_t>(n))
            .add(static_cast<std::uint64_t>(d))
            .add(auto_k.k_used)
            .add(auto_k.phase2_messages)
            .add(forced.k_used)
            .add(forced.phase2_messages)
            .add(static_cast<double>(forced.phase2_messages) /
                     static_cast<double>(std::max<std::uint64_t>(
                         auto_k.phase2_messages, 1)),
                 2)
            .add(auto_k.stats.rounds)
            .add(forced.stats.rounds);
    }
    if (args.get_bool("csv"))
        table.print_csv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\nExpected shape: p2_blowup grows with D (the D*sqrt(n)\n"
                 "term of the forced base forest), while p2_msgs_auto stays\n"
                 "near-linear in n.\n";
    return 0;
}
