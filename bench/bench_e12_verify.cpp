// Experiment E12 — round/message complexity of the in-model MST
// verification protocol (core/verify_mst.h), against its analytical
// budgets. With D̂ = the measured BFS-tree height, h = the claimed-tree
// height, q = m - (n-1) non-tree edges, and b the bandwidth:
//
//   rounds   <= c0 + c1*(D̂ + h) + c2*ceil(2q/b)
//              (HELLO + the two BFS waves + snapshot/verdict convergecasts
//               are O(D̂ + h); tokens pipeline b per edge per round, and no
//               edge carries more than the 2q token halves)
//   messages <= c0 + c1*(m + n) + 2q*(h+1) + q*(D̂+1)
//              (HELLO/INDEX are 2m each, the BFS/snapshot/verdict waves
//               O(n) on tree edges, each token half climbs at most h+1
//               hops, and each pair completion propagates one count update
//               at most D̂+1 hops up τ)
//
// The bench sweeps families and sizes, prints measured vs budget, the
// verify/construction cost ratio, and exits non-zero if a budget is
// exceeded (making it a CI-able regression check on the protocol).

#include <iostream>

#include "dmst/core/elkin_mst.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/verify_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/sim/engine.h"
#include "dmst/util/cli.h"
#include "dmst/util/intmath.h"
#include "dmst/util/table.h"

using namespace dmst;

int main(int argc, char** argv)
{
    Args args;
    args.define("families", "er,grid,cliques8", "workload families");
    args.define("max_n", "1024", "largest size of the 4x-spaced sweep");
    args.define("bandwidths", "1,2", "CONGEST bandwidths");
    args.define("seed", "12", "workload seed");
    args.define("csv", "false", "emit CSV instead of an aligned table");
    define_engine_flags(args);
    try {
        args.parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n" << args.help();
        return 1;
    }

    const std::uint64_t seed = args.get_int("seed");
    const std::size_t max_n = args.get_int("max_n");

    std::cout << "E12: in-model MST verification vs its complexity budgets\n";
    Table table({"family", "n", "m", "b", "rounds", "round_budget", "msgs",
                 "msg_budget", "vs_build"});
    bool within_budget = true;
    for (const std::string& family : split_list(args.get("families"))) {
        for (std::size_t n = 64; n <= max_n; n *= 4) {
            auto g = make_workload(family, n, seed);
            for (std::int64_t b : split_int_list(args.get("bandwidths"))) {
                ElkinOptions build_opts;
                build_opts.bandwidth = static_cast<int>(b);
                read_engine_flags(args, build_opts);
                auto built = run_elkin_mst(g, build_opts);

                VerifyOptions opts;
                opts.bandwidth = static_cast<int>(b);
                read_engine_flags(args, opts);
                auto r = run_verify_mst(
                    g, ports_from_edges(g, built.mst_edges), opts);
                if (!r.accepted) {
                    std::cerr << "constructed MST rejected (" << family
                              << ", n=" << n << ")\n";
                    return 2;
                }

                const std::uint64_t m = g.edge_count();
                const std::uint64_t q = r.nontree_edges;
                const std::uint64_t d_hat = r.tau_height;
                const std::uint64_t h = r.claimed_height;
                const std::uint64_t bw = static_cast<std::uint64_t>(b);
                const std::uint64_t round_budget =
                    32 + 8 * (d_hat + h) + 4 * ceil_div(2 * q, bw);
                const std::uint64_t msg_budget =
                    64 + 8 * (m + n) + 2 * q * (h + 1) + q * (d_hat + 1);
                within_budget = within_budget &&
                                r.stats.rounds <= round_budget &&
                                r.stats.messages <= msg_budget;
                table.new_row()
                    .add(family)
                    .add(static_cast<std::uint64_t>(n))
                    .add(m)
                    .add(static_cast<std::uint64_t>(b))
                    .add(r.stats.rounds)
                    .add(round_budget)
                    .add(r.stats.messages)
                    .add(msg_budget)
                    .add(static_cast<double>(r.stats.rounds) /
                             static_cast<double>(built.stats.rounds),
                         2);
            }
        }
    }
    if (args.get_bool("csv"))
        table.print_csv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\nExpected shape: verification stays within its\n"
                 "O(D + h + q/b) round / O(m + q(h + D)) message budgets\n"
                 "and runs a fraction of the construction cost (vs_build).\n";
    if (!within_budget) {
        std::cerr << "BUDGET EXCEEDED: see the table above\n";
        return 2;
    }
    return 0;
}
