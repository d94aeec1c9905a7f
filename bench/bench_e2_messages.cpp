// Experiment E2 — Theorem 3.1, message complexity.
//
// Measures the message count of the Elkin algorithm against the bound
// m log n + n log n log* n, over (a) a size sweep at fixed density and
// (b) a density sweep at fixed size.

#include <iostream>

#include "dmst/sim/engine.h"

#include "dmst/core/elkin_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/graph/generators.h"
#include "dmst/util/cli.h"
#include "dmst/util/intmath.h"
#include "dmst/util/rng.h"
#include "dmst/util/table.h"

using namespace dmst;

namespace {

double message_bound(std::size_t n, std::size_t m)
{
    double logn = ceil_log2(n) + 1;
    return (static_cast<double>(m) +
            static_cast<double>(n) * (log_star(n) + 6)) *
           logn;
}

}  // namespace

int main(int argc, char** argv)
{
    Args args;
    args.define("max_n", "1024", "largest graph size in the size sweep");
    args.define("seed", "2", "workload seed");
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
    const std::uint64_t seed = args.get_int("seed");
    const std::size_t max_n = args.get_int("max_n");

    std::cout << "E2a: Theorem 3.1 (messages) — size sweep, m = 3n\n";
    Table size_table({"family", "n", "m", "messages", "bound", "ratio"});
    for (const char* family : {"er", "grid"}) {
        for (std::size_t n = 128; n <= max_n; n *= 2) {
            auto g = make_workload(family, n, seed + n);
            auto r = run_elkin_mst(g, elkin_opts);
            double bound = message_bound(g.vertex_count(), g.edge_count());
            size_table.new_row()
                .add(std::string(family))
                .add(static_cast<std::uint64_t>(g.vertex_count()))
                .add(static_cast<std::uint64_t>(g.edge_count()))
                .add(r.stats.messages)
                .add(bound, 0)
                .add(static_cast<double>(r.stats.messages) / bound, 3);
        }
    }
    if (!args.get_bool("csv"))
        size_table.print(std::cout);

    std::cout << "\nE2b: density sweep at n = 512 — messages track m log n\n";
    Table dens_table({"n", "m", "messages", "bound", "ratio"});
    const std::size_t n = std::min<std::size_t>(512, max_n);
    for (std::size_t m = 2 * n; m <= 32 * n && m <= n * (n - 1) / 2; m *= 2) {
        Rng rng(seed + m);
        auto g = gen_erdos_renyi(n, m, rng);
        auto r = run_elkin_mst(g, elkin_opts);
        double bound = message_bound(n, m);
        dens_table.new_row()
            .add(static_cast<std::uint64_t>(n))
            .add(static_cast<std::uint64_t>(m))
            .add(r.stats.messages)
            .add(bound, 0)
            .add(static_cast<double>(r.stats.messages) / bound, 3);
    }

    if (args.get_bool("csv")) {
        size_table.print_csv(std::cout);
        dens_table.print_csv(std::cout);
    } else {
        dens_table.print(std::cout);
    }
    std::cout << "\nExpected shape: both ratios stay within a constant band;\n"
                 "the density sweep shows messages growing linearly in m.\n";
    return 0;
}
