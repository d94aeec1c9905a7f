// Experiment E15 — cost and transparency of the fault-injection layer
// (congest/faults.h): the reliable-delivery shim under seeded loss.
//
// For each (family, n, drop_rate) the bench runs Elkin's MST on the async
// engine (loss is async-only) without and with the loss shim and reports
// the retransmission overhead and the virtual-time stretch. It is also a
// CI-able regression check; it exits non-zero if any of the layer's
// guarantees is violated:
//
//   - the MST edge set is bit-identical to the clean run in every cell
//     (the shim is transparent by construction);
//   - message/word counts (protocol traffic, not shim traffic) are
//     identical to the clean run;
//   - a second run of the same cell reproduces every fault counter
//     bit-for-bit (seeded loss is replay-exact);
//   - at drop_rate 0 the shim is a no-op: zero drops, retransmissions,
//     ACKs, and timeouts;
//   - the retransmission overhead is bounded: with independent per-attempt
//     loss on data and ACK, the expected retransmissions per message are
//     ~2p/(1-2p); the gate retrans/messages <= 5p + 0.02 leaves slack for
//     burst windows and small-sample noise without letting a regression
//     (e.g. a timer misfiring every round) slip through.

#include <iostream>
#include <string>
#include <vector>

#include "dmst/congest/faults.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/sim/engine.h"
#include "dmst/util/cli.h"
#include "dmst/util/table.h"

using namespace dmst;

int main(int argc, char** argv)
{
    Args args;
    args.define("families", "er,grid,path", "workload families");
    args.define("max_n", "1024", "largest size of the 4x-spaced sweep");
    args.define("bandwidth", "2", "CONGEST bandwidth b");
    args.define("seed", "13", "workload seed");
    args.define("loss_seed", "11", "loss-stream seed");
    args.define("csv", "false", "emit CSV instead of an aligned table");
    // Loss lives on the async engine only, so E15 has no --engine flag.
    args.define("threads", "0", "async engine workers (0 = hardware concurrency)");
    std::vector<std::string> families;
    int threads = 0, bandwidth = 0;
    std::uint64_t seed = 0, loss_seed = 0;
    std::size_t max_n = 0;
    bool csv = false;
    try {
        args.parse(argc, argv);
        families = split_list(args.get("families"));
        threads = static_cast<int>(args.get_int("threads"));
        seed = args.get_int("seed");
        loss_seed = args.get_int("loss_seed");
        max_n = static_cast<std::size_t>(args.get_int("max_n"));
        bandwidth = static_cast<int>(args.get_int("bandwidth"));
        csv = args.get_bool("csv");
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n" << args.help();
        return 1;
    }
    const double drop_rates[] = {0.0, 0.05, 0.2};

    std::cout << "E15: loss-shim overhead vs the clean substrate (b="
              << bandwidth << ", loss_seed=" << loss_seed << ")\n";
    Table table({"family", "n", "drop_rate", "vtime", "clean_vtime",
                 "vtime_ratio", "msgs", "retrans", "retrans_per_msg",
                 "drops", "acks"});
    bool ok = true;
    auto fail = [&](const std::string& why) {
        std::cerr << "E15 VIOLATION: " << why << "\n";
        ok = false;
    };

    for (const std::string& family : families) {
        for (std::size_t n = 64; n <= max_n; n *= 4) {
            auto g = make_workload(family, n, seed);

            ElkinOptions clean;
            clean.bandwidth = bandwidth;
            clean.engine = Engine::Async;
            clean.threads = threads;
            auto base = run_elkin_mst(g, clean);

            for (double rate : drop_rates) {
                ElkinOptions opts = clean;
                opts.faults.drop_rate = rate;
                opts.faults.loss_seed = loss_seed;
                auto run = run_elkin_mst(g, opts);
                const std::string where = family + "/" + std::to_string(n) +
                                          "/p=" + std::to_string(rate);

                if (run.mst_edges != base.mst_edges)
                    fail(where + ": MST differs from the clean run");
                if (run.stats.messages != base.stats.messages ||
                    run.stats.words != base.stats.words)
                    fail(where + ": loss changed protocol message counts");
                if (rate == 0.0) {
                    if (run.stats.drops != 0 ||
                        run.stats.retransmissions != 0 ||
                        run.stats.acks != 0 || run.stats.timeouts != 0)
                        fail(where + ": shim not a no-op at drop_rate 0");
                } else {
                    auto replay = run_elkin_mst(g, opts);
                    if (replay.stats.drops != run.stats.drops ||
                        replay.stats.retransmissions !=
                            run.stats.retransmissions ||
                        replay.stats.acks != run.stats.acks ||
                        replay.stats.timeouts != run.stats.timeouts ||
                        replay.stats.rounds != run.stats.rounds ||
                        replay.stats.virtual_time != run.stats.virtual_time)
                        fail(where + ": replay diverged from the first run");
                }
                const double retrans_per_msg =
                    static_cast<double>(run.stats.retransmissions) /
                    static_cast<double>(run.stats.messages);
                if (retrans_per_msg > 5.0 * rate + 0.02)
                    fail(where + ": retransmission overhead " +
                         std::to_string(retrans_per_msg) + " exceeds gate " +
                         std::to_string(5.0 * rate + 0.02));

                table.new_row()
                    .add(family)
                    .add(static_cast<std::uint64_t>(n))
                    .add(rate)
                    .add(run.stats.virtual_time)
                    .add(base.stats.virtual_time)
                    .add(static_cast<double>(run.stats.virtual_time) /
                         static_cast<double>(base.stats.virtual_time))
                    .add(run.stats.messages)
                    .add(run.stats.retransmissions)
                    .add(retrans_per_msg)
                    .add(run.stats.drops)
                    .add(run.stats.acks);
            }
        }
    }

    if (csv)
        table.print_csv(std::cout);
    else
        table.print(std::cout);
    if (!ok) {
        std::cerr << "E15: fault-layer guarantees VIOLATED\n";
        return 2;
    }
    std::cout << "E15: all fault-layer guarantees hold\n";
    return 0;
}
