// Experiment E14 — synchronizer shoot-out on the event-driven engine:
// α-synchronizer vs spanning-tree β-synchronizer vs native message-driven
// dispatch (sim/async_network.h, sim/synchronizer.h).
//
// For each (family, n, max_delay, event_seed) the bench runs Elkin's MST
// on the serial lock-step engine and on the async engine behind both
// synchronizers, and the natively asynchronous GHS driver with no
// synchronizer at all, reporting the control-plane cost of each rung of
// the ladder: control messages per payload message, delivery events per
// pulse, and virtual time per lock-step round. It is also a CI-able
// regression check; it exits non-zero if any of the engine's guarantees
// is violated:
//
//   - the MST edge set and the payload message/word counters are
//     bit-identical to the serial run in every α and β cell, for every
//     (max_delay, event_seed) point (synchronizer exactness);
//   - executed pulse levels cover the serial round count and exceed it
//     only by the bounded endgame skew;
//   - virtual time dominates the pulse count (every level costs at least
//     one unit) and every control message is exactly one word;
//   - the β control plane is bounded by its spanning-forest budget
//     (~2(n-1) messages per level, gated at 3n per pulse) and is strictly
//     cheaper than α's per-edge pulses whenever the graph is dense
//     (m >= 3n);
//   - the native driver exchanges zero synchronizer traffic, matches the
//     sequential MST weight exactly, and its tree is accepted by the
//     in-model verification protocol;
//   - repeating a cell with the same event seed reproduces bit-identical
//     RunStats (events, virtual time, sync traffic) — determinism;
//   - the phase-kicked Borůvka driver (multi-epoch resume) stays
//     output-identical behind both synchronizers.

#include <cstdint>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmst/core/elkin_mst.h"
#include "dmst/core/ghs_native.h"
#include "dmst/core/sync_boruvka.h"
#include "dmst/core/verify_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/util/cli.h"
#include "dmst/util/table.h"

using namespace dmst;

namespace {

std::uint64_t forest_weight(const WeightedGraph& g, const MstForestResult& r)
{
    std::set<EdgeId> edges;
    for (VertexId v = 0; v < g.vertex_count(); ++v)
        for (std::size_t p : r.mst_ports[v])
            edges.insert(g.edge_id(v, p));
    std::uint64_t total = 0;
    for (EdgeId e : edges)
        total += g.edge(e).w;
    return total;
}

}  // namespace

int main(int argc, char** argv)
{
    Args args;
    args.define("families", "er,grid,path", "workload families");
    args.define("max_n", "256", "largest size of the 4x-spaced sweep");
    args.define("seed", "13", "workload seed");
    args.define("max_delays", "1,4", "async per-message delay bounds");
    args.define("event_seeds", "1,2", "async delay-stream seeds");
    args.define("csv", "false", "emit CSV instead of an aligned table");
    std::vector<std::string> families;
    std::vector<std::int64_t> max_delays, event_seeds;
    std::uint64_t seed = 0;
    std::size_t max_n = 0;
    bool csv = false;
    try {
        args.parse(argc, argv);
        families = split_list(args.get("families"));
        max_delays = split_int_list(args.get("max_delays"));
        event_seeds = split_int_list(args.get("event_seeds"));
        seed = args.get_int("seed");
        max_n = static_cast<std::size_t>(args.get_int("max_n"));
        csv = args.get_bool("csv");
        for (std::int64_t d : max_delays)
            if (d < 1)
                throw std::invalid_argument("--max_delays items must be >= 1");
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n" << args.help();
        return 1;
    }

    std::cout << "E14: synchronizer shoot-out of --engine=async — alpha vs "
                 "beta vs native dispatch\n";
    Table table({"family", "n", "sync", "max_delay", "event_seed", "rounds",
                 "pulses", "events", "virtual_time", "sync_msgs",
                 "sync_per_payload", "vt_per_round"});
    bool ok = true;
    auto fail = [&](const std::string& why) {
        std::cerr << "E14 VIOLATION: " << why << "\n";
        ok = false;
    };

    for (const std::string& family : families) {
        for (std::size_t n = 64; n <= max_n; n *= 4) {
            auto g = make_workload(family, n, seed);
            const std::size_t m = g.edge_count();

            ElkinOptions ideal;
            auto base = run_elkin_mst(g, ideal);
            const auto reference = mst_kruskal(g);

            for (std::int64_t max_delay : max_delays) {
            for (std::int64_t event_seed : event_seeds) {
                const std::string point =
                    family + "/" + std::to_string(n) + "/d" +
                    std::to_string(max_delay) + "/s" +
                    std::to_string(event_seed);

                // --- α and β: the same round-programmed driver behind
                // each synchronizer; both must be payload-exact.
                std::uint64_t alpha_control = 0;
                for (SyncMode sync : {SyncMode::Alpha, SyncMode::Beta}) {
                    ElkinOptions opts;
                    opts.engine = Engine::Async;
                    opts.async.max_delay = static_cast<int>(max_delay);
                    opts.async.event_seed =
                        static_cast<std::uint64_t>(event_seed);
                    opts.async.sync = sync;
                    auto run = run_elkin_mst(g, opts);
                    const std::string where =
                        point + "/" + sync_name(sync);

                    if (run.mst_edges != base.mst_edges)
                        fail(where + ": MST differs from the serial run");
                    if (run.stats.messages != base.stats.messages ||
                        run.stats.words != base.stats.words)
                        fail(where + ": payload counters differ from serial");
                    if (run.stats.rounds < base.stats.rounds)
                        fail(where +
                             ": pulse levels fall short of serial rounds");
                    if (run.stats.rounds > 2 * base.stats.rounds + 16)
                        fail(where + ": endgame pulse skew out of bounds");
                    if (run.stats.virtual_time < run.stats.rounds)
                        fail(where + ": virtual time below the pulse count");
                    if (run.stats.sync_words != run.stats.sync_messages)
                        fail(where + ": control messages are not one-word");
                    if (run.stats.sync_messages == 0)
                        fail(where + ": a synchronizer with no control plane");

                    if (sync == SyncMode::Alpha) {
                        alpha_control = run.stats.sync_messages;
                        if (run.stats.sync_messages <= run.stats.messages)
                            fail(where +
                                 ": missing SAFE traffic (acks alone?)");
                    } else {
                        // β budget: READY convergecast + GO broadcast over
                        // a spanning forest is < 2n messages per pulse;
                        // gate with headroom for the epoch restarts.
                        if (run.stats.sync_messages >
                            3 * static_cast<std::uint64_t>(n) *
                                run.stats.rounds)
                            fail(where + ": beta control exceeds its "
                                         "spanning-forest budget");
                        // On dense graphs β must beat α's per-edge pulses.
                        if (m >= 3 * n &&
                            run.stats.sync_messages >= alpha_control)
                            fail(where + ": beta not cheaper than alpha on "
                                         "a dense graph");
                    }

                    // Determinism: the same seed replays bit-identical
                    // stats.
                    auto replay = run_elkin_mst(g, opts);
                    if (replay.stats.events != run.stats.events ||
                        replay.stats.virtual_time != run.stats.virtual_time ||
                        replay.stats.sync_messages != run.stats.sync_messages ||
                        replay.stats.rounds != run.stats.rounds)
                        fail(where + ": replay with the same seed diverged");

                    table.new_row()
                        .add(family)
                        .add(static_cast<std::uint64_t>(n))
                        .add(sync_name(sync))
                        .add(static_cast<std::uint64_t>(max_delay))
                        .add(static_cast<std::uint64_t>(event_seed))
                        .add(base.stats.rounds)
                        .add(run.stats.rounds)
                        .add(run.stats.events)
                        .add(run.stats.virtual_time)
                        .add(run.stats.sync_messages)
                        .add(static_cast<double>(run.stats.sync_messages) /
                             static_cast<double>(run.stats.messages))
                        .add(static_cast<double>(run.stats.virtual_time) /
                             static_cast<double>(base.stats.rounds));
                }

                // --- native: the message-driven GHS with no synchronizer.
                GhsNativeOptions nopts;
                nopts.engine = Engine::Async;
                nopts.async.max_delay = static_cast<int>(max_delay);
                nopts.async.event_seed = static_cast<std::uint64_t>(event_seed);
                nopts.async.sync = SyncMode::None;
                auto native = run_ghs_native(g, nopts);
                const std::string where = point + "/none";

                if (native.stats.sync_messages != 0 ||
                    native.stats.sync_words != 0)
                    fail(where + ": native dispatch paid synchronizer traffic");
                if (forest_weight(g, native) != reference.total_weight)
                    fail(where + ": native MST weight differs from Kruskal");
                auto verdict = run_verify_mst(g, native.mst_ports);
                if (!verdict.accepted)
                    fail(where + ": verification protocol rejected the "
                                 "native tree");

                auto nreplay = run_ghs_native(g, nopts);
                if (nreplay.stats.events != native.stats.events ||
                    nreplay.stats.virtual_time != native.stats.virtual_time ||
                    nreplay.stats.messages != native.stats.messages)
                    fail(where + ": replay with the same seed diverged");

                table.new_row()
                    .add(family)
                    .add(static_cast<std::uint64_t>(n))
                    .add("none")
                    .add(static_cast<std::uint64_t>(max_delay))
                    .add(static_cast<std::uint64_t>(event_seed))
                    .add(base.stats.rounds)
                    .add(native.stats.rounds)
                    .add(native.stats.events)
                    .add(native.stats.virtual_time)
                    .add(native.stats.sync_messages)
                    .add(0.0)
                    .add(static_cast<double>(native.stats.virtual_time) /
                         static_cast<double>(base.stats.rounds));
            }
            }

            // Multi-epoch resume: the phase-kicked Borůvka driver re-kicks
            // processes after quiescence; every epoch must re-align behind
            // both synchronizers.
            SyncBoruvkaOptions bs;
            auto rb = run_sync_boruvka(g, bs);
            for (SyncMode sync : {SyncMode::Alpha, SyncMode::Beta}) {
                SyncBoruvkaOptions ba;
                ba.engine = Engine::Async;
                ba.async.sync = sync;
                auto rba = run_sync_boruvka(g, ba);
                if (rba.mst_edges != rb.mst_edges || rba.phases != rb.phases ||
                    rba.stats.messages != rb.stats.messages)
                    fail(family + "/" + std::to_string(n) + "/" +
                         sync_name(sync) +
                         ": multi-epoch Borůvka diverged from serial");
            }
        }
    }

    if (csv)
        table.print_csv(std::cout);
    else
        table.print(std::cout);
    if (!ok) {
        std::cerr << "E14: async-engine guarantees VIOLATED\n";
        return 2;
    }
    std::cout << "E14: all async-engine guarantees hold\n";
    return 0;
}
