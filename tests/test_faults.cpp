#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "dmst/congest/faults.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/verify_mst.h"
#include "dmst/graph/generators.h"
#include "dmst/obs/trace.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/util/assert.h"
#include "dmst/util/rng.h"
#include "expect_counters.h"

namespace dmst {
namespace {

FaultConfig lossy(double rate, std::uint64_t seed = 11)
{
    FaultConfig fc;
    fc.drop_rate = rate;
    fc.loss_seed = seed;
    return fc;
}

// Options of a driver on the async engine, where loss lives.
template <typename Opts>
Opts on_async(FaultConfig faults = {})
{
    Opts opts;
    opts.engine = Engine::Async;
    opts.faults = std::move(faults);
    return opts;
}

// ------------------------------------------------------------ the planner

TEST(Faults, PlanMatchesFirstPrinciplesReplay)
{
    FaultConfig fc = lossy(0.4, 21);
    Rng rng(3);
    auto g = gen_erdos_renyi(12, 30, rng);
    LinkFaults lf(g, fc);

    for (EdgeId e = 0; e < g.edge_count(); ++e) {
        for (int dir = 0; dir < 2; ++dir) {
            std::uint64_t counter = 0;
            const std::uint64_t one_way = FaultConfig::kOneWay;
            const std::uint64_t rtt = FaultConfig::kRtt;
            FaultPlan plan = lf.plan_transmission(e, dir, counter);

            // Re-derive the plan from the exposed loss draw.
            std::uint64_t t = 0, window = 0;
            FaultPlan expect;
            expect.delivery = 0;
            for (std::uint32_t k = 1;; ++k) {
                const bool forced =
                    static_cast<int>(k) >= FaultConfig::kMaxAttempts;
                const bool data_lost =
                    !forced && LinkFaults::transmission_lost(fc, e, dir, 0, window);
                bool done = false;
                if (!data_lost) {
                    if (expect.delivery == 0)
                        expect.delivery = t + one_way;
                    ++expect.acks;
                    const bool ack_lost =
                        !forced &&
                        LinkFaults::transmission_lost(fc, e, dir, 1, window);
                    if (!ack_lost) {
                        expect.attempts = k;
                        done = true;
                    } else {
                        ++expect.drops;
                    }
                } else {
                    ++expect.drops;
                }
                if (done)
                    break;
                ++expect.timeouts;
                ++expect.retransmissions;
                t += FaultConfig::rto(static_cast<int>(k), rtt);
                ++window;
            }

            EXPECT_EQ(plan.delivery, expect.delivery);
            EXPECT_EQ(plan.attempts, expect.attempts);
            EXPECT_EQ(plan.drops, expect.drops);
            EXPECT_EQ(plan.acks, expect.acks);
            EXPECT_EQ(plan.retransmissions, plan.attempts - 1);
            EXPECT_EQ(plan.timeouts, plan.retransmissions);
            EXPECT_EQ(counter, plan.attempts);
            // The attempt counter advanced once per data attempt.
            EXPECT_GE(plan.delivery, one_way);
        }
    }
}

TEST(Faults, BoundedAdversaryForcesDelivery)
{
    // Near-certain loss: every plan must still deliver, within
    // kMaxAttempts data transmissions and worst_round_ticks time units.
    const FaultConfig fc = lossy(0.99, 5);
    Rng rng(4);
    auto g = gen_cycle(8, rng);
    LinkFaults lf(g, fc);

    std::uint64_t counter = 0;
    for (int i = 0; i < 64; ++i) {
        FaultPlan plan = lf.plan_transmission(0, 0, counter);
        EXPECT_LE(plan.attempts,
                  static_cast<std::uint32_t>(FaultConfig::kMaxAttempts));
        EXPECT_GT(plan.delivery, 0u);
        EXPECT_LE(plan.delivery, fc.worst_round_ticks());
    }
}

TEST(Faults, BurstWindowsShareOneDraw)
{
    FaultConfig fc = lossy(0.5, 7);
    fc.burst_len = 4;
    // Within one window all draws agree; across windows they eventually
    // differ (at 50% the chance 16 windows agree is 2^-15 per domain).
    bool varies = false;
    for (int dom = 0; dom < 2; ++dom) {
        for (std::uint64_t w = 0; w < 16; ++w) {
            const bool lost = LinkFaults::transmission_lost(fc, 3, 0, dom, w);
            varies = varies ||
                     lost != LinkFaults::transmission_lost(fc, 3, 0, dom, 0);
        }
    }
    EXPECT_TRUE(varies);

    // The planner consumes burst_len counter steps per window: with the
    // counter mid-window, the same window index governs the draw.
    Rng rng(5);
    auto g = gen_path(4, rng);
    LinkFaults lf(g, fc);
    std::uint64_t c1 = 0, c2 = 1;  // same window (0..3)
    FaultPlan a = lf.plan_transmission(0, 0, c1);
    FaultPlan b = lf.plan_transmission(0, 0, c2);
    EXPECT_EQ(a.attempts, b.attempts);
}

TEST(Faults, ValidationRejectsBadConfigs)
{
    Rng rng(6);
    auto g = gen_path(5, rng);
    FaultConfig fc;
    fc.drop_rate = 1.0;
    EXPECT_THROW(LinkFaults(g, fc), std::invalid_argument);
    fc = FaultConfig{};
    fc.drop_rate = -0.1;
    EXPECT_THROW(LinkFaults(g, fc), std::invalid_argument);
    fc = FaultConfig{};
    fc.burst_len = 0;
    EXPECT_THROW(LinkFaults(g, fc), std::invalid_argument);
    fc = FaultConfig{};
    fc.crashes.push_back(CrashPoint{99, 1});  // vertex out of range
    EXPECT_THROW(LinkFaults(g, fc), std::invalid_argument);
    fc = FaultConfig{};
    fc.crashes.push_back(CrashPoint{1, 0});  // round 0 invalid
    EXPECT_THROW(LinkFaults(g, fc), std::invalid_argument);
}

TEST(Faults, CrashSpecGrammarRoundTrips)
{
    EXPECT_TRUE(parse_crash_spec("").empty());
    EXPECT_TRUE(parse_crash_spec("none").empty());
    auto pts = parse_crash_spec("3@7+0@1");
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_EQ(pts[0].vertex, 3u);
    EXPECT_EQ(pts[0].round, 7u);
    EXPECT_EQ(pts[1].vertex, 0u);
    EXPECT_EQ(pts[1].round, 1u);
    EXPECT_EQ(parse_crash_spec(crash_spec_string(pts)).size(), 2u);
    EXPECT_EQ(crash_spec_string({}), "none");

    EXPECT_THROW(parse_crash_spec("3"), std::invalid_argument);
    EXPECT_THROW(parse_crash_spec("3@"), std::invalid_argument);
    EXPECT_THROW(parse_crash_spec("@4"), std::invalid_argument);
    EXPECT_THROW(parse_crash_spec("3@x"), std::invalid_argument);
    EXPECT_THROW(parse_crash_spec("3@4+"), std::invalid_argument);
    EXPECT_THROW(parse_crash_spec("3@0"), std::invalid_argument);
}

TEST(Faults, SeededCrashesAreDeterministicAndInRange)
{
    auto a = seeded_crashes(20, 3, 40, 9);
    auto b = seeded_crashes(20, 3, 40, 9);
    auto c = seeded_crashes(20, 3, 40, 10);
    ASSERT_EQ(a.size(), 3u);
    std::set<VertexId> vs;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].vertex, b[i].vertex);
        EXPECT_EQ(a[i].round, b[i].round);
        EXPECT_LT(a[i].vertex, 20u);
        EXPECT_GE(a[i].round, 1u);
        EXPECT_LE(a[i].round, 40u);
        vs.insert(a[i].vertex);
    }
    EXPECT_EQ(vs.size(), 3u);  // distinct vertices
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].vertex != c[i].vertex || a[i].round != c[i].round;
    EXPECT_TRUE(differs);
}

TEST(Faults, FaultAwareBudgetScalesWithWorstRound)
{
    FaultConfig off;
    EXPECT_EQ(off.worst_round_ticks(), 1u);
    EXPECT_EQ(scaled_round_budget(100, off), 100u);

    FaultConfig on = lossy(0.2);
    EXPECT_GT(on.worst_round_ticks(), 1u);
    EXPECT_EQ(scaled_round_budget(100, on), 100 * on.worst_round_ticks());
    // Saturates instead of overflowing.
    EXPECT_EQ(scaled_round_budget(~std::uint64_t{0} / 2, on),
              ~std::uint64_t{0});

    // A driver's options lower to their NetConfig slice unchanged, field
    // by field, except max_rounds: the one place the budget is scaled.
    auto slice = [](const NetConfig& c) {
        return std::make_tuple(
            c.bandwidth, c.record_per_round, c.record_per_edge,
            c.engine, c.threads, c.conditioner.hetero_bandwidth,
            c.conditioner.adversarial_order, c.conditioner.seed,
            c.faults.drop_rate, c.faults.burst_len, c.faults.loss_seed,
            c.faults.crashes.size(), c.faults.crashes.at(0).vertex,
            c.faults.crashes.at(0).round, c.faults.graceful,
            c.async.max_delay, c.async.event_seed,
            c.async.sync, c.socket.procs, c.socket.rank, c.socket.host,
            c.socket.base_port, c.socket.handshake_timeout_ms,
            c.socket.round_timeout_ms, c.trace.enabled);
    };
    for (const FaultConfig& faults : {off, on}) {
        ElkinOptions o;  // every field off its default
        o.bandwidth = 3;
        o.max_rounds = 1234;
        o.record_per_round = true;
        o.record_per_edge = true;
        o.engine = Engine::Async;
        o.threads = 5;
        o.conditioner = {true, true, 99};
        o.faults = faults;
        o.faults.burst_len = 3;
        o.faults.crashes = {{4, 6}};
        o.faults.graceful = false;
        o.async = {7, 8, SyncMode::Beta};
        o.socket.procs = 4;
        o.socket.rank = 2;
        o.socket.host = "10.0.0.1";
        o.socket.base_port = 4000;
        o.socket.handshake_timeout_ms = 11;
        o.socket.round_timeout_ms = 12;
        o.trace = true;
        const NetConfig c = o.to_net_config();
        EXPECT_EQ(slice(c), slice(o)) << "loss " << faults.loss_enabled();
        EXPECT_EQ(c.max_rounds, scaled_round_budget(1234, o.faults));
        EXPECT_EQ(c.max_rounds == 1234, !faults.loss_enabled());
    }
}

// ------------------------------------------------- loss shim on the engines

TEST(Faults, LockStepEnginesRejectLoss)
{
    Rng rng(30);
    auto g = gen_path(6, rng);
    for (Engine engine : {Engine::Serial, Engine::Parallel}) {
        NetConfig config;
        config.engine = engine;
        config.faults = lossy(0.1);
        EXPECT_THROW(make_network(g, config), std::invalid_argument)
            << engine_name(engine);

        ElkinOptions opts;
        opts.engine = engine;
        opts.faults = lossy(0.1);
        EXPECT_THROW(run_elkin_mst(g, opts), std::invalid_argument)
            << engine_name(engine);
    }
}

TEST(Faults, LossPreservesMstAndReplaysExactly)
{
    Rng rng(31);
    auto g = gen_erdos_renyi(24, 60, rng);
    const MstResult oracle = mst_kruskal(g);

    const DistributedMstResult base =
        run_elkin_mst(g, on_async<ElkinOptions>());
    ASSERT_EQ(base.mst_edges, oracle.edges);
    EXPECT_EQ(base.stats.retransmissions, 0u);
    EXPECT_EQ(base.stats.drops, 0u);
    EXPECT_EQ(base.stats.acks, 0u);

    for (double rate : {0.05, 0.2}) {
        for (std::uint64_t seed : {11ull, 12ull}) {
            const ElkinOptions opts = on_async<ElkinOptions>(lossy(rate, seed));
            const DistributedMstResult a = run_elkin_mst(g, opts);
            EXPECT_EQ(a.mst_edges, oracle.edges)
                << "rate=" << rate << " seed=" << seed;
            EXPECT_FALSE(a.stats.partial());
            EXPECT_GT(a.stats.retransmissions, 0u);
            EXPECT_EQ(a.stats.timeouts, a.stats.retransmissions);
            EXPECT_GE(a.stats.acks, a.stats.messages);

            // Replay-exact counters.
            const DistributedMstResult b = run_elkin_mst(g, opts);
            EXPECT_EQ(a.stats.retransmissions, b.stats.retransmissions);
            EXPECT_EQ(a.stats.drops, b.stats.drops);
            EXPECT_EQ(a.stats.acks, b.stats.acks);
            EXPECT_EQ(a.stats.rounds, b.stats.rounds);
            EXPECT_EQ(a.stats.virtual_time, b.stats.virtual_time);
            EXPECT_EQ(a.stats.messages, b.stats.messages);
        }
    }
}

TEST(Faults, DropRateZeroIsExactNoOp)
{
    Rng rng(33);
    auto g = gen_grid(4, 5, rng);
    const DistributedMstResult a = run_elkin_mst(g, on_async<ElkinOptions>());
    // The seed must not matter at rate 0.
    const DistributedMstResult b =
        run_elkin_mst(g, on_async<ElkinOptions>(lossy(0.0, 999)));
    EXPECT_EQ(a.mst_edges, b.mst_edges);
    EXPECT_EQ(a.stats.rounds, b.stats.rounds);
    EXPECT_EQ(a.stats.virtual_time, b.stats.virtual_time);
    EXPECT_EQ(a.stats.messages, b.stats.messages);
    EXPECT_EQ(b.stats.retransmissions, 0u);
    EXPECT_EQ(b.stats.drops, 0u);
    EXPECT_EQ(b.stats.acks, 0u);
}

TEST(Faults, VerifierVerdictInvariantUnderLoss)
{
    Rng rng(34);
    auto g = gen_erdos_renyi(18, 40, rng);
    const MstResult oracle = mst_kruskal(g);
    const auto good = ports_from_edges(g, oracle.edges);

    const VerifyOptions clean = on_async<VerifyOptions>();
    const VerifyMstResult base = run_verify_mst(g, good, clean);
    ASSERT_TRUE(base.accepted);

    const VerifyOptions opts = on_async<VerifyOptions>(lossy(0.2, 17));
    const VerifyMstResult a = run_verify_mst(g, good, opts);
    EXPECT_TRUE(a.accepted);
    EXPECT_EQ(a.verdict, base.verdict);
    EXPECT_GT(a.stats.retransmissions, 0u);

    // A wrong claim is still rejected identically under loss.
    auto bad_edges = oracle.edges;
    ASSERT_GE(bad_edges.size(), 1u);
    bad_edges.pop_back();
    const auto bad = ports_from_edges(g, bad_edges);
    const VerifyMstResult r0 = run_verify_mst(g, bad, clean);
    const VerifyMstResult r1 = run_verify_mst(g, bad, opts);
    EXPECT_FALSE(r0.accepted);
    EXPECT_EQ(r1.verdict, r0.verdict);
    EXPECT_EQ(r1.witness, r0.witness);
}

// --------------------------------------------------------------- crash-stop

TEST(Faults, CrashStopYieldsPartialSubforest)
{
    Rng rng(36);
    auto g = gen_erdos_renyi(20, 50, rng);
    const MstResult oracle = mst_kruskal(g);
    const std::set<EdgeId> oracle_set(oracle.edges.begin(),
                                      oracle.edges.end());

    for (Engine engine : {Engine::Serial, Engine::Parallel}) {
        ElkinOptions opts;
        opts.engine = engine;
        opts.faults.crashes = parse_crash_spec("4@3+9@6");
        const DistributedMstResult r = run_elkin_mst(g, opts);
        EXPECT_TRUE(r.stats.partial());
        EXPECT_TRUE(r.stats.stalled);
        EXPECT_EQ(r.stats.crashed_vertices, 2u);
        EXPECT_LT(r.mst_edges.size(), g.vertex_count() - 1);
        for (EdgeId e : r.mst_edges)
            EXPECT_TRUE(oracle_set.count(e)) << "edge " << e;

        // Replay-exact degradation.
        const DistributedMstResult r2 = run_elkin_mst(g, opts);
        EXPECT_EQ(r2.mst_edges, r.mst_edges);
        EXPECT_EQ(r2.stats.rounds, r.stats.rounds);
        EXPECT_EQ(r2.stats.failed_sends, r.stats.failed_sends);
    }
}

TEST(Faults, NonGracefulCrashThrows)
{
    Rng rng(38);
    auto g = gen_cycle(10, rng);
    ElkinOptions opts;
    opts.faults.crashes = parse_crash_spec("3@2");
    opts.faults.graceful = false;
    EXPECT_THROW(run_elkin_mst(g, opts), InvariantViolation);
}

TEST(Faults, AsyncEngineRejectsCrashStop)
{
    Rng rng(39);
    auto g = gen_path(6, rng);
    NetConfig config;
    config.engine = Engine::Async;
    config.faults.crashes = parse_crash_spec("1@1");
    EXPECT_THROW(make_network(g, config), std::invalid_argument);

    ElkinOptions opts;
    opts.engine = Engine::Async;
    opts.faults.crashes = parse_crash_spec("1@1");
    EXPECT_THROW(run_elkin_mst(g, opts), std::invalid_argument);
}

// ------------------------------------------------------------------- traces

TEST(Faults, TraceAttributesRetransmissionsAndConserves)
{
    Rng rng(40);
    auto g = gen_erdos_renyi(16, 40, rng);
    ElkinOptions opts = on_async<ElkinOptions>(lossy(0.2, 41));
    opts.trace = true;
    const DistributedMstResult r = run_elkin_mst(g, opts);
    ASSERT_TRUE(r.stats.trace);

    // finalize() already validated conservation; pin the exported totals
    // and check the per-phase attribution sums back up by hand.
    const TraceTable& table = *r.stats.trace;
    expect_exported_totals(r.stats, "lossy elkin");
    std::uint64_t span_retrans = 0, span_drops = 0;
    bool attributed_outside_init = false;
    for (const TraceSpan& s : table.spans) {
        span_retrans += s.retransmissions;
        span_drops += s.drops;
        if (s.retransmissions > 0 && s.phase != TracePhase::Init)
            attributed_outside_init = true;
    }
    EXPECT_EQ(span_retrans, r.stats.retransmissions);
    EXPECT_EQ(span_drops, r.stats.drops);
    EXPECT_TRUE(attributed_outside_init);
}

}  // namespace
}  // namespace dmst
