// Unit tests of the pulse-synchronizer hierarchy (sim/synchronizer.h) and
// the event-driven engine surface (sim/async_network.h): pulse gating,
// canonical inbox ordering, the α SAFE fan, the β READY/GO tree protocol,
// engine selection, flood behavior, epoch resume, and composition rules.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "dmst/congest/payload_pool.h"
#include "dmst/graph/generators.h"
#include "dmst/graph/metrics.h"
#include "dmst/sim/async_network.h"
#include "dmst/sim/engine.h"
#include "dmst/sim/synchronizer.h"
#include "dmst/util/assert.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// Path 0 - 1 - 2 with unit weights.
WeightedGraph path3()
{
    return WeightedGraph::from_edges(3, {{0, 1, 1}, {1, 2, 1}});
}

// Delivers every pending control emit — and those deliveries trigger in
// turn — instantly, like a zero-delay network would.
void drain_control(PulseSynchronizer& sync, std::vector<SyncEmit>& queue)
{
    std::vector<SyncEmit> next;
    while (!queue.empty()) {
        next.clear();
        for (const SyncEmit& e : queue)
            sync.on_control(e.target, e.ctrl, e.level, next);
        std::swap(queue, next);
    }
}

TEST(Synchronizer, PulseGatingFollowsSafetyAndNeighborSafes)
{
    auto g = path3();
    AlphaSynchronizer sync(g);
    sync.start_epoch(0);

    // The epoch's first pulse is ungated.
    EXPECT_TRUE(sync.ready(1));
    std::vector<AsyncIncoming> inbox;
    sync.begin_pulse(1, inbox);
    EXPECT_TRUE(inbox.empty());
    EXPECT_EQ(sync.pulse(1), 1u);

    // One send outstanding: not safe (no SAFE fan emitted), not ready.
    std::vector<SyncEmit> out;
    sync.note_send(1);
    sync.note_pulse_sends_done(1, out);
    EXPECT_TRUE(out.empty());
    EXPECT_FALSE(sync.ready(1));

    // The ACK completes safety — the SAFE fan goes to both neighbors, in
    // port order, tagged with the current pulse — but pulse 2 still needs
    // SAFE(1) from both neighbors.
    sync.note_ack(1, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].target, 0u);
    EXPECT_EQ(out[1].target, 2u);
    EXPECT_EQ(out[0].level, 1u);
    EXPECT_EQ(out[1].level, 1u);
    EXPECT_FALSE(sync.ready(1));
    out.clear();
    sync.on_control(1, 0, 1, out);
    EXPECT_FALSE(sync.ready(1));
    sync.on_control(1, 0, 1, out);
    EXPECT_TRUE(sync.ready(1));
    EXPECT_TRUE(out.empty());  // α SAFEs never trigger further control
}

TEST(Synchronizer, SafeOneLevelAheadIsBankedForTheNextPulse)
{
    auto g = path3();
    AlphaSynchronizer sync(g);
    sync.start_epoch(0);
    std::vector<AsyncIncoming> inbox;
    std::vector<SyncEmit> out;
    sync.begin_pulse(0, inbox);
    sync.note_pulse_sends_done(0, out);
    EXPECT_EQ(out.size(), 1u);  // no sends: safe at once, fan to neighbor 1

    // Vertex 0 (degree 1) banks SAFE(2) from a fast neighbor while still
    // needing SAFE(1) for its own pulse 2.
    out.clear();
    sync.on_control(0, 0, 2, out);
    EXPECT_FALSE(sync.ready(0));
    sync.on_control(0, 0, 1, out);
    EXPECT_TRUE(sync.ready(0));
    sync.begin_pulse(0, inbox);
    sync.note_pulse_sends_done(0, out);
    EXPECT_TRUE(sync.ready(0));  // the banked SAFE(2) now gates pulse 3
}

TEST(Synchronizer, BeginPulseSortsBufferedPayloadsByPortThenLinkOrder)
{
    auto g = path3();
    AlphaSynchronizer sync(g);
    sync.start_epoch(0);
    std::vector<AsyncIncoming> inbox;
    std::vector<SyncEmit> out;
    sync.begin_pulse(1, inbox);

    // Arrival order scrambled across ports and link sequence. Payloads
    // travel as pool-slot handles, exactly as the engine hands them over.
    PayloadPool pool;
    auto slot = [&pool](std::uint32_t tag) {
        return pool.acquire(Message{tag, {}});
    };
    sync.buffer_payload(1, 1, AsyncIncoming{1, 1, slot(11)});
    sync.buffer_payload(1, 1, AsyncIncoming{0, 1, slot(1)});
    sync.buffer_payload(1, 1, AsyncIncoming{1, 0, slot(10)});
    sync.buffer_payload(1, 1, AsyncIncoming{0, 0, slot(0)});
    sync.note_pulse_sends_done(1, out);
    sync.on_control(1, 0, 1, out);
    sync.on_control(1, 0, 1, out);
    sync.begin_pulse(1, inbox);

    ASSERT_EQ(inbox.size(), 4u);
    EXPECT_EQ(inbox[0].payload->tag, 0u);
    EXPECT_EQ(inbox[1].payload->tag, 1u);
    EXPECT_EQ(inbox[2].payload->tag, 10u);
    EXPECT_EQ(inbox[3].payload->tag, 11u);
    EXPECT_EQ(pool.live(), 4u);
}

TEST(Synchronizer, RejectsIsolatedVertices)
{
    auto g = WeightedGraph::from_edges(3, {{0, 1, 1}});
    EXPECT_THROW(AlphaSynchronizer sync(g), InvariantViolation);
    EXPECT_THROW(BetaSynchronizer sync(g), InvariantViolation);
}

// ------------------------------------------------------- β-synchronizer

TEST(BetaSynchronizer, BuildsABfsForestRootedAtComponentMinima)
{
    // Two components: 0-1-2 and 3-4.
    auto g = WeightedGraph::from_edges(
        5, {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}});
    BetaSynchronizer sync(g);

    const std::size_t kNoPort = ~std::size_t{0};
    EXPECT_EQ(sync.tree_parent_port(0), kNoPort);  // root of {0,1,2}
    EXPECT_EQ(sync.tree_parent_port(3), kNoPort);  // root of {3,4}
    EXPECT_EQ(sync.tree_children(0), 1u);
    EXPECT_EQ(sync.tree_children(1), 1u);
    EXPECT_EQ(sync.tree_children(2), 0u);
    EXPECT_EQ(sync.tree_children(3), 1u);
    EXPECT_EQ(sync.tree_children(4), 0u);
    // Non-roots point at their BFS parent.
    EXPECT_EQ(g.neighbor(1, sync.tree_parent_port(1)), 0u);
    EXPECT_EQ(g.neighbor(2, sync.tree_parent_port(2)), 1u);
    EXPECT_EQ(g.neighbor(4, sync.tree_parent_port(4)), 3u);
}

TEST(BetaSynchronizer, ReadyGoHandshakeGatesEveryPulse)
{
    auto g = path3();
    BetaSynchronizer sync(g);
    sync.start_epoch(0);
    std::vector<AsyncIncoming> inbox;

    // Two consecutive pulses: the single-slot readiness state must recycle
    // cleanly at each begin_pulse.
    for (std::uint64_t p = 1; p <= 2; ++p) {
        std::vector<SyncEmit> pending;
        for (VertexId v = 0; v < 3; ++v) {
            ASSERT_TRUE(sync.ready(v)) << "pulse " << p;
            sync.begin_pulse(v, inbox);
            EXPECT_EQ(sync.pulse(v), p);
        }
        // Leaf 2 turns safe first: its READY starts the convergecast. The
        // inner vertex and the root stay unready until GO comes back down.
        sync.note_pulse_sends_done(2, pending);
        EXPECT_EQ(pending.size(), 1u);  // READY to parent 1
        EXPECT_EQ(pending[0].target, 1u);
        EXPECT_EQ(pending[0].level, p);
        sync.note_pulse_sends_done(0, pending);
        sync.note_pulse_sends_done(1, pending);
        EXPECT_FALSE(sync.ready(0));
        EXPECT_FALSE(sync.ready(1));
        EXPECT_FALSE(sync.ready(2));
        // READY climbs to the root; GO floods back down; everyone advances.
        drain_control(sync, pending);
        EXPECT_TRUE(sync.ready(0));
        EXPECT_TRUE(sync.ready(1));
        EXPECT_TRUE(sync.ready(2));
    }
}

TEST(BetaSynchronizer, ControlCostIsTwoPerTreeEdgePerPulse)
{
    Rng rng(7);
    auto g = gen_grid(4, 5, rng);  // n = 20, connected
    BetaSynchronizer sync(g);
    sync.start_epoch(0);
    std::vector<AsyncIncoming> inbox;
    std::vector<SyncEmit> all;
    for (VertexId v = 0; v < g.vertex_count(); ++v)
        sync.begin_pulse(v, inbox);
    for (VertexId v = 0; v < g.vertex_count(); ++v)
        sync.note_pulse_sends_done(v, all);
    std::size_t total = all.size();
    std::vector<SyncEmit> next;
    while (!all.empty()) {
        next.clear();
        for (const SyncEmit& e : all)
            sync.on_control(e.target, e.ctrl, e.level, next);
        total += next.size();
        std::swap(all, next);
    }
    // Exactly one READY and one GO per spanning-tree edge.
    EXPECT_EQ(total, 2 * (g.vertex_count() - 1));
}

TEST(BetaSynchronizer, PayloadOneTagAheadIsBankedForTheNextPulse)
{
    auto g = path3();
    BetaSynchronizer sync(g);
    sync.start_epoch(0);
    std::vector<AsyncIncoming> inbox;
    PayloadPool pool;
    auto slot = [&pool](std::uint32_t tag) {
        return pool.acquire(Message{tag, {}});
    };

    auto advance_all = [&] {
        std::vector<SyncEmit> pending;
        for (VertexId v = 0; v < 3; ++v)
            sync.note_pulse_sends_done(v, pending);
        drain_control(sync, pending);
    };

    for (VertexId v = 0; v < 3; ++v)
        sync.begin_pulse(v, inbox);
    // Vertex 1 at pulse 1 receives a current-tag payload and one from a
    // neighbor already executing pulse 2 (skew window {pulse, pulse + 1}).
    sync.buffer_payload(1, 1, AsyncIncoming{0, 0, slot(100)});
    sync.buffer_payload(1, 2, AsyncIncoming{1, 0, slot(200)});
    advance_all();

    sync.begin_pulse(1, inbox);  // pulse 2 consumes tag 1 only
    ASSERT_EQ(inbox.size(), 1u);
    EXPECT_EQ(inbox[0].payload->tag, 100u);
    sync.begin_pulse(0, inbox);
    sync.begin_pulse(2, inbox);
    advance_all();

    sync.begin_pulse(1, inbox);  // pulse 3 consumes the banked tag 2
    ASSERT_EQ(inbox.size(), 1u);
    EXPECT_EQ(inbox[0].payload->tag, 200u);
}

// --------------------------------------------------- engine-level checks

// Flood process identical to the serial engine's reference test.
class FloodProcess : public Process {
public:
    void on_round(Context& ctx) override
    {
        if (ctx.id() == 0 && ctx.round() == 1)
            heard_round_ = 0;
        if (heard_round_ == kNotHeard && !ctx.inbox().empty())
            heard_round_ = ctx.round() - 1;
        if (heard_round_ != kNotHeard && !forwarded_) {
            for (std::size_t p = 0; p < ctx.degree(); ++p)
                ctx.send(p, Message{1, {}});
            forwarded_ = true;
        }
    }

    bool done() const override { return forwarded_; }

    static constexpr std::uint64_t kNotHeard = ~std::uint64_t{0};
    std::uint64_t heard_round_ = kNotHeard;
    bool forwarded_ = false;
};

class SyncModeFlood : public ::testing::TestWithParam<SyncMode> {};

TEST_P(SyncModeFlood, FloodMatchesLockStepSchedule)
{
    Rng rng(1);
    auto g = gen_grid(5, 8, rng);
    auto dist = bfs_distances(g, 0);

    NetConfig config;
    config.engine = Engine::Async;
    config.async.max_delay = 3;
    config.async.sync = GetParam();
    AsyncNetwork net(g, config);
    net.init([](VertexId) { return std::make_unique<FloodProcess>(); });
    RunStats stats = net.run();

    // The synchronizer re-creates the synchronous schedule exactly: every
    // vertex hears the token at its BFS distance, in logical pulses.
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
        const auto& p = static_cast<const FloodProcess&>(net.process(v));
        EXPECT_EQ(p.heard_round_, dist[v]) << "vertex " << v;
    }
    EXPECT_EQ(stats.messages, 2 * g.edge_count());
    EXPECT_GT(stats.events, stats.messages);
    EXPECT_GT(stats.virtual_time, 0u);
    EXPECT_EQ(stats.sync_words, stats.sync_messages);
    EXPECT_TRUE(net.quiescent());
}

INSTANTIATE_TEST_SUITE_P(Modes, SyncModeFlood,
                         ::testing::Values(SyncMode::Alpha, SyncMode::Beta),
                         [](const ::testing::TestParamInfo<SyncMode>& info) {
                             return std::string(sync_name(info.param));
                         });

TEST(BetaSynchronizer, CheaperControlPlaneThanAlphaOnTheSameRun)
{
    Rng rng(3);
    auto g = gen_grid(5, 8, rng);  // m = 67 >> n - 1 = 39

    auto flood_stats = [&](SyncMode mode) {
        NetConfig config;
        config.engine = Engine::Async;
        config.async.max_delay = 4;
        config.async.sync = mode;
        AsyncNetwork net(g, config);
        net.init([](VertexId) { return std::make_unique<FloodProcess>(); });
        return net.run();
    };
    RunStats alpha = flood_stats(SyncMode::Alpha);
    RunStats beta = flood_stats(SyncMode::Beta);

    // Same protocol traffic, strictly cheaper synchronization: β spends
    // 2(n-1) control messages per level against α's 2m.
    EXPECT_EQ(alpha.messages, beta.messages);
    EXPECT_EQ(alpha.words, beta.words);
    EXPECT_LT(beta.sync_messages, alpha.sync_messages);
}

// A process that goes quiescent and is then re-kicked from outside, like
// sync Borůvka's phase oracle: each kick floods one more wave.
class KickableProcess : public Process {
public:
    void kick() { pending_ = true; }

    void on_round(Context& ctx) override
    {
        if (pending_) {
            pending_ = false;
            for (std::size_t p = 0; p < ctx.degree(); ++p)
                ctx.send(p, Message{7, {}});
        }
        received_ += ctx.inbox().size();
    }

    bool done() const override { return !pending_; }

    std::uint64_t received_ = 0;

private:
    bool pending_ = false;
};

class SyncModeResume : public ::testing::TestWithParam<SyncMode> {};

TEST_P(SyncModeResume, EpochResumeAfterQuiescenceDeliversEveryWave)
{
    Rng rng(5);
    auto g = gen_grid(4, 4, rng);
    NetConfig config;
    config.engine = Engine::Async;
    config.async.sync = GetParam();
    AsyncNetwork net(g, config);
    net.init([](VertexId) { return std::make_unique<KickableProcess>(); });

    for (int wave = 1; wave <= 3; ++wave) {
        for (VertexId v = 0; v < g.vertex_count(); ++v)
            static_cast<KickableProcess&>(net.process(v)).kick();
        net.run();
        for (VertexId v = 0; v < g.vertex_count(); ++v) {
            const auto& p = static_cast<const KickableProcess&>(net.process(v));
            EXPECT_EQ(p.received_,
                      static_cast<std::uint64_t>(wave) * g.degree(v))
                << "vertex " << v << " wave " << wave;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, SyncModeResume,
                         ::testing::Values(SyncMode::Alpha, SyncMode::Beta),
                         [](const ::testing::TestParamInfo<SyncMode>& info) {
                             return std::string(sync_name(info.param));
                         });

TEST(AsyncNetwork, EngineSelectionAndCompositionRules)
{
    EXPECT_EQ(parse_engine("async"), Engine::Async);
    EXPECT_STREQ(engine_name(Engine::Async), "async");
    EXPECT_THROW(parse_engine("asink"), std::invalid_argument);

    EXPECT_EQ(parse_sync("alpha"), SyncMode::Alpha);
    EXPECT_EQ(parse_sync("beta"), SyncMode::Beta);
    EXPECT_EQ(parse_sync("none"), SyncMode::None);
    EXPECT_STREQ(sync_name(SyncMode::Beta), "beta");
    EXPECT_THROW(parse_sync("gamma"), std::invalid_argument);

    Rng rng(2);
    auto g = gen_grid(3, 3, rng);
    NetConfig config;
    config.engine = Engine::Async;
    auto net = make_network(g, config);
    EXPECT_NE(dynamic_cast<AsyncNetwork*>(net.get()), nullptr);

    // The lock-step conditioner does not compose with the async engine.
    NetConfig conditioned = config;
    conditioned.conditioner.adversarial_order = true;
    EXPECT_THROW(make_network(g, conditioned), std::invalid_argument);

    // Delay bound must be positive.
    NetConfig bad = config;
    bad.async.max_delay = 0;
    EXPECT_THROW(make_network(g, bad), std::invalid_argument);
}

TEST(AsyncNetwork, NativeModeRequiresMessageDrivenProcesses)
{
    // sync=none dispatches per event with no synchronizer; a
    // round-programmed driver cannot run there.
    Rng rng(4);
    auto g = gen_grid(3, 3, rng);
    NetConfig config;
    config.engine = Engine::Async;
    config.async.sync = SyncMode::None;
    AsyncNetwork net(g, config);
    net.init([](VertexId) { return std::make_unique<FloodProcess>(); });
    EXPECT_THROW(net.run(), std::invalid_argument);
}

}  // namespace
}  // namespace dmst
