#include <gtest/gtest.h>

#include "dmst/congest/network.h"
#include "dmst/graph/generators.h"
#include "dmst/graph/metrics.h"
#include "dmst/util/assert.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// Flood process: vertex 0 starts with a token; everyone forwards it once to
// all ports; each vertex records the first round it heard the token.
class FloodProcess : public Process {
public:
    void on_round(Context& ctx) override
    {
        if (ctx.id() == 0 && ctx.round() == 1)
            heard_round_ = 0;
        if (heard_round_ == kNotHeard) {
            for (const auto& in : ctx.inbox()) {
                (void)in;
                heard_round_ = ctx.round() - 1;  // sent in the previous round
                break;
            }
        }
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

TEST(Network, FloodReachesAllInDiameterRounds)
{
    Rng rng(1);
    auto g = gen_grid(5, 8, rng);
    auto dist = bfs_distances(g, 0);

    Network net(g, NetConfig{});
    net.init([](VertexId) { return std::make_unique<FloodProcess>(); });
    RunStats stats = net.run();

    for (VertexId v = 0; v < g.vertex_count(); ++v) {
        const auto& p = static_cast<const FloodProcess&>(net.process(v));
        EXPECT_EQ(p.heard_round_, dist[v]) << "vertex " << v;
    }
    // Every vertex forwards once on every port: exactly 2 messages per edge
    // per direction... i.e. one per port per vertex = 2m messages total.
    EXPECT_EQ(stats.messages, 2 * g.edge_count());
    // Farthest vertices forward in round ecc+1; one more round delivers
    // (and drops) those final messages.
    EXPECT_EQ(stats.rounds, static_cast<std::uint64_t>(eccentricity(g, 0)) + 2);
}

// Deaf process: never sends, done immediately.
class IdleProcess : public Process {
public:
    void on_round(Context&) override {}
    bool done() const override { return true; }
};

TEST(Network, QuiescentImmediatelyWhenAllDone)
{
    Rng rng(2);
    auto g = gen_path(5, rng);
    Network net(g, NetConfig{});
    net.init([](VertexId) { return std::make_unique<IdleProcess>(); });
    RunStats stats = net.run();
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.messages, 0u);
    EXPECT_TRUE(net.quiescent());
    EXPECT_FALSE(net.step());
}

// Chatter process: sends `count` one-word messages on port 0 in round 1.
class ChatterProcess : public Process {
public:
    explicit ChatterProcess(int count) : count_(count) {}

    void on_round(Context& ctx) override
    {
        if (ctx.id() == 0 && ctx.round() == 1) {
            for (int i = 0; i < count_; ++i)
                ctx.send(0, Message{7, {42}});
        }
        sent_ = true;
    }

    bool done() const override { return sent_; }

private:
    int count_;
    bool sent_ = false;
};

TEST(Network, BandwidthBudgetEnforced)
{
    Rng rng(3);
    auto g = gen_path(2, rng);
    const int unit = static_cast<int>(kWordsPerUnit);
    {
        // Exactly the b=1 budget (two-word messages). OK.
        Network net(g, NetConfig{.bandwidth = 1});
        net.init([&](VertexId) { return std::make_unique<ChatterProcess>(unit / 2); });
        EXPECT_NO_THROW(net.run());
    }
    {
        // One message over the b=1 budget.
        Network net(g, NetConfig{.bandwidth = 1});
        net.init([&](VertexId) {
            return std::make_unique<ChatterProcess>(unit / 2 + 1);
        });
        EXPECT_THROW(net.run(), InvariantViolation);
    }
    {
        // The same volume fits comfortably at b=2.
        Network net(g, NetConfig{.bandwidth = 2});
        net.init([&](VertexId) {
            return std::make_unique<ChatterProcess>(unit / 2 + 1);
        });
        EXPECT_NO_THROW(net.run());
    }
}

TEST(Network, BandwidthBudgetScalesLinearlyAboveOne)
{
    // Exact boundary at several b > 1: b * kWordsPerUnit words per edge
    // direction per round fit; one more message overflows.
    Rng rng(31);
    auto g = gen_path(2, rng);
    const int unit = static_cast<int>(kWordsPerUnit);
    for (int b : {2, 3, 5}) {
        {
            Network net(g, NetConfig{.bandwidth = b});
            net.init([&](VertexId) {
                return std::make_unique<ChatterProcess>(b * unit / 2);
            });
            EXPECT_NO_THROW(net.run()) << "b=" << b;
        }
        {
            Network net(g, NetConfig{.bandwidth = b});
            net.init([&](VertexId) {
                return std::make_unique<ChatterProcess>(b * unit / 2 + 1);
            });
            EXPECT_THROW(net.run(), InvariantViolation) << "b=" << b;
        }
    }
}

TEST(Network, BandwidthIsPerRoundAndPerDirection)
{
    // The same per-round volume on both directions of one edge is legal
    // (the budget is per direction), and the ledger resets between rounds:
    // a full-budget burst every round for three rounds never throws.
    class BurstProcess : public Process {
    public:
        void on_round(Context& ctx) override
        {
            if (ctx.round() <= 3) {
                const int full = static_cast<int>(kWordsPerUnit) *
                                 ctx.bandwidth() / 2;
                for (int i = 0; i < full; ++i)
                    ctx.send(0, Message{3, {7}});  // two words each
            }
            rounds_run_ = ctx.round();
        }
        bool done() const override { return rounds_run_ >= 3; }

    private:
        std::uint64_t rounds_run_ = 0;
    };

    Rng rng(32);
    auto g = gen_path(2, rng);
    Network net(g, NetConfig{.bandwidth = 2});
    net.init([](VertexId) { return std::make_unique<BurstProcess>(); });
    RunStats stats = net.run();
    // Both vertices send a full b=2 budget every round for 3 rounds.
    EXPECT_EQ(stats.words, 2u * 3u * 2u * kWordsPerUnit);
}

TEST(Network, WordsAccounted)
{
    Rng rng(4);
    auto g = gen_path(2, rng);
    Network net(g, NetConfig{});
    net.init([](VertexId) { return std::make_unique<ChatterProcess>(3); });
    RunStats stats = net.run();
    EXPECT_EQ(stats.messages, 3u);
    EXPECT_EQ(stats.words, 3u * 2);  // tag + one payload word each
}

// Inspector process: checks inbox metadata.
class InspectorProcess : public Process {
public:
    void on_round(Context& ctx) override
    {
        if (ctx.round() == 1) {
            if (ctx.id() == 0)
                ctx.send(0, Message{9, {123}});
        } else if (ctx.round() == 2 && ctx.id() != 0) {
            for (const auto& in : ctx.inbox()) {
                received_tag_ = in.msg.tag;
                received_word_ = in.msg.words.at(0);
                arrival_port_ = in.port;
            }
        }
        finished_ = ctx.round() >= 2;
    }

    bool done() const override { return finished_; }

    std::uint32_t received_tag_ = 0;
    std::uint64_t received_word_ = 0;
    std::size_t arrival_port_ = 99;
    bool finished_ = false;
};

TEST(Network, DeliveryPortAndPayload)
{
    // Path 0-1-2: vertex 0 sends to its only neighbor (vertex 1).
    Rng rng(5);
    auto g = gen_path(3, rng);
    Network net(g, NetConfig{});
    net.init([](VertexId) { return std::make_unique<InspectorProcess>(); });
    net.run();
    const auto& p1 = static_cast<const InspectorProcess&>(net.process(1));
    EXPECT_EQ(p1.received_tag_, 9u);
    EXPECT_EQ(p1.received_word_, 123u);
    // Message arrives at vertex 1's port towards vertex 0.
    EXPECT_EQ(g.neighbor(1, p1.arrival_port_), 0u);
}

TEST(Network, RoundLimitThrows)
{
    // A process that never finishes.
    class Restless : public Process {
    public:
        void on_round(Context&) override {}
        bool done() const override { return false; }
    };
    Rng rng(8);
    auto g = gen_path(2, rng);
    Network net(g, NetConfig{.max_rounds = 10});
    net.init([](VertexId) { return std::make_unique<Restless>(); });
    EXPECT_THROW(net.run(), InvariantViolation);
}

TEST(Network, PerRoundTraceRecorded)
{
    Rng rng(9);
    auto g = gen_grid(3, 3, rng);
    Network net(g, NetConfig{.record_per_round = true});
    net.init([](VertexId) { return std::make_unique<FloodProcess>(); });
    RunStats stats = net.run();
    ASSERT_EQ(stats.messages_per_round.size(), stats.rounds);
    std::uint64_t total = 0;
    for (auto c : stats.messages_per_round)
        total += c;
    EXPECT_EQ(total, stats.messages);
}

TEST(Network, PerEdgeHistogramRecorded)
{
    Rng rng(11);
    auto g = gen_grid(4, 4, rng);
    Network net(g, NetConfig{.record_per_edge = true});
    net.init([](VertexId) { return std::make_unique<FloodProcess>(); });
    RunStats stats = net.run();
    ASSERT_EQ(stats.messages_per_edge.size(), g.edge_count());
    std::uint64_t total = 0;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
        // The flood sends exactly one message per direction per edge.
        EXPECT_EQ(stats.messages_per_edge[e], 2u) << "edge " << e;
        total += stats.messages_per_edge[e];
    }
    EXPECT_EQ(total, stats.messages);
}

TEST(Network, PerEdgeHistogramOffByDefault)
{
    Rng rng(12);
    auto g = gen_path(3, rng);
    Network net(g, NetConfig{});
    net.init([](VertexId) { return std::make_unique<FloodProcess>(); });
    RunStats stats = net.run();
    EXPECT_TRUE(stats.messages_per_edge.empty());
}

TEST(Network, DeterministicAcrossRuns)
{
    Rng rng(10);
    auto g = gen_erdos_renyi(30, 70, rng);
    auto run_once = [&] {
        Network net(g, NetConfig{});
        net.init([](VertexId) { return std::make_unique<FloodProcess>(); });
        return net.run();
    };
    RunStats a = run_once();
    RunStats b = run_once();
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.words, b.words);
}

}  // namespace
}  // namespace dmst
