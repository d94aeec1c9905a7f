#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "dmst/congest/conditioner.h"
#include "dmst/congest/network.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/graph/generators.h"
#include "dmst/sim/engine.h"
#include "dmst/sim/parallel_network.h"
#include "dmst/util/assert.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// Records the logical round sequence its on_round() observes, and sends one
// one-word message on every port each of the first `chat_rounds` logical
// rounds.
class RoundLogProcess : public Process {
public:
    explicit RoundLogProcess(int chat_rounds) : chat_rounds_(chat_rounds) {}

    void on_round(Context& ctx) override
    {
        rounds_seen_.push_back(ctx.round());
        inbox_sizes_.push_back(ctx.inbox().size());
        if (ctx.round() <= static_cast<std::uint64_t>(chat_rounds_))
            for (std::size_t p = 0; p < ctx.degree(); ++p)
                ctx.send(p, Message{1, {ctx.round()}});
    }

    bool done() const override
    {
        return !rounds_seen_.empty() &&
               rounds_seen_.back() > static_cast<std::uint64_t>(chat_rounds_);
    }

    int chat_rounds_;
    std::vector<std::uint64_t> rounds_seen_;
    std::vector<std::size_t> inbox_sizes_;
};

// Records the (port, first payload word) sequence of every inbox it reads.
class InboxLogProcess : public Process {
public:
    void on_round(Context& ctx) override
    {
        if (ctx.round() == 1) {
            for (std::size_t p = 0; p < ctx.degree(); ++p)
                ctx.send(p, Message{1, {ctx.id()}});
            sent_ = true;
        }
        for (const Incoming& in : ctx.inbox())
            log_.emplace_back(in.port, in.msg.words.at(0));
    }

    bool done() const override { return sent_; }

    bool sent_ = false;
    std::vector<std::pair<std::size_t, std::uint64_t>> log_;
};

NetConfig conditioned_config(Engine engine, int threads, ConditionerConfig cc,
                             int bandwidth = 1)
{
    NetConfig config;
    config.bandwidth = bandwidth;
    config.engine = engine;
    config.threads = threads;
    config.conditioner = cc;
    return config;
}

TEST(Conditioner, PerLinkAssignmentIsSeededAndBounded)
{
    Rng rng(11);
    auto g = gen_erdos_renyi(40, 120, rng);
    ConditionerConfig cc;
    cc.hetero_bandwidth = true;
    cc.seed = 99;

    LinkConditioner a(g, cc, 4);
    LinkConditioner b(g, cc, 4);
    cc.seed = 100;
    LinkConditioner c(g, cc, 4);

    bool cap_varies = false;
    bool differs_across_seeds = false;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
        EXPECT_GE(a.bandwidth_cap(e), 1);
        EXPECT_LE(a.bandwidth_cap(e), 4);
        EXPECT_EQ(a.bandwidth_cap(e), b.bandwidth_cap(e));
        cap_varies = cap_varies || a.bandwidth_cap(e) != a.bandwidth_cap(0);
        differs_across_seeds =
            differs_across_seeds || a.bandwidth_cap(e) != c.bandwidth_cap(e);
    }
    EXPECT_TRUE(cap_varies);
    EXPECT_TRUE(differs_across_seeds);
}

TEST(Conditioner, ProcessesSeeEveryRoundAndStatsCountThem)
{
    Rng rng(12);
    auto g = gen_path(6, rng);

    Network net(g, NetConfig{});
    net.init([](VertexId) { return std::make_unique<RoundLogProcess>(3); });
    RunStats stats = net.run();

    // 4 rounds run: 3 chatty ones plus 1 that consumes the last wave.
    EXPECT_EQ(stats.rounds, 4u);
    const auto& p = static_cast<const RoundLogProcess&>(net.process(2));
    EXPECT_EQ(p.rounds_seen_, (std::vector<std::uint64_t>{1, 2, 3, 4}));
    // Lock-step inboxes: round r delivers exactly round r-1's sends.
    EXPECT_EQ(p.inbox_sizes_, (std::vector<std::size_t>{0, 2, 2, 2}));
}

// Forwards to a wrapped process and records the last round it ran in.
class RoundSpy : public Process {
public:
    explicit RoundSpy(std::unique_ptr<Process> inner) : inner_(std::move(inner)) {}

    void on_round(Context& ctx) override
    {
        last_round_ = ctx.round();
        inner_->on_round(ctx);
    }
    bool done() const override { return inner_->done(); }
    std::uint64_t next_wakeup(const Context& ctx) const override
    {
        return inner_->next_wakeup(ctx);
    }

    std::uint64_t last_round_ = 0;

private:
    std::unique_ptr<Process> inner_;
};

TEST(Conditioner, StatsRoundsIsTheLastRoundAProcessSaw)
{
    Rng rng(19);
    auto g = gen_erdos_renyi(64, 192, rng);
    ElkinOptions opts;
    opts.bandwidth = 2;
    for (bool hetero : {false, true}) {
        for (bool adversarial : {false, true}) {
            ConditionerConfig cc;
            cc.hetero_bandwidth = hetero;
            cc.adversarial_order = adversarial;
            cc.seed = 31;
            for (Engine engine : {Engine::Serial, Engine::Parallel}) {
                auto net = make_network(
                    g, conditioned_config(engine, 4, cc, opts.bandwidth));
                net->init([&](VertexId v) {
                    return std::make_unique<RoundSpy>(
                        std::make_unique<ElkinProcess>(v, g.vertex_count(), opts));
                });
                const RunStats stats = net->run();
                std::uint64_t last = 0;
                for (VertexId v = 0; v < g.vertex_count(); ++v)
                    last = std::max(
                        last,
                        static_cast<const RoundSpy&>(net->process(v)).last_round_);
                EXPECT_EQ(stats.rounds, last)
                    << engine_name(engine) << " hetero=" << hetero
                    << " adversarial=" << adversarial;
            }
        }
    }
}

TEST(Conditioner, AdversarialOrderPermutesButIsEngineIdentical)
{
    Rng rng(15);
    auto g = gen_star(12, rng);  // hub sees 11 single-message ports
    ConditionerConfig cc;
    cc.adversarial_order = true;
    cc.seed = 21;

    auto hub_log = [&](Engine engine, int threads, ConditionerConfig c) {
        NetConfig config = conditioned_config(engine, threads, c);
        auto net = make_network(g, config);
        net->init([](VertexId) { return std::make_unique<InboxLogProcess>(); });
        net->run();
        return static_cast<const InboxLogProcess&>(net->process(0)).log_;
    };

    auto ideal = hub_log(Engine::Serial, 0, ConditionerConfig{});
    auto serial = hub_log(Engine::Serial, 0, cc);
    auto par2 = hub_log(Engine::Parallel, 2, cc);
    auto par8 = hub_log(Engine::Parallel, 8, cc);

    // Same multiset of deliveries, permuted, and bit-identical across
    // engines and thread counts.
    EXPECT_EQ(serial, par2);
    EXPECT_EQ(serial, par8);
    EXPECT_NE(serial, ideal);
    auto sorted_serial = serial;
    auto sorted_ideal = ideal;
    std::sort(sorted_serial.begin(), sorted_serial.end());
    std::sort(sorted_ideal.begin(), sorted_ideal.end());
    EXPECT_EQ(sorted_serial, sorted_ideal);

    // A different seed draws a different permutation.
    ConditionerConfig other = cc;
    other.seed = 22;
    EXPECT_NE(hub_log(Engine::Serial, 0, other), serial);
}

// Sends `count` full units on port 0 at logical round 1.
class UnitSender : public Process {
public:
    explicit UnitSender(int count) : count_(count) {}

    void on_round(Context& ctx) override
    {
        if (ctx.id() == 0 && ctx.round() == 1) {
            Message msg;
            msg.tag = 3;
            for (std::size_t w = 0; w + 1 < kWordsPerUnit; ++w)
                msg.words.push_back(w);
            for (int i = 0; i < count_; ++i)
                ctx.send(0, Message{msg.tag, msg.words});
        }
        sent_ = true;
    }

    bool done() const override { return sent_; }

private:
    int count_;
    bool sent_ = false;
};

TEST(Conditioner, HeteroBandwidthCapsAreEnforcedPerLink)
{
    Rng rng(16);
    auto g = gen_path(2, rng);
    ConditionerConfig cc;
    cc.hetero_bandwidth = true;
    cc.seed = 3;
    const int b = 4;

    LinkConditioner cond(g, cc, b);
    const int cap = cond.bandwidth_cap(0);
    ASSERT_GE(cap, 1);
    ASSERT_LE(cap, b);

    {
        Network net(g, conditioned_config(Engine::Serial, 0, cc, b));
        net.init([&](VertexId) { return std::make_unique<UnitSender>(cap); });
        EXPECT_NO_THROW(net.run());
    }
    {
        Network net(g, conditioned_config(Engine::Serial, 0, cc, b));
        net.init([&](VertexId) {
            return std::make_unique<UnitSender>(cap + 1);
        });
        EXPECT_THROW(net.run(), InvariantViolation);
    }
}

// The per-port cap is what Context::bandwidth(port) reports.
class CapProbe : public Process {
public:
    void on_round(Context& ctx) override
    {
        for (std::size_t p = 0; p < ctx.degree(); ++p)
            caps_.push_back(ctx.bandwidth(p));
        ran_ = true;
    }
    bool done() const override { return ran_; }

    bool ran_ = false;
    std::vector<int> caps_;
};

TEST(Conditioner, ContextReportsPerPortBandwidth)
{
    Rng rng(17);
    auto g = gen_star(6, rng);
    ConditionerConfig cc;
    cc.hetero_bandwidth = true;
    cc.seed = 8;
    const int b = 5;

    Network net(g, conditioned_config(Engine::Serial, 0, cc, b));
    net.init([](VertexId) { return std::make_unique<CapProbe>(); });
    net.run();

    LinkConditioner cond(g, cc, b);
    const auto& hub = static_cast<const CapProbe&>(net.process(0));
    ASSERT_EQ(hub.caps_.size(), g.degree(0));
    for (std::size_t p = 0; p < g.degree(0); ++p)
        EXPECT_EQ(hub.caps_[p], cond.bandwidth_cap(g.edge_id(0, p)));
}

TEST(Conditioner, ElkinOutputInvariantUnderFullConditioning)
{
    Rng rng(18);
    auto g = gen_erdos_renyi(64, 192, rng);

    ElkinOptions ideal;
    auto baseline = run_elkin_mst(g, ideal);

    ElkinOptions cond = ideal;
    cond.conditioner.hetero_bandwidth = true;
    cond.conditioner.adversarial_order = true;
    cond.conditioner.seed = 31;
    auto conditioned = run_elkin_mst(g, cond);

    EXPECT_EQ(conditioned.mst_edges, baseline.mst_edges);
    EXPECT_EQ(conditioned.mst_ports, baseline.mst_ports);
}

}  // namespace
}  // namespace dmst
