// Determinism contract of the sharded engine: ParallelNetwork must be
// bit-identical to the serial Network — same RunStats (including the
// per-round trace and per-edge histogram), same inbox contents, same
// protocol output — for every thread count and shard count.

#include <gtest/gtest.h>

#include <set>

#include "dmst/congest/network.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/sync_boruvka.h"
#include "dmst/graph/generators.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/sim/parallel_network.h"
#include "dmst/util/assert.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// Same construction as test_fuzz_small: random connected graph on [2, 20]
// vertices with colliding weights.
WeightedGraph tiny_graph(Rng& rng)
{
    std::size_t n = 2 + rng.next_below(19);
    std::set<std::pair<VertexId, VertexId>> used;
    std::vector<Edge> edges;
    for (std::size_t i = 1; i < n; ++i) {
        VertexId parent = static_cast<VertexId>(rng.next_below(i));
        used.insert({parent, static_cast<VertexId>(i)});
        edges.push_back({parent, static_cast<VertexId>(i),
                         1 + rng.next_below(4)});
    }
    std::size_t extra = rng.next_below(n);
    for (std::size_t i = 0; i < extra; ++i) {
        VertexId a = static_cast<VertexId>(rng.next_below(n));
        VertexId b = static_cast<VertexId>(rng.next_below(n));
        if (a == b)
            continue;
        auto key = std::pair{std::min(a, b), std::max(a, b)};
        if (!used.insert(key).second)
            continue;
        edges.push_back({a, b, 1 + rng.next_below(4)});
    }
    return WeightedGraph::from_edges(n, std::move(edges));
}

// Flood process (as in test_network.cpp) with an observable per-vertex
// trace, so engine comparisons check process state, not just counters.
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
                ctx.send(p, Message{1, {ctx.id()}});
            forwarded_ = true;
        }
    }
    bool done() const override { return forwarded_; }

    static constexpr std::uint64_t kNotHeard = ~std::uint64_t{0};
    std::uint64_t heard_round_ = kNotHeard;
    bool forwarded_ = false;
};

void expect_stats_identical(const RunStats& a, const RunStats& b)
{
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.words, b.words);
    EXPECT_EQ(a.messages_per_round, b.messages_per_round);
    EXPECT_EQ(a.messages_per_edge, b.messages_per_edge);
}

TEST(ParallelNetwork, FloodBitIdenticalToSerialAcrossThreadCounts)
{
    Rng rng(77);
    for (int trial = 0; trial < 10; ++trial) {
        auto g = gen_erdos_renyi(40, 100, rng);
        NetConfig config;
        config.record_per_round = true;
        config.record_per_edge = true;

        Network serial(g, config);
        serial.init([](VertexId) { return std::make_unique<FloodProcess>(); });
        RunStats want = serial.run();

        for (int threads : {1, 2, 8}) {
            NetConfig pc = config;
            pc.threads = threads;
            ParallelNetwork par(g, pc);
            par.init([](VertexId) { return std::make_unique<FloodProcess>(); });
            RunStats got = par.run();
            expect_stats_identical(want, got);
            for (VertexId v = 0; v < g.vertex_count(); ++v) {
                const auto& ps =
                    static_cast<const FloodProcess&>(serial.process(v));
                const auto& pp =
                    static_cast<const FloodProcess&>(par.process(v));
                EXPECT_EQ(ps.heard_round_, pp.heard_round_)
                    << "vertex " << v << " threads " << threads;
            }
        }
    }
}

TEST(ParallelNetwork, ResultsIndependentOfShardCount)
{
    Rng rng(78);
    auto g = gen_grid(6, 7, rng);
    NetConfig config;
    config.record_per_round = true;

    Network serial(g, config);
    serial.init([](VertexId) { return std::make_unique<FloodProcess>(); });
    RunStats want = serial.run();

    // Shard counts decoupled from the 2 workers, including more shards
    // than workers and more shards than vertices.
    NetConfig pc = config;
    pc.threads = 2;
    for (int shards : {1, 3, 5, 16, 64}) {
        ParallelNetwork par(g, pc, shards);
        EXPECT_EQ(par.shards(), shards);
        par.init([](VertexId) { return std::make_unique<FloodProcess>(); });
        expect_stats_identical(want, par.run());
    }
}

TEST(ParallelNetwork, ElkinIdenticalOnFuzzedGraphs)
{
    Rng rng(79);
    for (int trial = 0; trial < 15; ++trial) {
        auto g = tiny_graph(rng);
        auto want = run_elkin_mst(g, ElkinOptions{});
        auto seq = mst_kruskal(g);
        for (int threads : {1, 2, 8}) {
            ElkinOptions opts;
            opts.engine = Engine::Parallel;
            opts.threads = threads;
            auto got = run_elkin_mst(g, opts);
            EXPECT_EQ(want.stats.rounds, got.stats.rounds);
            EXPECT_EQ(want.stats.messages, got.stats.messages);
            EXPECT_EQ(want.stats.words, got.stats.words);
            EXPECT_EQ(want.mst_edges, got.mst_edges);
            EXPECT_EQ(seq.edges, got.mst_edges);
        }
    }
}

TEST(ParallelNetwork, SyncBoruvkaIdenticalOnFuzzedGraphs)
{
    // Boruvka exercises the engine's kick/run cycle (multiple run() calls
    // per network) rather than one monolithic run.
    Rng rng(80);
    for (int trial = 0; trial < 10; ++trial) {
        auto g = tiny_graph(rng);
        auto want = run_sync_boruvka(g);
        for (int threads : {2, 8}) {
            SyncBoruvkaOptions opts;
            opts.engine = Engine::Parallel;
            opts.threads = threads;
            auto got = run_sync_boruvka(g, opts);
            EXPECT_EQ(want.stats.rounds, got.stats.rounds);
            EXPECT_EQ(want.stats.messages, got.stats.messages);
            EXPECT_EQ(want.phases, got.phases);
            EXPECT_EQ(want.mst_edges, got.mst_edges);
        }
    }
}

// Chatter process (as in test_network.cpp): sends `count` one-word
// messages on port 0 in round 1.
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

TEST(ParallelNetwork, BandwidthViolationThrowsFromWorkerThread)
{
    Rng rng(81);
    auto g = gen_path(8, rng);
    const int unit = static_cast<int>(kWordsPerUnit);
    NetConfig config;
    config.threads = 4;
    ParallelNetwork net(g, config);
    net.init([&](VertexId) {
        return std::make_unique<ChatterProcess>(unit / 2 + 1);
    });
    EXPECT_THROW(net.run(), InvariantViolation);
}

TEST(ParallelNetwork, RoundLimitDiagnosticsReportStuckProcesses)
{
    class Restless : public Process {
    public:
        void on_round(Context&) override {}
        bool done() const override { return false; }
    };

    Rng rng(83);
    auto g = gen_path(3, rng);
    for (Engine engine : {Engine::Serial, Engine::Parallel}) {
        NetConfig config;
        config.max_rounds = 10;
        config.engine = engine;
        config.threads = 2;
        auto net = make_network(g, config);
        net->init([](VertexId) { return std::make_unique<Restless>(); });
        try {
            net->run();
            FAIL() << "expected InvariantViolation";
        } catch (const InvariantViolation& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("11 rounds"), std::string::npos) << what;
            EXPECT_NE(what.find("max_rounds=10"), std::string::npos) << what;
            EXPECT_NE(what.find("3 of 3 processes not done"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("first ids: 0 1 2"), std::string::npos)
                << what;
        }
    }
}

TEST(ParallelNetwork, MakeNetworkSelectsEngine)
{
    Rng rng(84);
    auto g = gen_path(4, rng);
    NetConfig config;
    EXPECT_NE(dynamic_cast<Network*>(make_network(g, config).get()), nullptr);
    config.engine = Engine::Parallel;
    config.threads = 3;
    auto net = make_network(g, config);
    auto* par = dynamic_cast<ParallelNetwork*>(net.get());
    ASSERT_NE(par, nullptr);
    EXPECT_EQ(par->threads(), 3);
    EXPECT_EQ(par->shards(), 3);
}

TEST(ParallelNetwork, ParseEngineRoundTrips)
{
    EXPECT_EQ(parse_engine("serial"), Engine::Serial);
    EXPECT_EQ(parse_engine("parallel"), Engine::Parallel);
    EXPECT_THROW(parse_engine("warp"), std::invalid_argument);
    EXPECT_STREQ(engine_name(Engine::Serial), "serial");
    EXPECT_STREQ(engine_name(Engine::Parallel), "parallel");
}

}  // namespace
}  // namespace dmst
