// Sleep-contract parity: a process that sleeps through its idle rounds
// (Process::next_wakeup) must leave every observable bit of a run exactly
// as the always-awake execution does. The reference hosts each process
// behind a plain forwarding wrapper that never sleeps; the sleeping runs
// must match it on RunStats (per-round traces included), the span table,
// the MST ports and the fault counters — on every lock-step engine, under
// the conditioner, the loss shim and a graceful crash schedule. Behind
// either synchronizer the async engine skips the same on_round calls, so
// its activation count equals the serial engine's.

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/graph/generators.h"
#include "dmst/obs/trace.h"
#include "dmst/sim/engine.h"
#include "dmst/sim/parallel_network.h"
#include "dmst/util/rng.h"
#include "expect_counters.h"

namespace dmst {
namespace {

// Forwards to the wrapped process and never sleeps.
class Awake final : public Process {
public:
    explicit Awake(std::unique_ptr<Process> inner) : inner_(std::move(inner))
    {
    }
    void on_round(Context& ctx) override { inner_->on_round(ctx); }
    bool done() const override { return inner_->done(); }
    const Process& inner() const { return *inner_; }

private:
    std::unique_ptr<Process> inner_;
};

// Controlled-GHS hosted the way run_controlled_ghs hosts it.
class GhsHost final : public Process {
public:
    GhsHost(VertexId v, std::uint64_t n, std::uint64_t k)
        : ghs(v, n, k, /*start_round=*/1, /*tag_base=*/0)
    {
    }
    void on_round(Context& ctx) override { ghs.on_round(ctx); }
    bool done() const override { return ghs.finished(); }
    std::uint64_t next_wakeup(const Context& ctx) const override
    {
        return ghs.next_wakeup(ctx.round());
    }

    GhsVertex ghs;
};

// What a hosted run runs: Elkin with `elkin`, or Controlled-GHS with k.
struct Driver {
    bool is_elkin;
    ElkinOptions elkin;
    std::uint64_t ghs_k;

    std::unique_ptr<Process> make(VertexId v, std::uint64_t n) const
    {
        if (is_elkin)
            return std::make_unique<ElkinProcess>(v, n, elkin);
        return std::make_unique<GhsHost>(v, n, ghs_k);
    }
    std::vector<std::size_t> ports(const Process& p) const
    {
        const std::set<std::size_t>& s =
            is_elkin ? static_cast<const ElkinProcess&>(p).mst_ports()
                     : static_cast<const GhsHost&>(p).ghs.mst_ports();
        return {s.begin(), s.end()};
    }
};

struct Outcome {
    RunStats stats;
    std::vector<std::vector<std::size_t>> ports;
};

// Engine under test: make_network's serial/parallel engines, or the
// parallel engine with a shard count that differs from its worker count.
struct EngineCase {
    Engine engine;
    int threads;
    int shard_override;
    std::string name() const
    {
        return std::string(engine_name(engine)) + "/t" +
               std::to_string(threads) + "/s" +
               std::to_string(shard_override);
    }
};

const EngineCase kEngines[] = {
    {Engine::Serial, 1, 0},   {Engine::Parallel, 1, 0},
    {Engine::Parallel, 2, 0}, {Engine::Parallel, 8, 0},
    {Engine::Parallel, 2, 3},
};

Outcome host(const WeightedGraph& g, NetConfig config, const EngineCase& e,
             const Driver& d, bool awake)
{
    config.engine = e.engine;
    config.threads = e.threads;
    std::unique_ptr<NetworkBase> net =
        e.shard_override > 0
            ? std::make_unique<ParallelNetwork>(g, config, e.shard_override)
            : make_network(g, config);
    const std::uint64_t n = g.vertex_count();
    net->init([&](VertexId v) -> std::unique_ptr<Process> {
        if (awake)
            return std::make_unique<Awake>(d.make(v, n));
        return d.make(v, n);
    });
    Outcome out;
    out.stats = net->run();
    for (VertexId v = 0; v < n; ++v) {
        const Process& p = net->process(v);
        out.ports.push_back(
            d.ports(awake ? static_cast<const Awake&>(p).inner() : p));
    }
    return out;
}

void expect_same_spans(const TraceTable& a, const TraceTable& b,
                       const std::string& where)
{
    ASSERT_EQ(a.spans.size(), b.spans.size()) << where;
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        const TraceSpan& x = a.spans[i];
        const TraceSpan& y = b.spans[i];
        EXPECT_TRUE(x.phase == y.phase && x.level == y.level &&
                    x.messages == y.messages && x.words == y.words &&
                    x.retransmissions == y.retransmissions &&
                    x.drops == y.drops && x.first_round == y.first_round &&
                    x.last_round == y.last_round)
            << where << " span " << i;
    }
    ASSERT_EQ(a.tags.size(), b.tags.size()) << where;
    for (std::size_t i = 0; i < a.tags.size(); ++i)
        EXPECT_TRUE(a.tags[i].tag == b.tags[i].tag &&
                    a.tags[i].messages == b.tags[i].messages &&
                    a.tags[i].words == b.tags[i].words)
            << where << " tag row " << i;
}

// Everything but the counters named in `skip` (by default the activation
// count) must match bit for bit.
void expect_same(const Outcome& ref, const Outcome& got,
                 const std::string& where,
                 std::initializer_list<std::string_view> skip = {
                     "activations"})
{
    const RunStats& a = ref.stats;
    const RunStats& b = got.stats;
    expect_same_counters(a, b, where, skip);
    EXPECT_EQ(a.stalled, b.stalled) << where;
    EXPECT_EQ(a.messages_per_round, b.messages_per_round) << where;
    EXPECT_EQ(ref.ports, got.ports) << where;
    ASSERT_TRUE(a.trace && b.trace) << where;
    expect_same_spans(*a.trace, *b.trace, where);
}

struct Condition {
    const char* name;
    void (*apply)(NetConfig&);
};

const Condition kConditions[] = {
    {"ideal", [](NetConfig&) {}},
    {"conditioned",
     [](NetConfig& c) {
         c.bandwidth = 2;  // so the per-link caps in [1, b] bite
         c.conditioner.hetero_bandwidth = true;
         c.conditioner.adversarial_order = true;
     }},
    {"crash",
     [](NetConfig& c) {
         c.faults.crashes = {CrashPoint{3, 5}, CrashPoint{17, 60}};
         c.faults.graceful = true;
     }},
};

std::vector<std::pair<std::string, WeightedGraph>> graphs()
{
    Rng rng(2024);
    std::vector<std::pair<std::string, WeightedGraph>> gs;
    gs.emplace_back("er", gen_erdos_renyi(40, 110, rng));
    gs.emplace_back("grid", gen_grid(5, 8, rng));
    gs.emplace_back("path", gen_path(50, rng));
    gs.emplace_back("cliques_path", gen_cliques_path(5, 6, rng));
    return gs;
}

// Every graph x condition x lock-step engine against the always-awake
// serial reference; Elkin's bandwidth follows the condition.
void sweep(Driver d)
{
    for (const auto& [gname, g] : graphs()) {
        for (const Condition& cond : kConditions) {
            NetConfig config;
            config.record_per_round = true;
            config.trace.enabled = true;
            config.max_rounds = 200'000;
            cond.apply(config);
            d.elkin.bandwidth = config.bandwidth;
            const Outcome ref = host(g, config, kEngines[0], d, true);
            std::uint64_t activations = 0;
            for (const EngineCase& e : kEngines) {
                const std::string where =
                    gname + "/" + cond.name + "/" + e.name();
                const Outcome got = host(g, config, e, d, false);
                expect_same(ref, got, where);
                // Sleeping skips work, never adds it; the count itself is
                // engine-invariant across the lock-step engines.
                EXPECT_LT(got.stats.activations, ref.stats.activations)
                    << where;
                if (e.engine == Engine::Serial)
                    activations = got.stats.activations;
                EXPECT_EQ(got.stats.activations, activations) << where;
            }
        }
    }
}

// A small base-forest k leaves many base fragments, so the runs go
// through several Boruvka phases (the root's phase hand-off included).
TEST(SleepParity, ElkinMatchesAlwaysAwakeReference)
{
    Driver d{true, {}, 8};
    d.elkin.k_override = 4;
    sweep(d);
}

// The flooding downcast ablation keeps per-child queues across rounds.
TEST(SleepParity, ElkinBroadcastDowncastMatchesAlwaysAwakeReference)
{
    Driver d{true, {}, 8};
    d.elkin.k_override = 4;
    d.elkin.broadcast_downcast = true;
    sweep(d);
}

TEST(SleepParity, ControlledGhsMatchesAlwaysAwakeReference)
{
    sweep(Driver{false, {}, 8});
}

// The async engine keeps the sleep contract too: behind either
// synchronizer, a pulse runs on_round exactly when the serial engine would
// step the vertex. So a sleeping driver's outputs, payload counters and
// spans stay serial's, and so does its activation count.
TEST(SleepParity, AsyncActivationsEqualSerial)
{
    Driver elkin{true, {}, 8};
    elkin.elkin.k_override = 4;
    const Driver ghs{false, {}, 8};
    const EngineCase async{Engine::Async, 1, 0};
    for (const Driver& d : {elkin, ghs}) {
        for (const auto& [gname, g] : graphs()) {
            NetConfig config;
            config.record_per_round = true;
            config.trace.enabled = true;
            config.max_rounds = 200'000;
            config.async.max_delay = 4;
            const Outcome ref = host(g, config, kEngines[0], d, false);
            for (SyncMode sync : {SyncMode::Alpha, SyncMode::Beta}) {
                for (std::uint64_t seed : {1u, 3u}) {
                    config.async.sync = sync;
                    config.async.event_seed = seed;
                    const std::string where =
                        gname + "/" + (d.is_elkin ? "elkin" : "ghs") + "/" +
                        sync_name(sync) + "/e" + std::to_string(seed);
                    Outcome got = host(g, config, async, d, false);
                    // Pulse levels past serial's last round are the endgame
                    // skew; equal message totals leave them no sends.
                    std::vector<std::uint64_t>& per =
                        got.stats.messages_per_round;
                    ASSERT_GE(per.size(), ref.stats.messages_per_round.size())
                        << where;
                    per.resize(ref.stats.messages_per_round.size());
                    // Activations are compared: only the round count and
                    // the synchronizer's own counters may differ.
                    expect_same(ref, got, where,
                                {"rounds", "events", "virtual_time",
                                 "sync_messages", "sync_words"});
                }
            }
        }
    }
}

// The drivers' own runs (run_elkin_mst, run_controlled_ghs host the
// library's processes) match the always-awake hosted reference.
TEST(SleepParity, DriversMatchHostedReference)
{
    for (const auto& [gname, g] : graphs()) {
        Driver elkin{true, {}, 8};
        elkin.elkin.trace = true;
        const DistributedMstResult er = run_elkin_mst(g, elkin.elkin);
        NetConfig ec = elkin.elkin.to_net_config();
        ec.record_per_round = true;  // as run_elkin_mst configures it
        expect_same(host(g, ec, kEngines[0], elkin, true),
                    Outcome{er.stats, er.mst_ports}, gname + "/elkin");

        const Driver ghs{false, {}, 8};
        GhsOptions go;
        go.k = ghs.ghs_k;
        go.trace = true;
        const MstForestResult gr = run_controlled_ghs(g, go);
        const Outcome gref =
            host(g, go.to_net_config(), kEngines[0], ghs, true);
        expect_same(gref, Outcome{gr.stats, gr.mst_ports}, gname + "/ghs");
        EXPECT_LT(gr.stats.activations, gref.stats.activations) << gname;
    }
}

// The point of sleeping: serial Elkin on the benchmark's 2048-vertex grid
// runs ~26M activations always-awake; sleeping must stay under 1M.
TEST(SleepActivations, ElkinGrid2048SerialStaysUnderOneMillion)
{
    const WeightedGraph g = make_workload("grid", 2048, 1);
    const DistributedMstResult r = run_elkin_mst(g, ElkinOptions{});
    EXPECT_GT(r.stats.activations, 0u);
    EXPECT_LE(r.stats.activations, 1'000'000u);
}

// A message-driven process has no clock: only an arrival wakes it. Every
// third vertex sends once on its port 0 from on_start, so the lock-step
// engines activate each vertex once for on_start and each receiver once
// more, and never anyone else.
class SendOnceProcess final : public MessageProcess {
public:
    void on_start(Context& ctx) override
    {
        started_ = true;
        if (ctx.id() % 3 == 0)
            ctx.send(0, Message{1, {ctx.id()}});
    }
    void on_message(Context&, std::size_t, Message&&) override {}
    bool done() const override { return started_; }

private:
    bool started_ = false;
};

TEST(SleepActivations, OnlyAnArrivalWakesAMessageProcess)
{
    Rng rng(5);
    const WeightedGraph g = gen_grid(4, 5, rng);
    std::set<VertexId> receivers;
    for (VertexId v = 0; v < g.vertex_count(); v += 3)
        receivers.insert(g.neighbor(v, 0));
    ASSERT_LT(receivers.size(), g.vertex_count());
    for (Engine engine : {Engine::Serial, Engine::Parallel}) {
        NetConfig config;
        config.engine = engine;
        config.threads = 2;
        auto net = make_network(g, config);
        net->init([](VertexId) { return std::make_unique<SendOnceProcess>(); });
        const RunStats s = net->run();
        EXPECT_EQ(s.rounds, 2u) << engine_name(engine);
        EXPECT_EQ(s.activations, g.vertex_count() + receivers.size())
            << engine_name(engine);
    }
}

}  // namespace
}  // namespace dmst
