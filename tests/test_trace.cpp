// Tests for the obs/ span-trace subsystem: conservation across all five
// drivers, the tri-engine trace-parity invariant (same seed => identical
// per-phase span table on the serial, parallel, and async engines), the
// span-derived Elkin phase split, nested-scope restore, and the exporter
// round-trip.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/pipeline_mst.h"
#include "dmst/core/sync_boruvka.h"
#include "dmst/core/verify_mst.h"
#include "dmst/graph/generators.h"
#include "dmst/obs/export.h"
#include "dmst/obs/trace.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// ------------------------------------------------------------- helpers

// Span sums must reproduce the run totals exactly (the recorder also
// self-checks this at finalize; the test re-derives it from the public
// table so a regression in either side trips).
void expect_conserves(const RunStats& stats)
{
    ASSERT_TRUE(stats.trace);
    const TraceTable& t = *stats.trace;
    EXPECT_NO_THROW(t.validate());

    std::uint64_t span_messages = 0, span_words = 0;
    for (const TraceSpan& s : t.spans) {
        span_messages += s.messages;
        span_words += s.words;
        EXPECT_LE(s.first_round, s.last_round);
    }
    EXPECT_EQ(span_messages, stats.messages);
    EXPECT_EQ(span_words, stats.words);
    EXPECT_EQ(t.total_messages, stats.messages);
    EXPECT_EQ(t.total_words, stats.words);
    EXPECT_EQ(t.total_rounds, stats.rounds);

    std::uint64_t tag_messages = 0, tag_words = 0;
    for (const TagCount& c : t.tags) {
        tag_messages += c.messages;
        tag_words += c.words;
    }
    EXPECT_EQ(tag_messages, stats.messages);
    EXPECT_EQ(tag_words, stats.words);
}

std::set<TracePhase> phases_of(const TraceTable& t)
{
    std::set<TracePhase> out;
    for (const TraceSpan& s : t.spans)
        out.insert(s.phase);
    return out;
}

std::vector<std::vector<std::size_t>> kruskal_ports(const WeightedGraph& g)
{
    auto mst = mst_kruskal(g);
    std::vector<std::vector<std::size_t>> ports(g.vertex_count());
    for (EdgeId e : mst.edges) {
        const Edge& edge = g.edge(e);
        ports[edge.u].push_back(g.port_of(edge.u, edge.v));
        ports[edge.v].push_back(g.port_of(edge.v, edge.u));
    }
    return ports;
}

// --------------------------------------------- conservation, per driver

TEST(TraceConservation, Elkin)
{
    Rng rng(7001);
    auto g = gen_erdos_renyi(64, 200, rng);
    auto r = run_elkin_mst(g, ElkinOptions{});  // elkin always traces
    expect_conserves(r.stats);

    const TraceTable& t = *r.stats.trace;
    auto phases = phases_of(t);
    EXPECT_TRUE(phases.count(TracePhase::Bfs));
    EXPECT_TRUE(phases.count(TracePhase::Ghs));
    EXPECT_TRUE(phases.count(TracePhase::Registration));
    EXPECT_TRUE(phases.count(TracePhase::Boruvka));
    EXPECT_TRUE(phases.count(TracePhase::Finish));

    // Controlled-GHS attribution is per phase; each recorded phase level
    // carries traffic, and phase_messages() aggregates across levels.
    std::uint64_t ghs_sum = 0;
    for (const TraceSpan& s : t.spans)
        if (s.phase == TracePhase::Ghs) {
            EXPECT_GT(s.messages, 0u) << "empty ghs level " << s.level;
            ghs_sum += s.messages;
        }
    EXPECT_EQ(t.phase_messages(TracePhase::Ghs), ghs_sum);
    EXPECT_GT(ghs_sum, 0u);

    // find() locates the BFS span; BFS activity starts in round 1.
    const TraceSpan* bfs = t.find(TracePhase::Bfs, 0);
    ASSERT_NE(bfs, nullptr);
    EXPECT_EQ(bfs->first_round, 1u);
    EXPECT_EQ(t.find(TracePhase::Hello, 0), nullptr);
}

TEST(TraceConservation, ControlledGhs)
{
    Rng rng(7002);
    auto g = gen_erdos_renyi(64, 180, rng);
    GhsOptions opts;
    opts.k = 6;
    opts.trace = true;
    auto r = run_controlled_ghs(g, opts);
    expect_conserves(r.stats);
    // Standalone GHS traffic is all (Ghs, phase) spans.
    for (const TraceSpan& s : r.stats.trace->spans) {
        EXPECT_EQ(s.phase, TracePhase::Ghs);
        EXPECT_GE(s.level, 0);
    }
}

TEST(TraceConservation, ControlledGhsDisabledByDefault)
{
    Rng rng(7003);
    auto g = gen_erdos_renyi(32, 90, rng);
    auto r = run_controlled_ghs(g, GhsOptions{});
    EXPECT_FALSE(r.stats.trace);
}

TEST(TraceConservation, Pipeline)
{
    Rng rng(7004);
    auto g = gen_erdos_renyi(56, 170, rng);
    PipelineMstOptions opts;
    opts.trace = true;
    auto r = run_pipeline_mst(g, opts);
    expect_conserves(r.stats);
    auto phases = phases_of(*r.stats.trace);
    EXPECT_TRUE(phases.count(TracePhase::Bfs));
    EXPECT_TRUE(phases.count(TracePhase::Ghs));
    EXPECT_TRUE(phases.count(TracePhase::Pipeline));
}

TEST(TraceConservation, SyncBoruvkaMultiEpoch)
{
    Rng rng(7005);
    auto g = gen_erdos_renyi(64, 200, rng);
    SyncBoruvkaOptions opts;
    opts.trace = true;
    auto r = run_sync_boruvka(g, opts);
    ASSERT_GT(r.phases, 1);  // multi-epoch driver: one network run per phase
    expect_conserves(r.stats);
    // The trace accumulates across epochs: one Boruvka span per phase.
    for (int j = 0; j < r.phases; ++j)
        EXPECT_NE(r.stats.trace->find(TracePhase::Boruvka, j), nullptr)
            << "missing span for phase " << j;
}

TEST(TraceConservation, VerifyMst)
{
    Rng rng(7006);
    auto g = gen_erdos_renyi(56, 170, rng);
    VerifyOptions opts;
    opts.trace = true;
    auto r = run_verify_mst(g, kruskal_ports(g), opts);
    EXPECT_TRUE(r.accepted);
    expect_conserves(r.stats);
    auto phases = phases_of(*r.stats.trace);
    EXPECT_TRUE(phases.count(TracePhase::Hello));
    EXPECT_TRUE(phases.count(TracePhase::Spanning));
    EXPECT_TRUE(phases.count(TracePhase::Labeling));
    EXPECT_TRUE(phases.count(TracePhase::Minimality));
    EXPECT_TRUE(phases.count(TracePhase::Verdict));
}

TEST(TraceConservation, ElkinUnderConditioner)
{
    Rng rng(7007);
    auto g = gen_erdos_renyi(48, 140, rng);
    ElkinOptions opts;
    opts.bandwidth = 2;
    opts.conditioner.hetero_bandwidth = true;
    opts.conditioner.adversarial_order = true;
    auto r = run_elkin_mst(g, opts);
    expect_conserves(r.stats);
    // Every span bound sits inside the run length.
    for (const TraceSpan& s : r.stats.trace->spans)
        EXPECT_LE(s.last_round, r.stats.rounds);
}

// ------------------------------------------- span-derived phase2 split

// The span-derived Elkin phase split: derived from the actual
// Registration/Boruvka/Finish spans, not the legacy round-window
// approximation (everything past bfs_rounds + ecc + 2 + ghs_rounds). The
// two must agree to within one round — phase 2's first send lands either
// in the schedule's last round or the one after it, depending on when the
// root's control pass fires — and the span-derived message count is the
// window sum corrected by exactly that boundary round's phase-2 traffic.
void expect_phase2_refines_round_window(const WeightedGraph& g,
                                        const ElkinOptions& opts)
{
    auto r = run_elkin_mst(g, opts);
    ASSERT_TRUE(r.stats.trace);

    // phase2_* must be exactly the span-derived quantities.
    std::uint64_t span_messages = 0;
    std::uint64_t first_round = ~std::uint64_t{0};
    for (const TraceSpan& s : r.stats.trace->spans) {
        if (s.phase != TracePhase::Registration &&
            s.phase != TracePhase::Boruvka && s.phase != TracePhase::Finish)
            continue;
        span_messages += s.messages;
        first_round = std::min(first_round, s.first_round);
    }
    ASSERT_NE(first_round, ~std::uint64_t{0});
    EXPECT_EQ(r.phase2_messages, span_messages);
    EXPECT_EQ(r.phase2_rounds, r.stats.rounds - (first_round - 1));

    // Agreement with the legacy window to within one round.
    const std::uint64_t ghs_end = std::min<std::uint64_t>(
        r.bfs_rounds + r.bfs_ecc + 2 + r.ghs_rounds, r.stats.rounds);
    EXPECT_GE(first_round, ghs_end);
    EXPECT_LE(first_round, ghs_end + 1);

    // Window sum over rounds (ghs_end, rounds] vs the span count: the
    // spans may additionally include phase-2 sends from the boundary
    // round ghs_end, and nothing else.
    std::uint64_t window = 0, boundary = 0;
    const auto& per_round = r.stats.messages_per_round;
    for (std::uint64_t t = ghs_end; t < per_round.size(); ++t)
        window += per_round[t];
    if (ghs_end > 0 && ghs_end <= per_round.size())
        boundary = per_round[ghs_end - 1];
    EXPECT_GE(r.phase2_messages, window);
    EXPECT_LE(r.phase2_messages, window + boundary);
}

TEST(TracePhase2, SpanSplitRefinesLegacyRoundWindow)
{
    Rng rng(7101);
    expect_phase2_refines_round_window(gen_erdos_renyi(64, 200, rng),
                                       ElkinOptions{});
    expect_phase2_refines_round_window(gen_grid(8, 8, rng), ElkinOptions{});
}

TEST(TracePhase2, SpanSplitRefinesLegacyRoundWindowUnderConditioner)
{
    Rng rng(7102);
    ElkinOptions opts;
    opts.conditioner.adversarial_order = true;
    expect_phase2_refines_round_window(gen_erdos_renyi(48, 150, rng), opts);
}

// ------------------------------------------------- tri-engine parity

// Same seed => identical engine-invariant span projection on all three
// engines: the observability extension of the exactness contract.
TEST(TraceParity, ElkinTriEngine)
{
    Rng rng(7201);
    auto g = gen_erdos_renyi(64, 200, rng);

    auto fingerprint = [&](const ElkinOptions& opts) {
        auto r = run_elkin_mst(g, opts);
        expect_conserves(r.stats);
        return r.stats.trace->parity_fingerprint();
    };

    const std::string serial = fingerprint(ElkinOptions{});
    ASSERT_FALSE(serial.empty());

    for (int threads : {1, 2, 8}) {
        ElkinOptions opts;
        opts.engine = Engine::Parallel;
        opts.threads = threads;
        EXPECT_EQ(fingerprint(opts), serial) << "parallel threads=" << threads;
    }
    for (std::uint64_t event_seed : {1, 2, 3}) {
        ElkinOptions opts;
        opts.engine = Engine::Async;
        opts.async.max_delay = 4;
        opts.async.event_seed = event_seed;
        EXPECT_EQ(fingerprint(opts), serial)
            << "async event_seed=" << event_seed;
    }
    {
        ElkinOptions opts;
        opts.engine = Engine::Async;
        opts.async.max_delay = 1;  // unit delays, still event-driven
        EXPECT_EQ(fingerprint(opts), serial) << "async max_delay=1";
    }
}

TEST(TraceParity, VerifyTriEngine)
{
    Rng rng(7202);
    auto g = gen_erdos_renyi(48, 140, rng);
    auto ports = kruskal_ports(g);

    auto fingerprint = [&](VerifyOptions opts) {
        opts.trace = true;
        auto r = run_verify_mst(g, ports, opts);
        EXPECT_TRUE(r.accepted);
        expect_conserves(r.stats);
        return r.stats.trace->parity_fingerprint();
    };

    const std::string serial = fingerprint(VerifyOptions{});
    {
        VerifyOptions opts;
        opts.engine = Engine::Parallel;
        opts.threads = 2;
        EXPECT_EQ(fingerprint(opts), serial) << "parallel";
    }
    {
        VerifyOptions opts;
        opts.engine = Engine::Async;
        opts.async.event_seed = 2;
        EXPECT_EQ(fingerprint(opts), serial) << "async";
    }
}

TEST(TraceParity, BoruvkaMultiEpoch)
{
    Rng rng(7204);
    auto g = gen_erdos_renyi(56, 170, rng);

    auto run = [&](Engine engine, int threads) {
        SyncBoruvkaOptions opts;
        opts.trace = true;
        opts.engine = engine;
        opts.threads = threads;
        auto r = run_sync_boruvka(g, opts);
        expect_conserves(r.stats);
        return r.stats.trace;
    };

    auto serial = run(Engine::Serial, 0);
    // Lock-step engines share the round numbering: full parity.
    EXPECT_EQ(run(Engine::Parallel, 2)->parity_fingerprint(),
              serial->parity_fingerprint());
    // The async engine re-aligns each epoch to a base level that includes
    // its endgame skew (sim/async_network.h), so round numbering drifts
    // across epochs; the per-span traffic stays engine-invariant.
    auto async = run(Engine::Async, 0);
    ASSERT_EQ(async->spans.size(), serial->spans.size());
    for (std::size_t i = 0; i < serial->spans.size(); ++i) {
        EXPECT_EQ(async->spans[i].phase, serial->spans[i].phase);
        EXPECT_EQ(async->spans[i].level, serial->spans[i].level);
        EXPECT_EQ(async->spans[i].messages, serial->spans[i].messages);
        EXPECT_EQ(async->spans[i].words, serial->spans[i].words);
    }
}

TEST(TraceParity, GhsSerialVsParallel)
{
    Rng rng(7203);
    auto g = gen_erdos_renyi(56, 170, rng);

    auto fingerprint = [&](Engine engine, int threads) {
        GhsOptions opts;
        opts.k = 6;
        opts.trace = true;
        opts.engine = engine;
        opts.threads = threads;
        auto r = run_controlled_ghs(g, opts);
        expect_conserves(r.stats);
        return r.stats.trace->parity_fingerprint();
    };

    const std::string serial = fingerprint(Engine::Serial, 0);
    EXPECT_EQ(fingerprint(Engine::Parallel, 2), serial);
    EXPECT_EQ(fingerprint(Engine::Async, 0), serial);
}

// ------------------------------------------------ nested-scope restore

// Sends in four places in each of its first kRounds rounds, on every port:
// 1 message under an outer (Bfs, 1) scope, 2 under an inner (Ghs, 2) scope
// nested in it, 4 back in the outer scope once the inner one closed, and 8
// with no scope open (the Init span). The distinct counts make any
// misattribution visible. The flat variant sends the same messages in the
// same order from three sibling scopes, so both variants must produce the
// same per-span table, fault-shim traffic included.
class NestedScopeProcess : public Process {
public:
    static constexpr std::uint64_t kRounds = 3;

    explicit NestedScopeProcess(bool nested) : nested_(nested) {}

    void on_round(Context& ctx) override
    {
        if (ctx.round() > kRounds) {
            done_ = true;
            return;
        }
        if (nested_) {
            TraceScope outer(ctx, TracePhase::Bfs, 1);
            send_each_port(ctx, 1);
            {
                TraceScope inner(ctx, TracePhase::Ghs, 2);
                send_each_port(ctx, 2);
            }
            send_each_port(ctx, 4);
        } else {
            {
                TraceScope outer(ctx, TracePhase::Bfs, 1);
                send_each_port(ctx, 1);
            }
            {
                TraceScope inner(ctx, TracePhase::Ghs, 2);
                send_each_port(ctx, 2);
            }
            {
                TraceScope outer_again(ctx, TracePhase::Bfs, 1);
                send_each_port(ctx, 4);
            }
        }
        send_each_port(ctx, 8);  // no scope open: the Init span
    }

    bool done() const override { return done_; }

private:
    static void send_each_port(Context& ctx, int count)
    {
        for (std::size_t port = 0; port < ctx.degree(); ++port)
            for (int i = 0; i < count; ++i)
                ctx.send(port, Message{1, {}});
    }

    bool nested_;
    bool done_ = false;
};

std::shared_ptr<const TraceTable> run_nested_scopes(const WeightedGraph& g,
                                                    NetConfig config,
                                                    bool nested)
{
    config.trace.enabled = true;
    auto net = make_network(g, config);
    net->init([&](VertexId) {
        return std::make_unique<NestedScopeProcess>(nested);
    });
    RunStats stats = net->run();
    expect_conserves(stats);
    return stats.trace;
}

TEST(TraceScopeNesting, InnerScopeRestoresOuterSpan)
{
    Rng rng(7401);
    auto g = gen_erdos_renyi(24, 60, rng);
    // One send slot per (vertex, port, active round).
    const std::uint64_t slots =
        NestedScopeProcess::kRounds * 2 * g.edge_count();

    std::vector<std::pair<std::string, NetConfig>> engines(3);
    engines[0].first = "serial";
    engines[1].first = "parallel";
    engines[1].second.engine = Engine::Parallel;
    engines[1].second.threads = 2;
    engines[2].first = "async-alpha";
    engines[2].second.engine = Engine::Async;
    engines[2].second.async.sync = SyncMode::Alpha;

    for (bool lossy : {false, true}) {
        for (auto [name, config] : engines) {
            // Loss lives on the async engine only.
            if (lossy && config.engine != Engine::Async)
                continue;
            if (lossy)
                config.faults.drop_rate = 0.2;
            SCOPED_TRACE(name + (lossy ? " lossy" : ""));
            auto t = run_nested_scopes(g, config, /*nested=*/true);

            ASSERT_EQ(t->spans.size(), 3u);
            const TraceSpan* init = t->find(TracePhase::Init, 0);
            const TraceSpan* outer = t->find(TracePhase::Bfs, 1);
            const TraceSpan* inner = t->find(TracePhase::Ghs, 2);
            ASSERT_NE(init, nullptr);
            ASSERT_NE(outer, nullptr);
            ASSERT_NE(inner, nullptr);
            EXPECT_EQ(outer->messages, (1 + 4) * slots);
            EXPECT_EQ(inner->messages, 2 * slots);
            EXPECT_EQ(init->messages, 8 * slots);
            for (const TraceSpan* s : {init, outer, inner}) {
                EXPECT_EQ(s->first_round, 1u);
                EXPECT_EQ(s->last_round, NestedScopeProcess::kRounds);
            }

            // The flat variant reaches the same spans through sibling
            // scopes alone, with nothing to restore. The shim plans each
            // send from its (vertex, port) attempt clock, which both
            // variants advance in the same order, so their per-span
            // retransmissions and drops must match exactly.
            auto flat = run_nested_scopes(g, config, /*nested=*/false);
            ASSERT_EQ(flat->spans.size(), t->spans.size());
            for (std::size_t i = 0; i < t->spans.size(); ++i) {
                EXPECT_EQ(t->spans[i].messages, flat->spans[i].messages);
                EXPECT_EQ(t->spans[i].retransmissions,
                          flat->spans[i].retransmissions);
                EXPECT_EQ(t->spans[i].drops, flat->spans[i].drops);
            }
            if (lossy) {
                EXPECT_GT(t->total_retransmissions, 0u);
                for (const TraceSpan* s : {init, outer, inner})
                    EXPECT_GT(s->retransmissions, 0u)
                        << trace_phase_name(s->phase);
            }
        }
    }
}

// ------------------------------------------------- exporter round-trip

TEST(TraceExport, JsonlRoundTrip)
{
    Rng rng(7301);
    auto g = gen_erdos_renyi(48, 150, rng);
    auto r = run_elkin_mst(g, ElkinOptions{});
    const TraceTable& t = *r.stats.trace;

    std::stringstream buf;
    write_trace_jsonl(buf, t);
    TraceTable back = read_trace_jsonl(buf);

    EXPECT_EQ(back.total_messages, t.total_messages);
    EXPECT_EQ(back.total_words, t.total_words);
    EXPECT_EQ(back.total_rounds, t.total_rounds);
    EXPECT_EQ(back.sync_messages, t.sync_messages);
    EXPECT_EQ(back.sync_words, t.sync_words);
    EXPECT_EQ(back.parity_fingerprint(), t.parity_fingerprint());
    EXPECT_NO_THROW(back.validate());

    ASSERT_EQ(back.spans.size(), t.spans.size());
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
        EXPECT_EQ(back.spans[i].first_round, t.spans[i].first_round);
        EXPECT_EQ(back.spans[i].last_round, t.spans[i].last_round);
        EXPECT_EQ(back.spans[i].first_vtime, t.spans[i].first_vtime);
        EXPECT_EQ(back.spans[i].last_vtime, t.spans[i].last_vtime);
        EXPECT_EQ(back.spans[i].instants, t.spans[i].instants);
    }
    ASSERT_EQ(back.tags.size(), t.tags.size());
    for (std::size_t i = 0; i < t.tags.size(); ++i) {
        EXPECT_EQ(back.tags[i].tag, t.tags[i].tag);
        EXPECT_EQ(back.tags[i].messages, t.tags[i].messages);
        EXPECT_EQ(back.tags[i].words, t.tags[i].words);
    }
}

TEST(TraceExport, JsonlRejectsGarbage)
{
    std::stringstream buf("{\"type\":\"span\"");
    EXPECT_THROW(read_trace_jsonl(buf), std::runtime_error);
}

TEST(TraceExport, ChromeTraceStructure)
{
    Rng rng(7302);
    auto g = gen_erdos_renyi(48, 150, rng);
    ElkinOptions opts;
    opts.engine = Engine::Async;  // exercises the synchronizer track too
    auto r = run_elkin_mst(g, opts);

    std::stringstream buf;
    write_chrome_trace(buf, *r.stats.trace);
    const std::string out = buf.str();

    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(out.find("\"dmst_totals\""), std::string::npos);
    EXPECT_NE(out.find("\"synchronizer\""), std::string::npos);
    // One complete event per span, plus the synchronizer track's single
    // span (this is an async run, so sync_messages > 0).
    ASSERT_GT(r.stats.trace->sync_messages, 0u);
    std::size_t x_events = 0, pos = 0;
    while ((pos = out.find("\"ph\":\"X\"", pos)) != std::string::npos) {
        ++x_events;
        pos += 1;
    }
    EXPECT_EQ(x_events, r.stats.trace->spans.size() + 1);
}

}  // namespace
}  // namespace dmst
