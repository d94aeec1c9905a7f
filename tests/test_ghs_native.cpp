// Tests for the natively asynchronous GHS driver (core/ghs_native.h): the
// exact-MST bar against the sequential reference and the synchronized
// Controlled-GHS, bit-identical edge sets across all engines and over a
// (max_delay, event_seed) fuzz grid on the zero-synchronizer native path,
// verifier acceptance, same-seed replay, degenerate graphs, and trace
// conservation for handler-attributed spans.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/ghs_native.h"
#include "dmst/core/verify_mst.h"
#include "dmst/graph/generators.h"
#include "dmst/graph/metrics.h"
#include "dmst/obs/trace.h"
#include "dmst/seq/mst.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// Edge ids marked as MST edges, requiring both endpoints to agree (every
// Branch edge is Branch on both sides).
std::set<EdgeId> marked_edges(const WeightedGraph& g, const MstForestResult& r)
{
    std::map<EdgeId, int> seen;
    for (VertexId v = 0; v < g.vertex_count(); ++v)
        for (std::size_t port : r.mst_ports[v])
            ++seen[g.edge_id(v, port)];
    std::set<EdgeId> edges;
    for (auto [e, count] : seen) {
        EXPECT_EQ(count, 2) << "edge " << e << " marked on one side only";
        edges.insert(e);
    }
    return edges;
}

// Parent pointers must form per-fragment trees over marked edges, rooted
// at the vertex whose id names the fragment.
void check_forest(const WeightedGraph& g, const MstForestResult& r)
{
    const std::size_t n = g.vertex_count();
    for (VertexId v = 0; v < n; ++v) {
        VertexId cur = v;
        std::uint64_t steps = 0;
        while (r.parent_port[cur] != kNoPort) {
            const std::size_t pp = r.parent_port[cur];
            const auto& ports = r.mst_ports[cur];
            EXPECT_TRUE(std::find(ports.begin(), ports.end(), pp) !=
                        ports.end())
                << "parent port not marked at vertex " << cur;
            VertexId next = g.neighbor(cur, pp);
            EXPECT_EQ(r.fragment_id[next], r.fragment_id[cur]);
            cur = next;
            ASSERT_LE(++steps, n) << "parent pointers contain a cycle";
        }
        EXPECT_EQ(r.fragment_id[cur], cur) << "root id must name the fragment";
        EXPECT_EQ(r.fragment_id[v], r.fragment_id[cur]);
    }
}

std::set<EdgeId> reference_mst(const WeightedGraph& g)
{
    auto mst = mst_kruskal(g);
    return {mst.edges.begin(), mst.edges.end()};
}

GhsNativeOptions native_async(int max_delay, std::uint64_t event_seed)
{
    GhsNativeOptions opts;
    opts.engine = Engine::Async;
    opts.async.sync = SyncMode::None;
    opts.async.max_delay = max_delay;
    opts.async.event_seed = event_seed;
    return opts;
}

TEST(GhsNative, ExactMstOnSerialEngine)
{
    Rng rng(9101);
    for (auto g : {gen_path(17, rng), gen_cycle(24, rng), gen_star(9, rng),
                   gen_grid(5, 7, rng), gen_erdos_renyi(48, 160, rng),
                   gen_complete(12, rng)}) {
        auto r = run_ghs_native(g, GhsNativeOptions{});
        EXPECT_FALSE(r.partial);
        EXPECT_EQ(r.fragment_count(), 1u);
        EXPECT_EQ(marked_edges(g, r), reference_mst(g));
        check_forest(g, r);
        EXPECT_GT(r.stats.messages, 0u);
        EXPECT_EQ(r.stats.sync_messages, 0u);  // lock-step: no synchronizer
    }
}

TEST(GhsNative, SingleVertexAndSingleEdge)
{
    auto g1 = WeightedGraph::from_edges(1, {});
    auto r1 = run_ghs_native(g1, GhsNativeOptions{});
    EXPECT_EQ(r1.fragment_id[0], 0u);
    EXPECT_EQ(r1.parent_port[0], kNoPort);
    EXPECT_TRUE(r1.mst_ports[0].empty());

    auto g2 = WeightedGraph::from_edges(2, {{0, 1, 5}});
    auto r2 = run_ghs_native(g2, GhsNativeOptions{});
    EXPECT_EQ(marked_edges(g2, r2).size(), 1u);
    EXPECT_EQ(r2.fragment_id[0], 0u);
    EXPECT_EQ(r2.fragment_id[1], 0u);  // smaller core endpoint is the root
    EXPECT_EQ(r2.parent_port[0], kNoPort);
    check_forest(g2, r2);
}

TEST(GhsNative, ForestOnDisconnectedGraph)
{
    // Two triangles and an isolated vertex: one fragment per component.
    auto g = WeightedGraph::from_edges(7, {{0, 1, 1},
                                           {1, 2, 2},
                                           {0, 2, 3},
                                           {3, 4, 4},
                                           {4, 5, 5},
                                           {3, 5, 6}});
    auto r = run_ghs_native(g, GhsNativeOptions{});
    EXPECT_FALSE(r.partial);
    EXPECT_EQ(r.fragment_count(), 3u);
    check_forest(g, r);
    // Each triangle drops its heaviest edge.
    auto edges = marked_edges(g, r);
    EXPECT_EQ(edges.size(), 4u);
    EXPECT_EQ(edges.count(g.edge_id(0, g.port_of(0, 2))), 0u);
    EXPECT_EQ(edges.count(g.edge_id(3, g.port_of(3, 5))), 0u);
    EXPECT_EQ(r.fragment_id[6], 6u);
    EXPECT_TRUE(r.mst_ports[6].empty());
}

// The same driver must produce the same MST on every engine: the
// lock-step engines via the on_round adapter, the event-driven engine
// behind both synchronizers, and natively with no synchronizer at all.
TEST(GhsNative, IdenticalMstAcrossAllEnginePaths)
{
    Rng rng(9102);
    auto g = gen_erdos_renyi(40, 120, rng);
    const auto want = reference_mst(g);

    auto ghs = run_controlled_ghs(g, [&] {
        GhsOptions o;
        o.k = 2 * g.vertex_count();  // one fragment: the full unique MST
        return o;
    }());
    EXPECT_EQ(marked_edges(g, ghs), want);

    GhsNativeOptions serial;
    GhsNativeOptions parallel;
    parallel.engine = Engine::Parallel;
    parallel.threads = 3;
    GhsNativeOptions alpha = native_async(3, 7);
    alpha.async.sync = SyncMode::Alpha;
    GhsNativeOptions beta = native_async(3, 7);
    beta.async.sync = SyncMode::Beta;
    GhsNativeOptions native = native_async(3, 7);

    const auto rs = run_ghs_native(g, serial);
    const auto rp = run_ghs_native(g, parallel);
    const auto ra = run_ghs_native(g, alpha);
    const auto rb = run_ghs_native(g, beta);
    const auto rn = run_ghs_native(g, native);

    for (const auto* r : {&rs, &rp, &ra, &rb, &rn}) {
        EXPECT_FALSE(r->partial);
        EXPECT_EQ(marked_edges(g, *r), want);
        check_forest(g, *r);
    }

    // Lock-step and synchronized-async schedules are the same logical
    // execution, so payload counters agree bit-for-bit; the native run is
    // a different (asynchronous) schedule and only the MST is comparable.
    EXPECT_EQ(rs.stats.messages, rp.stats.messages);
    EXPECT_EQ(rs.stats.words, rp.stats.words);
    EXPECT_EQ(rs.stats.messages, ra.stats.messages);
    EXPECT_EQ(rs.stats.words, ra.stats.words);
    EXPECT_EQ(rs.stats.messages, rb.stats.messages);
    EXPECT_EQ(rs.stats.words, rb.stats.words);

    EXPECT_GT(ra.stats.sync_messages, 0u);
    EXPECT_GT(rb.stats.sync_messages, 0u);
    EXPECT_EQ(rn.stats.sync_messages, 0u);
    EXPECT_EQ(rn.stats.sync_words, 0u);
}

// The native schedule bar: every (max_delay, event_seed) point yields the
// same MST with zero synchronizer traffic. The schedules genuinely differ
// (virtual times and merge orders vary) — only the tree is invariant.
TEST(GhsNative, NativeScheduleInvarianceFuzz)
{
    Rng rng(9103);
    for (auto g : {gen_erdos_renyi(36, 110, rng), gen_grid(6, 6, rng),
                   gen_lollipop(8, 12, rng)}) {
        const auto want = reference_mst(g);
        for (int max_delay : {1, 2, 5, 16}) {
            for (std::uint64_t seed : {1ull, 2ull, 3ull, 99ull}) {
                auto r = run_ghs_native(g, native_async(max_delay, seed));
                ASSERT_FALSE(r.partial);
                EXPECT_EQ(marked_edges(g, r), want)
                    << "max_delay=" << max_delay << " seed=" << seed;
                check_forest(g, r);
                EXPECT_EQ(r.stats.sync_messages, 0u);
                EXPECT_GT(r.stats.events, 0u);
                EXPECT_GT(r.stats.virtual_time, 0u);
            }
        }
    }
}

// Same (max_delay, event_seed) point, run twice: the native engine's event
// order is deterministic, so even the schedule-dependent counters must
// replay exactly.
TEST(GhsNative, NativeSameSeedReplaysExactly)
{
    Rng rng(9104);
    auto g = gen_erdos_renyi(44, 140, rng);
    auto r1 = run_ghs_native(g, native_async(4, 13));
    auto r2 = run_ghs_native(g, native_async(4, 13));
    EXPECT_EQ(marked_edges(g, r1), marked_edges(g, r2));
    EXPECT_EQ(r1.stats.messages, r2.stats.messages);
    EXPECT_EQ(r1.stats.words, r2.stats.words);
    EXPECT_EQ(r1.stats.events, r2.stats.events);
    EXPECT_EQ(r1.stats.virtual_time, r2.stats.virtual_time);
    EXPECT_EQ(r1.stats.rounds, r2.stats.rounds);
    EXPECT_EQ(r1.stats.activations, r2.stats.activations);
}

TEST(GhsNative, VerifierAcceptsTheNativeTree)
{
    Rng rng(9105);
    auto g = gen_erdos_renyi(40, 130, rng);
    auto r = run_ghs_native(g, native_async(4, 21));
    auto verdict = run_verify_mst(g, r.mst_ports);
    EXPECT_TRUE(verdict.accepted);
    EXPECT_EQ(verdict.verdict, VerifyVerdict::Accept);

    // Control: swap one tree edge out for a non-tree edge; the verifier
    // must reject, proving the accept above is not vacuous.
    auto edges = marked_edges(g, r);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
        if (edges.count(e))
            continue;
        const Edge& add = g.edge(e);
        auto tampered = r.mst_ports;
        tampered[add.u].push_back(g.port_of(add.u, add.v));
        tampered[add.v].push_back(g.port_of(add.v, add.u));
        auto bad = run_verify_mst(g, tampered);
        EXPECT_FALSE(bad.accepted);
        break;
    }
}

// Handler-attributed spans: the Hello bootstrap, the per-level Ghs spans,
// and the Finish (halt) wave must account for every payload message on
// both the lock-step and the native path.
TEST(GhsNative, TraceConservationForHandlerSpans)
{
    Rng rng(9106);
    auto g = gen_erdos_renyi(32, 96, rng);
    for (bool native : {false, true}) {
        GhsNativeOptions opts =
            native ? native_async(3, 5) : GhsNativeOptions{};
        opts.trace = true;
        auto r = run_ghs_native(g, opts);
        ASSERT_TRUE(r.stats.trace);
        const TraceTable& t = *r.stats.trace;
        EXPECT_NO_THROW(t.validate());

        std::uint64_t span_messages = 0;
        std::set<TracePhase> phases;
        for (const TraceSpan& s : t.spans) {
            span_messages += s.messages;
            phases.insert(s.phase);
        }
        EXPECT_EQ(span_messages, r.stats.messages);
        EXPECT_TRUE(phases.count(TracePhase::Hello));
        EXPECT_TRUE(phases.count(TracePhase::Ghs));
        EXPECT_TRUE(phases.count(TracePhase::Finish));
    }
}

}  // namespace
}  // namespace dmst
