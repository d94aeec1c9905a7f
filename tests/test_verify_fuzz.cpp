// Fuzz cross-check of the in-model MST verification (core/verify_mst.h)
// against the sequential oracle: on random graphs with random claimed
// forests, the protocol's accept/reject decision must match "claimed ==
// Kruskal MST", the verdict class must match the oracle's failure
// diagnosis, and the witness must certify it — all bit-identically across
// the serial and parallel engines at 1/2/8 workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "dmst/core/mst_output.h"
#include "dmst/core/verify_mst.h"
#include "dmst/graph/generators.h"
#include "dmst/seq/mst.h"
#include "dmst/util/dsu.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// What the oracle says about a claimed edge list (symmetric by
// construction here; asymmetric claims are fuzzed separately).
VerifyVerdict oracle_verdict(const WeightedGraph& g,
                             const std::vector<EdgeId>& claimed,
                             const std::vector<EdgeId>& mst)
{
    Dsu dsu(g.vertex_count());
    bool cycle = false;
    for (EdgeId e : claimed) {
        if (!dsu.unite(g.edge(e).u, g.edge(e).v))
            cycle = true;
    }
    std::size_t components = 0;
    for (VertexId v = 0; v < g.vertex_count(); ++v)
        components += dsu.find(v) == v ? 1 : 0;
    // The protocol checks in this order: spanning (components), then
    // cycles, then minimality.
    if (components > 1)
        return VerifyVerdict::RejectDisconnected;
    if (cycle)
        return VerifyVerdict::RejectCycle;
    return claimed == mst ? VerifyVerdict::Accept
                          : VerifyVerdict::RejectNotMinimal;
}

void check_witness(const WeightedGraph& g, const std::vector<EdgeId>& claimed,
                   const std::vector<EdgeId>& mst, const VerifyMstResult& r)
{
    if (r.accepted) {
        EXPECT_EQ(r.witness, kInfiniteEdgeKey);
        return;
    }
    // Locate the witness edge in the graph.
    EdgeId witness = kNoEdge;
    for (EdgeId e = 0; e < g.edge_count(); ++e)
        if (edge_key(g.edge(e)) == r.witness) {
            witness = e;
            break;
        }
    ASSERT_NE(witness, kNoEdge) << "witness is not a graph edge";
    std::set<EdgeId> claimed_set(claimed.begin(), claimed.end());
    std::set<EdgeId> mst_set(mst.begin(), mst.end());
    switch (r.verdict) {
        case VerifyVerdict::RejectDisconnected:
            // The lightest edge crossing an empty cut: an MST edge the
            // claim misses.
            EXPECT_TRUE(mst_set.count(witness));
            EXPECT_FALSE(claimed_set.count(witness));
            break;
        case VerifyVerdict::RejectCycle:
            // A claimed edge on a claimed cycle.
            EXPECT_TRUE(claimed_set.count(witness));
            break;
        case VerifyVerdict::RejectNotMinimal:
            // A claimed edge beaten by a lighter non-tree edge: it cannot
            // be in the MST (the violation is a strict improvement).
            EXPECT_TRUE(claimed_set.count(witness));
            EXPECT_FALSE(mst_set.count(witness));
            EXPECT_LT(r.offender, r.witness);
            break;
        default:
            FAIL() << "unexpected verdict "
                   << verify_verdict_name(r.verdict);
    }
}

// A random spanning tree: Kruskal over shuffled edge ranks.
std::vector<EdgeId> random_spanning_tree(const WeightedGraph& g, Rng& rng)
{
    std::vector<EdgeId> order(g.edge_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e)
        order[e] = e;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.next_below(i)]);
    Dsu dsu(g.vertex_count());
    std::vector<EdgeId> tree;
    for (EdgeId e : order)
        if (dsu.unite(g.edge(e).u, g.edge(e).v))
            tree.push_back(e);
    std::sort(tree.begin(), tree.end());
    return tree;
}

WeightedGraph random_connected_graph(std::size_t n, Rng& rng)
{
    if (n == 1)
        return WeightedGraph::from_edges(1, {});
    std::size_t m = n - 1 + rng.next_below(2 * n);
    return gen_erdos_renyi(n, std::min(m, n * (n - 1) / 2), rng);
}

TEST(VerifyFuzz, MatchesTheSequentialOracle)
{
    Rng rng(20260730);
    for (int iter = 0; iter < 120; ++iter) {
        std::size_t n = 2 + rng.next_below(40);
        auto g = random_connected_graph(n, rng);
        auto mst = mst_kruskal(g);

        // A mix of claims: the MST, a random spanning tree, the MST with
        // random drops, and a random edge subset. The MST-based claims are
        // copy-constructed: gcc 12 misreads a copy-assignment into the
        // empty vector as a memmove to null (-Wnonnull).
        std::vector<EdgeId> claimed =
            iter % 2 == 0 ? mst.edges : std::vector<EdgeId>{};
        switch (iter % 4) {
            case 0: break;
            case 1: claimed = random_spanning_tree(g, rng); break;
            case 2: {
                std::size_t drops = 1 + rng.next_below(3);
                for (std::size_t d = 0; d < drops && !claimed.empty(); ++d)
                    claimed.erase(claimed.begin() +
                                  rng.next_below(claimed.size()));
                break;
            }
            default: {
                for (EdgeId e = 0; e < g.edge_count(); ++e)
                    if (rng.next_below(2))
                        claimed.push_back(e);
                break;
            }
        }

        auto r = run_verify_mst(g, ports_from_edges(g, claimed));
        VerifyVerdict expected = oracle_verdict(g, claimed, mst.edges);
        EXPECT_EQ(r.verdict, expected)
            << "iter " << iter << ": got " << verify_verdict_name(r.verdict)
            << ", oracle says " << verify_verdict_name(expected);
        EXPECT_EQ(r.accepted, claimed == mst.edges) << "iter " << iter;
        check_witness(g, claimed, mst.edges, r);
    }
}

TEST(VerifyFuzz, AsymmetricMarksAlwaysWitnessed)
{
    Rng rng(77);
    for (int iter = 0; iter < 20; ++iter) {
        std::size_t n = 3 + rng.next_below(24);
        auto g = random_connected_graph(n, rng);
        auto mst = mst_kruskal(g);
        auto claimed = ports_from_edges(g, mst.edges);
        // Strip one endpoint's mark from a random MST edge.
        EdgeId victim = mst.edges[rng.next_below(mst.edges.size())];
        VertexId side = rng.next_below(2) ? g.edge(victim).u : g.edge(victim).v;
        VertexId other = side == g.edge(victim).u ? g.edge(victim).v
                                                  : g.edge(victim).u;
        auto& ports = claimed[side];
        ports.erase(std::find(ports.begin(), ports.end(),
                              g.port_of(side, other)));
        auto r = run_verify_mst(g, claimed);
        EXPECT_EQ(r.verdict, VerifyVerdict::RejectAsymmetric) << iter;
        EXPECT_EQ(r.witness, edge_key(g.edge(victim))) << iter;
    }
}

TEST(VerifyFuzz, EnginesAndThreadCountsAgree)
{
    Rng rng(4242);
    for (int iter = 0; iter < 12; ++iter) {
        std::size_t n = 2 + rng.next_below(32);
        auto g = random_connected_graph(n, rng);
        auto mst = mst_kruskal(g);
        auto claimed_edges =
            iter % 2 ? random_spanning_tree(g, rng) : mst.edges;
        auto claimed = ports_from_edges(g, claimed_edges);
        VerifyOptions opts;
        opts.root = static_cast<VertexId>(rng.next_below(n));
        auto base = run_verify_mst(g, claimed, opts);
        for (int threads : {1, 2, 8}) {
            VerifyOptions par = opts;
            par.engine = Engine::Parallel;
            par.threads = threads;
            auto r = run_verify_mst(g, claimed, par);
            EXPECT_EQ(r.verdict, base.verdict) << iter << "/" << threads;
            EXPECT_EQ(r.witness, base.witness) << iter << "/" << threads;
            EXPECT_EQ(r.offender, base.offender) << iter << "/" << threads;
            EXPECT_EQ(r.stats.rounds, base.stats.rounds)
                << iter << "/" << threads;
            EXPECT_EQ(r.stats.messages, base.stats.messages)
                << iter << "/" << threads;
            EXPECT_EQ(r.stats.words, base.stats.words)
                << iter << "/" << threads;
        }
    }
}

}  // namespace
}  // namespace dmst
