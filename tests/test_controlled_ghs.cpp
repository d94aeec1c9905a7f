#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dmst/core/controlled_ghs.h"
#include "dmst/graph/generators.h"
#include "dmst/graph/metrics.h"
#include "dmst/seq/mst.h"
#include "dmst/util/intmath.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// Controlled-GHS options with the given fragment-diameter budget k.
GhsOptions ghs_k(std::uint64_t k)
{
    GhsOptions opts;
    opts.k = k;
    return opts;
}


// Collects the set of edge ids marked as MST edges by the vertices, and
// checks that the two endpoints of every marked edge agree.
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

// Per-fragment structural checks: parent pointers form trees that stay
// inside the fragment, roots carry the fragment id, and heights are bounded.
struct ForestShape {
    std::size_t fragments = 0;
    std::uint64_t max_height = 0;
    std::size_t smallest_fragment = 0;
};

ForestShape check_forest_structure(const WeightedGraph& g, const MstForestResult& r)
{
    const std::size_t n = g.vertex_count();
    std::map<std::uint64_t, std::vector<VertexId>> members;
    for (VertexId v = 0; v < n; ++v)
        members[r.fragment_id[v]].push_back(v);

    // Depth of every vertex by following parent ports (cycle-guarded).
    std::vector<std::uint64_t> depth(n, 0);
    std::uint64_t max_height = 0;
    for (VertexId v = 0; v < n; ++v) {
        VertexId cur = v;
        std::uint64_t d = 0;
        while (r.parent_port[cur] != kNoPort) {
            VertexId next = g.neighbor(cur, r.parent_port[cur]);
            EXPECT_EQ(r.fragment_id[next], r.fragment_id[cur])
                << "parent edge leaves fragment at vertex " << cur;
            cur = next;
            ++d;
            EXPECT_LE(d, n) << "parent pointers contain a cycle";
            if (d > n)
                break;
        }
        // The root of the chain defines the fragment id.
        EXPECT_EQ(r.fragment_id[v], r.fragment_id[cur]);
        EXPECT_EQ(static_cast<std::uint64_t>(cur), r.fragment_id[cur])
            << "fragment id is not its root's id";
        depth[v] = d;
        max_height = std::max(max_height, d);
    }

    ForestShape shape;
    shape.fragments = members.size();
    shape.max_height = max_height;
    shape.smallest_fragment = n;
    for (const auto& [fid, verts] : members) {
        (void)fid;
        shape.smallest_fragment = std::min(shape.smallest_fragment, verts.size());
    }
    return shape;
}

void check_ghs_result(const WeightedGraph& g, std::uint64_t k,
                      const MstForestResult& r)
{
    const std::size_t n = g.vertex_count();
    auto mst = mst_kruskal(g);
    std::set<EdgeId> mst_set(mst.edges.begin(), mst.edges.end());

    // 1. Every marked edge is an edge of the unique MST.
    auto marked = marked_edges(g, r);
    for (EdgeId e : marked)
        EXPECT_TRUE(mst_set.count(e)) << "non-MST edge " << e << " marked";

    // 2. Fragments are rooted trees within fragments; exactly the marked
    //    edges hold them together: #marked = n - #fragments.
    ForestShape shape = check_forest_structure(g, r);
    EXPECT_EQ(marked.size(), n - shape.fragments);

    // 3. (n/k, O(k))-forest bounds: at most max(1, 2n/k) fragments
    //    (size-doubling lemma), height at most 3*2^ceil(log2 k) + 4.
    if (k >= 2) {
        std::uint64_t bound = std::max<std::uint64_t>(1, (2 * n) / k);
        EXPECT_LE(shape.fragments, bound)
            << "too many fragments for k=" << k << " n=" << n;
        std::uint64_t t = ceil_log2(k);
        EXPECT_LE(shape.max_height, 3 * (std::uint64_t{1} << t) + 4);
    }
}

TEST(ControlledGhs, SingleVertex)
{
    auto g = WeightedGraph::from_edges(1, {});
    auto r = run_controlled_ghs(g, ghs_k(4));
    EXPECT_EQ(r.fragment_count(), 1u);
    EXPECT_EQ(r.parent_port[0], kNoPort);
    EXPECT_TRUE(r.mst_ports[0].empty());
}

TEST(ControlledGhs, SingleEdgeMerges)
{
    auto g = WeightedGraph::from_edges(2, {{0, 1, 5}});
    auto r = run_controlled_ghs(g, ghs_k(2));
    EXPECT_EQ(r.fragment_count(), 1u);
    check_ghs_result(g, 2, r);
}

TEST(ControlledGhs, TriangleAllWeightsEqual)
{
    auto g = WeightedGraph::from_edges(3, {{0, 1, 7}, {1, 2, 7}, {0, 2, 7}});
    auto r = run_controlled_ghs(g, ghs_k(2));
    check_ghs_result(g, 2, r);
}

TEST(ControlledGhs, KOneLeavesSingletons)
{
    Rng rng(100);
    auto g = gen_erdos_renyi(20, 40, rng);
    auto r = run_controlled_ghs(g, ghs_k(1));
    EXPECT_EQ(r.fragment_count(), 20u);
    // Zero phases: only the round in which every process notices it is done.
    EXPECT_LE(r.stats.rounds, 1u);
    EXPECT_EQ(r.stats.messages, 0u);
}

TEST(ControlledGhs, LargeKBuildsFullMst)
{
    // With k >= n the forest must collapse to a single fragment, whose
    // tree edges are exactly the MST.
    Rng rng(101);
    auto g = gen_erdos_renyi(48, 120, rng);
    auto r = run_controlled_ghs(g, ghs_k(64));
    EXPECT_EQ(r.fragment_count(), 1u);
    auto marked = marked_edges(g, r);
    auto mst = mst_kruskal(g);
    EXPECT_EQ(marked, std::set<EdgeId>(mst.edges.begin(), mst.edges.end()));
}

TEST(ControlledGhs, DeterministicAcrossRuns)
{
    Rng rng(102);
    auto g = gen_erdos_renyi(40, 100, rng);
    auto a = run_controlled_ghs(g, ghs_k(8));
    auto b = run_controlled_ghs(g, ghs_k(8));
    EXPECT_EQ(a.fragment_id, b.fragment_id);
    EXPECT_EQ(a.parent_port, b.parent_port);
    EXPECT_EQ(a.stats.messages, b.stats.messages);
    EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

TEST(ControlledGhs, RoundsFollowSchedule)
{
    Rng rng(103);
    auto g = gen_erdos_renyi(40, 100, rng);
    auto r = run_controlled_ghs(g, ghs_k(8));
    GhsSchedule sched(40, 8, 1);
    // run() needs one extra delivery round for the final NEWID messages.
    EXPECT_GE(r.stats.rounds + 1, sched.total_rounds());
    EXPECT_LE(r.stats.rounds, sched.total_rounds() + 1);
}

struct GhsParam {
    const char* family;
    std::size_t n;
    std::uint64_t k;
    std::uint64_t seed;
};

class GhsSweep : public ::testing::TestWithParam<GhsParam> {
protected:
    WeightedGraph make() const
    {
        const auto& p = GetParam();
        Rng rng(p.seed);
        std::string family = p.family;
        if (family == "er")
            return gen_erdos_renyi(p.n, 3 * p.n, rng);
        if (family == "grid")
            return gen_grid(p.n / 8, 8, rng);
        if (family == "path")
            return gen_path(p.n, rng);
        if (family == "cycle")
            return gen_cycle(p.n, rng);
        if (family == "complete")
            return gen_complete(p.n, rng);
        if (family == "tree")
            return gen_random_tree(p.n, rng);
        if (family == "cliques")
            return gen_cliques_path(p.n / 8, 8, rng);
        throw std::invalid_argument("unknown family");
    }
};

TEST_P(GhsSweep, ProducesValidMstForest)
{
    auto g = make();
    auto r = run_controlled_ghs(g, ghs_k(GetParam().k));
    check_ghs_result(g, GetParam().k, r);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GhsSweep,
    ::testing::Values(GhsParam{"er", 32, 4, 1}, GhsParam{"er", 64, 8, 2},
                      GhsParam{"er", 128, 8, 3}, GhsParam{"er", 128, 16, 4},
                      GhsParam{"grid", 64, 8, 5}, GhsParam{"grid", 128, 4, 6},
                      GhsParam{"path", 50, 4, 7}, GhsParam{"path", 100, 16, 8},
                      GhsParam{"cycle", 60, 8, 9}, GhsParam{"complete", 24, 4, 10},
                      GhsParam{"tree", 100, 8, 11}, GhsParam{"cliques", 64, 8, 12},
                      GhsParam{"er", 200, 2, 13}, GhsParam{"er", 96, 32, 14}),
    [](const ::testing::TestParamInfo<GhsParam>& info) {
        return std::string(info.param.family) + "_n" +
               std::to_string(info.param.n) + "_k" + std::to_string(info.param.k) +
               "_s" + std::to_string(info.param.seed);
    });

TEST(ControlledGhs, MessageComplexityShape)
{
    // O(m log k + n log k log* n): measure and compare against the bound
    // with a generous constant.
    Rng rng(104);
    auto g = gen_erdos_renyi(128, 512, rng);
    for (std::uint64_t k : {2ull, 8ull, 32ull}) {
        auto r = run_controlled_ghs(g, ghs_k(k));
        double m = static_cast<double>(g.edge_count());
        double n = static_cast<double>(g.vertex_count());
        double logk = static_cast<double>(ceil_log2(k));
        double bound = (m + n * (log_star(128) + 6)) * logk;
        EXPECT_LE(static_cast<double>(r.stats.messages), 12.0 * bound)
            << "k=" << k;
    }
}

}  // namespace
}  // namespace dmst
