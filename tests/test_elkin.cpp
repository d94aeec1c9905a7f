#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "dmst/core/elkin_mst.h"
#include "dmst/graph/generators.h"
#include "dmst/graph/metrics.h"
#include "dmst/seq/mst.h"
#include "dmst/util/intmath.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// Elkin options rooted at `root`, or with the base-forest k forced.
ElkinOptions elkin_root(VertexId root)
{
    ElkinOptions opts;
    opts.root = root;
    return opts;
}

ElkinOptions elkin_k(std::uint64_t k)
{
    ElkinOptions opts;
    opts.k_override = k;
    return opts;
}


void expect_exact_mst(const WeightedGraph& g, const DistributedMstResult& r)
{
    auto mst = mst_kruskal(g);
    EXPECT_EQ(r.mst_edges, mst.edges);
    EXPECT_TRUE(is_spanning_tree(g, r.mst_edges));
}

ElkinOptions elkin_bw(int bandwidth)
{
    ElkinOptions opts;
    opts.bandwidth = bandwidth;
    return opts;
}

TEST(ElkinMst, SingleVertex)
{
    auto g = WeightedGraph::from_edges(1, {});
    auto r = run_elkin_mst(g, ElkinOptions{});
    EXPECT_TRUE(r.mst_edges.empty());
}

TEST(ElkinMst, SingleEdge)
{
    auto g = WeightedGraph::from_edges(2, {{0, 1, 42}});
    auto r = run_elkin_mst(g, ElkinOptions{});
    expect_exact_mst(g, r);
}

TEST(ElkinMst, Triangle)
{
    auto g = WeightedGraph::from_edges(3, {{0, 1, 5}, {1, 2, 3}, {0, 2, 9}});
    auto r = run_elkin_mst(g, ElkinOptions{});
    expect_exact_mst(g, r);
}

TEST(ElkinMst, EqualWeightsResolvedByEdgeKey)
{
    Rng rng(200);
    auto base = gen_erdos_renyi(24, 60, rng);
    std::vector<Edge> edges;
    for (const Edge& e : base.edges())
        edges.push_back({e.u, e.v, 5});
    auto g = WeightedGraph::from_edges(24, std::move(edges));
    auto r = run_elkin_mst(g, ElkinOptions{});
    expect_exact_mst(g, r);
}

TEST(ElkinMst, BadOptionsThrow)
{
    auto g = WeightedGraph::from_edges(2, {{0, 1, 1}});
    EXPECT_THROW(run_elkin_mst(g, elkin_bw(0)), std::invalid_argument);
    EXPECT_THROW(run_elkin_mst(g, elkin_root(7)), std::invalid_argument);
}

TEST(ElkinMst, RootChoiceDoesNotChangeTree)
{
    Rng rng(201);
    auto g = gen_erdos_renyi(40, 100, rng);
    auto a = run_elkin_mst(g, elkin_root(0));
    auto b = run_elkin_mst(g, elkin_root(17));
    EXPECT_EQ(a.mst_edges, b.mst_edges);
}

TEST(ElkinMst, Deterministic)
{
    Rng rng(202);
    auto g = gen_erdos_renyi(40, 120, rng);
    auto a = run_elkin_mst(g, ElkinOptions{});
    auto b = run_elkin_mst(g, ElkinOptions{});
    EXPECT_EQ(a.stats.rounds, b.stats.rounds);
    EXPECT_EQ(a.stats.messages, b.stats.messages);
    EXPECT_EQ(a.mst_edges, b.mst_edges);
}

TEST(ElkinMst, KChoiceFollowsPaper)
{
    // Low-diameter graph: k ~ sqrt(n). High-diameter: k ~ ecc.
    Rng rng(203);
    auto dense = gen_erdos_renyi(100, 1200, rng);
    auto r1 = run_elkin_mst(dense, ElkinOptions{});
    EXPECT_GE(r1.k_used, isqrt(100));
    EXPECT_LE(r1.k_used, isqrt(100) + r1.bfs_ecc);

    auto path = gen_path(100, rng);
    auto r2 = run_elkin_mst(path, ElkinOptions{});
    EXPECT_EQ(r2.k_used, r2.bfs_ecc);  // ecc = 99 > sqrt(100)
}

TEST(ElkinMst, KOverrideRespected)
{
    Rng rng(204);
    auto g = gen_erdos_renyi(60, 150, rng);
    auto r = run_elkin_mst(g, elkin_k(4));
    EXPECT_EQ(r.k_used, 4u);
    expect_exact_mst(g, r);
}

TEST(ElkinMst, BaseForestBoundsHold)
{
    Rng rng(205);
    auto g = gen_erdos_renyi(128, 400, rng);
    auto r = run_elkin_mst(g, elkin_k(8));
    EXPECT_LE(r.base_fragments, std::max<std::uint64_t>(1, 2 * 128 / 8));
    EXPECT_GE(r.base_fragments, 1u);
}

struct ElkinParam {
    const char* family;
    std::size_t n;
    int bandwidth;
    std::uint64_t seed;
};

class ElkinSweep : public ::testing::TestWithParam<ElkinParam> {
protected:
    WeightedGraph make() const
    {
        const auto& p = GetParam();
        Rng rng(p.seed);
        std::string family = p.family;
        if (family == "er")
            return gen_erdos_renyi(p.n, 3 * p.n, rng);
        if (family == "er_dense")
            return gen_erdos_renyi(p.n, p.n * (p.n - 1) / 4, rng);
        if (family == "grid")
            return gen_grid(p.n / 8, 8, rng);
        if (family == "path")
            return gen_path(p.n, rng);
        if (family == "cycle")
            return gen_cycle(p.n, rng);
        if (family == "star")
            return gen_star(p.n, rng);
        if (family == "complete")
            return gen_complete(p.n, rng);
        if (family == "tree")
            return gen_random_tree(p.n, rng);
        if (family == "lollipop")
            return gen_lollipop(p.n / 3, 2 * p.n / 3, rng);
        if (family == "cliques")
            return gen_cliques_path(p.n / 8, 8, rng);
        if (family == "regular")
            return gen_random_regular(p.n, 4, rng);
        throw std::invalid_argument("unknown family");
    }
};

TEST_P(ElkinSweep, ComputesExactMst)
{
    auto g = make();
    auto r = run_elkin_mst(g, elkin_bw(GetParam().bandwidth));
    expect_exact_mst(g, r);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ElkinSweep,
    ::testing::Values(
        ElkinParam{"er", 32, 1, 1}, ElkinParam{"er", 64, 1, 2},
        ElkinParam{"er", 128, 1, 3}, ElkinParam{"er", 256, 1, 4},
        ElkinParam{"er_dense", 48, 1, 5}, ElkinParam{"grid", 64, 1, 6},
        ElkinParam{"grid", 128, 1, 7}, ElkinParam{"path", 60, 1, 8},
        ElkinParam{"path", 150, 1, 9}, ElkinParam{"cycle", 80, 1, 10},
        ElkinParam{"star", 50, 1, 11}, ElkinParam{"complete", 24, 1, 12},
        ElkinParam{"tree", 100, 1, 13}, ElkinParam{"lollipop", 60, 1, 14},
        ElkinParam{"cliques", 96, 1, 15}, ElkinParam{"regular", 90, 1, 16},
        // CONGEST(b log n) variants.
        ElkinParam{"er", 128, 2, 17}, ElkinParam{"er", 128, 4, 18},
        ElkinParam{"er", 128, 8, 19}, ElkinParam{"grid", 128, 4, 20},
        ElkinParam{"path", 100, 4, 21}, ElkinParam{"cliques", 96, 8, 22}),
    [](const ::testing::TestParamInfo<ElkinParam>& info) {
        return std::string(info.param.family) + "_n" +
               std::to_string(info.param.n) + "_b" +
               std::to_string(info.param.bandwidth) + "_s" +
               std::to_string(info.param.seed);
    });

TEST(ElkinMst, RoundComplexityShape)
{
    // O((D + sqrt(n)) log n): ratio to the bound stays below a fixed
    // constant across sizes.
    for (std::size_t n : {64u, 144u, 256u}) {
        Rng rng(300 + n);
        auto g = gen_erdos_renyi(n, 4 * n, rng);
        auto r = run_elkin_mst(g, ElkinOptions{});
        double d = hop_diameter(g);
        double bound = (d + std::sqrt(static_cast<double>(n))) *
                       (std::log2(static_cast<double>(n)) + 1);
        double log_star_factor = log_star(n) + 6;
        EXPECT_LE(static_cast<double>(r.stats.rounds),
                  60.0 * bound * log_star_factor / (std::log2(n) + 1) + 50 * bound)
            << "n=" << n;
    }
}

TEST(ElkinMst, MessageComplexityShape)
{
    // O(m log n + n log n log* n) with our constants.
    for (std::size_t n : {64u, 256u}) {
        Rng rng(400 + n);
        auto g = gen_erdos_renyi(n, 4 * n, rng);
        auto r = run_elkin_mst(g, ElkinOptions{});
        double m = static_cast<double>(g.edge_count());
        double logn = std::log2(static_cast<double>(n)) + 1;
        double bound = (m + n * (log_star(n) + 6)) * logn;
        EXPECT_LE(static_cast<double>(r.stats.messages), 15.0 * bound) << n;
    }
}

TEST(ElkinMst, BandwidthReducesRounds)
{
    Rng rng(500);
    auto g = gen_erdos_renyi(256, 768, rng);
    auto r1 = run_elkin_mst(g, elkin_bw(1));
    auto r8 = run_elkin_mst(g, elkin_bw(8));
    expect_exact_mst(g, r1);
    expect_exact_mst(g, r8);
    EXPECT_LT(r8.stats.rounds, r1.stats.rounds);
}

}  // namespace
}  // namespace dmst
