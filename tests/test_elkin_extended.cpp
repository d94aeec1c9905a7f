#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "dmst/core/elkin_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/graph/generators.h"
#include "dmst/seq/mst.h"
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


// ------------------------------------------------- per-vertex output view

TEST(ElkinOutput, PerVertexPortsMatchGlobalTree)
{
    Rng rng(900);
    auto g = gen_erdos_renyi(60, 180, rng);
    auto r = run_elkin_mst(g, ElkinOptions{});
    auto mst = mst_kruskal(g);

    // Reconstruct per-vertex expectations from the reference MST.
    std::vector<std::set<std::size_t>> expect(g.vertex_count());
    for (EdgeId e : mst.edges) {
        const Edge& edge = g.edge(e);
        expect[edge.u].insert(g.port_of(edge.u, edge.v));
        expect[edge.v].insert(g.port_of(edge.v, edge.u));
    }
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
        std::set<std::size_t> got(r.mst_ports[v].begin(), r.mst_ports[v].end());
        EXPECT_EQ(got, expect[v]) << "vertex " << v;
    }
}

TEST(ElkinOutput, StatsAreConsistent)
{
    Rng rng(901);
    auto g = gen_erdos_renyi(80, 240, rng);
    auto r = run_elkin_mst(g, ElkinOptions{});
    // Words include tags, so words >= messages; the per-round trace sums to
    // the total; phase-2 accounting is a subset of the whole run.
    EXPECT_GE(r.stats.words, r.stats.messages);
    std::uint64_t sum = 0;
    for (auto c : r.stats.messages_per_round)
        sum += c;
    EXPECT_EQ(sum, r.stats.messages);
    EXPECT_LE(r.phase2_messages, r.stats.messages);
    EXPECT_LE(r.phase2_rounds, r.stats.rounds);
    EXPECT_GE(r.bfs_rounds, 1u);
    EXPECT_GE(r.ghs_rounds, 1u);
}

// ------------------------------------------------------------ root sweep

class ElkinRootSweep : public ::testing::TestWithParam<VertexId> {};

TEST_P(ElkinRootSweep, AnyRootYieldsTheUniqueMst)
{
    Rng rng(902);
    auto g = gen_erdos_renyi(50, 140, rng);
    auto mst = mst_kruskal(g);
    auto r = run_elkin_mst(g, elkin_root(GetParam()));
    EXPECT_EQ(r.mst_edges, mst.edges);
}

INSTANTIATE_TEST_SUITE_P(Roots, ElkinRootSweep,
                         ::testing::Values(0, 1, 7, 23, 49));

// -------------------------------------------------------- k_override sweep

class ElkinKSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElkinKSweep, AnyBaseForestParameterWorks)
{
    Rng rng(903);
    auto g = gen_erdos_renyi(64, 192, rng);
    auto mst = mst_kruskal(g);
    auto r = run_elkin_mst(g, elkin_k(GetParam()));
    EXPECT_EQ(r.mst_edges, mst.edges);
    EXPECT_EQ(r.k_used, GetParam());
}

// k=1 (singleton base forest: pure Boruvka over tau), tiny k, sqrt-n-ish,
// k close to n, and k beyond n.
INSTANTIATE_TEST_SUITE_P(Ks, ElkinKSweep,
                         ::testing::Values(1, 2, 3, 8, 60, 64, 200));

TEST(ElkinKExtremes, SingletonBaseForestCountsAllFragments)
{
    Rng rng(904);
    auto g = gen_erdos_renyi(40, 100, rng);
    auto r = run_elkin_mst(g, elkin_k(1));
    EXPECT_EQ(r.base_fragments, 40u);  // no GHS phases: all singletons
    EXPECT_GE(r.boruvka_phases, 1);
}

TEST(ElkinKExtremes, HugeKCollapsesToOneFragment)
{
    Rng rng(905);
    auto g = gen_erdos_renyi(40, 100, rng);
    auto r = run_elkin_mst(g, elkin_k(512));
    EXPECT_EQ(r.base_fragments, 1u);
    // A single base fragment needs no Boruvka phase at all.
    EXPECT_EQ(r.boruvka_phases, 0);
}

// ------------------------------------------------ broadcast-downcast ablation

class ElkinFloodSweep : public ::testing::TestWithParam<int> {};

TEST_P(ElkinFloodSweep, BroadcastVariantIsCorrectEverywhere)
{
    Rng rng(910 + static_cast<std::uint64_t>(GetParam()));
    WeightedGraph g = [&]() -> WeightedGraph {
        switch (GetParam() % 4) {
        case 0: return gen_erdos_renyi(64, 200, rng);
        case 1: return gen_grid(8, 10, rng);
        case 2: return gen_cliques_path(8, 6, rng);
        default: return gen_path(50, rng);
        }
    }();
    auto mst = mst_kruskal(g);
    ElkinOptions broadcast = elkin_k(8);
    broadcast.broadcast_downcast = true;
    auto flooded = run_elkin_mst(g, broadcast);
    auto routed = run_elkin_mst(g, elkin_k(8));
    EXPECT_EQ(flooded.mst_edges, mst.edges);
    EXPECT_EQ(routed.mst_edges, mst.edges);
    // Flooding can only cost more messages.
    EXPECT_GE(flooded.stats.messages, routed.stats.messages);
}

INSTANTIATE_TEST_SUITE_P(Graphs, ElkinFloodSweep, ::testing::Range(0, 8));

// ----------------------------------------------------- high bandwidth runs

TEST(ElkinBandwidth, VeryHighBandwidthStillExact)
{
    Rng rng(920);
    auto g = gen_erdos_renyi(128, 512, rng);
    auto mst = mst_kruskal(g);
    for (int b : {16, 32, 64}) {
        ElkinOptions opts;
        opts.bandwidth = b;
        auto r = run_elkin_mst(g, opts);
        EXPECT_EQ(r.mst_edges, mst.edges) << "b=" << b;
    }
}

TEST(ElkinBandwidth, RoundsMonotoneNonIncreasingInB)
{
    Rng rng(921);
    auto g = gen_erdos_renyi(256, 768, rng);
    std::uint64_t prev = ~std::uint64_t{0};
    for (int b : {1, 4, 16}) {
        ElkinOptions opts;
        opts.bandwidth = b;
        auto r = run_elkin_mst(g, opts);
        EXPECT_LE(r.stats.rounds, prev + prev / 10)  // allow 10% jitter
            << "b=" << b;
        prev = r.stats.rounds;
    }
}

// ------------------------------------------------------- workload sweep

TEST(ElkinScale, MidScaleExactAndWithinBounds)
{
    // One larger instance (n = 2048) as a scale sanity check: exactness
    // plus the Theorem 3.1 shape with a generous constant.
    Rng rng(930);
    auto g = gen_erdos_renyi(2048, 6144, rng);
    auto r = run_elkin_mst(g, ElkinOptions{});
    auto mst = mst_kruskal(g);
    EXPECT_EQ(r.mst_edges, mst.edges);
    double bound = (static_cast<double>(r.bfs_ecc) + std::sqrt(2048.0)) * 12;
    EXPECT_LE(static_cast<double>(r.stats.rounds), 40.0 * bound);
}

class ElkinWorkloadSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ElkinWorkloadSweep, EveryNamedWorkloadIsExact)
{
    auto g = make_workload(GetParam(), 96, 42);
    auto mst = mst_kruskal(g);
    auto r = run_elkin_mst(g, ElkinOptions{});
    EXPECT_EQ(r.mst_edges, mst.edges);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ElkinWorkloadSweep,
    ::testing::ValuesIn(workload_families()),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

}  // namespace
}  // namespace dmst
