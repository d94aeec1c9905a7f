#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "dmst/exp/workloads.h"
#include "dmst/graph/generators.h"
#include "dmst/graph/metrics.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

TEST(Generators, PathShape)
{
    Rng rng(1);
    auto g = gen_path(10, rng);
    EXPECT_EQ(g.vertex_count(), 10u);
    EXPECT_EQ(g.edge_count(), 9u);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(hop_diameter(g), 9u);
}

TEST(Generators, CycleShape)
{
    Rng rng(2);
    auto g = gen_cycle(10, rng);
    EXPECT_EQ(g.edge_count(), 10u);
    EXPECT_EQ(hop_diameter(g), 5u);
    for (VertexId v = 0; v < 10; ++v)
        EXPECT_EQ(g.degree(v), 2u);
}

TEST(Generators, StarShape)
{
    Rng rng(3);
    auto g = gen_star(8, rng);
    EXPECT_EQ(g.edge_count(), 7u);
    EXPECT_EQ(g.degree(0), 7u);
    EXPECT_EQ(hop_diameter(g), 2u);
}

TEST(Generators, CompleteShape)
{
    Rng rng(4);
    auto g = gen_complete(7, rng);
    EXPECT_EQ(g.edge_count(), 21u);
    EXPECT_EQ(hop_diameter(g), 1u);
}

TEST(Generators, GridShape)
{
    Rng rng(5);
    auto g = gen_grid(4, 6, rng);
    EXPECT_EQ(g.vertex_count(), 24u);
    EXPECT_EQ(g.edge_count(), 4u * 5 + 3u * 6);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(hop_diameter(g), 4u + 6 - 2);
}

TEST(Generators, TorusShape)
{
    Rng rng(6);
    auto g = gen_torus(4, 5, rng);
    EXPECT_EQ(g.vertex_count(), 20u);
    EXPECT_EQ(g.edge_count(), 40u);
    for (VertexId v = 0; v < 20; ++v)
        EXPECT_EQ(g.degree(v), 4u);
    EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomTreeIsTree)
{
    Rng rng(7);
    auto g = gen_random_tree(50, rng);
    EXPECT_EQ(g.edge_count(), 49u);
    EXPECT_TRUE(is_connected(g));
}

TEST(Generators, ErdosRenyiCountsAndConnectivity)
{
    Rng rng(8);
    auto g = gen_erdos_renyi(40, 100, rng);
    EXPECT_EQ(g.vertex_count(), 40u);
    EXPECT_EQ(g.edge_count(), 100u);
    EXPECT_TRUE(is_connected(g));
}

TEST(Generators, ErdosRenyiRejectsBadCounts)
{
    Rng rng(9);
    EXPECT_THROW(gen_erdos_renyi(10, 8, rng), std::invalid_argument);
    EXPECT_THROW(gen_erdos_renyi(10, 46, rng), std::invalid_argument);
}

TEST(Generators, ErdosRenyiDeterministic)
{
    Rng a(11);
    Rng b(11);
    auto g1 = gen_erdos_renyi(30, 60, a);
    auto g2 = gen_erdos_renyi(30, 60, b);
    ASSERT_EQ(g1.edge_count(), g2.edge_count());
    for (EdgeId e = 0; e < g1.edge_count(); ++e) {
        EXPECT_EQ(g1.edge(e).u, g2.edge(e).u);
        EXPECT_EQ(g1.edge(e).v, g2.edge(e).v);
        EXPECT_EQ(g1.edge(e).w, g2.edge(e).w);
    }
}

TEST(Generators, RandomRegularDegreesBounded)
{
    Rng rng(12);
    auto g = gen_random_regular(60, 6, rng);
    EXPECT_TRUE(is_connected(g));
    for (VertexId v = 0; v < 60; ++v) {
        EXPECT_GE(g.degree(v), 2u);
        EXPECT_LE(g.degree(v), 6u);
    }
}

TEST(Generators, RandomRegularRejectsOddDegree)
{
    Rng rng(13);
    EXPECT_THROW(gen_random_regular(10, 3, rng), std::invalid_argument);
}

TEST(Generators, LollipopShape)
{
    Rng rng(14);
    auto g = gen_lollipop(10, 20, rng);
    EXPECT_EQ(g.vertex_count(), 30u);
    EXPECT_EQ(g.edge_count(), 45u + 20);
    EXPECT_TRUE(is_connected(g));
    EXPECT_GE(hop_diameter(g), 20u);
}

TEST(Generators, CliquesPathShapeAndDiameter)
{
    Rng rng(15);
    auto g = gen_cliques_path(5, 4, rng);
    EXPECT_EQ(g.vertex_count(), 20u);
    EXPECT_EQ(g.edge_count(), 5u * 6 + 4);
    EXPECT_TRUE(is_connected(g));
    // Diameter grows linearly with the number of cliques.
    EXPECT_GE(hop_diameter(g), 2u * 5 - 2);
}

TEST(Generators, WeightsInDeclaredRange)
{
    Rng rng(16);
    auto g = gen_erdos_renyi(20, 50, rng);
    for (const Edge& e : g.edges()) {
        EXPECT_GE(e.w, 1u);
        EXPECT_LE(e.w, Weight{1} << 40);
    }
}

// FNV-1a over the canonical edge list (endpoints and weights, in EdgeId
// order): any change to the generators' accept/reject sequence or to the
// weight draws moves it.
std::uint64_t edge_list_digest(const WeightedGraph& g)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(g.vertex_count());
    mix(g.edge_count());
    for (const Edge& e : g.edges()) {
        mix(e.u);
        mix(e.v);
        mix(e.w);
    }
    return h;
}

// Pinned edge-list digests of the deduplicating random families at fixed
// seeds: the generators must stay bit-identical across refactors of their
// dedup structure.
TEST(Generators, PinnedEdgeListDigests)
{
    struct Pin {
        const char* family;
        std::size_t n;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"er", 1000, 1, 18285326235602003816ULL},
        {"er", 4096, 7, 13485031027022586487ULL},
        {"regular4", 1000, 1, 17485786254766388946ULL},
        {"regular4", 4096, 7, 639618315887562785ULL},
    };
    for (const Pin& p : pins) {
        const WeightedGraph g = make_workload(p.family, p.n, p.seed);
        EXPECT_EQ(edge_list_digest(g), p.digest)
            << p.family << " n=" << p.n << " seed=" << p.seed;
    }
}

}  // namespace
}  // namespace dmst
