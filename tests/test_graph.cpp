#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "dmst/congest/network_base.h"
#include "dmst/exp/workloads.h"
#include "dmst/graph/graph.h"
#include "dmst/graph/metrics.h"
#include "dmst/sim/engine.h"
#include "dmst/util/assert.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

WeightedGraph triangle()
{
    return WeightedGraph::from_edges(3, {{0, 1, 5}, {1, 2, 3}, {0, 2, 9}});
}

TEST(Graph, BasicCounts)
{
    auto g = triangle();
    EXPECT_EQ(g.vertex_count(), 3u);
    EXPECT_EQ(g.edge_count(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 2u);
    EXPECT_EQ(g.degree(2), 2u);
}

TEST(Graph, AdjacencyMatchesEdges)
{
    auto g = triangle();
    for (VertexId v = 0; v < 3; ++v) {
        for (std::size_t p = 0; p < g.degree(v); ++p) {
            VertexId u = g.neighbor(v, p);
            const Edge& e = g.edge(g.edge_id(v, p));
            EXPECT_TRUE((e.u == v && e.v == u) || (e.u == u && e.v == v));
            EXPECT_EQ(g.weight(v, p), e.w);
        }
    }
}

TEST(Graph, PortOfRoundTrips)
{
    auto g = triangle();
    for (VertexId v = 0; v < 3; ++v) {
        for (std::size_t p = 0; p < g.degree(v); ++p) {
            VertexId u = g.neighbor(v, p);
            EXPECT_EQ(g.port_of(v, u), p);
        }
    }
    EXPECT_THROW(g.port_of(0, 0), std::invalid_argument);
}

// The half-edge index space every per-(vertex, port) table of the
// simulator is laid out on: rows partition [0, 2m) in CSR order, each
// half-edge's reverse port leads back to it, both halves name the same
// edge and weight, and the engines' reverse_port is the graph's.
TEST(Graph, HalfEdgeLayoutOnEveryWorkloadFamily)
{
    for (const std::string& family : workload_families()) {
        SCOPED_TRACE(family);
        const WeightedGraph g = make_workload(family, 64, 3);
        NetConfig serial;
        NetConfig async;
        async.engine = Engine::Async;
        const auto net_serial = make_network(g, serial);
        const auto net_async = make_network(g, async);
        std::size_t next = 0;
        for (VertexId v = 0; v < g.vertex_count(); ++v) {
            ASSERT_EQ(g.adj_begin(v), next);
            for (std::size_t p = 0; p < g.degree(v); ++p) {
                ASSERT_EQ(g.adj_index(v, p), next++);
                const VertexId u = g.neighbor(v, p);
                const std::size_t q = g.reverse_port(v, p);
                ASSERT_LT(q, g.degree(u));
                EXPECT_EQ(g.neighbor(u, q), v);
                EXPECT_EQ(g.reverse_port(u, q), p);
                EXPECT_EQ(g.edge_id(u, q), g.edge_id(v, p));
                EXPECT_EQ(g.weight(u, q), g.weight(v, p));
                const Edge& e = g.edge(g.edge_id(v, p));
                EXPECT_EQ(e.w, g.weight(v, p));
                EXPECT_EQ(std::min(u, v), e.u);
                EXPECT_EQ(std::max(u, v), e.v);
                EXPECT_EQ(net_serial->reverse_port(v, p), q);
                EXPECT_EQ(net_async->reverse_port(v, p), q);
            }
            // The inline lookups keep their range checks.
            EXPECT_THROW(g.neighbor(v, g.degree(v)), InvariantViolation);
            EXPECT_THROW(g.adj_index(v, g.degree(v)), InvariantViolation);
        }
        EXPECT_EQ(next, 2 * g.edge_count());
        const auto n = static_cast<VertexId>(g.vertex_count());
        EXPECT_THROW(g.degree(n), InvariantViolation);
        EXPECT_THROW(g.adj_begin(n), InvariantViolation);
        EXPECT_THROW(g.edge(static_cast<EdgeId>(g.edge_count())),
                     InvariantViolation);
    }
}

TEST(Graph, CanonicalizesEndpointOrder)
{
    auto g = WeightedGraph::from_edges(2, {{1, 0, 7}});
    EXPECT_EQ(g.edge(0).u, 0u);
    EXPECT_EQ(g.edge(0).v, 1u);
    EXPECT_EQ(g.edge(0).w, 7u);
}

TEST(Graph, RejectsSelfLoop)
{
    EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 0, 1}}), std::invalid_argument);
}

TEST(Graph, RejectsParallelEdges)
{
    EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 1, 1}, {1, 0, 2}}),
                 std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoint)
{
    EXPECT_THROW(WeightedGraph::from_edges(2, {{0, 2, 1}}), std::invalid_argument);
}

TEST(Graph, RejectsEmptyVertexSet)
{
    EXPECT_THROW(WeightedGraph::from_edges(0, {}), std::invalid_argument);
}

TEST(Graph, SingleVertexNoEdges)
{
    auto g = WeightedGraph::from_edges(1, {});
    EXPECT_EQ(g.vertex_count(), 1u);
    EXPECT_EQ(g.edge_count(), 0u);
    EXPECT_EQ(g.degree(0), 0u);
}

TEST(EdgeKeyOrder, TotalOrderBreaksWeightTies)
{
    Edge a{0, 1, 5};
    Edge b{0, 2, 5};
    Edge c{1, 2, 5};
    EXPECT_LT(edge_key(a), edge_key(b));
    EXPECT_LT(edge_key(b), edge_key(c));
    EXPECT_LT(edge_key(a), edge_key(c));
    EXPECT_EQ(edge_key(a), edge_key(a));
}

TEST(EdgeKeyOrder, WeightDominates)
{
    Edge light{5, 6, 1};
    Edge heavy{0, 1, 2};
    EXPECT_LT(edge_key(light), edge_key(heavy));
}

TEST(EdgeKeyOrder, SymmetricInEndpointOrder)
{
    Edge ab{0, 1, 5};
    Edge ba{1, 0, 5};
    EXPECT_EQ(edge_key(ab), edge_key(ba));
}

TEST(EdgeKeyOrder, InfiniteKeyDominatesAll)
{
    Edge e{0, 1, ~Weight{0} - 1};
    EXPECT_LT(edge_key(e), kInfiniteEdgeKey);
}

// --------------------------------------------------------------- metrics

TEST(Metrics, BfsDistancesOnPath)
{
    auto g = WeightedGraph::from_edges(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}});
    auto d = bfs_distances(g, 0);
    EXPECT_EQ(d, (std::vector<std::uint32_t>{0, 1, 2, 3}));
    auto d2 = bfs_distances(g, 2);
    EXPECT_EQ(d2, (std::vector<std::uint32_t>{2, 1, 0, 1}));
}

TEST(Metrics, EccentricityAndDiameter)
{
    auto g = WeightedGraph::from_edges(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}});
    EXPECT_EQ(eccentricity(g, 0), 3u);
    EXPECT_EQ(eccentricity(g, 1), 2u);
    EXPECT_EQ(hop_diameter(g), 3u);
    EXPECT_EQ(hop_diameter_estimate(g, 1), 3u);
}

TEST(Metrics, DisconnectedDetected)
{
    auto g = WeightedGraph::from_edges(4, {{0, 1, 1}, {2, 3, 1}});
    EXPECT_FALSE(is_connected(g));
    EXPECT_THROW(eccentricity(g, 0), std::invalid_argument);
    auto d = bfs_distances(g, 0);
    EXPECT_EQ(d[2], kUnreachable);
}

TEST(Metrics, ConnectedTriangle)
{
    EXPECT_TRUE(is_connected(triangle()));
    EXPECT_EQ(hop_diameter(triangle()), 1u);
}

}  // namespace
}  // namespace dmst
