#ifndef DMST_GRAPH_GRAPH_H
#define DMST_GRAPH_GRAPH_H

#include <cstdint>
#include <tuple>
#include <vector>

#include "dmst/util/assert.h"

namespace dmst {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;
using Weight = std::uint64_t;

constexpr VertexId kNoVertex = ~VertexId{0};
constexpr EdgeId kNoEdge = ~EdgeId{0};

// An undirected weighted edge. Stored canonically with u < v.
struct Edge {
    VertexId u = 0;
    VertexId v = 0;
    Weight w = 0;
};

// The unique total order on edges used by every algorithm in this library
// (sequential and distributed): lexicographic on (weight, endpoints). This
// realizes the paper's "the MST is unique" assumption ([Pel00] Ch. 5): with
// all comparisons made through EdgeKey, minimum spanning trees are unique
// even when raw weights collide.
struct EdgeKey {
    Weight w = 0;
    VertexId a = 0;  // min endpoint
    VertexId b = 0;  // max endpoint

    friend bool operator<(const EdgeKey& x, const EdgeKey& y)
    {
        return std::tie(x.w, x.a, x.b) < std::tie(y.w, y.a, y.b);
    }
    friend bool operator==(const EdgeKey& x, const EdgeKey& y)
    {
        return std::tie(x.w, x.a, x.b) == std::tie(y.w, y.a, y.b);
    }
    friend bool operator>(const EdgeKey& x, const EdgeKey& y) { return y < x; }
    friend bool operator<=(const EdgeKey& x, const EdgeKey& y) { return !(y < x); }
    friend bool operator>=(const EdgeKey& x, const EdgeKey& y) { return !(x < y); }
    friend bool operator!=(const EdgeKey& x, const EdgeKey& y) { return !(x == y); }
};

EdgeKey edge_key(const Edge& e);

// Key value strictly greater than every real edge key; used as "no edge".
constexpr EdgeKey kInfiniteEdgeKey{~Weight{0}, ~VertexId{0}, ~VertexId{0}};

// Key value strictly less than every real edge key (a real edge has a < b,
// so {0, 0, 0} is never one); the identity of running EdgeKey maxima.
constexpr EdgeKey kMinEdgeKey{0, 0, 0};

// Immutable undirected weighted graph in CSR form. Vertices are 0..n-1.
// Each vertex addresses its incident edges through ports 0..degree-1; the
// CONGEST simulator exposes exactly this port interface to processes.
//
// Half-edges: adj_index(v, port) = offsets_[v] + port numbers the (v, port)
// pairs, v's row being [adj_begin(v), adj_begin(v) + degree(v)); the rows
// partition [0, 2m) in vertex order. The simulator lays every per-port
// table out as one flat array over this index. A half-edge is one 12-byte
// record (neighbor, reverse port, edge id); weights stay in the edge list.
class WeightedGraph {
public:
    // Validates and builds: endpoints in range, no self-loops, no parallel
    // edges. Throws std::invalid_argument on violation.
    static WeightedGraph from_edges(std::size_t n, std::vector<Edge> edges);

    std::size_t vertex_count() const { return offsets_.size() - 1; }
    std::size_t edge_count() const { return edges_.size(); }

    std::size_t degree(VertexId v) const
    {
        DMST_ASSERT(v < vertex_count());
        return offsets_[v + 1] - offsets_[v];
    }

    // First half-edge index of v's row.
    std::size_t adj_begin(VertexId v) const
    {
        DMST_ASSERT(v < vertex_count());
        return offsets_[v];
    }

    // Half-edge index of (v, port), in [0, 2m).
    std::size_t adj_index(VertexId v, std::size_t port) const
    {
        DMST_ASSERT(v < vertex_count());
        const std::size_t i = offsets_[v] + port;
        DMST_ASSERT_MSG(i < offsets_[v + 1], "port out of range");
        return i;
    }

    VertexId neighbor(VertexId v, std::size_t port) const
    {
        return adj_[adj_index(v, port)].neighbor;
    }
    // Port at which neighbor(v, port) sees the edge back to v.
    std::size_t reverse_port(VertexId v, std::size_t port) const
    {
        return adj_[adj_index(v, port)].reverse_port;
    }
    Weight weight(VertexId v, std::size_t port) const
    {
        return edges_[adj_[adj_index(v, port)].edge].w;
    }
    EdgeId edge_id(VertexId v, std::size_t port) const
    {
        return adj_[adj_index(v, port)].edge;
    }

    const Edge& edge(EdgeId e) const
    {
        DMST_ASSERT(e < edges_.size());
        return edges_[e];
    }
    const std::vector<Edge>& edges() const { return edges_; }

    // Port of v whose other endpoint is u, or throws if not adjacent.
    // Linear in degree(v); intended for tests and result extraction.
    std::size_t port_of(VertexId v, VertexId u) const;

private:
    struct HalfEdge {
        VertexId neighbor;
        std::uint32_t reverse_port;
        EdgeId edge;
    };
    static_assert(sizeof(HalfEdge) == 12, "one 12-byte record per half-edge");

    WeightedGraph() = default;

    std::vector<Edge> edges_;           // canonical (u < v), sorted by (u, v)
    std::vector<std::size_t> offsets_;  // CSR offsets, size n+1
    std::vector<HalfEdge> adj_;         // CSR half-edges, size 2m
};

}  // namespace dmst

#endif  // DMST_GRAPH_GRAPH_H
