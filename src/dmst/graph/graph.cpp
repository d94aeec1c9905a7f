#include "dmst/graph/graph.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dmst {

EdgeKey edge_key(const Edge& e)
{
    return EdgeKey{e.w, std::min(e.u, e.v), std::max(e.u, e.v)};
}

WeightedGraph WeightedGraph::from_edges(std::size_t n, std::vector<Edge> edges)
{
    if (n == 0)
        throw std::invalid_argument("graph must have at least one vertex");
    for (auto& e : edges) {
        if (e.u >= n || e.v >= n)
            throw std::invalid_argument("edge endpoint out of range");
        if (e.u == e.v)
            throw std::invalid_argument("self-loops are not allowed");
        if (e.u > e.v)
            std::swap(e.u, e.v);
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
        return std::pair{x.u, x.v} < std::pair{y.u, y.v};
    });
    for (std::size_t i = 1; i < edges.size(); ++i) {
        if (edges[i - 1].u == edges[i].u && edges[i - 1].v == edges[i].v)
            throw std::invalid_argument("parallel edges are not allowed");
    }

    WeightedGraph g;
    g.edges_ = std::move(edges);
    g.offsets_.assign(n + 1, 0);
    for (const Edge& e : g.edges_) {
        ++g.offsets_[e.u + 1];
        ++g.offsets_[e.v + 1];
    }
    for (std::size_t v = 0; v < n; ++v)
        g.offsets_[v + 1] += g.offsets_[v];

    // Edges are visited in id order, so each endpoint's ports are handed
    // out in that order too; both halves learn each other's port here.
    g.adj_.resize(2 * g.edges_.size());
    std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (std::size_t i = 0; i < g.edges_.size(); ++i) {
        const Edge& e = g.edges_[i];
        const std::size_t at_u = cursor[e.u]++;
        const std::size_t at_v = cursor[e.v]++;
        const auto id = static_cast<EdgeId>(i);
        g.adj_[at_u] = HalfEdge{
            e.v, static_cast<std::uint32_t>(at_v - g.offsets_[e.v]), id};
        g.adj_[at_v] = HalfEdge{
            e.u, static_cast<std::uint32_t>(at_u - g.offsets_[e.u]), id};
    }
    return g;
}

std::size_t WeightedGraph::port_of(VertexId v, VertexId u) const
{
    for (std::size_t p = 0; p < degree(v); ++p) {
        if (neighbor(v, p) == u)
            return p;
    }
    throw std::invalid_argument("vertices " + std::to_string(v) + " and " +
                                std::to_string(u) + " are not adjacent");
}

}  // namespace dmst
