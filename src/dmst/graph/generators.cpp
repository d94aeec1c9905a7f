#include "dmst/graph/generators.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "dmst/util/assert.h"

namespace dmst {

namespace {

constexpr Weight kMaxWeight = Weight{1} << 40;

Weight rand_weight(Rng& rng)
{
    return rng.next_in(1, kMaxWeight);
}

void require(bool cond, const char* msg)
{
    if (!cond)
        throw std::invalid_argument(msg);
}

VertexId vid(std::size_t v)
{
    return static_cast<VertexId>(v);
}

// Dedup key of the undirected edge {a, b}: the packed endpoint pair.
std::uint64_t pair_key(VertexId a, VertexId b)
{
    return (std::uint64_t{std::min(a, b)} << 32) | std::max(a, b);
}

}  // namespace

WeightedGraph gen_path(std::size_t n, Rng& rng)
{
    require(n >= 1, "gen_path: n must be >= 1");
    std::vector<Edge> edges;
    edges.reserve(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i)
        edges.push_back({vid(i), vid(i + 1), rand_weight(rng)});
    return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph gen_cycle(std::size_t n, Rng& rng)
{
    require(n >= 3, "gen_cycle: n must be >= 3");
    std::vector<Edge> edges;
    edges.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        edges.push_back({vid(i), vid((i + 1) % n), rand_weight(rng)});
    return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph gen_star(std::size_t n, Rng& rng)
{
    require(n >= 2, "gen_star: n must be >= 2");
    std::vector<Edge> edges;
    edges.reserve(n - 1);
    for (std::size_t i = 1; i < n; ++i)
        edges.push_back({0, vid(i), rand_weight(rng)});
    return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph gen_complete(std::size_t n, Rng& rng)
{
    require(n >= 2, "gen_complete: n must be >= 2");
    std::vector<Edge> edges;
    edges.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            edges.push_back({vid(i), vid(j), rand_weight(rng)});
    return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph gen_grid(std::size_t rows, std::size_t cols, Rng& rng)
{
    require(rows >= 1 && cols >= 1 && rows * cols >= 2, "gen_grid: too small");
    auto at = [cols](std::size_t r, std::size_t c) { return vid(r * cols + c); };
    std::vector<Edge> edges;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                edges.push_back({at(r, c), at(r, c + 1), rand_weight(rng)});
            if (r + 1 < rows)
                edges.push_back({at(r, c), at(r + 1, c), rand_weight(rng)});
        }
    }
    return WeightedGraph::from_edges(rows * cols, std::move(edges));
}

WeightedGraph gen_torus(std::size_t rows, std::size_t cols, Rng& rng)
{
    require(rows >= 3 && cols >= 3, "gen_torus: rows and cols must be >= 3");
    auto at = [cols](std::size_t r, std::size_t c) { return vid(r * cols + c); };
    std::vector<Edge> edges;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            edges.push_back({at(r, c), at(r, (c + 1) % cols), rand_weight(rng)});
            edges.push_back({at(r, c), at((r + 1) % rows, c), rand_weight(rng)});
        }
    }
    return WeightedGraph::from_edges(rows * cols, std::move(edges));
}

WeightedGraph gen_random_tree(std::size_t n, Rng& rng)
{
    require(n >= 1, "gen_random_tree: n must be >= 1");
    std::vector<Edge> edges;
    edges.reserve(n - 1);
    for (std::size_t i = 1; i < n; ++i) {
        VertexId parent = vid(rng.next_below(i));
        edges.push_back({parent, vid(i), rand_weight(rng)});
    }
    return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph gen_erdos_renyi(std::size_t n, std::size_t m, Rng& rng)
{
    require(n >= 2, "gen_erdos_renyi: n must be >= 2");
    require(m >= n - 1, "gen_erdos_renyi: m must be >= n-1 for connectivity");
    require(m <= n * (n - 1) / 2, "gen_erdos_renyi: m exceeds simple-graph maximum");

    std::unordered_set<std::uint64_t> used;
    used.reserve(m);
    std::vector<Edge> edges;
    edges.reserve(m);
    for (std::size_t i = 1; i < n; ++i) {
        VertexId parent = vid(rng.next_below(i));
        used.insert(pair_key(parent, vid(i)));
        edges.push_back({parent, vid(i), rand_weight(rng)});
    }
    while (edges.size() < m) {
        VertexId a = vid(rng.next_below(n));
        VertexId b = vid(rng.next_below(n));
        if (a == b)
            continue;
        if (!used.insert(pair_key(a, b)).second)
            continue;
        edges.push_back({a, b, rand_weight(rng)});
    }
    return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph gen_random_regular(std::size_t n, std::size_t d, Rng& rng)
{
    require(n >= 3, "gen_random_regular: n must be >= 3");
    require(d >= 2 && d % 2 == 0, "gen_random_regular: d must be even and >= 2");
    require(d < n, "gen_random_regular: d must be < n");

    std::unordered_set<std::uint64_t> used;
    used.reserve(n * d / 2);
    std::vector<Edge> edges;
    edges.reserve(n * d / 2);
    std::vector<VertexId> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = vid(i);

    for (std::size_t c = 0; c < d / 2; ++c) {
        // Random cycle over all vertices (Fisher-Yates shuffle of identity).
        for (std::size_t i = n - 1; i > 0; --i) {
            std::size_t j = rng.next_below(i + 1);
            std::swap(perm[i], perm[j]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            VertexId a = perm[i];
            VertexId b = perm[(i + 1) % n];
            if (!used.insert(pair_key(a, b)).second)
                continue;  // duplicate across cycles: skip (degree drops by 1)
            edges.push_back({a, b, rand_weight(rng)});
        }
    }
    return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph gen_lollipop(std::size_t clique_n, std::size_t path_n, Rng& rng)
{
    require(clique_n >= 2, "gen_lollipop: clique_n must be >= 2");
    require(path_n >= 1, "gen_lollipop: path_n must be >= 1");
    std::size_t n = clique_n + path_n;
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < clique_n; ++i)
        for (std::size_t j = i + 1; j < clique_n; ++j)
            edges.push_back({vid(i), vid(j), rand_weight(rng)});
    // Path hangs off clique vertex 0.
    VertexId prev = 0;
    for (std::size_t i = 0; i < path_n; ++i) {
        VertexId next = vid(clique_n + i);
        edges.push_back({prev, next, rand_weight(rng)});
        prev = next;
    }
    return WeightedGraph::from_edges(n, std::move(edges));
}

WeightedGraph gen_cliques_path(std::size_t cliques, std::size_t clique_n, Rng& rng)
{
    require(cliques >= 1, "gen_cliques_path: need at least one clique");
    require(clique_n >= 2, "gen_cliques_path: clique_n must be >= 2");
    std::size_t n = cliques * clique_n;
    std::vector<Edge> edges;
    for (std::size_t c = 0; c < cliques; ++c) {
        std::size_t base = c * clique_n;
        for (std::size_t i = 0; i < clique_n; ++i)
            for (std::size_t j = i + 1; j < clique_n; ++j)
                edges.push_back({vid(base + i), vid(base + j), rand_weight(rng)});
        if (c + 1 < cliques) {
            // Bridge from the last vertex of this clique to the first of the next.
            edges.push_back({vid(base + clique_n - 1), vid(base + clique_n),
                             rand_weight(rng)});
        }
    }
    return WeightedGraph::from_edges(n, std::move(edges));
}

}  // namespace dmst
