// Randomized small-instance fuzzing: every algorithm must produce the
// unique MST on arbitrary tiny connected graphs. Small instances surface
// protocol corner cases (single-child chains, bridges, simultaneous
// reciprocal merges, fragments with one outgoing edge) far more densely
// than large structured families.

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/forest_stats.h"
#include "dmst/graph/generators.h"
#include "dmst/graph/metrics.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/scenario.h"
#include "dmst/util/intmath.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// A random connected graph on n in [2, 20] vertices with random extra
// edges and heavily colliding weights (weights in [1, 4] force constant
// EdgeKey tie-breaking).
WeightedGraph tiny_graph(Rng& rng)
{
    std::size_t n = 2 + rng.next_below(19);
    std::set<std::pair<VertexId, VertexId>> used;
    std::vector<Edge> edges;
    for (std::size_t i = 1; i < n; ++i) {
        VertexId parent = static_cast<VertexId>(rng.next_below(i));
        used.insert({parent, static_cast<VertexId>(i)});
        edges.push_back({parent, static_cast<VertexId>(i),
                         1 + rng.next_below(4)});
    }
    std::size_t extra = rng.next_below(n);
    for (std::size_t i = 0; i < extra; ++i) {
        VertexId a = static_cast<VertexId>(rng.next_below(n));
        VertexId b = static_cast<VertexId>(rng.next_below(n));
        if (a == b)
            continue;
        auto key = std::pair{std::min(a, b), std::max(a, b)};
        if (!used.insert(key).second)
            continue;
        edges.push_back({a, b, 1 + rng.next_below(4)});
    }
    return WeightedGraph::from_edges(n, std::move(edges));
}

class SmallFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmallFuzz, MstBuildersMatchKruskalOnTinyGraphs)
{
    const std::pair<const char*, std::uint64_t> drivers[] = {
        {"elkin", 10000}, {"pipeline", 20000}, {"boruvka", 30000}};
    for (const auto& [algo, seed_base] : drivers) {
        Rng rng(seed_base + GetParam());
        for (int i = 0; i < 25; ++i) {
            auto g = tiny_graph(rng);
            auto mst = mst_kruskal(g);
            ASSERT_EQ(run_algorithm(algo, g, NetConfig{}).edges, mst.edges)
                << algo << " instance " << i << " n=" << g.vertex_count();
        }
    }
}

TEST_P(SmallFuzz, ControlledGhsInvariantsOnTinyGraphsRandomK)
{
    Rng rng(40000 + GetParam());
    for (int i = 0; i < 25; ++i) {
        auto g = tiny_graph(rng);
        std::uint64_t k = 1 + rng.next_below(g.vertex_count() + 4);
        GhsOptions opts;
        opts.k = k;
        auto r = run_controlled_ghs(g, opts);
        auto s = analyze_forest(g, r.parent_port, r.fragment_id);

        // Every fragment-tree edge is an edge of the unique MST.
        auto mst = mst_kruskal(g);
        std::set<EdgeId> mst_set(mst.edges.begin(), mst.edges.end());
        for (VertexId v = 0; v < g.vertex_count(); ++v)
            for (std::size_t port : r.mst_ports[v])
                ASSERT_TRUE(mst_set.count(g.edge_id(v, port)))
                    << "instance " << i << " k=" << k;

        if (k >= 2) {
            ASSERT_LE(s.max_height,
                      3 * (std::uint64_t{1} << ceil_log2(k)) + 4)
                << "instance " << i << " k=" << k;
        }
    }
}

TEST_P(SmallFuzz, ElkinRandomRootsAndBandwidths)
{
    Rng rng(50000 + GetParam());
    for (int i = 0; i < 15; ++i) {
        auto g = tiny_graph(rng);
        auto mst = mst_kruskal(g);
        ElkinOptions opts;
        opts.root = static_cast<VertexId>(rng.next_below(g.vertex_count()));
        opts.bandwidth = 1 << rng.next_below(4);
        auto r = run_elkin_mst(g, opts);
        ASSERT_EQ(r.mst_edges, mst.edges)
            << "instance " << i << " root=" << opts.root
            << " b=" << opts.bandwidth;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallFuzz, ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace dmst
