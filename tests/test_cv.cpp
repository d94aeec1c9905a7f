#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "dmst/congest/conditioner.h"
#include "dmst/graph/generators.h"
#include "dmst/graph/metrics.h"
#include "dmst/proto/bfs.h"
#include "dmst/proto/cv.h"
#include "dmst/sim/engine.h"
#include "dmst/util/assert.h"
#include "dmst/util/intmath.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

std::vector<std::size_t> random_forest(std::size_t n, std::size_t roots, Rng& rng)
{
    std::vector<std::size_t> parent(n);
    for (std::size_t v = 0; v < n; ++v)
        parent[v] = v < roots ? v : rng.next_below(v);  // attach to earlier vertex
    return parent;
}

void expect_proper_three_coloring(const std::vector<std::size_t>& parent,
                                  const std::vector<std::uint64_t>& colors)
{
    for (std::size_t v = 0; v < parent.size(); ++v) {
        EXPECT_LE(colors[v], 2u) << "vertex " << v;
        if (parent[v] != v) {
            EXPECT_NE(colors[v], colors[parent[v]]) << "edge " << v;
        }
    }
}

TEST(CvStep, AdjacentColorsStayDistinct)
{
    Rng rng(80);
    for (int trial = 0; trial < 200; ++trial) {
        std::uint64_t a = rng.next();
        std::uint64_t b = rng.next();
        if (a == b)
            continue;
        // b plays parent for a; b's own step uses some grandparent g != b.
        std::uint64_t g = rng.next();
        if (g == b)
            continue;
        EXPECT_NE(cv_step(a, b), cv_step(b, g));
    }
}

TEST(CvStep, RootVariantDiffersFromChildren)
{
    Rng rng(81);
    for (int trial = 0; trial < 200; ++trial) {
        std::uint64_t root = rng.next();
        std::uint64_t child = rng.next();
        if (root == child)
            continue;
        EXPECT_NE(cv_step_root(root), cv_step(child, root));
    }
}

TEST(CvStep, ShrinksColorSpace)
{
    // From 64-bit colors, one step lands below 128, two below 14, etc.
    Rng rng(82);
    for (int trial = 0; trial < 100; ++trial) {
        std::uint64_t a = rng.next();
        std::uint64_t b = rng.next();
        if (a == b)
            continue;
        EXPECT_LT(cv_step(a, b), 128u);
    }
}

TEST(CvRecolor, PicksSmallestFreeColor)
{
    EXPECT_EQ(cv_recolor(0, 1, true), 2u);
    EXPECT_EQ(cv_recolor(1, 0, true), 2u);
    EXPECT_EQ(cv_recolor(2, 1, true), 0u);
    EXPECT_EQ(cv_recolor(0, 0, true), 1u);   // parent==children color
    EXPECT_EQ(cv_recolor(9, 0, false), 1u);  // root: parent ignored
}

TEST(CvForest, PathColoring)
{
    std::vector<std::size_t> parent(100);
    parent[0] = 0;
    for (std::size_t v = 1; v < parent.size(); ++v)
        parent[v] = v - 1;
    auto res = cv_three_color_forest(parent);
    expect_proper_three_coloring(parent, res.colors);
    EXPECT_LE(res.dct_iterations, cv_dct_iterations_bound(parent.size()));
}

TEST(CvForest, StarColoring)
{
    std::vector<std::size_t> parent(50, 0);
    auto res = cv_three_color_forest(parent);
    expect_proper_three_coloring(parent, res.colors);
}

TEST(CvForest, SingletonAndEmpty)
{
    auto res = cv_three_color_forest({0});
    EXPECT_EQ(res.colors.size(), 1u);
    EXPECT_LE(res.colors[0], 2u);
    auto empty = cv_three_color_forest({});
    EXPECT_TRUE(empty.colors.empty());
}

class CvForestSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CvForestSweep, RandomForestsProperlyColored)
{
    std::size_t n = GetParam();
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        Rng rng(900 + seed);
        std::size_t roots = 1 + rng.next_below(std::max<std::size_t>(1, n / 10));
        roots = std::min(roots, n);
        auto parent = random_forest(n, roots, rng);
        auto res = cv_three_color_forest(parent);
        expect_proper_three_coloring(parent, res.colors);
        EXPECT_LE(res.dct_iterations, cv_dct_iterations_bound(n));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CvForestSweep,
                         ::testing::Values(2, 3, 7, 16, 64, 257, 1024, 5000));

TEST(CvIterationBound, GrowsLikeLogStar)
{
    // The fixed schedule is within a small additive constant of log*.
    for (std::uint64_t n : {10ULL, 100ULL, 10000ULL, 1000000ULL, 1ULL << 40}) {
        int bound = cv_dct_iterations_bound(n);
        int star = log_star(n);
        EXPECT_GE(bound, star - 2);
        EXPECT_LE(bound, star + 3);
    }
    EXPECT_EQ(cv_dct_iterations_bound(1), 0);
    EXPECT_LE(cv_dct_iterations_bound(~std::uint64_t{0}), 6);
}

TEST(CvIterationBound, IsAnUpperBoundOnPaths)
{
    for (std::size_t n : {10u, 100u, 1000u}) {
        std::vector<std::size_t> parent(n);
        parent[0] = 0;
        for (std::size_t v = 1; v < n; ++v)
            parent[v] = v - 1;
        auto res = cv_three_color_forest(parent);
        EXPECT_LE(res.dct_iterations, cv_dct_iterations_bound(n));
    }
}

// ------------------------------------------------- distributed harness
//
// A direct message-passing deployment of the CV color algebra on a rooted
// tree (the distributed variant inside controlled_ghs.cpp is only covered
// through the full driver): a fixed-schedule DCT of cv_dct_iterations_bound
// iterations followed by the three shift-down/recolor steps, driven purely
// by Context::round() — which makes it a sharp probe of the conditioner
// (heterogeneous bandwidth and adversarial order must both leave the
// schedule, and so the colors, untouched).
class CvColorProcess : public Process {
public:
    // `parent_port` is kNoPort for the root. Colors start as vertex ids.
    CvColorProcess(VertexId id, std::uint64_t n, std::size_t parent_port)
        : color_(id), dct_rounds_(cv_dct_iterations_bound(n)),
          parent_port_(parent_port)
    {
    }

    void on_round(Context& ctx) override
    {
        const std::uint64_t r = ctx.round();
        const std::uint64_t k =
            static_cast<std::uint64_t>(dct_rounds_);
        const bool is_root = parent_port_ == kNoPort;

        std::uint64_t parent_word = 0;
        bool got_parent = false;
        for (const Incoming& in : ctx.inbox()) {
            if (!is_root && in.port == parent_port_) {
                parent_word = in.msg.words.at(0);
                got_parent = true;
            }
        }

        // DCT: send c^{t} at round t+1, update on receipt next round.
        if (r <= k) {
            if (r >= 2)
                dct_update(parent_word, got_parent, is_root);
            send_to_children(ctx, color_);
            return;
        }
        if (r == k + 1 && k > 0)
            dct_update(parent_word, got_parent, is_root);

        // Shift-down phases p = 0,1,2 removing colors 5,4,3; phase p is
        // rounds {k+1+2p: send old, k+2+2p: shift + send shifted,
        // k+3+2p: recolor} — the recolor round doubles as the next
        // phase's send round.
        const std::uint64_t c = 5 - phase_;
        const std::uint64_t base = k + 1 + 2 * static_cast<std::uint64_t>(phase_);
        if (r == base) {
            send_to_children(ctx, color_);
        } else if (r == base + 1) {
            DMST_ASSERT(is_root || got_parent);
            shifted_ = is_root ? cv_root_shift_color(color_) : parent_word;
            send_to_children(ctx, shifted_);
        } else if (r == base + 2) {
            DMST_ASSERT(is_root || got_parent);
            const std::uint64_t parent_shifted = is_root ? 0 : parent_word;
            const std::uint64_t old_own = color_;
            color_ = shifted_ == c
                         ? cv_recolor(parent_shifted, old_own, !is_root)
                         : shifted_;
            ++phase_;
            if (phase_ == 3)
                finished_ = true;
            else
                send_to_children(ctx, color_);
        }
    }

    bool done() const override { return finished_; }

    std::uint64_t color() const { return color_; }

private:
    void dct_update(std::uint64_t parent_word, bool got_parent, bool is_root)
    {
        DMST_ASSERT(is_root || got_parent);
        color_ = is_root ? cv_step_root(color_) : cv_step(color_, parent_word);
    }

    void send_to_children(Context& ctx, std::uint64_t word)
    {
        for (std::size_t p = 0; p < ctx.degree(); ++p)
            if (p != parent_port_)
                ctx.send(p, Message{50, {word}});
    }

    std::uint64_t color_;
    int dct_rounds_;
    std::size_t parent_port_;
    std::uint64_t shifted_ = 0;
    int phase_ = 0;
    bool finished_ = false;
};

// Parent ports of a BFS rooting of a tree graph at vertex 0.
std::vector<std::size_t> tree_parent_ports(const WeightedGraph& g)
{
    auto dist = bfs_distances(g, 0);
    std::vector<std::size_t> parent_port(g.vertex_count(), kNoPort);
    for (VertexId v = 1; v < g.vertex_count(); ++v)
        for (std::size_t p = 0; p < g.degree(v); ++p)
            if (dist[g.neighbor(v, p)] + 1 == dist[v]) {
                parent_port[v] = p;
                break;
            }
    return parent_port;
}

TEST(CvDistributed, ThreeColorsTreesUnderConditioning)
{
    Rng rng(44);
    for (int shape = 0; shape < 2; ++shape) {
        auto g = shape == 0 ? gen_path(33, rng) : gen_random_tree(40, rng);
        auto parent_port = tree_parent_ports(g);
        const std::uint64_t n = g.vertex_count();

        auto run_colors = [&](const ConditionerConfig& cc, Engine engine,
                              int threads) {
            NetConfig config;
            config.engine = engine;
            config.threads = threads;
            config.conditioner = cc;
            auto net = make_network(g, config);
            net->init([&](VertexId v) {
                return std::make_unique<CvColorProcess>(v, n, parent_port[v]);
            });
            net->run();
            std::vector<std::uint64_t> colors;
            for (VertexId v = 0; v < n; ++v)
                colors.push_back(
                    static_cast<const CvColorProcess&>(net->process(v))
                        .color());
            return colors;
        };

        auto ideal = run_colors(ConditionerConfig{}, Engine::Serial, 0);
        // Proper 3-coloring of the rooted tree.
        for (VertexId v = 0; v < n; ++v) {
            EXPECT_LE(ideal[v], 2u);
            if (parent_port[v] != kNoPort) {
                EXPECT_NE(ideal[v], ideal[g.neighbor(v, parent_port[v])])
                    << "vertex " << v;
            }
        }

        ConditionerConfig hetero;
        hetero.hetero_bandwidth = true;
        ConditionerConfig adv;
        adv.adversarial_order = true;
        ConditionerConfig all;
        all.hetero_bandwidth = true;
        all.adversarial_order = true;
        for (const ConditionerConfig& cc : {hetero, adv, all}) {
            EXPECT_EQ(run_colors(cc, Engine::Serial, 0), ideal);
            EXPECT_EQ(run_colors(cc, Engine::Parallel, 2), ideal);
            EXPECT_EQ(run_colors(cc, Engine::Parallel, 8), ideal);
        }
    }
}

}  // namespace
}  // namespace dmst
