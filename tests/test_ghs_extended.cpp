#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/forest_stats.h"
#include "dmst/graph/generators.h"
#include "dmst/util/intmath.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// ----------------------------------------------------------- GhsSchedule

TEST(GhsSchedule, PhaseCountMatchesCeilLog)
{
    EXPECT_EQ(GhsSchedule(100, 1, 1).phases(), 0);
    EXPECT_EQ(GhsSchedule(100, 2, 1).phases(), 1);
    EXPECT_EQ(GhsSchedule(100, 3, 1).phases(), 2);
    EXPECT_EQ(GhsSchedule(100, 8, 1).phases(), 3);
    EXPECT_EQ(GhsSchedule(100, 9, 1).phases(), 4);
    EXPECT_EQ(GhsSchedule(100, 64, 1).phases(), 6);
}

TEST(GhsSchedule, LocateCoversEveryRoundExactlyOnce)
{
    GhsSchedule sched(200, 16, 10);
    EXPECT_FALSE(sched.locate(9).has_value());
    EXPECT_FALSE(sched.locate(sched.end_round()).has_value());

    int last_phase = -1;
    std::uint64_t covered = 0;
    std::optional<GhsSchedule::Pos> prev;
    for (std::uint64_t r = sched.start_round(); r < sched.end_round(); ++r) {
        auto pos = sched.locate(r);
        ASSERT_TRUE(pos.has_value()) << "round " << r;
        ++covered;
        EXPECT_GE(pos->phase, last_phase);
        last_phase = std::max(last_phase, pos->phase);
        if (prev && prev->phase == pos->phase && prev->stage == pos->stage) {
            EXPECT_EQ(pos->offset, prev->offset + 1);
        } else {
            EXPECT_EQ(pos->offset, 0u) << "stage must start at offset 0";
        }
        EXPECT_LT(pos->offset, pos->stage_len);
        prev = pos;
    }
    EXPECT_EQ(covered, sched.total_rounds());
}

// Reference lookup: walks every phase and stage from the start of the
// schedule, recomputing each length from stage_len(). Independent of the
// schedule's stage table, including where the timetable ends.
std::optional<GhsSchedule::Pos> locate_by_scan(const GhsSchedule& sched,
                                               std::uint64_t round)
{
    if (round < sched.start_round())
        return std::nullopt;
    std::uint64_t r = round - sched.start_round();
    for (int phase = 0; phase < sched.phases(); ++phase) {
        for (int s = 0; s < GhsSchedule::kStages; ++s) {
            const auto stage = static_cast<GhsStage>(s);
            const std::uint64_t len = sched.stage_len(phase, stage);
            if (r < len)
                return GhsSchedule::Pos{phase, stage, r, len};
            r -= len;
        }
    }
    return std::nullopt;
}

TEST(GhsSchedule, LocateMatchesLinearScanInAnyCallOrder)
{
    for (std::uint64_t k : {1ull, 2ull, 3ull, 16ull, 64ull, 1000ull}) {
        for (std::uint64_t start : {0ull, 1ull, 7ull, 1000ull}) {
            GhsSchedule sched(1000, k, start);
            std::vector<std::uint64_t> rounds;
            for (std::uint64_t r = start < 2 ? 0 : start - 2;
                 r <= sched.end_round() + 2; ++r)
                rounds.push_back(r);

            auto check = [&](const char* order) {
                for (std::uint64_t r : rounds) {
                    const auto got = sched.locate(r);
                    const auto want = locate_by_scan(sched, r);
                    ASSERT_EQ(got.has_value(), want.has_value())
                        << order << " k=" << k << " start=" << start
                        << " round=" << r;
                    if (!want)
                        continue;
                    SCOPED_TRACE(std::string(order) + " round " +
                                 std::to_string(r));
                    ASSERT_EQ(got->phase, want->phase);
                    ASSERT_EQ(got->stage, want->stage);
                    ASSERT_EQ(got->offset, want->offset);
                    ASSERT_EQ(got->stage_len, want->stage_len);
                }
            };
            check("forward");
            std::reverse(rounds.begin(), rounds.end());
            check("backward");
            Rng rng(k * 7919 + start);
            for (std::size_t i = rounds.size(); i > 1; --i)
                std::swap(rounds[i - 1], rounds[rng.next_below(i)]);
            check("shuffled");
        }
    }
}

TEST(GhsSchedule, PhaseLengthsGrowGeometrically)
{
    GhsSchedule sched(1000, 64, 1);
    for (int i = 0; i + 1 < sched.phases(); ++i) {
        EXPECT_GT(sched.phase_len(i + 1), sched.phase_len(i));
        EXPECT_LT(sched.phase_len(i + 1), 3 * sched.phase_len(i));
    }
}

TEST(GhsSchedule, TotalRoundsShapeIsKLogStar)
{
    // total = O(k log* n): the ratio to k*(log* n + 6) is bounded.
    for (std::uint64_t k : {4ull, 16ull, 64ull, 256ull, 1024ull}) {
        GhsSchedule sched(1 << 20, k, 1);
        double bound = static_cast<double>(k) * (log_star(1 << 20) + 6);
        EXPECT_LE(static_cast<double>(sched.total_rounds()), 12.0 * bound)
            << "k=" << k;
    }
}

TEST(GhsSchedule, WindowAndHeightBounds)
{
    EXPECT_EQ(GhsSchedule::window(0), 1u);
    EXPECT_EQ(GhsSchedule::window(5), 32u);
    EXPECT_EQ(GhsSchedule::height_bound(0), 7u);
    EXPECT_EQ(GhsSchedule::height_bound(3), 28u);
}

// ------------------------------------------- Lemma 4.2: fragment sizes

ForestStats run_and_analyze(const WeightedGraph& g, std::uint64_t k, int b = 1)
{
    GhsOptions opts;
    opts.k = k;
    opts.bandwidth = b;
    auto r = run_controlled_ghs(g, opts);
    return analyze_forest(g, r.parent_port, r.fragment_id);
}

TEST(GhsLemma42, FragmentsReachHalfK)
{
    // After ceil(log2 k) phases every fragment has at least 2^(t-1) >= k/2
    // vertices (unless a single fragment swallowed the graph).
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        Rng rng(800 + seed);
        auto g = gen_erdos_renyi(256, 768, rng);
        for (std::uint64_t k : {4ull, 8ull, 16ull, 32ull}) {
            auto s = run_and_analyze(g, k);
            if (s.fragment_count > 1) {
                std::uint64_t t = ceil_log2(k);
                EXPECT_GE(s.min_fragment_size, std::uint64_t{1} << (t - 1))
                    << "k=" << k << " seed=" << seed;
            }
        }
    }
}

TEST(GhsLemma42, HoldsOnPathGraphs)
{
    // Paths are the worst case for fragment growth (each fragment has at
    // most two outgoing edges).
    Rng rng(810);
    auto g = gen_path(300, rng);
    for (std::uint64_t k : {4ull, 16ull, 64ull}) {
        auto s = run_and_analyze(g, k);
        if (s.fragment_count > 1) {
            EXPECT_GE(s.min_fragment_size,
                      std::uint64_t{1} << (ceil_log2(k) - 1));
        }
    }
}

// ------------------------------------------------------- CONGEST(b) GHS

class GhsBandwidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(GhsBandwidthSweep, ForestInvariantsHoldAtAnyBandwidth)
{
    Rng rng(820);
    auto g = gen_erdos_renyi(128, 384, rng);
    GhsOptions opts;
    opts.k = 8;
    opts.bandwidth = GetParam();
    auto r = run_controlled_ghs(g, opts);
    auto s = analyze_forest(g, r.parent_port, r.fragment_id);
    EXPECT_LE(s.fragment_count, 2u * 128 / 8);
    EXPECT_LE(s.max_height, 3u * 8 + 4);
    // The GHS schedule is bandwidth-independent: identical round counts.
    auto r1 = run_controlled_ghs(g, GhsOptions{.k = 8});
    EXPECT_EQ(r.stats.rounds, r1.stats.rounds);
    EXPECT_EQ(r.fragment_id, r1.fragment_id);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, GhsBandwidthSweep,
                         ::testing::Values(1, 2, 4, 16));

// ----------------------------------------------------------- edge cases

TEST(GhsEdgeCases, TwoVertices)
{
    auto g = WeightedGraph::from_edges(2, {{0, 1, 9}});
    for (std::uint64_t k : {2ull, 4ull, 100ull}) {
        auto r = run_controlled_ghs(g, GhsOptions{.k = k});
        EXPECT_EQ(r.fragment_count(), 1u);
        EXPECT_EQ(r.mst_ports[0].size(), 1u);
        EXPECT_EQ(r.mst_ports[1].size(), 1u);
    }
}

TEST(GhsEdgeCases, StarGraphMergesInOnePhase)
{
    Rng rng(830);
    auto g = gen_star(40, rng);
    auto r = run_controlled_ghs(g, GhsOptions{.k = 2});
    // Every leaf's MWOE is its only edge; all propose into the center or
    // across it. One phase must already collapse everything connected to
    // the lightest edges; with k=2 a single phase runs.
    auto s = analyze_forest(g, r.parent_port, r.fragment_id);
    EXPECT_GE(s.min_fragment_size, 2u);
}

TEST(GhsEdgeCases, DenseEqualWeights)
{
    // All-equal weights exercise the EdgeKey tie-breaking in every
    // comparison the protocol makes.
    Rng rng(840);
    std::vector<Edge> edges;
    auto base = gen_complete(16, rng);
    for (const Edge& e : base.edges())
        edges.push_back({e.u, e.v, 1});
    auto g = WeightedGraph::from_edges(16, std::move(edges));
    auto r = run_controlled_ghs(g, GhsOptions{.k = 16});
    EXPECT_EQ(r.fragment_count(), 1u);
}

TEST(GhsEdgeCases, KAtTheoremBoundary)
{
    // Theorem 4.3 is stated for k <= n/10; check exactly there.
    Rng rng(850);
    auto g = gen_erdos_renyi(200, 600, rng);
    auto r = run_controlled_ghs(g, GhsOptions{.k = 20});
    auto s = analyze_forest(g, r.parent_port, r.fragment_id);
    EXPECT_LE(s.fragment_count, 2u * 200 / 20);
    EXPECT_LE(s.max_height, 3u * (std::uint64_t{1} << ceil_log2(20)) + 4);
}

TEST(GhsEdgeCases, MessagesScaleWithLogK)
{
    // Message complexity O(m log k + n log k log* n): doubling log k should
    // not much more than double messages.
    Rng rng(860);
    auto g = gen_erdos_renyi(256, 1024, rng);
    auto r4 = run_controlled_ghs(g, GhsOptions{.k = 4});     // log k = 2
    auto r16 = run_controlled_ghs(g, GhsOptions{.k = 16});   // log k = 4
    auto r256 = run_controlled_ghs(g, GhsOptions{.k = 256}); // log k = 8
    EXPECT_LE(r16.stats.messages, 3 * r4.stats.messages);
    EXPECT_LE(r256.stats.messages, 3 * r16.stats.messages);
}

}  // namespace
}  // namespace dmst
