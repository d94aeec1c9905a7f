// Invariance fuzz suite for the event-driven engine (sim/async_network.h):
// across >= 32 random graphs x 3 event seeds, the MST edge set, the
// payload message counters, and the verification verdicts (accept and
// mutation-reject, witness included) must equal the serial lock-step
// oracle; replaying any cell with the same event seed must reproduce
// bit-identical RunStats (determinism); and a few fixed cells pin the
// schedule's own counters.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/verify_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/sim/scenario.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

constexpr std::uint64_t kEventSeeds[] = {1, 58, 4099};

struct FuzzGraph {
    WeightedGraph g;
    std::string label;
};

// 32 random workloads: families x sizes x seeds, sized to keep the async
// event volume (and so the suite's runtime) bounded.
std::vector<FuzzGraph> fuzz_graphs()
{
    std::vector<FuzzGraph> graphs;
    for (const char* family : {"er", "grid", "tree", "path"}) {
        for (std::size_t n : {24, 40}) {
            for (std::uint64_t seed : {11u, 29u, 61u, 83u}) {
                FuzzGraph fg{make_workload(family, n, seed),
                             std::string(family) + "/" + std::to_string(n) +
                                 "/s" + std::to_string(seed)};
                graphs.push_back(std::move(fg));
            }
        }
    }
    return graphs;
}

AlgorithmRun run_algo(const std::string& algo, const WeightedGraph& g,
                      Engine engine, const AsyncConfig& ac)
{
    NetConfig config;
    config.engine = engine;
    config.async = ac;
    return run_algorithm(algo, g, config);
}

TEST(AsyncFuzz, MstInvariantAcrossEventSeedsAndOracle)
{
    const char* algos[] = {"elkin", "pipeline", "boruvka"};
    const auto graphs = fuzz_graphs();
    ASSERT_GE(graphs.size(), 32u);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        const auto& fg = graphs[i];
        const std::string algo = algos[i % 3];
        auto oracle = mst_kruskal(fg.g);
        auto serial = run_algo(algo, fg.g, Engine::Serial, AsyncConfig{});
        ASSERT_EQ(serial.edges, oracle.edges) << fg.label << " " << algo;

        for (std::uint64_t event_seed : kEventSeeds) {
            AsyncConfig ac;
            ac.max_delay = 1 + static_cast<int>(event_seed % 5);
            ac.event_seed = event_seed;
            auto out = run_algo(algo, fg.g, Engine::Async, ac);
            EXPECT_EQ(out.edges, serial.edges)
                << fg.label << " " << algo << " event_seed " << event_seed;
            // Payload traffic is bit-identical too; only the synchronizer
            // metrics may (deterministically) vary with the seed.
            EXPECT_EQ(out.stats.messages, serial.stats.messages) << fg.label;
            EXPECT_EQ(out.stats.words, serial.stats.words) << fg.label;
            EXPECT_GE(out.stats.rounds, serial.stats.rounds) << fg.label;
            EXPECT_GT(out.stats.sync_messages, 0u) << fg.label;
        }
    }
}

// Every round-programmed driver in the library must be hosted
// bit-identically by both synchronizers: the β-synchronizer changes only
// the control plane, never the computation. The five drivers are the
// three full-MST builders, Controlled-GHS, and the verification protocol.
TEST(AsyncFuzz, FiveDriversBitIdenticalBehindBothSynchronizers)
{
    for (const char* family : {"er", "grid"}) {
        auto g = make_workload(family, 40, 17);

        auto check = [&](const char* driver, const RunStats& serial,
                         const RunStats& alpha, const RunStats& beta) {
            EXPECT_EQ(alpha.messages, serial.messages)
                << family << " " << driver;
            EXPECT_EQ(alpha.words, serial.words) << family << " " << driver;
            EXPECT_EQ(beta.messages, serial.messages)
                << family << " " << driver;
            EXPECT_EQ(beta.words, serial.words) << family << " " << driver;
            EXPECT_GT(alpha.sync_messages, 0u) << family << " " << driver;
            EXPECT_GT(beta.sync_messages, 0u) << family << " " << driver;
            // 2 per tree edge per pulse beats 2 per payload + SAFE floods
            // on every one of these drivers and workloads.
            EXPECT_LT(beta.sync_messages, alpha.sync_messages)
                << family << " " << driver;
        };

        AsyncConfig alpha_ac;
        AsyncConfig beta_ac;
        beta_ac.sync = SyncMode::Beta;

        for (const char* algo : {"elkin", "pipeline", "boruvka"}) {
            auto serial = run_algo(algo, g, Engine::Serial, AsyncConfig{});
            auto alpha = run_algo(algo, g, Engine::Async, alpha_ac);
            auto beta = run_algo(algo, g, Engine::Async, beta_ac);
            EXPECT_EQ(alpha.edges, serial.edges) << family << " " << algo;
            EXPECT_EQ(beta.edges, serial.edges) << family << " " << algo;
            check(algo, serial.stats, alpha.stats, beta.stats);
        }

        {
            GhsOptions o;
            o.k = 4;
            auto serial = run_controlled_ghs(g, o);
            o.engine = Engine::Async;
            auto alpha = run_controlled_ghs(g, o);
            o.async.sync = SyncMode::Beta;
            auto beta = run_controlled_ghs(g, o);
            EXPECT_EQ(alpha.mst_ports, serial.mst_ports) << family;
            EXPECT_EQ(beta.mst_ports, serial.mst_ports) << family;
            EXPECT_EQ(beta.fragment_id, serial.fragment_id) << family;
            check("ghs", serial.stats, alpha.stats, beta.stats);
        }

        {
            auto oracle = mst_kruskal(g);
            auto claimed = ports_from_edges(g, oracle.edges);
            VerifyOptions vo;
            auto serial = run_verify_mst(g, claimed, vo);
            vo.engine = Engine::Async;
            auto alpha = run_verify_mst(g, claimed, vo);
            vo.async.sync = SyncMode::Beta;
            auto beta = run_verify_mst(g, claimed, vo);
            EXPECT_TRUE(serial.accepted) << family;
            EXPECT_TRUE(alpha.accepted) << family;
            EXPECT_TRUE(beta.accepted) << family;
            check("verify", serial.stats, alpha.stats, beta.stats);
        }
    }
}

TEST(AsyncFuzz, VerifyVerdictsMatchSerialAcrossEventSeeds)
{
    const auto graphs = fuzz_graphs();
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        const auto& fg = graphs[i];
        auto oracle = mst_kruskal(fg.g);
        auto claimed = ports_from_edges(fg.g, oracle.edges);

        // Mutated claim: drop the heaviest tree edge on both endpoints —
        // must reject as disconnected with exactly that edge as witness.
        auto mutated = claimed;
        EdgeId heaviest = oracle.edges.front();
        for (EdgeId e : oracle.edges)
            if (edge_key(fg.g.edge(heaviest)) < edge_key(fg.g.edge(e)))
                heaviest = e;
        {
            const Edge& edge = fg.g.edge(heaviest);
            auto& pu = mutated[edge.u];
            auto& pv = mutated[edge.v];
            pu.erase(std::find(pu.begin(), pu.end(),
                               fg.g.port_of(edge.u, edge.v)));
            pv.erase(std::find(pv.begin(), pv.end(),
                               fg.g.port_of(edge.v, edge.u)));
        }

        VerifyOptions serial_vo;
        auto serial_ok = run_verify_mst(fg.g, claimed, serial_vo);
        auto serial_bad = run_verify_mst(fg.g, mutated, serial_vo);
        ASSERT_TRUE(serial_ok.accepted) << fg.label;
        ASSERT_EQ(serial_bad.verdict, VerifyVerdict::RejectDisconnected)
            << fg.label;

        // The mutation battery is expensive under the event queue; sweep
        // every seed on the accept path and every other graph on the
        // reject path.
        for (std::uint64_t event_seed : kEventSeeds) {
            VerifyOptions vo;
            vo.engine = Engine::Async;
            vo.async.max_delay = 3;
            vo.async.event_seed = event_seed;
            auto ok = run_verify_mst(fg.g, claimed, vo);
            EXPECT_TRUE(ok.accepted)
                << fg.label << " event_seed " << event_seed;
            EXPECT_EQ(ok.verdict, serial_ok.verdict);
            EXPECT_EQ(ok.stats.messages, serial_ok.stats.messages);
            EXPECT_EQ(ok.stats.words, serial_ok.stats.words);
            if (i % 2 == 0) {
                auto bad = run_verify_mst(fg.g, mutated, vo);
                EXPECT_EQ(bad.verdict, serial_bad.verdict)
                    << fg.label << " event_seed " << event_seed;
                EXPECT_EQ(bad.witness, serial_bad.witness) << fg.label;
                EXPECT_EQ(bad.offender, serial_bad.offender) << fg.label;
            }
        }
    }
}

// Behind both synchronizers: paper_gates' sync-* rows carry no replay
// check for Elkin and rely on this one.
TEST(AsyncFuzz, SameSeedReplaysBitIdenticalRunStats)
{
    for (const char* family : {"er", "grid"}) {
        auto g = make_workload(family, 40, 47);
        for (SyncMode sync : {SyncMode::Alpha, SyncMode::Beta}) {
            for (std::uint64_t event_seed : kEventSeeds) {
                SCOPED_TRACE(std::string(family) + " " + sync_name(sync) +
                             " event_seed " + std::to_string(event_seed));
                ElkinOptions o;
                o.engine = Engine::Async;
                o.record_per_edge = true;
                o.async.max_delay = 4;
                o.async.event_seed = event_seed;
                o.async.sync = sync;
                auto first = run_elkin_mst(g, o);
                for (int rep = 0; rep < 2; ++rep) {
                    auto again = run_elkin_mst(g, o);
                    const RunStats& a = again.stats;
                    const RunStats& f = first.stats;
                    EXPECT_EQ(again.mst_edges, first.mst_edges);
                    EXPECT_EQ(a.rounds, f.rounds);
                    EXPECT_EQ(a.messages, f.messages);
                    EXPECT_EQ(a.words, f.words);
                    EXPECT_EQ(a.events, f.events);
                    EXPECT_EQ(a.virtual_time, f.virtual_time);
                    EXPECT_EQ(a.sync_messages, f.sync_messages);
                    EXPECT_EQ(a.sync_words, f.sync_words);
                    EXPECT_EQ(a.messages_per_round, f.messages_per_round);
                    EXPECT_EQ(a.messages_per_edge, f.messages_per_edge);
                }
            }
        }
    }
}

// The schedule itself, pinned: the counters no serial-oracle comparison
// can check (events, virtual time, synchronizer and loss-shim traffic,
// pulse levels, activations) for a few fixed cells. Any change to the
// order events are created in, the seq-keyed delay stream, or the batch
// loop moves them.
TEST(AsyncSchedule, PinnedCountersOfFixedCells)
{
    struct Cell {
        const char* algo;
        SyncMode sync;
        double drop_rate;
        std::uint64_t events;
        std::uint64_t virtual_time;
        std::uint64_t sync_messages;
        std::uint64_t rounds;
        std::uint64_t activations;
        std::uint64_t retransmissions;
        std::uint64_t drops;
    };
    const Cell cells[] = {
        {"elkin", SyncMode::Alpha, 0.0, 263922, 3775, 257171, 653, 41740, 0, 0},
        {"elkin", SyncMode::Beta, 0.0, 95780, 14204, 89029, 653, 41792, 0, 0},
        {"elkin", SyncMode::Beta, 0.2, 95780, 15052, 89029, 653, 41792, 3752,
         3752},
        {"ghs_native", SyncMode::None, 0.0, 1469, 193, 0, 49, 1533, 0, 0},
    };
    const auto g = make_workload("er", 64, 7);
    for (const Cell& c : cells) {
        SCOPED_TRACE(std::string(c.algo) + " " + sync_name(c.sync) +
                     " drop_rate " + std::to_string(c.drop_rate));
        NetConfig config;
        config.engine = Engine::Async;
        config.async.max_delay = 4;
        config.async.event_seed = 3;
        config.async.sync = c.sync;
        config.faults.drop_rate = c.drop_rate;
        config.faults.loss_seed = 11;
        const RunStats s = run_algorithm(c.algo, g, config).stats;
        EXPECT_EQ(s.events, c.events);
        EXPECT_EQ(s.virtual_time, c.virtual_time);
        EXPECT_EQ(s.sync_messages, c.sync_messages);
        EXPECT_EQ(s.rounds, c.rounds);
        EXPECT_EQ(s.activations, c.activations);
        EXPECT_EQ(s.retransmissions, c.retransmissions);
        EXPECT_EQ(s.drops, c.drops);
    }
}

// The per-level message trace of the async engine equals the serial
// per-round trace (levels are rounds; only the trailing inert skew may
// append zero entries).
TEST(AsyncFuzz, PerLevelTraceMatchesSerialPerRoundTrace)
{
    auto g = make_workload("er", 40, 19);
    ElkinOptions serial;
    auto s = run_elkin_mst(g, serial);
    ElkinOptions as;
    as.engine = Engine::Async;
    auto a = run_elkin_mst(g, as);
    ASSERT_GE(a.stats.messages_per_round.size(),
              s.stats.messages_per_round.size());
    for (std::size_t r = 0; r < a.stats.messages_per_round.size(); ++r) {
        const std::uint64_t want = r < s.stats.messages_per_round.size()
                                       ? s.stats.messages_per_round[r]
                                       : 0;
        EXPECT_EQ(a.stats.messages_per_round[r], want) << "level " << r + 1;
    }
}

}  // namespace
}  // namespace dmst
