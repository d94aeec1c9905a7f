#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dmst/congest/faults.h"
#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/verify_mst.h"
#include "dmst/graph/generators.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/sim/scenario.h"
#include "dmst/util/rng.h"
#include "expect_counters.h"

namespace dmst {
namespace {

// The E15 invariance bar: every driver must produce bit-identical outputs
// at every (drop_rate, loss_seed) grid point — the loss shim is
// transparent to the protocols by construction — and the fault counters
// themselves must be replay-exact.

constexpr double kDropRates[] = {0.0, 0.05, 0.2};
constexpr std::uint64_t kLossSeeds[] = {11, 12, 13};

struct EngineCase {
    Engine engine;
    int threads;
};

// Lossy grid points run on the async engine, where loss lives; the clean
// point runs on every in-process engine.
std::vector<EngineCase> engine_cases(double rate)
{
    std::vector<EngineCase> cases = {{Engine::Async, 1}};
    if (rate == 0.0)
        cases.insert(cases.begin(), {{Engine::Serial, 1}, {Engine::Parallel, 2}});
    return cases;
}

std::vector<WeightedGraph> fuzz_graphs()
{
    std::vector<WeightedGraph> gs;
    Rng rng(1701);
    gs.push_back(gen_erdos_renyi(24, 60, rng));
    gs.push_back(gen_grid(4, 6, rng));
    gs.push_back(gen_cycle(18, rng));
    gs.push_back(gen_lollipop(6, 10, rng));
    return gs;
}

TEST(FaultFuzz, MstBuildersInvariantAcrossLossGrid)
{
    for (const char* algo : {"elkin", "boruvka", "pipeline"}) {
        for (const auto& g : fuzz_graphs()) {
            const MstResult oracle = mst_kruskal(g);
            for (double rate : kDropRates) {
                // At rate 0 extra seeds are no-ops.
                for (std::uint64_t seed : kLossSeeds) {
                    for (const EngineCase& ec : engine_cases(rate)) {
                        NetConfig config;
                        config.engine = ec.engine;
                        config.threads = ec.threads;
                        config.faults.drop_rate = rate;
                        config.faults.loss_seed = seed;
                        const auto r = run_algorithm(algo, g, config);
                        const std::string where =
                            std::string(algo) +
                            " engine=" + engine_name(ec.engine) +
                            " threads=" + std::to_string(ec.threads) +
                            " rate=" + std::to_string(rate) +
                            " seed=" + std::to_string(seed);
                        EXPECT_EQ(r.edges, oracle.edges) << where;
                        if (rate == 0.0) {
                            for (const ListedCounter& c :
                                 listed_counters(r.stats)) {
                                if (c.group == CounterGroup::Loss) {
                                    EXPECT_EQ(c.value, 0u)
                                        << where << ": " << c.key;
                                }
                            }
                        } else {
                            EXPECT_GT(r.stats.acks, 0u) << where;
                            // Replay-exact: an identical run reproduces
                            // every counter, the clock included.
                            const auto r2 = run_algorithm(algo, g, config);
                            expect_same_counters(r.stats, r2.stats, where);
                        }
                    }
                    if (rate == 0.0)
                        break;  // seeds are indistinguishable without loss
                }
            }
        }
    }
}

TEST(FaultFuzz, ControlledGhsForestInvariantAcrossLossGrid)
{
    // The forest driver has no mst_edges; its per-vertex views are the
    // output that must stay invariant.
    for (const auto& g : fuzz_graphs()) {
        GhsOptions clean;
        clean.k = 4;
        const MstForestResult base = run_controlled_ghs(g, clean);
        for (double rate : kDropRates) {
            for (std::uint64_t seed : kLossSeeds) {
                for (const EngineCase& ec : engine_cases(rate)) {
                    GhsOptions opts;
                    opts.k = 4;
                    opts.engine = ec.engine;
                    opts.threads = ec.threads;
                    opts.faults.drop_rate = rate;
                    opts.faults.loss_seed = seed;
                    const MstForestResult r = run_controlled_ghs(g, opts);
                    EXPECT_EQ(r.fragment_id, base.fragment_id)
                        << "engine=" << engine_name(ec.engine) << " threads="
                        << ec.threads << " rate=" << rate << " seed=" << seed;
                    EXPECT_EQ(r.mst_ports, base.mst_ports);
                    EXPECT_EQ(r.parent_port, base.parent_port);
                }
                if (rate == 0.0)
                    break;
            }
        }
    }
}

TEST(FaultFuzz, VerifierVerdictInvariantAcrossLossGrid)
{
    for (const auto& g : fuzz_graphs()) {
        const MstResult oracle = mst_kruskal(g);
        const auto good = ports_from_edges(g, oracle.edges);
        auto mutated_edges = oracle.edges;
        mutated_edges.pop_back();  // not spanning -> rejected
        const auto bad = ports_from_edges(g, mutated_edges);

        VerifyOptions clean;
        const VerifyMstResult good_base = run_verify_mst(g, good, clean);
        const VerifyMstResult bad_base = run_verify_mst(g, bad, clean);
        ASSERT_TRUE(good_base.accepted);
        ASSERT_FALSE(bad_base.accepted);

        for (double rate : kDropRates) {
            for (std::uint64_t seed : kLossSeeds) {
                for (const EngineCase& ec : engine_cases(rate)) {
                    VerifyOptions opts;
                    opts.engine = ec.engine;
                    opts.threads = ec.threads;
                    opts.faults.drop_rate = rate;
                    opts.faults.loss_seed = seed;
                    const VerifyMstResult a = run_verify_mst(g, good, opts);
                    EXPECT_TRUE(a.accepted)
                        << "engine=" << engine_name(ec.engine) << " threads="
                        << ec.threads << " rate=" << rate << " seed=" << seed;
                    const VerifyMstResult b = run_verify_mst(g, bad, opts);
                    EXPECT_EQ(b.verdict, bad_base.verdict);
                    EXPECT_EQ(b.witness, bad_base.witness);
                }
                if (rate == 0.0)
                    break;
            }
        }
    }
}

TEST(FaultFuzz, SeededCrashesDegradeToSubforestsEverywhere)
{
    // Crash-stop is lock-step only; every seeded schedule must end in a
    // graceful partial forest contained in the true MST, bit-identically
    // across serial/parallel and across replays.
    for (const auto& g : fuzz_graphs()) {
        const MstResult oracle = mst_kruskal(g);
        const std::set<EdgeId> oracle_set(oracle.edges.begin(),
                                          oracle.edges.end());
        for (std::uint64_t crash_seed : {1ull, 2ull, 3ull}) {
            const auto crashes =
                seeded_crashes(g.vertex_count(), 2, 24, crash_seed);
            ElkinOptions serial;
            serial.faults.crashes = crashes;
            const DistributedMstResult s = run_elkin_mst(g, serial);
            for (EdgeId e : s.mst_edges)
                EXPECT_TRUE(oracle_set.count(e))
                    << "crash_seed=" << crash_seed << " edge=" << e;

            ElkinOptions par = serial;
            par.engine = Engine::Parallel;
            par.threads = 3;
            const DistributedMstResult p = run_elkin_mst(g, par);
            EXPECT_EQ(p.mst_edges, s.mst_edges);
            EXPECT_EQ(p.stats.partial(), s.stats.partial());
            EXPECT_EQ(p.stats.failed_sends, s.stats.failed_sends);
            EXPECT_EQ(p.stats.crashed_vertices, s.stats.crashed_vertices);

            NetConfig crashing;
            crashing.faults.crashes = crashes;
            for (const char* algo : {"boruvka", "ghs", "pipeline"})
                for (EdgeId e : run_algorithm(algo, g, crashing, 4).edges)
                    EXPECT_TRUE(oracle_set.count(e)) << algo;
        }
    }
}

}  // namespace
}  // namespace dmst
