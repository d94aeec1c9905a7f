// Invariance fuzz suite for the adversarial network conditioner
// (congest/conditioner.h): for random graphs x seeds x engines/thread
// counts x conditioner configurations, the MST edge set and the
// verification verdict must be identical to the unconditioned run and to
// the sequential oracle, and all stats must be bit-identical across the
// serial and 1/2/8-thread parallel engines.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dmst/congest/conditioner.h"
#include "dmst/core/controlled_ghs.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/verify_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/scenario.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

struct EngineCase {
    Engine engine;
    int threads;
};

const std::vector<EngineCase>& engine_cases()
{
    static const std::vector<EngineCase> cases = {
        {Engine::Serial, 1},
        {Engine::Parallel, 1},
        {Engine::Parallel, 2},
        {Engine::Parallel, 8},
    };
    return cases;
}

// The conditioner configurations under fuzz: each single axis plus both.
std::vector<ConditionerConfig> fuzz_configs(std::uint64_t seed)
{
    ConditionerConfig hetero;
    hetero.hetero_bandwidth = true;
    hetero.seed = seed;
    ConditionerConfig adv;
    adv.adversarial_order = true;
    adv.seed = seed;
    ConditionerConfig all;
    all.hetero_bandwidth = true;
    all.adversarial_order = true;
    all.seed = seed;
    return {hetero, adv, all};
}

AlgorithmRun run_algo(const std::string& algo, const WeightedGraph& g,
                      int bandwidth, const EngineCase& ec,
                      const ConditionerConfig& cc)
{
    NetConfig config;
    config.bandwidth = bandwidth;
    config.engine = ec.engine;
    config.threads = ec.threads;
    config.conditioner = cc;
    return run_algorithm(algo, g, config);
}

void expect_stats_eq(const RunStats& a, const RunStats& b, const char* what)
{
    EXPECT_EQ(a.rounds, b.rounds) << what;
    EXPECT_EQ(a.messages, b.messages) << what;
    EXPECT_EQ(a.words, b.words) << what;
    EXPECT_EQ(a.messages_per_round, b.messages_per_round) << what;
}

TEST(ConditionerFuzz, MstInvariantAcrossConfigsEnginesAndOracle)
{
    for (const char* algo : {"elkin", "pipeline", "boruvka"}) {
        for (std::uint64_t seed : {3u, 17u}) {
            for (const char* family : {"er", "grid"}) {
                auto g = make_workload(family, 56, seed);
                auto oracle = mst_kruskal(g);
                // The conditioner invariance bar: identical to the
                // unconditioned serial run.
                auto baseline = run_algo(algo, g, 2, engine_cases()[0],
                                         ConditionerConfig{});
                EXPECT_EQ(baseline.edges, oracle.edges)
                    << algo << " " << family << " seed " << seed;

                for (const ConditionerConfig& cc : fuzz_configs(seed + 100)) {
                    AlgorithmRun first;
                    for (std::size_t i = 0; i < engine_cases().size(); ++i) {
                        auto out =
                            run_algo(algo, g, 2, engine_cases()[i], cc);
                        EXPECT_EQ(out.edges, baseline.edges)
                            << algo << " " << family << " seed " << seed
                            << " hetero " << cc.hetero_bandwidth << " adv "
                            << cc.adversarial_order << " engine case " << i;
                        if (i == 0)
                            first = std::move(out);
                        else
                            expect_stats_eq(out.stats, first.stats, algo);
                    }
                }
            }
        }
    }
}

TEST(ConditionerFuzz, VerifyVerdictInvariantAcrossConfigsAndEngines)
{
    for (std::uint64_t seed : {5u, 23u}) {
        auto g = make_workload("er", 48, seed);
        auto oracle = mst_kruskal(g);
        auto claimed = ports_from_edges(g, oracle.edges);

        // A correct claim must be accepted, and a mutated claim rejected
        // with the identical witness, under every conditioner config and
        // engine.
        auto mutated = claimed;
        // Drop the heaviest tree edge on both endpoints: expect
        // reject_disconnected with that edge as witness.
        EdgeId heaviest = oracle.edges.front();
        for (EdgeId e : oracle.edges)
            if (edge_key(g.edge(heaviest)) < edge_key(g.edge(e)))
                heaviest = e;
        {
            const Edge& edge = g.edge(heaviest);
            auto& pu = mutated[edge.u];
            auto& pv = mutated[edge.v];
            pu.erase(std::find(pu.begin(), pu.end(), g.port_of(edge.u, edge.v)));
            pv.erase(std::find(pv.begin(), pv.end(), g.port_of(edge.v, edge.u)));
        }

        for (const ConditionerConfig& cc : fuzz_configs(seed + 7)) {
            VerifyMstResult first_ok;
            VerifyMstResult first_bad;
            for (std::size_t i = 0; i < engine_cases().size(); ++i) {
                VerifyOptions vo;
                vo.bandwidth = 2;
                vo.engine = engine_cases()[i].engine;
                vo.threads = engine_cases()[i].threads;
                vo.conditioner = cc;

                auto ok = run_verify_mst(g, claimed, vo);
                EXPECT_TRUE(ok.accepted)
                    << "seed " << seed << " engine case " << i;
                auto bad = run_verify_mst(g, mutated, vo);
                EXPECT_EQ(bad.verdict, VerifyVerdict::RejectDisconnected)
                    << "seed " << seed << " engine case " << i;
                EXPECT_EQ(bad.witness, edge_key(g.edge(heaviest)));

                if (i == 0) {
                    first_ok = std::move(ok);
                    first_bad = std::move(bad);
                } else {
                    expect_stats_eq(ok.stats, first_ok.stats, "verify ok");
                    expect_stats_eq(bad.stats, first_bad.stats, "verify bad");
                    EXPECT_EQ(bad.witness, first_bad.witness);
                    EXPECT_EQ(bad.offender, first_bad.offender);
                }
            }
        }
    }
}

TEST(ConditionerFuzz, GhsForestInvariantUnderConditioning)
{
    for (std::uint64_t seed : {9u, 31u}) {
        auto g = make_workload("er", 48, seed);
        auto oracle = mst_kruskal(g);
        std::set<EdgeId> oracle_set(oracle.edges.begin(), oracle.edges.end());

        GhsOptions base;
        base.k = 8;
        auto baseline = run_controlled_ghs(g, base);

        for (const ConditionerConfig& cc : fuzz_configs(seed + 40)) {
            for (const EngineCase& ec : engine_cases()) {
                GhsOptions o = base;
                o.engine = ec.engine;
                o.threads = ec.threads;
                o.conditioner = cc;
                auto r = run_controlled_ghs(g, o);
                // Identical fragment forest (a subforest of the MST) and
                // fragment structure, regardless of conditioning.
                EXPECT_EQ(r.mst_ports, baseline.mst_ports) << "seed " << seed;
                EXPECT_EQ(r.fragment_id, baseline.fragment_id);
                for (VertexId v = 0; v < g.vertex_count(); ++v)
                    for (std::size_t p : r.mst_ports[v])
                        EXPECT_TRUE(oracle_set.count(g.edge_id(v, p)));
            }
        }
    }
}

}  // namespace
}  // namespace dmst
