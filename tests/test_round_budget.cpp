// Round-budget regression tests: every driver's runaway guard must fire
// with a diagnostic — never hang — when its budget is insufficient, and
// the budget must be tight: a run of R rounds passes with budget R while
// budget R-1 trips the guard.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "dmst/congest/conditioner.h"
#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/ghs_native.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/pipeline_mst.h"
#include "dmst/core/sync_boruvka.h"
#include "dmst/core/verify_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/graph/generators.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/util/assert.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

TEST(RoundBudget, BudgetIsTightOnAPathGraph)
{
    Rng rng(8);
    auto g = gen_path(24, rng);

    ElkinOptions ideal;
    auto base = run_elkin_mst(g, ideal);
    const std::uint64_t r = base.stats.rounds;
    ASSERT_GT(r, 2u);

    // Budget R is exactly enough.
    ElkinOptions budget = ideal;
    budget.max_rounds = r;
    auto run = run_elkin_mst(g, budget);
    EXPECT_EQ(run.stats.rounds, r);
    EXPECT_EQ(run.mst_edges, base.mst_edges);

    // Budget R-1 is one round short: the guard throws its diagnostic.
    budget.max_rounds = r - 1;
    try {
        run_elkin_mst(g, budget);
        FAIL() << "guard did not fire";
    } catch (const InvariantViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("round limit exceeded"), std::string::npos)
            << what;
        EXPECT_NE(what.find("max_rounds=" + std::to_string(r - 1)),
                  std::string::npos)
            << what;
    }
}

// Every driver must propagate the guard as a diagnostic exception under an
// insufficient budget on a conditioned substrate, and succeed with the
// exact budget.
TEST(RoundBudget, EveryDriverGuardFiresWithDiagnosticNotHang)
{
    auto g = make_workload("er", 48, 21);
    auto oracle = mst_kruskal(g);
    auto claimed = ports_from_edges(g, oracle.edges);

    ConditionerConfig adv;
    adv.adversarial_order = true;

    auto expect_guard = [](auto&& run_with_budget, std::uint64_t r) {
        // Exact budget passes...
        EXPECT_NO_THROW(run_with_budget(r));
        // ...one round less trips the guard with its diagnostic.
        try {
            run_with_budget(r - 1);
            FAIL() << "guard did not fire";
        } catch (const InvariantViolation& e) {
            EXPECT_NE(std::string(e.what()).find("round limit exceeded"),
                      std::string::npos)
                << e.what();
        }
    };

    {
        ElkinOptions o;
        o.conditioner = adv;
        const std::uint64_t r = run_elkin_mst(g, o).stats.rounds;
        expect_guard(
            [&](std::uint64_t budget) {
                ElkinOptions b = o;
                b.max_rounds = budget;
                run_elkin_mst(g, b);
            },
            r);
    }
    {
        PipelineMstOptions o;
        o.conditioner = adv;
        const std::uint64_t r = run_pipeline_mst(g, o).stats.rounds;
        expect_guard(
            [&](std::uint64_t budget) {
                PipelineMstOptions b = o;
                b.max_rounds = budget;
                run_pipeline_mst(g, b);
            },
            r);
    }
    {
        SyncBoruvkaOptions o;
        o.conditioner = adv;
        const std::uint64_t r = run_sync_boruvka(g, o).stats.rounds;
        expect_guard(
            [&](std::uint64_t budget) {
                SyncBoruvkaOptions b = o;
                b.max_rounds = budget;
                run_sync_boruvka(g, b);
            },
            r);
    }
    {
        GhsOptions o;
        o.k = 8;
        o.conditioner = adv;
        const std::uint64_t r = run_controlled_ghs(g, o).stats.rounds;
        expect_guard(
            [&](std::uint64_t budget) {
                GhsOptions b = o;
                b.max_rounds = budget;
                run_controlled_ghs(g, b);
            },
            r);
    }
    {
        VerifyOptions o;
        o.conditioner = adv;
        const std::uint64_t r = run_verify_mst(g, claimed, o).stats.rounds;
        expect_guard(
            [&](std::uint64_t budget) {
                VerifyOptions b = o;
                b.max_rounds = budget;
                run_verify_mst(g, claimed, b);
            },
            r);
    }
}

// Bandwidth is validated once, in make_network, for every engine: each
// driver surfaces bad input as std::invalid_argument, never as an
// internal invariant failure.
TEST(DriverValidation, BandwidthBelowOneIsRejectedOnEveryEngine)
{
    auto g = make_workload("er", 16, 5);
    auto claimed = ports_from_edges(g, mst_kruskal(g).edges);
    for (Engine engine : {Engine::Serial, Engine::Async}) {
        SCOPED_TRACE(engine_name(engine));
        auto opts = [engine](auto o) {
            o.bandwidth = 0;
            o.engine = engine;
            return o;
        };
        EXPECT_THROW(run_elkin_mst(g, opts(ElkinOptions{})),
                     std::invalid_argument);
        EXPECT_THROW(run_pipeline_mst(g, opts(PipelineMstOptions{})),
                     std::invalid_argument);
        EXPECT_THROW(run_sync_boruvka(g, opts(SyncBoruvkaOptions{})),
                     std::invalid_argument);
        EXPECT_THROW(run_controlled_ghs(g, opts(GhsOptions{})),
                     std::invalid_argument);
        EXPECT_THROW(run_ghs_native(g, opts(GhsNativeOptions{})),
                     std::invalid_argument);
        EXPECT_THROW(run_verify_mst(g, claimed, opts(VerifyOptions{})),
                     std::invalid_argument);
    }
}

// Sleeps forever after its first round and never finishes: a broken
// sleep contract. Vertex 0 first sends one message, so the deadlock sets
// in only once that message has been consumed.
class SleeperProcess : public Process {
public:
    void on_round(Context& ctx) override
    {
        if (ctx.id() == 0 && ctx.round() == 1)
            ctx.send(0, Message{1, {}});
    }
    bool done() const override { return false; }
    std::uint64_t next_wakeup(const Context&) const override { return kNever; }
};

TEST(RoundBudget, SleepDeadlockFailsFastNamingTheSleepers)
{
    // Without the fail-fast the run would spin to max_rounds; it must
    // stop as soon as nothing is in flight and no wakeup is booked.
    Rng rng(3);
    auto g = gen_path(6, rng);
    for (Engine engine : {Engine::Serial, Engine::Parallel}) {
        NetConfig config;
        config.engine = engine;
        config.threads = 2;
        auto net = make_network(g, config);
        net->init([](VertexId) { return std::make_unique<SleeperProcess>(); });
        try {
            net->run();
            FAIL() << "sleep deadlock not detected";
        } catch (const InvariantViolation& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("sleep deadlock"), std::string::npos) << what;
            EXPECT_NE(what.find("6 of 6 processes not done "
                                "(sleeping ids: 0 1 2 3 4 5)"),
                      std::string::npos)
                << what;
        }
        EXPECT_EQ(net->stats().rounds, 2u) << engine_name(engine);
    }
}

}  // namespace
}  // namespace dmst
