// Round-budget regression tests for the conditioned substrate: every
// driver's runaway guard must fire with a diagnostic — never hang — when
// latency makes its budget insufficient, and the scaled budget formula
// scaled_round_budget(R, config) = R * stride must be tight on a path
// graph: R logical rounds cost exactly (R-1)*stride + 1 ticks, so budget
// R passes while budget R-1 trips the guard.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dmst/congest/conditioner.h"
#include "dmst/congest/network.h"
#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
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

// Ping process: vertex 0 bounces a token to vertex n-1 and back, a fixed
// number of logical rounds, so the ideal round count is exact.
class RelayProcess : public Process {
public:
    void on_round(Context& ctx) override
    {
        if (ctx.id() == 0 && ctx.round() == 1) {
            ctx.send(0, Message{1, {}});
            done_ = true;
            return;
        }
        for (const Incoming& in : ctx.inbox()) {
            (void)in;
            // Forward away from the sender (path graph: the other port).
            if (ctx.degree() > 1)
                ctx.send(in.port == 0 ? 1 : 0, Message{1, {}});
            done_ = true;
        }
    }
    bool done() const override { return done_; }

private:
    bool done_ = false;
};

TEST(RoundBudget, UnscaledIdealBudgetTripsTheGuardUnderLatency)
{
    // At the NetConfig level: a budget sufficient on the ideal substrate
    // becomes insufficient once the conditioner stretches rounds into
    // ticks, and the guard must throw its diagnostic instead of hanging.
    Rng rng(7);
    auto g = gen_path(12, rng);

    Network ideal(g, NetConfig{});
    ideal.init([](VertexId) { return std::make_unique<RelayProcess>(); });
    const std::uint64_t r_ideal = ideal.run().rounds;
    ASSERT_GT(r_ideal, 2u);

    NetConfig config;
    config.conditioner.max_latency = 2;
    config.max_rounds = r_ideal;  // NOT scaled: latency makes it short
    Network cond(g, config);
    cond.init([](VertexId) { return std::make_unique<RelayProcess>(); });
    try {
        cond.run();
        FAIL() << "guard did not fire";
    } catch (const InvariantViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("round limit exceeded"), std::string::npos)
            << what;
        EXPECT_NE(what.find("max_rounds=" + std::to_string(r_ideal)),
                  std::string::npos)
            << what;
    }
}

TEST(RoundBudget, ScaledBudgetIsTightOnAPathGraph)
{
    Rng rng(8);
    auto g = gen_path(24, rng);

    ElkinOptions ideal;
    auto base = run_elkin_mst(g, ideal);
    const std::uint64_t r = base.stats.rounds;

    ElkinOptions cond = ideal;
    cond.conditioner.max_latency = 3;
    const std::uint64_t stride = cond.conditioner.stride();

    // Budget R (scaled to R*stride ticks by the driver) is exactly enough:
    // the run needs (R-1)*stride + 1 ticks.
    cond.max_rounds = r;
    auto run = run_elkin_mst(g, cond);
    EXPECT_EQ(run.stats.rounds, (r - 1) * stride + 1);
    EXPECT_EQ(run.mst_edges, base.mst_edges);

    // Budget R-1 (scaled to (R-1)*stride ticks) is one tick short.
    cond.max_rounds = r - 1;
    EXPECT_THROW(run_elkin_mst(g, cond), InvariantViolation);
}

// Every driver must propagate the guard as a diagnostic exception under an
// insufficient conditioned budget, and succeed with the exact budget.
TEST(RoundBudget, EveryDriverGuardFiresWithDiagnosticNotHang)
{
    auto g = make_workload("er", 48, 21);
    auto oracle = mst_kruskal(g);
    auto claimed = ports_from_edges(g, oracle.edges);

    ConditionerConfig lat2;
    lat2.max_latency = 2;

    auto expect_guard = [](auto&& run_with_budget, std::uint64_t r) {
        // Exact logical budget passes...
        EXPECT_NO_THROW(run_with_budget(r));
        // ...one logical round less trips the guard with its diagnostic.
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
        o.conditioner = lat2;
        const std::uint64_t r = run_elkin_mst(g, o).stats.rounds;
        const std::uint64_t logical = (r - 1) / lat2.stride() + 1;
        expect_guard(
            [&](std::uint64_t budget) {
                ElkinOptions b = o;
                b.max_rounds = budget;
                run_elkin_mst(g, b);
            },
            logical);
    }
    {
        PipelineMstOptions o;
        o.conditioner = lat2;
        const std::uint64_t r = run_pipeline_mst(g, o).stats.rounds;
        const std::uint64_t logical = (r - 1) / lat2.stride() + 1;
        expect_guard(
            [&](std::uint64_t budget) {
                PipelineMstOptions b = o;
                b.max_rounds = budget;
                run_pipeline_mst(g, b);
            },
            logical);
    }
    {
        SyncBoruvkaOptions o;
        o.conditioner = lat2;
        const std::uint64_t r = run_sync_boruvka(g, o).stats.rounds;
        const std::uint64_t logical = (r - 1) / lat2.stride() + 1;
        expect_guard(
            [&](std::uint64_t budget) {
                SyncBoruvkaOptions b = o;
                b.max_rounds = budget;
                run_sync_boruvka(g, b);
            },
            logical);
    }
    {
        GhsOptions o;
        o.k = 8;
        o.conditioner = lat2;
        const std::uint64_t r = run_controlled_ghs(g, o).stats.rounds;
        const std::uint64_t logical = (r - 1) / lat2.stride() + 1;
        expect_guard(
            [&](std::uint64_t budget) {
                GhsOptions b = o;
                b.max_rounds = budget;
                run_controlled_ghs(g, b);
            },
            logical);
    }
    {
        VerifyOptions o;
        o.conditioner = lat2;
        const std::uint64_t r = run_verify_mst(g, claimed, o).stats.rounds;
        const std::uint64_t logical = (r - 1) / lat2.stride() + 1;
        expect_guard(
            [&](std::uint64_t budget) {
                VerifyOptions b = o;
                b.max_rounds = budget;
                run_verify_mst(g, claimed, b);
            },
            logical);
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
