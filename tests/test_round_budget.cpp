// Round-budget regression tests: every driver's runaway guard must fire
// with a diagnostic — never hang — when its budget is insufficient, and
// the budget must be tight: a run of R rounds passes with budget R while
// budget R-1 trips the guard.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

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
#include "dmst/sim/scenario.h"
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
    auto claimed = ports_from_edges(g, mst_kruskal(g).edges);

    // One run of `driver` with the given budget; returns its rounds.
    auto run = [&](const std::string& driver, std::uint64_t budget) {
        NetConfig config;
        config.conditioner.adversarial_order = true;
        config.max_rounds = budget;
        if (driver != "verify")
            return run_algorithm(driver, g, config).stats.rounds;
        VerifyOptions o;
        static_cast<NetConfig&>(o) = config;
        return run_verify_mst(g, claimed, o).stats.rounds;
    };

    std::vector<std::string> drivers = algorithm_names();
    drivers.push_back("verify");
    for (const std::string& driver : drivers) {
        SCOPED_TRACE(driver);
        const std::uint64_t r = run(driver, NetConfig{}.max_rounds);
        // Exact budget passes...
        EXPECT_NO_THROW(run(driver, r));
        // ...one round less trips the guard with its diagnostic.
        try {
            run(driver, r - 1);
            ADD_FAILURE() << "guard did not fire";
        } catch (const InvariantViolation& e) {
            EXPECT_NE(std::string(e.what()).find("round limit exceeded"),
                      std::string::npos)
                << e.what();
        }
    }
}

// Bandwidth and the worker count are validated once, in make_network, for
// every engine: each driver surfaces bad input as std::invalid_argument,
// never as an internal invariant failure. A negative worker count is
// rejected even where threads is ignored, instead of silently running.
TEST(DriverValidation, BandwidthBelowOneIsRejectedOnEveryEngine)
{
    auto g = make_workload("er", 16, 5);
    auto claimed = ports_from_edges(g, mst_kruskal(g).edges);
    struct Bad {
        int bandwidth;
        int threads;
    };
    for (Engine engine : {Engine::Serial, Engine::Parallel, Engine::Async}) {
        for (const Bad bad : {Bad{0, 1}, Bad{1, -2}}) {
            SCOPED_TRACE(std::string(engine_name(engine)) + " bandwidth " +
                         std::to_string(bad.bandwidth) + " threads " +
                         std::to_string(bad.threads));
            auto opts = [engine, bad](auto o) {
                o.bandwidth = bad.bandwidth;
                o.threads = bad.threads;
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
    NetConfig socket;
    socket.engine = Engine::Socket;
    socket.threads = -2;
    EXPECT_THROW(make_network(g, socket), std::invalid_argument);
}

// The harness's input preconditions, one row per driver: every rooted
// driver rejects a root outside the graph and every spanning driver a
// disconnected graph, each as std::invalid_argument. The forest drivers
// take neither precondition: they return one fragment per component.
TEST(DriverValidation, RootAndConnectivityPreconditionsHoldForEveryDriver)
{
    // Two triangles, no edge between them.
    const auto split = WeightedGraph::from_edges(
        6, {{0, 1, 1}, {1, 2, 2}, {0, 2, 3}, {3, 4, 4}, {4, 5, 5}, {3, 5, 6}});
    const auto connected = make_workload("er", 16, 5);
    const VertexId outside = static_cast<VertexId>(connected.vertex_count());

    struct Row {
        const char* driver;
        bool rooted;
        bool spanning;
        std::function<void(const WeightedGraph&, VertexId)> run;
    };
    auto rooted = [](auto opts, VertexId root) {
        opts.root = root;
        return opts;
    };
    auto by_name = [](const char* name) {
        return [name](const WeightedGraph& g, VertexId) {
            run_algorithm(name, g, NetConfig{});
        };
    };
    const std::vector<Row> rows = {
        {"elkin", true, true,
         [&](const WeightedGraph& g, VertexId root) {
             run_elkin_mst(g, rooted(ElkinOptions{}, root));
         }},
        {"pipeline", true, true,
         [&](const WeightedGraph& g, VertexId root) {
             run_pipeline_mst(g, rooted(PipelineMstOptions{}, root));
         }},
        {"verify", true, true,
         [&](const WeightedGraph& g, VertexId root) {
             std::vector<std::vector<std::size_t>> none(g.vertex_count());
             run_verify_mst(g, none, rooted(VerifyOptions{}, root));
         }},
        {"boruvka", false, true, by_name("boruvka")},
        {"ghs", false, false, by_name("ghs")},
        {"ghs_native", false, false, by_name("ghs_native")},
    };
    for (const Row& row : rows) {
        SCOPED_TRACE(row.driver);
        if (row.rooted)
            EXPECT_THROW(row.run(connected, outside), std::invalid_argument);
        else
            EXPECT_NO_THROW(row.run(connected, outside));
        if (row.spanning)
            EXPECT_THROW(row.run(split, 0), std::invalid_argument);
        else
            EXPECT_NO_THROW(row.run(split, 0));
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
