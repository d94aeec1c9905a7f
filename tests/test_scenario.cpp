#include <gtest/gtest.h>

#include <algorithm>

#include "dmst/exp/workloads.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/sim/scenario.h"
#include "dmst/util/cli.h"
#include "expect_counters.h"

namespace dmst {
namespace {

TEST(Scenario, SweepsFullGridInOrder)
{
    ScenarioSpec spec;
    spec.algorithm = "elkin";
    spec.families = {"er", "grid"};
    spec.sizes = {32, 64};
    spec.bandwidths = {1, 2};
    spec.engines = {Engine::Serial, Engine::Parallel};
    spec.thread_counts = {1, 2};

    std::size_t streamed = 0;
    auto cells = run_scenarios(
        spec, [&](const ScenarioCell& cell) {
            ++streamed;
            EXPECT_TRUE(cell.verify_ran);
            EXPECT_TRUE(cell.verified);
            EXPECT_GT(cell.stats.rounds, 0u);
            EXPECT_GT(cell.mst_weight, 0u);
        });
    // Serial cells collapse the thread axis: per (family, n, bandwidth)
    // there is 1 serial + 2 parallel cells.
    const std::size_t expected = 2 * 2 * 2 * (1 + 2);
    EXPECT_EQ(cells.size(), expected);
    EXPECT_EQ(streamed, expected);

    // Identical complexity counters across the engine/thread axis of each
    // (family, n, bandwidth) slice.
    for (std::size_t i = 0; i < cells.size(); i += 3) {
        EXPECT_EQ(cells[i].stats.rounds, cells[i + 1].stats.rounds);
        EXPECT_EQ(cells[i].stats.messages, cells[i + 2].stats.messages);
        EXPECT_EQ(cells[i].mst_weight, cells[i + 1].mst_weight);
    }
}

TEST(Scenario, CoversAllAlgorithms)
{
    for (const std::string& algo : algorithm_names()) {
        ScenarioSpec spec;
        spec.algorithm = algo;
        spec.families = {"er"};
        spec.sizes = {48};
        spec.engines = {Engine::Serial, Engine::Parallel};
        spec.thread_counts = {2};
        auto cells = run_scenarios(spec);
        ASSERT_EQ(cells.size(), 2u) << algo;
        EXPECT_TRUE(cells[0].verified) << algo;
        EXPECT_TRUE(cells[1].verified) << algo;
        EXPECT_EQ(cells[0].stats.rounds, cells[1].stats.rounds) << algo;
        EXPECT_EQ(cells[0].mst_weight, cells[1].mst_weight) << algo;
    }
}

TEST(Scenario, ModelVerifySelfChecksEveryCell)
{
    ScenarioSpec spec;
    spec.algorithm = "elkin";
    spec.families = {"er", "grid"};
    spec.sizes = {48};
    spec.engines = {Engine::Serial, Engine::Parallel};
    spec.thread_counts = {2};
    spec.model_verify = true;

    auto cells = run_scenarios(spec);
    ASSERT_EQ(cells.size(), 4u);
    for (const auto& cell : cells) {
        EXPECT_TRUE(cell.model_verify_ran);
        EXPECT_TRUE(cell.model_verified);
        EXPECT_GT(cell.verify_stats.rounds, 0u);
        EXPECT_EQ(cell.mutations_run, 5);
        EXPECT_EQ(cell.mutations_passed, cell.mutations_run);
    }
    // The in-model verification is part of the engine-determinism
    // contract: identical counters across the engine axis.
    EXPECT_EQ(cells[0].verify_stats.rounds, cells[1].verify_stats.rounds);
    EXPECT_EQ(cells[0].verify_stats.messages, cells[1].verify_stats.messages);
    EXPECT_EQ(cells[0].verify_stats.words, cells[1].verify_stats.words);
}

TEST(Scenario, ModelVerifySkipsPartialForests)
{
    ScenarioSpec spec;
    spec.algorithm = "ghs";
    spec.families = {"er"};
    spec.sizes = {48};
    spec.model_verify = true;
    auto cells = run_scenarios(spec);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_TRUE(cells[0].verified);
    EXPECT_FALSE(cells[0].model_verify_ran);
}

TEST(Scenario, MutationChecksRejectWithExpectedVerdicts)
{
    auto g = make_workload("er", 56, 7);
    auto mst = mst_kruskal(g);
    for (ForestMutation m : forest_mutations()) {
        auto check = run_forest_mutation(g, mst.edges, m, VerifyOptions{});
        EXPECT_TRUE(check.applicable) << mutation_name(m);
        EXPECT_TRUE(check.passed)
            << mutation_name(m) << ": expected "
            << verify_verdict_name(check.expected) << ", got "
            << verify_verdict_name(check.actual);
        EXPECT_NE(check.expected, VerifyVerdict::Accept) << mutation_name(m);
    }

    // On a tree workload there is nothing to swap in or add, and the
    // foreign BFS tree *is* the MST: the battery degrades gracefully.
    auto tree = make_workload("tree", 32, 7);
    auto tree_mst = mst_kruskal(tree);
    auto swap = run_forest_mutation(tree, tree_mst.edges,
                                    ForestMutation::SwapCycleEdge,
                                    VerifyOptions{});
    EXPECT_FALSE(swap.applicable);
    auto foreign = run_forest_mutation(tree, tree_mst.edges,
                                       ForestMutation::ForeignTreeClaim,
                                       VerifyOptions{});
    EXPECT_TRUE(foreign.applicable);
    EXPECT_EQ(foreign.expected, VerifyVerdict::Accept);
    EXPECT_TRUE(foreign.passed);
}

TEST(Scenario, RejectsUnknownAlgorithmAndEmptyDimensions)
{
    ScenarioSpec spec;
    spec.algorithm = "dijkstra";
    spec.sizes = {16};
    EXPECT_THROW(run_scenarios(spec), std::invalid_argument);

    ScenarioSpec empty;
    empty.sizes = {};
    EXPECT_THROW(run_scenarios(empty), std::invalid_argument);
}

TEST(Scenario, CellJsonContainsEveryField)
{
    ScenarioCell cell;
    cell.algorithm = "elkin";
    cell.family = "grid";
    cell.n = 100;
    cell.m = 180;
    cell.config.bandwidth = 2;
    cell.config.engine = Engine::Parallel;
    cell.config.threads = 8;
    cell.stats.rounds = 42;
    cell.stats.messages = 1234;
    cell.stats.words = 5678;
    cell.wall_ms = 1.5;
    cell.verify_ran = true;
    cell.verified = true;
    cell.mst_weight = 999;

    const std::string json = cell_json(cell);
    for (const char* token :
         {"\"algorithm\":\"elkin\"", "\"family\":\"grid\"", "\"n\":100",
          "\"m\":180", "\"bandwidth\":2", "\"engine\":\"parallel\"",
          "\"threads\":8", "\"rounds\":42", "\"messages\":1234",
          "\"words\":5678", "\"mst_weight\":999", "\"verified\":true"})
        EXPECT_NE(json.find(token), std::string::npos) << token;

    cell.verify_ran = false;
    EXPECT_EQ(cell_json(cell).find("verified"), std::string::npos);

    cell.model_verify_ran = true;
    cell.model_verified = true;
    cell.verify_stats.rounds = 17;
    cell.verify_stats.messages = 170;
    cell.verify_stats.words = 510;
    cell.mutations_run = 5;
    cell.mutations_passed = 5;
    const std::string with_model = cell_json(cell);
    for (const char* token :
         {"\"model_verified\":true", "\"verify_rounds\":17",
          "\"verify_messages\":170", "\"verify_words\":510",
          "\"mutations_passed\":5", "\"mutations_run\":5"})
        EXPECT_NE(with_model.find(token), std::string::npos) << token;
}

TEST(Scenario, ConditionerAxesSweepInvariantCells)
{
    ScenarioSpec spec;
    spec.algorithm = "elkin";
    spec.families = {"er"};
    spec.sizes = {48};
    spec.bandwidths = {2};
    spec.hetero_bs = {0, 1};
    spec.adversarial_orders = {0, 1};
    spec.engines = {Engine::Serial, Engine::Parallel};
    spec.thread_counts = {2};
    spec.model_verify = true;

    auto cells = run_scenarios(spec);
    // 2 hetero x 2 adversarial x (serial + parallel).
    ASSERT_EQ(cells.size(), 2u * 2 * 2);
    const std::uint64_t ideal_weight = cells[0].mst_weight;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto& cell = cells[i];
        // Conditioning never changes the MST or the self-check outcome.
        EXPECT_TRUE(cell.verified) << i;
        EXPECT_TRUE(cell.model_verified) << i;
        EXPECT_EQ(cell.mutations_passed, cell.mutations_run) << i;
        EXPECT_EQ(cell.mst_weight, ideal_weight) << i;
        // Engine pairs within one conditioner point are bit-identical.
        if (i % 2 == 1) {
            EXPECT_EQ(cell.stats.rounds, cells[i - 1].stats.rounds) << i;
            EXPECT_EQ(cell.stats.messages, cells[i - 1].stats.messages) << i;
        }
    }

    const std::string json = cell_json(cells.back());
    for (const char* token : {"\"hetero_b\":true", "\"adversarial_order\":true"})
        EXPECT_NE(json.find(token), std::string::npos) << token;
}

TEST(Scenario, AsyncAxesSweepInvariantCellsAtIdealConditionerOnly)
{
    ScenarioSpec spec;
    spec.algorithm = "elkin";
    spec.families = {"er"};
    spec.sizes = {48};
    spec.adversarial_orders = {0, 1};
    spec.max_delays = {1, 3};
    spec.event_seeds = {1, 2};
    spec.engines = {Engine::Serial, Engine::Async};
    spec.thread_counts = {1, 2};
    spec.model_verify = true;

    auto cells = run_scenarios(spec);
    // Serial runs once per adversarial-order point (async axes and the
    // thread axis collapse); async runs once per (max_delay, event_seed)
    // point at the ideal conditioner only (the thread axis collapses too).
    ASSERT_EQ(cells.size(), 2u + 2 * 2);
    std::size_t async_cells = 0;
    const std::uint64_t ideal_weight = cells[0].mst_weight;
    for (const auto& cell : cells) {
        EXPECT_TRUE(cell.verified);
        EXPECT_TRUE(cell.model_verified);
        EXPECT_EQ(cell.mutations_passed, cell.mutations_run);
        EXPECT_EQ(cell.mst_weight, ideal_weight);
        if (cell.config.engine != Engine::Async)
            continue;
        ++async_cells;
        EXPECT_FALSE(cell.config.conditioner.adversarial_order);
        EXPECT_EQ(cell.config.threads, 1);
        EXPECT_EQ(cell.stats.messages, cells[0].stats.messages);
        EXPECT_EQ(cell.stats.words, cells[0].stats.words);
        EXPECT_GT(cell.stats.events, 0u);
        EXPECT_GE(cell.stats.virtual_time, cell.stats.rounds);
    }
    ASSERT_EQ(async_cells, 4u);

    const auto last_async = std::find_if(
        cells.rbegin(), cells.rend(),
        [](const ScenarioCell& c) {
            return c.config.engine == Engine::Async;
        });
    ASSERT_NE(last_async, cells.rend());
    const std::string json = cell_json(*last_async);
    for (const char* token :
         {"\"engine\":\"async\"", "\"max_delay\":3", "\"event_seed\":2",
          "\"events\":", "\"virtual_time\":", "\"sync_messages\":",
          "\"sync_words\":"})
        EXPECT_NE(json.find(token), std::string::npos) << token;
    // Lock-step cells carry no async fields.
    EXPECT_EQ(cell_json(cells[0]).find("max_delay"), std::string::npos);
}

TEST(Scenario, SyncAxisSweepsSynchronizersAndNativeDispatch)
{
    ScenarioSpec spec;
    spec.algorithm = "ghs_native";
    spec.families = {"er"};
    spec.sizes = {48};
    spec.engines = {Engine::Serial, Engine::Async};
    spec.thread_counts = {1};
    spec.syncs = {SyncMode::Alpha, SyncMode::Beta, SyncMode::None};
    spec.model_verify = true;

    auto cells = run_scenarios(spec);
    // Serial has no synchronizer and collapses to the first sync point;
    // async runs one cell per synchronizer.
    ASSERT_EQ(cells.size(), 1u + 3);
    const auto& serial = cells[0];
    const auto& alpha = cells[1];
    const auto& beta = cells[2];
    const auto& native = cells[3];
    EXPECT_EQ(alpha.config.async.sync, SyncMode::Alpha);
    EXPECT_EQ(beta.config.async.sync, SyncMode::Beta);
    EXPECT_EQ(native.config.async.sync, SyncMode::None);
    for (const auto& cell : cells) {
        EXPECT_TRUE(cell.verified);
        EXPECT_TRUE(cell.model_verified);
        EXPECT_EQ(cell.mutations_passed, cell.mutations_run);
        EXPECT_EQ(cell.mst_weight, serial.mst_weight);
        // Payload traffic is a property of the algorithm, not the
        // synchronizer hosting it.
        EXPECT_EQ(cell.stats.messages, serial.stats.messages);
    }
    // Both synchronizers pay a control plane; the spanning-tree beta
    // synchronizer's is strictly cheaper than alpha's per-edge pulses.
    EXPECT_GT(alpha.stats.sync_messages, 0u);
    EXPECT_GT(beta.stats.sync_messages, 0u);
    EXPECT_LT(beta.stats.sync_messages, alpha.stats.sync_messages);
    // Native dispatch has no synchronizer at all: every event is a
    // payload message.
    EXPECT_EQ(native.stats.sync_messages, 0u);
    EXPECT_EQ(native.stats.sync_words, 0u);
    EXPECT_EQ(native.stats.events, native.stats.messages);

    EXPECT_NE(cell_json(beta).find("\"sync\":\"beta\""), std::string::npos);
    EXPECT_NE(cell_json(native).find("\"sync\":\"none\""), std::string::npos);
    // Lock-step cells carry no sync field.
    EXPECT_EQ(cell_json(serial).find("\"sync\""), std::string::npos);
}

TEST(Scenario, NativeSyncCellsSkippedForRoundProgrammedDrivers)
{
    ScenarioSpec spec;
    spec.algorithm = "boruvka";
    spec.families = {"er"};
    spec.sizes = {48};
    spec.engines = {Engine::Async};
    spec.thread_counts = {1};
    spec.syncs = {SyncMode::Alpha, SyncMode::None};

    auto cells = run_scenarios(spec);
    // A round-programmed driver cannot run without a synchronizer: the
    // sync = none point is skipped, not an error.
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].config.async.sync, SyncMode::Alpha);
    EXPECT_TRUE(cells[0].verified);
}

TEST(Scenario, FaultAxesSweepLossAndCrashCells)
{
    ScenarioSpec spec;
    spec.algorithm = "boruvka";
    spec.families = {"er"};
    spec.sizes = {48};
    spec.engines = {Engine::Serial, Engine::Parallel, Engine::Async};
    spec.thread_counts = {1, 2};
    spec.drop_rates = {0.0, 0.1};
    spec.loss_seeds = {11, 12};
    spec.crash_specs = {{}, parse_crash_spec("5@3")};

    auto cells = run_scenarios(spec);
    // Fault grid: (drop 0, first seed) + 2 lossy seeds = 3 loss points,
    // each crossed with {clean, crash}. Loss is async-only and crash-stop
    // lock-step-only. Serial and async run once; parallel once per thread
    // count. The clean point runs on all 3 engines (4 cells), the crash
    // point on serial and parallel (3), and each lossy clean point on
    // async (2).
    ASSERT_EQ(cells.size(), 4u + 3 + 2);
    for (const auto& cell : cells) {
        const FaultConfig& faults = cell.config.faults;
        EXPECT_TRUE(cell.verified)
            << cell_json(cell);  // loss exact, crash containment
        // Loss never changes the MST (crash cells are partial forests).
        if (!faults.crash_enabled()) {
            EXPECT_EQ(cell.mst_weight, cells[0].mst_weight);
        }
        if (cell.config.engine == Engine::Async) {
            EXPECT_FALSE(faults.crash_enabled());
        } else {
            EXPECT_EQ(faults.drop_rate, 0.0);
        }
        if (faults.drop_rate == 0.0) {
            EXPECT_EQ(cell.stats.drops, 0u);
            EXPECT_EQ(cell.stats.retransmissions, 0u);
            EXPECT_EQ(cell.stats.acks, 0u);
        } else {
            EXPECT_GT(cell.stats.acks, 0u);
        }
        EXPECT_EQ(cell.stats.partial(), faults.crash_enabled());
        if (faults.crash_enabled()) {
            EXPECT_GT(cell.stats.crashed_vertices, 0u);
        }
    }
    // Grid order is (drop_rate, loss_seed, crash, engine, threads):
    // within every fault point the engines and worker counts must agree
    // counter for counter, crash cells on the same partial forest.
    std::size_t compared = 0;
    for (std::size_t i = 1; i < cells.size(); ++i) {
        const auto& prev = cells[i - 1].config.faults;
        const auto& cur = cells[i].config.faults;
        if (cur.drop_rate != prev.drop_rate ||
            cur.loss_seed != prev.loss_seed ||
            cur.crashes.size() != prev.crashes.size())
            continue;
        // The clock and the activation count are engine-specific, and
        // the last clean pair crosses from parallel to async.
        expect_same_counters(cells[i - 1].stats, cells[i].stats,
                             cell_json(cells[i]),
                             {"rounds", "activations", "events",
                              "virtual_time", "sync_messages", "sync_words"});
        EXPECT_EQ(cells[i].mst_weight, cells[i - 1].mst_weight);
        ++compared;
    }
    // 3 clean pairs + 2 crash pairs; each lossy point is a single cell.
    EXPECT_EQ(compared, 3u + 2);
}

TEST(Scenario, CellJsonEmitsFaultFieldsOnlyWhenActive)
{
    ScenarioSpec spec;
    spec.algorithm = "boruvka";
    spec.families = {"er"};
    spec.sizes = {48};
    spec.engines = {Engine::Serial, Engine::Async};
    spec.drop_rates = {0.0, 0.1};
    spec.crash_specs = {{}, parse_crash_spec("5@3")};
    auto cells = run_scenarios(spec);
    // Clean on both engines, crash on serial, loss on async.
    ASSERT_EQ(cells.size(), 4u);
    for (const auto& cell : cells) {
        const std::string json = cell_json(cell);
        const bool lossy = cell.config.faults.loss_enabled();
        const bool crash = cell.config.faults.crash_enabled();
        EXPECT_EQ(json.find("\"drop_rate\"") != std::string::npos, lossy)
            << json;
        EXPECT_EQ(json.find("\"loss_seed\"") != std::string::npos, lossy);
        EXPECT_EQ(json.find("\"retransmissions\"") != std::string::npos,
                  lossy);
        EXPECT_EQ(json.find("\"crash\":\"5@3\"") != std::string::npos,
                  crash);
        EXPECT_EQ(json.find("\"partial\"") != std::string::npos, crash);
        EXPECT_EQ(json.find("\"crashed_vertices\"") != std::string::npos,
                  crash);
    }
}

// The sweep's composition rule is make_network's: over every engine ×
// conditioner point × fault point, plus socket ranks beyond the vertex
// count, run_scenarios emits a cell exactly when make_network accepts
// that NetConfig, and the cell carries it.
TEST(Scenario, EmitsACellExactlyWhenMakeNetworkAccepts)
{
    const std::size_t n = 16;
    const WeightedGraph g = make_workload("er", n, 1);
    struct Conditioner {
        int hetero, adversarial;
    };
    struct Fault {
        double drop_rate;
        const char* crash;
    };
    std::size_t emitted = 0;
    std::size_t rejected = 0;
    for (Engine engine :
         {Engine::Serial, Engine::Parallel, Engine::Async, Engine::Socket}) {
        for (Conditioner c : {Conditioner{0, 0}, Conditioner{1, 0},
                              Conditioner{0, 1}}) {
            for (Fault f : {Fault{0.0, "none"}, Fault{0.1, "none"},
                            Fault{0.0, "5@3"}}) {
                for (int procs : {1, static_cast<int>(n) + 1}) {
                    if (procs > 1 && engine != Engine::Socket)
                        continue;
                    ScenarioSpec spec;
                    spec.algorithm = "boruvka";
                    spec.sizes = {n};
                    spec.engines = {engine};
                    spec.thread_counts = {2};
                    spec.bandwidths = {2};
                    spec.hetero_bs = {c.hetero};
                    spec.adversarial_orders = {c.adversarial};
                    spec.drop_rates = {f.drop_rate};
                    spec.crash_specs = {parse_crash_spec(f.crash)};
                    spec.socket.procs = procs;
                    spec.socket.base_port = 20000;  // never dialled

                    NetConfig config;
                    config.engine = engine;
                    config.bandwidth = 2;
                    config.threads = 2;
                    config.conditioner.hetero_bandwidth = c.hetero != 0;
                    config.conditioner.adversarial_order = c.adversarial != 0;
                    config.faults.drop_rate = f.drop_rate;
                    config.faults.crashes = parse_crash_spec(f.crash);
                    config.socket = spec.socket;
                    bool accepted = true;
                    try {
                        make_network(g, config);
                    } catch (const std::invalid_argument&) {
                        accepted = false;
                    }

                    const auto cells = run_scenarios(spec);
                    SCOPED_TRACE(std::string(engine_name(engine)) +
                                 " hetero " + std::to_string(c.hetero) +
                                 " adversarial " +
                                 std::to_string(c.adversarial) + " drop " +
                                 std::to_string(f.drop_rate) + " crash " +
                                 f.crash + " procs " + std::to_string(procs));
                    ASSERT_EQ(cells.size(), accepted ? 1u : 0u);
                    if (!accepted) {
                        ++rejected;
                        continue;
                    }
                    ++emitted;
                    const NetConfig& ran = cells[0].config;
                    EXPECT_EQ(ran.engine, engine);
                    EXPECT_EQ(ran.conditioner.hetero_bandwidth,
                              config.conditioner.hetero_bandwidth);
                    EXPECT_EQ(ran.conditioner.adversarial_order,
                              config.conditioner.adversarial_order);
                    EXPECT_EQ(ran.faults.drop_rate, f.drop_rate);
                    EXPECT_EQ(ran.faults.crashes.size(),
                              config.faults.crashes.size());
                    EXPECT_EQ(ran.threads,
                              engine == Engine::Parallel ? 2 : 1);
                    EXPECT_TRUE(cells[0].verified);
                }
            }
        }
    }
    // Serial and parallel take every point but loss (3 × 2 each), async
    // only the ideal conditioner without a crash (2), socket only the
    // clean ideal point with one rank (1).
    EXPECT_EQ(emitted, 6u + 6 + 2 + 1);
    EXPECT_EQ(rejected, 3u + 3 + 7 + 17);
}

TEST(Scenario, SplitListParsesFlagValues)
{
    EXPECT_EQ(split_list("er,grid,path"),
              (std::vector<std::string>{"er", "grid", "path"}));
    EXPECT_EQ(split_list(" er , grid "),
              (std::vector<std::string>{"er", "grid"}));
    EXPECT_EQ(split_list(""), std::vector<std::string>{});
    EXPECT_EQ(split_int_list("1,2,8"),
              (std::vector<std::int64_t>{1, 2, 8}));
    EXPECT_THROW(split_int_list("1,two"), std::invalid_argument);
}

}  // namespace
}  // namespace dmst
