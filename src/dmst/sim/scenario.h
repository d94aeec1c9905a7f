#ifndef DMST_SIM_SCENARIO_H
#define DMST_SIM_SCENARIO_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dmst/congest/network_base.h"
#include "dmst/core/verify_mst.h"

namespace dmst {

// Scenario runner: one harness for every (workload family x n x bandwidth
// x engine x thread count) sweep the benches and CI smoke runs need.
// Each grid cell runs one algorithm once and yields a ScenarioCell; cells
// stream through the callback as they finish (for JSON emission) and are
// also returned in grid order.

struct ScenarioSpec {
    // Algorithm under test: elkin | pipeline | boruvka | ghs | ghs_native.
    std::string algorithm = "elkin";
    // Workload families from exp/workloads.h (e.g. er, grid, path, tree).
    std::vector<std::string> families = {"er"};
    std::vector<std::size_t> sizes = {256};
    std::vector<int> bandwidths = {1};
    std::vector<Engine> engines = {Engine::Serial};
    // Worker counts swept for the parallel engine; the serial, async and
    // socket engines run each cell once (threads reported as 1)
    // regardless of this list.
    std::vector<int> thread_counts = {0};
    // Network-conditioner axes (congest/conditioner.h): per-link bandwidth
    // caps (0/1) and adversarial delivery order (0/1). The default grid is
    // the ideal substrate. The conditioner is a lock-step device:
    // async-engine cells run only at the ideal conditioner point (both
    // axes zero) and are skipped elsewhere.
    std::vector<int> hetero_bs = {0};
    std::vector<int> adversarial_orders = {0};
    std::uint64_t conditioner_seed = 7;
    // Event-driven engine axes (sim/async_network.h): per-message delay
    // bound and delay-stream seed. Only async-engine cells sweep them;
    // lock-step engines run at the first point of each axis only.
    std::vector<int> max_delays = {4};
    std::vector<std::uint64_t> event_seeds = {1};
    // Synchronizer axis of the async engine (SyncMode): alpha and beta
    // host every driver and must be bit-identical in payload counters;
    // none (native per-event dispatch) requires a message-driven driver,
    // so such cells run only for algorithm "ghs_native" and are skipped
    // for the round-programmed algorithms. Lock-step engines have no
    // synchronizer and run at the first point of this axis only.
    std::vector<SyncMode> syncs = {SyncMode::Alpha};
    // Fault-injection axes (congest/faults.h): per-link drop probability,
    // loss-stream seed, and crash-stop schedule (parse_crash_spec grammar,
    // "" = none). Loss is async-only (lock-step cells skip drop_rate > 0)
    // and transparent — every lossy cell must verify exactly like its
    // clean twin — so the loss_seed axis collapses to its first point at
    // drop_rate 0. Crash schedules are lock-step only (async cells skip
    // them); a crash cell verifies by containment of the partial forest in
    // the reference MST and skips model_verify (the verifier's input
    // contract is a spanning forest).
    std::vector<double> drop_rates = {0.0};
    std::vector<std::uint64_t> loss_seeds = {11};
    std::vector<std::string> crash_specs = {""};
    // Burst length of the loss shim's drop windows (scalar, not swept).
    int fault_burst = 1;
    std::uint64_t seed = 1;
    // Cross-check the distributed output against sequential Kruskal. For
    // ghs (a partial forest, not a full MST) the check is containment of
    // the chosen edges in the unique MST.
    bool verify = true;
    // Self-checking sweep: after each cell's construction, run the
    // in-model verification protocol (core/verify_mst.h) on the produced
    // forest — same bandwidth/engine/threads — expecting acceptance, then
    // the full forest-mutation battery below, expecting each perturbation
    // to be rejected with a correct witness. Skipped for ghs (its partial
    // forest is not a spanning tree, the verifier's input contract).
    bool model_verify = false;
    // ghs only: the k of Controlled-GHS (fragment diameter budget).
    std::uint64_t ghs_k = 8;
    // Socket backend parameters (Engine::Socket cells only). Not a sweep
    // axis: one scenario_runner process is one rank of one launch, and
    // dmst_launcher fills procs/rank per child. Socket cells run only at
    // the ideal conditioner point with clean faults and a single thread;
    // they are skipped elsewhere (a real transport has real links and
    // real loss). With procs > 1 each rank reports the cell slice it
    // owns: mst_weight counts an edge on the rank owning its lower
    // endpoint (so the ranks' weights sum exactly to the serial cell),
    // and verification checks the owned slice against the reference MST.
    SocketConfig socket;
    // Record the per-phase span trace (obs/trace.h) of the construction
    // run; cells carry it in stats.trace and cell_json emits a per-phase
    // breakdown. Elkin records it regardless (its phase split needs it);
    // this flag adds the JSON breakdown and the other algorithms' traces.
    bool trace = false;
    // Record per-edge message counts; cell_json emits the top-5 hottest
    // edges of each cell.
    bool record_per_edge = false;
};

// One of a cell's hottest edges (spec.record_per_edge): endpoints plus the
// construction run's message count over that edge.
struct HotEdge {
    VertexId u = 0;
    VertexId v = 0;
    std::uint64_t messages = 0;
};

struct ScenarioCell {
    std::string algorithm;
    std::string family;
    std::size_t n = 0;
    std::size_t m = 0;
    int bandwidth = 1;
    // The cell's conditioner point on the (hetero_b, adversarial_order)
    // axes; both false on the ideal substrate.
    bool hetero_b = false;
    bool adversarial_order = false;
    // The cell's async-axes point; meaningful only for async-engine cells
    // (zero otherwise, and absent from their JSON). `sync` names the
    // synchronizer behind the cell (emitted as "sync" in the JSON).
    int max_delay = 0;
    std::uint64_t event_seed = 0;
    SyncMode sync = SyncMode::Alpha;
    // The cell's fault point: loss-shim drop rate and seed (loss_seed is
    // meaningful only when drop_rate > 0) and the crash schedule ("" =
    // none). `partial` reports crash-stop degradation (stats.stalled or
    // crashed vertices); always false on loss-only and clean cells.
    double drop_rate = 0;
    std::uint64_t loss_seed = 0;
    std::string crash;
    bool partial = false;
    Engine engine = Engine::Serial;
    int threads = 1;
    // Socket-engine cells: the launch shape this rank ran in (procs = 1,
    // rank = 0 on every other engine). stats carries the receive-path
    // hardening and transport counters (malformed_frames, net_packets_*,
    // net_bytes_*).
    int procs = 1;
    int rank = 0;
    RunStats stats;
    double wall_ms = 0;          // wall-clock of the simulated run
    bool verify_ran = false;
    bool verified = false;       // meaningful only if verify_ran
    std::uint64_t mst_weight = 0;  // total weight of the edges selected

    // In-model verification (spec.model_verify): the protocol's own
    // verdict on the constructed forest plus its complexity counters, and
    // the mutation battery tally (passed = rejected with the expected
    // verdict and a correct witness).
    bool model_verify_ran = false;
    bool model_verified = false;
    RunStats verify_stats;
    int mutations_run = 0;
    int mutations_passed = 0;

    // Top-5 hottest edges by message count (spec.record_per_edge only).
    std::vector<HotEdge> top_edges;
};

// The names run_algorithm dispatches on: the three MST builders, then the
// two forest drivers.
const std::vector<std::string>& algorithm_names();

// One driver run as the sweeps see it.
struct AlgorithmRun {
    // The edges the driver selected, sorted: the MST for elkin, pipeline
    // and boruvka (a rank's claimed slice on a sharded run, empty for an
    // unconverged boruvka); the claimed forest edges for ghs and
    // ghs_native.
    std::vector<EdgeId> edges;
    RunStats stats;
    bool partial = false;  // crash-stop degraded the run to a subforest
};

// The one name → driver dispatch: runs `algorithm` (one of
// algorithm_names()) on g over the substrate `config`, whose max_rounds
// is an ideal-substrate budget (each driver scales it for loss). ghs_k is
// the k of Controlled-GHS. Throws std::invalid_argument on an unknown name.
AlgorithmRun run_algorithm(const std::string& algorithm, const WeightedGraph& g,
                           const NetConfig& config, std::uint64_t ghs_k = 8);

// Forest perturbations for the self-checking sweeps: each mutates a
// correct MST claim in a way the verification protocol must reject with a
// localized witness.
enum class ForestMutation : std::uint8_t {
    // Swap a non-tree edge for the heaviest tree edge on its cycle: still
    // a spanning tree, strictly heavier. Expect reject_not_minimal with
    // the swapped-in edge as the witness.
    SwapCycleEdge,
    // Drop one tree edge on both endpoints. Expect reject_disconnected
    // with the dropped edge as the witness (cut property).
    DropEdge,
    // Drop one tree edge's mark on a single endpoint. Expect
    // reject_asymmetric with that edge as the witness.
    HalfDropEdge,
    // Additionally claim one non-tree edge. Expect reject_cycle with a
    // witness on the unique claimed cycle.
    AddExtraEdge,
    // Claim a different spanning tree: the (unweighted) BFS tree rooted
    // at n/2 — the "wrong root" forest. Expect reject_not_minimal with a
    // claimed non-MST edge as witness (accept in the rare case the BFS
    // tree *is* the MST, e.g. on tree workloads).
    ForeignTreeClaim,
};

const std::vector<ForestMutation>& forest_mutations();
const char* mutation_name(ForestMutation m);

// Outcome of one mutation check: `expected` is derived from the
// sequential oracle, `passed` requires the protocol's verdict to match it
// and the witness to certify the failure (exact where the mutation pins
// it: DropEdge, HalfDropEdge, SwapCycleEdge).
struct MutationCheck {
    ForestMutation mutation = ForestMutation::SwapCycleEdge;
    bool applicable = false;    // e.g. no non-tree edge exists to swap in
    VerifyVerdict expected = VerifyVerdict::Accept;
    VerifyVerdict actual = VerifyVerdict::Accept;
    EdgeKey witness = kInfiniteEdgeKey;
    bool passed = false;
};

// Perturbs `mst_edges` (a verified-correct MST of g) per `mutation` and
// runs the in-model verification on the result.
MutationCheck run_forest_mutation(const WeightedGraph& g,
                                  const std::vector<EdgeId>& mst_edges,
                                  ForestMutation mutation,
                                  const VerifyOptions& opts);

using ScenarioCallback = std::function<void(const ScenarioCell&)>;

// Runs the full grid; throws std::invalid_argument on an unknown
// algorithm, family, or empty dimension. Cells are produced in
// (family, n, bandwidth, hetero_b, adversarial_order, max_delay,
// event_seed, sync, drop_rate, loss_seed, crash, engine, threads)
// lexicographic grid order. Cells whose axes do not apply to their engine
// are skipped rather than duplicated: lock-step engines run only at the
// first (max_delay, event_seed, sync) point and never on lossy cells, the
// async engine only at the ideal conditioner point and never on crash
// cells; sync = none cells run only for algorithm "ghs_native" (the
// message-driven driver); loss seeds beyond the first are skipped at
// drop_rate 0; only the parallel engine sweeps the thread axis (the
// others run a single threads = 1 cell). The socket engine runs at the
// ideal conditioner, first async point and clean fault point only, and
// skips sizes smaller than its process count (every rank needs a
// non-empty vertex block).
std::vector<ScenarioCell> run_scenarios(const ScenarioSpec& spec,
                                        const ScenarioCallback& on_cell = {});

// One JSON object per cell (single line, no trailing newline) — the
// format scenario_runner emits one row of per line (JSON Lines).
std::string cell_json(const ScenarioCell& cell);

}  // namespace dmst

#endif  // DMST_SIM_SCENARIO_H
