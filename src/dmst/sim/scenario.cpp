#include "dmst/sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dmst/congest/faults.h"
#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/ghs_native.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/pipeline_mst.h"
#include "dmst/core/sync_boruvka.h"
#include "dmst/exp/workloads.h"
#include "dmst/net/peer_table.h"
#include "dmst/obs/trace.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/sim/thread_pool.h"
#include "dmst/util/assert.h"

namespace dmst {

namespace {

// A driver's Options with its substrate slice set to `config` and its own
// knobs at their defaults.
template <typename Opts>
Opts driver_options(const NetConfig& config)
{
    Opts opts;
    static_cast<NetConfig&>(opts) = config;
    return opts;
}

// The k edges with the highest construction-run message counts, ties
// broken by edge id for a deterministic report.
std::vector<HotEdge> hottest_edges(const WeightedGraph& g,
                                   const std::vector<std::uint64_t>& per_edge,
                                   std::size_t k)
{
    std::vector<EdgeId> order(per_edge.size());
    for (EdgeId e = 0; e < order.size(); ++e)
        order[e] = e;
    k = std::min(k, order.size());
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](EdgeId a, EdgeId b) {
                          return per_edge[a] != per_edge[b]
                                     ? per_edge[a] > per_edge[b]
                                     : a < b;
                      });
    std::vector<HotEdge> top;
    top.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        if (per_edge[order[i]] == 0)
            break;  // fewer than k edges ever carried a message
        top.push_back(HotEdge{g.edge(order[i]).u, g.edge(order[i]).v,
                              per_edge[order[i]]});
    }
    return top;
}

// Tree path between the endpoints of non-tree edge `f` within `tree_edges`.
std::vector<EdgeId> tree_path_of(const WeightedGraph& g,
                                 const std::vector<EdgeId>& tree_edges,
                                 EdgeId f)
{
    return tree_path_edges(g, tree_edges, g.edge(f).u, g.edge(f).v);
}

// The (unweighted) BFS tree of g rooted at `root`, in deterministic port
// order — the ForeignTreeClaim forest.
std::vector<EdgeId> bfs_tree_edges(const WeightedGraph& g, VertexId root)
{
    std::vector<EdgeId> tree;
    std::vector<bool> seen(g.vertex_count(), false);
    std::queue<VertexId> q;
    q.push(root);
    seen[root] = true;
    while (!q.empty()) {
        VertexId x = q.front();
        q.pop();
        for (std::size_t p = 0; p < g.degree(x); ++p) {
            VertexId y = g.neighbor(x, p);
            if (seen[y])
                continue;
            seen[y] = true;
            tree.push_back(g.edge_id(x, p));
            q.push(y);
        }
    }
    std::sort(tree.begin(), tree.end());
    return tree;
}

// The deterministically chosen mutation targets: the minimal non-tree
// edge (by EdgeKey) and the maximal tree edge.
EdgeId min_nontree_edge(const WeightedGraph& g, const std::set<EdgeId>& tree)
{
    EdgeId best = kNoEdge;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
        if (tree.count(e))
            continue;
        if (best == kNoEdge || edge_key(g.edge(e)) < edge_key(g.edge(best)))
            best = e;
    }
    return best;
}

}  // namespace

const std::vector<std::string>& algorithm_names()
{
    static const std::vector<std::string> names = {
        "elkin", "pipeline", "boruvka", "ghs", "ghs_native"};
    return names;
}

AlgorithmRun run_algorithm(const std::string& algorithm, const WeightedGraph& g,
                           const NetConfig& config, std::uint64_t ghs_k)
{
    auto tree = [](DriverMstResult&& r) {
        return AlgorithmRun{std::move(r.mst_edges), std::move(r.stats),
                            r.partial};
    };
    auto forest = [&](MstForestResult&& r) {
        return AlgorithmRun{collect_claimed_edges(g, r.mst_ports),
                            std::move(r.stats), r.partial};
    };
    if (algorithm == "elkin")
        return tree(run_elkin_mst(g, driver_options<ElkinOptions>(config)));
    if (algorithm == "pipeline")
        return tree(
            run_pipeline_mst(g, driver_options<PipelineMstOptions>(config)));
    if (algorithm == "boruvka")
        return tree(
            run_sync_boruvka(g, driver_options<SyncBoruvkaOptions>(config)));
    if (algorithm == "ghs") {
        auto opts = driver_options<GhsOptions>(config);
        opts.k = ghs_k;
        return forest(run_controlled_ghs(g, opts));
    }
    if (algorithm == "ghs_native")
        return forest(
            run_ghs_native(g, driver_options<GhsNativeOptions>(config)));
    throw std::invalid_argument(
        "unknown algorithm '" + algorithm +
        "' (expected elkin|pipeline|boruvka|ghs|ghs_native)");
}

const std::vector<ForestMutation>& forest_mutations()
{
    static const std::vector<ForestMutation> all = {
        ForestMutation::SwapCycleEdge, ForestMutation::DropEdge,
        ForestMutation::HalfDropEdge, ForestMutation::AddExtraEdge,
        ForestMutation::ForeignTreeClaim,
    };
    return all;
}

const char* mutation_name(ForestMutation m)
{
    switch (m) {
        case ForestMutation::SwapCycleEdge: return "swap_cycle_edge";
        case ForestMutation::DropEdge: return "drop_edge";
        case ForestMutation::HalfDropEdge: return "half_drop_edge";
        case ForestMutation::AddExtraEdge: return "add_extra_edge";
        case ForestMutation::ForeignTreeClaim: return "foreign_tree_claim";
    }
    return "unknown";
}

MutationCheck run_forest_mutation(const WeightedGraph& g,
                                  const std::vector<EdgeId>& mst_edges,
                                  ForestMutation mutation,
                                  const VerifyOptions& opts)
{
    MutationCheck check;
    check.mutation = mutation;
    const std::set<EdgeId> mst_set(mst_edges.begin(), mst_edges.end());
    const bool has_nontree = g.edge_count() > mst_edges.size();

    std::vector<std::vector<std::size_t>> claimed;
    EdgeKey exact_witness = kInfiniteEdgeKey;   // required witness, if pinned
    std::set<EdgeKey> witness_set;              // allowed witnesses otherwise

    switch (mutation) {
        case ForestMutation::SwapCycleEdge: {
            if (!has_nontree || mst_edges.empty())
                return check;
            EdgeId f = min_nontree_edge(g, mst_set);
            auto path = tree_path_of(g, mst_edges, f);
            EdgeId e = *std::max_element(
                path.begin(), path.end(), [&](EdgeId a, EdgeId b) {
                    return edge_key(g.edge(a)) < edge_key(g.edge(b));
                });
            auto edges = mst_edges;
            edges.erase(std::find(edges.begin(), edges.end(), e));
            edges.push_back(f);
            claimed = ports_from_edges(g, edges);
            check.expected = VerifyVerdict::RejectNotMinimal;
            exact_witness = edge_key(g.edge(f));
            break;
        }
        case ForestMutation::DropEdge: {
            if (mst_edges.empty())
                return check;
            auto edges = mst_edges;
            EdgeId e = *std::max_element(
                edges.begin(), edges.end(), [&](EdgeId a, EdgeId b) {
                    return edge_key(g.edge(a)) < edge_key(g.edge(b));
                });
            edges.erase(std::find(edges.begin(), edges.end(), e));
            claimed = ports_from_edges(g, edges);
            check.expected = VerifyVerdict::RejectDisconnected;
            exact_witness = edge_key(g.edge(e));
            break;
        }
        case ForestMutation::HalfDropEdge: {
            if (mst_edges.empty())
                return check;
            claimed = ports_from_edges(g, mst_edges);
            EdgeId e = mst_edges[mst_edges.size() / 2];
            VertexId u = g.edge(e).u;
            auto& ports = claimed[u];
            ports.erase(std::find(ports.begin(), ports.end(),
                                  g.port_of(u, g.edge(e).v)));
            check.expected = VerifyVerdict::RejectAsymmetric;
            exact_witness = edge_key(g.edge(e));
            break;
        }
        case ForestMutation::AddExtraEdge: {
            if (!has_nontree)
                return check;
            EdgeId f = min_nontree_edge(g, mst_set);
            auto edges = mst_edges;
            edges.push_back(f);
            claimed = ports_from_edges(g, edges);
            check.expected = VerifyVerdict::RejectCycle;
            witness_set.insert(edge_key(g.edge(f)));
            for (EdgeId e : tree_path_of(g, mst_edges, f))
                witness_set.insert(edge_key(g.edge(e)));
            break;
        }
        case ForestMutation::ForeignTreeClaim: {
            auto edges =
                bfs_tree_edges(g, static_cast<VertexId>(g.vertex_count() / 2));
            claimed = ports_from_edges(g, edges);
            if (edges == mst_edges) {
                check.expected = VerifyVerdict::Accept;
            } else {
                check.expected = VerifyVerdict::RejectNotMinimal;
                // Any claimed edge outside the MST certifies.
                for (EdgeId e : edges)
                    if (!mst_set.count(e))
                        witness_set.insert(edge_key(g.edge(e)));
            }
            break;
        }
    }

    check.applicable = true;
    auto r = run_verify_mst(g, claimed, opts);
    check.actual = r.verdict;
    check.witness = r.witness;
    check.passed = check.actual == check.expected;
    if (check.passed && check.actual != VerifyVerdict::Accept) {
        if (exact_witness != kInfiniteEdgeKey)
            check.passed = r.witness == exact_witness;
        else
            check.passed = witness_set.count(r.witness) > 0;
    }
    return check;
}

std::vector<ScenarioCell> run_scenarios(const ScenarioSpec& spec,
                                        const ScenarioCallback& on_cell)
{
    if (spec.families.empty() || spec.sizes.empty() ||
        spec.bandwidths.empty() || spec.engines.empty() ||
        spec.thread_counts.empty() || spec.hetero_bs.empty() || spec.adversarial_orders.empty() ||
        spec.max_delays.empty() || spec.event_seeds.empty() ||
        spec.syncs.empty() || spec.drop_rates.empty() ||
        spec.loss_seeds.empty() || spec.crash_specs.empty())
        throw std::invalid_argument("run_scenarios: empty sweep dimension");

    std::vector<ScenarioCell> cells;
    for (const std::string& family : spec.families) {
        for (std::size_t n : spec.sizes) {
            WeightedGraph g = make_workload(family, n, spec.seed);
            // The reference MST is per (family, n); reuse it across the
            // bandwidth/conditioner/engine/thread dimensions of the grid.
            MstResult reference;
            if (spec.verify)
                reference = mst_kruskal(g);
            std::set<EdgeId> reference_set(reference.edges.begin(),
                                           reference.edges.end());
            for (int bandwidth : spec.bandwidths) {
            for (int hetero : spec.hetero_bs) {
            for (int adversarial : spec.adversarial_orders) {
            for (int max_delay : spec.max_delays) {
            for (std::uint64_t event_seed : spec.event_seeds) {
            for (SyncMode sync : spec.syncs) {
            for (double drop_rate : spec.drop_rates) {
            for (std::uint64_t loss_seed : spec.loss_seeds) {
                // Without loss the seed never enters a draw; sweeping it
                // would duplicate the clean cell.
                if (drop_rate == 0.0 && loss_seed != spec.loss_seeds.front())
                    continue;
            for (const std::string& crash_spec : spec.crash_specs) {
                // The cell's substrate point; the engine loop fills in
                // engine and threads, and the same NetConfig then feeds
                // the driver and the verifier.
                NetConfig point;
                point.bandwidth = bandwidth;
                point.conditioner.hetero_bandwidth = hetero != 0;
                point.conditioner.adversarial_order = adversarial != 0;
                point.conditioner.seed = spec.conditioner_seed;
                point.async.max_delay = max_delay;
                point.async.event_seed = event_seed;
                point.async.sync = sync;
                point.faults.drop_rate = drop_rate;
                point.faults.loss_seed = loss_seed;
                point.faults.burst_len = spec.fault_burst;
                point.faults.crashes = parse_crash_spec(crash_spec);
                point.socket = spec.socket;
                point.trace = spec.trace;
                point.record_per_edge = spec.record_per_edge;
                const FaultConfig& fc = point.faults;
                const bool ideal_conditioner = !point.conditioner.enabled();
                const bool first_async_point =
                    max_delay == spec.max_delays.front() &&
                    event_seed == spec.event_seeds.front() &&
                    sync == spec.syncs.front();
                for (Engine engine : spec.engines) {
                    const bool is_async = engine == Engine::Async;
                    const bool is_socket = engine == Engine::Socket;
                    // Skip axis points that do not apply to the engine,
                    // so each configuration runs exactly once: lock-step
                    // engines do not read the async axes; the async
                    // engine rejects the lock-step conditioner.
                    if (is_async ? !ideal_conditioner : !first_async_point)
                        continue;
                    // Loss lives on the async engine (make_network
                    // rejects it on serial and parallel).
                    const bool lock_step = engine == Engine::Serial ||
                                           engine == Engine::Parallel;
                    if (lock_step && fc.loss_enabled())
                        continue;
                    // The no-synchronizer path hosts message-driven
                    // drivers only; round-programmed algorithms have no
                    // handler surface to dispatch to.
                    if (is_async && sync == SyncMode::None &&
                        spec.algorithm != "ghs_native")
                        continue;
                    // Crash-stop is a lock-step device (the α-synchronizer
                    // has no global round barrier to crash at).
                    if (is_async && fc.crash_enabled())
                        continue;
                    // The socket backend is a real transport: it rejects
                    // the simulated conditioner and fault shims outright
                    // (see make_network), and every rank needs a
                    // non-empty vertex block.
                    if (is_socket &&
                        (!ideal_conditioner || fc.enabled() ||
                         static_cast<std::size_t>(spec.socket.procs) >
                             g.vertex_count()))
                        continue;
                    // Only the parallel engine has workers to sweep.
                    const std::vector<int> single_run = {1};
                    const bool threaded_engine = engine == Engine::Parallel;
                    const auto& threads_axis =
                        threaded_engine ? spec.thread_counts : single_run;
                    for (int threads : threads_axis) {
                        ScenarioCell cell;
                        cell.algorithm = spec.algorithm;
                        cell.family = family;
                        cell.n = g.vertex_count();
                        cell.m = g.edge_count();
                        cell.bandwidth = bandwidth;
                        cell.hetero_b = hetero != 0;
                        cell.adversarial_order = adversarial != 0;
                        if (is_async) {
                            cell.max_delay = max_delay;
                            cell.event_seed = event_seed;
                            cell.sync = sync;
                        }
                        cell.drop_rate = drop_rate;
                        if (drop_rate > 0)
                            cell.loss_seed = loss_seed;
                        cell.crash = crash_spec;
                        cell.engine = engine;
                        cell.threads =
                            threaded_engine ? resolve_threads(threads) : 1;
                        const bool sharded =
                            is_socket && spec.socket.procs > 1;
                        if (is_socket) {
                            cell.procs = spec.socket.procs;
                            cell.rank = spec.socket.rank;
                        }

                        NetConfig config = point;
                        config.engine = engine;
                        config.threads = threads;
                        auto t0 = std::chrono::steady_clock::now();
                        AlgorithmRun run = run_algorithm(spec.algorithm, g,
                                                         config, spec.ghs_k);
                        auto t1 = std::chrono::steady_clock::now();
                        cell.wall_ms =
                            std::chrono::duration<double, std::milli>(t1 - t0)
                                .count();
                        cell.partial = run.partial;
                        cell.stats = std::move(run.stats);
                        // Elkin records a trace unconditionally (its phase
                        // split needs it); only surface it when asked.
                        if (!spec.trace)
                            cell.stats.trace.reset();
                        // A sharded rank harvests the edges incident to
                        // its vertex block; boundary edges appear on both
                        // ranks. An edge belongs to the rank owning its
                        // lower endpoint, so the ranks' weights partition
                        // the total: Σ_rank mst_weight == the serial cell.
                        const PeerTable table(g.vertex_count(),
                                              sharded ? spec.socket.procs : 1);
                        auto owned_here = [&](EdgeId e) {
                            VertexId lo = std::min(g.edge(e).u, g.edge(e).v);
                            return !sharded ||
                                   table.owner(lo) == spec.socket.rank;
                        };
                        std::vector<EdgeId> owned;
                        std::copy_if(run.edges.begin(), run.edges.end(),
                                     std::back_inserter(owned), owned_here);
                        for (EdgeId e : owned)
                            cell.mst_weight += g.edge(e).w;
                        if (spec.record_per_edge)
                            cell.top_edges = hottest_edges(
                                g, cell.stats.messages_per_edge, 5);

                        if (spec.verify) {
                            cell.verify_ran = true;
                            if (spec.algorithm == "ghs" || run.partial ||
                                sharded) {
                                // A Controlled-GHS forest — and any
                                // crash-degraded partial forest — is a
                                // subforest of the unique MST (cut
                                // property); containment is the bar. A
                                // sharded rank additionally owns exactly
                                // the reference edges whose lower endpoint
                                // falls in its block.
                                cell.verified = std::all_of(
                                    run.edges.begin(), run.edges.end(),
                                    [&](EdgeId e) {
                                        return reference_set.count(e) > 0;
                                    });
                                if (sharded && spec.algorithm != "ghs" &&
                                    !run.partial) {
                                    std::vector<EdgeId> ref_owned;
                                    std::copy_if(reference.edges.begin(),
                                                 reference.edges.end(),
                                                 std::back_inserter(ref_owned),
                                                 owned_here);
                                    std::vector<EdgeId> got = owned;
                                    std::sort(got.begin(), got.end());
                                    std::sort(ref_owned.begin(),
                                              ref_owned.end());
                                    cell.verified =
                                        cell.verified && got == ref_owned;
                                }
                            } else {
                                // Loss cells included: the shim is
                                // transparent, so the bar stays exact
                                // equality with the clean oracle.
                                cell.verified =
                                    run.edges == reference.edges;
                            }
                        }

                        if (spec.model_verify && spec.algorithm != "ghs" &&
                            !fc.crash_enabled() && !run.partial &&
                            (!sharded || spec.verify)) {
                            // Self-check inside the model: the constructed
                            // forest must be accepted, every mutation of it
                            // rejected with a correct witness — under the
                            // cell's own conditioner.
                            cell.model_verify_ran = true;
                            auto vo = driver_options<VerifyOptions>(config);
                            // The verification protocol is round-programmed;
                            // on a native (sync = none) cell it still needs
                            // a synchronizer to host it.
                            if (vo.async.sync == SyncMode::None)
                                vo.async.sync = SyncMode::Alpha;
                            // A sharded rank only harvested its slice of
                            // the forest; the verifier needs the whole
                            // claim as input, so sharded cells verify the
                            // oracle's reference MST instead — the same
                            // edge set on every rank, which also keeps
                            // the collective schedules symmetric.
                            const std::vector<EdgeId>& base_edges =
                                sharded ? reference.edges : run.edges;
                            auto claimed = ports_from_edges(g, base_edges);
                            auto vr = run_verify_mst(g, claimed, vo);
                            cell.model_verified = vr.accepted;
                            cell.verify_stats = std::move(vr.stats);
                            for (ForestMutation m : forest_mutations()) {
                                auto mc =
                                    run_forest_mutation(g, base_edges, m, vo);
                                if (!mc.applicable)
                                    continue;
                                ++cell.mutations_run;
                                if (mc.passed)
                                    ++cell.mutations_passed;
                            }
                        }

                        if (on_cell)
                            on_cell(cell);
                        cells.push_back(std::move(cell));
                    }
                }
            }
            }
            }
            }
            }
            }
            }
            }
            }
        }
    }
    return cells;
}

std::string cell_json(const ScenarioCell& cell)
{
    std::ostringstream oss;
    oss << "{\"algorithm\":\"" << cell.algorithm << "\""
        << ",\"family\":\"" << cell.family << "\""
        << ",\"n\":" << cell.n << ",\"m\":" << cell.m
        << ",\"bandwidth\":" << cell.bandwidth
        << ",\"hetero_b\":" << (cell.hetero_b ? "true" : "false")
        << ",\"adversarial_order\":"
        << (cell.adversarial_order ? "true" : "false")
        << ",\"engine\":\"" << engine_name(cell.engine) << "\""
        << ",\"threads\":" << cell.threads
        << ",\"rounds\":" << cell.stats.rounds
        << ",\"messages\":" << cell.stats.messages
        << ",\"words\":" << cell.stats.words
        << ",\"activations\":" << cell.stats.activations
        << ",\"wall_ms\":" << cell.wall_ms
        << ",\"mst_weight\":" << cell.mst_weight;
    if (cell.engine == Engine::Async)
        oss << ",\"max_delay\":" << cell.max_delay
            << ",\"event_seed\":" << cell.event_seed
            << ",\"sync\":\"" << sync_name(cell.sync) << "\""
            << ",\"events\":" << cell.stats.events
            << ",\"virtual_time\":" << cell.stats.virtual_time
            << ",\"sync_messages\":" << cell.stats.sync_messages
            << ",\"sync_words\":" << cell.stats.sync_words;
    // Socket fields only on socket cells, so the other engines' JSONL is
    // unchanged. malformed_frames is an environment counter (stray
    // connections from outside the run), reported but never compared.
    if (cell.engine == Engine::Socket)
        oss << ",\"procs\":" << cell.procs << ",\"rank\":" << cell.rank
            << ",\"malformed_frames\":" << cell.stats.malformed_frames
            << ",\"net_packets_out\":" << cell.stats.net_packets_out
            << ",\"net_packets_in\":" << cell.stats.net_packets_in
            << ",\"net_bytes_out\":" << cell.stats.net_bytes_out
            << ",\"net_bytes_in\":" << cell.stats.net_bytes_in;
    // Fault fields appear only on cells where the axis is active, so
    // clean-grid JSONL stays byte-identical to the pre-fault format.
    if (cell.drop_rate > 0)
        oss << ",\"drop_rate\":" << cell.drop_rate
            << ",\"loss_seed\":" << cell.loss_seed
            << ",\"drops\":" << cell.stats.drops
            << ",\"retransmissions\":" << cell.stats.retransmissions
            << ",\"acks\":" << cell.stats.acks
            << ",\"timeouts\":" << cell.stats.timeouts;
    if (!cell.crash.empty())
        oss << ",\"crash\":\"" << cell.crash << "\""
            << ",\"crashed_vertices\":" << cell.stats.crashed_vertices
            << ",\"failed_sends\":" << cell.stats.failed_sends
            << ",\"partial\":" << (cell.partial ? "true" : "false");
    if (cell.verify_ran)
        oss << ",\"verified\":" << (cell.verified ? "true" : "false");
    if (cell.model_verify_ran)
        oss << ",\"model_verified\":" << (cell.model_verified ? "true" : "false")
            << ",\"verify_rounds\":" << cell.verify_stats.rounds
            << ",\"verify_messages\":" << cell.verify_stats.messages
            << ",\"verify_words\":" << cell.verify_stats.words
            << ",\"mutations_passed\":" << cell.mutations_passed
            << ",\"mutations_run\":" << cell.mutations_run;
    if (cell.stats.trace) {
        oss << ",\"phases\":[";
        bool first = true;
        for (const TraceSpan& s : cell.stats.trace->spans) {
            if (!first)
                oss << ",";
            first = false;
            oss << "{\"phase\":\"" << trace_phase_name(s.phase) << "\""
                << ",\"level\":" << s.level
                << ",\"messages\":" << s.messages
                << ",\"words\":" << s.words
                << ",\"first_round\":" << s.first_round
                << ",\"last_round\":" << s.last_round << "}";
        }
        oss << "]";
    }
    if (!cell.top_edges.empty()) {
        oss << ",\"top_edges\":[";
        bool first = true;
        for (const HotEdge& e : cell.top_edges) {
            if (!first)
                oss << ",";
            first = false;
            oss << "{\"u\":" << e.u << ",\"v\":" << e.v
                << ",\"messages\":" << e.messages << "}";
        }
        oss << "]";
    }
    oss << "}";
    return oss.str();
}

}  // namespace dmst
