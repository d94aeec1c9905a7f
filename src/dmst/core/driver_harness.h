#ifndef DMST_CORE_DRIVER_HARNESS_H
#define DMST_CORE_DRIVER_HARNESS_H

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "dmst/congest/network_base.h"
#include "dmst/core/mst_output.h"
#include "dmst/graph/graph.h"
#include "dmst/proto/bfs.h"
#include "dmst/sim/engine.h"
#include "dmst/util/assert.h"

namespace dmst {

// The substrate knobs of every driver-facing Options struct: each driver's
// Options derives from this and adds only its own knobs (GHS k, Elkin
// root, Borůvka phase cap, ...). max_rounds is a budget in
// ideal-substrate rounds.
struct DriverOptions : NetConfig {
    // This NetConfig with max_rounds scaled by the loss shim's retry bound
    // (scaled_round_budget) — the one place that scaling happens. Drivers
    // layer their own overrides on the returned value.
    NetConfig to_net_config() const;
};

// The output every MST-building driver (Elkin, Pipeline, Borůvka) reports.
struct DriverMstResult {
    // Per-vertex ports of incident MST edges (the required CONGEST output:
    // "every vertex knows which among the edges incident on it belong").
    std::vector<std::vector<std::size_t>> mst_ports;
    // The same edges as sorted global edge ids (see
    // DriverHarness::harvest_edges).
    std::vector<EdgeId> mst_edges;
    // On a crash-stop degraded run (stats.partial()) mst_ports/mst_edges
    // hold the partial forest built so far — a subset of the true MST by
    // the cut property.
    RunStats stats;
};

// What a driver demands of its input graph; the harness throws
// std::invalid_argument otherwise.
struct DriverInput {
    std::optional<VertexId> root;  // rooted drivers: must be a vertex of g
    bool spanning = false;         // spanning drivers: g must be connected
};

void check_driver_input(const WeightedGraph& g, const DriverInput& input);

// A two-stage driver's phase split at a root milestone: the rounds from
// `first` (1-based) to the end of the run and the messages sent in them,
// summed from stats.messages_per_round (the driver sets record_per_round).
// `first` = 0 means the run never reached the milestone: zeros.
struct PhaseSplit {
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
};

PhaseSplit phase_split(const RunStats& stats, std::uint64_t first);

namespace harness_detail {

template <typename R, typename = void>
constexpr bool kHasPorts = false;
template <typename R>
constexpr bool kHasPorts<R, std::void_t<decltype(&R::mst_ports)>> = true;

template <typename R, typename = void>
constexpr bool kHasForest = false;
template <typename R>
constexpr bool kHasForest<R, std::void_t<decltype(&R::parent_port)>> = true;

}  // namespace harness_detail

// Hosts one driver's process type `Proc` on the engine a NetConfig names:
// every step the drivers share, so a run_* function keeps only what is its
// own (its NetConfig overrides, its drive loop, its milestones).
//
//   DriverHarness<P> h(g, config, input, make);  // checks, make_network, init
//   h.run();
//   auto result = h.collect<Result>();           // stats, per-vertex output
//   h.harvest_edges(result);                     // MST builders only
//   if (const P* root = h.root_process(r)) ...   // root milestones
//
// Per-vertex output covers all n vertices. A sharded engine
// (Engine::Socket) hosts only [local_begin, local_end); every vertex
// outside it keeps the remote-vertex defaults — no MST ports, fragment id
// 0, parent port kNoPort — and the caller merges the ranks' slices.
template <typename Proc>
class DriverHarness {
public:
    template <typename Make>
    DriverHarness(const WeightedGraph& g, const NetConfig& config,
                  const DriverInput& input, Make&& make)
        : g_(g)
    {
        check_driver_input(g, input);
        net_ = make_network(g, config);
        net_->init(std::forward<Make>(make));
    }

    NetworkBase& net() { return *net_; }
    Proc& process(VertexId v) { return static_cast<Proc&>(net_->process(v)); }
    const Proc& process(VertexId v) const
    {
        return static_cast<const Proc&>(net_->process(v));
    }

    // Runs to quiescence, or to a crash-stop stall. Multi-epoch drivers
    // (Borůvka's kick loop) call net().run() themselves instead.
    void run() { net_->run(); }

    // Root milestones live in the root's process state: the root's process,
    // or null on a shard that does not own the root.
    const Proc* root_process(VertexId root) const
    {
        return net_->owns(root) ? &process(root) : nullptr;
    }

    // What every driver reports once the network is quiet: stats and, in
    // one pass over the local vertices, the per-vertex output Result
    // declares — mst_ports, and fragment_id/parent_port for forest
    // results. A complete run asserts done() on every local vertex and
    // then calls check(process); a partial one (stats.partial()) skips
    // both.
    template <typename Result>
    Result collect() const
    {
        return collect<Result>([](const Proc&) {});
    }
    template <typename Result, typename Check>
    Result collect(Check&& check) const
    {
        constexpr bool kPorts = harness_detail::kHasPorts<Result>;
        constexpr bool kForest = harness_detail::kHasForest<Result>;
        Result r;
        r.stats = net_->stats();
        const std::size_t n = g_.vertex_count();
        if constexpr (kPorts)
            r.mst_ports.resize(n);
        if constexpr (kForest) {
            r.fragment_id.resize(n);
            r.parent_port.assign(n, kNoPort);
        }
        for (VertexId v = net_->local_begin(); v < net_->local_end(); ++v) {
            const Proc& p = process(v);
            if (!r.stats.partial()) {
                DMST_ASSERT(p.done());
                check(p);
            }
            if constexpr (kPorts) {
                const auto& ports = p.mst_ports();
                r.mst_ports[v].assign(ports.begin(), ports.end());
            }
            if constexpr (kForest) {
                r.fragment_id[v] = p.fragment_id();
                r.parent_port[v] = p.parent_port();
            }
        }
        return r;
    }

    // Names the harvested ports' edges. A complete single-process run is
    // checked strictly: both endpoints agree and the edges span g. A
    // partial or rank-sharded run harvests permissively — the edges its
    // vertices claim (remote port sets are empty here; the cross-rank
    // union is the MST). A complete run that stopped short of one tree
    // (`spanning` false) names no edges.
    void harvest_edges(DriverMstResult& r, bool spanning = true) const
    {
        if (r.stats.partial() || net_->rank_sharded())
            r.mst_edges = collect_claimed_edges(g_, r.mst_ports);
        else if (spanning)
            r.mst_edges = collect_mst_edges(g_, r.mst_ports);
    }

private:
    const WeightedGraph& g_;
    std::unique_ptr<NetworkBase> net_;
};

}  // namespace dmst

#endif  // DMST_CORE_DRIVER_HARNESS_H
