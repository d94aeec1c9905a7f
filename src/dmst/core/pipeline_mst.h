#ifndef DMST_CORE_PIPELINE_MST_H
#define DMST_CORE_PIPELINE_MST_H

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "dmst/congest/network.h"
#include "dmst/core/driver_harness.h"
#include "dmst/core/controlled_ghs.h"
#include "dmst/graph/graph.h"
#include "dmst/proto/bfs.h"
#include "dmst/proto/pipeline.h"

namespace dmst {

// The Garay-Kutten-Peleg Pipeline-MST baseline [GKP98, KP98], the algorithm
// the paper improves on. Two phases:
//
//   1. Controlled-GHS with k = sqrt(n): an (sqrt(n), O(sqrt(n)))-MST forest.
//   2. Pipeline: every inter-fragment edge is upcast over the BFS tree τ in
//      nondecreasing weight order; each intermediate vertex filters edges
//      that close a cycle in its local union-find over base fragment ids
//      (the "heaviest on a cycle" rule). The root receives exactly the
//      remaining MST edges (a Kruskal run over the fragment graph) and
//      broadcasts them to everyone.
//
// Round complexity O(D + sqrt(n) log* n); message complexity
// Theta(m + n^{3/2}) — each vertex can forward up to |F|-1 = O(sqrt(n))
// edges, and the final broadcast costs O(n sqrt(n)) more. Experiment E6
// contrasts this with the near-linear message count of the Elkin algorithm.

// Substrate knobs come from DriverOptions (core/driver_harness.h); the
// driver forces record_per_round. A sharded run (Engine::Socket) returns
// the local shard's view (see DriverHarness) and root-derived milestones
// only on the rank that owns the root.
struct PipelineMstOptions : DriverOptions {
    VertexId root = 0;
};

struct PipelineMstResult : DriverMstResult {
    std::uint64_t k_used = 0;
    std::uint64_t pipeline_edges = 0;  // edges that reached the root
    // Everything after the Controlled-GHS schedule ends: the Pipeline
    // upcast plus the edge broadcast — the Theta(n^{3/2}) part.
    std::uint64_t phase2_rounds = 0;
    std::uint64_t phase2_messages = 0;
};

class PipelineMstProcess : public Process {
public:
    PipelineMstProcess(VertexId id, std::uint64_t n, const PipelineMstOptions& opts);

    void on_round(Context& ctx) override;
    bool done() const override { return finished_; }

    const std::set<std::size_t>& mst_ports() const { return mst_ports_; }
    std::uint64_t k_used() const { return k_; }
    std::uint64_t pipeline_edges() const { return pipeline_edges_; }
    std::uint64_t ghs_end_round() const { return ghs_end_round_; }

private:
    enum Tag : std::uint32_t {
        kBfsBase = 0,     // 4 tags
        kStartGhs = 4,    // {k, ghs_start}
        kIdExchange = 5,  // {fid, vid}
        kEdgeBcast = 6,   // {ab} pipelined broadcast of accepted edges
        kFinish = 7,      // {} end of the edge broadcast
        kUpcastBase = 8,  // 2 tags
        kGhsBase = 10,    // GhsVertex::kTagCount tags
    };

    bool is_root_vertex() const { return id_ == opts_.root; }
    void begin_pipeline(Context& ctx);
    void pump_broadcast(Context& ctx);
    void mark_if_incident(std::uint64_t packed_edge);

    VertexId id_;
    std::uint64_t n_;
    PipelineMstOptions opts_;
    bool finished_ = false;

    BfsBuilder bfs_;
    std::unique_ptr<GhsVertex> ghs_;
    std::unique_ptr<SortedMergeUpcast> upcast_;

    bool ghs_wave_sent_ = false;
    std::uint64_t k_ = 0;
    std::uint64_t ghs_end_round_ = 0;
    bool pipeline_started_ = false;
    bool local_injected_ = false;
    bool broadcast_started_ = false;
    std::uint64_t pipeline_edges_ = 0;

    std::vector<std::uint64_t> neighbor_fid_;
    std::vector<std::uint64_t> neighbor_vid_;
    std::size_t ids_received_ = 0;

    // Pipelined broadcast queues (per τ-child port): packed edges, then a
    // finish sentinel.
    std::vector<std::deque<std::uint64_t>> bcast_queues_;
    bool finish_seen_ = false;

    std::set<std::size_t> mst_ports_;
};

PipelineMstResult run_pipeline_mst(const WeightedGraph& g,
                                   const PipelineMstOptions& opts);

}  // namespace dmst

#endif  // DMST_CORE_PIPELINE_MST_H
