#ifndef DMST_CORE_ELKIN_MST_H
#define DMST_CORE_ELKIN_MST_H

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "dmst/congest/network.h"
#include "dmst/core/driver_harness.h"
#include "dmst/core/controlled_ghs.h"
#include "dmst/graph/graph.h"
#include "dmst/proto/bfs.h"
#include "dmst/proto/downcast.h"
#include "dmst/proto/intervals.h"
#include "dmst/proto/pipeline.h"

namespace dmst {

// The deterministic distributed MST algorithm of the paper (Section 3):
//
//   1. Build a BFS tree τ from a designated root; the echo tells the root
//      n and ecc(rt) (a 2-approximation of the hop diameter D).
//   2. The root picks k = max(ceil(sqrt(n/b)), ecc) — the paper's case
//      split between D <= sqrt(n) (k = sqrt(n)) and D > sqrt(n) (k = D),
//      generalized to CONGEST(b log n) — and starts Controlled-GHS at a
//      round known to every vertex, yielding the (n/k, O(k)) base forest.
//   3. τ is labeled with preorder routing intervals; base fragment roots
//      register (fragment id, interval index) at the root by a pipelined
//      convergecast.
//   4. Boruvka phases over logical coarse fragments: each base fragment
//      finds its lightest edge leaving its current coarse fragment by an
//      intra-fragment convergecast, records are pipelined up τ with
//      per-coarse-fragment filtering, the root merges the fragment graph
//      locally and answers each base fragment with an interval-routed
//      downcast; fragment roots broadcast the new coarse id, vertices
//      update neighbors, and an ACK convergecast over τ closes the phase.
//
// Time O((D + sqrt(n/b)) log n), messages O(m log n + n log n log* n).
//
// Documented deviations (DESIGN.md §3): designated root instead of leader
// election; k from ecc(rt) instead of the unknown D.

// Substrate knobs come from DriverOptions (core/driver_harness.h). The
// MST output is invariant across engines, conditioners, and async delay
// points; a sharded run (Engine::Socket) returns the local shard's view
// (see DriverHarness) and root milestones only on the rank owning the
// root. The driver forces record_per_round: the phase-1/phase-2 split
// sums it from the root's registration round.
struct ElkinOptions : DriverOptions {
    VertexId root = 0;          // designated BFS root
    std::optional<std::uint64_t> k_override;  // force the base-forest k
    // Ablation E10b: deliver the per-fragment phase results by flooding
    // every (F, F-hat') record over the whole tree instead of routing each
    // along its own root-destination path ("Note that this downcast sends
    // each message only along its own root-destination path, rather than
    // broadcasting it to the entire graph"). Costs Theta(n) messages per
    // record instead of Theta(D).
    bool broadcast_downcast = false;
};

// DriverMstResult carries the ports, edges and stats; on a partial run
// (stats.partial()) the milestone fields below reflect progress at the
// stall.
struct DistributedMstResult : DriverMstResult {
    // Milestones for the experiment harness.
    std::uint64_t k_used = 0;
    std::uint32_t bfs_ecc = 0;
    std::uint64_t base_fragments = 0;
    int boruvka_phases = 0;
    std::uint64_t bfs_rounds = 0;   // rounds until BFS echo completed
    std::uint64_t ghs_rounds = 0;   // rounds of the Controlled-GHS schedule
    // Phase split: everything from the round registration begins, when the
    // Controlled-GHS schedule ends (registration + Boruvka phases + FINISH)
    // — the part the paper redesigns.
    std::uint64_t phase2_rounds = 0;
    std::uint64_t phase2_messages = 0;
};

// The per-vertex process implementing the pipeline above. Exposed (rather
// than hidden in the runner) so the GKP baseline and the ablation benches
// can reuse its pieces; normal users call run_elkin_mst().
class ElkinProcess : public Process {
public:
    ElkinProcess(VertexId id, std::uint64_t n, const ElkinOptions& opts);

    void on_round(Context& ctx) override;
    bool done() const override { return finished_; }
    // Sleeps until the Controlled-GHS wakeup (forever outside GHS) unless
    // a component or a stage guard of on_round() has message-free work.
    std::uint64_t next_wakeup(const Context& ctx) const override;

    const std::set<std::size_t>& mst_ports() const { return mst_ports_; }

    // Root-only milestones (defaults elsewhere).
    std::uint64_t k_used() const { return k_; }
    std::uint32_t bfs_ecc() const { return ecc_; }
    std::uint64_t base_fragments() const { return registered_.size(); }
    int boruvka_phases() const { return phase_; }
    std::uint64_t bfs_rounds() const { return bfs_done_round_; }
    std::uint64_t ghs_rounds() const
    {
        return ghs_ ? ghs_->schedule().total_rounds() : 0;
    }
    // The round this vertex began registration (0 = not yet): the first
    // round of phase 2, the same on every vertex.
    std::uint64_t registration_round() const { return registration_round_; }

private:
    enum Tag : std::uint32_t {
        kBfsBase = 0,      // 4 tags
        kLabel = 4,
        kDown = 5,
        kStartGhs = 6,     // {k, ghs_start_round}
        kPhaseStart = 7,   // {j}
        kChat = 8,         // {j, coarse}
        kFragReport = 9,   // {j, w, ab, other_coarse}
        kNewCoarse = 10,   // {j, coarse, edge_ab (~0 = none)}
        kMarkCross = 11,   // {}
        kAck = 12,         // {j}
        kFinish = 13,      // {}
        kUpcastBase = 14,  // 2 tags
        kGhsBase = 16,     // GhsVertex::kTagCount tags
        kFlood = 16 + GhsVertex::kTagCount,  // ablation E10b broadcast
    };

    std::uint32_t tag(Tag t) const { return kTagBase + t; }
    static constexpr std::uint32_t kTagBase = 0;

    bool is_root_vertex() const { return id_ == opts_.root; }

    void start_ghs_from_wave(Context& ctx, std::uint64_t k,
                             std::uint64_t start_round);
    void begin_registration(Context& ctx);
    void root_finish_registration(Context& ctx);
    void begin_boruvka_phase(Context& ctx, std::uint64_t j);
    void compute_local_mwoe(Context& ctx);
    void send_frag_report_if_ready(Context& ctx);
    void root_merge_and_downcast(Context& ctx);
    void handle_new_coarse(Context& ctx, std::uint64_t coarse, std::uint64_t edge);
    void maybe_ack(Context& ctx);
    void finish(Context& ctx);
    bool has_local_work(const Context& ctx) const;

    // --- configuration ----------------------------------------------------
    VertexId id_;
    std::uint64_t n_;
    ElkinOptions opts_;
    bool finished_ = false;

    // --- components --------------------------------------------------------
    BfsBuilder bfs_;
    IntervalLabeler labeler_;
    IntervalDowncast downcast_;
    std::unique_ptr<GhsVertex> ghs_;
    std::unique_ptr<SortedMergeUpcast> upcast_;  // registration, then per phase

    // --- stage flags --------------------------------------------------------
    bool labeler_started_ = false;
    bool downcast_attached_ = false;
    bool ghs_wave_sent_ = false;
    std::uint64_t bfs_done_round_ = 0;
    std::uint32_t ecc_ = 0;
    std::uint64_t k_ = 0;
    std::uint64_t registration_round_ = 0;  // 0 until registration began
    bool registration_done_root_ = false;

    // --- fragment state -----------------------------------------------------
    std::uint64_t base_fid_ = 0;
    bool base_root_ = false;
    std::size_t frag_parent_ = kNoPort;
    std::vector<std::size_t> frag_children_;
    std::uint64_t coarse_ = 0;
    std::vector<std::uint64_t> neighbor_coarse_;
    std::vector<std::uint64_t> neighbor_vid_;  // learned from CHAT messages
    std::set<std::size_t> mst_ports_;

    // --- Boruvka phase state -------------------------------------------------
    int phase_ = -1;  // current phase index (root: counts phases run)
    std::uint64_t chats_received_ = 0;
    std::uint64_t chats_next_ = 0;  // CHATs already received for phase+1
    bool mwoe_computed_ = false;
    EdgeKey frag_best_ = kInfiniteEdgeKey;
    std::uint64_t frag_best_other_ = 0;
    std::size_t frag_reports_pending_ = 0;
    bool frag_report_sent_ = false;
    bool got_new_coarse_ = false;
    std::size_t acks_pending_ = 0;
    bool ack_sent_ = false;
    bool downcast_injected_ = false;       // root: this phase's downcast sent
    std::size_t delivered_seen_ = 0;       // consumed downcast deliveries

    // Ablation E10b: flood queues (per τ-child), used instead of the
    // interval downcast when opts_.broadcast_downcast is set. A record is
    // {target index, phase, coarse, edge}.
    std::vector<std::deque<std::array<std::uint64_t, 4>>> flood_queues_;
    void flood_enqueue(const std::array<std::uint64_t, 4>& rec);
    void pump_flood(Context& ctx);

    // --- root bookkeeping ----------------------------------------------------
    struct Registered {
        std::uint64_t fid = 0;
        std::uint64_t index = 0;  // preorder index of the fragment root
    };
    std::vector<Registered> registered_;
    std::map<std::uint64_t, std::uint64_t> coarse_of_;  // fid -> coarse id
};

DistributedMstResult run_elkin_mst(const WeightedGraph& g, const ElkinOptions& opts);

}  // namespace dmst

#endif  // DMST_CORE_ELKIN_MST_H
