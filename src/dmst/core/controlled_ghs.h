#ifndef DMST_CORE_CONTROLLED_GHS_H
#define DMST_CORE_CONTROLLED_GHS_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "dmst/congest/network.h"
#include "dmst/core/driver_options.h"
#include "dmst/graph/graph.h"
#include "dmst/proto/bfs.h"

namespace dmst {

// Controlled-GHS (Section 4 of the paper; [GKP98, KP98, Len16]): builds an
// (n/k, O(k))-MST forest in O(k log* n) rounds with
// O(m log k + n log k log* n) messages.
//
// The algorithm runs ceil(log2 k) phases. In phase i every fragment whose
// rooted height is at most 2^i ("candidate") finds its minimum-weight
// outgoing edge (MWOE) by an intra-fragment convergecast, proposes a merge
// across it, the candidate forest (fragments as vertices, MWOEs as edges)
// is 3-colored with Cole-Vishkin in O(log* n) color exchanges, a maximal
// matching is extracted in three color steps, and matched pairs plus all
// unmatched candidates merge (re-rooting the merging side at its MWOE
// endpoint). Fragment sizes at least double per phase while heights grow
// geometrically, yielding <= 2n/k fragments of height <= 3*2^ceil(log2 k)+4.
//
// Deviation from the paper (documented in DESIGN.md): candidacy is decided
// by root height <= 2^i instead of diameter <= 2^i. Every fragment smaller
// than 2^i vertices still participates, so the size-doubling lemma holds
// verbatim, and the height recurrence keeps fragments at O(k).

// Per-phase stages. All stage lengths are pure functions of (n, k, i), so
// every vertex derives the same timetable locally; within a window the
// protocols are event-driven (waves, convergecasts) with completion slack
// built into the window lengths.
enum class GhsStage : std::uint8_t {
    Fid,     // fragment-id (+vertex-id) exchange with all neighbors
    Mwoe,    // intra-fragment MWOE convergecast; candidacy decided at root
    Cand,    // candidacy broadcast within fragments + neighbor exchange
    Notify,  // root->gate notify along winner path; PROPOSE across the MWOE
    Orient,  // gate->root: does this fragment have a CV-parent?
    Cv,      // Cole-Vishkin DCT + shift-down reduction on the candidate forest
    Mm,      // maximal matching in three color steps
    Merge,   // FLIP re-rooting, COMMIT across MWOEs, NEWID waves
};

// The global timetable of Controlled-GHS.
class GhsSchedule {
public:
    GhsSchedule(std::uint64_t n, std::uint64_t k, std::uint64_t start_round);

    int phases() const { return phases_; }
    std::uint64_t start_round() const { return start_round_; }
    std::uint64_t total_rounds() const { return total_; }
    std::uint64_t end_round() const { return start_round_ + total_; }

    // Window threshold 2^i and stage lengths of phase i.
    static std::uint64_t window(int phase) { return std::uint64_t{1} << phase; }
    // Upper bound on fragment heights entering phase i (H_i <= 3*2^i + 4).
    static std::uint64_t height_bound(int phase) { return 3 * window(phase) + 4; }

    std::uint64_t stage_len(int phase, GhsStage stage) const;
    std::uint64_t phase_len(int phase) const;

    // One Cole-Vishkin color-exchange window: broadcast down the parent
    // fragment (<= 2^i), cross the MWOE, climb to the child root (<= 2^i).
    std::uint64_t cv_window_len(int phase) const { return 2 * window(phase) + 5; }
    int cv_dct_iterations() const { return dct_iterations_; }
    int cv_total_iterations() const { return dct_iterations_ + 6; }

    // One maximal-matching color step: child status down+cross, parent
    // gather, accept down+cross+climb.
    std::uint64_t mm_step_len(int phase) const { return 4 * window(phase) + 10; }

    struct Pos {
        int phase = 0;
        GhsStage stage = GhsStage::Fid;
        std::uint64_t offset = 0;     // 0-based within the stage
        std::uint64_t stage_len = 0;
    };

    // Position of an absolute round within the timetable; nullopt before
    // start_round or at/after end_round. A binary search over the stage
    // table: no stage_len calls, no state, any call order.
    std::optional<Pos> locate(std::uint64_t round) const;

    static constexpr int kStages = 8;  // GhsStage values per phase

private:
    std::uint64_t start_round_;
    int phases_;
    int dct_iterations_;
    std::uint64_t total_ = 0;
    // Start of every (phase, stage) as an offset from start_round_, at
    // index phase * kStages + stage, then one entry holding total_.
    std::vector<std::uint64_t> stage_starts_;
};

// The per-vertex state machine. Embeddable component (like BfsBuilder):
// the owning Process forwards every round; messages with tags outside
// [tag_base, tag_base+19) are ignored.
class GhsVertex {
public:
    GhsVertex(VertexId id, std::uint64_t n, std::uint64_t k,
              std::uint64_t start_round, std::uint32_t tag_base);

    void on_round(Context& ctx);

    bool handles(std::uint32_t tag) const
    {
        return tag >= tag_base_ && tag < tag_base_ + kTagCount;
    }

    const GhsSchedule& schedule() const { return schedule_; }
    bool finished() const { return finished_; }

    // Results (valid once finished).
    std::uint64_t fragment_id() const { return fid_; }
    bool is_fragment_root() const { return parent_port_ == kNoPort; }
    std::size_t parent_port() const { return parent_port_; }
    const std::set<std::size_t>& children_ports() const { return children_; }
    // Ports of incident MST edges discovered so far (= fragment tree edges).
    const std::set<std::size_t>& mst_ports() const { return mst_ports_; }

    static constexpr std::uint32_t kTagCount = 19;

private:
    enum Msg : std::uint32_t {
        kFid = 0,
        kMwoeReport,
        kCandBcast,
        kCandNbr,
        kNotify,
        kPropose,
        kGateInfo,
        kColorDown,
        kColorCross,
        kColorUp,
        kStatusDown,
        kStatusCross,
        kStatusReport,
        kAcceptDown,
        kAcceptCross,
        kAcceptUp,
        kFlip,
        kCommit,
        kNewId,
    };

    std::uint32_t tag(Msg m) const { return tag_base_ + m; }
    Msg msg_of(std::uint32_t t) const { return static_cast<Msg>(t - tag_base_); }

    // --- stage machinery -------------------------------------------------
    void begin_phase(Context& ctx, int phase);
    void process_message(Context& ctx, const GhsSchedule::Pos& pos,
                         const Incoming& in);
    void stage_actions(Context& ctx, const GhsSchedule::Pos& pos);

    void send_mwoe_report_if_ready(Context& ctx, const GhsSchedule::Pos& pos);
    void act_as_gate(Context& ctx, const GhsSchedule::Pos& pos);
    void deliver_color(Context& ctx, std::uint64_t iter, std::uint64_t color);
    void finish_cv_window(Context& ctx, const GhsSchedule::Pos& pos,
                          std::uint64_t iter);
    void send_status_report_if_ready(Context& ctx, const GhsSchedule::Pos& pos,
                                     std::uint64_t step);
    void do_merge_flip(Context& ctx);

    // --- identity / configuration ---------------------------------------
    VertexId id_;
    std::uint64_t n_;
    std::uint32_t tag_base_;
    GhsSchedule schedule_;
    bool finished_ = false;
    // Timetable position of the last activation: consecutive rounds within
    // one stage advance it in place, anything else asks the schedule.
    std::optional<GhsSchedule::Pos> pos_;
    std::uint64_t pos_round_ = 0;

    // --- fragment state (persists across phases) -------------------------
    std::uint64_t fid_;
    std::size_t parent_port_ = kNoPort;
    std::set<std::size_t> children_;
    std::set<std::size_t> mst_ports_;

    // --- per-phase state --------------------------------------------------
    int phase_ = -1;
    std::vector<std::uint64_t> neighbor_fid_;
    std::vector<std::uint64_t> neighbor_vid_;
    std::vector<bool> neighbor_cand_;

    // MWOE convergecast.
    std::size_t reports_pending_ = 0;
    bool report_sent_ = false;
    EdgeKey best_key_ = kInfiniteEdgeKey;
    std::size_t best_local_port_ = kNoPort;  // if the winner is local
    std::size_t winner_child_ = kNoPort;     // child port of winner, or local
    std::uint64_t subtree_height_ = 0;
    bool am_candidate_ = false;  // set at root by decision / by CAND broadcast

    // Gate (MWOE endpoint) state. Proposes are recorded per port and
    // reciprocity is resolved at the Orient stage, because a reciprocal
    // PROPOSE can arrive in the same round as (or before) the NOTIFY that
    // makes this vertex a gate.
    bool gate_ = false;
    std::size_t mwoe_port_ = kNoPort;
    std::map<std::size_t, std::uint64_t> propose_fid_;  // port -> proposer fid
    bool has_cv_parent_ = false;  // root: from GATEINFO; gate: computed

    // Foreign children (proposals received this phase): port -> child fid.
    std::map<std::size_t, std::uint64_t> foreign_fid_;
    std::map<std::size_t, bool> foreign_matched_;

    // Cole-Vishkin (root only holds colors).
    std::uint64_t color_ = 0;
    std::uint64_t old_color_ = 0;
    std::uint64_t shifted_ = 0;
    std::optional<std::uint64_t> parent_color_;

    // Maximal matching.
    bool matched_ = false;
    bool matched_as_parent_ = false;
    bool matched_as_child_ = false;
    std::size_t status_pending_ = 0;
    bool status_sent_ = false;
    std::uint64_t status_best_fid_ = kNoFid;
    std::size_t status_winner_child_ = kNoPort;  // child port or local

    // Merge.
    std::map<std::size_t, bool> committed_;  // foreign ports that committed
    std::optional<std::uint64_t> newid_;     // fid to relay across commits

    static constexpr std::uint64_t kNoFid = ~std::uint64_t{0};
};

// ------------------------------------------------------------------------
// Standalone runner: executes Controlled-GHS on a graph and returns the
// resulting MST forest, for tests, benches and the GKP baseline.

struct MstForestResult {
    std::vector<std::uint64_t> fragment_id;   // per vertex
    std::vector<std::size_t> parent_port;     // per vertex; kNoPort at roots
    std::vector<std::vector<std::size_t>> mst_ports;  // per vertex
    RunStats stats;
    // Crash-stop graceful degradation: the schedule stalled before every
    // vertex finished; the per-vertex views hold the forest built so far.
    bool partial = false;

    std::size_t fragment_count() const;
};

// Substrate knobs (bandwidth/engine/conditioner/faults/...) are inherited
// from DriverOptions. A sharded run (Engine::Socket) fills fragment_id/
// parent_port/mst_ports on [local_begin, local_end) only.
struct GhsOptions : DriverOptions {
    std::uint64_t k = 2;
};

MstForestResult run_controlled_ghs(const WeightedGraph& g, const GhsOptions& opts);

}  // namespace dmst

#endif  // DMST_CORE_CONTROLLED_GHS_H
