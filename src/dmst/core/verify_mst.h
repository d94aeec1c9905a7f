#ifndef DMST_CORE_VERIFY_MST_H
#define DMST_CORE_VERIFY_MST_H

#include <cstdint>
#include <vector>

#include "dmst/congest/network.h"
#include "dmst/core/driver_harness.h"
#include "dmst/graph/graph.h"
#include "dmst/proto/bfs.h"
#include "dmst/proto/intervals.h"
#include "dmst/proto/verify.h"

namespace dmst {

// Distributed MST verification in CONGEST (cf. Kor–Korman–Peleg, "Tight
// Bounds for Distributed Minimum-Weight Spanning Tree Verification"):
// every vertex marks the incident ports it claims as tree edges, and the
// protocol decides — deterministically, in-model — whether the marked
// edge set is the (unique, under the EdgeKey order) MST, localizing a
// witness edge when it is not.
//
// The protocol (core/verify_mst.cpp drives, proto/verify.{h,cpp} holds
// the pipelined components):
//
//   1. HELLO: every edge exchanges (vertex id, marked bit). Asymmetric
//      marks are witnessed locally; the symmetric intersection is the
//      claimed edge set from here on.
//   2. Spanning check: a BFS tree τ over the whole graph (BfsBuilder)
//      and a BFS restricted to claimed edges (MarkedTreeBuilder) run
//      concurrently from the root. The claimed BFS discovers the root's
//      claimed component; claimed edges resolving as non-children closed
//      claimed cycles. A snapshot convergecast over τ aggregates claimed/
//      non-tree port counts and the minimal asymmetry/cycle witnesses.
//      If the claimed component misses vertices, one more τ-coordinated
//      exchange finds the lightest edge crossing the component cut — by
//      the cut property an MST edge absent from the claim, the natural
//      disconnection witness.
//   3. Minimality check: the claimed tree is preorder-interval-labeled
//      (IntervalLabeler), indices are exchanged across all edges, and
//      every non-tree edge is checked against the cycle-max invariant
//      ("a spanning tree is the MST iff every non-tree edge is heaviest
//      on its tree cycle") by PathMaxTokens: per edge, two tokens climb
//      the claimed tree to their LCA, aggregating the path maximum, and
//      the pair resolves there. A monotone pair-count convergecast over
//      τ tells the root when all m - (n-1) queries resolved; the verdict
//      (with the minimal violation, if any) is broadcast, so every
//      vertex ends knowing accept/reject and the witness.
//
// Rounds O(D + h + q/b) and messages O(m + q·h + q·D) for claimed-tree
// height h and q = m - n + 1 non-tree edges (bench/paper_gates.cpp asserts
// both budgets). Every message fits the b = 1 word budget
// alongside the concurrent control traffic, so no stage multiplexing is
// needed.

enum class VerifyVerdict : std::uint8_t {
    Accept = 0,
    // A port marked on one endpoint only; witness = that edge.
    RejectAsymmetric,
    // The claimed edges do not span; witness = the lightest edge crossing
    // the cut around the root's claimed component (an MST edge, by the
    // cut property, missing from the claim).
    RejectDisconnected,
    // The claimed edges contain a cycle; witness = a claimed edge closing
    // a cycle among claimed edges.
    RejectCycle,
    // Spanning tree, but not minimal; witness = a claimed edge heavier
    // than `offender`, a non-tree edge whose claimed-tree path contains
    // it (swapping the two strictly improves the tree).
    RejectNotMinimal,
};

const char* verify_verdict_name(VerifyVerdict verdict);

// Substrate knobs come from DriverOptions (core/driver_harness.h); the
// verdict and witness are invariant under conditioning, async delay
// points, and loss. Crash-stop is NOT meaningfully supported here: a
// verifier cannot produce a verdict about vertices that stopped
// answering, so a crash-stalled run (stats.partial()) returns accepted =
// false and an unspecified verdict. On Engine::Socket the verdict is
// flooded to every vertex, so a sharded run still reports it (read from a
// local vertex); the root-only milestone fields are filled only on the
// rank that owns the root.
struct VerifyOptions : DriverOptions {
    VertexId root = 0;  // designated verification root (any vertex works)
};

struct VerifyMstResult {
    bool accepted = false;
    VerifyVerdict verdict = VerifyVerdict::Accept;
    EdgeKey witness = kInfiniteEdgeKey;   // see the verdict comments above
    EdgeKey offender = kInfiniteEdgeKey;  // RejectNotMinimal only
    RunStats stats;

    // Milestones for the bench budgets.
    std::uint64_t component_size = 0;  // of the root's claimed component
    std::uint64_t claimed_edges = 0;   // symmetric claimed edge count
    std::uint64_t nontree_edges = 0;   // cycle-max queries issued
    std::uint32_t tau_height = 0;      // height of τ at the root
    std::uint32_t claimed_height = 0;  // height of the claimed component
};

// The per-vertex verification process; exposed so benches and the
// scenario harness can embed it. Normal users call run_verify_mst().
class VerifyMstProcess : public Process {
public:
    VerifyMstProcess(VertexId id, std::uint64_t n,
                     std::vector<std::size_t> claimed_ports,
                     const VerifyOptions& opts);

    void on_round(Context& ctx) override;
    bool done() const override { return finished_; }

    VerifyVerdict verdict() const { return verdict_; }
    EdgeKey witness() const { return witness_; }
    EdgeKey offender() const { return offender_; }

    // Root-only milestones (defaults elsewhere).
    std::uint64_t component_size() const;
    std::uint64_t claimed_edges() const { return claimed_sum_ / 2; }
    std::uint64_t nontree_edges() const { return expected_pairs_; }
    std::uint32_t tau_height() const { return bfs_.subtree_height(); }
    std::uint32_t claimed_height() const { return marked_.subtree_height(); }

private:
    enum Tag : std::uint32_t {
        kBfsBase = 0,     // 4 tags: τ BFS
        kHello = 4,       // {vid, marked}
        kMarkedBase = 5,  // 4 tags: claimed BFS
        kSnap = 9,        // {} wave down τ: freeze and report
        kSnapshot = 10,   // {claimed, nontree, asym, cycle} up τ
        kCutFind = 11,    // {} wave down τ: locate the component cut
        kSide = 12,       // {in_component} across every edge
        kCutReport = 13,  // {min crossing EdgeKey} up τ
        kLabel = 14,      // claimed-tree interval ASSIGN
        kIndex = 15,      // {claimed preorder index} across every edge
        kToken = 16,      // cycle-max query halves up the claimed tree
        kCount = 17,      // {pairs, witness, offender} up τ
        kFinal = 18,      // {verdict, witness, offender} down τ
    };

    bool is_root_vertex() const { return id_ == opts_.root; }

    void read_hellos(Context& ctx);
    void root_maybe_snap(Context& ctx);
    void maybe_send_snapshot(Context& ctx);
    void root_resolve_spanning(Context& ctx);
    void start_cut_stage(Context& ctx);
    void maybe_send_cut_report(Context& ctx);
    void start_minimality(Context& ctx);
    void maybe_inject_tokens(Context& ctx);
    void pump_count(Context& ctx);
    void finish(Context& ctx, VerifyVerdict verdict, const EdgeKey& witness,
                const EdgeKey& offender);

    // --- configuration ----------------------------------------------------
    VertexId id_;
    std::uint64_t n_;
    VerifyOptions opts_;
    std::vector<std::size_t> claimed_input_;  // ports marked by this vertex
    bool finished_ = false;

    // --- components -------------------------------------------------------
    BfsBuilder bfs_;            // τ over the whole graph
    MarkedTreeBuilder marked_;  // BFS over the claimed edges
    IntervalLabeler labeler_;   // preorder intervals of the claimed tree
    PathMaxTokens tokens_;      // cycle-max queries

    // --- HELLO state ------------------------------------------------------
    bool hello_sent_ = false;
    bool hellos_read_ = false;
    std::vector<std::uint8_t> marked_self_;     // per port
    std::vector<std::uint8_t> marked_other_;    // per port
    std::vector<std::uint64_t> neighbor_vid_;   // per port
    std::vector<std::uint8_t> claimed_;         // symmetric intersection
    EdgeKey asym_witness_ = kInfiniteEdgeKey;
    std::size_t claimed_degree_ = 0;

    // --- snapshot convergecast --------------------------------------------
    struct SnapshotAcc {
        std::uint64_t claimed_ports = 0;
        std::uint64_t nontree_ports = 0;
        EdgeKey asym = kInfiniteEdgeKey;
        EdgeKey cycle = kInfiniteEdgeKey;
    };
    bool snap_seen_ = false;           // wave received (root: sent)
    bool snapshot_sent_ = false;
    std::size_t snapshots_pending_ = 0;
    SnapshotAcc snapshot_acc_;         // own + children, merged
    bool root_spanning_resolved_ = false;

    // --- cut stage --------------------------------------------------------
    bool cut_seen_ = false;
    std::size_t sides_heard_ = 0;
    EdgeKey cut_min_ = kInfiniteEdgeKey;
    std::size_t cut_reports_pending_ = 0;
    bool cut_report_sent_ = false;

    // --- minimality stage -------------------------------------------------
    bool minimality_started_ = false;   // root: labeling kicked off
    bool index_sent_ = false;
    std::vector<std::uint64_t> neighbor_index_;  // per port; ~0 = unknown
    std::vector<std::uint8_t> token_injected_;   // per port
    std::size_t tokens_uninjected_ = 0;          // non-claimed ports left
    std::uint64_t expected_pairs_ = 0;           // root only
    std::uint64_t claimed_sum_ = 0;              // root only (2x edges)

    // Pair-count convergecast: latest count per τ child plus local, with
    // the minimal violation folded in; resent up τ whenever it grows.
    std::vector<std::uint64_t> child_pairs_;     // indexed like τ children
    CycleMaxViolation count_violation_;
    std::uint64_t last_sent_pairs_ = 0;

    // --- verdict ----------------------------------------------------------
    VerifyVerdict verdict_ = VerifyVerdict::Accept;
    EdgeKey witness_ = kInfiniteEdgeKey;
    EdgeKey offender_ = kInfiniteEdgeKey;
};

// Runs the verification protocol over `claimed_ports` (per-vertex marked
// ports, the CONGEST input: every vertex knows which of its incident
// edges are claimed). Requires a connected graph; throws
// std::invalid_argument on out-of-range ports. The per-vertex verdicts
// are asserted identical and returned once.
VerifyMstResult run_verify_mst(
    const WeightedGraph& g,
    const std::vector<std::vector<std::size_t>>& claimed_ports,
    const VerifyOptions& opts = {});

}  // namespace dmst

#endif  // DMST_CORE_VERIFY_MST_H
