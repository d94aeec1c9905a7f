#ifndef DMST_CORE_SYNC_BORUVKA_H
#define DMST_CORE_SYNC_BORUVKA_H

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "dmst/congest/network.h"
#include "dmst/core/driver_harness.h"
#include "dmst/graph/graph.h"
#include "dmst/proto/bfs.h"

namespace dmst {

// GHS-shaped synchronous Boruvka baseline: fragments merge along their
// MWOEs with no diameter control and no auxiliary BFS tree, representing
// the O(n log n)-time / O(m log n)-message complexity class of
// [GHS83, CT85, Awe87] that the paper's introduction positions against.
//
// Each phase: fragment-id exchange, MWOE convergecast over the physical
// fragment tree, an MWOE announcement broadcast (so that every vertex can
// answer reciprocity queries), merge proposals over MWOEs, re-rooting FLIP
// waves, and NEWID floods from the merge centers (the higher-id fragment of
// each reciprocal MWOE pair). Everything within a phase is event-driven;
// phases are separated by a global synchronizer oracle: the runner waits
// for network quiescence and then kicks the next phase on every vertex
// directly. The oracle sends no messages and is charged no rounds, which
// only *favors* this baseline in the comparisons (DESIGN.md §3).

class SyncBoruvkaProcess : public Process {
public:
    explicit SyncBoruvkaProcess(VertexId id) : id_(id), fid_(id) {}

    // Synchronizer oracle: begin phase j. Called between quiescent periods.
    void kick(int phase);

    void on_round(Context& ctx) override;
    bool done() const override { return !kick_pending_; }

    std::uint64_t fragment_id() const { return fid_; }
    std::size_t parent_port() const { return parent_port_; }
    const std::set<std::size_t>& mst_ports() const { return mst_ports_; }

private:
    enum Tag : std::uint32_t {
        kFid = 0,      // {j, fid, vid}
        kReport,       // {j, w, ab}
        kAnnounce,     // {j, ab}
        kPropose,      // {j, fid, vid}
        kAckProp,      // {j, reciprocal, fid}
        kCenterUp,     // {j}
        kMergeUp,      // {j}
        kFlip,         // {j}
        kCommit,       // {j}
        kNewId,        // {j, fid}
    };

    bool is_root() const { return parent_port_ == kNoPort; }
    void send_report_if_ready(Context& ctx);
    void handle_announce(Context& ctx, std::uint64_t packed_edge);
    void reply_ack(Context& ctx, std::size_t port, std::uint64_t proposer_vid);
    void become_center(Context& ctx);
    void do_flip(Context& ctx);

    VertexId id_;
    std::uint64_t fid_;
    std::size_t parent_port_ = kNoPort;
    std::set<std::size_t> children_;
    std::set<std::size_t> mst_ports_;

    int phase_ = -1;
    bool kick_pending_ = false;

    std::vector<std::uint64_t> neighbor_fid_;
    std::vector<std::uint64_t> neighbor_vid_;
    std::size_t fids_received_ = 0;
    bool local_computed_ = false;

    EdgeKey best_key_ = kInfiniteEdgeKey;
    std::size_t best_local_port_ = kNoPort;
    std::size_t winner_child_ = kNoPort;
    // Signed balance, not a countdown: under crash-stop a vertex whose fid
    // exchange is cut short by a dead neighbor can receive child reports
    // before (or without ever) computing its local MWOE, driving the
    // balance negative until children_.size() is added in.
    std::int64_t reports_pending_ = 0;
    bool report_sent_ = false;

    bool announced_ = false;
    std::uint64_t fragment_edge_ = 0;
    bool gate_ = false;
    std::size_t gate_port_ = kNoPort;
    std::vector<std::pair<std::size_t, std::uint64_t>> queued_proposals_;
    std::optional<std::uint64_t> newid_;
};

// mst_edges stays empty unless the run converged to one fragment; a
// crash-stop partial run (the run stalled before converging) holds the
// partial forest instead (a subset of the true MST by the cut property).
struct SyncBoruvkaResult : DriverMstResult {
    int phases = 0;
    // Fragment structure at the end of the run.
    std::vector<std::uint64_t> fragment_id;
    std::vector<std::size_t> parent_port;
};

// Substrate knobs come from DriverOptions (core/driver_harness.h);
// max_rounds is the budget summed across all phases. A sharded run
// (Engine::Socket) returns the local shard's view (see DriverHarness):
// mst_edges holds the locally claimed edges, to be unioned across ranks.
struct SyncBoruvkaOptions : DriverOptions {};

SyncBoruvkaResult run_sync_boruvka(const WeightedGraph& g,
                                   const SyncBoruvkaOptions& opts = {});

}  // namespace dmst

#endif  // DMST_CORE_SYNC_BORUVKA_H
