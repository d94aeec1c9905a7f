#include "dmst/core/sync_boruvka.h"

#include <algorithm>
#include <map>
#include <set>

#include "dmst/congest/codec.h"
#include "dmst/obs/trace.h"
#include "dmst/util/assert.h"
#include "dmst/util/intmath.h"

namespace dmst {

namespace {

std::uint64_t pack_edge(VertexId a, VertexId b)
{
    return (std::uint64_t{std::min(a, b)} << 32) | std::max(a, b);
}

}  // namespace

void SyncBoruvkaProcess::kick(int phase)
{
    DMST_ASSERT(phase == phase_ + 1);
    phase_ = phase;
    kick_pending_ = true;

    fids_received_ = 0;
    local_computed_ = false;
    best_key_ = kInfiniteEdgeKey;
    best_local_port_ = kNoPort;
    winner_child_ = kNoPort;
    reports_pending_ = 0;
    report_sent_ = false;
    announced_ = false;
    fragment_edge_ = 0;
    gate_ = false;
    gate_port_ = kNoPort;
    queued_proposals_.clear();
    newid_.reset();
}

void SyncBoruvkaProcess::send_report_if_ready(Context& ctx)
{
    if (report_sent_ || !local_computed_ || reports_pending_ > 0)
        return;
    report_sent_ = true;
    const std::uint64_t j = static_cast<std::uint64_t>(phase_);
    if (!is_root()) {
        ctx.send(parent_port_, encode(kReport, EdgeReportMsg{j, best_key_}));
        return;
    }
    // Fragment root: announce the MWOE (if any) to the whole fragment.
    if (best_key_ == kInfiniteEdgeKey)
        return;  // fragment spans the graph; stays idle
    handle_announce(ctx, pack_edge(best_key_.a, best_key_.b));
}

void SyncBoruvkaProcess::handle_announce(Context& ctx, std::uint64_t packed_edge)
{
    announced_ = true;
    fragment_edge_ = packed_edge;
    const std::uint64_t j = static_cast<std::uint64_t>(phase_);
    for (std::size_t c : children_)
        ctx.send(c, encode(kAnnounce, PhaseValueMsg{j, packed_edge}));

    VertexId a = static_cast<VertexId>(packed_edge >> 32);
    VertexId b = static_cast<VertexId>(packed_edge & 0xFFFFFFFFULL);
    if (id_ == a || id_ == b) {
        VertexId other = id_ == a ? b : a;
        for (std::size_t port = 0; port < neighbor_vid_.size(); ++port) {
            if (neighbor_vid_[port] == other && neighbor_fid_[port] != fid_) {
                gate_ = true;
                gate_port_ = port;
                ctx.send(port, encode(kPropose, FidMsg{j, fid_, id_}));
                break;
            }
        }
        DMST_ASSERT_MSG(gate_, "MWOE endpoint lost its crossing port");
    }

    for (const auto& [port, vid] : queued_proposals_)
        reply_ack(ctx, port, vid);
    queued_proposals_.clear();
}

void SyncBoruvkaProcess::reply_ack(Context& ctx, std::size_t port,
                                   std::uint64_t proposer_vid)
{
    const std::uint64_t j = static_cast<std::uint64_t>(phase_);
    std::uint64_t edge = pack_edge(id_, static_cast<VertexId>(proposer_vid));
    ctx.send(port, encode(kAckProp, AckPropMsg{j, edge == fragment_edge_, fid_}));
}

void SyncBoruvkaProcess::become_center(Context& ctx)
{
    const std::uint64_t j = static_cast<std::uint64_t>(phase_);
    newid_ = fid_;
    for (std::size_t c : children_)
        ctx.send(c, encode(kNewId, PhaseValueMsg{j, fid_}));
}

void SyncBoruvkaProcess::do_flip(Context& ctx)
{
    const std::uint64_t j = static_cast<std::uint64_t>(phase_);
    if (winner_child_ == kNoPort) {
        DMST_ASSERT(gate_);
        parent_port_ = gate_port_;
        mst_ports_.insert(gate_port_);
        ctx.send(gate_port_, encode(kCommit, PhaseOnlyMsg{j}));
    } else {
        children_.erase(winner_child_);
        parent_port_ = winner_child_;
        ctx.send(winner_child_, encode(kFlip, PhaseOnlyMsg{j}));
    }
}

void SyncBoruvkaProcess::on_round(Context& ctx)
{
    // One span per Boruvka phase; every send of the round belongs to the
    // phase the driver kicked last.
    TraceScope trace_span(ctx, TracePhase::Boruvka,
                          std::max<std::int64_t>(phase_, 0));
    if (kick_pending_) {
        kick_pending_ = false;
        if (neighbor_fid_.empty() && ctx.degree() > 0) {
            neighbor_fid_.assign(ctx.degree(), 0);
            neighbor_vid_.assign(ctx.degree(), 0);
        }
        const std::uint64_t j = static_cast<std::uint64_t>(phase_);
        for (std::size_t port = 0; port < ctx.degree(); ++port)
            ctx.send(port, encode(kFid, FidMsg{j, fid_, id_}));
    }

    for (const Incoming& in : ctx.inbox()) {
        DMST_ASSERT_MSG(static_cast<std::int64_t>(peek_phase(in.msg)) == phase_,
                        "message from a different phase");
        const std::uint64_t j = static_cast<std::uint64_t>(phase_);
        switch (in.msg.tag) {
        case kFid: {
            auto m = decode<FidMsg>(in.msg);
            neighbor_fid_.at(in.port) = m.fid;
            neighbor_vid_.at(in.port) = m.vid;
            ++fids_received_;
            break;
        }
        case kReport: {
            --reports_pending_;
            auto m = decode<EdgeReportMsg>(in.msg);
            if (m.key < best_key_) {
                best_key_ = m.key;
                winner_child_ = in.port;
            }
            break;
        }
        case kAnnounce:
            handle_announce(ctx, decode<PhaseValueMsg>(in.msg).value);
            break;
        case kPropose: {
            auto m = decode<FidMsg>(in.msg);
            if (announced_)
                reply_ack(ctx, in.port, m.vid);
            else
                queued_proposals_.emplace_back(in.port, m.vid);
            break;
        }
        case kAckProp: {
            DMST_ASSERT(gate_ && in.port == gate_port_);
            auto m = decode<AckPropMsg>(in.msg);
            if (m.reciprocal && fid_ > m.fid) {
                // This fragment is the center of its merge component.
                if (is_root())
                    become_center(ctx);
                else
                    ctx.send(parent_port_, encode(kCenterUp, PhaseOnlyMsg{j}));
            } else {
                if (is_root())
                    do_flip(ctx);
                else
                    ctx.send(parent_port_, encode(kMergeUp, PhaseOnlyMsg{j}));
            }
            break;
        }
        case kCenterUp:
            if (is_root())
                become_center(ctx);
            else
                ctx.send(parent_port_, encode(kCenterUp, PhaseOnlyMsg{j}));
            break;
        case kMergeUp:
            if (is_root())
                do_flip(ctx);
            else
                ctx.send(parent_port_, encode(kMergeUp, PhaseOnlyMsg{j}));
            break;
        case kFlip:
            DMST_ASSERT(in.port == parent_port_);
            children_.insert(in.port);
            do_flip(ctx);
            break;
        case kCommit:
            children_.insert(in.port);
            mst_ports_.insert(in.port);
            if (newid_)
                ctx.send(in.port, encode(kNewId, PhaseValueMsg{j, *newid_}));
            break;
        case kNewId:
            fid_ = decode<PhaseValueMsg>(in.msg).value;
            newid_ = fid_;
            for (std::size_t c : children_) {
                if (c != in.port)
                    ctx.send(c, encode(kNewId, PhaseValueMsg{j, fid_}));
            }
            break;
        default:
            DMST_ASSERT_MSG(false, "unknown tag");
        }
    }

    if (!local_computed_ && fids_received_ == ctx.degree() && phase_ >= 0) {
        local_computed_ = true;
        reports_pending_ += static_cast<std::int64_t>(children_.size());
        for (std::size_t port = 0; port < ctx.degree(); ++port) {
            if (neighbor_fid_[port] == fid_)
                continue;
            VertexId other = static_cast<VertexId>(neighbor_vid_[port]);
            EdgeKey key{ctx.weight(port), std::min(id_, other),
                        std::max(id_, other)};
            if (key < best_key_) {
                best_key_ = key;
                best_local_port_ = port;
                winner_child_ = kNoPort;
            }
        }
    }
    send_report_if_ready(ctx);
}

SyncBoruvkaResult run_sync_boruvka(const WeightedGraph& g,
                                   const SyncBoruvkaOptions& opts)
{
    DriverHarness<SyncBoruvkaProcess> h(
        g, opts.to_net_config(), {std::nullopt, true},
        [](VertexId v) { return std::make_unique<SyncBoruvkaProcess>(v); });
    NetworkBase& net = h.net();
    const std::size_t n = g.vertex_count();

    auto fragment_count = [&] {
        std::set<std::uint64_t> ids;
        for (VertexId v = 0; v < n; ++v)
            ids.insert(h.process(v).fragment_id());
        return ids.size();
    };

    // Global "more than one fragment left?" predicate that also works when
    // the engine only owns a shard of the vertices: a local scan plus one
    // 3-word OR-allreduce. Converged iff no rank saw two distinct local
    // fids (word 0) and the global ORs of fid and ~fid admit one value —
    // two distinct fids anywhere differ in some bit, which then lands in
    // both ORs. A collective: every rank calls it at the same points,
    // which the deterministic phase loop guarantees.
    auto multiple_fragments = [&] {
        std::uint64_t words[3] = {0, 0, 0};
        bool first = true;
        std::uint64_t first_fid = 0;
        for (VertexId v = net.local_begin(); v < net.local_end(); ++v) {
            const std::uint64_t fid = h.process(v).fragment_id();
            words[1] |= fid;
            words[2] |= ~fid;
            if (first) {
                first_fid = fid;
                first = false;
            } else if (fid != first_fid) {
                words[0] = 1;
            }
        }
        net.allreduce_or(words, 3);
        return words[0] != 0 || (words[1] & words[2]) != 0;
    };

    int phases = 0;
    const int phase_guard = ceil_log2(std::max<std::uint64_t>(n, 2)) + 2;
    // The no-progress detector below is crash-only, and crash-stop never
    // composes with a sharded engine, so the global count stays valid.
    std::size_t fragments =
        opts.faults.crash_enabled() ? fragment_count() : 0;
    bool converged = !multiple_fragments();
    while (!converged) {
        // Under crash-stop the guard is a degradation point, not an
        // invariant: dead merge centers slow (or end) convergence.
        if (opts.faults.crash_enabled() && phases >= phase_guard)
            break;
        DMST_ASSERT_MSG(phases < phase_guard, "Boruvka did not converge");
        for (VertexId v = net.local_begin(); v < net.local_end(); ++v)
            h.process(v).kick(phases);
        net.run();
        ++phases;
        // A crash-stalled network never merges further, and neither does a
        // quiescent one whose phase merged nothing (the cut at the dead
        // vertices is permanent); kicking again would spin until the guard.
        if (net.stats().stalled)
            break;
        if (opts.faults.crash_enabled()) {
            const std::size_t now = fragment_count();
            if (now == fragments)
                break;
            fragments = now;
        }
        converged = !multiple_fragments();
    }

    auto result = h.collect<SyncBoruvkaResult>();
    result.phases = phases;
    h.harvest_edges(result, converged);
    return result;
}

}  // namespace dmst
