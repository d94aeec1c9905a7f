#include "dmst/core/controlled_ghs.h"

#include "dmst/sim/engine.h"

#include <algorithm>

#include "dmst/congest/codec.h"
#include "dmst/obs/trace.h"
#include "dmst/proto/cv.h"
#include "dmst/util/assert.h"
#include "dmst/util/intmath.h"

namespace dmst {

// ------------------------------------------------------------ GhsSchedule

GhsSchedule::GhsSchedule(std::uint64_t n, std::uint64_t k, std::uint64_t start_round)
    : start_round_(start_round)
{
    DMST_ASSERT(n >= 1);
    DMST_ASSERT(k >= 1);
    phases_ = k <= 1 ? 0 : ceil_log2(k);
    dct_iterations_ = cv_dct_iterations_bound(n);
    stage_starts_.reserve(static_cast<std::size_t>(phases_) * kStages + 1);
    std::uint64_t at = 0;
    for (int i = 0; i < phases_; ++i) {
        for (int s = 0; s < kStages; ++s) {
            stage_starts_.push_back(at);
            at += stage_len(i, static_cast<GhsStage>(s));
        }
    }
    stage_starts_.push_back(at);
    total_ = at;
}

std::uint64_t GhsSchedule::stage_len(int phase, GhsStage stage) const
{
    const std::uint64_t w = window(phase);
    switch (stage) {
    case GhsStage::Fid: return 1;
    case GhsStage::Mwoe: return w + 2;
    case GhsStage::Cand: return w + 3;
    case GhsStage::Notify: return w + 2;
    case GhsStage::Orient: return w + 2;
    case GhsStage::Cv:
        return static_cast<std::uint64_t>(cv_total_iterations()) *
               cv_window_len(phase);
    case GhsStage::Mm: return 3 * mm_step_len(phase);
    case GhsStage::Merge: return 8 * w + 16;
    }
    DMST_ASSERT_MSG(false, "unknown stage");
    return 0;
}

std::uint64_t GhsSchedule::phase_len(int phase) const
{
    DMST_ASSERT(phase >= 0 && phase < phases_);
    const std::size_t i = static_cast<std::size_t>(phase) * kStages;
    return stage_starts_[i + kStages] - stage_starts_[i];
}

std::optional<GhsSchedule::Pos> GhsSchedule::locate(std::uint64_t round) const
{
    if (round < start_round_ || round >= end_round())
        return std::nullopt;
    const std::uint64_t r = round - start_round_;
    // The last stage start <= r; the trailing total_ entry is > r, so the
    // stage has a successor to measure its length against.
    const auto it =
        std::upper_bound(stage_starts_.begin(), stage_starts_.end(), r) - 1;
    const auto i = static_cast<std::size_t>(it - stage_starts_.begin());
    return Pos{static_cast<int>(i / kStages),
               static_cast<GhsStage>(i % kStages), r - *it, *(it + 1) - *it};
}

// -------------------------------------------------------------- GhsVertex

GhsVertex::GhsVertex(VertexId id, std::uint64_t n, std::uint64_t k,
                     std::uint64_t start_round, std::uint32_t tag_base)
    : id_(id), n_(n), tag_base_(tag_base), schedule_(n, k, start_round), fid_(id)
{
}

void GhsVertex::begin_phase(Context& ctx, int phase)
{
    phase_ = phase;
    if (neighbor_fid_.empty() && ctx.degree() > 0) {
        neighbor_fid_.assign(ctx.degree(), kNoFid);
        neighbor_vid_.assign(ctx.degree(), kNoFid);
        neighbor_cand_.assign(ctx.degree(), false);
    }
    std::fill(neighbor_cand_.begin(), neighbor_cand_.end(), false);

    reports_pending_ = 0;
    report_sent_ = false;
    best_key_ = kInfiniteEdgeKey;
    best_local_port_ = kNoPort;
    winner_child_ = kNoPort;
    subtree_height_ = 0;
    am_candidate_ = false;

    gate_ = false;
    mwoe_port_ = kNoPort;
    propose_fid_.clear();
    has_cv_parent_ = false;

    foreign_fid_.clear();
    foreign_matched_.clear();

    color_ = 0;
    old_color_ = 0;
    shifted_ = 0;
    parent_color_.reset();

    matched_ = false;
    matched_as_parent_ = false;
    matched_as_child_ = false;
    status_pending_ = 0;
    status_sent_ = false;
    status_best_fid_ = kNoFid;
    status_winner_child_ = kNoPort;

    committed_.clear();
    newid_.reset();

    const std::uint64_t p = static_cast<std::uint64_t>(phase);
    for (std::size_t port = 0; port < ctx.degree(); ++port)
        ctx.send(port, encode(tag(kFid), FidMsg{p, fid_, id_}));
}

void GhsVertex::on_round(Context& ctx)
{
    // Almost every activation is the next round of the same stage: advance
    // the cached position instead of searching the timetable.
    const std::uint64_t round = ctx.round();
    if (pos_ && round == pos_round_ + 1 && pos_->offset + 1 < pos_->stage_len)
        ++pos_->offset;
    else
        pos_ = schedule_.locate(round);
    pos_round_ = round;
    if (!pos_) {
        if (round >= schedule_.end_round())
            finished_ = true;
        return;
    }
    const GhsSchedule::Pos& pos = *pos_;
    // Self-scoped: GHS phase i is the level axis of the Ghs trace phase,
    // so any embedding driver gets per-phase GHS traffic attribution for
    // free (elkin pumps this component without wrapping it).
    TraceScope trace_span(ctx, TracePhase::Ghs, pos.phase);
    if (pos.stage == GhsStage::Fid && pos.offset == 0 && pos.phase != phase_)
        begin_phase(ctx, pos.phase);

    for (const Incoming& in : ctx.inbox()) {
        if (handles(in.msg.tag))
            process_message(ctx, pos, in);
    }
    stage_actions(ctx, pos);
}

void GhsVertex::act_as_gate(Context& ctx, const GhsSchedule::Pos& pos)
{
    DMST_ASSERT(best_local_port_ != kNoPort);
    gate_ = true;
    mwoe_port_ = best_local_port_;
    ctx.send(mwoe_port_,
             encode(tag(kPropose),
                    PhaseValueMsg{static_cast<std::uint64_t>(pos.phase), fid_}));
}

void GhsVertex::deliver_color(Context& ctx, std::uint64_t iter, std::uint64_t color)
{
    const std::uint64_t p = static_cast<std::uint64_t>(phase_);
    for (std::size_t c : children_)
        ctx.send(c, encode(tag(kColorDown), ColorMsg{p, iter, color}));
    for (const auto& [port, fid] : foreign_fid_) {
        (void)fid;
        ctx.send(port, encode(tag(kColorCross), ColorMsg{p, iter, color}));
    }
}

void GhsVertex::process_message(Context& ctx, const GhsSchedule::Pos& pos,
                                const Incoming& in)
{
    const Msg type = msg_of(in.msg.tag);
    const std::uint64_t msg_phase = peek_phase(in.msg);
    const std::uint64_t p = static_cast<std::uint64_t>(phase_);

    // Convergecast stragglers from fragments that exceeded their window are
    // expected and dropped; everything else must be on schedule.
    if (type == kMwoeReport &&
        (msg_phase != p || pos.stage != GhsStage::Mwoe)) {
        return;
    }
    DMST_ASSERT_MSG(msg_phase == p, "message from a different phase");

    switch (type) {
    case kFid: {
        auto m = decode<FidMsg>(in.msg);
        neighbor_fid_.at(in.port) = m.fid;
        neighbor_vid_.at(in.port) = m.vid;
        break;
    }

    case kMwoeReport: {
        DMST_ASSERT_MSG(children_.count(in.port), "report from non-child");
        DMST_ASSERT(reports_pending_ > 0);
        --reports_pending_;
        auto m = decode<MwoeReportMsg>(in.msg);
        subtree_height_ = std::max(subtree_height_, m.height + 1);
        if (m.key < best_key_) {
            best_key_ = m.key;
            winner_child_ = in.port;
        }
        break;
    }

    case kCandBcast:
        DMST_ASSERT(pos.stage == GhsStage::Cand);
        am_candidate_ = true;
        for (std::size_t c : children_)
            ctx.send(c, encode(tag(kCandBcast), PhaseOnlyMsg{p}));
        break;

    case kCandNbr:
        neighbor_cand_.at(in.port) = decode<PhaseFlagMsg>(in.msg).value;
        break;

    case kNotify:
        DMST_ASSERT(pos.stage == GhsStage::Notify);
        if (winner_child_ == kNoPort)
            act_as_gate(ctx, pos);
        else
            ctx.send(winner_child_, encode(tag(kNotify), PhaseOnlyMsg{p}));
        break;

    case kPropose: {
        // Register unconditionally; the Orient stage un-registers the
        // reciprocal case on the lower-id side (the child of the pair).
        const std::uint64_t proposer_fid = decode<PhaseValueMsg>(in.msg).value;
        propose_fid_[in.port] = proposer_fid;
        foreign_fid_[in.port] = proposer_fid;
        foreign_matched_[in.port] = false;
        break;
    }

    case kGateInfo: {
        auto m = decode<PhaseFlagMsg>(in.msg);
        if (parent_port_ == kNoPort)
            has_cv_parent_ = m.value;
        else
            ctx.send(parent_port_,
                     encode(tag(kGateInfo), PhaseFlagMsg{p, m.value}));
        break;
    }

    case kColorDown: {
        auto m = decode<ColorMsg>(in.msg);
        deliver_color(ctx, m.iter, m.color);
        break;
    }

    case kColorCross: {
        DMST_ASSERT_MSG(gate_ && in.port == mwoe_port_ && has_cv_parent_,
                        "stray COLOR_CROSS");
        auto m = decode<ColorMsg>(in.msg);
        if (parent_port_ == kNoPort)
            parent_color_ = m.color;
        else
            ctx.send(parent_port_,
                     encode(tag(kColorUp), ColorMsg{p, m.iter, m.color}));
        break;
    }

    case kColorUp: {
        auto m = decode<ColorMsg>(in.msg);
        if (parent_port_ == kNoPort)
            parent_color_ = m.color;
        else
            ctx.send(parent_port_,
                     encode(tag(kColorUp), ColorMsg{p, m.iter, m.color}));
        break;
    }

    case kStatusDown: {
        auto m = decode<StepValueMsg>(in.msg);
        if (winner_child_ == kNoPort) {
            DMST_ASSERT(gate_);
            ctx.send(mwoe_port_,
                     encode(tag(kStatusCross),
                            StatusCrossMsg{p, m.step, fid_, m.value != 0}));
        } else {
            ctx.send(winner_child_,
                     encode(tag(kStatusDown),
                            StepValueMsg{p, m.step, m.value}));
        }
        break;
    }

    case kStatusCross: {
        // Only proposals registered this phase matter (the reciprocal
        // parent's status lands on an unregistered port and is ignored).
        auto m = decode<StatusCrossMsg>(in.msg);
        if (foreign_fid_.count(in.port))
            foreign_matched_[in.port] = m.matched;
        break;
    }

    case kStatusReport: {
        DMST_ASSERT(status_pending_ > 0);
        --status_pending_;
        auto m = decode<StepValueMsg>(in.msg);
        if (m.value < status_best_fid_) {
            status_best_fid_ = m.value;
            status_winner_child_ = in.port;
        }
        break;
    }

    case kAcceptDown: {
        auto m = decode<StepValueMsg>(in.msg);
        const std::uint64_t child_fid = m.value;
        if (status_winner_child_ == kNoPort) {
            // The accepted child hangs off this vertex: cross the MWOE.
            std::size_t port = kNoPort;
            for (const auto& [fp, ffid] : foreign_fid_) {
                if (ffid == child_fid && !foreign_matched_[fp]) {
                    port = fp;
                    break;
                }
            }
            DMST_ASSERT_MSG(port != kNoPort, "accepted child not found");
            foreign_matched_[port] = true;
            ctx.send(port, encode(tag(kAcceptCross), StepMsg{p, m.step}));
        } else {
            ctx.send(status_winner_child_,
                     encode(tag(kAcceptDown),
                            StepValueMsg{p, m.step, child_fid}));
        }
        break;
    }

    case kAcceptCross:
        DMST_ASSERT_MSG(gate_ && in.port == mwoe_port_, "stray ACCEPT_CROSS");
        if (parent_port_ == kNoPort) {
            DMST_ASSERT(!matched_);
            matched_ = true;
            matched_as_child_ = true;
        } else {
            ctx.send(parent_port_, encode(tag(kAcceptUp), PhaseOnlyMsg{p}));
        }
        break;

    case kAcceptUp:
        if (parent_port_ == kNoPort) {
            DMST_ASSERT(!matched_);
            matched_ = true;
            matched_as_child_ = true;
        } else {
            ctx.send(parent_port_, encode(tag(kAcceptUp), PhaseOnlyMsg{p}));
        }
        break;

    case kFlip:
        DMST_ASSERT_MSG(in.port == parent_port_, "FLIP from non-parent");
        children_.insert(in.port);
        do_merge_flip(ctx);
        break;

    case kCommit:
        children_.insert(in.port);
        mst_ports_.insert(in.port);
        committed_[in.port] = true;
        if (newid_)
            ctx.send(in.port, encode(tag(kNewId), PhaseValueMsg{p, *newid_}));
        break;

    case kNewId:
        fid_ = decode<PhaseValueMsg>(in.msg).value;
        newid_ = fid_;
        for (std::size_t c : children_) {
            if (c != in.port)
                ctx.send(c, encode(tag(kNewId), PhaseValueMsg{p, fid_}));
        }
        break;
    }
}

void GhsVertex::send_mwoe_report_if_ready(Context& ctx, const GhsSchedule::Pos& pos)
{
    if (report_sent_ || reports_pending_ > 0 || parent_port_ == kNoPort)
        return;
    report_sent_ = true;
    ctx.send(parent_port_,
             encode(tag(kMwoeReport),
                    MwoeReportMsg{static_cast<std::uint64_t>(pos.phase),
                                  best_key_, subtree_height_}));
}

void GhsVertex::send_status_report_if_ready(Context& ctx,
                                            const GhsSchedule::Pos& pos,
                                            std::uint64_t step)
{
    if (status_sent_ || status_pending_ > 0 || parent_port_ == kNoPort)
        return;
    status_sent_ = true;
    ctx.send(parent_port_,
             encode(tag(kStatusReport),
                    StepValueMsg{static_cast<std::uint64_t>(pos.phase), step,
                                 status_best_fid_}));
}

void GhsVertex::do_merge_flip(Context& ctx)
{
    const std::uint64_t p = static_cast<std::uint64_t>(phase_);
    if (winner_child_ == kNoPort) {
        // This vertex is the gate: hang under the foreign fragment.
        DMST_ASSERT(gate_);
        parent_port_ = mwoe_port_;
        mst_ports_.insert(mwoe_port_);
        ctx.send(mwoe_port_, encode(tag(kCommit), PhaseOnlyMsg{p}));
    } else {
        children_.erase(winner_child_);
        parent_port_ = winner_child_;
        ctx.send(winner_child_, encode(tag(kFlip), PhaseOnlyMsg{p}));
    }
}

void GhsVertex::finish_cv_window(Context& ctx, const GhsSchedule::Pos& pos,
                                 std::uint64_t iter)
{
    (void)ctx;
    (void)pos;
    const int dct = schedule_.cv_dct_iterations();
    if (iter < static_cast<std::uint64_t>(dct)) {
        if (has_cv_parent_) {
            DMST_ASSERT_MSG(parent_color_.has_value(), "missing parent color");
            color_ = cv_step(color_, *parent_color_);
        } else {
            color_ = cv_step_root(color_);
        }
    } else {
        const std::uint64_t rw = iter - static_cast<std::uint64_t>(dct);
        const std::uint64_t c = 5 - rw / 2;
        if (rw % 2 == 0) {
            // A: shift down (take the parent's old color).
            old_color_ = color_;
            if (has_cv_parent_) {
                DMST_ASSERT(parent_color_.has_value());
                shifted_ = *parent_color_;
            } else {
                shifted_ = cv_root_shift_color(color_);
            }
        } else {
            // B: recolor the vertices whose shifted color is c.
            std::uint64_t parent_shifted = 0;
            if (has_cv_parent_) {
                DMST_ASSERT(parent_color_.has_value());
                parent_shifted = *parent_color_;
            }
            color_ = shifted_ == c
                         ? cv_recolor(parent_shifted, old_color_, has_cv_parent_)
                         : shifted_;
        }
    }
    parent_color_.reset();
}

void GhsVertex::stage_actions(Context& ctx, const GhsSchedule::Pos& pos)
{
    const std::uint64_t w = GhsSchedule::window(pos.phase);
    const std::uint64_t p = static_cast<std::uint64_t>(pos.phase);
    const bool is_root = parent_port_ == kNoPort;

    switch (pos.stage) {
    case GhsStage::Fid:
        break;  // begin_phase sent the FIDs

    case GhsStage::Mwoe:
        if (pos.offset == 0) {
            reports_pending_ = children_.size();
            subtree_height_ = 0;
            best_key_ = kInfiniteEdgeKey;
            best_local_port_ = kNoPort;
            winner_child_ = kNoPort;
            for (std::size_t port = 0; port < ctx.degree(); ++port) {
                if (neighbor_fid_.at(port) == fid_)
                    continue;
                EdgeKey key{ctx.weight(port),
                            std::min<VertexId>(
                                id_, static_cast<VertexId>(neighbor_vid_[port])),
                            std::max<VertexId>(
                                id_, static_cast<VertexId>(neighbor_vid_[port]))};
                if (key < best_key_) {
                    best_key_ = key;
                    best_local_port_ = port;
                    winner_child_ = kNoPort;
                }
            }
        }
        send_mwoe_report_if_ready(ctx, pos);
        if (pos.offset + 1 == pos.stage_len && is_root) {
            am_candidate_ = reports_pending_ == 0 && subtree_height_ <= w &&
                            best_key_ != kInfiniteEdgeKey;
        }
        break;

    case GhsStage::Cand:
        if (pos.offset == 0 && is_root && am_candidate_) {
            for (std::size_t c : children_)
                ctx.send(c, encode(tag(kCandBcast), PhaseOnlyMsg{p}));
        }
        if (pos.offset + 2 == pos.stage_len) {
            for (std::size_t port = 0; port < ctx.degree(); ++port)
                ctx.send(port, encode(tag(kCandNbr),
                                      PhaseFlagMsg{p, am_candidate_}));
        }
        break;

    case GhsStage::Notify:
        if (pos.offset == 0 && is_root && am_candidate_) {
            if (winner_child_ == kNoPort)
                act_as_gate(ctx, pos);
            else
                ctx.send(winner_child_, encode(tag(kNotify), PhaseOnlyMsg{p}));
        }
        break;

    case GhsStage::Orient:
        if (pos.offset == 0 && gate_) {
            // Reciprocal MWOE: "the endpoint belonging to a higher-identity
            // fragment becomes the parent of the other endpoint". The
            // lower-id side must not keep the partner as a foreign child.
            auto recip = propose_fid_.find(mwoe_port_);
            bool reciprocal = recip != propose_fid_.end();
            if (reciprocal && fid_ < recip->second) {
                foreign_fid_.erase(mwoe_port_);
                foreign_matched_.erase(mwoe_port_);
            }
            has_cv_parent_ = neighbor_cand_.at(mwoe_port_) &&
                             !(reciprocal && fid_ > recip->second);
            if (!is_root)
                ctx.send(parent_port_,
                         encode(tag(kGateInfo), PhaseFlagMsg{p, has_cv_parent_}));
        }
        break;

    case GhsStage::Cv: {
        const std::uint64_t lw = schedule_.cv_window_len(pos.phase);
        const std::uint64_t iter = pos.offset / lw;
        const std::uint64_t woff = pos.offset % lw;
        const std::uint64_t dct =
            static_cast<std::uint64_t>(schedule_.cv_dct_iterations());
        if (woff == 0 && is_root && am_candidate_) {
            if (iter == 0)
                color_ = fid_;
            const bool b_window = iter >= dct && (iter - dct) % 2 == 1;
            deliver_color(ctx, iter, b_window ? shifted_ : color_);
        }
        if (woff + 1 == lw && is_root && am_candidate_)
            finish_cv_window(ctx, pos, iter);
        break;
    }

    case GhsStage::Mm: {
        const std::uint64_t slen = schedule_.mm_step_len(pos.phase);
        const std::uint64_t step = pos.offset / slen;
        const std::uint64_t soff = pos.offset % slen;
        if (soff == 0) {
            status_pending_ = children_.size();
            status_sent_ = false;
            status_best_fid_ = kNoFid;
            status_winner_child_ = kNoPort;
            if (is_root && am_candidate_) {
                // Report current matched status toward the G' parent.
                if (winner_child_ == kNoPort) {
                    DMST_ASSERT(gate_);
                    ctx.send(mwoe_port_,
                             encode(tag(kStatusCross),
                                    StatusCrossMsg{p, step, fid_, matched_}));
                } else {
                    ctx.send(winner_child_,
                             encode(tag(kStatusDown),
                                    StepValueMsg{p, step, matched_ ? 1u : 0u}));
                }
            }
        }
        if (am_candidate_ && soff >= w + 3 && soff < 2 * w + 5) {
            if (soff == w + 3) {
                for (const auto& [port, ffid] : foreign_fid_) {
                    if (!foreign_matched_[port] && ffid < status_best_fid_) {
                        status_best_fid_ = ffid;
                        status_winner_child_ = kNoPort;
                    }
                }
            }
            send_status_report_if_ready(ctx, pos, step);
        }
        if (soff == 2 * w + 5 && is_root && am_candidate_ &&
            color_ == step && !matched_ && status_best_fid_ != kNoFid) {
            matched_ = true;
            matched_as_parent_ = true;
            if (status_winner_child_ == kNoPort) {
                std::size_t port = kNoPort;
                for (const auto& [fp, ffid] : foreign_fid_) {
                    if (ffid == status_best_fid_ && !foreign_matched_[fp]) {
                        port = fp;
                        break;
                    }
                }
                DMST_ASSERT(port != kNoPort);
                foreign_matched_[port] = true;
                ctx.send(port, encode(tag(kAcceptCross), StepMsg{p, step}));
            } else {
                ctx.send(status_winner_child_,
                         encode(tag(kAcceptDown),
                                StepValueMsg{p, step, status_best_fid_}));
            }
        }
        break;
    }

    case GhsStage::Merge:
        if (pos.offset == 0 && is_root) {
            if (am_candidate_ && !matched_as_parent_) {
                do_merge_flip(ctx);
            } else {
                newid_ = fid_;
                for (std::size_t c : children_)
                    ctx.send(c, encode(tag(kNewId), PhaseValueMsg{p, fid_}));
            }
        }
        break;
    }
}

// -------------------------------------------------------- standalone runner

std::size_t MstForestResult::fragment_count() const
{
    std::set<std::uint64_t> ids(fragment_id.begin(), fragment_id.end());
    return ids.size();
}

namespace {

class GhsProcess : public Process {
public:
    GhsProcess(VertexId v, std::uint64_t n, std::uint64_t k)
        : ghs_(v, n, k, /*start_round=*/1, /*tag_base=*/0)
    {
    }

    void on_round(Context& ctx) override { ghs_.on_round(ctx); }
    bool done() const override { return ghs_.finished(); }

    GhsVertex ghs_;
};

}  // namespace

MstForestResult run_controlled_ghs(const WeightedGraph& g, const GhsOptions& opts)
{
    const NetConfig config = opts.to_net_config();
    std::unique_ptr<NetworkBase> net_ptr = make_network(g, config);
    NetworkBase& net = *net_ptr;
    const std::uint64_t n = g.vertex_count();
    net.init([&](VertexId v) { return std::make_unique<GhsProcess>(v, n, opts.k); });
    RunStats stats = net.run();

    MstForestResult result;
    result.stats = stats;
    result.partial = stats.stalled || stats.crashed_vertices > 0;
    result.fragment_id.resize(n);
    result.parent_port.resize(n);
    result.mst_ports.resize(n);
    // A sharded engine (Engine::Socket) fills the local span only; remote
    // vertices keep the zero defaults and the caller merges across ranks.
    for (VertexId v = net.local_begin(); v < net.local_end(); ++v) {
        const auto& ghs = static_cast<const GhsProcess&>(net.process(v)).ghs_;
        if (!result.partial)
            DMST_ASSERT(ghs.finished());
        result.fragment_id[v] = ghs.fragment_id();
        result.parent_port[v] = ghs.parent_port();
        result.mst_ports[v].assign(ghs.mst_ports().begin(), ghs.mst_ports().end());
    }
    return result;
}

}  // namespace dmst
