#include "dmst/core/elkin_mst.h"

#include <algorithm>
#include <map>
#include <utility>

#include "dmst/congest/codec.h"
#include "dmst/obs/trace.h"
#include "dmst/util/assert.h"
#include "dmst/util/dsu.h"
#include "dmst/util/intmath.h"

namespace dmst {

namespace {

constexpr std::uint64_t kNoEdgeWord = ~std::uint64_t{0};

std::uint64_t pack_edge(VertexId a, VertexId b)
{
    return (std::uint64_t{a} << 32) | b;
}

}  // namespace

ElkinProcess::ElkinProcess(VertexId id, std::uint64_t n, const ElkinOptions& opts)
    : id_(id), n_(n), opts_(opts), bfs_(id == opts.root, tag(kBfsBase)),
      labeler_(tag(kLabel)), downcast_(tag(kDown))
{
}

void ElkinProcess::on_round(Context& ctx)
{
    // MST markings may race the FINISH wave by one round; accept them first
    // and even after finishing.
    for (const Incoming& in : ctx.inbox()) {
        if (in.msg.tag == tag(kMarkCross))
            mst_ports_.insert(in.port);
    }
    if (finished_)
        return;

    if (neighbor_coarse_.empty() && ctx.degree() > 0) {
        neighbor_coarse_.assign(ctx.degree(), ~std::uint64_t{0});
        neighbor_vid_.assign(ctx.degree(), ~std::uint64_t{0});
    }

    // Sub-protocols consume their own tags. Each pump runs under its own
    // trace span, so every send is attributed to the stage that caused it
    // (GhsVertex scopes itself per GHS phase).
    {
        TraceScope span(ctx, TracePhase::Bfs);
        bfs_.on_round(ctx);
    }
    {
        TraceScope span(ctx, TracePhase::Labeling);
        if (bfs_.finished() && !labeler_.attached()) {
            labeler_.attach(bfs_);
            if (is_root_vertex())
                labeler_.start(ctx);
        }
        labeler_.on_round(ctx);
    }
    if (labeler_.finished() && !downcast_.attached()) {
        downcast_.attach(labeler_.own_index(), labeler_.children_ports(),
                         labeler_.child_intervals());
    }
    {
        // The interval downcast only ever carries Boruvka phase results.
        TraceScope span(ctx, TracePhase::Boruvka,
                        std::max<std::int64_t>(phase_, 0));
        downcast_.on_round(ctx);
    }
    if (ghs_)
        ghs_->on_round(ctx);
    if (upcast_) {
        // The upcast pipelines registration records until the Boruvka
        // phases start, then per-phase MWOE reports.
        TraceScope span(ctx,
                        phase_ >= 0 ? TracePhase::Boruvka
                                    : TracePhase::Registration,
                        std::max<std::int64_t>(phase_, 0));
        upcast_->on_round(ctx);
    }

    // Control traffic, processed in canonical phase order regardless of
    // delivery order (the conditioner's delivery adversary may permute the
    // inbox arbitrarily): first the traffic of phases up to the current
    // one, then the parent's PHASE_START — at most one per round — and
    // only then the traffic of the phase it starts. Both interleavings
    // occur naturally in one inbox: a fragment child one τ-level up can
    // report phase j's MWOE in the very round our own PHASE_START(j)
    // arrives, while a neighbor's CHAT for the next phase can land beside
    // it (τ is a BFS tree, so graph neighbors are at most one wave apart).
    const std::int64_t pre_bump_phase = phase_;
    std::optional<std::uint64_t> phase_start;
    std::size_t deferred = 0;  // next-phase messages found by the first pass
    // Returns true if the FINISH wave arrived and this process is done.
    // A message of a phase later than pre_bump_phase is skipped by the
    // first pass (counted into `deferred`) and handled by the second;
    // phaseless tags belong to the first pass.
    auto control_pass = [&](bool post_bump) -> bool {
        // True if a message of phase `ph` belongs to the other pass; the
        // first pass counts the messages it leaves for the second.
        auto other_pass = [&](std::uint64_t ph) {
            if ((static_cast<std::int64_t>(ph) > pre_bump_phase) != post_bump) {
                deferred += !post_bump;
                return true;
            }
            return false;
        };
        for (const Incoming& in : ctx.inbox()) {
            const std::uint32_t t = in.msg.tag;
            if (t == tag(kPhaseStart)) {
                if (!post_bump) {
                    DMST_ASSERT_MSG(!phase_start,
                                    "two PHASE_START waves in one round");
                    phase_start = decode<PhaseOnlyMsg>(in.msg).phase;
                }
            } else if (t == tag(kStartGhs)) {
                if (post_bump)
                    continue;
                auto m = decode<StartGhsMsg>(in.msg);
                start_ghs_from_wave(ctx, m.k, m.start_round);
            } else if (t == tag(kChat)) {
                auto m = decode<FidMsg>(in.msg);
                if (other_pass(m.phase))
                    continue;
                neighbor_coarse_.at(in.port) = m.fid;
                neighbor_vid_.at(in.port) = m.vid;
                if (static_cast<std::int64_t>(m.phase) == phase_) {
                    ++chats_received_;
                } else {
                    DMST_ASSERT_MSG(
                        static_cast<std::int64_t>(m.phase) == phase_ + 1,
                        "CHAT from an unexpected phase");
                    ++chats_next_;
                }
            } else if (t == tag(kFragReport)) {
                auto m = decode<FragReportMsg>(in.msg);
                if (other_pass(m.phase))
                    continue;
                DMST_ASSERT(static_cast<std::int64_t>(m.phase) == phase_);
                DMST_ASSERT(frag_reports_pending_ > 0);
                --frag_reports_pending_;
                if (m.key < frag_best_) {
                    frag_best_ = m.key;
                    frag_best_other_ = m.other_coarse;
                }
            } else if (t == tag(kNewCoarse)) {
                auto m = decode<NewCoarseMsg>(in.msg);
                if (other_pass(m.phase))
                    continue;
                DMST_ASSERT(static_cast<std::int64_t>(m.phase) == phase_);
                handle_new_coarse(ctx, m.coarse, m.edge);
            } else if (t == tag(kAck)) {
                auto m = decode<PhaseOnlyMsg>(in.msg);
                if (other_pass(m.phase))
                    continue;
                DMST_ASSERT(static_cast<std::int64_t>(m.phase) == phase_);
                DMST_ASSERT(acks_pending_ > 0);
                --acks_pending_;
            } else if (t == tag(kFlood)) {
                // Ablation E10b: every record floods the whole tree.
                auto m = decode<FloodMsg>(in.msg);
                if (other_pass(m.rec[1]))
                    continue;
                if (m.rec[0] == labeler_.own_index()) {
                    DMST_ASSERT(static_cast<std::int64_t>(m.rec[1]) == phase_);
                    handle_new_coarse(ctx, m.rec[2], m.rec[3]);
                }
                flood_enqueue(m.rec);
            } else if (t == tag(kFinish)) {
                if (post_bump)
                    continue;
                finish(ctx);
                return true;
            }
        }
        return false;
    };
    // Control-traffic attribution: sends triggered while draining the
    // inbox belong to the driver's current stage — Boruvka phase j once
    // phase 2 runs, the registration window after GHS, and the pre-GHS
    // control waves before that. Re-evaluated after the phase bump so the
    // second pass lands in the new phase's span.
    auto ctl = [&]() -> std::pair<TracePhase, std::int64_t> {
        if (phase_ >= 0)
            return {TracePhase::Boruvka, phase_};
        if (registration_round_ > 0)
            return {TracePhase::Registration, 0};
        return {TracePhase::Control, 0};
    };
    {
        const auto [ph, lvl] = ctl();
        TraceScope span(ctx, ph, lvl);
        if (control_pass(false))
            return;
        if (phase_start)
            begin_boruvka_phase(ctx, *phase_start);
    }
    const auto [ph, lvl] = ctl();
    TraceScope span(ctx, ph, lvl);
    if (deferred > 0 && control_pass(true))
        return;

    // Stage transitions.
    if (is_root_vertex() && bfs_.finished() && !ghs_wave_sent_) {
        ghs_wave_sent_ = true;
        bfs_done_round_ = ctx.round();
        ecc_ = bfs_.subtree_height();
        DMST_ASSERT_MSG(bfs_.subtree_size() == n_,
                        "BFS did not span the graph (disconnected input?)");
        if (n_ == 1) {
            finish(ctx);
            return;
        }
        if (opts_.k_override) {
            k_ = std::max<std::uint64_t>(*opts_.k_override, 1);
        } else {
            // Paper: k = sqrt(n) if D <= sqrt(n), else k = D; in
            // CONGEST(b log n), sqrt(n/b). ecc(rt) is our Theta(D) estimate.
            std::uint64_t target =
                isqrt(ceil_div(n_, static_cast<std::uint64_t>(opts_.bandwidth)));
            k_ = std::max<std::uint64_t>({target, ecc_, 1});
        }
        const std::uint64_t ghs_start = ctx.round() + ecc_ + 2;
        start_ghs_from_wave(ctx, k_, ghs_start);
    }

    if (ghs_ && ghs_->finished() && registration_round_ == 0)
        begin_registration(ctx);

    if (registration_round_ > 0 && phase_ < 0 && is_root_vertex() &&
        !registration_done_root_ && upcast_ && upcast_->finished()) {
        root_finish_registration(ctx);
        if (finished_)
            return;
    }

    if (phase_ >= 0) {
        if (!mwoe_computed_ && chats_received_ == ctx.degree())
            compute_local_mwoe(ctx);
        send_frag_report_if_ready(ctx);

        if (is_root_vertex() && !downcast_injected_ && upcast_ &&
            upcast_->finished())
            root_merge_and_downcast(ctx);

        while (delivered_seen_ < downcast_.delivered().size()) {
            const DownRecord& rec = downcast_.delivered()[delivered_seen_++];
            DMST_ASSERT(static_cast<std::int64_t>(rec.payload[0]) == phase_);
            handle_new_coarse(ctx, rec.payload[1], rec.payload[2]);
        }
        if (opts_.broadcast_downcast)
            pump_flood(ctx);
        maybe_ack(ctx);
    }
}

std::uint64_t ElkinProcess::next_wakeup(const Context& ctx) const
{
    if (finished_)
        return kNever;
    if (has_local_work(ctx))
        return ctx.round() + 1;
    // BFS, labeling and the control waves act on messages only (the root
    // joins BFS in round 1, when every vertex runs).
    return ghs_ ? ghs_->next_wakeup(ctx.round()) : kNever;
}

// Work on_round() would do next round with an empty inbox: queued
// downcast, upcast or flood records, or the MWOE guard of a Boruvka phase
// the root's maybe_ack() started after that guard had run this round. The
// other stage guards resolve within the activation that enables them.
bool ElkinProcess::has_local_work(const Context& ctx) const
{
    if (!downcast_.idle() || (upcast_ && !upcast_->idle()))
        return true;
    for (const auto& q : flood_queues_)
        if (!q.empty())
            return true;
    return phase_ >= 0 && !mwoe_computed_ && chats_received_ == ctx.degree();
}

void ElkinProcess::start_ghs_from_wave(Context& ctx, std::uint64_t k,
                                       std::uint64_t start_round)
{
    if (ghs_)
        return;
    k_ = k;
    ghs_ = std::make_unique<GhsVertex>(id_, n_, k, start_round, tag(kGhsBase));
    for (std::size_t c : bfs_.children_ports())
        ctx.send(c, encode(tag(kStartGhs), StartGhsMsg{k, start_round}));
}

void ElkinProcess::begin_registration(Context& ctx)
{
    TraceScope trace_span(ctx, TracePhase::Registration);
    registration_round_ = ctx.round();
    DMST_ASSERT_MSG(labeler_.finished(), "interval labeling must precede GHS end");

    base_fid_ = ghs_->fragment_id();
    base_root_ = ghs_->is_fragment_root();
    frag_parent_ = ghs_->parent_port();
    frag_children_.assign(ghs_->children_ports().begin(),
                          ghs_->children_ports().end());
    coarse_ = base_fid_;
    mst_ports_.insert(ghs_->mst_ports().begin(), ghs_->mst_ports().end());

    // Registration upcast: base roots announce (fragment id, root index).
    upcast_ = std::make_unique<SortedMergeUpcast>(
        tag(kUpcastBase), std::make_unique<KeepAllFilter>());
    upcast_->attach(bfs_.parent_port(),
                    std::vector<std::size_t>(bfs_.children_ports()));
    if (base_root_) {
        PipeRecord r;
        r.key = EdgeKey{labeler_.own_index(), 0, 0};
        r.group = base_fid_;
        r.aux = labeler_.own_index();
        upcast_->add_local(r);
    }
    upcast_->close_local();

    // First coarse-id exchange; usable in Boruvka phase 0.
    for (std::size_t port = 0; port < ctx.degree(); ++port)
        ctx.send(port, encode(tag(kChat), FidMsg{0, coarse_, id_}));
}

void ElkinProcess::root_finish_registration(Context& ctx)
{
    registration_done_root_ = true;
    for (const PipeRecord& r : upcast_->delivered()) {
        registered_.push_back(Registered{r.group, r.aux});
        coarse_of_[r.group] = r.group;
    }
    DMST_ASSERT(!registered_.empty());
    if (registered_.size() == 1) {
        finish(ctx);
        return;
    }
    begin_boruvka_phase(ctx, 0);
}

void ElkinProcess::begin_boruvka_phase(Context& ctx, std::uint64_t j)
{
    TraceScope trace_span(ctx, TracePhase::Boruvka,
                          static_cast<std::int64_t>(j));
    DMST_ASSERT(static_cast<std::int64_t>(j) == phase_ + 1);
    phase_ = static_cast<int>(j);
    chats_received_ = chats_next_;
    chats_next_ = 0;
    mwoe_computed_ = false;
    frag_best_ = kInfiniteEdgeKey;
    frag_best_other_ = 0;
    frag_reports_pending_ = frag_children_.size();
    frag_report_sent_ = false;
    got_new_coarse_ = false;
    acks_pending_ = bfs_.children_ports().size();
    ack_sent_ = false;
    downcast_injected_ = false;

    upcast_ = std::make_unique<SortedMergeUpcast>(
        tag(kUpcastBase), std::make_unique<GroupMinFilter>());
    upcast_->attach(bfs_.parent_port(),
                    std::vector<std::size_t>(bfs_.children_ports()));
    if (!base_root_)
        upcast_->close_local();

    for (std::size_t c : bfs_.children_ports())
        ctx.send(c, encode(tag(kPhaseStart), PhaseOnlyMsg{j}));
}

void ElkinProcess::compute_local_mwoe(Context& ctx)
{
    mwoe_computed_ = true;
    for (std::size_t port = 0; port < ctx.degree(); ++port) {
        if (neighbor_coarse_[port] == coarse_)
            continue;
        VertexId other = static_cast<VertexId>(neighbor_vid_[port]);
        EdgeKey key{ctx.weight(port), std::min(id_, other), std::max(id_, other)};
        if (key < frag_best_) {
            frag_best_ = key;
            frag_best_other_ = neighbor_coarse_[port];
        }
    }
}

void ElkinProcess::send_frag_report_if_ready(Context& ctx)
{
    if (frag_report_sent_ || !mwoe_computed_ || frag_reports_pending_ > 0)
        return;
    frag_report_sent_ = true;
    const std::uint64_t j = static_cast<std::uint64_t>(phase_);
    if (frag_parent_ != kNoPort) {
        ctx.send(frag_parent_,
                 encode(tag(kFragReport),
                        FragReportMsg{j, frag_best_, frag_best_other_}));
        return;
    }
    // Base fragment root: inject the fragment's candidate edge (if any)
    // into the pipelined upcast over τ.
    if (frag_best_ != kInfiniteEdgeKey) {
        PipeRecord r;
        r.key = frag_best_;
        r.group = coarse_;
        r.group2 = frag_best_other_;
        r.aux = (base_fid_ << 32) | labeler_.own_index();
        upcast_->add_local(r);
    }
    upcast_->close_local();
}

void ElkinProcess::flood_enqueue(const std::array<std::uint64_t, 4>& rec)
{
    if (flood_queues_.empty() && !bfs_.children_ports().empty())
        flood_queues_.resize(bfs_.children_ports().size());
    for (auto& q : flood_queues_)
        q.push_back(rec);
}

void ElkinProcess::pump_flood(Context& ctx)
{
    const auto& children = bfs_.children_ports();
    for (std::size_t i = 0; i < flood_queues_.size(); ++i) {
        const int budget = ctx.bandwidth(children[i]);
        int sent = 0;
        while (sent < budget && !flood_queues_[i].empty()) {
            const auto& r = flood_queues_[i].front();
            ctx.send(children[i], encode(tag(kFlood), FloodMsg{r}));
            flood_queues_[i].pop_front();
            ++sent;
        }
    }
}

void ElkinProcess::root_merge_and_downcast(Context& ctx)
{
    (void)ctx;
    downcast_injected_ = true;
    const auto& records = upcast_->delivered();

    // Boruvka step over the coarse fragment graph, computed locally at rt.
    std::map<std::uint64_t, std::size_t> index;
    auto index_of = [&](std::uint64_t coarse) {
        auto [it, inserted] = index.emplace(coarse, index.size());
        (void)inserted;
        return it->second;
    };
    for (const auto& [fid, coarse] : coarse_of_)
        index_of(coarse);
    Dsu dsu(index.size() + 2 * records.size());
    for (const PipeRecord& r : records)
        dsu.unite(index_of(r.group), index_of(r.group2));

    // New coarse id of a component: the minimum coarse id it contains.
    std::map<std::size_t, std::uint64_t> new_id;
    for (const auto& [coarse, idx] : index) {
        std::size_t root = dsu.find(idx);
        auto it = new_id.find(root);
        if (it == new_id.end() || coarse < it->second)
            new_id[root] = coarse;
    }

    // Which base fragment proposed each surviving record (its edge is an
    // MST edge: fragment MWOEs always are, under unique weights).
    std::map<std::uint64_t, std::uint64_t> edge_of_fid;
    for (const PipeRecord& r : records)
        edge_of_fid[r.aux >> 32] = pack_edge(r.key.a, r.key.b);

    const std::uint64_t j = static_cast<std::uint64_t>(phase_);
    for (const Registered& reg : registered_) {
        std::uint64_t old_coarse = coarse_of_.at(reg.fid);
        std::uint64_t updated = new_id.at(dsu.find(index_of(old_coarse)));
        coarse_of_[reg.fid] = updated;
        auto it = edge_of_fid.find(reg.fid);
        std::uint64_t edge = it == edge_of_fid.end() ? kNoEdgeWord : it->second;
        if (opts_.broadcast_downcast) {
            if (reg.index == labeler_.own_index())
                handle_new_coarse(ctx, updated, edge);  // the root's own rF
            else
                flood_enqueue({reg.index, j, updated, edge});
        } else {
            downcast_.inject(DownRecord{reg.index, {j, updated, edge, 0}});
        }
    }
}

void ElkinProcess::handle_new_coarse(Context& ctx, std::uint64_t coarse,
                                     std::uint64_t edge)
{
    DMST_ASSERT(!got_new_coarse_);
    got_new_coarse_ = true;
    coarse_ = coarse;
    const std::uint64_t j = static_cast<std::uint64_t>(phase_);
    for (std::size_t c : frag_children_)
        ctx.send(c, encode(tag(kNewCoarse), NewCoarseMsg{j, coarse, edge}));

    if (edge != kNoEdgeWord) {
        VertexId a = static_cast<VertexId>(edge >> 32);
        VertexId b = static_cast<VertexId>(edge & 0xFFFFFFFFULL);
        if (id_ == a || id_ == b) {
            VertexId other = id_ == a ? b : a;
            for (std::size_t port = 0; port < ctx.degree(); ++port) {
                if (neighbor_vid_[port] == other) {
                    mst_ports_.insert(port);
                    ctx.send(port, encode(tag(kMarkCross), EmptyMsg{}));
                    break;
                }
            }
        }
    }

    // Updated coarse id for the neighbors' next phase.
    for (std::size_t port = 0; port < ctx.degree(); ++port)
        ctx.send(port, encode(tag(kChat), FidMsg{j + 1, coarse_, id_}));
}

void ElkinProcess::maybe_ack(Context& ctx)
{
    if (ack_sent_ || !got_new_coarse_ || acks_pending_ > 0)
        return;
    ack_sent_ = true;
    const std::uint64_t j = static_cast<std::uint64_t>(phase_);
    if (!is_root_vertex()) {
        ctx.send(bfs_.parent_port(), encode(tag(kAck), PhaseOnlyMsg{j}));
        return;
    }
    // Root: the phase is globally complete.
    bool all_equal = true;
    std::uint64_t first = coarse_of_.begin()->second;
    for (const auto& [fid, coarse] : coarse_of_)
        all_equal = all_equal && coarse == first;
    if (all_equal)
        finish(ctx);
    else
        begin_boruvka_phase(ctx, j + 1);
}

void ElkinProcess::finish(Context& ctx)
{
    TraceScope trace_span(ctx, TracePhase::Finish);
    for (std::size_t c : bfs_.children_ports())
        ctx.send(c, encode(tag(kFinish), EmptyMsg{}));
    finished_ = true;
}

DistributedMstResult run_elkin_mst(const WeightedGraph& g, const ElkinOptions& opts)
{
    NetConfig config = opts.to_net_config();
    config.record_per_round = true;  // enables the phase-1/phase-2 split
    const std::uint64_t n = g.vertex_count();
    DriverHarness<ElkinProcess> h(
        g, config, {opts.root, true},
        [&](VertexId v) { return std::make_unique<ElkinProcess>(v, n, opts); });
    h.run();
    auto result = h.collect<DistributedMstResult>();
    h.harvest_edges(result);

    if (const ElkinProcess* root = h.root_process(opts.root)) {
        result.k_used = root->k_used();
        result.bfs_ecc = root->bfs_ecc();
        result.base_fragments = root->base_fragments();
        result.boruvka_phases = root->boruvka_phases() + 1;
        result.bfs_rounds = root->bfs_rounds();
        result.ghs_rounds = root->ghs_rounds();
        // Phase 2 is everything from the round in which every vertex began
        // registration: the Registration window, the Boruvka phases over
        // base fragments and the FINISH wave.
        const PhaseSplit split =
            phase_split(result.stats, root->registration_round());
        result.phase2_rounds = split.rounds;
        result.phase2_messages = split.messages;
    }
    return result;
}

}  // namespace dmst
