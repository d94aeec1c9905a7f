#include "dmst/core/verify_mst.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "dmst/congest/codec.h"
#include "dmst/obs/trace.h"
#include "dmst/util/assert.h"

namespace dmst {

namespace {

constexpr std::uint64_t kUnknownWord = ~std::uint64_t{0};

// The claimed BFS joins at round 3: HELLOs are sent in round 1, read in
// round 2 (fixing the symmetric claimed set), so round 3 is the first
// round every vertex has an attached port mask.
constexpr std::uint64_t kMarkedStartRound = 3;

std::uint64_t pack_pair(std::uint64_t a, std::uint64_t b)
{
    return (std::min(a, b) << 32) | std::max(a, b);
}

}  // namespace

const char* verify_verdict_name(VerifyVerdict verdict)
{
    switch (verdict) {
        case VerifyVerdict::Accept: return "accept";
        case VerifyVerdict::RejectAsymmetric: return "reject_asymmetric";
        case VerifyVerdict::RejectDisconnected: return "reject_disconnected";
        case VerifyVerdict::RejectCycle: return "reject_cycle";
        case VerifyVerdict::RejectNotMinimal: return "reject_not_minimal";
    }
    return "unknown";
}

VerifyMstProcess::VerifyMstProcess(VertexId id, std::uint64_t n,
                                   std::vector<std::size_t> claimed_ports,
                                   const VerifyOptions& opts)
    : id_(id), n_(n), opts_(opts), claimed_input_(std::move(claimed_ports)),
      bfs_(id == opts.root, kBfsBase),
      marked_(id == opts.root, kMarkedBase, kMarkedStartRound),
      labeler_(kLabel), tokens_(kToken)
{
}

std::uint64_t VerifyMstProcess::component_size() const
{
    return marked_.finished() ? marked_.subtree_size() : 0;
}

void VerifyMstProcess::read_hellos(Context& ctx)
{
    hellos_read_ = true;
    const std::size_t degree = ctx.degree();
    marked_self_.assign(degree, 0);
    marked_other_.assign(degree, 0);
    neighbor_vid_.assign(degree, kUnknownWord);
    neighbor_index_.assign(degree, kUnknownWord);
    token_injected_.assign(degree, 0);
    for (std::size_t p : claimed_input_)
        marked_self_[p] = 1;

    std::size_t heard = 0;
    for (const Incoming& in : ctx.inbox()) {
        if (in.msg.tag != kHello)
            continue;
        auto m = decode<HelloMsg>(in.msg);
        neighbor_vid_[in.port] = m.vid;
        marked_other_[in.port] = m.marked ? 1 : 0;
        ++heard;
    }
    DMST_ASSERT_MSG(heard == degree, "HELLO missing on some port");

    // The claimed edge set is the symmetric intersection; a one-sided mark
    // is witnessed locally and reported with the snapshot convergecast.
    claimed_.assign(degree, 0);
    for (std::size_t p = 0; p < degree; ++p) {
        claimed_[p] = marked_self_[p] & marked_other_[p];
        claimed_degree_ += claimed_[p];
        if (marked_self_[p] != marked_other_[p]) {
            VertexId other = static_cast<VertexId>(neighbor_vid_[p]);
            EdgeKey key{ctx.weight(p), std::min(id_, other), std::max(id_, other)};
            asym_witness_ = std::min(asym_witness_, key);
        }
    }
    marked_.attach(claimed_);
}

void VerifyMstProcess::on_round(Context& ctx)
{
    if (finished_)
        return;

    if (!hello_sent_) {
        TraceScope span(ctx, TracePhase::Hello);
        hello_sent_ = true;
        for (std::size_t p = 0; p < ctx.degree(); ++p) {
            bool marked = std::find(claimed_input_.begin(), claimed_input_.end(),
                                    p) != claimed_input_.end();
            ctx.send(p, encode(kHello, HelloMsg{id_, marked}));
        }
    } else if (!hellos_read_) {
        read_hellos(ctx);
    }

    // Sub-protocols consume their own tags; each pump is its own span
    // (the marked-component BFS belongs to the spanning check, the token
    // exchange to the minimality check).
    {
        TraceScope span(ctx, TracePhase::Bfs);
        bfs_.on_round(ctx);
    }
    {
        TraceScope span(ctx, TracePhase::Spanning);
        marked_.on_round(ctx);
    }
    {
        TraceScope span(ctx, TracePhase::Labeling);
        labeler_.on_round(ctx);
    }
    {
        TraceScope span(ctx, TracePhase::Minimality);
        tokens_.on_round(ctx);
    }

    if (marked_.finished() && !labeler_.attached())
        labeler_.attach(marked_);

    // Control traffic.
    for (const Incoming& in : ctx.inbox()) {
        const std::uint32_t t = in.msg.tag;
        if (t == kSnap) {
            TraceScope span(ctx, TracePhase::Spanning);
            decode<EmptyMsg>(in.msg);
            DMST_ASSERT_MSG(bfs_.finished(), "SNAP before local tau BFS finished");
            snap_seen_ = true;
            snapshots_pending_ = bfs_.children_ports().size();
            for (std::size_t c : bfs_.children_ports())
                ctx.send(c, encode(kSnap, EmptyMsg{}));
        } else if (t == kSnapshot) {
            auto m = decode<VerifySnapshotMsg>(in.msg);
            DMST_ASSERT(snapshots_pending_ > 0);
            --snapshots_pending_;
            snapshot_acc_.claimed_ports += m.claimed_ports;
            snapshot_acc_.nontree_ports += m.nontree_ports;
            snapshot_acc_.asym = std::min(snapshot_acc_.asym, m.asym);
            snapshot_acc_.cycle = std::min(snapshot_acc_.cycle, m.cycle);
        } else if (t == kCutFind) {
            decode<EmptyMsg>(in.msg);
            start_cut_stage(ctx);
        } else if (t == kSide) {
            // A neighbor one tau level closer to the root can answer before
            // our own CUTFIND arrives (same inbox, earlier port), so side
            // arrivals are counted independently of cut_seen_.
            auto m = decode<FlagMsg>(in.msg);
            ++sides_heard_;
            DMST_ASSERT(sides_heard_ <= ctx.degree());
            if (m.value != marked_.joined()) {
                VertexId other = static_cast<VertexId>(neighbor_vid_[in.port]);
                EdgeKey key{ctx.weight(in.port), std::min(id_, other),
                            std::max(id_, other)};
                cut_min_ = std::min(cut_min_, key);
            }
        } else if (t == kCutReport) {
            auto m = decode<EdgeKeyMsg>(in.msg);
            DMST_ASSERT(cut_reports_pending_ > 0);
            --cut_reports_pending_;
            cut_min_ = std::min(cut_min_, m.key);
        } else if (t == kIndex) {
            neighbor_index_[in.port] = decode<WordMsg>(in.msg).word;
        } else if (t == kCount) {
            auto m = decode<VerifyCountMsg>(in.msg);
            const auto& children = bfs_.children_ports();
            auto it = std::find(children.begin(), children.end(), in.port);
            DMST_ASSERT_MSG(it != children.end(), "COUNT from a non-child port");
            std::uint64_t& slot = child_pairs_[it - children.begin()];
            DMST_ASSERT_MSG(m.pairs >= slot, "COUNT went backwards");
            slot = m.pairs;
            CycleMaxViolation v{m.witness, m.offender};
            if (std::tie(v.witness, v.offender) <
                std::tie(count_violation_.witness, count_violation_.offender))
                count_violation_ = v;
        } else if (t == kFinal) {
            auto m = decode<VerdictMsg>(in.msg);
            finish(ctx, static_cast<VerifyVerdict>(m.verdict), m.witness,
                   m.offender);
            return;
        }
    }

    root_maybe_snap(ctx);
    maybe_send_snapshot(ctx);
    if (is_root_vertex() && snapshot_sent_ && snapshots_pending_ == 0 &&
        !root_spanning_resolved_) {
        root_resolve_spanning(ctx);
        if (finished_)
            return;
    }
    maybe_send_cut_report(ctx);
    if (finished_)
        return;
    maybe_inject_tokens(ctx);
    pump_count(ctx);
}

void VerifyMstProcess::root_maybe_snap(Context& ctx)
{
    if (!is_root_vertex() || snap_seen_ || !bfs_.finished() || !marked_.finished())
        return;
    TraceScope trace_span(ctx, TracePhase::Spanning);
    DMST_ASSERT_MSG(bfs_.subtree_size() == n_,
                    "tau BFS did not span the graph (disconnected input?)");
    snap_seen_ = true;
    snapshots_pending_ = bfs_.children_ports().size();
    for (std::size_t c : bfs_.children_ports())
        ctx.send(c, encode(kSnap, EmptyMsg{}));
}

void VerifyMstProcess::maybe_send_snapshot(Context& ctx)
{
    if (!snap_seen_ || snapshot_sent_ || snapshots_pending_ > 0)
        return;
    TraceScope trace_span(ctx, TracePhase::Spanning);
    snapshot_sent_ = true;
    // The count convergecast (pump_count) runs over tau while interval
    // labels flow down the *claimed* tree, so a tau child can start
    // counting before this vertex is labeled: size the slots now, when
    // the tau children are known and no COUNT can have arrived yet.
    child_pairs_.assign(bfs_.children_ports().size(), 0);
    snapshot_acc_.claimed_ports += claimed_degree_;
    snapshot_acc_.nontree_ports += ctx.degree() - claimed_degree_;
    snapshot_acc_.asym = std::min(snapshot_acc_.asym, asym_witness_);
    for (std::size_t p : marked_.nonchild_ports()) {
        VertexId other = static_cast<VertexId>(neighbor_vid_[p]);
        EdgeKey key{ctx.weight(p), std::min(id_, other), std::max(id_, other)};
        snapshot_acc_.cycle = std::min(snapshot_acc_.cycle, key);
    }
    if (!is_root_vertex())
        ctx.send(bfs_.parent_port(),
                 encode(kSnapshot,
                        VerifySnapshotMsg{snapshot_acc_.claimed_ports,
                                          snapshot_acc_.nontree_ports,
                                          snapshot_acc_.asym,
                                          snapshot_acc_.cycle}));
}

void VerifyMstProcess::root_resolve_spanning(Context& ctx)
{
    TraceScope trace_span(ctx, TracePhase::Spanning);
    root_spanning_resolved_ = true;
    claimed_sum_ = snapshot_acc_.claimed_ports;
    if (snapshot_acc_.asym != kInfiniteEdgeKey) {
        finish(ctx, VerifyVerdict::RejectAsymmetric, snapshot_acc_.asym,
               kInfiniteEdgeKey);
        return;
    }
    if (marked_.subtree_size() < n_) {
        // The claimed component misses vertices: locate the lightest edge
        // crossing its cut (no claimed edge does, so it is a non-claimed
        // MST edge — the disconnection witness).
        start_cut_stage(ctx);
        return;
    }
    if (snapshot_acc_.cycle != kInfiniteEdgeKey) {
        finish(ctx, VerifyVerdict::RejectCycle, snapshot_acc_.cycle,
               kInfiniteEdgeKey);
        return;
    }
    DMST_ASSERT_MSG(claimed_sum_ == 2 * (n_ - 1),
                    "connected, acyclic claimed set with wrong edge count");
    expected_pairs_ = snapshot_acc_.nontree_ports / 2;
    if (expected_pairs_ == 0) {
        // A spanning tree in a graph with m = n-1 edges is the MST.
        finish(ctx, VerifyVerdict::Accept, kInfiniteEdgeKey, kInfiniteEdgeKey);
        return;
    }
    start_minimality(ctx);
}

void VerifyMstProcess::start_minimality(Context& ctx)
{
    TraceScope trace_span(ctx, TracePhase::Labeling);
    minimality_started_ = true;
    DMST_ASSERT_MSG(labeler_.attached(), "claimed labeler not attached at root");
    labeler_.start(ctx);
}

void VerifyMstProcess::start_cut_stage(Context& ctx)
{
    TraceScope trace_span(ctx, TracePhase::Cut);
    cut_seen_ = true;
    cut_reports_pending_ = bfs_.children_ports().size();
    for (std::size_t c : bfs_.children_ports())
        ctx.send(c, encode(kCutFind, EmptyMsg{}));
    for (std::size_t p = 0; p < ctx.degree(); ++p)
        ctx.send(p, encode(kSide, FlagMsg{marked_.joined()}));
}

void VerifyMstProcess::maybe_send_cut_report(Context& ctx)
{
    if (!cut_seen_ || cut_report_sent_ || sides_heard_ < ctx.degree() ||
        cut_reports_pending_ > 0)
        return;
    TraceScope trace_span(ctx, TracePhase::Cut);
    cut_report_sent_ = true;
    if (!is_root_vertex()) {
        ctx.send(bfs_.parent_port(), encode(kCutReport, EdgeKeyMsg{cut_min_}));
        return;
    }
    DMST_ASSERT_MSG(cut_min_ != kInfiniteEdgeKey,
                    "no crossing edge found for a non-spanning claim");
    finish(ctx, VerifyVerdict::RejectDisconnected, cut_min_, kInfiniteEdgeKey);
}

void VerifyMstProcess::maybe_inject_tokens(Context& ctx)
{
    if (!labeler_.finished())
        return;
    TraceScope trace_span(ctx, TracePhase::Minimality);
    if (!index_sent_) {
        index_sent_ = true;
        std::size_t parent = marked_.parent_port();
        EdgeKey parent_edge = kInfiniteEdgeKey;
        if (parent != kNoPort) {
            VertexId other = static_cast<VertexId>(neighbor_vid_[parent]);
            parent_edge = EdgeKey{ctx.weight(parent), std::min(id_, other),
                                  std::max(id_, other)};
        }
        tokens_.attach(labeler_.own_index(), labeler_.own_interval(), parent,
                       parent_edge);
        for (std::size_t p = 0; p < ctx.degree(); ++p)
            ctx.send(p, encode(kIndex, WordMsg{labeler_.own_index()}));
        tokens_uninjected_ = ctx.degree() - claimed_degree_;
    }
    if (tokens_uninjected_ == 0)
        return;  // the token drain outlives injection by many rounds
    for (std::size_t p = 0; p < ctx.degree(); ++p) {
        if (claimed_[p] || token_injected_[p] || neighbor_index_[p] == kUnknownWord)
            continue;
        token_injected_[p] = 1;
        --tokens_uninjected_;
        VertexId other = static_cast<VertexId>(neighbor_vid_[p]);
        EdgeKey key{ctx.weight(p), std::min(id_, other), std::max(id_, other)};
        tokens_.inject(pack_pair(labeler_.own_index(), neighbor_index_[p]), key);
    }
}

void VerifyMstProcess::pump_count(Context& ctx)
{
    if (!snapshot_sent_)
        return;
    TraceScope trace_span(ctx, TracePhase::Minimality);
    std::uint64_t total = tokens_.pairs_completed();
    for (std::uint64_t c : child_pairs_)
        total += c;
    const CycleMaxViolation& local = tokens_.violation();
    if (std::tie(local.witness, local.offender) <
        std::tie(count_violation_.witness, count_violation_.offender))
        count_violation_ = local;

    if (!is_root_vertex()) {
        // Monotone resend-on-growth: a violation can only improve together
        // with a completion, so the count carries it along.
        if (total > last_sent_pairs_) {
            last_sent_pairs_ = total;
            ctx.send(bfs_.parent_port(),
                     encode(kCount,
                            VerifyCountMsg{total, count_violation_.witness,
                                           count_violation_.offender}));
        }
        return;
    }
    if (!minimality_started_)
        return;
    DMST_ASSERT_MSG(total <= expected_pairs_, "more pairs than non-tree edges");
    if (total == expected_pairs_) {
        if (count_violation_.found())
            finish(ctx, VerifyVerdict::RejectNotMinimal,
                   count_violation_.witness, count_violation_.offender);
        else
            finish(ctx, VerifyVerdict::Accept, kInfiniteEdgeKey,
                   kInfiniteEdgeKey);
    }
}

void VerifyMstProcess::finish(Context& ctx, VerifyVerdict verdict,
                              const EdgeKey& witness, const EdgeKey& offender)
{
    TraceScope trace_span(ctx, TracePhase::Verdict);
    verdict_ = verdict;
    witness_ = witness;
    offender_ = offender;
    for (std::size_t c : bfs_.children_ports())
        ctx.send(c, encode(kFinal,
                           VerdictMsg{static_cast<std::uint64_t>(verdict),
                                      witness, offender}));
    finished_ = true;
}

VerifyMstResult run_verify_mst(
    const WeightedGraph& g,
    const std::vector<std::vector<std::size_t>>& claimed_ports,
    const VerifyOptions& opts)
{
    const std::uint64_t n = g.vertex_count();
    if (claimed_ports.size() != n)
        throw std::invalid_argument("claimed_ports must have one entry per vertex");
    for (VertexId v = 0; v < n; ++v)
        for (std::size_t p : claimed_ports[v])
            if (p >= g.degree(v))
                throw std::invalid_argument("claimed port out of range");
    DriverHarness<VerifyMstProcess> h(
        g, opts.to_net_config(), {opts.root, true}, [&](VertexId v) {
            return std::make_unique<VerifyMstProcess>(v, n, claimed_ports[v],
                                                      opts);
        });
    h.run();

    // The CONGEST output requirement: every vertex knows the verdict —
    // which is what lets a sharded engine (Engine::Socket) report it from
    // any local vertex instead of the possibly-remote root. A
    // crash-stalled run never reaches agreement, so the check (and the
    // verdict itself) is void — see the VerifyOptions::faults comment.
    NetworkBase& net = h.net();
    const VerifyMstProcess& local =
        h.process(net.owns(opts.root) ? opts.root : net.local_begin());
    auto result = h.collect<VerifyMstResult>([&](const VerifyMstProcess& p) {
        DMST_ASSERT_MSG(p.verdict() == local.verdict() &&
                            p.witness() == local.witness() &&
                            p.offender() == local.offender(),
                        "verdict disagreement between vertices");
    });
    result.verdict = local.verdict();
    result.accepted =
        !result.stats.partial() && result.verdict == VerifyVerdict::Accept;
    result.witness = local.witness();
    result.offender = local.offender();
    if (const VerifyMstProcess* root = h.root_process(opts.root)) {
        result.component_size = root->component_size();
        result.claimed_edges = root->claimed_edges();
        result.nontree_edges = root->nontree_edges();
        result.tau_height = root->tau_height();
        result.claimed_height = root->claimed_height();
    }
    return result;
}

}  // namespace dmst
