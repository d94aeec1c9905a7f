#include "dmst/core/pipeline_mst.h"

#include <map>

#include "dmst/congest/codec.h"
#include "dmst/obs/trace.h"
#include "dmst/util/assert.h"
#include "dmst/util/intmath.h"

namespace dmst {

namespace {
constexpr std::uint64_t kFinishWord = ~std::uint64_t{0};
}

PipelineMstProcess::PipelineMstProcess(VertexId id, std::uint64_t n,
                                       const PipelineMstOptions& opts)
    : id_(id), n_(n), opts_(opts), bfs_(id == opts.root, kBfsBase)
{
}

void PipelineMstProcess::mark_if_incident(std::uint64_t packed_edge)
{
    VertexId a = static_cast<VertexId>(packed_edge >> 32);
    VertexId b = static_cast<VertexId>(packed_edge & 0xFFFFFFFFULL);
    if (id_ != a && id_ != b)
        return;
    VertexId other = id_ == a ? b : a;
    for (std::size_t port = 0; port < neighbor_vid_.size(); ++port) {
        if (neighbor_vid_[port] == other) {
            mst_ports_.insert(port);
            return;
        }
    }
    DMST_ASSERT_MSG(false, "broadcast MST edge not incident on any port");
}

void PipelineMstProcess::begin_pipeline(Context& ctx)
{
    TraceScope trace_span(ctx, TracePhase::Pipeline);
    pipeline_started_ = true;
    mst_ports_.insert(ghs_->mst_ports().begin(), ghs_->mst_ports().end());
    neighbor_fid_.assign(ctx.degree(), 0);
    neighbor_vid_.assign(ctx.degree(), 0);
    for (std::size_t port = 0; port < ctx.degree(); ++port)
        ctx.send(port,
                 encode(kIdExchange, IdExchangeMsg{ghs_->fragment_id(), id_}));

    upcast_ = std::make_unique<SortedMergeUpcast>(
        kUpcastBase, std::make_unique<DsuCycleFilter>());
    upcast_->attach(bfs_.parent_port(),
                    std::vector<std::size_t>(bfs_.children_ports()));
    bcast_queues_.resize(bfs_.children_ports().size());
}

void PipelineMstProcess::pump_broadcast(Context& ctx)
{
    const auto& children = bfs_.children_ports();
    bool drained = true;
    for (std::size_t i = 0; i < bcast_queues_.size(); ++i) {
        const int budget = ctx.bandwidth(children[i]);
        int sent = 0;
        while (sent < budget && !bcast_queues_[i].empty()) {
            std::uint64_t word = bcast_queues_[i].front();
            bcast_queues_[i].pop_front();
            if (word == kFinishWord)
                ctx.send(children[i], encode(kFinish, EmptyMsg{}));
            else
                ctx.send(children[i], encode(kEdgeBcast, WordMsg{word}));
            ++sent;
        }
        drained = drained && bcast_queues_[i].empty();
    }
    if (finish_seen_ && drained)
        finished_ = true;
}

void PipelineMstProcess::on_round(Context& ctx)
{
    if (finished_)
        return;

    // Sub-protocol pumps, each under its own span (GhsVertex self-scopes
    // per GHS phase).
    {
        TraceScope span(ctx, TracePhase::Bfs);
        bfs_.on_round(ctx);
    }
    if (ghs_)
        ghs_->on_round(ctx);
    if (upcast_) {
        TraceScope span(ctx, TracePhase::Pipeline);
        upcast_->on_round(ctx);
    }

    // Control traffic and driver transitions run under the current stage:
    // the pre-pipeline wave plumbing, then the pipeline proper.
    TraceScope stage_span(ctx, pipeline_started_ ? TracePhase::Pipeline
                                                 : TracePhase::Control);
    for (const Incoming& in : ctx.inbox()) {
        const std::uint32_t t = in.msg.tag;
        if (t == kStartGhs) {
            if (!ghs_) {
                auto m = decode<StartGhsMsg>(in.msg);
                k_ = m.k;
                ghs_ = std::make_unique<GhsVertex>(id_, n_, k_, m.start_round,
                                                   kGhsBase);
                for (std::size_t c : bfs_.children_ports())
                    ctx.send(c, encode(kStartGhs,
                                       StartGhsMsg{m.k, m.start_round}));
            }
        } else if (t == kIdExchange) {
            auto m = decode<IdExchangeMsg>(in.msg);
            neighbor_fid_.at(in.port) = m.fid;
            neighbor_vid_.at(in.port) = m.vid;
            ++ids_received_;
        } else if (t == kEdgeBcast) {
            auto m = decode<WordMsg>(in.msg);
            mark_if_incident(m.word);
            for (auto& q : bcast_queues_)
                q.push_back(m.word);
        } else if (t == kFinish) {
            finish_seen_ = true;
            for (auto& q : bcast_queues_)
                q.push_back(kFinishWord);
        }
    }

    // Transitions.
    if (is_root_vertex() && bfs_.finished() && !ghs_wave_sent_) {
        ghs_wave_sent_ = true;
        DMST_ASSERT_MSG(bfs_.subtree_size() == n_,
                        "BFS did not span the graph (disconnected input?)");
        if (n_ == 1) {
            finished_ = true;
            return;
        }
        k_ = std::max<std::uint64_t>(isqrt(n_), 1);
        const std::uint64_t ghs_start = ctx.round() + bfs_.subtree_height() + 2;
        ghs_ = std::make_unique<GhsVertex>(id_, n_, k_, ghs_start, kGhsBase);
        for (std::size_t c : bfs_.children_ports())
            ctx.send(c, encode(kStartGhs, StartGhsMsg{k_, ghs_start}));
    }

    if (ghs_ && ghs_->finished() && !pipeline_started_) {
        ghs_end_round_ = ctx.round();
        begin_pipeline(ctx);
    }

    if (pipeline_started_ && !local_injected_ && ids_received_ == ctx.degree()) {
        local_injected_ = true;
        for (std::size_t port = 0; port < ctx.degree(); ++port) {
            if (neighbor_fid_[port] == ghs_->fragment_id())
                continue;
            VertexId other = static_cast<VertexId>(neighbor_vid_[port]);
            if (id_ > other)
                continue;  // the lower endpoint contributes the edge
            PipeRecord r;
            r.key = EdgeKey{ctx.weight(port), id_, other};
            r.group = ghs_->fragment_id();
            r.group2 = neighbor_fid_[port];
            upcast_->add_local(r);
        }
        upcast_->close_local();
    }

    if (is_root_vertex() && pipeline_started_ && !broadcast_started_ &&
        upcast_->finished()) {
        broadcast_started_ = true;
        finish_seen_ = true;
        for (const PipeRecord& r : upcast_->delivered()) {
            ++pipeline_edges_;
            std::uint64_t packed = (std::uint64_t{r.key.a} << 32) | r.key.b;
            mark_if_incident(packed);
            for (auto& q : bcast_queues_)
                q.push_back(packed);
        }
        for (auto& q : bcast_queues_)
            q.push_back(kFinishWord);
    }

    if (pipeline_started_)
        pump_broadcast(ctx);
}

PipelineMstResult run_pipeline_mst(const WeightedGraph& g,
                                   const PipelineMstOptions& opts)
{
    NetConfig config = opts.to_net_config();
    config.record_per_round = true;  // enables the phase-1/phase-2 split
    const std::uint64_t n = g.vertex_count();
    DriverHarness<PipelineMstProcess> h(
        g, config, {opts.root, true}, [&](VertexId v) {
            return std::make_unique<PipelineMstProcess>(v, n, opts);
        });
    h.run();
    auto result = h.collect<PipelineMstResult>();
    h.harvest_edges(result);

    // The phase split derives from a root milestone, so a shard without the
    // root reports the defaults.
    if (const PipelineMstProcess* root = h.root_process(opts.root)) {
        result.k_used = root->k_used();
        result.pipeline_edges = root->pipeline_edges();
        const PhaseSplit split =
            phase_split(result.stats, root->ghs_end_round() + 1);
        result.phase2_rounds = split.rounds;
        result.phase2_messages = split.messages;
    }
    return result;
}

}  // namespace dmst
