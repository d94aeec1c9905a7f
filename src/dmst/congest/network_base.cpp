#include "dmst/congest/network_base.h"

#include <algorithm>
#include <sstream>

#include "dmst/obs/trace.h"
#include "dmst/util/assert.h"

namespace dmst {

// ---------------------------------------------------------------- Context

std::size_t Context::n() const
{
    return net_->graph_.vertex_count();
}

std::uint64_t Context::round() const
{
    return net_->round_by_vertex_ ? net_->round_by_vertex_[vertex_]
                                  : net_->logical_round_;
}

std::uint64_t Context::virtual_time() const
{
    return net_->virtual_now();
}

int Context::bandwidth() const
{
    return net_->config_.bandwidth;
}

int Context::bandwidth(std::size_t port) const
{
    DMST_ASSERT_MSG(port < degree(), "bandwidth: port out of range");
    return net_->link_bandwidth(vertex_, port);
}

std::size_t Context::degree() const
{
    return net_->graph_.degree(vertex_);
}

Weight Context::weight(std::size_t port) const
{
    return net_->graph_.weight(vertex_, port);
}

VertexId Context::neighbor_id(std::size_t port) const
{
    DMST_ASSERT_MSG(net_->config_.knowledge == Knowledge::KT1,
                    "neighbor ids are not available in the clean network model (KT0)");
    return net_->graph_.neighbor(vertex_, port);
}

InboxView Context::inbox() const
{
    const NetworkBase::InboxSpan& span = net_->inbox_span_[vertex_];
    return InboxView(span.data, span.len);
}

void Context::send(std::size_t port, Message msg)
{
    DMST_ASSERT_MSG(port < degree(), "send: port out of range");
    net_->send_from(vertex_, port, std::move(msg));
}

void Context::set_timer(std::uint64_t delay, std::uint64_t timer_id)
{
    net_->schedule_timer(vertex_, std::max<std::uint64_t>(delay, 1), timer_id);
}

void Context::trace_instant(TracePhase phase, std::int64_t level)
{
    if (TraceRecorder* t = net_->trace_)
        t->instant(vertex_, phase, level);
}

// --------------------------------------------------------- MessageProcess

void MessageProcess::on_round(Context& ctx)
{
    if (!started_) {
        started_ = true;
        on_start(ctx);
    }
    due_scratch_.clear();
    ctx.net_->take_due_timers(ctx.vertex_, ctx.round(), due_scratch_);
    for (std::uint64_t id : due_scratch_)
        on_wakeup(ctx, id);
    for (const Incoming& in : ctx.inbox()) {
        // The handler owns its message; the inbox arena slot stays intact
        // for the rest of the round (payloads are inline, so this copy
        // never allocates — congest/message.h).
        Message msg = in.msg;
        on_message(ctx, in.port, std::move(msg));
    }
}

// ------------------------------------------------------------ NetworkBase

NetworkBase::~NetworkBase() = default;

NetworkBase::NetworkBase(const WeightedGraph& g, NetConfig config)
    : graph_(g), config_(config),
      cond_(g, config.conditioner, config.bandwidth),
      faults_(g, config.faults)
{
    DMST_ASSERT(config_.bandwidth >= 1);
    stride_ = cond_.stride();
    faults_on_ = faults_.loss_enabled();
    has_crashes_ = faults_.crash_enabled();
    if (faults_on_) {
        fault_attempts_.resize(g.vertex_count());
        for (VertexId v = 0; v < g.vertex_count(); ++v)
            fault_attempts_[v].assign(graph_.degree(v), 0);
    }
    if (has_crashes_) {
        crashed_.assign(g.vertex_count(), 0);
        pending_crashes_ = config_.faults.crashes;
        std::sort(pending_crashes_.begin(), pending_crashes_.end(),
                  [](const CrashPoint& a, const CrashPoint& b) {
                      return a.round != b.round ? a.round < b.round
                                                : a.vertex < b.vertex;
                  });
        stall_window_ = config_.faults.stall_window
                            ? config_.faults.stall_window
                            : 2 * static_cast<std::uint64_t>(g.vertex_count()) + 64;
    }
    if (config_.trace.enabled) {
        trace_owned_ = std::make_unique<TraceRecorder>(g.vertex_count());
        trace_ = trace_owned_.get();
    }
    const std::size_t n = graph_.vertex_count();
    timers_.resize(n);
    inbox_span_.resize(n);
    inbox_count_.assign(n, 0);
    scatter_off_.assign(n, 0);
    words_this_round_.resize(n);
    for (VertexId v = 0; v < n; ++v)
        words_this_round_[v].assign(graph_.degree(v), 0);

    // Precompute reverse ports: the port at which a message sent by v via
    // its port p arrives at the neighbor.
    reverse_port_.resize(n);
    for (VertexId v = 0; v < n; ++v)
        reverse_port_[v].assign(graph_.degree(v), 0);
    if (config_.record_per_edge)
        stats_.messages_per_edge.assign(graph_.edge_count(), 0);
    // For each vertex u and each of its ports q, record that edge_id ->
    // (u, q); then match from the other side.
    std::vector<std::pair<std::size_t, std::size_t>> by_edge(graph_.edge_count(),
                                                             {0, 0});
    std::vector<bool> first_side(graph_.edge_count(), true);
    for (VertexId v = 0; v < n; ++v) {
        for (std::size_t p = 0; p < graph_.degree(v); ++p) {
            EdgeId e = graph_.edge_id(v, p);
            if (first_side[e]) {
                by_edge[e] = {v, p};
                first_side[e] = false;
            } else {
                auto [u, q] = by_edge[e];
                reverse_port_[v][p] = q;
                reverse_port_[u][q] = p;
            }
        }
    }

    // Per-(vertex, port) views of the conditioner's per-edge assignment,
    // so the send path never hashes or maps edge ids.
    if (config_.conditioner.max_latency > 0) {
        link_delay_.resize(n);
        for (VertexId v = 0; v < n; ++v) {
            link_delay_[v].resize(graph_.degree(v));
            for (std::size_t p = 0; p < graph_.degree(v); ++p)
                link_delay_[v][p] = static_cast<std::uint16_t>(
                    cond_.latency(graph_.edge_id(v, p)));
        }
    }
    if (config_.conditioner.hetero_bandwidth && config_.bandwidth > 1) {
        link_cap_.resize(n);
        for (VertexId v = 0; v < n; ++v) {
            link_cap_[v].resize(graph_.degree(v));
            for (std::size_t p = 0; p < graph_.degree(v); ++p)
                link_cap_[v][p] = static_cast<std::uint16_t>(
                    cond_.bandwidth_cap(graph_.edge_id(v, p)));
        }
    }
}

void NetworkBase::init(const Factory& factory)
{
    DMST_ASSERT_MSG(processes_.empty(), "init() called twice");
    const std::size_t n = graph_.vertex_count();
    processes_.reserve(n);
    for (VertexId v = 0; v < n; ++v) {
        processes_.push_back(factory(v));
        DMST_ASSERT_MSG(processes_.back() != nullptr, "factory returned null process");
    }
}

std::size_t NetworkBase::reverse_port(VertexId v, std::size_t port) const
{
    return reverse_port_[v][port];
}

void NetworkBase::charge_bandwidth(VertexId from, std::size_t port,
                                   std::size_t size)
{
    const std::size_t budget =
        kWordsPerUnit * static_cast<std::size_t>(link_bandwidth(from, port));
    std::size_t& used = words_this_round_[from][port];
    DMST_ASSERT_MSG(used + size <= budget,
                    "per-edge bandwidth budget exceeded (CONGEST violation)");
    used += size;
}

void NetworkBase::fold_arrivals(std::vector<std::uint64_t>& hist)
{
    // Sends of this activation tick (tick round_) on a link of latency d
    // arrive at tick round_ + 1 + d, i.e. 0-based trace index round_ + d.
    for (std::size_t d = 0; d < hist.size(); ++d) {
        if (hist[d] == 0)
            continue;
        const std::size_t idx = static_cast<std::size_t>(round_) + d;
        if (stats_.arrivals_per_round.size() <= idx)
            stats_.arrivals_per_round.resize(idx + 1, 0);
        stats_.arrivals_per_round[idx] += hist[d];
        hist[d] = 0;
    }
}

void NetworkBase::schedule_timer(VertexId v, std::uint64_t delay,
                                 std::uint64_t timer_id)
{
    const std::uint64_t now =
        round_by_vertex_ ? round_by_vertex_[v] : logical_round_;
    timers_[v].push_back(PendingTimer{now + delay, timer_id});
}

void NetworkBase::take_due_timers(VertexId v, std::uint64_t now,
                                  std::vector<std::uint64_t>& out)
{
    if (timers_.empty() || timers_[v].empty())
        return;
    std::vector<PendingTimer>& pending = timers_[v];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].due <= now)
            out.push_back(pending[i].id);
        else
            pending[kept++] = pending[i];
    }
    pending.resize(kept);
}

void NetworkBase::reset_round_words(VertexId v)
{
    std::fill(words_this_round_[v].begin(), words_this_round_[v].end(), 0);
}

void NetworkBase::sort_span_by_port(Incoming* first, std::size_t n,
                                    SortScratch& scratch)
{
    if (n < 2)
        return;

    // Short spans (the overwhelmingly common case: an inbox holds at most a
    // few messages per incident edge): stable insertion sort, in place.
    constexpr std::size_t kInsertionCutoff = 24;
    if (n <= kInsertionCutoff) {
        for (std::size_t i = 1; i < n; ++i) {
            if (first[i].port >= first[i - 1].port)
                continue;
            Incoming pending = std::move(first[i]);
            std::size_t j = i;
            while (j > 0 && first[j - 1].port > pending.port) {
                first[j] = std::move(first[j - 1]);
                --j;
            }
            first[j] = std::move(pending);
        }
        return;
    }

    // Long spans: stable counting sort by port through reusable scratch.
    // Ports are bounded by the receiver's degree, so the count table stays
    // small; both buffers keep their high-water capacity across rounds.
    std::size_t max_port = 0;
    for (std::size_t i = 0; i < n; ++i)
        max_port = std::max(max_port, static_cast<std::size_t>(first[i].port));
    if (scratch.count.size() < max_port + 1)
        scratch.count.resize(max_port + 1);
    std::fill(scratch.count.begin(), scratch.count.begin() + max_port + 1, 0);
    if (scratch.tmp.size() < n)
        scratch.tmp.resize(n);

    for (std::size_t i = 0; i < n; ++i)
        ++scratch.count[first[i].port];
    std::uint32_t cursor = 0;
    for (std::size_t p = 0; p <= max_port; ++p) {
        std::uint32_t c = scratch.count[p];
        scratch.count[p] = cursor;
        cursor += c;
    }
    for (std::size_t i = 0; i < n; ++i)
        scratch.tmp[scratch.count[first[i].port]++] = std::move(first[i]);
    for (std::size_t i = 0; i < n; ++i)
        first[i] = std::move(scratch.tmp[i]);
}

bool NetworkBase::quiescent() const
{
    if (in_flight_ > 0)
        return false;
    for (VertexId v = 0; v < processes_.size(); ++v) {
        if (crashed(v))
            continue;  // a crashed vertex can never report done
        if (!processes_[v]->done())
            return false;
    }
    return true;
}

std::uint64_t NetworkBase::plan_fault_delivery(VertexId from, std::size_t port,
                                               FaultDelta& delta)
{
    const std::uint64_t one_way = 1 + static_cast<std::uint64_t>(link_delay(from, port));
    const EdgeId e = graph_.edge_id(from, port);
    const int direction = from < graph_.neighbor(from, port) ? 0 : 1;
    const FaultPlan plan =
        faults_.plan_transmission(e, direction, one_way, fault_attempts_[from][port]);
    delta.drops += plan.drops;
    delta.retransmissions += plan.retransmissions;
    delta.acks += plan.acks;
    delta.timeouts += plan.timeouts;
    delta.horizon = std::max(delta.horizon, plan.completion);
    if (trace_ && (plan.retransmissions | plan.drops))
        trace_->on_fault(from, plan.retransmissions, plan.drops);
    return plan.delivery;
}

std::uint64_t NetworkBase::fold_fault_delta(FaultDelta& delta)
{
    for (VertexId v : delta.wedged) {
        if (!crashed_[v]) {
            crashed_[v] = 1;
            ++stats_.crashed_vertices;
        }
    }
    stats_.drops += delta.drops;
    stats_.retransmissions += delta.retransmissions;
    stats_.acks += delta.acks;
    stats_.timeouts += delta.timeouts;
    stats_.failed_sends += delta.failed_sends;
    const std::uint64_t horizon =
        std::max<std::uint64_t>(delta.horizon, static_cast<std::uint64_t>(stride_));
    delta = FaultDelta();
    return horizon;
}

void NetworkBase::run_process_guarded(VertexId v, Context& ctx,
                                      FaultDelta& delta)
{
    if (!has_crashes_ || !faults_.config().graceful) {
        processes_[v]->on_round(ctx);
        return;
    }
    try {
        processes_[v]->on_round(ctx);
    } catch (const std::logic_error&) {
        // InvariantViolation and the std:: precondition family
        // (out_of_range from a .at() on state a dead neighbor never
        // populated, etc.) — both mean the protocol wedged, not that the
        // engine broke. Runtime errors still propagate.
        delta.wedged.push_back(v);
    }
}

void NetworkBase::apply_crashes()
{
    while (next_crash_ < pending_crashes_.size() &&
           pending_crashes_[next_crash_].round <= logical_round_) {
        const VertexId v = pending_crashes_[next_crash_++].vertex;
        if (!crashed_[v]) {
            crashed_[v] = 1;
            ++stats_.crashed_vertices;
        }
    }
}

void NetworkBase::note_activation()
{
    if (!has_crashes_ || stalled_)
        return;
    if (in_flight_ > 0) {
        idle_activations_ = 0;
        return;
    }
    if (++idle_activations_ < stall_window_)
        return;
    stats_.stalled = true;
    stalled_ = true;
    if (!config_.faults.graceful) {
        std::ostringstream oss;
        oss << "crash-stop stall: no live traffic for " << idle_activations_
            << " logical rounds after " << stats_.crashed_vertices
            << " crash(es) at logical round " << logical_round_
            << " (graceful=false)";
        throw InvariantViolation(oss.str());
    }
}

void NetworkBase::throw_round_limit() const
{
    std::ostringstream oss;
    oss << "round limit exceeded: protocol appears stuck after " << round_
        << " rounds (max_rounds=" << config_.max_rounds << "); " << in_flight_
        << " messages in flight";
    std::size_t not_done = 0;
    std::vector<VertexId> sample;
    for (VertexId v = 0; v < processes_.size(); ++v) {
        if (!processes_[v]->done()) {
            ++not_done;
            if (sample.size() < 8)
                sample.push_back(v);
        }
    }
    oss << "; " << not_done << " of " << processes_.size()
        << " processes not done";
    if (!sample.empty()) {
        oss << " (first ids:";
        for (VertexId v : sample)
            oss << " " << v;
        if (not_done > sample.size())
            oss << " ...";
        oss << ")";
    }
    throw InvariantViolation(oss.str());
}

RunStats NetworkBase::run()
{
    while (step()) {
        if (round_ > config_.max_rounds)
            throw_round_limit();
    }
    // Fold the span trace and self-check conservation. Re-finalized on
    // every run() so multi-epoch drivers (kick + run loops) always see
    // the cumulative table.
    if (trace_)
        stats_.trace = trace_->finalize(stats_);
    return stats_;
}

Process& NetworkBase::process(VertexId v)
{
    DMST_ASSERT(v < processes_.size());
    return *processes_[v];
}

const Process& NetworkBase::process(VertexId v) const
{
    DMST_ASSERT(v < processes_.size());
    return *processes_[v];
}

}  // namespace dmst
