#include "dmst/congest/network_base.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "dmst/obs/trace.h"
#include "dmst/util/assert.h"

namespace dmst {

// ---------------------------------------------------------------- Context

std::size_t Context::n() const
{
    return net_->graph_.vertex_count();
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

InboxView Context::inbox() const
{
    const NetworkBase::InboxSpan& span = net_->inbox_span_[vertex_];
    return InboxView(span.data, span.len);
}

// --------------------------------------------------------- MessageProcess

void MessageProcess::on_round(Context& ctx)
{
    if (!started_) {
        started_ = true;
        on_start(ctx);
    }
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
    has_crashes_ = faults_.crash_enabled();
    if (has_crashes_) {
        crashed_.assign(g.vertex_count(), 0);
        pending_crashes_ = config_.faults.crashes;
        std::sort(pending_crashes_.begin(), pending_crashes_.end(),
                  [](const CrashPoint& a, const CrashPoint& b) {
                      return a.round != b.round ? a.round < b.round
                                                : a.vertex < b.vertex;
                  });
        stall_window_ = 2 * static_cast<std::uint64_t>(g.vertex_count()) + 64;
    }
    if (config_.trace.enabled) {
        trace_owned_ = std::make_unique<TraceRecorder>(g.vertex_count());
        trace_ = trace_owned_.get();
    }
    const std::size_t n = graph_.vertex_count();
    wake_.assign(n, Process::kNever);
    stamp_.assign(n, 0);
    inbox_span_.resize(n);
    inbox_count_.assign(n, 0);
    scatter_off_.assign(n, 0);
    words_this_round_.assign(2 * graph_.edge_count(), 0);
    if (config_.record_per_edge)
        stats_.messages_per_edge.assign(graph_.edge_count(), 0);

    // Per-half-edge view of the conditioner's per-edge caps, so the send
    // path never hashes or maps edge ids.
    if (config_.conditioner.hetero_bandwidth && config_.bandwidth > 1) {
        link_cap_.resize(2 * graph_.edge_count());
        for (VertexId v = 0; v < n; ++v)
            for (std::size_t p = 0; p < graph_.degree(v); ++p)
                link_cap_[graph_.adj_index(v, p)] = static_cast<std::uint16_t>(
                    cond_.bandwidth_cap(graph_.edge_id(v, p)));
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

void NetworkBase::fold_fault_delta(FaultDelta& delta)
{
    for (VertexId v : delta.wedged) {
        if (!crashed_[v]) {
            crashed_[v] = 1;
            ++stats_.crashed_vertices;
        }
    }
    stats_.failed_sends += delta.failed_sends;
    delta = FaultDelta();
}

bool NetworkBase::run_process_guarded(VertexId v, Context& ctx,
                                      FaultDelta& delta)
{
    if (!has_crashes_ || !faults_.config().graceful) {
        processes_[v]->on_round(ctx);
        return true;
    }
    try {
        processes_[v]->on_round(ctx);
    } catch (const std::logic_error&) {
        // InvariantViolation and the std:: precondition family
        // (out_of_range from a .at() on state a dead neighbor never
        // populated, etc.) — both mean the protocol wedged, not that the
        // engine broke. Runtime errors still propagate.
        delta.wedged.push_back(v);
        return false;
    }
    return true;
}

void NetworkBase::step_active(ActiveSet& act, FaultDelta& delta)
{
    using Wakeup = std::pair<std::uint64_t, VertexId>;
    const std::uint64_t now = round_;

    // This round's vertices: the ones booked for it, plus (deduped by
    // stamp) the ones with mail and the due calendar entries. Only those
    // extras need sorting; `next` is ascending by construction.
    act.extra.clear();
    for (VertexId v : act.next)
        stamp_[v] = now;
    for (VertexId v : act.inbox) {
        if (stamp_[v] != now) {
            stamp_[v] = now;
            act.extra.push_back(v);
        }
    }
    while (!act.calendar.empty() && act.calendar.front().first <= now) {
        std::pop_heap(act.calendar.begin(), act.calendar.end(),
                      std::greater<Wakeup>());
        const auto [at, v] = act.calendar.back();
        act.calendar.pop_back();
        if (wake_[v] == at && stamp_[v] != now) {
            stamp_[v] = now;
            act.extra.push_back(v);
        }
    }
    act.run.clear();
    if (act.extra.empty()) {
        act.run.swap(act.next);
    } else {
        std::sort(act.extra.begin(), act.extra.end());
        act.run.resize(act.next.size() + act.extra.size());
        std::merge(act.next.begin(), act.next.end(), act.extra.begin(),
                   act.extra.end(), act.run.begin());
    }
    act.next.clear();

    for (VertexId v : act.run) {
        if (has_crashes_ && crashed_[v])
            continue;
        reset_round_words(v);
        Context ctx = context_for(v);
        ++act.activations;
        if (!run_process_guarded(v, ctx, delta))
            continue;  // wedged: crashes at the next fold

        // Book the wakeup. An unchanged booking keeps its live entry (in
        // `next` or the calendar); a changed one orphans it.
        std::uint64_t at = processes_[v]->next_wakeup(ctx);
        if (at != Process::kNever)
            at = std::max(at, now + 1);
        std::uint64_t& booked = wake_[v];
        if (at == booked)
            continue;
        if (booked == Process::kNever)
            ++act.booked;
        else if (at == Process::kNever)
            --act.booked;
        booked = at;
        if (at == now + 1) {
            act.next.push_back(v);
        } else if (at != Process::kNever) {
            act.calendar.emplace_back(at, v);
            std::push_heap(act.calendar.begin(), act.calendar.end(),
                           std::greater<Wakeup>());
        }
    }
}

void NetworkBase::wake_range(ActiveSet& act, VertexId lo, VertexId hi)
{
    act.next.clear();
    for (VertexId v = lo; v < hi; ++v) {
        act.next.push_back(v);
        wake_[v] = round_ + 1;
    }
    act.booked = hi - lo;
}

void NetworkBase::apply_crashes()
{
    while (next_crash_ < pending_crashes_.size() &&
           pending_crashes_[next_crash_].round <= round_) {
        const VertexId v = pending_crashes_[next_crash_++].vertex;
        if (!crashed_[v]) {
            crashed_[v] = 1;
            ++stats_.crashed_vertices;
        }
    }
}

void NetworkBase::note_round()
{
    if (!has_crashes_ || stalled_)
        return;
    if (in_flight_ > 0) {
        idle_rounds_ = 0;
        return;
    }
    if (++idle_rounds_ < stall_window_)
        return;
    stats_.stalled = true;
    stalled_ = true;
    if (!config_.faults.graceful) {
        std::ostringstream oss;
        oss << "crash-stop stall: no live traffic for " << idle_rounds_
            << " rounds after " << stats_.crashed_vertices
            << " crash(es) at round " << round_
            << " (graceful=false)";
        throw InvariantViolation(oss.str());
    }
}

void NetworkBase::throw_round_limit(bool deadlock) const
{
    std::ostringstream oss;
    if (deadlock)
        oss << "sleep deadlock: protocol stuck after " << round_
            << " rounds with no messages in flight and no wakeup booked";
    else
        oss << "round limit exceeded: protocol appears stuck after " << round_
            << " rounds (max_rounds=" << config_.max_rounds << "); "
            << in_flight_ << " messages in flight";
    // The processes this instance steps: a socket rank reports its block.
    std::size_t not_done = 0;
    std::vector<VertexId> sample;
    for (VertexId v = local_begin(); v < local_end(); ++v) {
        if (!processes_[v]->done()) {
            ++not_done;
            if (sample.size() < 8)
                sample.push_back(v);
        }
    }
    oss << "; " << not_done << " of " << local_end() - local_begin()
        << " processes not done";
    if (!sample.empty()) {
        oss << (deadlock ? " (sleeping ids:" : " (first ids:");
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
