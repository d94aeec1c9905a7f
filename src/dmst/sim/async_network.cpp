#include "dmst/sim/async_network.h"

#include <algorithm>
#include <stdexcept>

#include "dmst/congest/conditioner.h"
#include "dmst/obs/trace.h"
#include "dmst/util/assert.h"

namespace dmst {

namespace {

// Domain-separation constant of the per-event delay stream.
constexpr std::uint64_t kDelayStream = 0x64656c617921000bULL;

// Queue span: the seeded delay draw plus, under the loss shim, the
// worst-case retransmission wait a payload can carry. Auto mode keeps the
// timing wheel while the span is small and falls back to the heap for wide
// fault backoffs — same ordering contract either way.
int queue_span_for(const NetConfig& config)
{
    if (config.async.max_delay < 1)
        throw std::invalid_argument("async max_delay must be >= 1");
    int span = config.async.max_delay;
    if (config.faults.loss_enabled())
        span += static_cast<int>(config.faults.worst_round_ticks());
    return span;
}

}  // namespace

AsyncNetwork::AsyncNetwork(const WeightedGraph& g, NetConfig config)
    : NetworkBase(g, config),
      queue_(queue_span_for(config))
{
    switch (config_.async.sync) {
        case SyncMode::Alpha:
            sync_ = std::make_unique<AlphaSynchronizer>(g);
            break;
        case SyncMode::Beta:
            sync_ = std::make_unique<BetaSynchronizer>(g);
            break;
        case SyncMode::None:
            native_ = true;
            break;
    }
    loss_on_ = faults_.loss_enabled();
    if (loss_on_)
        fault_attempts_.assign(2 * graph_.edge_count(), 0);

    const std::size_t n = graph_.vertex_count();
    inbox_store_.resize(n);
    done_cache_.assign(n, 0);
    touch_stamp_.assign(n, 0);
    vertex_level_.assign(n, 0);
    round_by_vertex_ = vertex_level_.data();
    // Native payloads carry their sender's half-edge index in the 32-bit
    // Event::link_seq.
    DMST_ASSERT(2 * graph_.edge_count() <= ~std::uint32_t{0});
    if (native_)
        link_last_.assign(2 * graph_.edge_count(), 0);
    else
        send_seq_.assign(2 * graph_.edge_count(), 0);
}

int AsyncNetwork::delay_draw(std::uint64_t seq) const
{
    const std::uint64_t draw = LinkConditioner::mix(
        config_.async.event_seed ^ LinkConditioner::mix(kDelayStream ^ seq));
    return 1 + static_cast<int>(
                   draw % static_cast<std::uint64_t>(config_.async.max_delay));
}

void AsyncNetwork::send_from(VertexId from, std::size_t port, Message&& msg)
{
    const std::size_t size = msg.size_words();
    charge_bandwidth(from, port, size);
    if (trace_)
        trace_->on_send(from, msg.tag, size);

    Event ev;
    ev.kind = EventKind::Payload;
    ev.target = graph_.neighbor(from, port);
    ev.port = static_cast<std::uint32_t>(reverse_port(from, port));
    ev.sender = from;
    ev.level = native_ ? 0 : sync_->pulse(from);
    const std::size_t half = graph_.adj_index(from, port);
    ev.link_seq =
        native_ ? static_cast<std::uint32_t>(half) : send_seq_[half]++;
    ev.payload = payloads_.acquire(std::move(msg));
    // Loss shim: plan the transmission (kOneWay hops — the seeded event
    // delay models the wire) and charge the retransmission wait to
    // this payload's schedule. The plan is a pure function of (loss_seed,
    // edge, direction, burst clock), so the schedule stays replay-exact.
    if (loss_on_)
        ev.fault_wait = static_cast<std::uint32_t>(
            plan_fault_delivery(from, port) - FaultConfig::kOneWay);

    if (config_.record_per_edge)
        ++stats_.messages_per_edge[graph_.edge_id(from, port)];
    if (!native_)
        sync_->note_send(from);
    ++in_flight_;  // unconsumed until the receiver's matching pulse
    ++pulse_sends_;
    stats_.messages += 1;
    stats_.words += size;
    schedule(std::move(ev));
}

std::uint64_t AsyncNetwork::plan_fault_delivery(VertexId from, std::size_t port)
{
    const EdgeId e = graph_.edge_id(from, port);
    const int direction = from < graph_.neighbor(from, port) ? 0 : 1;
    const FaultPlan plan = faults_.plan_transmission(
        e, direction, fault_attempts_[graph_.adj_index(from, port)]);
    stats_.drops += plan.drops;
    stats_.retransmissions += plan.retransmissions;
    stats_.acks += plan.acks;
    stats_.timeouts += plan.timeouts;
    if (trace_ && (plan.retransmissions | plan.drops))
        trace_->on_fault(from, plan.retransmissions, plan.drops);
    return plan.delivery;
}

void AsyncNetwork::send_emits()
{
    for (const SyncEmit& e : emits_) {
        Event ev;
        ev.kind = EventKind::Safe;
        ev.target = e.target;
        ev.port = e.ctrl;
        ev.level = e.level;
        schedule(std::move(ev));
    }
    stats_.sync_messages += emits_.size();
    stats_.sync_words += emits_.size();
    emits_.clear();
}

void AsyncNetwork::touch(VertexId v)
{
    if (touch_stamp_[v] != step_stamp_) {
        touch_stamp_[v] = step_stamp_;
        touched_.push_back(v);
    }
}

void AsyncNetwork::note_done(VertexId v, bool now_done)
{
    if (now_done != (done_cache_[v] != 0)) {
        done_cache_[v] = now_done ? 1 : 0;
        if (now_done)
            --not_done_;
        else
            ++not_done_;
    }
}

void AsyncNetwork::apply(Event& ev)
{
    if (native_) {
        dispatch_native(ev);
        return;
    }
    switch (ev.kind) {
        case EventKind::Payload: {
            sync_->buffer_payload(ev.target, ev.level,
                                  AsyncIncoming{ev.port, ev.link_seq,
                                                ev.payload});
            // Acknowledge the link-level delivery back to the sender.
            Event ack;
            ack.kind = EventKind::Ack;
            ack.target = ev.sender;
            ack.level = ev.level;
            stats_.sync_messages += 1;
            stats_.sync_words += 1;
            schedule(std::move(ack));
            break;
        }
        case EventKind::Ack:
            sync_->note_ack(ev.target, emits_);
            send_emits();
            break;
        case EventKind::Safe:
            sync_->on_control(ev.target, ev.port, ev.level, emits_);
            send_emits();
            break;
    }
    // Only events addressed to a vertex change its readiness, and it stays
    // ready until it pulses: touching the ready targets alone pulses the
    // same vertices as touching every target.
    if (sync_->ready(ev.target))
        touch(ev.target);
}

void AsyncNetwork::dispatch_native(Event& ev)
{
    const VertexId v = ev.target;
    // Each activation gets a fresh bandwidth budget and its own step on
    // the vertex's activation clock (Context::round()).
    reset_round_words(v);
    const std::uint64_t act = ++vertex_level_[v];
    max_level_ = std::max(max_level_, act);
    if (trace_)
        trace_->set_now(act, now_);
    ++stats_.activations;
    Context ctx = context_for(v);
    MessageProcess* proc = native_procs_[v];
    DMST_ASSERT_MSG(ev.kind == EventKind::Payload,
                    "synchronizer event in native mode");
    Message msg = std::move(*ev.payload);
    payloads_.release(ev.payload);
    in_flight_ -= 1;
    proc->on_message(ctx, ev.port, std::move(msg));
    note_done(v, proc->done());
}

void AsyncNetwork::execute_pulse(VertexId v)
{
    const std::uint64_t level = sync_->pulse(v) + 1;

    // Canonical inbox: the consumed tag's payloads in (port, link order),
    // moved out of their pool slots.
    sync_->begin_pulse(v, scratch_);
    std::vector<Incoming>& store = inbox_store_[v];
    if (store.size() < scratch_.size())
        store.resize(scratch_.size());
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
        const AsyncIncoming& in = scratch_[i];
        store[i].port = in.port;
        store[i].msg = std::move(*in.payload);
        payloads_.release(in.payload);
    }
    inbox_span_[v] = InboxSpan{store.data(), scratch_.size()};
    in_flight_ -= scratch_.size();

    vertex_level_[v] = level;  // Context::round() during this activation
    pulse_sends_ = 0;
    // The sleep contract (Process::next_wakeup), as the lock-step engines
    // keep it: a pulse with an empty inbox before the booked wakeup would
    // be a no-op, so on_round is skipped. The pulse itself still runs — the
    // synchronizer must see it. A skipped pulse sends nothing, so the
    // bandwidth ledger and send-order row are cleared lazily here.
    if (!scratch_.empty() || level >= wake_[v]) {
        reset_round_words(v);
        zero_row(send_seq_, v);
        // Trace clock: the round is the pulse level itself, and the
        // virtual time is the clock at activation (sends within a pulse do
        // not advance it). Pulse levels match the lock-step engines'
        // rounds — the basis of tri-engine trace parity.
        if (trace_)
            trace_->set_now(level, now_);
        ++stats_.activations;
        Context ctx = context_for(v);
        processes_[v]->on_round(ctx);
        note_done(v, processes_[v]->done());
        const std::uint64_t at = processes_[v]->next_wakeup(ctx);
        booked_ += at != Process::kNever;
        booked_ -= wake_[v] != Process::kNever;
        wake_[v] = at;
    }

    max_level_ = std::max(max_level_, level);
    // level_count_ is a sliding window anchored one past completed_levels_
    // (every pulse is above it: a vertex's next level exceeds every fully
    // completed one). The window span is the live level skew — bounded —
    // so once warm this never reallocates.
    const std::size_t off =
        static_cast<std::size_t>(level - completed_levels_ - 1);
    if (level_count_.size() <= off)
        level_count_.resize(off + 1, 0);
    ++level_count_[off];
    if (config_.record_per_round) {
        if (stats_.messages_per_round.size() < level)
            stats_.messages_per_round.resize(level, 0);
        stats_.messages_per_round[level - 1] += pulse_sends_;
    }

    sync_->note_pulse_sends_done(v, emits_);
    send_emits();
}

void AsyncNetwork::start_native()
{
    for (VertexId v = 0; v < graph_.vertex_count(); ++v) {
        reset_round_words(v);
        vertex_level_[v] = 1;  // the wakeup is activation 1
        max_level_ = std::max<std::uint64_t>(max_level_, 1);
        if (trace_)
            trace_->set_now(1, now_);
        ++stats_.activations;
        Context ctx = context_for(v);
        native_procs_[v]->on_start(ctx);
        note_done(v, native_procs_[v]->done());
    }
}

void AsyncNetwork::schedule(Event&& ev)
{
    ev.seq = event_seq_++;
    ev.time = now_ + static_cast<std::uint64_t>(ev.fault_wait) +
              static_cast<std::uint64_t>(delay_draw(ev.seq));
    if (native_ && ev.kind == EventKind::Payload) {
        // FIFO per directed link, which classic asynchronous protocols
        // (GHS) assume: never deliver before the link's previous payload.
        // Ties are safe — same-timestamp events apply in seq order and seq
        // respects send order. Synchronized modes stay unclamped so their
        // event schedules match their baselines.
        std::uint64_t& last = link_last_[ev.link_seq];
        ev.time = std::max(ev.time, last);
        last = ev.time;
    }
    queue_.push(std::move(ev));
}

void AsyncNetwork::end_batch()
{
    // Level accounting: completed_levels_ advances once every vertex has
    // executed the level (pulses are consecutive per vertex, so the
    // lowest incomplete slot gates all later ones). Completed slots slide
    // out of the window — a shift, never a reallocation.
    std::size_t done = 0;
    while (done < level_count_.size() &&
           level_count_[done] == graph_.vertex_count())
        ++done;
    if (done > 0) {
        completed_levels_ += done;
        level_count_.erase(level_count_.begin(),
                           level_count_.begin() +
                               static_cast<std::ptrdiff_t>(done));
    }

    // The lock-step quiescence predicate, evaluated only between batches:
    // once latched, pulses stop and the synchronizer's residual ACK/SAFE
    // traffic drains. It cannot unflip within an epoch — only pulses
    // change either count.
    if (!quiescent_ && not_done_ == 0 && in_flight_ == 0)
        quiescent_ = true;

    // round_ feeds run()'s max_rounds guard: pulse levels in synchronized
    // modes, the virtual clock in native mode (whose activation counts
    // are per-vertex, not global).
    round_ = native_ ? now_ : max_level_;
    stats_.rounds = max_level_;
    stats_.virtual_time = now_;

    // The lock-step engines' sleep-deadlock fail-fast: with nothing in
    // flight and no wakeup booked, only empty pulses could follow.
    if (!quiescent_ && !native_)
        check_sleep_deadlock(booked_);
}

void AsyncNetwork::start_epoch()
{
    DMST_ASSERT_MSG(in_flight_ == 0,
                    "epoch started with unconsumed payloads in flight");
    if (native_) {
        // Native drivers run start-to-quiescence once: a resume would
        // need a second spontaneous wakeup, which the message-driven
        // contract does not define (use a synchronized mode for
        // phase-kicking drivers).
        if (native_started_)
            throw InvariantViolation(
                "native async mode does not support multi-epoch resumes");
        native_started_ = true;
        start_native();
    } else {
        sync_->start_epoch(max_level_);
        completed_levels_ = max_level_;
        level_count_.clear();
        // Every vertex wakes for the epoch's first pulse, fired at the
        // current virtual time in id order — the async analogue of
        // lock-step round base+1. wake_ starts at kNever, and a process
        // kicked back to not-done may have booked no wakeup either.
        std::fill(wake_.begin(), wake_.end(), 0);
        booked_ = graph_.vertex_count();
        for (VertexId v = 0; v < graph_.vertex_count(); ++v)
            execute_pulse(v);
    }
    end_batch();
}

bool AsyncNetwork::step()
{
    DMST_ASSERT_MSG(!processes_.empty(), "init() must be called before stepping");
    if (!started_ || terminated_) {
        if (native_ && native_procs_.empty()) {
            // The native contract, checked once: every process must expose
            // the message-driven surface.
            native_procs_.resize(graph_.vertex_count());
            for (VertexId v = 0; v < graph_.vertex_count(); ++v) {
                native_procs_[v] =
                    dynamic_cast<MessageProcess*>(processes_[v].get());
                if (native_procs_[v] == nullptr)
                    throw std::invalid_argument(
                        "sync=none requires every process to implement the "
                        "message-driven surface (MessageProcess); "
                        "round-programmed drivers need a synchronizer "
                        "(sync=alpha or sync=beta)");
            }
        }
        // First run, or a resume after quiescence (a phase-kicking driver
        // flipped some processes back to not-done): rescan, and open a new
        // synchronizer epoch re-aligned at the current top level.
        not_done_ = 0;
        for (VertexId v = 0; v < graph_.vertex_count(); ++v) {
            done_cache_[v] = processes_[v]->done() ? 1 : 0;
            if (!done_cache_[v])
                ++not_done_;
        }
        if (not_done_ == 0 && in_flight_ == 0)
            return false;
        started_ = true;
        terminated_ = false;
        quiescent_ = false;
        start_epoch();
    }

    // Synchronized modes advance until one more pulse level completes on
    // every vertex (the async analogue of one synchronous round); native
    // mode advances one virtual timestamp per call, so run()'s runaway
    // guard sees the clock move.
    const std::uint64_t target = completed_levels_ + 1;
    bool advanced = false;
    while (!terminated_ &&
           (native_ ? !advanced : completed_levels_ < target)) {
        if (queue_.empty()) {
            if (quiescent_) {
                terminated_ = true;
                break;
            }
            throw InvariantViolation(
                "async engine deadlock: event queue drained while the "
                "network is not quiescent");
        }
        const std::uint64_t t = queue_.next_time();
        DMST_ASSERT(t > now_);
        now_ = t;
        ++step_stamp_;
        due_.clear();
        queue_.pop_due(now_, due_);
        stats_.events += due_.size();
        for (Event& ev : due_)
            apply(ev);
        if (!quiescent_ && !native_) {
            // touched_ holds the vertices this batch made ready (apply);
            // ascending id keeps the send order canonical. The while loop
            // covers a pulse whose immediate safety (no sends) re-enables
            // the next one against already-held SAFEs.
            std::sort(touched_.begin(), touched_.end());
            for (VertexId v : touched_)
                while (sync_->ready(v))
                    execute_pulse(v);
        }
        touched_.clear();
        end_batch();
        advanced = true;
    }
    return true;
}

}  // namespace dmst
