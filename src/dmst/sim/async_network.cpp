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

}  // namespace

AsyncNetwork::AsyncNetwork(const WeightedGraph& g, NetConfig config,
                           int shard_override)
    : NetworkBase(g, config)
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
    DMST_ASSERT_MSG(!config_.conditioner.enabled(),
                    "the lock-step conditioner does not compose with the "
                    "async engine (its delay model subsumes the latency axis)");
    if (config_.faults.crash_enabled())
        throw std::invalid_argument(
            "crash-stop faults do not compose with the async engine "
            "(stall detection is a lock-step device); use --engine=serial "
            "or --engine=parallel for crash scenarios");
    if (config_.async.max_delay < 1)
        throw std::invalid_argument("async max_delay must be >= 1");

    threads_ = resolve_threads(config_.threads);
    shards_ = shard_override > 0 ? shard_override : threads_;
    // Event::owner routes pool slots back to their shard in one byte.
    DMST_ASSERT_MSG(shards_ <= 256, "async engine supports at most 256 shards");

    const std::size_t n = graph_.vertex_count();
    bounds_.resize(static_cast<std::size_t>(shards_) + 1);
    for (int s = 0; s <= shards_; ++s)
        bounds_[s] = static_cast<VertexId>(
            n * static_cast<std::size_t>(s) / static_cast<std::size_t>(shards_));

    shard_of_.resize(n);
    for (int s = 0; s < shards_; ++s)
        for (VertexId v = bounds_[s]; v < bounds_[s + 1]; ++v)
            shard_of_[v] = s;

    // Queue span: the seeded delay draw plus, under the loss shim, the
    // worst-case retransmission wait a payload can carry. Auto mode keeps
    // the timing wheel while the span is small and falls back to the heap
    // for wide fault backoffs — same ordering contract either way.
    int queue_span = config_.async.max_delay;
    loss_on_ = faults_.loss_enabled();
    if (loss_on_) {
        queue_span += static_cast<int>(config_.faults.worst_round_ticks());
        fault_attempts_.assign(2 * graph_.edge_count(), 0);
    }
    // Native mode books Context::set_timer timers as future events; give
    // them scheduling room up to the wheel's efficient span (longer
    // delays are rejected at schedule_timer).
    if (native_)
        queue_span = std::max(queue_span, EventQueue<Event>::kWheelMaxDelay);
    queue_span_ = queue_span;
    shard_states_.reserve(static_cast<std::size_t>(shards_));
    for (int s = 0; s < shards_; ++s) {
        shard_states_.emplace_back(queue_span);
        ShardState& st = shard_states_.back();
        st.freed.resize(static_cast<std::size_t>(shards_));
        if (config_.record_per_edge)
            st.edge_hist.assign(graph_.edge_count(), 0);
    }
    merge_cursor_.assign(static_cast<std::size_t>(shards_), 0);

    if (threads_ > 1)
        pool_ = std::make_unique<ThreadPool>(threads_);

    // Per-shard trace tables: each worker records into its own shard's
    // cells (routed by shard_of_), folded at finalize only — the same
    // no-synchronization discipline as the counter deltas.
    if (trace_)
        trace_->set_sharding(shards_, shard_of_);

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

bool AsyncNetwork::wheel_queue() const
{
    return shard_states_.front().queue.wheel();
}

int AsyncNetwork::delay_draw(std::uint64_t seq) const
{
    const std::uint64_t draw = LinkConditioner::mix(
        config_.async.event_seed ^ LinkConditioner::mix(kDelayStream ^ seq));
    return 1 + static_cast<int>(
                   draw % static_cast<std::uint64_t>(config_.async.max_delay));
}

void AsyncNetwork::run_phase(const std::function<void(int)>& phase)
{
    if (pool_) {
        pool_->run_jobs(shards_, phase);
    } else {
        for (int s = 0; s < shards_; ++s)
            phase(s);
    }
}

void AsyncNetwork::rethrow_shard_error()
{
    for (int s = 0; s < shards_; ++s) {
        if (shard_states_[s].error) {
            std::exception_ptr err = shard_states_[s].error;
            for (auto& st : shard_states_)
                st.error = nullptr;
            std::rethrow_exception(err);
        }
    }
}

void AsyncNetwork::send_from(VertexId from, std::size_t port, Message&& msg)
{
    const std::size_t size = msg.size_words();
    charge_bandwidth(from, port, size);
    if (trace_)
        trace_->on_send(from, msg.tag, size);

    const int shard = shard_for(from);
    ShardState& st = shard_states_[static_cast<std::size_t>(shard)];
    Event ev;
    ev.kind = EventKind::Payload;
    ev.target = graph_.neighbor(from, port);
    ev.port = static_cast<std::uint32_t>(reverse_port(from, port));
    ev.sender = from;
    ev.level = native_ ? 0 : sync_->pulse(from);
    const std::size_t half = graph_.adj_index(from, port);
    ev.link_seq =
        native_ ? static_cast<std::uint32_t>(half) : send_seq_[half]++;
    ev.owner = static_cast<std::uint8_t>(shard);
    ev.payload = st.pool.acquire(std::move(msg));
    // Loss shim: plan the transmission (kOneWay hops — the seeded event
    // delay models the wire) and charge the retransmission wait to
    // this payload's schedule. The plan is a pure function of (loss_seed,
    // edge, direction, burst clock), so the schedule stays bit-identical
    // across shard and thread counts.
    if (loss_on_)
        ev.fault_wait = static_cast<std::uint32_t>(
            plan_fault_delivery(from, port, st) - FaultConfig::kOneWay);

    if (config_.record_per_edge) {
        const EdgeId e = graph_.edge_id(from, port);
        if (st.edge_hist[e]++ == 0)
            st.touched_edges.push_back(e);
    }
    if (!native_)
        sync_->note_send(from);
    ++st.in_flight;  // unconsumed until the receiver's matching pulse
    ++st.pulse_sends;
    st.messages += 1;
    st.words += size;
    // Native handler sends merge by the causing event's seq; everything
    // else (pulse-phase sends, native on_start sends) merges in sender-id
    // order via staged_pulse concatenation.
    if (st.in_apply) {
        ev.seq = st.cause_seq;
        st.staged_apply.push_back(ev);
    } else {
        st.staged_pulse.push_back(ev);
    }
}

std::uint64_t AsyncNetwork::plan_fault_delivery(VertexId from, std::size_t port,
                                                ShardState& st)
{
    const EdgeId e = graph_.edge_id(from, port);
    const int direction = from < graph_.neighbor(from, port) ? 0 : 1;
    const FaultPlan plan = faults_.plan_transmission(
        e, direction, fault_attempts_[graph_.adj_index(from, port)]);
    st.drops += plan.drops;
    st.retransmissions += plan.retransmissions;
    st.acks += plan.acks;
    st.timeouts += plan.timeouts;
    if (trace_ && (plan.retransmissions | plan.drops))
        trace_->on_fault(from, plan.retransmissions, plan.drops);
    return plan.delivery;
}

void AsyncNetwork::schedule_timer(VertexId v, std::uint64_t delay,
                                  std::uint64_t timer_id)
{
    if (!native_) {
        // Synchronized modes: timers live on the logical-round clock and
        // fire through the MessageProcess lock-step adapter.
        NetworkBase::schedule_timer(v, delay, timer_id);
        return;
    }
    DMST_ASSERT_MSG(delay <= static_cast<std::uint64_t>(queue_span_),
                    "native timer delay exceeds the scheduling window");
    ShardState& st = shard_states_[static_cast<std::size_t>(shard_for(v))];
    Event ev;
    ev.kind = EventKind::Timer;
    ev.target = v;
    ev.level = timer_id;
    ev.link_seq = static_cast<std::uint32_t>(delay);
    if (st.in_apply) {
        ev.seq = st.cause_seq;
        st.staged_apply.push_back(ev);
    } else {
        st.staged_pulse.push_back(ev);
    }
}

void AsyncNetwork::stage_emits(ShardState& st, std::vector<Event>& staged,
                               std::uint64_t key)
{
    for (const SyncEmit& e : st.emits) {
        Event ev;
        ev.kind = EventKind::Safe;
        ev.target = e.target;
        ev.port = e.ctrl;
        ev.level = e.level;
        ev.seq = key;
        staged.push_back(ev);
    }
    st.sync_messages += st.emits.size();
    st.sync_words += st.emits.size();
    st.emits.clear();
}

void AsyncNetwork::touch(VertexId v, ShardState& st)
{
    if (touch_stamp_[v] != step_stamp_) {
        touch_stamp_[v] = step_stamp_;
        st.touched.push_back(v);
    }
}

void AsyncNetwork::apply(Event& ev, ShardState& st)
{
    if (native_) {
        dispatch_native(ev, st);
        return;
    }
    switch (ev.kind) {
        case EventKind::Payload: {
            sync_->buffer_payload(
                ev.target, ev.level,
                AsyncIncoming{ev.port, ev.link_seq, ev.owner, ev.payload});
            // Acknowledge the link-level delivery back to the sender;
            // merged after the barrier keyed by this payload's seq.
            Event ack;
            ack.kind = EventKind::Ack;
            ack.target = ev.sender;
            ack.level = ev.level;
            ack.seq = ev.seq;
            st.sync_messages += 1;
            st.sync_words += 1;
            st.staged_apply.push_back(ack);
            break;
        }
        case EventKind::Ack:
            sync_->note_ack(ev.target, st.emits);
            stage_emits(st, st.staged_apply, ev.seq);
            break;
        case EventKind::Safe:
            sync_->on_control(ev.target, ev.port, ev.level, st.emits);
            stage_emits(st, st.staged_apply, ev.seq);
            break;
        case EventKind::Timer:
            DMST_ASSERT_MSG(false, "timer event in a synchronized mode");
            break;
    }
    touch(ev.target, st);
}

void AsyncNetwork::dispatch_native(Event& ev, ShardState& st)
{
    const VertexId v = ev.target;
    // Each activation gets a fresh bandwidth budget and its own step on
    // the vertex's activation clock (Context::round()).
    reset_round_words(v);
    const std::uint64_t act = ++vertex_level_[v];
    st.max_act = std::max(st.max_act, act);
    if (trace_)
        trace_->set_now_for(v, act, now_);
    st.in_apply = true;
    st.cause_seq = ev.seq;
    ++st.activations;
    Context ctx = context_for(v);
    MessageProcess* proc = native_procs_[v];
    if (ev.kind == EventKind::Payload) {
        Message msg = std::move(*ev.payload);
        st.freed[ev.owner].push_back(ev.payload);
        st.in_flight -= 1;
        proc->on_message(ctx, ev.port, std::move(msg));
    } else {
        DMST_ASSERT_MSG(ev.kind == EventKind::Timer,
                        "synchronizer event in native mode");
        proc->on_wakeup(ctx, ev.level);
    }
    st.in_apply = false;
    const bool now_done = proc->done();
    if (now_done != (done_cache_[v] != 0)) {
        done_cache_[v] = now_done ? 1 : 0;
        st.not_done += now_done ? -1 : 1;
    }
}

void AsyncNetwork::execute_pulse(VertexId v, ShardState& st)
{
    const std::uint64_t level = sync_->pulse(v) + 1;
    reset_round_words(v);
    zero_row(send_seq_, v);

    // Canonical inbox: the consumed tag's payloads in (port, link order),
    // moved out of their pool slots; the slots return to their owning
    // shard at the merge barrier.
    sync_->begin_pulse(v, st.scratch);
    std::vector<Incoming>& store = inbox_store_[v];
    if (store.size() < st.scratch.size())
        store.resize(st.scratch.size());
    for (std::size_t i = 0; i < st.scratch.size(); ++i) {
        const AsyncIncoming& in = st.scratch[i];
        store[i].port = in.port;
        store[i].msg = std::move(*in.payload);
        st.freed[in.owner].push_back(in.payload);
    }
    inbox_span_[v] = InboxSpan{store.data(), st.scratch.size()};
    st.in_flight -= static_cast<std::int64_t>(st.scratch.size());

    vertex_level_[v] = level;  // Context::round() during this activation
    // Trace clock: the round is the pulse level itself, and the virtual
    // time is the clock at activation (sends within a pulse do not
    // advance it). Pulse levels match the lock-step engines' rounds — the
    // basis of tri-engine trace parity.
    if (trace_)
        trace_->set_now_for(v, level, now_);
    st.pulse_sends = 0;
    ++st.activations;
    Context ctx = context_for(v);
    processes_[v]->on_round(ctx);
    const bool now_done = processes_[v]->done();
    if (now_done != (done_cache_[v] != 0)) {
        done_cache_[v] = now_done ? 1 : 0;
        st.not_done += now_done ? -1 : 1;
    }
    st.pulses.push_back(PulseRec{level, st.pulse_sends});

    sync_->note_pulse_sends_done(v, st.emits);
    stage_emits(st, st.staged_pulse, 0);
}

void AsyncNetwork::apply_shard(int s)
{
    ShardState& st = shard_states_[static_cast<std::size_t>(s)];
    try {
        st.due.clear();
        if (!st.queue.empty() && st.queue.next_time() == now_) {
            st.queue.pop_due(now_, st.due);
            st.events += st.due.size();
            for (Event& ev : st.due)
                apply(ev, st);
        } else {
            // Idle this timestamp: advance anyway so the wheel window
            // stays anchored at the global clock.
            st.queue.advance_to(now_);
        }
    } catch (...) {
        st.error = std::current_exception();
    }
}

void AsyncNetwork::pulse_shard(int s)
{
    ShardState& st = shard_states_[static_cast<std::size_t>(s)];
    try {
        // Ascending id keeps the staged-send order canonical; the while
        // loop covers a pulse whose immediate safety (no sends) re-enables
        // the next one against already-held SAFEs.
        std::sort(st.touched.begin(), st.touched.end());
        for (VertexId v : st.touched)
            while (sync_->ready(v))
                execute_pulse(v, st);
    } catch (...) {
        st.error = std::current_exception();
    }
}

void AsyncNetwork::epoch_shard(int s)
{
    ShardState& st = shard_states_[static_cast<std::size_t>(s)];
    try {
        for (VertexId v = bounds_[s]; v < bounds_[s + 1]; ++v)
            execute_pulse(v, st);
    } catch (...) {
        st.error = std::current_exception();
    }
}

void AsyncNetwork::start_shard(int s)
{
    // Native wakeup fan: on_start for every vertex, ascending id within
    // the shard — staged_pulse concatenation keeps the spawn order the
    // global id order, independent of the shard partition.
    ShardState& st = shard_states_[static_cast<std::size_t>(s)];
    try {
        // A wakeup fan usually greets every neighbor: stage one send per
        // port in a single allocation. Grown by doubling instead, the
        // fan's freed buffers fragment the heap and lift the peak RSS.
        std::size_t ports = 0;
        for (VertexId v = bounds_[s]; v < bounds_[s + 1]; ++v)
            ports += graph_.degree(v);
        st.staged_pulse.reserve(ports);
        for (VertexId v = bounds_[s]; v < bounds_[s + 1]; ++v) {
            reset_round_words(v);
            vertex_level_[v] = 1;  // the wakeup is activation 1
            st.max_act = std::max<std::uint64_t>(st.max_act, 1);
            if (trace_)
                trace_->set_now_for(v, 1, now_);
            ++st.activations;
            Context ctx = context_for(v);
            native_procs_[v]->on_start(ctx);
            const bool now_done = native_procs_[v]->done();
            if (now_done != (done_cache_[v] != 0)) {
                done_cache_[v] = now_done ? 1 : 0;
                st.not_done += now_done ? -1 : 1;
            }
        }
    } catch (...) {
        st.error = std::current_exception();
    }
}

void AsyncNetwork::schedule(Event&& ev)
{
    ev.seq = event_seq_++;
    if (ev.kind == EventKind::Timer) {
        // Timers fire at exactly now + delay: deterministic local alarms,
        // not message hops, so they consume no seeded delay draw (the
        // stream is keyed per seq — skipping a seq is safe).
        ev.time = now_ + static_cast<std::uint64_t>(ev.link_seq);
    } else {
        ev.time = now_ + static_cast<std::uint64_t>(ev.fault_wait) +
                  static_cast<std::uint64_t>(delay_draw(ev.seq));
        if (native_ && ev.kind == EventKind::Payload) {
            // FIFO per directed link, which classic asynchronous protocols
            // (GHS) assume: never deliver before the link's previous
            // payload. Ties are safe — same-timestamp events apply in seq
            // order and seq respects send order. Synchronized modes stay
            // unclamped so their event schedules match their baselines.
            std::uint64_t& last = link_last_[ev.link_seq];
            ev.time = std::max(ev.time, last);
            last = ev.time;
        }
    }
    shard_states_[static_cast<std::size_t>(shard_for(ev.target))].queue.push(
        std::move(ev));
}

void AsyncNetwork::merge_barrier()
{
    // Fold every shard's counter deltas and pulse records; return freed
    // pool slots to their owners.
    for (ShardState& st : shard_states_) {
        stats_.messages += st.messages;
        stats_.words += st.words;
        stats_.sync_messages += st.sync_messages;
        stats_.sync_words += st.sync_words;
        stats_.events += st.events;
        stats_.activations += st.activations;
        st.messages = st.words = st.sync_messages = st.sync_words =
            st.events = st.activations = 0;
        stats_.drops += st.drops;
        stats_.retransmissions += st.retransmissions;
        stats_.acks += st.acks;
        stats_.timeouts += st.timeouts;
        st.drops = st.retransmissions = st.acks = st.timeouts = 0;
        DMST_ASSERT(st.in_flight >= 0 ||
                    in_flight_ >= static_cast<std::uint64_t>(-st.in_flight));
        in_flight_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(in_flight_) + st.in_flight);
        st.in_flight = 0;
        not_done_ = static_cast<std::size_t>(
            static_cast<std::int64_t>(not_done_) + st.not_done);
        st.not_done = 0;
        // Native activation clock (st.max_act is a monotone high-water
        // mark, so folding the max is idempotent); zero in sync modes.
        max_level_ = std::max(max_level_, st.max_act);

        for (const PulseRec& rec : st.pulses) {
            max_level_ = std::max(max_level_, rec.level);
            // level_count_ is a sliding window anchored one past
            // completed_levels_ (every pulse is above it: a vertex's next
            // level exceeds every fully completed one). The window span is
            // the live level skew — bounded — so once warm this never
            // reallocates.
            const std::size_t off =
                static_cast<std::size_t>(rec.level - completed_levels_ - 1);
            if (level_count_.size() <= off)
                level_count_.resize(off + 1, 0);
            ++level_count_[off];
            if (config_.record_per_round) {
                if (stats_.messages_per_round.size() < rec.level)
                    stats_.messages_per_round.resize(rec.level, 0);
                stats_.messages_per_round[rec.level - 1] += rec.sends;
            }
        }
        st.pulses.clear();
        st.touched.clear();

        for (EdgeId e : st.touched_edges) {
            stats_.messages_per_edge[e] += st.edge_hist[e];
            st.edge_hist[e] = 0;
        }
        st.touched_edges.clear();

        for (std::size_t o = 0; o < st.freed.size(); ++o) {
            for (Message* slot : st.freed[o])
                shard_states_[o].pool.release(slot);
            st.freed[o].clear();
        }
    }

    // Canonical schedule assignment. Apply-phase spawns (ACKs, SAFE fans)
    // merge across shards by their causing event's seq — each shard's list
    // is already ascending (events were applied in seq order), and cause
    // seqs are globally unique, so this k-way merge reproduces one global
    // order no matter how vertices are sharded. Pulse-phase spawns follow
    // in sender-id order: shards are contiguous ascending id ranges, so
    // concatenation is canonical. Every event then draws its delay from
    // the stream keyed by its own canonical seq.
    std::fill(merge_cursor_.begin(), merge_cursor_.end(), 0);
    for (;;) {
        int best = -1;
        std::uint64_t best_key = 0;
        for (int s = 0; s < shards_; ++s) {
            const std::vector<Event>& staged =
                shard_states_[static_cast<std::size_t>(s)].staged_apply;
            const std::size_t cur = merge_cursor_[static_cast<std::size_t>(s)];
            if (cur < staged.size() &&
                (best < 0 || staged[cur].seq < best_key)) {
                best = s;
                best_key = staged[cur].seq;
            }
        }
        if (best < 0)
            break;
        ShardState& st = shard_states_[static_cast<std::size_t>(best)];
        schedule(std::move(
            st.staged_apply[merge_cursor_[static_cast<std::size_t>(best)]++]));
    }
    for (ShardState& st : shard_states_) {
        st.staged_apply.clear();
        for (Event& ev : st.staged_pulse)
            schedule(std::move(ev));
        st.staged_pulse.clear();
    }

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

    // The lock-step quiescence predicate, evaluated only here so it is a
    // function of folded (schedule-determined) state: once latched, pulse
    // phases stop and the synchronizer's residual ACK/SAFE traffic drains.
    // It cannot unflip within an epoch — only pulses change either count.
    if (!quiescent_ && not_done_ == 0 && in_flight_ == 0)
        quiescent_ = true;
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
        run_phase([this](int s) { start_shard(s); });
        rethrow_shard_error();
        merge_barrier();
        return;
    }
    sync_->start_epoch(max_level_);
    completed_levels_ = max_level_;
    level_count_.clear();
    // Every vertex fires the epoch's first pulse at the current virtual
    // time, in id order (shard concatenation = ascending id) — the async
    // analogue of lock-step round base+1.
    run_phase([this](int s) { epoch_shard(s); });
    rethrow_shard_error();
    merge_barrier();
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
        // The earliest pending timestamp across every shard's queue.
        std::uint64_t t = 0;
        bool any = false;
        for (ShardState& st : shard_states_) {
            if (st.queue.empty())
                continue;
            const std::uint64_t nt = st.queue.next_time();
            if (!any || nt < t)
                t = nt;
            any = true;
        }
        if (!any) {
            if (quiescent_) {
                terminated_ = true;
                break;
            }
            throw InvariantViolation(
                "async engine deadlock: event queue drained while the "
                "network is not quiescent");
        }
        DMST_ASSERT(t > now_);
        now_ = t;
        ++step_stamp_;
        run_phase([this](int s) { apply_shard(s); });
        rethrow_shard_error();
        if (!quiescent_ && !native_) {
            run_phase([this](int s) { pulse_shard(s); });
            rethrow_shard_error();
        }
        merge_barrier();
        advanced = true;
    }

    // round_ feeds run()'s max_rounds guard: pulse levels in synchronized
    // modes, the virtual clock in native mode (whose activation counts
    // are per-vertex, not global).
    round_ = native_ ? now_ : max_level_;
    stats_.rounds = max_level_;
    stats_.virtual_time = now_;
    return true;
}

}  // namespace dmst
