#ifndef DMST_SIM_ASYNC_NETWORK_H
#define DMST_SIM_ASYNC_NETWORK_H

#include <cstdint>
#include <memory>
#include <vector>

#include "dmst/congest/network_base.h"
#include "dmst/congest/payload_pool.h"
#include "dmst/sim/event_queue.h"
#include "dmst/sim/synchronizer.h"

namespace dmst {

// Event-driven asynchronous engine (--engine=async): the third NetworkBase
// backend. There is no global lock-step round loop — a seeded event queue
// drives execution, every message (protocol payload, synchronizer ACK,
// synchronizer control) travels with an independent integer delay hashed
// from [1, config.async.max_delay], and a vertex is activated exactly when
// the configured pulse synchronizer (sim/synchronizer.h — α or β, per
// AsyncConfig::sync) says its next logical pulse may fire.
//
// Native mode (AsyncConfig::sync == SyncMode::None) drops the synchronizer
// entirely: every process must be a MessageProcess, and the engine
// dispatches each payload arrival straight to on_message (timers to
// on_wakeup) at its delivery time — the asynchronous CONGEST model proper.
// Differences from the synchronized modes:
//   - delivery is FIFO per directed link (classic asynchronous protocols
//     assume it): a payload's delivery time is clamped to be no earlier
//     than the link's previous payload, on top of the seeded draw;
//   - Context::round() reports the target's activation count;
//     RunStats::rounds is the maximum activation count over vertices;
//   - sync_messages/sync_words stay exactly 0, and there is no
//     completed-level notion — step() advances one virtual timestamp;
//   - multi-epoch resumes (re-kicking processes after quiescence) are not
//     supported — a native driver runs start-to-quiescence once.
//
// Exactness contract. A vertex's pulse p consumes exactly the payloads its
// neighbors sent during their pulse p-1, sorted into the canonical
// lock-step inbox order (arrival port, then per-link send order), and
// Context::round() reports p during the activation — so every protocol's
// state evolution, payload message counts, and outputs (MST edges,
// verification verdicts) are bit-identical to the serial engine, for every
// (max_delay, event_seed) point. What differs, deterministically per seed:
// RunStats::events, ::virtual_time, ::sync_messages/::sync_words (the
// synchronizer overhead), and the interleaving of activations.
//
// Execution model: sequential discrete-event simulation in timestamp
// batches. Because every delay is >= 1, an event processed at virtual time
// t can only schedule events at t+1 or later, so the engine pops every
// event due at the earliest pending timestamp t and
//
//   1. applies them in seq order — payload arrivals buffer into the
//      synchronizer and send the link-level ACK, ACKs advance the safety
//      state and send SAFE fans, SAFEs advance the readiness state (in
//      native mode: dispatches each to its handler);
//   2. pulses the vertices those events touched whose next pulse became
//      ready, in ascending id;
//   3. advances the completed-level count and checks quiescence.
//
// Every event gets the next global seq the moment it is created and draws
// its delay from the seeded stream keyed by that seq, so the schedule is a
// function of (graph, processes, max_delay, event_seed) alone: nothing
// reads wall clock, and a run replays bit-identically.
//
// Datapath: one EventQueue (sim/event_queue.h — a timing wheel exploiting
// the bounded-delay window, heap fallback past EventQueue::kWheelMaxDelay)
// and one PayloadPool (congest/payload_pool.h) — payloads are moved into a
// pool slot once at send and travel as 8-byte handles; queue and
// synchronizer traffic never move a Message, and a slot is released the
// moment its payload is moved out. All queue, pool and scratch storage is
// grow-only, so the traced steady state performs zero per-event heap
// allocations (tests/test_substrate_alloc.cpp).
//
// Termination. Once a batch ends in the lock-step quiescence predicate
// (every process done, no payload unconsumed) the engine latches
// quiescent_: pulses stop (the analogue of the lock-step engines not
// scheduling another round), the remaining ACK/SAFE traffic drains, and
// the run is over when the queue is empty. The latch cannot unflip within
// an epoch — both not-done and in-flight counts only change in pulses. A
// queue that drains while the network is NOT quiescent is a protocol
// deadlock and throws. Drivers that re-kick processes after quiescence
// (sync Borůvka's phase oracle) resume the engine; each resume starts a
// new synchronizer epoch re-aligned to a common base level.
//
// Caveats: the lock-step conditioner does not compose (make_network
// rejects it — the seeded per-message delay is this repo's latency
// model), and RunStats::rounds counts executed pulse levels, which can
// exceed the serial round count by the endgame skew (trailing pulses of
// already-done processes). messages_per_round is indexed by logical level
// and matches the serial trace exactly. config.threads is ignored.
class AsyncNetwork : public NetworkBase {
public:
    AsyncNetwork(const WeightedGraph& g, NetConfig config);

    // Advances the event simulation until at least one more pulse level
    // completes on every vertex (the async analogue of one synchronous
    // round), quiescence, or termination. Returns false once quiescent.
    bool step() override;

    std::uint64_t virtual_now() const override { return now_; }

    // Completed levels: every vertex has executed this many pulses.
    std::uint64_t completed_levels() const { return completed_levels_; }

    // Whether the queue runs in timing-wheel mode (max_delay within
    // EventQueue::kWheelMaxDelay) or fell back to the binary heap.
    bool wheel_queue() const { return queue_.wheel(); }

protected:
    void send_from(VertexId from, std::size_t port, Message&& msg) override;
    // Native mode books timers as engine events on the virtual clock
    // (fired at now + delay exactly — timers draw no seeded delay);
    // synchronized modes fall back to the logical-round store in the base.
    void schedule_timer(VertexId v, std::uint64_t delay,
                        std::uint64_t timer_id) override;

private:
    enum class EventKind : std::uint8_t { Payload, Ack, Safe, Timer };

    struct Event {
        std::uint64_t time = 0;
        // Global schedule order, assigned at creation; the tie-break
        // within a timestamp.
        std::uint64_t seq = 0;
        // Payload tag / ACK level / control level; Timer events carry the
        // timer_id here instead.
        std::uint64_t level = 0;
        Message* payload = nullptr;  // pool slot; Payload events only
        VertexId target = 0;
        VertexId sender = 0;         // Payload: for the ACK return
        // Payload: arrival port at the target. Synchronizer control
        // events (EventKind::Safe) carry the SyncEmit ctrl code here.
        std::uint32_t port = 0;
        // Payload: send order on the link in synchronized modes; in
        // native mode the sender's half-edge index, the slot of the FIFO
        // clamp. Timer events carry the requested delay here (applied
        // verbatim at schedule()).
        std::uint32_t link_seq = 0;
        // Loss-shim wait (congest/faults.h): the retransmission delay the
        // reliable-delivery shim charges this payload before its final
        // (successful) hop; added on top of the seeded delay draw at
        // scheduling. 0 unless NetConfig::faults arms the loss shim.
        std::uint32_t fault_wait = 0;
        EventKind kind = EventKind::Payload;
    };
    // The in-flight events set the native engine's peak memory.
    static_assert(sizeof(Event) <= 56, "Event must stay within 56 bytes");

    int delay_draw(std::uint64_t seq) const;

    void apply(Event& ev);
    void execute_pulse(VertexId v);
    // Native handler dispatch (Payload -> on_message, Timer -> on_wakeup)
    // at the event's delivery time.
    void dispatch_native(Event& ev);
    // Native wakeup fan: on_start for every vertex, ascending id.
    void start_native();
    // Schedules emits_ as control events (EventKind::Safe), charging sync
    // counters; clears emits_.
    void send_emits();
    void touch(VertexId v);
    // Refreshes v's done flag and the not-done count after an activation.
    void note_done(VertexId v, bool now_done);

    // Runs the reliable-delivery shim planner (congest/faults.h) for one
    // send from `from` via `port`: returns the first-arrival offset in
    // virtual time (>= 1), accumulates the fault counters, and attributes
    // retransmission traffic to the sender's open span.
    std::uint64_t plan_fault_delivery(VertexId from, std::size_t port);

    void schedule(Event&& ev);
    // End of a timestamp batch: level accounting and the quiescence latch.
    void end_batch();
    void start_epoch();

    // The pulse synchronizer (α or β per AsyncConfig::sync); null in
    // native mode.
    std::unique_ptr<PulseSynchronizer> sync_;
    bool native_ = false;
    // Cached MessageProcess surface of every process (native mode only);
    // built — and type-checked — lazily at the first step.
    std::vector<MessageProcess*> native_procs_;
    // Last payload delivery time per directed link, indexed by the
    // sender's half-edge: the FIFO clamp of native mode. Empty in
    // synchronized modes, whose event schedules must stay bit-identical to
    // their existing baselines.
    std::vector<std::uint64_t> link_last_;
    // Loss shim armed (drop_rate > 0): sends plan transmissions.
    bool loss_on_ = false;
    // Burst-window clocks of the loss shim, one per half-edge (vertex,
    // port).
    std::vector<std::uint64_t> fault_attempts_;

    int queue_span_ = 1;  // queue window (bounds native timer delays)
    EventQueue<Event> queue_;
    PayloadPool payloads_;
    std::vector<Event> due_;            // pop_due batch of the current step
    std::vector<VertexId> touched_;     // targets of this step's arrivals
    std::vector<AsyncIncoming> scratch_;  // begin_pulse out-buffer
    std::vector<SyncEmit> emits_;       // synchronizer emit scratch
    std::uint64_t pulse_sends_ = 0;     // sends of the executing pulse

    std::uint64_t now_ = 0;
    std::uint64_t event_seq_ = 0;   // global schedule counter
    std::uint64_t max_level_ = 0;   // highest pulse executed by any vertex
    std::uint64_t completed_levels_ = 0;
    // Sliding window: slot i counts vertices that executed level
    // completed_levels_ + 1 + i; full slots shift out as
    // completed_levels_ advances, so the window spans only the live level
    // skew and its capacity is bounded.
    std::vector<std::size_t> level_count_;
    std::size_t not_done_ = 0;
    std::vector<std::uint8_t> done_cache_;  // per-vertex done flag
    bool started_ = false;
    bool native_started_ = false;  // native on_start fan ran (single-epoch)
    bool terminated_ = false;
    // Latched at the end of a batch when every process is done and nothing
    // is in flight; pulses stop and the queue drains (see class docs).
    bool quiescent_ = false;

    // Arrival dedup for the pulse phase: touch_stamp_[v] == step_stamp_
    // marks v as touched this step.
    std::vector<std::uint64_t> touch_stamp_;
    std::uint64_t step_stamp_ = 0;

    // Per-vertex logical level, installed as the Context::round() override
    // (neighbors run at different levels). Set before each activation.
    std::vector<std::uint64_t> vertex_level_;

    // Per-vertex inbox storage (grow-only) backing inbox_span_, and the
    // per-half-edge payload send-order counters of the current pulse
    // (synchronized modes only).
    std::vector<std::vector<Incoming>> inbox_store_;
    std::vector<std::uint32_t> send_seq_;
};

}  // namespace dmst

#endif  // DMST_SIM_ASYNC_NETWORK_H
