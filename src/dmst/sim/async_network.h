#ifndef DMST_SIM_ASYNC_NETWORK_H
#define DMST_SIM_ASYNC_NETWORK_H

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "dmst/congest/network_base.h"
#include "dmst/congest/payload_pool.h"
#include "dmst/sim/event_queue.h"
#include "dmst/sim/synchronizer.h"
#include "dmst/sim/thread_pool.h"

namespace dmst {

// Event-driven asynchronous engine (--engine=async): the third NetworkBase
// backend. There is no global lock-step round loop — seeded event queues
// drive execution, every message (protocol payload, synchronizer ACK,
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
//   - handler-spawned events merge into the canonical schedule keyed by
//     the causing event's seq, so the full schedule remains bit-identical
//     across --threads/shard counts, like the synchronized modes;
//   - multi-epoch resumes (re-kicking processes after quiescence) are not
//     supported — a native driver runs start-to-quiescence once.
//
// Exactness contract. A vertex's pulse p consumes exactly the payloads its
// neighbors sent during their pulse p-1, sorted into the canonical
// lock-step inbox order (arrival port, then per-link send order), and
// Context::round() reports p during the activation — so every protocol's
// state evolution, payload message counts, and outputs (MST edges,
// verification verdicts) are bit-identical to the serial engine, for every
// (max_delay, event_seed, threads) point. What differs, deterministically
// per seed: RunStats::events, ::virtual_time, ::sync_messages/::sync_words
// (the synchronizer overhead), and the real-time interleaving of
// activations.
//
// Execution model: time-stepped conservative parallel discrete-event
// simulation. Because every delay is >= 1, an event processed at virtual
// time t can only schedule events at t+1 or later — one full timestamp of
// lookahead — so the engine advances in batches: pick the earliest
// timestamp t across every shard's queue, then
//
//   1. apply phase (parallel): each shard drains its due batch in seq
//      order — payload arrivals buffer into the synchronizer and stage the
//      link-level ACK, ACKs advance the safety state and stage SAFE fans,
//      SAFEs advance the readiness state;
//   2. pulse phase (parallel): each shard activates its vertices whose
//      next pulse became ready, in ascending id, staging their sends;
//   3. merge barrier (coordinator): staged events get canonical global
//      sequence numbers — apply-phase spawns ordered by their causing
//      event's seq, pulse-phase spawns by sender id — each draws its delay
//      from the seeded stream keyed by that seq, and lands in its target
//      shard's queue; counters fold.
//
// Determinism under sharding. The canonical merge order is a function of
// the schedule alone, not of the shard partition or worker count, and
// same-timestamp operations on distinct vertices commute (per-vertex
// synchronizer state; payload consumption is sorted canonically), so the
// entire event schedule — and with it every RunStats counter, including
// events, virtual_time, and the sync traffic — is bit-identical across
// --threads values, for every (max_delay, event_seed) point. Nothing
// reads wall clock, so a (graph, seed) pair also replays identically
// run-to-run; the invariance fuzz pins both properties.
//
// Datapath: each shard owns an EventQueue (sim/event_queue.h — a timing
// wheel exploiting the bounded-delay window, heap fallback past
// EventQueue::kWheelMaxDelay) and a PayloadPool (congest/payload_pool.h) —
// payloads are moved into a pool slot once at send and travel as 8-byte
// handles; queue and synchronizer traffic never move a Message. All
// staging, queue, and pool storage is grow-only, so the traced steady
// state performs zero per-event heap allocations
// (tests/test_substrate_alloc.cpp).
//
// Termination. Once a merge barrier observes the lock-step quiescence
// predicate (every process done, no payload unconsumed) the engine latches
// quiescent_: pulse phases stop (the analogue of the lock-step engines not
// scheduling another round), the remaining ACK/SAFE traffic drains, and
// the run is over when every queue is empty. The latch cannot unflip
// within an epoch — both not-done and in-flight counts only change inside
// pulse phases. A queue set that drains while the network is NOT quiescent
// is a protocol deadlock and throws. Drivers that re-kick processes after
// quiescence (sync Borůvka's phase oracle) resume the engine; each resume
// starts a new synchronizer epoch re-aligned to a common base level.
//
// Caveats: the lock-step conditioner does not compose (make_network
// rejects it — the seeded per-message delay is this repo's latency
// model), and RunStats::rounds counts executed pulse levels, which can
// exceed the serial round count by the endgame skew (trailing pulses of
// already-done processes). messages_per_round is indexed by logical level
// and matches the serial trace exactly.
class AsyncNetwork : public NetworkBase {
public:
    // Worker count comes from config.threads (0 = hardware concurrency).
    // shard_override forces a shard count different from the worker count;
    // results do not depend on it (tests sweep it to prove that).
    AsyncNetwork(const WeightedGraph& g, NetConfig config,
                 int shard_override = 0);

    // Advances the event simulation until at least one more pulse level
    // completes on every vertex (the async analogue of one synchronous
    // round), quiescence, or termination. Returns false once quiescent.
    bool step() override;

    std::uint64_t virtual_now() const override { return now_; }

    // Completed levels: every vertex has executed this many pulses.
    std::uint64_t completed_levels() const { return completed_levels_; }

    int threads() const { return threads_; }
    int shards() const { return shards_; }
    // Whether the shard queues run in timing-wheel mode (max_delay within
    // EventQueue::kWheelMaxDelay) or fell back to the binary heap.
    bool wheel_queue() const;

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
        // Canonical global schedule order, assigned at the merge barrier;
        // the tie-break within a timestamp. Between staging and the
        // barrier the field holds the merge key instead: the seq of the
        // causing event (apply-phase spawns) or 0 (pulse-phase spawns,
        // merged in sender-id order).
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
        std::uint8_t owner = 0;      // Payload: shard owning the pool slot
    };
    // The in-flight event vectors set the native engine's peak memory.
    static_assert(sizeof(Event) <= 56, "Event must stay within 56 bytes");

    // One executed pulse, folded into the level/trace accounting at the
    // merge barrier.
    struct PulseRec {
        std::uint64_t level = 0;
        std::uint64_t sends = 0;
    };

    // Per-shard scratch, cache-line separated: only the owning worker
    // touches it during a phase; the coordinator merges between phases.
    struct alignas(64) ShardState {
        explicit ShardState(int max_delay) : queue(max_delay) {}

        EventQueue<Event> queue;
        PayloadPool pool;
        std::vector<Event> due;        // pop_due batch of the current step
        std::vector<Event> staged_apply;  // spawns keyed by causing seq
        std::vector<Event> staged_pulse;  // spawns in sender-id order
        std::vector<std::vector<Message*>> freed;  // by owning shard
        std::vector<VertexId> touched;  // targets of this step's arrivals
        std::vector<PulseRec> pulses;   // pulses executed this step
        std::vector<AsyncIncoming> scratch;  // begin_pulse out-buffer
        std::vector<SyncEmit> emits;    // synchronizer emit scratch
        std::uint64_t pulse_sends = 0;  // sends of the executing pulse
        // Native dispatch context: while a handler runs in the apply
        // phase, its spawns (sends, timers) stage into staged_apply keyed
        // by the causing event's seq — keying by shard-local position
        // would make the merged order depend on the shard partition.
        bool in_apply = false;
        std::uint64_t cause_seq = 0;
        std::uint64_t max_act = 0;      // high-water activation count
        std::uint64_t messages = 0;     // counter deltas, folded + zeroed
        std::uint64_t words = 0;
        std::uint64_t sync_messages = 0;
        std::uint64_t sync_words = 0;
        std::uint64_t events = 0;
        std::uint64_t activations = 0;  // on_round / handler calls
        std::int64_t in_flight = 0;
        std::int64_t not_done = 0;
        // Loss-shim counters of this shard's sends; folded at the barrier.
        std::uint64_t drops = 0;
        std::uint64_t retransmissions = 0;
        std::uint64_t acks = 0;
        std::uint64_t timeouts = 0;
        std::vector<std::uint64_t> edge_hist;  // only if record_per_edge
        std::vector<EdgeId> touched_edges;     // edges with edge_hist != 0
        std::exception_ptr error;
    };

    int delay_draw(std::uint64_t seq) const;

    void run_phase(const std::function<void(int)>& phase);
    void rethrow_shard_error();

    void apply_shard(int s);
    void pulse_shard(int s);
    void epoch_shard(int s);
    void start_shard(int s);  // native on_start fan, id order per shard
    void apply(Event& ev, ShardState& st);
    void execute_pulse(VertexId v, ShardState& st);
    // Native handler dispatch (Payload -> on_message, Timer -> on_wakeup);
    // runs in the apply phase at the event's delivery time.
    void dispatch_native(Event& ev, ShardState& st);
    // Stages st.emits as control events (EventKind::Safe) into `staged`
    // under merge key `key`, charging sync counters; clears st.emits.
    void stage_emits(ShardState& st, std::vector<Event>& staged,
                     std::uint64_t key);
    void touch(VertexId v, ShardState& st);

    // Runs the reliable-delivery shim planner (congest/faults.h) for one
    // send from `from` via `port`: returns the first-arrival offset in
    // virtual time (>= 1), accumulates counters into `st`, and attributes
    // retransmission traffic to the sender's open span. Only the shard
    // owning `from` may call this (it advances the per-(vertex, port)
    // burst clock).
    std::uint64_t plan_fault_delivery(VertexId from, std::size_t port,
                                      ShardState& st);

    void schedule(Event&& ev);
    void merge_barrier();
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
    // port); advanced only by the shard owning the sender, so no locking
    // and bit-identical schedules across thread counts.
    std::vector<std::uint64_t> fault_attempts_;

    int threads_ = 1;
    int shards_ = 1;
    int queue_span_ = 1;  // shard queue window (bounds native timer delays)
    std::vector<VertexId> bounds_;  // size shards_+1; shard s = [b[s], b[s+1])
    std::vector<int> shard_of_;     // vertex -> owning shard
    // Owning shard of v; a single-shard run skips the table.
    int shard_for(VertexId v) const { return shards_ == 1 ? 0 : shard_of_[v]; }
    std::vector<ShardState> shard_states_;
    std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1
    std::vector<std::size_t> merge_cursor_;  // barrier k-way merge scratch

    std::uint64_t now_ = 0;
    std::uint64_t event_seq_ = 0;   // canonical schedule counter
    std::uint64_t max_level_ = 0;   // highest pulse executed by any vertex
    std::uint64_t completed_levels_ = 0;
    // Sliding window: slot i counts vertices that executed level
    // completed_levels_ + 1 + i; full slots shift out as
    // completed_levels_ advances, so the window spans only the live level
    // skew and its capacity is bounded.
    std::vector<std::size_t> level_count_;
    std::size_t not_done_ = 0;
    // Per-vertex done flag; plain bytes (not vector<bool>) so shards can
    // write their own vertices' rows concurrently.
    std::vector<std::uint8_t> done_cache_;
    bool started_ = false;
    bool native_started_ = false;  // native on_start fan ran (single-epoch)
    bool terminated_ = false;
    // Latched at a merge barrier when every process is done and nothing is
    // in flight; pulse phases stop and the queues drain (see class docs).
    bool quiescent_ = false;

    // Arrival dedup for the pulse phase: touch_stamp_[v] == step_stamp_
    // marks v as touched this step. Written by v's owning shard only.
    std::vector<std::uint64_t> touch_stamp_;
    std::uint64_t step_stamp_ = 0;

    // Per-vertex logical level, installed as the Context::round() override
    // (shards run at different levels concurrently). Written by the owning
    // shard before each on_round.
    std::vector<std::uint64_t> vertex_level_;

    // Per-vertex inbox storage (grow-only) backing inbox_span_, and the
    // per-half-edge payload send-order counters of the current pulse
    // (synchronized modes only).
    std::vector<std::vector<Incoming>> inbox_store_;
    std::vector<std::uint32_t> send_seq_;
};

}  // namespace dmst

#endif  // DMST_SIM_ASYNC_NETWORK_H
