#ifndef DMST_CONGEST_NETWORK_BASE_H
#define DMST_CONGEST_NETWORK_BASE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dmst/congest/conditioner.h"
#include "dmst/congest/faults.h"
#include "dmst/congest/message.h"
#include "dmst/graph/graph.h"
#include "dmst/obs/phase.h"

namespace dmst {

class NetworkBase;
class TraceRecorder;
struct TraceTable;

// Initial knowledge model. KT0 is the paper's clean network model: a vertex
// knows its own id, its port count, and the weight of each incident edge —
// but not its neighbors' ids. KT1 additionally exposes neighbor ids.
enum class Knowledge { KT0, KT1 };

// Which simulation engine executes the rounds. Serial and Parallel are
// lock-step round engines and observably identical: same RunStats, same
// delivery order, same process state evolution. Serial steps vertices on
// one thread; Parallel shards vertices over a worker pool (src/dmst/sim/).
// Async is the event-driven engine (sim/async_network.h): every message
// travels with an independent seeded delay and vertices are activated
// per-event with no global barrier; an acknowledgment-based α-synchronizer
// (sim/synchronizer.h) re-creates the synchronous round abstraction on
// top, so protocol outputs (MST edges, verification verdicts, per-level
// message counts) are bit-identical to the serial engine.
// Socket is the real-network backend (src/dmst/net/): vertices are sharded
// over separate processes and messages travel as UDP/TCP datagrams; each
// rank steps its local vertex block with exactly the serial engine's
// semantics and a per-round barrier datagram keeps the ranks lock-step,
// so the union of the ranks' outputs is bit-identical to serial.
enum class Engine { Serial, Parallel, Async, Socket };

// Parameters of the socket backend (Engine::Socket); ignored by the
// in-process engines. A run is launched as `procs` cooperating processes
// (ranks), each owning a contiguous block of vertices (net/peer_table.h);
// rank r binds base_port + r on `host`. The dmst_launcher binary forks the
// ranks and fills these in per child.
struct SocketConfig {
    enum class Transport { Udp, Tcp };

    int procs = 1;  // total ranks in the run
    int rank = 0;   // this process's rank, in [0, procs)
    Transport transport = Transport::Udp;
    std::string host = "127.0.0.1";  // peer host (single-host for now)
    int base_port = 0;               // rank r listens on base_port + r
    int handshake_timeout_ms = 15'000;  // TCP mesh connect budget
    int round_timeout_ms = 60'000;      // barrier wait budget per round
};

// How the event-driven engine re-creates (or drops) the synchronous round
// abstraction for the processes it hosts (sim/synchronizer.h):
//
//   Alpha — acknowledgment-based α-synchronizer [Awerbuch 85]: every
//           payload is ACKed and a safe vertex announces SAFE to all
//           neighbors; ~2m control messages per pulse level. Hosts any
//           round-programmed (on_round) driver.
//   Beta  — spanning-tree β-synchronizer [Awerbuch 85]: safety still rides
//           per-payload ACKs, but readiness convergecasts READY up a BFS
//           spanning tree and broadcasts GO back down; ~2n control
//           messages per pulse level. Same drivers, same bit-identical
//           outputs, cheaper control plane (bench_e14_async gates it).
//   None  — no synchronizer: payloads dispatch straight to the process's
//           on_message handler at arrival, timers to on_wakeup. Requires
//           every process to be a MessageProcess (the message-driven
//           surface below); sync_messages stays exactly 0.
enum class SyncMode : std::uint8_t { Alpha, Beta, None };

// Parameters of the event-driven engine (Engine::Async); ignored by the
// lock-step engines. The delay knobs feed the seeded delay draw only —
// protocol outputs are invariant across every (max_delay, event_seed)
// point, which the async invariance fuzz and the nightly parity job
// enforce. The sync mode selects the synchronizer (or none).
struct AsyncConfig {
    // Every message (payload, ACK, synchronizer control) is delivered
    // after an independent integer delay hashed uniformly from
    // [1, max_delay] virtual-time units. 1 = uniform unit delays
    // (ordering still event-driven).
    int max_delay = 4;
    // Seed of the per-message delay stream. Distinct seeds yield distinct
    // interleavings and virtual times but identical protocol outputs.
    std::uint64_t event_seed = 1;
    // Synchronizer behind the round abstraction; SyncMode::None runs
    // message-driven drivers natively (per-link FIFO, no control traffic).
    SyncMode sync = SyncMode::Alpha;
};

struct NetConfig {
    int bandwidth = 1;  // the b of CONGEST(b log n); >= 1
    Knowledge knowledge = Knowledge::KT0;
    std::uint64_t max_rounds = 50'000'000;  // runaway guard; run() throws past it
    bool record_per_round = false;          // keep a per-round message trace
    bool record_per_edge = false;           // keep a per-edge message histogram
    Engine engine = Engine::Serial;         // which engine make_network builds
    int threads = 0;  // parallel engine worker count; 0 = hardware concurrency
    // Adversarial network conditioning (congest/conditioner.h): per-link
    // latency and bandwidth caps plus an adversarial inbox permutation,
    // executed as conditioner.stride() substrate ticks per logical round.
    // Disabled by default — the ideal lock-step substrate. max_rounds is
    // stated in ticks, so callers conditioning a run scale their ideal
    // budget with scaled_round_budget(). The conditioner is a lock-step
    // synchronizer device and does not compose with Engine::Async;
    // make_network rejects that combination.
    ConditionerConfig conditioner;
    // Deterministic fault injection (congest/faults.h): seeded per-link
    // loss behind a reliable-delivery shim, and crash-stop vertices with
    // graceful degradation. Loss composes with every engine and with the
    // conditioner; crash-stop is lock-step-only (make_network rejects
    // crash + Engine::Async). Under loss a logical round stretches to the
    // slowest shim plan, so callers scale their ideal budget with the
    // fault-aware scaled_round_budget() overload.
    FaultConfig faults;
    // Event-driven engine parameters; ignored by Serial and Parallel.
    AsyncConfig async;
    // Socket backend parameters; ignored by the in-process engines. The
    // socket backend is a real transport: it rejects composition with the
    // conditioner, the loss shim, and crash-stop (make_network enforces) —
    // its loss handling is real retransmission, not a simulated draw.
    SocketConfig socket;
    // Span-based tracing (src/dmst/obs/): off by default, in which case
    // the send datapath pays one null-pointer test and nothing else.
    TraceConfig trace;
};

// Counters for a completed (or in-progress) run.
struct RunStats {
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;  // number of Message sends
    std::uint64_t words = 0;     // total 64-bit words sent (tags included)
    std::vector<std::uint64_t> messages_per_round;  // only if record_per_round
    // Physical arrivals per tick (index t-1 holds the messages arriving at
    // tick t, i.e. sent at tick t - 1 - link latency); only if
    // record_per_round. On the ideal substrate this is messages_per_round
    // shifted by one tick; under a conditioner it exposes the per-link
    // latency assignment.
    std::vector<std::uint64_t> arrivals_per_round;
    // Messages per edge (both directions summed), indexed by EdgeId; only
    // if record_per_edge. Exposes the congestion profile of a protocol —
    // e.g. how much hotter the root-adjacent τ edges run than the rest.
    std::vector<std::uint64_t> messages_per_edge;

    // ---- event-driven engine metrics (Engine::Async; zero elsewhere) ----
    // Delivery events processed (payload arrivals plus synchronizer ACK
    // and SAFE arrivals).
    std::uint64_t events = 0;
    // Virtual clock at quiescence: the largest delivery timestamp
    // processed. Unit delays (max_delay = 1) make this comparable to a
    // lock-step round count.
    std::uint64_t virtual_time = 0;
    // α-synchronizer control traffic (ACK + SAFE), kept separate from
    // `messages`/`words` so the payload counters stay bit-identical to the
    // lock-step engines and the synchronizer overhead is measurable
    // (bench_e14_async).
    std::uint64_t sync_messages = 0;
    std::uint64_t sync_words = 0;

    // ---- fault-injection metrics (NetConfig::faults; zero otherwise) ----
    // Shim transmissions lost to the seeded loss draw (data + ACK).
    std::uint64_t drops = 0;
    // Data transmissions beyond the first per protocol send; kept separate
    // from `messages` so the payload counters stay bit-identical to a
    // clean run (the invariance bar) and the retransmission overhead is
    // directly gateable (bench_e15_faults).
    std::uint64_t retransmissions = 0;
    // Shim ACKs generated by receivers (one per data arrival).
    std::uint64_t acks = 0;
    // Retransmission timer expiries; equals retransmissions under the
    // bounded-adversary model (every timeout retransmits exactly once).
    std::uint64_t timeouts = 0;
    // Protocol sends addressed to an already-crashed vertex; counted in
    // `messages`/`words` (the sender paid for them) but never delivered.
    std::uint64_t failed_sends = 0;
    // Vertices stopped by the crash-stop schedule so far.
    std::uint64_t crashed_vertices = 0;
    // True iff the run ended by stall detection (crash-stop graceful
    // degradation) rather than quiescence; the drivers then harvest a
    // partial forest instead of asserting completion.
    bool stalled = false;

    // ---- socket-backend metrics (Engine::Socket; zero elsewhere) --------
    // Datagrams/frames dropped by the hardened receive path: failed
    // structural validation (bad magic/version/length, out-of-range vertex
    // or port, oversized payload) or arrived for a stale round/session.
    // Dropping-and-counting mirrors the fault layer's wedged-vertex
    // containment: a malformed frame never wedges the vertex it addressed.
    std::uint64_t malformed_frames = 0;
    // Transport volume, counted at the packet layer (headers included).
    std::uint64_t net_packets_out = 0;
    std::uint64_t net_packets_in = 0;
    std::uint64_t net_bytes_out = 0;
    std::uint64_t net_bytes_in = 0;
    // UDP reliability-layer activity. Deliberately NOT folded into the
    // `retransmissions`/`timeouts`/`acks` shim columns above even though
    // the backoff schedule is shared (congest/faults.h): the shim's
    // counters are deterministic model-level facts audited by the trace
    // layer's fault-conservation check, while a real datagram retransmit
    // depends on kernel scheduling — an environment fact, like
    // `malformed_frames`, reported but never compared across runs.
    std::uint64_t net_retransmissions = 0;
    std::uint64_t net_timeouts = 0;
    std::uint64_t net_acks = 0;

    // Finalized span trace of the run (obs/trace.h); set by run() when
    // NetConfig::trace.enabled, null otherwise. Shared so RunStats stays
    // cheaply copyable; a multi-epoch driver's stats always point at the
    // latest (cumulative) finalization.
    std::shared_ptr<const TraceTable> trace;
};

// Read-only view of one vertex's inbox: a contiguous span of the engine's
// per-round arena (see NetworkBase::inbox_slab_). Valid for the duration of
// the round it was obtained in; the next deliver phase rewrites the arena.
class InboxView {
public:
    const Incoming* begin() const { return data_; }
    const Incoming* end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const Incoming& operator[](std::size_t i) const { return data_[i]; }

private:
    friend class Context;
    InboxView(const Incoming* data, std::size_t size) : data_(data), size_(size) {}

    const Incoming* data_;
    std::size_t size_;
};

// The per-round view a process gets of the world. Enforces the CONGEST
// model: only local information is visible, and sends beyond the per-edge
// bandwidth budget throw InvariantViolation.
class Context {
public:
    VertexId id() const { return vertex_; }
    std::size_t n() const;
    // The current logical (protocol-visible) round. Under a conditioner
    // the substrate runs stride ticks per logical round and processes are
    // only stepped on activation ticks, so round() advances by one per
    // on_round() call either way — protocols schedule against it exactly
    // as on the ideal substrate. RunStats::rounds counts ticks.
    std::uint64_t round() const;
    int bandwidth() const;
    // Bandwidth of the link behind `port`, in units: the conditioner's
    // per-link cap when hetero_bandwidth is on, else the global b.
    // Protocols batching more than one unit per edge per round must pace
    // against this, not bandwidth().
    int bandwidth(std::size_t port) const;

    // Virtual time of the event-driven engine's clock at this activation;
    // always 0 on the lock-step engines, whose notion of time is round().
    std::uint64_t virtual_time() const;

    std::size_t degree() const;
    Weight weight(std::size_t port) const;

    // Neighbor id on a port; throws InvariantViolation under KT0.
    VertexId neighbor_id(std::size_t port) const;

    // Messages sent to this vertex in the previous round, ordered by port.
    InboxView inbox() const;

    // Queues a message for delivery next round; the payload is moved, not
    // copied, all the way into the engine's staging buffer. Throws
    // InvariantViolation if the per-edge-per-direction word budget for this
    // round is exceeded.
    void send(std::size_t port, Message msg);

    // Arms a local timer: a MessageProcess's on_wakeup(timer_id) fires once
    // at least `delay` time units later (logical rounds on the lock-step
    // engines, virtual-time units on the event-driven engine). delay < 1 is
    // clamped to 1 — a timer never fires within the activation that set it.
    // Timers are local bookkeeping, not messages: they move no words and
    // charge no bandwidth. Multiple timers may share an id; each firing
    // reports the id it was armed with.
    void set_timer(std::uint64_t delay, std::uint64_t timer_id);

    // ---- tracing (src/dmst/obs/trace.h) --------------------------------
    // Spans are opened with the TraceScope RAII helper. Records a point
    // event in (phase, level) — a protocol milestone; a no-op (one pointer
    // test) unless NetConfig::trace.enabled.
    void trace_instant(TracePhase phase, std::int64_t level = 0);

private:
    friend class NetworkBase;
    friend class TraceScope;  // reads net_->trace_ inline
    friend class MessageProcess;  // on_round adapter pops due timers
    Context(NetworkBase& net, VertexId vertex) : net_(&net), vertex_(vertex) {}

    NetworkBase* net_;
    VertexId vertex_;
};

// A per-vertex state machine. on_round() is called once per round for every
// vertex (inbox may be empty). The run ends when every process reports
// done() and no messages are in flight.
class Process {
public:
    virtual ~Process() = default;
    virtual void on_round(Context& ctx) = 0;
    virtual bool done() const = 0;
};

// The message-driven driver surface: the second half of the two-surface
// contract. A MessageProcess is programmed against arrivals, not rounds —
// on_start() once at wakeup, on_message() per delivered message, and
// on_wakeup() per expired Context::set_timer timer. It still IS a Process:
// the final on_round() adapter below replays an activation's due timers and
// inbox through the handlers, so a message-driven driver runs unmodified on
// every engine (serial, parallel, async behind a synchronizer, socket) —
// the lock-step schedule is just one particular FIFO unit-delay execution.
// Under Engine::Async with AsyncConfig::sync == SyncMode::None the adapter
// is bypassed entirely: the engine dispatches each event straight to the
// handler at its arrival time, with per-link FIFO delivery and zero
// synchronizer traffic (sync_messages == 0).
//
// Handler rules (the asynchronous CONGEST model):
//   - handlers see only local state plus the one arriving message/timer;
//   - sends go out with Context::send exactly as from on_round; on the
//     native path the bandwidth budget is per activation, and each send is
//     delivered after its own independent seeded delay, FIFO per link;
//   - Context::round() reports the activation count of this vertex, and
//     Context::virtual_time() the engine clock (0 on lock-step engines);
//   - termination is still done(): a run ends when every process reports
//     done and no events are in flight.
class MessageProcess : public Process {
public:
    // Called once per vertex before any message is delivered (spontaneous
    // wakeup; every vertex wakes in this substrate). Initial sends go here.
    virtual void on_start(Context& ctx) { (void)ctx; }

    // Called once per arriving message, in delivery order.
    virtual void on_message(Context& ctx, std::size_t port, Message&& msg) = 0;

    // Called when a Context::set_timer timer expires.
    virtual void on_wakeup(Context& ctx, std::uint64_t timer_id)
    {
        (void)ctx;
        (void)timer_id;
    }

    // Lock-step adapter: first activation runs on_start, then every
    // activation fires due timers (in arming order) and dispatches the
    // inbox (in inbox order) through the handlers. Final — a
    // message-driven driver has no per-round logic by definition.
    void on_round(Context& ctx) final;

private:
    bool started_ = false;
    std::vector<std::uint64_t> due_scratch_;
};

// Synchronous message-passing network over a weighted graph: the engine
// interface shared by the serial Network (congest/) and the sharded
// ParallelNetwork (sim/). The contract every engine must keep, because the
// protocols and tests rely on it for determinism:
//
//   - vertices are stepped in id order (or observably so),
//   - a vertex's inbox holds last logical round's messages sorted by
//     arrival port, ties broken by (sender id, send order) — then, only
//     under an adversarial-order conditioner, permuted by the seeded
//     engine-independent LinkConditioner::permute_span,
//   - per-(edge, direction) bandwidth is charged identically,
//   - RunStats counters are identical after every completed round.
//
// Under a NetConfig::conditioner the engine runs stride() substrate ticks
// per logical round (see congest/conditioner.h): processes step only on
// activation ticks, sends physically arrive spread over the stride per
// the per-link latencies, and the inbox for the next activation is built
// on the tick before it. All of that is implemented here and in the two
// deliver phases identically, so both engines remain bit-identical under
// any thread count.
//
// Storage model: inboxes live in one contiguous arena (inbox_slab_) with a
// per-vertex (offset, length) span table, rebuilt every deliver phase from
// the engines' staging buffers — the slab and every staging vector retain
// their capacity across rounds, so the bandwidth=1 steady state performs
// zero per-message heap allocations (message payloads are inline in
// WordBuf; see congest/message.h).
class NetworkBase {
public:
    using Factory = std::function<std::unique_ptr<Process>(VertexId)>;

    // Out-of-line: the header only forward-declares TraceRecorder.
    virtual ~NetworkBase();

    // Creates one process per vertex. Must be called exactly once.
    void init(const Factory& factory);

    // Executes one synchronous round. Returns false if the network was
    // already quiescent (all done, nothing in flight) and no round ran.
    virtual bool step() = 0;

    // Runs rounds until quiescence. Throws InvariantViolation if
    // config.max_rounds is exceeded (a stuck protocol, not a user error);
    // the message reports the round count and which processes are not done.
    RunStats run();

    // Whether the network has nothing left to do. In-process engines see
    // every vertex; the socket backend overrides this with the barrier-
    // agreed global predicate (its remote processes are never stepped
    // locally, so the base scan over processes_ would be wrong there).
    virtual bool quiescent() const;

    Process& process(VertexId v);
    const Process& process(VertexId v) const;

    // Vertex-ownership span of this engine instance: [local_begin,
    // local_end) are the vertices this process steps and whose final state
    // is locally meaningful. In-process engines own every vertex; the
    // socket backend owns its rank's block. Drivers iterate this span when
    // harvesting results instead of assuming [0, n).
    virtual VertexId local_begin() const { return 0; }
    virtual VertexId local_end() const
    {
        return static_cast<VertexId>(graph_.vertex_count());
    }
    // True when this instance holds only a shard of the vertices (socket
    // backend with procs > 1): drivers must then harvest permissively
    // (claimed edges, no spanning assertion) and skip root-only milestones
    // when the root is remote.
    bool rank_sharded() const
    {
        return local_begin() != 0 ||
               local_end() != static_cast<VertexId>(graph_.vertex_count());
    }
    bool owns(VertexId v) const { return v >= local_begin() && v < local_end(); }

    // Bitwise-OR allreduce over all ranks of the run, for multi-epoch
    // drivers that branch on global state between run() calls (e.g. the
    // Boruvka fragment-count loop). Identity on the in-process engines. On
    // the socket backend this is a collective: every rank must call it the
    // same number of times with the same `count`, which the deterministic
    // symmetric drivers guarantee.
    virtual void allreduce_or(std::uint64_t* words, std::size_t count)
    {
        (void)words;
        (void)count;
    }

    const RunStats& stats() const { return stats_; }
    const WeightedGraph& graph() const { return graph_; }
    const NetConfig& config() const { return config_; }
    const LinkConditioner& conditioner() const { return cond_; }
    const LinkFaults& faults() const { return faults_; }

    // Whether v has been stopped by the crash-stop schedule (always false
    // without configured crashes). Drivers use this to harvest partial
    // forests around dead vertices.
    bool crashed(VertexId v) const
    {
        return !crashed_.empty() && crashed_[v] != 0;
    }

    // True once stall detection ended the run (RunStats::stalled mirrors
    // it); step() refuses to run further rounds.
    bool stalled() const { return stalled_; }

    // Substrate ticks per logical round (1 on the ideal substrate).
    int stride() const { return stride_; }

    // Event-engine clock behind Context::virtual_time(); the lock-step
    // engines have no virtual clock and report 0.
    virtual std::uint64_t virtual_now() const { return 0; }

    // Port at which a message sent by v through its port `port` arrives.
    std::size_t reverse_port(VertexId v, std::size_t port) const;

protected:
    // One staged send: where it is going and at which port it arrives.
    // Engines append these during the step phase and scatter them into the
    // inbox arena during the deliver phase.
    struct Staged {
        Staged(VertexId target_, std::uint32_t port_, Message&& msg_)
            : target(target_), port(port_), msg(std::move(msg_))
        {
        }

        VertexId target = 0;
        std::uint32_t port = 0;
        Message msg;
    };

    // Append-only staging buffer: fixed-capacity chunks, so growth never
    // relocates existing messages (a realloc of a flat vector would move
    // every staged Message) and clear() keeps every chunk's capacity — the
    // steady state stages without touching the allocator.
    class StagedBuffer {
    public:
        void emplace(VertexId target, std::uint32_t port, Message&& msg)
        {
            if (used_ == 0 || chunks_[used_ - 1].size() == kChunkCap) {
                if (used_ == chunks_.size()) {
                    chunks_.emplace_back();
                    chunks_.back().reserve(kChunkCap);
                }
                ++used_;
            }
            chunks_[used_ - 1].emplace_back(target, port, std::move(msg));
            ++size_;
        }

        void clear()
        {
            for (std::size_t i = 0; i < used_; ++i)
                chunks_[i].clear();
            used_ = 0;
            size_ = 0;
        }

        std::size_t size() const { return size_; }

        // Visits every staged message in append order.
        template <typename F>
        void for_each(F&& f)
        {
            for (std::size_t i = 0; i < used_; ++i)
                for (Staged& s : chunks_[i])
                    f(s);
        }

        template <typename F>
        void for_each(F&& f) const
        {
            for (std::size_t i = 0; i < used_; ++i)
                for (const Staged& s : chunks_[i])
                    f(s);
        }

    private:
        static constexpr std::size_t kChunkCap = 1024;

        std::vector<std::vector<Staged>> chunks_;
        std::size_t used_ = 0;  // chunks currently holding messages
        std::size_t size_ = 0;
    };

    // Contiguous inbox span of one vertex within its engine's arena slab
    // (the serial engine keeps one slab; the parallel engine keeps one per
    // shard, so workers fault-in and fill their own memory). The pointer is
    // rewritten every deliver phase, after any slab growth.
    struct InboxSpan {
        Incoming* data = nullptr;
        std::size_t len = 0;
    };

    // Reusable scratch for the stable per-span port sort (one per serial
    // engine, one per shard in the parallel engine — never shared across
    // concurrent phases). Buffers grow to a high-water mark and are then
    // allocation-free.
    struct SortScratch {
        std::vector<std::uint32_t> count;
        std::vector<Incoming> tmp;
        PermuteScratch permute;  // for the adversarial-order conditioner
    };

    NetworkBase(const WeightedGraph& g, NetConfig config);

    // Engine hook behind Context::send: stage `msg` from `from` via `port`
    // for delivery next round, charging bandwidth and counters. Takes the
    // message by rvalue — one move from the caller into staging, no copy.
    virtual void send_from(VertexId from, std::size_t port, Message&& msg) = 0;

    Context context_for(VertexId v) { return Context(*this, v); }

    // Charges `size` words against (from, port) for this round; throws
    // InvariantViolation past the per-edge-per-direction budget (the
    // conditioner's per-link cap when hetero_bandwidth is on).
    void charge_bandwidth(VertexId from, std::size_t port, std::size_t size);

    void reset_round_words(VertexId v);

    // ---- timer plumbing (Context::set_timer) ----------------------------
    // Engine hook behind Context::set_timer. The base implementation books
    // the timer against the vertex's logical-round clock (due at
    // round + max(1, delay)); the MessageProcess adapter pops due entries
    // at each activation. The event-driven engine overrides this in native
    // mode to stage a Timer event on the virtual clock instead.
    virtual void schedule_timer(VertexId v, std::uint64_t delay,
                                std::uint64_t timer_id);

    // Moves every timer of `v` due at or before `now` into `out`, in arming
    // order. Used by the MessageProcess lock-step adapter only.
    void take_due_timers(VertexId v, std::uint64_t now,
                         std::vector<std::uint64_t>& out);

    // ---- conditioner + fault-shim plumbing shared by both engines -------
    //
    // Logical rounds map to absolute tick targets rather than a fixed
    // modulus: every activation ends with schedule_round(horizon), which
    // books the next deliver/activation pair `max(horizon, stride)` ticks
    // out. Without loss the horizon is always stride and this reduces to
    // the old fixed-stride cadence; under the loss shim a round stretches
    // to the slowest transmission plan's completion, which is how the
    // reliable-delivery shim stays invisible to the protocols.

    // Whether processes are stepped this tick. Call after ++round_; the
    // engine must bump logical_round_ exactly when this is true and end
    // the activation with schedule_round().
    bool activation_tick() const { return round_ == next_activation_; }
    // Whether the inbox read at the next activation tick must be built at
    // the end of this tick. On the ideal substrate this is every tick.
    bool deliver_tick() const { return round_ == next_deliver_; }
    // Books the next deliver/activation ticks after an activation whose
    // slowest shim plan completes `horizon` ticks out (pass stride_ when
    // the loss shim is off).
    void schedule_round(std::uint64_t horizon)
    {
        const std::uint64_t len =
            std::max<std::uint64_t>(horizon, static_cast<std::uint64_t>(stride_));
        next_deliver_ = round_ + len - 1;
        next_activation_ = round_ + len;
    }
    // Logical round of the inbox built at the end of this tick (the key of
    // the adversarial permutation). Valid on deliver ticks, which always
    // precede the activation of logical round logical_round_ + 1.
    std::uint64_t read_logical_round() const { return logical_round_ + 1; }

    // Extra latency in ticks of the link behind (from, port); 0 when
    // latency conditioning is off.
    int link_delay(VertexId from, std::size_t port) const
    {
        return link_delay_.empty() ? 0 : link_delay_[from][port];
    }

    // Per-link bandwidth in units, for Context::bandwidth(port).
    int link_bandwidth(VertexId v, std::size_t port) const
    {
        return link_cap_.empty() ? config_.bandwidth : link_cap_[v][port];
    }

    // Folds one activation tick's per-delay arrival histogram (hist[d] =
    // sends this tick on links of latency d) into the tick-indexed
    // arrivals trace, zeroing hist. Coordinator-only.
    void fold_arrivals(std::vector<std::uint64_t>& hist);

    // Applies the adversarial permutation to vertex v's freshly sorted
    // span, when configured, through the caller's reusable scratch (the
    // same per-engine/per-shard scratch the port sort uses — never shared
    // across concurrent phases). Shards touch disjoint vertices.
    void maybe_permute_span(VertexId v, SortScratch& scratch)
    {
        if (cond_.adversarial_order()) {
            const InboxSpan& span = inbox_span_[v];
            cond_.permute_span(span.data, span.len, v, read_logical_round(),
                               scratch.permute);
        }
    }

    // Stable-sorts span [first, first+n) by arrival port, preserving the
    // staged (sender id, send order) within equal ports. Allocation-free in
    // steady state: insertion sort for short spans, counting sort through
    // `scratch` for long ones. Exactly equivalent to std::stable_sort on
    // Incoming::port (which would heap-allocate its merge buffer).
    static void sort_span_by_port(Incoming* first, std::size_t n,
                                  SortScratch& scratch);

    // ---- fault-shim plumbing shared by the engines ----------------------

    // Per-activation fault counter deltas. The serial engine keeps one;
    // the sharded engines keep one per shard and fold them at their merge
    // barrier, so every counter is a sum over shard-deterministic pieces.
    struct FaultDelta {
        std::uint64_t drops = 0;
        std::uint64_t retransmissions = 0;
        std::uint64_t acks = 0;
        std::uint64_t timeouts = 0;
        std::uint64_t failed_sends = 0;
        // Max shim completion offset (ticks) over this activation's sends.
        std::uint64_t horizon = 0;
        // Vertices whose on_round threw a std::logic_error under graceful
        // crash faults: a dead neighbor wedged their protocol state, so
        // they become secondary crashes at the next fold (see
        // run_process_guarded). Usually empty.
        std::vector<VertexId> wedged;
    };

    // Runs the reliable-delivery shim planner for one send from `from` via
    // `port` (one-way latency = 1 + link_delay, which is 1 on the async
    // engine where the conditioner is rejected). Returns the delivery
    // offset in ticks (>= 1), accumulates counters and the round horizon
    // into `delta`, and attributes retransmission traffic to the sender's
    // open span. Only the shard stepping `from` may call this (it advances
    // the per-(vertex, port) burst clock).
    std::uint64_t plan_fault_delivery(VertexId from, std::size_t port,
                                      FaultDelta& delta);

    // Folds a delta into stats_ and returns max(stride_, horizon), the
    // round length it implies; resets the delta. Wedged vertices are
    // marked crashed here — at the barrier, never mid-activation, so the
    // serial and parallel engines degrade bit-identically. Coordinator-only.
    std::uint64_t fold_fault_delta(FaultDelta& delta);

    // Runs processes_[v]->on_round(ctx). Under graceful crash-stop faults
    // the protocols' internal invariants are no longer invariants: a
    // round-programmed protocol (e.g. the Controlled-GHS schedule) can
    // reach states its asserts rule out when a neighbor goes silent
    // mid-wave. Any std::logic_error thrown there (InvariantViolation, or
    // an out_of_range from state the cut-off wave never built) is
    // therefore treated as the vertex wedging — it is recorded in `delta`
    // and crashes at the
    // next fold, spreading crash-stop semantics to the vertices the
    // failure cut off. Without crash faults (or with graceful off) the
    // exception propagates unchanged.
    void run_process_guarded(VertexId v, Context& ctx, FaultDelta& delta);

    // Applies due crash points for logical_round_ (call right after
    // bumping it on an activation tick). Coordinator-only.
    void apply_crashes();

    // Stall detection, called at the end of every activation tick once
    // in-flight accounting is settled: a window of consecutive silent
    // activations (nothing staged or in flight, not quiescent) latches
    // stalled_ — or throws if FaultConfig::graceful is off. No-op unless
    // crashes are configured. Coordinator-only.
    void note_activation();

    // Builds the satellite-rich runaway diagnostic and throws.
    [[noreturn]] void throw_round_limit() const;

    const WeightedGraph& graph_;
    NetConfig config_;
    std::vector<std::unique_ptr<Process>> processes_;

    // Flat arena inbox: messages delivered this round, grouped per vertex.
    // inbox_span_[v] addresses vertex v's slice of the engine's arena slab.
    // Rebuilt by the engines' deliver phase; double-buffered against the
    // staging buffers (the spans read during a step phase are only
    // rewritten after every process has run). Slabs are grow-only: rounds
    // below the high-water mark reuse slots without constructing or
    // destroying elements.
    std::vector<InboxSpan> inbox_span_;
    // Deliver-phase scratch: per-vertex staged-message counts and scatter
    // cursors. In the parallel engine, shards touch disjoint vertex ranges.
    std::vector<std::uint32_t> inbox_count_;
    std::vector<std::size_t> scatter_off_;

    // Words sent this round per (vertex, port), for bandwidth enforcement.
    // Only the shard stepping `vertex` ever touches row `vertex`, so the
    // parallel engine shares this accounting without synchronization.
    std::vector<std::vector<std::size_t>> words_this_round_;
    std::vector<std::vector<std::size_t>> reverse_port_;

    // The conditioner and its per-(vertex, port) precomputed views (built
    // once; empty on the corresponding disabled axis so the hot path pays
    // one emptiness test, no hash).
    LinkConditioner cond_;
    int stride_ = 1;
    // Count of activation ticks so far == the protocol-visible round of
    // Context::round(); maintained by the engines instead of divided out
    // of round_ (round() is on the per-vertex-per-round hot path).
    std::uint64_t logical_round_ = 0;
    // Per-vertex override of Context::round(), for engines whose vertices
    // run at different logical rounds concurrently (the sharded async
    // engine: a single logical_round_ would be both wrong across shards
    // and a data race). Null on the lock-step engines — round() then pays
    // one pointer test, like the trace hook.
    const std::uint64_t* round_by_vertex_ = nullptr;
    std::vector<std::vector<std::uint16_t>> link_delay_;
    std::vector<std::vector<std::uint16_t>> link_cap_;
    std::uint64_t round_ = 0;
    std::uint64_t in_flight_ = 0;
    RunStats stats_;

    // ---- fault-injection state (congest/faults.h) -----------------------
    // The validated fault assignment; disabled-config object otherwise.
    LinkFaults faults_;
    // Loss shim armed (drop_rate > 0): the send path plans transmissions.
    bool faults_on_ = false;
    bool has_crashes_ = false;
    // Burst-window clocks, one per (vertex, port); advanced only by the
    // shard stepping the sender, so sharded engines need no locking and
    // stay bit-identical across thread counts.
    std::vector<std::vector<std::uint64_t>> fault_attempts_;
    // Crash-stop bookkeeping: crashed_[v] != 0 once v stopped; pending
    // points sorted by (round, vertex) and consumed by apply_crashes().
    std::vector<std::uint8_t> crashed_;
    std::vector<CrashPoint> pending_crashes_;
    std::size_t next_crash_ = 0;
    std::uint64_t stall_window_ = 0;
    std::uint64_t idle_activations_ = 0;
    bool stalled_ = false;
    // Absolute tick targets of the round scheduler (see schedule_round).
    std::uint64_t next_activation_ = 1;
    std::uint64_t next_deliver_ = 0;

    // Span trace recorder (obs/trace.h); null unless config.trace.enabled,
    // so the disabled datapath costs one pointer test per send. Engines
    // call trace_->on_send()/set_now(); run() finalizes into stats_.trace.
    std::unique_ptr<TraceRecorder> trace_owned_;
    TraceRecorder* trace_ = nullptr;

    // Pending Context::set_timer timers per vertex (lock-step path; sized
    // to n at construction). Only the shard stepping `v` touches row v.
    struct PendingTimer {
        std::uint64_t due;
        std::uint64_t id;
    };
    std::vector<std::vector<PendingTimer>> timers_;

private:
    friend class Context;
    friend class MessageProcess;
    friend class TraceScope;
};

}  // namespace dmst

#endif  // DMST_CONGEST_NETWORK_BASE_H
