#ifndef DMST_CONGEST_NETWORK_BASE_H
#define DMST_CONGEST_NETWORK_BASE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dmst/congest/conditioner.h"
#include "dmst/congest/faults.h"
#include "dmst/congest/message.h"
#include "dmst/graph/graph.h"
#include "dmst/obs/phase.h"
#include "dmst/util/assert.h"

namespace dmst {

class NetworkBase;
class TraceRecorder;
struct TraceTable;

// Which simulation engine executes the rounds. Serial and Parallel are
// lock-step round engines and observably identical: same RunStats, same
// delivery order, same process state evolution. Serial steps vertices on
// one thread; Parallel shards vertices over a worker pool (src/dmst/sim/).
// Async is the event-driven engine (sim/async_network.h): every message
// travels with an independent seeded delay and vertices are activated
// per-event with no global barrier; the α- or β-synchronizer
// (sim/synchronizer.h, AsyncConfig::sync) re-creates the synchronous
// round abstraction on top, so protocol outputs (MST edges, verification
// verdicts, per-level message counts) are bit-identical to the serial
// engine. Message-driven drivers may also run with no synchronizer.
// Socket is the real-network backend (src/dmst/net/): vertices are sharded
// over separate processes and messages travel as records on a TCP mesh;
// each rank steps its local vertex block through the serial engine itself
// and a per-round barrier frame keeps the ranks lock-step, so the union of
// the ranks' outputs is bit-identical to serial.
enum class Engine { Serial, Parallel, Async, Socket };

// Parameters of the socket backend (Engine::Socket); ignored by the
// in-process engines. A run is launched as `procs` cooperating processes
// (ranks), each owning a contiguous block of vertices (net/peer_table.h);
// rank r binds base_port + r on `host`. The dmst_launcher binary forks the
// ranks and fills these in per child.
struct SocketConfig {
    int procs = 1;  // total ranks in the run
    int rank = 0;   // this process's rank, in [0, procs)
    std::string host = "127.0.0.1";  // peer host (single-host for now)
    int base_port = 0;               // rank r listens on base_port + r
    int handshake_timeout_ms = 15'000;  // mesh connect budget
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
//           outputs, cheaper control plane (paper_gates' sync-* rows
//           gate it).
//   None  — no synchronizer: payloads dispatch straight to the process's
//           on_message handler at arrival. Requires every process to be
//           a MessageProcess (the message-driven surface below);
//           sync_messages stays exactly 0.
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
    std::uint64_t max_rounds = 50'000'000;  // runaway guard; run() throws past it
    bool record_per_round = false;          // keep a per-round message trace
    bool record_per_edge = false;           // keep a per-edge message histogram
    Engine engine = Engine::Serial;         // which engine make_network builds
    // Parallel engine worker count, 0 = hardware concurrency; the other
    // engines ignore it, and make_network rejects a negative value.
    int threads = 0;
    // Adversarial network conditioning (congest/conditioner.h): per-link
    // bandwidth caps and an adversarial inbox permutation. Disabled by
    // default — the ideal lock-step substrate. Which engines take it and
    // the fault devices below is composition_error's rule (sim/engine.h).
    ConditionerConfig conditioner{};
    // Deterministic fault injection (congest/faults.h): seeded per-link
    // loss behind a reliable-delivery shim, and crash-stop vertices with
    // graceful degradation. Under loss the async clock stretches with
    // every retransmission wait, so callers scale their ideal budget with
    // scaled_round_budget().
    FaultConfig faults{};
    // Event-driven engine parameters; ignored by Serial and Parallel.
    AsyncConfig async{};
    // Socket backend parameters; ignored by the in-process engines.
    SocketConfig socket{};
    // Span-based tracing (src/dmst/obs/): off by default, in which case
    // the send datapath pays one null-pointer test and nothing else.
    TraceConfig trace{};
};

// The scenario JSONL row group that carries a counter (docs/SCENARIOS.md):
// every row, async-engine rows, socket-engine rows, lossy rows
// (drop_rate > 0) or crash rows (a crash schedule is set).
enum class CounterGroup : std::uint8_t { Every, Async, Socket, Loss, Crash };

// Counters for a completed (or in-progress) run.
struct RunStats {
    // Synchronous rounds run. On the lock-step engines (serial, parallel,
    // socket) one step() is one round, so this is the paper's round count
    // and equals the last Context::round() any process saw. On the async
    // engine it is the highest pulse level reached.
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;  // number of Message sends
    std::uint64_t words = 0;     // total 64-bit words sent (tags included)
    // Process activations: on_round() calls, or handler calls (on_start,
    // on_message) under native async dispatch. Every engine skips sleeping
    // vertices (Process::next_wakeup). Identical between serial and
    // parallel at every thread count; summed over a socket run's ranks,
    // equal to serial. Behind an async synchronizer, equal to serial for a
    // driver that books no wakeup once done; a never-sleeping driver runs
    // every pulse, so its count follows the pulse levels and differs.
    std::uint64_t activations = 0;
    std::vector<std::uint64_t> messages_per_round;  // only if record_per_round
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
    // Synchronizer control traffic (α: ACK + SAFE; β: ACK + READY + GO),
    // kept separate from `messages`/`words` so the payload counters stay
    // bit-identical to the lock-step engines and the synchronizer overhead
    // is measurable (paper_gates' sync-* rows).
    std::uint64_t sync_messages = 0;
    std::uint64_t sync_words = 0;

    // ---- fault-injection metrics (NetConfig::faults; zero otherwise) ----
    // Shim transmissions lost to the seeded loss draw (data + ACK).
    std::uint64_t drops = 0;
    // Data transmissions beyond the first per protocol send; kept separate
    // from `messages` so the payload counters stay bit-identical to a
    // clean run (the invariance bar) and the retransmission overhead is
    // directly gateable (paper_gates' loss-* rows).
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
    // Handshake connections and frames dropped by the hardened receive
    // path: failed structural validation (bad magic/version/length,
    // out-of-range vertex or port, oversized payload) or arrived for a
    // stale round/session.
    // Dropping-and-counting mirrors the fault layer's wedged-vertex
    // containment: a malformed frame never wedges the vertex it addressed.
    std::uint64_t malformed_frames = 0;
    // Transport volume, counted at the packet layer (headers included).
    std::uint64_t net_packets_out = 0;
    std::uint64_t net_packets_in = 0;
    std::uint64_t net_bytes_out = 0;
    std::uint64_t net_bytes_in = 0;

    // Finalized span trace of the run (obs/trace.h); set by run() when
    // NetConfig::trace.enabled, null otherwise. Shared so RunStats stays
    // cheaply copyable; a multi-epoch driver's stats always point at the
    // latest (cumulative) finalization.
    std::shared_ptr<const TraceTable> trace;

    // Crash-stop degradation: the run stalled, or lost vertices; the
    // drivers then harvest a partial forest.
    bool partial() const { return stalled || crashed_vertices > 0; }

    // The one list of scalar counters: f(key, value, group) once per
    // counter, in scenario JSONL order, keyed by its JSONL name. The
    // scenario JSONL, the Chrome trace's dmst_totals event, E16 and the
    // tests' comparisons walk it; scripts/check_counter_fields.py checks
    // docs/SCENARIOS.md and scripts/parity_diff.py against what it emits.
    template <typename F> void fields(F&& f) const
    {
        f("rounds", rounds, CounterGroup::Every);
        f("messages", messages, CounterGroup::Every);
        f("words", words, CounterGroup::Every);
        f("activations", activations, CounterGroup::Every);
        f("events", events, CounterGroup::Async);
        f("virtual_time", virtual_time, CounterGroup::Async);
        f("sync_messages", sync_messages, CounterGroup::Async);
        f("sync_words", sync_words, CounterGroup::Async);
        f("malformed_frames", malformed_frames, CounterGroup::Socket);
        f("net_packets_out", net_packets_out, CounterGroup::Socket);
        f("net_packets_in", net_packets_in, CounterGroup::Socket);
        f("net_bytes_out", net_bytes_out, CounterGroup::Socket);
        f("net_bytes_in", net_bytes_in, CounterGroup::Socket);
        f("drops", drops, CounterGroup::Loss);
        f("retransmissions", retransmissions, CounterGroup::Loss);
        f("acks", acks, CounterGroup::Loss);
        f("timeouts", timeouts, CounterGroup::Loss);
        f("crashed_vertices", crashed_vertices, CounterGroup::Crash);
        f("failed_sends", failed_sends, CounterGroup::Crash);
        f("partial", partial(), CounterGroup::Crash);
    }
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
    // The current synchronous round, starting at 1. On the lock-step
    // engines every step() is one round for every vertex, so the last
    // round() any process sees equals RunStats::rounds. A sleeping process
    // (Process::next_wakeup) sees round() jump over the rounds it slept
    // through. Under the async engine's synchronizer it is the vertex's
    // pulse level.
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

    // The clean network model (KT0): a vertex knows its own id, its port
    // count and the weight of each incident edge, but not its neighbors'
    // ids — the Context has no way to ask for one.
    std::size_t degree() const;
    Weight weight(std::size_t port) const;

    // Messages sent to this vertex in the previous round, ordered by port.
    InboxView inbox() const;

    // Queues a message for delivery next round; the payload is moved, not
    // copied, all the way into the engine's staging buffer. Throws
    // InvariantViolation if the per-edge-per-direction word budget for this
    // round is exceeded.
    void send(std::size_t port, Message msg);

private:
    friend class NetworkBase;
    friend class TraceScope;  // reads net_->trace_ inline
    Context(NetworkBase& net, VertexId vertex) : net_(&net), vertex_(vertex) {}

    NetworkBase* net_;
    VertexId vertex_;
};

// A per-vertex state machine. on_round() runs in every round in which the
// vertex's inbox is non-empty or its requested wakeup falls (see
// next_wakeup; by default that is every round). The run ends when every
// process reports done() and no messages are in flight.
class Process {
public:
    // next_wakeup() value asking for no self-wakeup: only a message wakes
    // the process.
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};

    virtual ~Process() = default;
    virtual void on_round(Context& ctx) = 0;
    virtual bool done() const = 0;

    // The sleep contract. Every engine asks this after every on_round():
    // the logical round at which on_round() must run again even with an
    // empty inbox, or kNever. A value at or below ctx.round() means the
    // next round. Until then the vertex is stepped only in rounds whose
    // inbox is non-empty, so a process may sleep only through rounds in
    // which an on_round() with an empty inbox would be a no-op. The
    // default never sleeps. Behind an async synchronizer the vertex still
    // pulses every level; a sleeping pulse only skips on_round().
    virtual std::uint64_t next_wakeup(const Context& ctx) const
    {
        return ctx.round() + 1;
    }
};

// The message-driven driver surface: the second half of the two-surface
// contract. A MessageProcess is programmed against arrivals, not rounds —
// on_start() once at wakeup and on_message() per delivered message; it has
// no clock to set a timer on. It still IS a Process: the final on_round()
// adapter below replays an activation's inbox through the handlers, so a
// message-driven driver runs unmodified on every engine (serial, parallel,
// async behind a synchronizer, socket) — the lock-step schedule is just
// one particular FIFO unit-delay execution.
// Under Engine::Async with AsyncConfig::sync == SyncMode::None the adapter
// is bypassed entirely: the engine dispatches each event straight to the
// handler at its arrival time, with per-link FIFO delivery and zero
// synchronizer traffic (sync_messages == 0).
//
// Handler rules (the asynchronous CONGEST model):
//   - handlers see only local state plus the one arriving message;
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

    // Lock-step adapter: first activation runs on_start, then every
    // activation dispatches the inbox (in inbox order) through the
    // handlers. Final — a message-driven driver has no per-round logic by
    // definition.
    void on_round(Context& ctx) final;

    // Only an arrival wakes a message-driven process: between arrivals the
    // adapter has nothing to do.
    std::uint64_t next_wakeup(const Context&) const final { return kNever; }

private:
    bool started_ = false;
};

// Synchronous message-passing network over a weighted graph: the engine
// interface shared by the serial Network (congest/), the sharded
// ParallelNetwork (sim/) and the socket engine built on Network (net/).
// The contract every engine must keep, because the protocols and tests
// rely on it for determinism:
//
//   - a vertex is stepped in a round iff its inbox is non-empty or its
//     booked wakeup (Process::next_wakeup) is that round, and the
//     stepped vertices run in id order (or observably so),
//   - one step() is exactly one round: apply due crashes, step the
//     round's vertices, fold the counters, deliver the round's sends,
//   - a vertex's inbox holds last round's messages sorted by arrival
//     port, ties broken by (sender id, send order) — then, only under an
//     adversarial-order conditioner, permuted by the seeded
//     engine-independent LinkConditioner::permute_span,
//   - per-(edge, direction) bandwidth is charged identically (per-link
//     caps under a hetero-bandwidth conditioner),
//   - RunStats counters are identical after every completed round.
//
// Activity model: a round costs O(stepped vertices + messages), not O(n).
// Each engine lane (ActiveSet below) keeps the vertices booked for the
// next round, a calendar of later wakeups and the vertices its last
// deliver phase filled; only those are stepped, have their bandwidth
// ledgers reset and their inbox spans laid out, sorted and permuted.
//
// Storage model: inboxes live in one contiguous arena (inbox_slab_) with a
// per-vertex (offset, length) span table, rebuilt every deliver phase from
// the engines' staging buffers — the slab and every staging vector retain
// their capacity across rounds, so the bandwidth=1 steady state performs
// zero per-message heap allocations (message payloads are inline in
// WordBuf; see congest/message.h). Per-(vertex, port) state — the
// bandwidth ledger, the link caps, and the async engine's send-order, FIFO
// and loss-shim clocks — is one flat array per table over the graph's
// half-edge index (WeightedGraph::adj_index), so a send resolves its
// target, arrival port and ledger slot from one CSR record and one index.
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
    // The lock-step engines throw the same diagnostic at once on a sleep
    // deadlock: without crash faults, nothing in flight, no wakeup booked
    // and some process not done (e.g. a driver changed a sleeping process
    // between run() calls without sending it a message).
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

    // Event-engine clock behind Context::virtual_time(); the lock-step
    // engines have no virtual clock and report 0.
    virtual std::uint64_t virtual_now() const { return 0; }

    // Port at which a message sent by v through its port `port` arrives.
    std::size_t reverse_port(VertexId v, std::size_t port) const
    {
        return graph_.reverse_port(v, port);
    }

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
    void charge_bandwidth(VertexId from, std::size_t port, std::size_t size)
    {
        const std::size_t budget =
            kWordsPerUnit *
            static_cast<std::size_t>(link_bandwidth(from, port));
        std::uint32_t& used = words_this_round_[graph_.adj_index(from, port)];
        DMST_ASSERT_MSG(used + size <= budget,
                        "per-edge bandwidth budget exceeded "
                        "(CONGEST violation)");
        used = static_cast<std::uint32_t>(used + size);
    }

    void reset_round_words(VertexId v) { zero_row(words_this_round_, v); }

    // Zeroes vertex v's row of a per-half-edge counter table.
    void zero_row(std::vector<std::uint32_t>& table, VertexId v) const
    {
        std::fill_n(table.data() + graph_.adj_begin(v), graph_.degree(v), 0);
    }

    // ---- conditioner plumbing shared by the lock-step engines ----------

    // Per-link bandwidth in units, for Context::bandwidth(port).
    int link_bandwidth(VertexId v, std::size_t port) const
    {
        return link_cap_.empty() ? config_.bandwidth
                                 : link_cap_[graph_.adj_index(v, port)];
    }

    // Applies the adversarial permutation to vertex v's freshly sorted
    // span, when configured, through the caller's reusable scratch (the
    // same per-engine/per-shard scratch the port sort uses — never shared
    // across concurrent phases). Shards touch disjoint vertices.
    void maybe_permute_span(VertexId v, SortScratch& scratch)
    {
        if (cond_.adversarial_order()) {
            const InboxSpan& span = inbox_span_[v];
            // Keyed by the round that reads the inbox: the next one.
            cond_.permute_span(span.data, span.len, v, round_ + 1,
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

    // ---- crash-stop plumbing of the lock-step engines -------------------

    // Per-round crash-stop deltas. The serial engine keeps one; the
    // parallel engine keeps one per shard and folds them at its merge
    // barrier, so every counter is a sum over shard-deterministic pieces.
    struct FaultDelta {
        std::uint64_t failed_sends = 0;
        // Vertices whose on_round threw a std::logic_error under graceful
        // crash faults: a dead neighbor wedged their protocol state, so
        // they become secondary crashes at the next fold (see
        // run_process_guarded). Usually empty.
        std::vector<VertexId> wedged;
    };

    // Folds a delta into stats_ and resets it. Wedged vertices are marked
    // crashed here — at the barrier, never mid-round, so the serial and
    // parallel engines degrade bit-identically. Coordinator-only.
    void fold_fault_delta(FaultDelta& delta);

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
    // exception propagates unchanged. Returns false iff the vertex wedged.
    bool run_process_guarded(VertexId v, Context& ctx, FaultDelta& delta);

    // ---- activity-driven stepping (lock-step engines) -------------------
    //
    // One lane of the sleep scheduler: the serial engine keeps one, the
    // parallel engine one per shard, touched only by the shard's worker
    // (like wake_/stamp_ rows of the lane's vertices). A process that
    // never sleeps rides `next` alone: no calendar heap, no sort.
    struct ActiveSet {
        std::vector<VertexId> next;   // booked for the next round, ascending
        std::vector<VertexId> inbox;  // non-empty inbox next activation
        // Min-heap of (round, vertex) wakeups beyond the next round; an
        // entry is live only while wake_[vertex] still equals its round.
        std::vector<std::pair<std::uint64_t, VertexId>> calendar;
        std::vector<VertexId> run;    // this activation's vertices, ascending
        std::vector<VertexId> extra;  // scratch: run members not in `next`
        std::uint64_t booked = 0;     // lane vertices with a wakeup booked
        std::uint64_t activations = 0;  // folded into stats_ by the engine
    };

    // Steps this round's vertices of `act` (round_) in id order: resets
    // each one's bandwidth ledger, runs it guarded, and books its next
    // wakeup.
    void step_active(ActiveSet& act, FaultDelta& delta);

    // Books every vertex of [lo, hi) for the next round (the engines'
    // constructors: every vertex runs in round 1).
    void wake_range(ActiveSet& act, VertexId lo, VertexId hi);

    // Applies due crash points for round_ (call right after bumping it).
    // Coordinator-only.
    void apply_crashes();

    // Stall detection, called at the end of every round once in-flight
    // accounting is settled: a window of consecutive silent rounds
    // (nothing staged or in flight, not quiescent) latches
    // stalled_ — or throws if FaultConfig::graceful is off. No-op unless
    // crashes are configured. Coordinator-only.
    void note_round();

    // Builds the satellite-rich runaway diagnostic and throws. With
    // `deadlock` it reports a sleep deadlock instead of the max_rounds
    // overrun, and names the not-done vertices as sleeping.
    [[noreturn]] void throw_round_limit(bool deadlock = false) const;

    // Throws the sleep-deadlock diagnostic when nothing can ever happen
    // again: no crash faults, nothing in flight and `booked` == 0 wakeups
    // booked across the lanes. Call only once step() found the network
    // not quiescent.
    void check_sleep_deadlock(std::uint64_t booked) const
    {
        if (booked == 0 && in_flight_ == 0 && !has_crashes_)
            throw_round_limit(true);
    }

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

    // Words sent this round per half-edge (vertex, port), for bandwidth
    // enforcement. Only the shard stepping `vertex` ever touches row
    // `vertex`, so the parallel engine shares this accounting without
    // synchronization.
    std::vector<std::uint32_t> words_this_round_;

    // Sleep scheduler state per vertex (lock-step engines; only the lane
    // owning the vertex touches its entries): the booked wakeup round
    // (Process::kNever if none), and the last logical round the vertex was
    // put on a run list (dedupes the lane's sources). The async engine
    // keeps only wake_, as the booked wakeup pulse level.
    std::vector<std::uint64_t> wake_;
    std::vector<std::uint64_t> stamp_;

    // The conditioner and its per-half-edge cap view (built once; empty
    // unless hetero caps bite, so the hot path pays one emptiness test, no
    // hash).
    LinkConditioner cond_;
    std::vector<std::uint16_t> link_cap_;
    // Rounds run so far == Context::round() on the lock-step engines. The
    // async engine keeps its runaway-guard clock here instead (pulse
    // levels, or virtual time under native dispatch).
    std::uint64_t round_ = 0;
    // Per-vertex override of Context::round(), for engines whose vertices
    // are at different rounds at once (the async engine: neighbors' pulse
    // levels skew, and native dispatch counts activations per vertex).
    // Null on the lock-step engines — round() then pays one pointer test,
    // like the trace hook.
    const std::uint64_t* round_by_vertex_ = nullptr;
    std::uint64_t in_flight_ = 0;
    RunStats stats_;

    // ---- fault-injection state (congest/faults.h) -----------------------
    // The validated fault assignment; disabled-config object otherwise.
    // The loss shim that reads it lives in the async engine.
    LinkFaults faults_;
    bool has_crashes_ = false;
    // Crash-stop bookkeeping: crashed_[v] != 0 once v stopped; pending
    // points sorted by (round, vertex) and consumed by apply_crashes().
    std::vector<std::uint8_t> crashed_;
    std::vector<CrashPoint> pending_crashes_;
    std::size_t next_crash_ = 0;
    std::uint64_t stall_window_ = 0;
    std::uint64_t idle_rounds_ = 0;
    bool stalled_ = false;

    // Span trace recorder (obs/trace.h); null unless config.trace.enabled,
    // so the disabled datapath costs one pointer test per send. Engines
    // call trace_->on_send()/set_now(); run() finalizes into stats_.trace.
    std::unique_ptr<TraceRecorder> trace_owned_;
    TraceRecorder* trace_ = nullptr;

private:
    friend class Context;
    friend class TraceScope;
};

// Inline: every activation reads it, through Process::next_wakeup too.
inline std::uint64_t Context::round() const
{
    return net_->round_by_vertex_ ? net_->round_by_vertex_[vertex_]
                                  : net_->round_;
}

// Inline, like the graph lookups behind them: the send path.
inline std::size_t Context::degree() const
{
    return net_->graph_.degree(vertex_);
}

inline Weight Context::weight(std::size_t port) const
{
    return net_->graph_.weight(vertex_, port);
}

inline void Context::send(std::size_t port, Message msg)
{
    DMST_ASSERT_MSG(port < degree(), "send: port out of range");
    net_->send_from(vertex_, port, std::move(msg));
}

}  // namespace dmst

#endif  // DMST_CONGEST_NETWORK_BASE_H
