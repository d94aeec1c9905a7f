#ifndef DMST_SIM_SYNCHRONIZER_H
#define DMST_SIM_SYNCHRONIZER_H

#include <cstdint>
#include <vector>

#include "dmst/congest/message.h"
#include "dmst/graph/graph.h"

namespace dmst {

// A payload buffered at its receiver until the receiver's next pulse:
// arrival port, the sender's per-(pulse, link) send sequence number, and a
// handle to the message itself — a stable slot in the engine's
// PayloadPool (congest/payload_pool.h), so buffering and the canonical
// sort move 16-byte records, never a Message. Sorting a pulse's buffer by
// (port, seq) reproduces exactly the lock-step engines' canonical inbox
// order — by arrival port, ties by send order on the link (one sender per
// port).
struct AsyncIncoming {
    std::uint32_t port = 0;
    std::uint32_t seq = 0;
    Message* payload = nullptr;
};

// One control message a synchronizer asks the engine to deliver: SAFE
// announcements for α, READY/GO tree traffic for β. The engine wraps each
// emit in a delayed event and hands it back through on_control() at the
// target; `ctrl` is a synchronizer-private code, `level` the pulse it
// refers to. Each emit costs one sync_message / one sync_word.
struct SyncEmit {
    VertexId target = 0;
    std::uint32_t ctrl = 0;
    std::uint64_t level = 0;
};

// Pulse-synchronizer interface [Awerbuch 85]: the per-vertex state machine
// family that re-creates the synchronous round abstraction on the
// event-driven engine (sim/async_network.h). The engine owns events,
// delays, and the virtual clock; this hierarchy owns the round semantics.
// The safety half is shared by every synchronizer:
//
//   - a vertex that executed pulse p is SAFE for p once every payload it
//     sent during p has been acknowledged (the engine ACKs each payload
//     arrival),
//   - payloads are tagged with the sender's pulse and buffered per tag;
//     neighbor pulse skew is at most one, so two tag slots (by parity)
//     suffice,
//   - a vertex generates pulse p+1 only when ready(): at that point every
//     payload of logical round p addressed to it has physically arrived,
//     so its pulse-(p+1) inbox equals the lock-step round-(p+1) inbox
//     exactly.
//
// What varies is how safety becomes readiness — how a vertex learns that
// its pulse-p neighborhood is quiet. The α-synchronizer broadcasts SAFE to
// every neighbor (~2m control messages per level); the β-synchronizer
// convergecasts READY up a BFS spanning tree and broadcasts GO back down
// (~2n per level). Both host any round-programmed driver with bit-identical
// protocol outputs; paper_gates' sync-* rows gate the control-plane cost.
//
// Emit-based contract: the mutating notifications collect the control
// messages the synchronizer wants sent into a caller-provided SyncEmit
// vector (appended, never cleared here) instead of sending anything
// themselves, keeping this layer engine-agnostic and unit-testable.
//
// Epochs: drivers that re-kick processes after quiescence (sync Borůvka's
// phase oracle) resume the network; each resume starts a new epoch that
// re-aligns every vertex to the common base level — the same out-of-model
// global device the lock-step engines' quiescence check already is.
class PulseSynchronizer {
public:
    explicit PulseSynchronizer(const WeightedGraph& g);
    virtual ~PulseSynchronizer() = default;

    // Re-aligns every vertex to `base_level` and clears all safety,
    // buffer, and readiness state. Requires no payload left unconsumed
    // (asserted per-vertex; the engine asserts the global in-flight count).
    void start_epoch(std::uint64_t base_level);

    std::uint64_t pulse(VertexId v) const { return state_[v].pulse; }
    std::uint64_t base_level() const { return base_level_; }

    // Buffers one arrived payload; `tag` is the sender's pulse and must be
    // the receiver's pulse or one ahead (asserted — anything else means
    // the safety discipline was violated).
    void buffer_payload(VertexId v, std::uint64_t tag, AsyncIncoming&& in);

    // Records a send during v's current pulse (one expected ACK).
    void note_send(VertexId v) { ++state_[v].unacked; }

    // One ACK returned to v. If v just became safe for its current pulse,
    // the synchronizer's safety announcements are appended to `out`.
    void note_ack(VertexId v, std::vector<SyncEmit>& out);

    // v finished executing its current pulse. If no ACKs are outstanding
    // it is safe immediately; announcements are appended to `out`.
    void note_pulse_sends_done(VertexId v, std::vector<SyncEmit>& out);

    // A control message (a prior SyncEmit) arrived at v; any control it
    // triggers in turn is appended to `out`.
    virtual void on_control(VertexId v, std::uint32_t ctrl,
                            std::uint64_t level,
                            std::vector<SyncEmit>& out) = 0;

    // Whether v may generate its next pulse. The epoch's first pulse
    // (pulse == base_level) is ungated, like lock-step round base+1.
    virtual bool ready(VertexId v) const = 0;

    // Transitions v into pulse p+1 and yields the payloads of tag p,
    // in canonical (port, seq)-sorted order, through `out` (cleared
    // first). Safety and readiness state for the new pulse is reset; the
    // caller runs on_round and then reports its sends via note_send /
    // note_pulse_sends_done.
    void begin_pulse(VertexId v, std::vector<AsyncIncoming>& out);

protected:
    // The shared safety core. Readiness state lives in the subclasses.
    struct CoreState {
        std::uint64_t pulse = 0;   // last generated (== base at epoch start)
        std::uint32_t unacked = 0; // pulse sends awaiting ACK
        bool safe = false;         // safe for `pulse`, announcements emitted
        bool sends_done = false;   // on_round of `pulse` returned
        std::vector<AsyncIncoming> buffer[2];  // payloads by tag parity
    };

    // v just became safe for its current pulse: emit this synchronizer's
    // announcements (α: SAFE to all neighbors; β: READY up / GO down).
    virtual void on_safe(VertexId v, std::vector<SyncEmit>& out) = 0;

    // Readiness-state resets around the shared core resets: per pulse
    // (called from begin_pulse, after the core fields reset and with
    // state_[v].pulse already at the NEW pulse) and per epoch (called
    // from start_epoch after every core reset).
    virtual void reset_vertex(VertexId v) = 0;
    virtual void reset_epoch() = 0;

    const WeightedGraph& graph_;
    std::vector<CoreState> state_;
    std::uint64_t base_level_ = 0;
};

// Acknowledgment-based α-synchronizer: a safe vertex announces SAFE to all
// neighbors; a vertex is ready once it is safe and holds SAFE(pulse) from
// every neighbor. Neighbor skew is at most one, so two SAFE counters (by
// level parity) suffice; the consumed level's slot is recycled for level
// pulse+2 at each begin_pulse. Control cost ~2 per edge per level (one
// SAFE each way) plus one ACK per payload.
class AlphaSynchronizer final : public PulseSynchronizer {
public:
    explicit AlphaSynchronizer(const WeightedGraph& g);

    void on_control(VertexId v, std::uint32_t ctrl, std::uint64_t level,
                    std::vector<SyncEmit>& out) override;
    bool ready(VertexId v) const override;

protected:
    void on_safe(VertexId v, std::vector<SyncEmit>& out) override;
    void reset_vertex(VertexId v) override;
    void reset_epoch() override;

private:
    struct AlphaState {
        std::uint32_t safe_from[2] = {0, 0};  // SAFE counts by level parity
    };
    std::vector<AlphaState> alpha_;
};

// Spanning-tree β-synchronizer: safety still rides per-payload ACKs, but
// readiness travels a BFS spanning forest (one tree per graph component,
// rooted at the component's minimum id, built centrally at construction —
// the same out-of-model device as the α-synchronizer's isolated-vertex
// scan). A safe vertex whose children are all READY convergecasts
// READY(pulse) to its parent; the root, once safe with all children READY,
// broadcasts GO(pulse) down, and GO is what makes a vertex ready. Control
// cost per level is 2(n - #components) messages — Θ(n) against α's Θ(m) —
// at the price of the tree height in latency.
//
// Single-slot readiness state is sound because β is globally synchronized
// per component: GO(p) is emitted only after every vertex of the component
// is safe for p, so READY(p) always arrives while the parent's pulse is p,
// GO(p) while the receiver's pulse is p, and consecutive GOs never overtake
// (GO(p) presupposes the receiver already executed pulse p). Asserted.
class BetaSynchronizer final : public PulseSynchronizer {
public:
    explicit BetaSynchronizer(const WeightedGraph& g);

    void on_control(VertexId v, std::uint32_t ctrl, std::uint64_t level,
                    std::vector<SyncEmit>& out) override;
    bool ready(VertexId v) const override;

    // Tree topology, exposed for tests: parent port of v on the BFS tree
    // (kNoPort at a root) and the number of tree children.
    std::size_t tree_parent_port(VertexId v) const
    {
        return beta_[v].parent_port;
    }
    std::size_t tree_children(VertexId v) const
    {
        return beta_[v].children.size();
    }

protected:
    void on_safe(VertexId v, std::vector<SyncEmit>& out) override;
    void reset_vertex(VertexId v) override;
    void reset_epoch() override;

private:
    // Control codes carried in SyncEmit::ctrl / on_control's `ctrl`.
    static constexpr std::uint32_t kReady = 1;
    static constexpr std::uint32_t kGo = 2;

    struct BetaState {
        // Immutable tree shape (built at construction).
        std::size_t parent_port = ~std::size_t{0};  // kNoPort at a root
        VertexId parent = 0;
        std::vector<VertexId> children;
        // Per-pulse readiness, reset at begin_pulse/start_epoch.
        std::uint32_t ready_children = 0;  // READY(pulse) received
        bool ready_sent = false;  // READY (non-root) / GO (root) emitted
        bool go = false;          // GO(pulse) held — pulse+1 authorized
    };

    bool root(VertexId v) const
    {
        return beta_[v].parent_port == ~std::size_t{0};
    }

    // Emits READY to the parent (or GO down from the root) if v is safe
    // with a fully READY subtree and has not announced yet.
    void maybe_advance(VertexId v, std::vector<SyncEmit>& out);

    std::vector<BetaState> beta_;
};

}  // namespace dmst

#endif  // DMST_SIM_SYNCHRONIZER_H
