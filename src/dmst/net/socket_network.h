#ifndef DMST_NET_SOCKET_NETWORK_H
#define DMST_NET_SOCKET_NETWORK_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "dmst/congest/network.h"
#include "dmst/net/peer_table.h"
#include "dmst/net/transport.h"

namespace dmst {

// Real-network engine (Engine::Socket): the serial engine plus a wire. The
// run is `procs` cooperating processes, each owning one contiguous vertex
// block (net/peer_table.h) and stepping it through the serial engine's
// own sleep lane and datapath (it derives from Network): only booked and
// targeted vertices run, and local sends stage exactly as serially. What
// the wire adds: a send to another rank's vertex becomes a Data frame
// (net/wire.h) on a full TCP mesh (net/transport.h), and a per-round
// barrier exchange runs between the step and deliver phases. Each rank
// ends its step phase by telling every peer how many data frames it sent
// them, its flags (block done; a wakeup booked) and how many messages it
// staged for the next round; it delivers and advances only once every
// peer's barrier has arrived and the counted data frames with it. Because
// the barrier travels after the data on the same in-order channel, its
// receipt implies the round's data is complete — the count is an
// integrity check, not the ordering mechanism.
//
// Determinism. The round's remote arrivals enter the serial staging
// buffer after the local sends, in arrival order, and Network's deliver
// phase scatters them stably by target and stable-sorts each span by
// arrival port. Two messages tie on port only if they crossed the same
// edge direction, i.e. came from one sender over one in-order channel, so
// the serial tie-break is reproduced bit-for-bit and the union of the
// ranks' outputs — activations included — equals a serial run.
//
// Sleep deadlock. The barrier's flags also say whether the rank has a
// wakeup booked, so every rank sees the serial engine's deadlock
// predicate (nobody awake, nothing staged anywhere, not everyone done)
// in the same round and throws the same diagnostic.
//
// Quiescence and collectives. run() epochs are separated by driver kicks
// the network cannot see, so entering step() with the global state unknown
// (or last known quiescent) triggers a quiescence probe: an allreduce_or()
// of every rank's "not done" bit, and the round only proceeds if someone
// has work. allreduce_or() is the one epoch-numbered exchange, also for
// drivers that branch on global state between runs. It is a collective:
// deterministic symmetric drivers guarantee every rank issues probes and
// reduces in the same order, which is what lets an epoch number identify
// an exchange.
//
// Peers can run at most one round (or collective epoch) ahead — they need
// our barrier or contribution to advance further — so frames for round
// r + 1 are stashed in "next" ledgers and anything outside {r, r + 1} (or
// outside the epoch window) is dropped and counted in
// RunStats::malformed_frames, the same counter the hardened receive path
// uses for structurally invalid frames.
//
// Built by make_network, which validates the config and decides which
// devices compose (composition_error in sim/engine.h): this backend's
// links are real links, made reliable by the kernel's TCP.
class SocketNetwork : public Network {
public:
    SocketNetwork(const WeightedGraph& g, NetConfig config);
    ~SocketNetwork() override;

    bool step() override;
    bool quiescent() const override;

    VertexId local_begin() const override { return lo_; }
    VertexId local_end() const override { return hi_; }
    void allreduce_or(std::uint64_t* words, std::size_t count) override;

    int rank() const { return rank_; }
    int procs() const { return procs_; }
    const PeerTable& peer_table() const { return table_; }

protected:
    void send_from(VertexId from, std::size_t port, Message&& msg) override;

private:
    // A cross-rank message from a peer already one round ahead, parked
    // until our barrier exchange of its round.
    struct RemoteMsg {
        VertexId dst = 0;
        std::uint32_t port = 0;
        Message msg;
    };

    // Per-peer barrier ledger of one round (cur) or the next (next).
    struct PeerRound {
        bool barrier_seen = false;
        bool peer_done = false;
        bool peer_awake = false;            // peer has a wakeup booked
        std::uint64_t frames_expected = 0;  // data frames the barrier counted
        std::uint64_t frames_received = 0;  // data frames actually accepted
        std::uint64_t peer_staged = 0;      // peer's sends staged for next round
    };

    struct ReduceSlot {
        bool seen = false;
        std::vector<std::uint64_t> words;
    };

    bool probe_quiescent();
    bool block_done() const;  // every process of this rank's block done
    void flush_peer(int peer);
    void send_single_frame(int peer, FrameKind kind, std::uint64_t epoch,
                           const std::uint64_t* words, std::size_t nwords);
    void exchange_barrier();
    void fold_transport_stats();

    // Hardened receive path: every field of every frame is validated
    // before it can touch engine state; failures drop-and-count.
    void on_packet(const PacketHeader& h, const std::uint8_t* frames,
                   std::size_t len);
    void handle_data(int src, const WireFrame& f);
    void handle_barrier(int src, const WireFrame& f);
    void handle_reduce(int src, const WireFrame& f);

    template <typename Pred>
    void poll_until(const Pred& pred, const char* what);

    int procs_;
    int rank_;
    PeerTable table_;
    VertexId lo_ = 0;
    VertexId hi_ = 0;
    std::uint64_t session_ = 0;
    std::unique_ptr<Transport> transport_;  // null when procs == 1
    Transport::PacketSink sink_;

    // Cross-rank arrivals for round_ + 1 from peers already one round
    // ahead; this round's arrivals stage straight into the serial buffer.
    std::vector<RemoteMsg> remote_next_;

    // Per-peer outgoing frame coalescing buffers and this-round counters.
    std::vector<std::vector<std::uint8_t>> out_frames_;
    std::vector<std::uint16_t> out_count_;
    std::vector<std::uint64_t> data_sent_;  // data frames per peer this round
    std::uint64_t remote_staged_round_ = 0;

    std::vector<PeerRound> peer_cur_;
    std::vector<PeerRound> peer_next_;

    // Collective exchanges, keyed by epoch (see class comment).
    std::uint64_t reduce_epoch_ = 0;     // last epoch issued
    std::uint64_t reduce_consumed_ = 0;  // last epoch completed
    std::map<std::uint64_t, std::vector<ReduceSlot>> reduce_stash_;

    // True while the barrier exchange collects round_'s arrivals.
    bool in_round_ = false;

    // Global-state cache maintained at barriers and probes.
    bool global_state_valid_ = false;
    bool global_quiescent_ = false;
    bool global_asleep_ = false;  // no rank awake and nothing staged

    // Frame-level drops (transport-level ones live in TransportStats).
    std::uint64_t frame_malformed_ = 0;

    // Session ids advance per constructed SocketNetwork; ranks construct
    // networks in the same deterministic driver order, so the ids agree
    // across the run and packets from a previous network on the same ports
    // are recognized as stale.
    static std::uint64_t session_counter_;
};

}  // namespace dmst

#endif  // DMST_NET_SOCKET_NETWORK_H
