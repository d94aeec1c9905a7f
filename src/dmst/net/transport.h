#ifndef DMST_NET_TRANSPORT_H
#define DMST_NET_TRANSPORT_H

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "dmst/congest/network_base.h"
#include "dmst/net/wire.h"

namespace dmst {

// Packet-level counters of one transport instance; folded into RunStats'
// net_* columns by the socket engine. Every record of the run — hellos and
// frames, with their length prefixes and headers — is counted once where
// it is written and once where it is parsed, so summed over the ranks of
// a run, out equals in. Two exceptions: a hello written into a dial that
// died before the peer read it, and the teardown Bye, which neither side
// counts (the engine has folded the sender's stats before it is sent).
struct TransportStats {
    std::uint64_t packets_out = 0;
    std::uint64_t packets_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t malformed = 0;  // handshake connections and records
                                  // failing validation
};

// Reliable, in-order, per-peer packet channel over a full TCP mesh — the
// only layer that touches file descriptors. Single-threaded: everything
// happens inside the caller's poll() calls.
//
// Delivery contract: for each peer, Frames packets are handed to the sink
// exactly once, in send order. The stream provides both; packets are
// delimited by a u32 length prefix. A stream that fails framing or header
// validation after the handshake cannot be resynchronized, so poll()
// throws std::runtime_error naming the peer and the error.
class Transport {
public:
    // Called for each delivered Frames packet: validated header + the
    // frame bytes (valid only during the call).
    using PacketSink = std::function<void(const PacketHeader&,
                                          const std::uint8_t*, std::size_t)>;

    // Binds base_port + rank on cfg.host, performs the full mesh
    // handshake within cfg.handshake_timeout_ms, and stamps `session` into
    // every outgoing packet header. Requires cfg.procs >= 2; cfg.host must
    // be an IPv4 literal. Throws std::invalid_argument on a bad config and
    // std::runtime_error on socket failures or a handshake timeout.
    Transport(const SocketConfig& cfg, std::uint64_t session);
    ~Transport();
    Transport(const Transport&) = delete;
    Transport& operator=(const Transport&) = delete;

    // Queues one Frames packet (`frame_count` frames in `len` bytes) to
    // `peer` and writes as much of the queue as the socket takes.
    void send_frames(int peer, const std::uint8_t* frames, std::size_t len,
                     std::uint16_t frame_count);

    // Services the sockets for up to `timeout_ms`: flushes pending output
    // and delivers complete Frames packets to `sink`. Returns true if at
    // least one Frames packet was delivered.
    bool poll(int timeout_ms, const PacketSink& sink);

    // Best-effort teardown: announces Bye to every peer, then drains our
    // output and reads until every peer's Bye arrived (or `linger_ms`
    // passed), so both directions close with orderly FINs. Idempotent.
    void shutdown(int linger_ms, const PacketSink& sink);

    const TransportStats& stats() const { return stats_; }

private:
    struct Peer {
        int fd = -1;
        std::vector<std::uint8_t> in;
        std::size_t in_off = 0;
        std::vector<std::uint8_t> out;
        std::size_t out_off = 0;
        bool bye_seen = false;
    };

    void close_fds();
    void establish_mesh(const SocketConfig& cfg);
    bool send_hello_blocking(int fd);
    int try_read_hello(int fd, int expect_rank, bool reply);
    void enqueue_record(Peer& p, PacketKind kind, const std::uint8_t* frames,
                        std::size_t len, std::uint16_t frame_count);
    void flush_out(Peer& p);
    bool pump(int timeout_ms, const PacketSink& sink);
    bool read_peer(int rank, const PacketSink& sink);
    bool parse_records(int rank, const PacketSink& sink);

    int procs_;
    int rank_;
    std::uint64_t session_;
    int listen_fd_ = -1;
    std::vector<Peer> peers_;
    std::map<int, std::vector<std::uint8_t>> hello_buf_;  // fd -> bytes
    TransportStats stats_;
    bool shut_ = false;
};

}  // namespace dmst

#endif  // DMST_NET_TRANSPORT_H
