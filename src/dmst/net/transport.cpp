#include "dmst/net/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "dmst/congest/faults.h"
#include "dmst/net/peer_table.h"

namespace dmst {

namespace {

std::int64_t now_ms()
{
    using namespace std::chrono;
    return duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void throw_errno(const char* what)
{
    std::ostringstream oss;
    oss << "socket transport: " << what << ": " << strerror(errno);
    throw std::runtime_error(oss.str());
}

void set_nonblocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw_errno("fcntl(O_NONBLOCK)");
}

sockaddr_in make_addr(const std::string& host, int port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    const std::string h = host.empty() ? std::string("127.0.0.1") : host;
    if (inet_pton(AF_INET, h.c_str(), &addr.sin_addr) != 1)
        throw std::runtime_error("socket transport: host must be an IPv4 "
                                 "literal, got '" + h + "'");
    return addr;
}

// Loopback RTT assumed by the retransmission timer, in ms. Feeds the
// fault shim's backoff schedule (FaultConfig::rto) with virtual-time
// units read as milliseconds: attempt k waits rtt + min(rto_base << (k-1), rto_cap).
constexpr std::uint64_t kAssumedRttMs = 2;

// Largest UDP payload this transport will send in one datagram.
constexpr std::size_t kMaxUdpPacket = 60'000;

// Reorder-buffer bound per peer; packets beyond it are dropped and covered
// by the sender's retransmission (a sender this far ahead is misbehaving).
constexpr std::size_t kMaxReorder = 4096;

// TCP record sanity bound: header + the largest coalesced frame run we
// ever emit, with slack. A longer length prefix means a desynced stream.
constexpr std::size_t kMaxTcpRecord = 1 << 20;

// ------------------------------------------------------------------ UDP

class UdpTransport final : public Transport {
public:
    UdpTransport(const SocketConfig& cfg, std::uint64_t session)
        : procs_(cfg.procs), rank_(cfg.rank), session_(session),
          peers_(static_cast<std::size_t>(cfg.procs))
    {
        fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
        if (fd_ < 0)
            throw_errno("socket(udp)");
        const int one = 1;
        ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        // A whole rank's round can land between two poll calls; size the
        // kernel buffers so bursts from procs-1 peers do not overflow.
        const int buf = 4 << 20;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
        sockaddr_in self = make_addr(cfg.host,
                                     PeerTable::port_of(cfg.base_port, rank_));
        if (::bind(fd_, reinterpret_cast<sockaddr*>(&self), sizeof self) < 0)
            throw_errno("bind(udp)");
        set_nonblocking(fd_);
        for (int r = 0; r < procs_; ++r)
            peers_[static_cast<std::size_t>(r)].addr =
                make_addr(cfg.host, PeerTable::port_of(cfg.base_port, r));
    }

    ~UdpTransport() override
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void send_frames(int peer, const std::uint8_t* frames, std::size_t len,
                     std::uint16_t frame_count) override
    {
        Peer& p = peers_[static_cast<std::size_t>(peer)];
        Unacked u;
        u.seq = p.next_seq_out++;
        u.frame_count = frame_count;
        u.frames.assign(frames, frames + len);
        u.attempt = 1;
        u.deadline_ms = now_ms() + rto_ms(1);
        transmit(peer, u);
        p.unacked.push_back(std::move(u));
    }

    bool poll(int timeout_ms, const PacketSink& sink) override
    {
        const std::int64_t deadline = now_ms() + timeout_ms;
        bool delivered = drain(sink);
        service();
        while (!delivered) {
            const std::int64_t now = now_ms();
            if (now >= deadline)
                break;
            pollfd pfd{fd_, POLLIN, 0};
            const int slice = static_cast<int>(
                std::min<std::int64_t>(deadline - now, next_timer_slice()));
            ::poll(&pfd, 1, slice);
            delivered = drain(sink);
            service();
        }
        return delivered;
    }

    void shutdown(int linger_ms, const PacketSink& sink) override
    {
        if (shut_)
            return;
        shut_ = true;
        for (int r = 0; r < procs_; ++r) {
            if (r != rank_)
                send_control(r, PacketKind::Bye);
        }
        // Keep acking and retransmitting briefly: a peer still waiting on
        // our last ack would otherwise sit out its full timeout tail.
        const std::int64_t deadline = now_ms() + linger_ms;
        while (now_ms() < deadline) {
            if (all_peers_closed())
                break;
            pollfd pfd{fd_, POLLIN, 0};
            ::poll(&pfd, 1, 5);
            drain(sink);
            service();
        }
    }

private:
    struct Unacked {
        std::uint64_t seq = 0;
        std::uint16_t frame_count = 0;
        std::vector<std::uint8_t> frames;
        int attempt = 1;
        std::int64_t deadline_ms = 0;
    };

    struct Stashed {
        PacketHeader header;
        std::vector<std::uint8_t> payload;
    };

    struct Peer {
        sockaddr_in addr{};
        std::uint64_t next_seq_out = 1;
        std::deque<Unacked> unacked;
        std::uint64_t cum_in = 0;  // highest in-order seq received
        std::map<std::uint64_t, Stashed> reorder;
        bool need_ack = false;
        bool bye_seen = false;
    };

    std::uint64_t rto_ms(int attempt) const
    {
        return rto_config_.rto(std::min(attempt, rto_config_.max_attempts),
                               kAssumedRttMs);
    }

    void sendto_peer(const Peer& p, const std::vector<std::uint8_t>& pkt)
    {
        // EAGAIN/ENOBUFS and ICMP-reflected errors (ECONNREFUSED while the
        // peer has not bound yet) are all absorbed: every data packet is
        // covered by retransmission and every ack by the peer's next
        // duplicate. This is what makes a UDP run need no handshake.
        (void)::sendto(fd_, pkt.data(), pkt.size(), 0,
                       reinterpret_cast<const sockaddr*>(&p.addr),
                       sizeof p.addr);
        ++stats_.packets_out;
        stats_.bytes_out += pkt.size();
    }

    void transmit(int peer, const Unacked& u)
    {
        Peer& p = peers_[static_cast<std::size_t>(peer)];
        scratch_.clear();
        PacketHeader h;
        h.kind = PacketKind::Frames;
        h.src_rank = static_cast<std::uint16_t>(rank_);
        h.frame_count = u.frame_count;
        h.session = session_;
        h.seq = u.seq;
        h.ack = p.cum_in;  // piggybacked cumulative ack, always fresh
        append_packet_header(scratch_, h);
        scratch_.insert(scratch_.end(), u.frames.begin(), u.frames.end());
        sendto_peer(p, scratch_);
        p.need_ack = false;
    }

    void send_control(int peer, PacketKind kind)
    {
        Peer& p = peers_[static_cast<std::size_t>(peer)];
        scratch_.clear();
        PacketHeader h;
        h.kind = kind;
        h.src_rank = static_cast<std::uint16_t>(rank_);
        h.session = session_;
        h.ack = p.cum_in;
        append_packet_header(scratch_, h);
        sendto_peer(p, scratch_);
        p.need_ack = false;
        if (kind == PacketKind::AckOnly)
            ++stats_.acks;
    }

    void process_ack(Peer& p, std::uint64_t ack)
    {
        while (!p.unacked.empty() && p.unacked.front().seq <= ack)
            p.unacked.pop_front();
    }

    // Receives every queued datagram; returns true if any in-order Frames
    // packet reached the sink.
    bool drain(const PacketSink& sink)
    {
        bool delivered = false;
        for (;;) {
            const ssize_t got =
                ::recvfrom(fd_, rxbuf_, sizeof rxbuf_, 0, nullptr, nullptr);
            if (got < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                if (errno == EINTR || errno == ECONNREFUSED)
                    continue;
                throw_errno("recvfrom(udp)");
            }
            ++stats_.packets_in;
            stats_.bytes_in += static_cast<std::uint64_t>(got);
            delivered |= on_datagram(rxbuf_, static_cast<std::size_t>(got), sink);
        }
        return delivered;
    }

    bool on_datagram(const std::uint8_t* data, std::size_t len,
                     const PacketSink& sink)
    {
        PacketHeader h;
        if (parse_packet_header(data, len, h) != WireError::Ok) {
            ++stats_.malformed;
            return false;
        }
        // Structural sender validation: a rank outside the run or
        // ourselves — drop and count, never deliver.
        if (h.src_rank >= procs_ || h.src_rank == rank_) {
            ++stats_.malformed;
            return false;
        }
        if (h.session != session_) {
            // A stale session: an earlier network instance on the same
            // ports. Crossing Bye/AckOnly stragglers from a peer's previous
            // teardown are expected when networks are constructed back to
            // back (the mutation battery does exactly that) — ignore them
            // silently. Stale *data* is counted: it is either a very late
            // retransmission or a forgery, and both deserve a counter.
            if (h.kind != PacketKind::Bye && h.kind != PacketKind::AckOnly)
                ++stats_.malformed;
            return false;
        }
        Peer& p = peers_[h.src_rank];
        process_ack(p, h.ack);
        switch (h.kind) {
        case PacketKind::AckOnly:
        case PacketKind::Hello:
            return false;
        case PacketKind::Bye:
            p.bye_seen = true;
            return false;
        case PacketKind::Frames:
            break;
        }
        if (h.seq <= p.cum_in) {
            // Our ack was lost; re-ack so the sender stops retransmitting.
            ++stats_.duplicates;
            p.need_ack = true;
            return false;
        }
        if (h.seq != p.cum_in + 1) {
            if (p.reorder.size() < kMaxReorder && !p.reorder.count(h.seq)) {
                Stashed s;
                s.header = h;
                s.payload.assign(data + kPacketHeaderBytes, data + len);
                p.reorder.emplace(h.seq, std::move(s));
            }
            p.need_ack = true;  // carries cum_in: a NACK in effect
            return false;
        }
        // In order: deliver, then flush any stashed successors.
        bool delivered = false;
        sink(h, data + kPacketHeaderBytes, len - kPacketHeaderBytes);
        p.cum_in = h.seq;
        delivered = true;
        auto it = p.reorder.begin();
        while (it != p.reorder.end() && it->first == p.cum_in + 1) {
            sink(it->second.header, it->second.payload.data(),
                 it->second.payload.size());
            p.cum_in = it->first;
            it = p.reorder.erase(it);
        }
        p.reorder.erase(p.reorder.begin(), p.reorder.lower_bound(p.cum_in + 1));
        p.need_ack = true;
        return delivered;
    }

    // Sends due acks and retransmits overdue packets.
    void service()
    {
        const std::int64_t now = now_ms();
        for (int r = 0; r < procs_; ++r) {
            if (r == rank_)
                continue;
            Peer& p = peers_[static_cast<std::size_t>(r)];
            for (Unacked& u : p.unacked) {
                if (u.deadline_ms > now)
                    continue;
                ++stats_.timeouts;
                ++stats_.retransmissions;
                ++u.attempt;
                u.deadline_ms = now + static_cast<std::int64_t>(rto_ms(u.attempt));
                transmit(r, u);
            }
            if (p.need_ack)
                send_control(r, PacketKind::AckOnly);
        }
    }

    // How long poll may sleep before a retransmission timer could fire.
    std::int64_t next_timer_slice() const
    {
        const std::int64_t now = now_ms();
        std::int64_t slice = 20;
        for (const Peer& p : peers_) {
            for (const Unacked& u : p.unacked)
                slice = std::min(slice, std::max<std::int64_t>(
                                            1, u.deadline_ms - now));
        }
        return slice;
    }

    bool all_peers_closed() const
    {
        for (int r = 0; r < procs_; ++r) {
            if (r == rank_)
                continue;
            const Peer& p = peers_[static_cast<std::size_t>(r)];
            if (!p.bye_seen || !p.unacked.empty())
                return false;
        }
        return true;
    }

    int procs_;
    int rank_;
    std::uint64_t session_;
    int fd_ = -1;
    std::vector<Peer> peers_;
    std::vector<std::uint8_t> scratch_;
    std::uint8_t rxbuf_[65536];
    FaultConfig rto_config_;  // defaults: the shim's backoff schedule
    bool shut_ = false;
};

// ------------------------------------------------------------------ TCP

class TcpTransport final : public Transport {
public:
    TcpTransport(const SocketConfig& cfg, std::uint64_t session)
        : procs_(cfg.procs), rank_(cfg.rank), session_(session),
          peers_(static_cast<std::size_t>(cfg.procs))
    {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            throw_errno("socket(tcp)");
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in self = make_addr(cfg.host,
                                     PeerTable::port_of(cfg.base_port, rank_));
        if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&self), sizeof self) < 0)
            throw_errno("bind(tcp)");
        if (::listen(listen_fd_, procs_) < 0)
            throw_errno("listen(tcp)");
        set_nonblocking(listen_fd_);
        establish_mesh(cfg);
    }

    ~TcpTransport() override
    {
        for (Peer& p : peers_) {
            if (p.fd >= 0)
                ::close(p.fd);
        }
        if (listen_fd_ >= 0)
            ::close(listen_fd_);
    }

    void send_frames(int peer, const std::uint8_t* frames, std::size_t len,
                     std::uint16_t frame_count) override
    {
        Peer& p = peers_[static_cast<std::size_t>(peer)];
        PacketHeader h;
        h.kind = PacketKind::Frames;
        h.src_rank = static_cast<std::uint16_t>(rank_);
        h.frame_count = frame_count;
        h.session = session_;
        enqueue_record(p, h, frames, len);
        flush_out(p);
    }

    bool poll(int timeout_ms, const PacketSink& sink) override
    {
        const std::int64_t deadline = now_ms() + timeout_ms;
        bool delivered = pump(0, sink);
        while (!delivered) {
            const std::int64_t now = now_ms();
            if (now >= deadline)
                break;
            delivered = pump(static_cast<int>(deadline - now), sink);
        }
        return delivered;
    }

    void shutdown(int linger_ms, const PacketSink& sink) override
    {
        if (shut_)
            return;
        shut_ = true;
        for (int r = 0; r < procs_; ++r) {
            if (r == rank_)
                continue;
            Peer& p = peers_[static_cast<std::size_t>(r)];
            PacketHeader h;
            h.kind = PacketKind::Bye;
            h.src_rank = static_cast<std::uint16_t>(rank_);
            h.session = session_;
            enqueue_record(p, h, nullptr, 0);
        }
        // Drain our outbufs AND read every peer's Bye before the fds close.
        // Closing a TCP socket with unread bytes in its receive buffer
        // turns the close into an RST, which can discard our own in-flight
        // Bye and hand the slower rank a spurious reset; waiting for the
        // reciprocal Bye (as UDP waits in all_peers_closed) keeps the
        // teardown a pair of orderly FINs.
        const std::int64_t deadline = now_ms() + linger_ms;
        while (now_ms() < deadline) {
            bool pending = false;
            for (int r = 0; r < procs_; ++r) {
                if (r == rank_)
                    continue;
                const Peer& p = peers_[static_cast<std::size_t>(r)];
                pending |= p.out_off < p.out.size() || !p.bye_seen;
            }
            if (!pending)
                break;
            pump(5, sink);
        }
    }

private:
    struct Peer {
        int fd = -1;
        std::vector<std::uint8_t> in;
        std::size_t in_off = 0;
        std::vector<std::uint8_t> out;
        std::size_t out_off = 0;
        bool bye_seen = false;
    };

    // Mesh convention: rank r initiates connections to every s < r and
    // accepts from every s > r. BOTH sides open with a Hello record naming
    // their rank and session, and a peer counts as connected only once the
    // other side's hello arrived. One-way counting is not enough: when
    // networks run back to back on the same ports, a connect() can land in
    // the kernel backlog of the peer's *previous* instance's listener —
    // the TCP handshake succeeds, then the connection is reset at that
    // instance's teardown. The reciprocal hello proves the fd reaches a
    // live current-session transport; anything else (reset, stale session,
    // garbage) is dropped and the dial retried until the deadline.
    void establish_mesh(const SocketConfig& cfg)
    {
        const std::int64_t deadline = now_ms() + cfg.handshake_timeout_ms;
        int connected = 0;
        const int expected = procs_ - 1;
        std::map<int, int> dialing;  // peer rank -> fd awaiting its hello
        std::vector<int> unmapped;   // accepted fds whose hello is pending

        while (connected < expected) {
            if (now_ms() > deadline) {
                for (auto& [r, fd] : dialing)
                    ::close(fd);
                for (int fd : unmapped)
                    ::close(fd);
                hello_buf_.clear();
                throw std::runtime_error(
                    "socket transport: tcp mesh handshake timed out (are all "
                    "ranks running?)");
            }
            // Dial every lower rank not yet connected or in progress, and
            // lead with our hello (blocking fd: the record always fits the
            // send buffer of a fresh connection).
            for (int r = 0; r < rank_; ++r) {
                if (peers_[static_cast<std::size_t>(r)].fd >= 0 ||
                    dialing.count(r))
                    continue;
                const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
                if (fd < 0)
                    throw_errno("socket(tcp dial)");
                sockaddr_in addr = make_addr(
                    cfg.host, PeerTable::port_of(cfg.base_port, r));
                if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof addr) != 0 ||
                    !send_hello_blocking(fd)) {
                    ::close(fd);  // peer not listening yet; retry
                    continue;
                }
                set_nonblocking(fd);
                dialing[r] = fd;
            }
            // Await reciprocal hellos on in-progress dials.
            for (auto it = dialing.begin(); it != dialing.end();) {
                const int got = try_read_hello(it->second, it->first,
                                               /*reply=*/false);
                if (got == kHelloDead || got >= 0)
                    it = dialing.erase(it);  // mapped, or redial next pass
                else
                    ++it;
                if (got >= 0)
                    ++connected;
            }
            // Accept dials from higher ranks.
            for (;;) {
                const int fd = ::accept(listen_fd_, nullptr, nullptr);
                if (fd < 0)
                    break;
                set_nonblocking(fd);
                unmapped.push_back(fd);
            }
            // Read hellos off unmapped connections, answering each valid
            // one with our own hello.
            for (std::size_t i = 0; i < unmapped.size();) {
                const int got = try_read_hello(unmapped[i], kAnyHigherRank,
                                               /*reply=*/true);
                if (got == kHelloDead || got >= 0) {
                    unmapped[i] = unmapped.back();
                    unmapped.pop_back();
                } else {
                    ++i;
                }
                if (got >= 0)
                    ++connected;
            }
            if (connected < expected) {
                // Keep reciprocal hellos draining while we wait.
                for (Peer& p : peers_)
                    if (p.fd >= 0 && p.out_off < p.out.size())
                        flush_out(p);
                pollfd pfd{listen_fd_, POLLIN, 0};
                ::poll(&pfd, 1, 10);
            }
        }
        // Stragglers past a complete mesh are rogue or stale: drop them.
        for (int fd : unmapped) {
            hello_buf_.erase(fd);
            ::close(fd);
        }
    }

    void adopt(int rank, int fd)
    {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        set_nonblocking(fd);
        peers_[static_cast<std::size_t>(rank)].fd = fd;
    }

    // Writes our Hello record to a (blocking) freshly connected fd.
    bool send_hello_blocking(int fd)
    {
        std::vector<std::uint8_t> rec = {
            static_cast<std::uint8_t>(kPacketHeaderBytes), 0, 0, 0};
        PacketHeader h;
        h.kind = PacketKind::Hello;
        h.src_rank = static_cast<std::uint16_t>(rank_);
        h.session = session_;
        append_packet_header(rec, h);
        std::size_t off = 0;
        while (off < rec.size()) {
            const ssize_t sent = ::send(fd, rec.data() + off,
                                        rec.size() - off, MSG_NOSIGNAL);
            if (sent > 0) {
                off += static_cast<std::size_t>(sent);
                continue;
            }
            if (sent < 0 && errno == EINTR)
                continue;
            return false;
        }
        ++stats_.packets_out;
        stats_.bytes_out += rec.size();
        return true;
    }

    static constexpr int kHelloIncomplete = -1;
    static constexpr int kHelloDead = -2;
    static constexpr int kAnyHigherRank = -1;

    // Tries to read the opening Hello record off `fd`. Returns the mapped
    // peer rank, kHelloIncomplete while bytes are pending, or kHelloDead
    // (fd closed and forgotten) on reset, stale session, rank mismatch, or
    // garbage — handshake noise is survivable, never fatal. `expect_rank`
    // pins the sender (a dial knows who it called); kAnyHigherRank accepts
    // any unmapped higher rank. With `reply`, a valid hello is answered
    // with our own (the dialer is waiting for it). Bytes after the hello
    // (the peer may already be sending) land in the peer's inbuf.
    int try_read_hello(int fd, int expect_rank, bool reply)
    {
        auto drop = [&]() {
            ::close(fd);
            hello_buf_.erase(fd);
            return kHelloDead;
        };
        auto& buf = hello_buf_[fd];
        std::uint8_t tmp[4096];
        for (;;) {
            const ssize_t got = ::recv(fd, tmp, sizeof tmp, 0);
            if (got > 0) {
                buf.insert(buf.end(), tmp, tmp + got);
                continue;
            }
            if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (got < 0 && errno == EINTR)
                continue;
            return drop();  // closed or errored before identifying itself
        }
        if (buf.size() < 4 + kPacketHeaderBytes)
            return kHelloIncomplete;
        const std::uint32_t rec_len = le32(buf.data());
        if (rec_len < kPacketHeaderBytes || rec_len > kMaxTcpRecord) {
            ++stats_.malformed;
            return drop();
        }
        if (buf.size() < 4 + rec_len)
            return kHelloIncomplete;
        PacketHeader h;
        if (parse_packet_header(buf.data() + 4, rec_len, h) != WireError::Ok ||
            h.kind != PacketKind::Hello || h.src_rank >= procs_ ||
            h.src_rank == rank_ || h.session != session_ ||
            (expect_rank >= 0 && h.src_rank != expect_rank) ||
            (expect_rank == kAnyHigherRank && h.src_rank < rank_)) {
            ++stats_.malformed;
            return drop();
        }
        const int r = h.src_rank;
        Peer& p = peers_[static_cast<std::size_t>(r)];
        if (p.fd >= 0) {
            ++stats_.malformed;  // duplicate hello for a mapped peer
            return drop();
        }
        adopt(r, fd);
        p.in.assign(buf.begin() + 4 + rec_len, buf.end());
        hello_buf_.erase(fd);
        if (reply) {
            PacketHeader hr;
            hr.kind = PacketKind::Hello;
            hr.src_rank = static_cast<std::uint16_t>(rank_);
            hr.session = session_;
            enqueue_record(p, hr, nullptr, 0);
            flush_out(p);
        }
        return r;
    }

    static std::uint32_t le32(const std::uint8_t* p)
    {
        return static_cast<std::uint32_t>(p[0]) |
               (static_cast<std::uint32_t>(p[1]) << 8) |
               (static_cast<std::uint32_t>(p[2]) << 16) |
               (static_cast<std::uint32_t>(p[3]) << 24);
    }

    void enqueue_record(Peer& p, const PacketHeader& h,
                        const std::uint8_t* frames, std::size_t len)
    {
        const std::uint32_t rec_len =
            static_cast<std::uint32_t>(kPacketHeaderBytes + len);
        p.out.push_back(static_cast<std::uint8_t>(rec_len));
        p.out.push_back(static_cast<std::uint8_t>(rec_len >> 8));
        p.out.push_back(static_cast<std::uint8_t>(rec_len >> 16));
        p.out.push_back(static_cast<std::uint8_t>(rec_len >> 24));
        append_packet_header(p.out, h);
        if (len)
            p.out.insert(p.out.end(), frames, frames + len);
        ++stats_.packets_out;
        stats_.bytes_out += 4 + rec_len;
    }

    void flush_out(Peer& p)
    {
        while (p.out_off < p.out.size()) {
            const ssize_t sent = ::send(p.fd, p.out.data() + p.out_off,
                                        p.out.size() - p.out_off, MSG_NOSIGNAL);
            if (sent > 0) {
                p.out_off += static_cast<std::size_t>(sent);
                continue;
            }
            if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return;  // pump() retries on POLLOUT
            if (sent < 0 && errno == EINTR)
                continue;
            if (shut_ && sent < 0 &&
                (errno == EPIPE || errno == ECONNRESET)) {
                // The peer already tore down; our Bye has nowhere to go.
                p.bye_seen = true;
                p.out.clear();
                p.out_off = 0;
                return;
            }
            throw_errno("send(tcp)");
        }
        p.out.clear();
        p.out_off = 0;
    }

    // One poll + read/write pass over all peer fds.
    bool pump(int timeout_ms, const PacketSink& sink)
    {
        std::vector<pollfd> pfds;
        std::vector<int> ranks;
        for (int r = 0; r < procs_; ++r) {
            if (r == rank_)
                continue;
            Peer& p = peers_[static_cast<std::size_t>(r)];
            short events = POLLIN;
            if (p.out_off < p.out.size())
                events |= POLLOUT;
            pfds.push_back(pollfd{p.fd, events, 0});
            ranks.push_back(r);
        }
        ::poll(pfds.data(), pfds.size(), timeout_ms);
        bool delivered = false;
        for (std::size_t i = 0; i < pfds.size(); ++i) {
            Peer& p = peers_[static_cast<std::size_t>(ranks[i])];
            if (pfds[i].revents & POLLOUT)
                flush_out(p);
            if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
                delivered |= read_peer(p, sink);
        }
        return delivered;
    }

    bool read_peer(Peer& p, const PacketSink& sink)
    {
        std::uint8_t tmp[65536];
        for (;;) {
            const ssize_t got = ::recv(p.fd, tmp, sizeof tmp, 0);
            if (got > 0) {
                stats_.bytes_in += static_cast<std::uint64_t>(got);
                p.in.insert(p.in.end(), tmp, tmp + got);
                continue;
            }
            if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (got < 0 && errno == EINTR)
                continue;
            if (got == 0 || errno == ECONNRESET) {
                // Orderly close, or a reset racing the peer's teardown
                // (its close can RST if our Bye sat unread in its receive
                // buffer). Either way the stream is over; the kernel hands
                // back bytes queued before the reset, so anything already
                // buffered still parses. A peer that vanished mid-run
                // surfaces as the round timeout, not a spurious errno.
                p.bye_seen = true;
                break;
            }
            throw_errno("recv(tcp)");
        }
        return parse_records(p, sink);
    }

    bool parse_records(Peer& p, const PacketSink& sink)
    {
        bool delivered = false;
        for (;;) {
            const std::size_t avail = p.in.size() - p.in_off;
            if (avail < 4)
                break;
            const std::uint32_t rec_len = le32(p.in.data() + p.in_off);
            if (rec_len < kPacketHeaderBytes || rec_len > kMaxTcpRecord) {
                // A TCP stream cannot resynchronize after a framing error;
                // this is fatal, unlike a droppable UDP datagram.
                ++stats_.malformed;
                throw std::runtime_error(
                    "socket transport: tcp stream framing error");
            }
            if (avail < 4 + rec_len)
                break;
            const std::uint8_t* rec = p.in.data() + p.in_off + 4;
            ++stats_.packets_in;
            PacketHeader h;
            if (parse_packet_header(rec, rec_len, h) != WireError::Ok ||
                h.src_rank >= procs_ || h.session != session_) {
                ++stats_.malformed;
                throw std::runtime_error(
                    "socket transport: tcp stream packet error");
            }
            if (h.kind == PacketKind::Bye) {
                p.bye_seen = true;
            } else if (h.kind == PacketKind::Frames) {
                sink(h, rec + kPacketHeaderBytes, rec_len - kPacketHeaderBytes);
                delivered = true;
            }
            p.in_off += 4 + rec_len;
        }
        if (p.in_off == p.in.size()) {
            p.in.clear();
            p.in_off = 0;
        } else if (p.in_off > (64 << 10)) {
            p.in.erase(p.in.begin(),
                       p.in.begin() + static_cast<std::ptrdiff_t>(p.in_off));
            p.in_off = 0;
        }
        return delivered;
    }

    int procs_;
    int rank_;
    std::uint64_t session_;
    int listen_fd_ = -1;
    std::vector<Peer> peers_;
    std::map<int, std::vector<std::uint8_t>> hello_buf_;
    bool shut_ = false;
};

}  // namespace

std::unique_ptr<Transport> make_transport(const SocketConfig& cfg,
                                          std::uint64_t session)
{
    if (cfg.procs < 2)
        throw std::invalid_argument("make_transport: needs procs >= 2");
    if (cfg.base_port <= 0 || cfg.base_port + cfg.procs > 65536)
        throw std::invalid_argument("make_transport: invalid base_port");
    if (cfg.transport == SocketConfig::Transport::Udp)
        return std::make_unique<UdpTransport>(cfg, session);
    return std::make_unique<TcpTransport>(cfg, session);
}

}  // namespace dmst
