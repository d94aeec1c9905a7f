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
#include <sstream>
#include <stdexcept>

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

// Record sanity bound: header + the largest coalesced frame run we ever
// emit, with slack. A longer length prefix means a desynced stream.
constexpr std::size_t kMaxRecord = 1 << 20;

std::uint32_t le32(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

// Appends one length-prefixed record: u32 length, packet header, frames.
void append_record(std::vector<std::uint8_t>& buf, const PacketHeader& h,
                   const std::uint8_t* frames, std::size_t len)
{
    const std::uint32_t rec_len =
        static_cast<std::uint32_t>(kPacketHeaderBytes + len);
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(rec_len >> (8 * i)));
    append_packet_header(buf, h);
    if (len)
        buf.insert(buf.end(), frames, frames + len);
}

// Handshake poll timeout, which paces redials to a rank not listening yet.
constexpr int kRedialPaceMs = 1;

constexpr int kHelloIncomplete = -1;
constexpr int kHelloDead = -2;
constexpr int kAnyHigherRank = -1;

}  // namespace

Transport::Transport(const SocketConfig& cfg, std::uint64_t session)
    : procs_(cfg.procs), rank_(cfg.rank), session_(session)
{
    if (cfg.procs < 2)
        throw std::invalid_argument("socket transport: needs procs >= 2");
    if (cfg.base_port <= 0 || cfg.base_port + cfg.procs > 65536)
        throw std::invalid_argument("socket transport: invalid base_port");
    peers_.resize(static_cast<std::size_t>(procs_));
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        throw_errno("socket");
    try {
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in self =
            make_addr(cfg.host, PeerTable::port_of(cfg.base_port, rank_));
        if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&self),
                   sizeof self) < 0)
            throw_errno("bind");
        if (::listen(listen_fd_, procs_) < 0)
            throw_errno("listen");
        set_nonblocking(listen_fd_);
        establish_mesh(cfg);
    } catch (...) {
        close_fds();  // a throwing constructor runs no destructor
        throw;
    }
}

Transport::~Transport() { close_fds(); }

void Transport::close_fds()
{
    for (Peer& p : peers_) {
        if (p.fd >= 0)
            ::close(p.fd);
        p.fd = -1;
    }
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
    listen_fd_ = -1;
}

void Transport::send_frames(int peer, const std::uint8_t* frames,
                            std::size_t len, std::uint16_t frame_count)
{
    Peer& p = peers_[static_cast<std::size_t>(peer)];
    enqueue_record(p, PacketKind::Frames, frames, len, frame_count);
    flush_out(p);
}

bool Transport::poll(int timeout_ms, const PacketSink& sink)
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

void Transport::shutdown(int linger_ms, const PacketSink& sink)
{
    if (shut_)
        return;
    shut_ = true;
    // Uncounted: the engine folded our stats into the run's before this.
    PacketHeader bye;
    bye.kind = PacketKind::Bye;
    bye.src_rank = static_cast<std::uint16_t>(rank_);
    bye.session = session_;
    for (int r = 0; r < procs_; ++r) {
        if (r != rank_)
            append_record(peers_[static_cast<std::size_t>(r)].out, bye,
                          nullptr, 0);
    }
    // Drain our outbufs AND read every peer's Bye before the fds close.
    // Closing a TCP socket with unread bytes in its receive buffer turns
    // the close into an RST, which can discard our own in-flight Bye and
    // hand the slower rank a spurious reset; waiting for the reciprocal
    // Bye keeps the teardown a pair of orderly FINs.
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

// Mesh convention: rank r initiates connections to every s < r and accepts
// from every s > r. BOTH sides open with a Hello record naming their rank
// and session, and a peer counts as connected only once the other side's
// hello arrived. One-way counting is not enough: when networks run back to
// back on the same ports, a connect() can land in the kernel backlog of the
// peer's *previous* instance's listener — the TCP handshake succeeds, then
// the connection is reset at that instance's teardown. The reciprocal hello
// proves the fd reaches a live current-session transport; anything else
// (reset, stale session, garbage) is dropped and the dial retried until the
// deadline.
void Transport::establish_mesh(const SocketConfig& cfg)
{
    const std::int64_t deadline = now_ms() + cfg.handshake_timeout_ms;
    int connected = 0;
    const int expected = procs_ - 1;
    std::map<int, int> dialing;  // peer rank -> fd awaiting its hello
    std::vector<int> unmapped;   // accepted fds whose hello is pending
    auto close_pending = [&]() {
        for (auto& [r, fd] : dialing)
            ::close(fd);
        for (int fd : unmapped)
            ::close(fd);
        hello_buf_.clear();
    };

    while (connected < expected) {
        if (now_ms() > deadline) {
            close_pending();
            throw std::runtime_error(
                "socket transport: mesh handshake timed out (are all ranks "
                "running?)");
        }
        // Dial every lower rank not yet connected or in progress, and lead
        // with our hello (blocking fd: the record always fits the send
        // buffer of a fresh connection).
        for (int r = 0; r < rank_; ++r) {
            if (peers_[static_cast<std::size_t>(r)].fd >= 0 || dialing.count(r))
                continue;
            const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (fd < 0) {
                close_pending();
                throw_errno("socket(dial)");
            }
            sockaddr_in addr =
                make_addr(cfg.host, PeerTable::port_of(cfg.base_port, r));
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
        // Read hellos off unmapped connections, answering each valid one
        // with our own hello.
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
        if (connected == expected)
            break;
        // Keep reciprocal hellos draining while we wait.
        for (Peer& p : peers_)
            if (p.fd >= 0 && p.out_off < p.out.size())
                flush_out(p);
        // Sleep until a dial is accepted or a pending hello arrives. Both
        // wake the poll, so its timeout only paces the redial of a lower
        // rank that is not listening yet; ranks start within milliseconds
        // of each other, and a longer pace shows up in every mesh's wall.
        std::vector<pollfd> pfds{pollfd{listen_fd_, POLLIN, 0}};
        for (const auto& [r, fd] : dialing)
            pfds.push_back(pollfd{fd, POLLIN, 0});
        for (int fd : unmapped)
            pfds.push_back(pollfd{fd, POLLIN, 0});
        ::poll(pfds.data(), pfds.size(), kRedialPaceMs);
    }
    // Stragglers past a complete mesh are rogue or stale: drop them.
    for (int fd : unmapped) {
        hello_buf_.erase(fd);
        ::close(fd);
    }
    // No peer dials a rank whose mesh is complete. A listener left open
    // through the run and its teardown linger would catch the next
    // network's dials on the same port and swallow their hellos; closed,
    // those dials are refused and retried against the next listener.
    ::close(listen_fd_);
    listen_fd_ = -1;
}

// Writes our Hello record to a (blocking) freshly connected fd.
bool Transport::send_hello_blocking(int fd)
{
    PacketHeader h;
    h.kind = PacketKind::Hello;
    h.src_rank = static_cast<std::uint16_t>(rank_);
    h.session = session_;
    std::vector<std::uint8_t> rec;
    append_record(rec, h, nullptr, 0);
    std::size_t off = 0;
    while (off < rec.size()) {
        const ssize_t sent =
            ::send(fd, rec.data() + off, rec.size() - off, MSG_NOSIGNAL);
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

// Tries to read the opening Hello record off `fd`. Returns the mapped peer
// rank, kHelloIncomplete while bytes are pending, or kHelloDead (fd closed
// and forgotten) on reset, stale session, rank mismatch, or garbage —
// handshake noise is survivable, never fatal. `expect_rank` pins the
// sender (a dial knows who it called); kAnyHigherRank accepts any unmapped
// higher rank. With `reply`, a valid hello is answered with our own (the
// dialer is waiting for it). Bytes after the hello (the peer may already
// be sending) land in the peer's inbuf and are counted when parsed.
int Transport::try_read_hello(int fd, int expect_rank, bool reply)
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
    if (rec_len < kPacketHeaderBytes || rec_len > kMaxRecord) {
        ++stats_.malformed;
        return drop();
    }
    if (buf.size() < 4 + rec_len)
        return kHelloIncomplete;
    ++stats_.packets_in;
    stats_.bytes_in += 4 + rec_len;
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
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    p.fd = fd;
    p.in.assign(buf.begin() + 4 + rec_len, buf.end());
    hello_buf_.erase(fd);
    if (reply) {
        enqueue_record(p, PacketKind::Hello, nullptr, 0, 0);
        flush_out(p);
    }
    return r;
}

void Transport::enqueue_record(Peer& p, PacketKind kind,
                               const std::uint8_t* frames, std::size_t len,
                               std::uint16_t frame_count)
{
    PacketHeader h;
    h.kind = kind;
    h.src_rank = static_cast<std::uint16_t>(rank_);
    h.frame_count = frame_count;
    h.session = session_;
    const std::size_t before = p.out.size();
    append_record(p.out, h, frames, len);
    ++stats_.packets_out;
    stats_.bytes_out += p.out.size() - before;
}

void Transport::flush_out(Peer& p)
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
        if (shut_ && sent < 0 && (errno == EPIPE || errno == ECONNRESET)) {
            // The peer already tore down; our Bye has nowhere to go.
            p.bye_seen = true;
            p.out.clear();
            p.out_off = 0;
            return;
        }
        throw_errno("send");
    }
    p.out.clear();
    p.out_off = 0;
}

// One poll + read/write pass over all peer fds.
bool Transport::pump(int timeout_ms, const PacketSink& sink)
{
    std::vector<pollfd> pfds;
    std::vector<int> ranks;
    for (int r = 0; r < procs_; ++r) {
        if (r == rank_)
            continue;
        const Peer& p = peers_[static_cast<std::size_t>(r)];
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
        // Records that arrived in one read with the peer's hello sit in
        // its inbuf with no POLLIN left to announce them.
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) ||
            p.in_off < p.in.size())
            delivered |= read_peer(ranks[i], sink);
    }
    return delivered;
}

bool Transport::read_peer(int rank, const PacketSink& sink)
{
    Peer& p = peers_[static_cast<std::size_t>(rank)];
    std::uint8_t tmp[65536];
    for (;;) {
        const ssize_t got = ::recv(p.fd, tmp, sizeof tmp, 0);
        if (got > 0) {
            p.in.insert(p.in.end(), tmp, tmp + got);
            continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (got < 0 && errno == EINTR)
            continue;
        if (got == 0 || errno == ECONNRESET) {
            // Orderly close, or a reset racing the peer's teardown (its
            // close can RST if our Bye sat unread in its receive buffer).
            // Either way the stream is over; the kernel hands back bytes
            // queued before the reset, so anything already buffered still
            // parses. A peer that vanished mid-run surfaces as the round
            // timeout, not a spurious errno.
            p.bye_seen = true;
            break;
        }
        throw_errno("recv");
    }
    return parse_records(rank, sink);
}

bool Transport::parse_records(int rank, const PacketSink& sink)
{
    Peer& p = peers_[static_cast<std::size_t>(rank)];
    // A stream cannot resynchronize after a framing or header error, so
    // both are fatal: fail fast, naming the peer and the error.
    auto fail = [&](const std::string& what) {
        ++stats_.malformed;
        std::ostringstream oss;
        oss << "socket transport: stream from rank " << rank << ": " << what;
        throw std::runtime_error(oss.str());
    };
    bool delivered = false;
    for (;;) {
        const std::size_t avail = p.in.size() - p.in_off;
        if (avail < 4)
            break;
        const std::uint32_t rec_len = le32(p.in.data() + p.in_off);
        if (rec_len < kPacketHeaderBytes || rec_len > kMaxRecord)
            fail("framing error (record length " + std::to_string(rec_len) +
                 ")");
        if (avail < 4 + rec_len)
            break;
        const std::uint8_t* rec = p.in.data() + p.in_off + 4;
        PacketHeader h;
        const WireError e = parse_packet_header(rec, rec_len, h);
        if (e != WireError::Ok)
            fail(std::string("packet error (") + wire_error_name(e) + ")");
        if (h.src_rank != rank || h.session != session_)
            fail("packet error (wrong rank or session)");
        if (h.kind == PacketKind::Bye) {
            p.bye_seen = true;  // uncounted, as on the sending side
        } else {
            ++stats_.packets_in;
            stats_.bytes_in += 4 + rec_len;
        }
        if (h.kind == PacketKind::Frames) {
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

}  // namespace dmst
