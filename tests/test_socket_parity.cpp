// Loopback end-to-end checks of the socket backend. Two halves:
//
//  - UdpHardening: two UdpTransports in one process (explicit shared
//    session — SocketNetwork's per-process session counter cannot be used
//    same-process) with a rogue socket injecting garbage, truncated,
//    bit-flipped and stale-session datagrams between valid packets. Valid
//    traffic must keep flowing in order; every injected datagram must be
//    dropped-and-counted, never delivered.
//
//  - SocketParity: fork() one child per rank, each running a real driver
//    with Engine::Socket over 127.0.0.1, across procs {2, 4, 8} x
//    {udp, tcp}. The per-rank owned slices (PeerTable owner of the
//    min-endpoint) must partition the serial oracle's MST exactly, the
//    sender-charged counters must sum to the serial run's, and every rank
//    must report the serial round count — the same merge contract
//    scripts/parity_diff.py enforces on launcher JSONL.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "dmst/core/sync_boruvka.h"
#include "dmst/graph/generators.h"
#include "dmst/net/peer_table.h"
#include "dmst/net/transport.h"
#include "dmst/net/wire.h"
#include "dmst/seq/mst.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// ------------------------------------------------------------ port probe

bool port_is_free(int port)
{
    for (int type : {SOCK_DGRAM, SOCK_STREAM}) {
        int fd = ::socket(AF_INET, type, 0);
        if (fd < 0)
            return false;
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        int rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
        ::close(fd);
        if (rc != 0)
            return false;
    }
    return true;
}

int pick_base_port(int procs)
{
    int start = 30000 + static_cast<int>(::getpid()) % 8192;
    for (int attempt = 0; attempt < 256; ++attempt) {
        int base = start + attempt * (procs + 1);
        if (base + procs >= 65536)
            break;
        bool ok = true;
        for (int r = 0; r <= procs && ok; ++r)  // +1 spare for the rogue
            ok = port_is_free(base + r);
        if (ok)
            return base;
    }
    return -1;
}

// --------------------------------------------------------- UDP hardening

TEST(UdpHardening, MalformedDatagramsDropAndCount)
{
    const int base = pick_base_port(2);
    ASSERT_GT(base, 0) << "no free loopback port block";
    const std::uint64_t session = 99;
    SocketConfig c0, c1;
    c0.procs = c1.procs = 2;
    c0.base_port = c1.base_port = base;
    c0.rank = 0;
    c1.rank = 1;
    auto t0 = make_transport(c0, session);
    auto t1 = make_transport(c1, session);

    // Rogue sender aimed at rank 1's port.
    const int rogue = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(rogue, 0);
    sockaddr_in dst{};
    dst.sin_family = AF_INET;
    dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    dst.sin_port = htons(static_cast<std::uint16_t>(base + 1));
    auto inject = [&](const std::vector<std::uint8_t>& pkt) {
        ASSERT_EQ(::sendto(rogue, pkt.data(), pkt.size(), 0,
                           reinterpret_cast<sockaddr*>(&dst), sizeof dst),
                  static_cast<ssize_t>(pkt.size()));
    };

    // A valid single-frame packet rank 0 would send, for mutation.
    std::vector<std::uint8_t> frame;
    const std::uint64_t words[2] = {1, 2};
    append_frame(frame, FrameKind::Data, 7, 1, 1, 0, words, 2);

    std::vector<std::vector<std::uint64_t>> delivered;
    Transport::PacketSink sink = [&](const PacketHeader& h,
                                     const std::uint8_t* bytes,
                                     std::size_t len) {
        FrameCursor c = frame_cursor(bytes, len, h);
        WireFrame f;
        while (!c.done()) {
            ASSERT_EQ(next_frame(c, f), WireError::Ok);
            std::vector<std::uint64_t> ws;
            for (std::size_t i = 0; i < f.nwords; ++i)
                ws.push_back(f.word(i));
            delivered.push_back(std::move(ws));
        }
    };
    Transport::PacketSink drop_sink = [](const PacketHeader&,
                                         const std::uint8_t*, std::size_t) {};

    Rng rng(5);
    std::uint64_t sent = 0;
    for (int burst = 0; burst < 10; ++burst) {
        // Interleave rogue datagrams with real traffic: random bytes,
        // truncated headers, bit-flipped valid packets, stale sessions.
        std::vector<std::uint8_t> junk(rng.next() % 100);
        for (std::uint8_t& b : junk)
            b = static_cast<std::uint8_t>(rng.next());
        inject(junk);

        std::vector<std::uint8_t> valid;
        PacketHeader h;
        h.kind = PacketKind::Frames;
        h.src_rank = 0;
        h.frame_count = 1;
        h.session = session;
        h.seq = 1 + sent;  // plausible but unauthenticated
        append_packet_header(valid, h);
        valid.insert(valid.end(), frame.begin(), frame.end());
        std::vector<std::uint8_t> flipped = valid;
        flipped[2] ^= 0x10;  // magic dies -> malformed
        inject(flipped);

        std::vector<std::uint8_t> stale;
        h.session = session + 1;
        append_packet_header(stale, h);
        stale.insert(stale.end(), frame.begin(), frame.end());
        inject(stale);  // stale Frames: counted malformed

        std::vector<std::uint8_t> truncated(valid.begin(),
                                            valid.begin() + 17);
        inject(truncated);

        // Real packet through the real transport, then pump both ends.
        std::vector<std::uint8_t> payload;
        const std::uint64_t w[2] = {sent, ~sent};
        append_frame(payload, FrameKind::Data, 7, sent, 1, 0, w, 2);
        t0->send_frames(1, payload.data(), payload.size(), 1);
        ++sent;
        for (int spin = 0; spin < 200 && delivered.size() < sent; ++spin) {
            t1->poll(5, sink);
            t0->poll(0, drop_sink);  // acks flow back
        }
    }
    ASSERT_EQ(delivered.size(), sent);
    for (std::uint64_t i = 0; i < sent; ++i) {
        ASSERT_EQ(delivered[i].size(), 2u);
        EXPECT_EQ(delivered[i][0], i);      // in order, uncorrupted
        EXPECT_EQ(delivered[i][1], ~i);
    }
    // Every injected datagram was counted: 4 per burst (junk may parse as
    // Short/BadMagic, the flip as BadMagic, stale Frames as stale, the
    // truncation as Short) — all land in `malformed`.
    EXPECT_GE(t1->stats().malformed, 40u);
    // A stale-session *Bye* is the one silently tolerated straggler.
    const std::uint64_t before = t1->stats().malformed;
    std::vector<std::uint8_t> stale_bye;
    PacketHeader hb;
    hb.kind = PacketKind::Bye;
    hb.src_rank = 0;
    hb.session = session + 7;
    append_packet_header(stale_bye, hb);
    inject(stale_bye);
    t1->poll(20, drop_sink);
    EXPECT_EQ(t1->stats().malformed, before);

    ::close(rogue);
    t0->shutdown(200, drop_sink);
    t1->shutdown(200, drop_sink);
}

// -------------------------------------------------------- fork-based parity

struct RankReport {
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    Weight owned_weight = 0;
    std::vector<EdgeId> owned;
};

void write_all(int fd, const void* data, std::size_t len)
{
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n <= 0)
            ::_exit(4);
        p += n;
        len -= static_cast<std::size_t>(n);
    }
}

// Child body: run boruvka over the socket engine as `rank`, report the
// owned slice through `fd`. Never returns; exits 5 if a vertex of another
// rank reports a parent port other than kNoPort.
[[noreturn]] void child_main(const WeightedGraph& g, int procs, int rank,
                             SocketConfig::Transport transport, int base_port,
                             int fd)
{
    try {
        SyncBoruvkaOptions opts;
        opts.engine = Engine::Socket;
        opts.socket.procs = procs;
        opts.socket.rank = rank;
        opts.socket.transport = transport;
        opts.socket.base_port = base_port;
        const auto r = run_sync_boruvka(g, opts);

        PeerTable table(g.vertex_count(), procs);
        // A vertex this rank does not host keeps the remote-vertex default.
        for (VertexId v = 0; v < g.vertex_count(); ++v)
            if (table.owner(v) != rank && r.parent_port[v] != kNoPort)
                ::_exit(5);
        RankReport rep;
        rep.rounds = r.stats.rounds;
        rep.messages = r.stats.messages;
        rep.words = r.stats.words;
        for (EdgeId e : r.mst_edges) {
            const Edge& ed = g.edge(e);
            if (table.owner(std::min(ed.u, ed.v)) != rank)
                continue;
            rep.owned.push_back(e);
            rep.owned_weight += ed.w;
        }
        std::vector<std::uint64_t> out = {rep.rounds, rep.messages, rep.words,
                                          rep.owned_weight,
                                          rep.owned.size()};
        for (EdgeId e : rep.owned)
            out.push_back(e);
        write_all(fd, out.data(), out.size() * sizeof(std::uint64_t));
        ::close(fd);
        ::_exit(0);
    } catch (...) {
        ::_exit(3);
    }
}

bool read_report(int fd, RankReport& rep)
{
    std::vector<std::uint8_t> raw;
    std::uint8_t buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0)
            return false;
        if (n == 0)
            break;
        raw.insert(raw.end(), buf, buf + n);
    }
    if (raw.size() < 5 * sizeof(std::uint64_t) ||
        raw.size() % sizeof(std::uint64_t) != 0)
        return false;
    const std::uint64_t* w = reinterpret_cast<const std::uint64_t*>(raw.data());
    rep.rounds = w[0];
    rep.messages = w[1];
    rep.words = w[2];
    rep.owned_weight = w[3];
    const std::uint64_t count = w[4];
    if (raw.size() != (5 + count) * sizeof(std::uint64_t))
        return false;
    for (std::uint64_t i = 0; i < count; ++i)
        rep.owned.push_back(static_cast<EdgeId>(w[5 + i]));
    return true;
}

void run_parity_launch(int procs, SocketConfig::Transport transport,
                       std::size_t n, std::size_t m)
{
    Rng rng(777);
    const WeightedGraph g = gen_erdos_renyi(n, m, rng);
    const auto serial = run_sync_boruvka(g);
    const MstResult oracle = mst_kruskal(g);

    const int base = pick_base_port(procs);
    ASSERT_GT(base, 0) << "no free loopback port block";

    std::vector<pid_t> pids;
    std::vector<int> pipes;
    for (int r = 0; r < procs; ++r) {
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(fds[0]);
            for (int other : pipes)
                ::close(other);
            child_main(g, procs, r, transport, base, fds[1]);
        }
        ::close(fds[1]);
        pids.push_back(pid);
        pipes.push_back(fds[0]);
    }

    std::vector<RankReport> reports(static_cast<std::size_t>(procs));
    std::vector<bool> read_ok(static_cast<std::size_t>(procs));
    for (int r = 0; r < procs; ++r)
        read_ok[static_cast<std::size_t>(r)] =
            read_report(pipes[static_cast<std::size_t>(r)],
                        reports[static_cast<std::size_t>(r)]);
    for (int r = 0; r < procs; ++r) {
        ::close(pipes[static_cast<std::size_t>(r)]);
        int status = 0;
        ASSERT_EQ(::waitpid(pids[static_cast<std::size_t>(r)], &status, 0),
                  pids[static_cast<std::size_t>(r)]);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "rank " << r << " failed (status " << status << ")";
        ASSERT_TRUE(read_ok[static_cast<std::size_t>(r)])
            << "rank " << r << " wrote a short report";
    }

    // The merge contract (parity_diff.py's SOCKET_EQUAL / SOCKET_SUM).
    std::uint64_t sum_messages = 0, sum_words = 0;
    Weight sum_weight = 0;
    std::set<EdgeId> merged;
    std::size_t total_owned = 0;
    for (int r = 0; r < procs; ++r) {
        const RankReport& rep = reports[static_cast<std::size_t>(r)];
        EXPECT_EQ(rep.rounds, serial.stats.rounds) << "rank " << r;
        sum_messages += rep.messages;
        sum_words += rep.words;
        sum_weight += rep.owned_weight;
        merged.insert(rep.owned.begin(), rep.owned.end());
        total_owned += rep.owned.size();
    }
    EXPECT_EQ(sum_messages, serial.stats.messages);
    EXPECT_EQ(sum_words, serial.stats.words);
    EXPECT_EQ(sum_weight, oracle.total_weight);
    EXPECT_EQ(total_owned, merged.size()) << "owned slices overlap";
    const std::set<EdgeId> expect(oracle.edges.begin(), oracle.edges.end());
    EXPECT_EQ(merged, expect);
}

TEST(SocketParity, Udp2) { run_parity_launch(2, SocketConfig::Transport::Udp, 48, 112); }
TEST(SocketParity, Udp4) { run_parity_launch(4, SocketConfig::Transport::Udp, 48, 112); }
TEST(SocketParity, Udp8) { run_parity_launch(8, SocketConfig::Transport::Udp, 64, 160); }
TEST(SocketParity, Tcp2) { run_parity_launch(2, SocketConfig::Transport::Tcp, 48, 112); }
TEST(SocketParity, Tcp4) { run_parity_launch(4, SocketConfig::Transport::Tcp, 48, 112); }

}  // namespace
}  // namespace dmst
