// Loopback end-to-end checks of the socket backend. Three parts:
//
//  - TcpHardening: a real rank 0 Transport (explicit session — the
//    SocketNetwork session counter is per process) against raw sockets
//    playing the other ranks. Handshake noise (garbage, stale-session,
//    duplicate-rank and wrong-kind hellos) is dropped and counted while
//    the mesh completes; corruption after the handshake makes poll()
//    throw, naming the framing or header error.
//
//  - TcpAccounting: two real Transports in one process; each side's
//    packets_out/bytes_out equal the other side's packets_in/bytes_in.
//
//  - SocketParity: fork() one child per rank, each running a real driver
//    with Engine::Socket over 127.0.0.1, across procs {2, 4, 8}. The
//    per-rank owned slices (PeerTable owner of the
//    min-endpoint) must partition the serial oracle's MST exactly, the
//    sender-charged counters must sum to the serial run's, and every rank
//    must report the serial round count — the same merge contract
//    scripts/parity_diff.py enforces on launcher JSONL. BackToBack runs
//    several networks in a row on the same ports: every packet a rank
//    counts out of each network is counted in by a peer of that network.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/driver_harness.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/sync_boruvka.h"
#include "dmst/graph/generators.h"
#include "dmst/net/peer_table.h"
#include "dmst/net/transport.h"
#include "dmst/net/wire.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/util/assert.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// ------------------------------------------------------------ port probe

bool port_is_free(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    const int rc =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::close(fd);
    return rc == 0;
}

int pick_base_port(int procs)
{
    int start = 30000 + static_cast<int>(::getpid()) % 8192;
    for (int attempt = 0; attempt < 256; ++attempt) {
        int base = start + attempt * procs;
        if (base + procs >= 65536)
            break;
        bool ok = true;
        for (int r = 0; r < procs && ok; ++r)
            ok = port_is_free(base + r);
        if (ok)
            return base;
    }
    return -1;
}

// ------------------------------------------------------- raw-socket peers

constexpr int kIoTimeoutMs = 5000;

SocketConfig rank_config(int procs, int rank, int base)
{
    SocketConfig c;
    c.procs = procs;
    c.rank = rank;
    c.base_port = base;
    c.handshake_timeout_ms = kIoTimeoutMs;
    return c;
}

// One length-prefixed record as a rank writes it on the stream.
std::vector<std::uint8_t> record(PacketKind kind, int src_rank,
                                 std::uint64_t session,
                                 const std::vector<std::uint8_t>& frames = {},
                                 std::uint16_t frame_count = 0)
{
    const auto len =
        static_cast<std::uint32_t>(kPacketHeaderBytes + frames.size());
    std::vector<std::uint8_t> rec;
    for (int i = 0; i < 4; ++i)
        rec.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    PacketHeader h;
    h.kind = kind;
    h.src_rank = static_cast<std::uint16_t>(src_rank);
    h.frame_count = frame_count;
    h.session = session;
    append_packet_header(rec, h);
    rec.insert(rec.end(), frames.begin(), frames.end());
    return rec;
}

// A Frames record carrying one Data frame with words {i, ~i}.
std::vector<std::uint8_t> data_frame(std::uint64_t i)
{
    std::vector<std::uint8_t> frame;
    const std::uint64_t words[2] = {i, ~i};
    append_frame(frame, FrameKind::Data, 7, i, 1, 0, words, 2);
    return frame;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes)
{
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
}

// Blocking connect to a loopback port, retried while nothing listens yet.
int dial(int port)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kIoTimeoutMs);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    while (std::chrono::steady_clock::now() < deadline) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return -1;
}

// Reads up to `want` bytes within kIoTimeoutMs. Returns the bytes read:
// fewer than `want` means the peer closed, errored or stayed silent.
std::vector<std::uint8_t> read_some(int fd, std::size_t want)
{
    std::vector<std::uint8_t> got;
    while (got.size() < want) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, kIoTimeoutMs) <= 0)
            break;
        std::uint8_t buf[256];
        const ssize_t n = ::recv(fd, buf, std::min(sizeof buf, want - got.size()), 0);
        if (n <= 0)
            break;
        got.insert(got.end(), buf, buf + n);
    }
    return got;
}

// Plays rank `rank` against a real rank 0 listening at `base`: dials,
// sends a valid hello (with `after` in the same write) and reads rank 0's
// reciprocal hello, which rank 0 writes only after mapping us. Returns
// the connected fd.
int join_as(int base, int rank, std::uint64_t session,
            const std::vector<std::uint8_t>& after = {})
{
    const int fd = dial(base);
    EXPECT_GE(fd, 0) << "rank 0 never listened";
    if (fd < 0)
        return -1;
    std::vector<std::uint8_t> hello = record(PacketKind::Hello, rank, session);
    hello.insert(hello.end(), after.begin(), after.end());
    send_all(fd, hello);
    const std::vector<std::uint8_t> reply = read_some(fd, 4 + kPacketHeaderBytes);
    PacketHeader h;
    EXPECT_EQ(reply.size(), 4 + kPacketHeaderBytes) << "no reciprocal hello";
    if (reply.size() == 4 + kPacketHeaderBytes) {
        EXPECT_EQ(parse_packet_header(reply.data() + 4, kPacketHeaderBytes, h),
                  WireError::Ok);
        EXPECT_EQ(h.kind, PacketKind::Hello);
        EXPECT_EQ(h.src_rank, 0);
    }
    return fd;
}

// Rank 0 constructed on its own thread (construction blocks until the mesh
// is complete) while the test plays the other ranks.
class Rank0 {
public:
    Rank0(int procs, int base, std::uint64_t session)
        : thread_([this, procs, base, session] {
              try {
                  transport_ = std::make_unique<Transport>(
                      rank_config(procs, 0, base), session);
              } catch (...) {
                  error_ = std::current_exception();
              }
          })
    {
    }
    ~Rank0()
    {
        if (thread_.joinable())
            thread_.join();
    }
    Rank0(const Rank0&) = delete;
    Rank0& operator=(const Rank0&) = delete;

    // Waits for the mesh; rethrows a construction failure.
    Transport& join()
    {
        thread_.join();
        if (error_)
            std::rethrow_exception(error_);
        return *transport_;
    }

private:
    std::unique_ptr<Transport> transport_;
    std::exception_ptr error_;
    std::thread thread_;  // last: starts once the members above exist
};

using Delivery = std::pair<int, std::uint64_t>;  // (source rank, word 0)

Transport::PacketSink collect(std::vector<Delivery>& out)
{
    return [&out](const PacketHeader& h, const std::uint8_t* bytes,
                  std::size_t len) {
        FrameCursor c = frame_cursor(bytes, len, h);
        WireFrame f;
        while (!c.done()) {
            ASSERT_EQ(next_frame(c, f), WireError::Ok);
            ASSERT_EQ(f.nwords, 2);
            EXPECT_EQ(f.word(1), ~f.word(0)) << "payload corrupted";
            out.emplace_back(h.src_rank, f.word(0));
        }
        EXPECT_EQ(finish_frames(c), WireError::Ok);
    };
}

// --------------------------------------------------------- TCP hardening

// Rogue connections to rank 0's listener while it still awaits rank 2:
// each is dropped (rank 0 closes it, which the rogue observes) and counted
// in `malformed`; the mesh still completes and valid traffic from both
// real peers arrives in order.
TEST(TcpHardening, HandshakeNoiseIsDroppedAndCounted)
{
    const int base = pick_base_port(3);
    ASSERT_GT(base, 0) << "no free loopback port block";
    const std::uint64_t session = 99;
    Rank0 rank0(3, base, session);
    const int fd1 = join_as(base, 1, session);
    ASSERT_GE(fd1, 0);

    std::vector<std::uint8_t> garbage = record(PacketKind::Hello, 2, session);
    garbage[4] ^= 0xFF;  // magic
    std::vector<std::uint8_t> oversized(4 + kPacketHeaderBytes, 0xFF);
    const std::vector<std::vector<std::uint8_t>> rogues = {
        garbage,
        oversized,                                      // length prefix
        record(PacketKind::Hello, 2, session + 1),      // stale session
        record(PacketKind::Hello, 1, session),          // duplicate rank 1
        record(PacketKind::Frames, 2, session),         // not a hello
    };
    for (std::size_t i = 0; i < rogues.size(); ++i) {
        const int fd = dial(base);
        ASSERT_GE(fd, 0);
        send_all(fd, rogues[i]);
        EXPECT_TRUE(read_some(fd, 1).empty())
            << "rogue " << i << " was not dropped";
        ::close(fd);
    }

    const int fd2 = join_as(base, 2, session);
    ASSERT_GE(fd2, 0);
    Transport& t0 = rank0.join();
    EXPECT_EQ(t0.stats().malformed, rogues.size());

    const std::uint64_t k = 20;
    for (std::uint64_t i = 0; i < k; ++i) {
        send_all(fd1, record(PacketKind::Frames, 1, session, data_frame(i), 1));
        send_all(fd2, record(PacketKind::Frames, 2, session,
                             data_frame(1000 + i), 1));
    }
    std::vector<Delivery> got;
    const Transport::PacketSink sink = collect(got);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kIoTimeoutMs);
    while (got.size() < 2 * k && std::chrono::steady_clock::now() < deadline)
        t0.poll(5, sink);
    ASSERT_EQ(got.size(), 2 * k);
    std::uint64_t next1 = 0, next2 = 1000;
    for (const auto& [src, word] : got)
        EXPECT_EQ(word, src == 1 ? next1++ : next2++) << "from rank " << src;
    EXPECT_EQ(t0.stats().malformed, rogues.size());
    ::close(fd1);
    ::close(fd2);
}

// After a valid hello, a stream that breaks framing or header validation
// cannot be resynchronized: rank 0's poll must throw, naming the error.
TEST(TcpHardening, PostMeshCorruptionFailsFast)
{
    std::vector<std::uint8_t> bad_magic = record(PacketKind::Frames, 1, 99);
    bad_magic[4] ^= 0xFF;
    std::vector<std::uint8_t> bad_version = record(PacketKind::Frames, 1, 99);
    bad_version[4 + 4] = kWireVersion + 1;
    const std::vector<std::pair<std::vector<std::uint8_t>, const char*>> cases = {
        {{3, 0, 0, 0}, "framing error (record length 3)"},
        {{0xFF, 0xFF, 0xFF, 0xFF}, "framing error (record length 4294967295)"},
        {bad_magic, "packet error (bad-magic)"},
        {bad_version, "packet error (bad-version)"},
        {record(PacketKind::Frames, 1, 98), "wrong rank or session"},
    };
    for (const auto& [bytes, diagnostic] : cases) {
        const int base = pick_base_port(2);
        ASSERT_GT(base, 0) << "no free loopback port block";
        Rank0 rank0(2, base, 99);
        const int fd = join_as(base, 1, 99);
        ASSERT_GE(fd, 0);
        Transport& t0 = rank0.join();
        send_all(fd, bytes);
        std::vector<Delivery> got;
        try {
            t0.poll(kIoTimeoutMs, collect(got));
            ADD_FAILURE() << "no error for: " << diagnostic;
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("stream from rank 1"), std::string::npos) << what;
            EXPECT_NE(what.find(diagnostic), std::string::npos) << what;
        }
        EXPECT_EQ(t0.stats().malformed, 1u) << diagnostic;
        EXPECT_TRUE(got.empty());
        ::close(fd);
    }
}

// Records written in one segment with the hello are read together with it
// during the handshake; poll() must deliver them without waiting for more
// bytes (no POLLIN will ever announce them).
TEST(TcpHardening, RecordsBehindTheHelloAreDelivered)
{
    const int base = pick_base_port(2);
    ASSERT_GT(base, 0) << "no free loopback port block";
    Rank0 rank0(2, base, 99);
    const int fd = join_as(base, 1, 99,
                           record(PacketKind::Frames, 1, 99, data_frame(5), 1));
    ASSERT_GE(fd, 0);
    Transport& t0 = rank0.join();
    std::vector<Delivery> got;
    EXPECT_TRUE(t0.poll(kIoTimeoutMs, collect(got)));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], Delivery(1, 5));
    ::close(fd);
}

// Binds and listens on a loopback port, playing a rank whose higher
// ranks dial it.
int listen_on(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 4) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

// Done after its first activation; never sends.
class OneRoundProcess : public Process {
public:
    void on_round(Context&) override { done_ = true; }
    bool done() const override { return done_; }

private:
    bool done_ = false;
};

// A barrier whose flags word carries a bit other than Done and Awake is
// forged or corrupt: the real rank 1 drops and counts it, then completes
// its round on the valid barrier that follows.
TEST(TcpHardening, BarrierWithUnknownFlagIsDroppedAndCounted)
{
    const int base = pick_base_port(2);
    ASSERT_GT(base, 0) << "no free loopback port block";
    const int listener = listen_on(base);
    ASSERT_GE(listener, 0);

    Rng rng(781);
    const WeightedGraph g = gen_path(4, rng);
    RunStats stats;
    std::string error;
    std::thread rank1([&] {
        try {
            NetConfig config;
            config.engine = Engine::Socket;
            config.socket = rank_config(2, 1, base);
            config.socket.round_timeout_ms = kIoTimeoutMs;
            auto net = make_network(g, config);
            net->init([](VertexId) { return std::make_unique<OneRoundProcess>(); });
            stats = net->run();
        } catch (const std::exception& e) {
            error = e.what();
        }
    });
    // A failed assertion below returns early; rank 1 then gives up at its
    // handshake or round timeout and is joined here.
    struct Joiner {
        std::thread& t;
        ~Joiner()
        {
            if (t.joinable())
                t.join();
        }
    } join_rank1{rank1};

    // Rank 1 dials and leads with its hello, which names the session.
    const int fd = ::accept(listener, nullptr, nullptr);
    ::close(listener);
    ASSERT_GE(fd, 0);
    const std::vector<std::uint8_t> hello = read_some(fd, 4 + kPacketHeaderBytes);
    ASSERT_EQ(hello.size(), 4 + kPacketHeaderBytes);
    PacketHeader h;
    ASSERT_EQ(parse_packet_header(hello.data() + 4, kPacketHeaderBytes, h),
              WireError::Ok);
    send_all(fd, record(PacketKind::Hello, 0, h.session));

    // Rank 0's side of the run: "not done" at the opening quiescence
    // probe (a reduce), a forged round-1 barrier (taken, it would keep
    // rank 1 waiting for a round 2), then the valid one, done at the
    // closing probe, and goodbye.
    auto frame = [](FrameKind kind, std::uint64_t round,
                    std::vector<std::uint64_t> words) {
        std::vector<std::uint8_t> f;
        append_frame(f, kind, 0, round, 0, 0, words.data(), words.size());
        return f;
    };
    const std::uint64_t unknown_flag = 4;
    for (const auto& f :
         {frame(FrameKind::Reduce, 1, {1}),
          frame(FrameKind::Barrier, 1, {0, unknown_flag, 0}),
          frame(FrameKind::Barrier, 1, {0, kBarrierFlagDone, 0}),
          frame(FrameKind::Reduce, 2, {0})})
        send_all(fd, record(PacketKind::Frames, 0, h.session, f, 1));
    send_all(fd, record(PacketKind::Bye, 0, h.session));

    rank1.join();
    ::close(fd);
    ASSERT_EQ(error, "");
    EXPECT_EQ(stats.rounds, 1u);
    EXPECT_EQ(stats.activations, 2u);  // rank 1 hosts vertices 2 and 3
    EXPECT_EQ(stats.malformed_frames, 1u);
}

// ------------------------------------------------------- packet accounting

// Every record and byte one rank writes is counted by the other when read,
// the two hellos that open the connection included.
TEST(TcpAccounting, OutCountersMatchPeerInCounters)
{
    const int base = pick_base_port(2);
    ASSERT_GT(base, 0) << "no free loopback port block";
    const std::uint64_t session = 7;
    Rank0 rank0(2, base, session);
    Transport t1(rank_config(2, 1, base), session);
    Transport& t0 = rank0.join();

    const std::uint64_t k = 25;
    for (std::uint64_t i = 0; i < k; ++i) {
        const std::vector<std::uint8_t> a = data_frame(i);
        const std::vector<std::uint8_t> b = data_frame(500 + i);
        t0.send_frames(1, a.data(), a.size(), 1);
        t1.send_frames(0, b.data(), b.size(), 1);
    }
    std::vector<Delivery> got0, got1;
    const Transport::PacketSink sink0 = collect(got0);
    const Transport::PacketSink sink1 = collect(got1);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kIoTimeoutMs);
    while ((got0.size() < k || got1.size() < k) &&
           std::chrono::steady_clock::now() < deadline) {
        t0.poll(5, sink0);
        t1.poll(5, sink1);
    }
    ASSERT_EQ(got0.size(), k);
    ASSERT_EQ(got1.size(), k);

    EXPECT_EQ(t0.stats().packets_out, k + 1);  // the frames and one hello
    EXPECT_EQ(t0.stats().packets_out, t1.stats().packets_in);
    EXPECT_EQ(t0.stats().bytes_out, t1.stats().bytes_in);
    EXPECT_EQ(t1.stats().packets_out, t0.stats().packets_in);
    EXPECT_EQ(t1.stats().bytes_out, t0.stats().bytes_in);
}

// -------------------------------------------------------- fork-based parity

struct RankReport {
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    std::uint64_t activations = 0;
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

// A driver run on one engine: run(g, engine, socket) configures the
// driver's Options for `engine` (and `socket`, on Engine::Socket) and
// returns its result.
template <class Options, class Result>
auto on_engine(Result (*driver)(const WeightedGraph&, const Options&))
{
    return [driver](const WeightedGraph& g, Engine engine,
                    const SocketConfig& socket) {
        Options opts;
        opts.engine = engine;
        opts.socket = socket;
        return driver(g, opts);
    };
}

// Whether vertex v, which this rank does not host, kept the remote-vertex
// defaults: no MST ports and, on forest results, parent port kNoPort.
template <class Result>
bool keeps_remote_defaults(const Result& r, VertexId v)
{
    if (!r.mst_ports[v].empty())
        return false;
    if constexpr (harness_detail::kHasForest<Result>)
        return r.parent_port[v] == kNoPort;
    return true;
}

// A forked rank's error exit: names the error on stderr (the test log),
// then exits 3 without running the parent's atexit handlers.
[[noreturn]] void rank_failed(int rank, const char* what)
{
    std::fprintf(stderr, "rank %d: %s\n", rank, what);
    ::_exit(3);
}

// Child body: run the driver over the socket engine as `rank`, report the
// owned slice through `fd`. Never returns; exits 5 if a vertex of another
// rank left the remote-vertex defaults.
template <class Run>
[[noreturn]] void child_main(const WeightedGraph& g, int procs, int rank,
                             int base_port, int fd, const Run& run)
{
    try {
        SocketConfig socket;
        socket.procs = procs;
        socket.rank = rank;
        socket.base_port = base_port;
        const auto r = run(g, Engine::Socket, socket);

        PeerTable table(g.vertex_count(), procs);
        for (VertexId v = 0; v < g.vertex_count(); ++v)
            if (table.owner(v) != rank && !keeps_remote_defaults(r, v))
                ::_exit(5);
        RankReport rep;
        for (EdgeId e : collect_claimed_edges(g, r.mst_ports)) {
            const Edge& ed = g.edge(e);
            if (table.owner(std::min(ed.u, ed.v)) != rank)
                continue;
            rep.owned.push_back(e);
            rep.owned_weight += ed.w;
        }
        std::vector<std::uint64_t> out = {
            r.stats.rounds,      r.stats.messages, r.stats.words,
            r.stats.activations, rep.owned_weight, rep.owned.size()};
        for (EdgeId e : rep.owned)
            out.push_back(e);
        write_all(fd, out.data(), out.size() * sizeof(std::uint64_t));
        ::close(fd);
        ::_exit(0);
    } catch (const std::exception& e) {
        rank_failed(rank, e.what());
    } catch (...) {
        rank_failed(rank, "unknown exception");
    }
}

// Reads `fd` to EOF; false on a read error.
bool read_all(int fd, std::vector<std::uint8_t>& raw)
{
    std::uint8_t buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0)
            return false;
        if (n == 0)
            return true;
        raw.insert(raw.end(), buf, buf + n);
    }
}

bool read_report(int fd, RankReport& rep)
{
    std::vector<std::uint8_t> raw;
    if (!read_all(fd, raw))
        return false;
    constexpr std::size_t kFixed = 6;
    if (raw.size() < kFixed * sizeof(std::uint64_t) ||
        raw.size() % sizeof(std::uint64_t) != 0)
        return false;
    const std::uint64_t* w = reinterpret_cast<const std::uint64_t*>(raw.data());
    rep.rounds = w[0];
    rep.messages = w[1];
    rep.words = w[2];
    rep.activations = w[3];
    rep.owned_weight = w[4];
    const std::uint64_t count = w[5];
    if (raw.size() != (kFixed + count) * sizeof(std::uint64_t))
        return false;
    for (std::uint64_t i = 0; i < count; ++i)
        rep.owned.push_back(static_cast<EdgeId>(w[kFixed + i]));
    return true;
}

// Forks one child per rank running child(rank, fd), which reports through
// the pipe `fd` and never returns. Fills each rank's pid and the read end
// of its pipe.
template <class Child>
void fork_ranks(int procs, Child child, std::vector<pid_t>& pids,
                std::vector<int>& pipes)
{
    for (int r = 0; r < procs; ++r) {
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(fds[0]);
            for (int other : pipes)
                ::close(other);
            child(r, fds[1]);
        }
        ::close(fds[1]);
        pids.push_back(pid);
        pipes.push_back(fds[0]);
    }
}

// Launches `run` on g over `procs` forked socket ranks and checks the merge
// contract against its serial run: every rank's rounds equal serial's, the
// ranks' messages, words and activations sum to serial's (activations
// too: each rank steps its block through the serial engine's sleep lane),
// and the owned slices partition Kruskal's MST.
template <class Run>
void run_parity_launch(int procs, const WeightedGraph& g, const Run& run)
{
    const auto serial = run(g, Engine::Serial, SocketConfig{});
    const MstResult oracle = mst_kruskal(g);

    const int base = pick_base_port(procs);
    ASSERT_GT(base, 0) << "no free loopback port block";

    std::vector<pid_t> pids;
    std::vector<int> pipes;
    ASSERT_NO_FATAL_FAILURE(fork_ranks(
        procs,
        [&](int r, int fd) { child_main(g, procs, r, base, fd, run); },
        pids, pipes));

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
    std::uint64_t sum_messages = 0, sum_words = 0, sum_activations = 0;
    Weight sum_weight = 0;
    std::set<EdgeId> merged;
    std::size_t total_owned = 0;
    for (int r = 0; r < procs; ++r) {
        const RankReport& rep = reports[static_cast<std::size_t>(r)];
        EXPECT_EQ(rep.rounds, serial.stats.rounds) << "rank " << r;
        sum_messages += rep.messages;
        sum_words += rep.words;
        sum_activations += rep.activations;
        sum_weight += rep.owned_weight;
        merged.insert(rep.owned.begin(), rep.owned.end());
        total_owned += rep.owned.size();
    }
    EXPECT_EQ(sum_messages, serial.stats.messages);
    EXPECT_EQ(sum_words, serial.stats.words);
    EXPECT_EQ(sum_activations, serial.stats.activations);
    EXPECT_EQ(sum_weight, oracle.total_weight);
    EXPECT_EQ(total_owned, merged.size()) << "owned slices overlap";
    const std::set<EdgeId> expect(oracle.edges.begin(), oracle.edges.end());
    EXPECT_EQ(merged, expect);
}

void run_boruvka_launch(int procs, std::size_t n, std::size_t m)
{
    Rng rng(777);
    run_parity_launch(procs, gen_erdos_renyi(n, m, rng),
                      on_engine(run_sync_boruvka));
}

// Elkin's phases (the Controlled-GHS timetable, the pipelined upcast)
// leave most vertices asleep in most rounds.
void run_elkin_launch(int procs)
{
    Rng rng(779);
    run_parity_launch(procs, gen_erdos_renyi(64, 160, rng),
                      on_engine(run_elkin_mst));
}

// Child body: run boruvka over the socket engine `kNetworks` times in a
// row on the same ports and write each run's (net_packets_out,
// net_packets_in) through `fd`. Never returns.
constexpr int kNetworks = 4;

[[noreturn]] void child_back_to_back(const WeightedGraph& g, int procs,
                                     int rank, int base_port, int fd)
{
    try {
        SocketConfig socket;
        socket.procs = procs;
        socket.rank = rank;
        socket.base_port = base_port;
        std::vector<std::uint64_t> out;
        for (int i = 0; i < kNetworks; ++i) {
            const auto r =
                on_engine(run_sync_boruvka)(g, Engine::Socket, socket);
            out.push_back(r.stats.net_packets_out);
            out.push_back(r.stats.net_packets_in);
        }
        write_all(fd, out.data(), out.size() * sizeof(std::uint64_t));
        ::close(fd);
        ::_exit(0);
    } catch (const std::exception& e) {
        rank_failed(rank, e.what());
    } catch (...) {
        rank_failed(rank, "unknown exception");
    }
}

// A rank that lingers in one network's teardown must not leave a listener
// behind for a faster rank's next-network dial to land in: such a dial's
// hello is counted out but never read. Summed over the ranks, each
// network's packets out equal its packets in.
TEST(SocketParity, BackToBackNetworksBalancePackets)
{
    constexpr int procs = 8;
    Rng rng(778);
    const WeightedGraph g = gen_erdos_renyi(32, 64, rng);
    const int base = pick_base_port(procs);
    ASSERT_GT(base, 0) << "no free loopback port block";

    std::vector<pid_t> pids;
    std::vector<int> pipes;
    ASSERT_NO_FATAL_FAILURE(fork_ranks(
        procs,
        [&](int r, int fd) { child_back_to_back(g, procs, r, base, fd); },
        pids, pipes));

    std::vector<std::uint64_t> out(kNetworks, 0), in(kNetworks, 0);
    for (int r = 0; r < procs; ++r) {
        const int fd = pipes[static_cast<std::size_t>(r)];
        std::vector<std::uint8_t> raw;
        const bool read_ok = read_all(fd, raw);
        ::close(fd);
        int status = 0;
        ASSERT_EQ(::waitpid(pids[static_cast<std::size_t>(r)], &status, 0),
                  pids[static_cast<std::size_t>(r)]);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "rank " << r << " failed (status " << status << ")";
        ASSERT_TRUE(read_ok && raw.size() == 2 * kNetworks * sizeof(std::uint64_t))
            << "rank " << r << " wrote a short report";
        std::uint64_t rep[2 * kNetworks];
        std::memcpy(rep, raw.data(), sizeof rep);
        for (int i = 0; i < kNetworks; ++i) {
            out[static_cast<std::size_t>(i)] += rep[2 * i];
            in[static_cast<std::size_t>(i)] += rep[2 * i + 1];
        }
    }
    for (int i = 0; i < kNetworks; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)],
                  in[static_cast<std::size_t>(i)])
            << "network " << i;
}

TEST(SocketParity, Tcp2) { run_boruvka_launch(2, 48, 112); }
TEST(SocketParity, Tcp4) { run_boruvka_launch(4, 48, 112); }
TEST(SocketParity, Tcp8) { run_boruvka_launch(8, 64, 160); }
TEST(SocketParity, SleepingElkin2) { run_elkin_launch(2); }
TEST(SocketParity, SleepingElkin4) { run_elkin_launch(4); }

// Controlled-GHS sleeps between the stages of its timetable. Its result is
// a forest, so the ranks also keep the remote parent-port default; k = 2n
// leaves at most 2n/k = 1 fragment, the MST.
TEST(SocketParity, SleepingControlledGhs3)
{
    Rng rng(780);
    const WeightedGraph g = gen_grid(6, 8, rng);
    run_parity_launch(3, g,
                      [](const WeightedGraph& graph, Engine engine,
                         const SocketConfig& socket) {
                          GhsOptions opts;
                          opts.engine = engine;
                          opts.socket = socket;
                          opts.k = 2 * graph.vertex_count();
                          return run_controlled_ghs(graph, opts);
                      });
}

// Never done, never mailed, asleep for good after its first round.
class SleeperProcess : public Process {
public:
    void on_round(Context&) override {}
    bool done() const override { return false; }
    std::uint64_t next_wakeup(const Context&) const override { return kNever; }
};

// Child body: run sleepers as `rank` and write what run() threw through
// `fd`. Exits 0 on an InvariantViolation, 3 on any other exception, 4 if
// run() returned.
[[noreturn]] void child_deadlock(const WeightedGraph& g, int procs, int rank,
                                 int base_port, int fd)
{
    std::string what;
    int code = 4;
    try {
        NetConfig config;
        config.engine = Engine::Socket;
        config.max_rounds = 1000;
        config.socket.procs = procs;
        config.socket.rank = rank;
        config.socket.base_port = base_port;
        auto net = make_network(g, config);
        net->init([](VertexId) { return std::make_unique<SleeperProcess>(); });
        net->run();
    } catch (const InvariantViolation& e) {
        what = e.what();
        code = 0;
    } catch (const std::exception& e) {
        what = e.what();
        code = 3;
    }
    write_all(fd, what.data(), what.size());
    ::close(fd);
    ::_exit(code);
}

// The serial engine throws at once on a sleep deadlock; so must every
// rank, from the barrier flags alone — not at max_rounds, and not at the
// round timeout.
TEST(SocketParity, SleepDeadlockFailsFastOnEveryRank)
{
    constexpr int procs = 2;
    Rng rng(782);
    const WeightedGraph g = gen_path(6, rng);
    const int base = pick_base_port(procs);
    ASSERT_GT(base, 0) << "no free loopback port block";

    const auto start = std::chrono::steady_clock::now();
    std::vector<pid_t> pids;
    std::vector<int> pipes;
    ASSERT_NO_FATAL_FAILURE(fork_ranks(
        procs,
        [&](int r, int fd) { child_deadlock(g, procs, r, base, fd); },
        pids, pipes));
    for (int r = 0; r < procs; ++r) {
        const int fd = pipes[static_cast<std::size_t>(r)];
        std::vector<std::uint8_t> raw;
        const bool read_ok = read_all(fd, raw);
        ::close(fd);
        int status = 0;
        ASSERT_EQ(::waitpid(pids[static_cast<std::size_t>(r)], &status, 0),
                  pids[static_cast<std::size_t>(r)]);
        const std::string what(raw.begin(), raw.end());
        ASSERT_TRUE(read_ok);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "rank " << r << " (status " << status << "): " << what;
        // Serial's diagnostic after round 1, naming this rank's block.
        EXPECT_NE(what.find("sleep deadlock: protocol stuck after 1 rounds"),
                  std::string::npos)
            << "rank " << r << ": " << what;
        EXPECT_NE(what.find("3 of 3 processes not done"), std::string::npos)
            << "rank " << r << ": " << what;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::milliseconds(SocketConfig{}.round_timeout_ms / 10));
}

}  // namespace
}  // namespace dmst
