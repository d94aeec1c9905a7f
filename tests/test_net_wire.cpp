// Hardened untrusted-input path of the socket backend (net/wire.h): every
// byte string — truncated, extended, bit-flipped, or fully random — must
// come back as a clean WireError, with zero out-of-bounds reads and zero
// aborts. (A well-framed payload of the wrong width is decode<P>()'s to
// reject; test_codec.cpp pins that.) The suite runs under ASan/UBSan in
// CI, which is what turns "did not crash" into "no UB". Also pins the
// PeerTable sharding contract the owned-slice parity merge
// (scripts/parity_diff.py) depends on.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "dmst/net/peer_table.h"
#include "dmst/net/wire.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// ------------------------------------------------------------ peer table

TEST(PeerTable, BlocksPartitionAndBalance)
{
    for (std::size_t n : {1u, 2u, 7u, 64u, 65u, 1000u}) {
        for (int procs : {1, 2, 3, 8, 13}) {
            PeerTable t(n, procs);
            // Blocks tile [0, n) contiguously...
            EXPECT_EQ(t.block_begin(0), 0u);
            EXPECT_EQ(t.block_end(procs - 1), n);
            for (int r = 0; r + 1 < procs; ++r)
                EXPECT_EQ(t.block_end(r), t.block_begin(r + 1));
            // ...within one vertex of even...
            const std::size_t lo = n / static_cast<std::size_t>(procs);
            for (int r = 0; r < procs; ++r) {
                const std::size_t sz = t.block_end(r) - t.block_begin(r);
                EXPECT_GE(sz, lo);
                EXPECT_LE(sz, lo + 1);
            }
            // ...and owner() agrees with the block bounds everywhere.
            for (VertexId v = 0; v < n; ++v) {
                const int r = t.owner(v);
                EXPECT_GE(v, t.block_begin(r));
                EXPECT_LT(v, t.block_end(r));
            }
        }
    }
}

TEST(PeerTable, PortOf)
{
    EXPECT_EQ(PeerTable::port_of(9000, 0), 9000);
    EXPECT_EQ(PeerTable::port_of(9000, 7), 9007);
}

// ------------------------------------------------------------- wire walk

// Full structural parse of one packet, touching every payload word so a
// bad bounds computation is an ASan hit, not a silent over-read.
WireError walk_packet(const std::uint8_t* data, std::size_t len)
{
    PacketHeader h;
    WireError e = parse_packet_header(data, len, h);
    if (e != WireError::Ok)
        return e;
    FrameCursor c =
        frame_cursor(data + kPacketHeaderBytes, len - kPacketHeaderBytes, h);
    WireFrame f;
    while (!c.done()) {
        e = next_frame(c, f);
        if (e != WireError::Ok)
            return e;
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < f.nwords; ++i)
            sink ^= f.word(i);
        (void)sink;
    }
    return finish_frames(c);
}

std::vector<std::uint8_t> sample_packet(std::uint16_t frame_count)
{
    std::vector<std::uint8_t> buf;
    PacketHeader h;
    h.kind = PacketKind::Frames;
    h.src_rank = 3;
    h.frame_count = frame_count;
    h.session = 0x1122334455667788ULL;
    append_packet_header(buf, h);
    const std::uint64_t words[3] = {7, 8, 9};
    if (frame_count >= 1)
        append_frame(buf, FrameKind::Data, 5, 12, 100, 2, words, 3);
    if (frame_count >= 2)
        append_frame(buf, FrameKind::Barrier, 0, 12, 101, 0, words,
                     kBarrierWords);
    if (frame_count >= 3)
        append_frame(buf, FrameKind::Reduce, 0, 2, 0, 0, words, 1);
    return buf;
}

TEST(Wire, HeaderRoundTrip)
{
    for (PacketKind kind :
         {PacketKind::Frames, PacketKind::Hello, PacketKind::Bye}) {
        std::vector<std::uint8_t> buf;
        PacketHeader in;
        in.kind = kind;
        in.src_rank = 65535;
        in.frame_count = 7;
        in.session = ~0ULL;
        append_packet_header(buf, in);
        ASSERT_EQ(buf.size(), kPacketHeaderBytes);
        PacketHeader out;
        ASSERT_EQ(parse_packet_header(buf.data(), buf.size(), out),
                  WireError::Ok);
        EXPECT_EQ(out.kind, in.kind);
        EXPECT_EQ(out.src_rank, in.src_rank);
        EXPECT_EQ(out.frame_count, in.frame_count);
        EXPECT_EQ(out.session, in.session);
    }
}

TEST(Wire, HeaderLayoutIsVersion3)
{
    EXPECT_EQ(kPacketHeaderBytes, 24u);
    EXPECT_EQ(kWireVersion, 3);
    std::vector<std::uint8_t> buf = sample_packet(0);
    EXPECT_EQ(buf.size(), kPacketHeaderBytes);
    EXPECT_EQ(buf[4], 3);  // version byte
    EXPECT_EQ(buf[5], static_cast<std::uint8_t>(PacketKind::Frames));
    EXPECT_EQ(buf[16], 0x88);  // session, little-endian, last field
    EXPECT_EQ(buf[23], 0x11);
}

// Re-declares the frame count of a serialized packet, keeping its bytes.
void redeclare_frame_count(std::vector<std::uint8_t>& buf,
                           std::uint16_t frame_count)
{
    PacketHeader h;
    ASSERT_EQ(parse_packet_header(buf.data(), buf.size(), h), WireError::Ok);
    h.frame_count = frame_count;
    std::vector<std::uint8_t> out;
    append_packet_header(out, h);
    out.insert(out.end(), buf.begin() + kPacketHeaderBytes, buf.end());
    buf = std::move(out);
}

TEST(Wire, HeaderRejectsEveryTruncation)
{
    std::vector<std::uint8_t> buf = sample_packet(0);
    PacketHeader out;
    for (std::size_t len = 0; len < kPacketHeaderBytes; ++len)
        EXPECT_EQ(parse_packet_header(buf.data(), len, out), WireError::Short);
}

TEST(Wire, HeaderRejectsBadFields)
{
    std::vector<std::uint8_t> buf = sample_packet(0);
    PacketHeader out;
    std::vector<std::uint8_t> bad = buf;
    bad[0] ^= 0xFF;  // magic
    EXPECT_EQ(parse_packet_header(bad.data(), bad.size(), out),
              WireError::BadMagic);
    bad = buf;
    bad[4] = kWireVersion + 1;
    EXPECT_EQ(parse_packet_header(bad.data(), bad.size(), out),
              WireError::BadVersion);
    for (int kind : {0, 4, 200}) {
        bad = buf;
        bad[5] = static_cast<std::uint8_t>(kind);
        EXPECT_EQ(parse_packet_header(bad.data(), bad.size(), out),
                  WireError::BadPacketKind);
    }
}

TEST(Wire, FrameWalkRoundTrip)
{
    std::vector<std::uint8_t> buf = sample_packet(3);
    PacketHeader h;
    ASSERT_EQ(parse_packet_header(buf.data(), buf.size(), h), WireError::Ok);
    FrameCursor c = frame_cursor(buf.data() + kPacketHeaderBytes,
                                 buf.size() - kPacketHeaderBytes, h);
    WireFrame f;
    ASSERT_EQ(next_frame(c, f), WireError::Ok);
    EXPECT_EQ(f.kind, FrameKind::Data);
    EXPECT_EQ(f.nwords, 3);
    EXPECT_EQ(f.tag, 5u);
    EXPECT_EQ(f.round, 12u);
    EXPECT_EQ(f.dst_vertex, 100u);
    EXPECT_EQ(f.port, 2u);
    EXPECT_EQ(f.word(0), 7u);
    EXPECT_EQ(f.word(2), 9u);
    ASSERT_EQ(next_frame(c, f), WireError::Ok);
    EXPECT_EQ(f.kind, FrameKind::Barrier);
    EXPECT_EQ(f.nwords, kBarrierWords);
    ASSERT_EQ(next_frame(c, f), WireError::Ok);
    EXPECT_EQ(f.kind, FrameKind::Reduce);
    EXPECT_TRUE(c.done());
    EXPECT_EQ(finish_frames(c), WireError::Ok);
}

TEST(Wire, PacketRejectsEveryTruncation)
{
    std::vector<std::uint8_t> buf = sample_packet(3);
    ASSERT_EQ(walk_packet(buf.data(), buf.size()), WireError::Ok);
    for (std::size_t len = 0; len < buf.size(); ++len)
        EXPECT_NE(walk_packet(buf.data(), len), WireError::Ok) << len;
}

TEST(Wire, RejectsTrailingBytesAndCountMismatch)
{
    std::vector<std::uint8_t> buf = sample_packet(2);
    buf.push_back(0xAB);
    EXPECT_EQ(walk_packet(buf.data(), buf.size()), WireError::TrailingBytes);

    // Declared one more frame than the payload holds.
    buf = sample_packet(2);
    redeclare_frame_count(buf, 3);
    EXPECT_EQ(walk_packet(buf.data(), buf.size()), WireError::Short);

    // Declared one fewer: the stray frame's bytes become trailing garbage.
    buf = sample_packet(2);
    redeclare_frame_count(buf, 1);
    EXPECT_EQ(walk_packet(buf.data(), buf.size()), WireError::TrailingBytes);
}

TEST(Wire, RejectsOversizedFrame)
{
    std::vector<std::uint8_t> buf = sample_packet(1);
    // nwords lives at frame offset 2 (u16 LE).
    const std::size_t off = kPacketHeaderBytes + 2;
    const std::uint16_t huge = kMaxFrameWords + 1;
    buf[off] = static_cast<std::uint8_t>(huge);
    buf[off + 1] = static_cast<std::uint8_t>(huge >> 8);
    EXPECT_EQ(walk_packet(buf.data(), buf.size()), WireError::Oversized);
}

TEST(Wire, BadFrameKindRejected)
{
    std::vector<std::uint8_t> buf = sample_packet(1);
    for (int kind : {0, 4, 250}) {
        std::vector<std::uint8_t> bad = buf;
        bad[kPacketHeaderBytes] = static_cast<std::uint8_t>(kind);
        EXPECT_EQ(walk_packet(bad.data(), bad.size()), WireError::BadFrameKind);
    }
}

TEST(Wire, SurvivesEveryBitFlip)
{
    std::vector<std::uint8_t> buf = sample_packet(3);
    for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
        buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        // Any verdict is acceptable; the walk itself must stay in bounds
        // (the sanitizer leg is the judge).
        (void)walk_packet(buf.data(), buf.size());
        buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    EXPECT_EQ(walk_packet(buf.data(), buf.size()), WireError::Ok);
}

TEST(Wire, SurvivesRandomBytes)
{
    Rng rng(2024);
    std::vector<std::uint8_t> buf;
    for (int iter = 0; iter < 20000; ++iter) {
        buf.resize(rng.next() % 160);
        for (std::uint8_t& b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        if (iter % 3 == 0 && buf.size() >= 6) {
            // Bias a third of the corpus past the magic/version gate so the
            // frame walker sees real traffic, not just BadMagic exits.
            buf[0] = 0x44; buf[1] = 0x4D; buf[2] = 0x53; buf[3] = 0x54;
            buf[4] = kWireVersion;
            buf[5] = static_cast<std::uint8_t>(1 + rng.next() % 3);
        }
        (void)walk_packet(buf.data(), buf.size());
    }
}

}  // namespace
}  // namespace dmst
