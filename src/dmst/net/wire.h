#ifndef DMST_NET_WIRE_H
#define DMST_NET_WIRE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmst {

// On-wire framing of the socket backend (see docs/TRANSPORT.md for the
// byte-level tables). A packet is one transport unit — a u32-length-
// prefixed record on a TCP stream — carrying a fixed header followed by
// zero or more frames. A frame wraps one typed-codec message
// (congest/codec.h payload words travel verbatim) plus the routing fields
// the receiver needs: destination vertex, arrival port, and the logical
// round the send belongs to.
//
// Everything in this header is pure and allocation-independent: writers
// append to a caller-owned byte vector, parsers read only inside
// [data, data + len) and report WireError instead of throwing or
// asserting. This is the hardened untrusted-input path — the fuzz suite
// (tests/test_net_wire.cpp) feeds it truncated, extended, bit-flipped and
// random byte strings and requires clean rejection with zero UB.
//
// All integers are little-endian on the wire, packed and unpacked with
// explicit byte arithmetic (no struct punning, no alignment assumptions).

// ------------------------------------------------------------- constants

constexpr std::uint32_t kWireMagic = 0x54534D44u;  // "DMST" little-endian
constexpr std::uint8_t kWireVersion = 3;
constexpr std::size_t kPacketHeaderBytes = 24;
constexpr std::size_t kFrameHeaderBytes = 24;
// Structural sanity cap on one frame's payload words; the receive path
// additionally enforces the CONGEST bandwidth budget of the addressed
// link, which is far smaller.
constexpr std::uint16_t kMaxFrameWords = 4096;
// Coalescing threshold: a rank flushes its per-peer frame buffer into a
// packet once it crosses this many bytes (far under the transport's
// record bound, large enough to amortize syscalls on loopback).
constexpr std::size_t kPacketPayloadBudget = 32 * 1024;

// What a packet is, at the transport layer.
enum class PacketKind : std::uint8_t {
    Frames = 1,  // carries frame_count frames (the normal case)
    Hello = 2,   // connection identification: "I am src_rank"
    Bye = 3,     // sender finished; its stream closes next
};

// What a frame means, at the engine layer.
enum class FrameKind : std::uint8_t {
    Data = 1,     // one protocol message for (dst_vertex, port) in `round`
    Barrier = 2,  // end-of-round marker: [frames sent to you, flags, staged]
    Reduce = 3,   // allreduce contribution (round = reduce epoch): words
};

// Barrier payload layout (nwords == 3). words[1] holds the flags; a
// barrier with any other flag bit set is malformed.
constexpr std::size_t kBarrierWords = 3;
constexpr std::uint64_t kBarrierFlagDone = 1;   // bit 0: block done
constexpr std::uint64_t kBarrierFlagAwake = 2;  // bit 1: a wakeup booked

// ---------------------------------------------------------------- header

struct PacketHeader {
    PacketKind kind = PacketKind::Frames;
    std::uint16_t src_rank = 0;
    std::uint16_t frame_count = 0;
    std::uint64_t session = 0;  // network-instance id; stale sessions drop
};

// ---------------------------------------------------------------- frames

// Parsed view of one frame; `payload` points into the packet buffer and is
// only valid while that buffer lives.
struct WireFrame {
    FrameKind kind = FrameKind::Data;
    std::uint16_t nwords = 0;
    std::uint32_t tag = 0;
    std::uint64_t round = 0;
    std::uint32_t dst_vertex = 0;
    std::uint32_t port = 0;
    const std::uint8_t* payload = nullptr;  // nwords little-endian u64s

    std::uint64_t word(std::size_t i) const;  // bounds-unchecked by design
};

// ---------------------------------------------------------------- errors

enum class WireError : std::uint8_t {
    Ok = 0,
    Short,          // fewer bytes than the header/frame claims
    BadMagic,
    BadVersion,
    BadPacketKind,
    BadFrameKind,
    Oversized,      // frame payload beyond kMaxFrameWords
    TrailingBytes,  // bytes left over after the declared frame count
    FrameCountMismatch,  // payload ended before frame_count frames
};

const char* wire_error_name(WireError e);

// --------------------------------------------------------------- writers

// Appends a packet header for `h` to `buf`.
void append_packet_header(std::vector<std::uint8_t>& buf, const PacketHeader& h);

// Appends one frame (header + payload words) to `buf`.
void append_frame(std::vector<std::uint8_t>& buf, FrameKind kind,
                  std::uint32_t tag, std::uint64_t round,
                  std::uint32_t dst_vertex, std::uint32_t port,
                  const std::uint64_t* words, std::size_t nwords);

// --------------------------------------------------------------- parsers

// Parses a packet header from [data, data + len). On Ok, `payload_off` is
// kPacketHeaderBytes (the first frame byte). Performs structural checks
// only — session/rank validation is the caller's.
WireError parse_packet_header(const std::uint8_t* data, std::size_t len,
                              PacketHeader& out);

// Frame iteration state over one packet's payload.
struct FrameCursor {
    const std::uint8_t* p = nullptr;
    const std::uint8_t* end = nullptr;
    std::uint16_t remaining = 0;  // frames left per the packet header

    bool done() const { return remaining == 0; }
};

FrameCursor frame_cursor(const std::uint8_t* payload, std::size_t len,
                         const PacketHeader& h);

// Parses the next frame. Returns Ok and advances the cursor, or an error —
// after any error the cursor is dead and the rest of the packet must be
// discarded (frame boundaries can no longer be trusted). When the last
// frame has been read (cursor.done()), call finish_frames to reject
// trailing garbage.
WireError next_frame(FrameCursor& c, WireFrame& out);
WireError finish_frames(const FrameCursor& c);

}  // namespace dmst

#endif  // DMST_NET_WIRE_H
