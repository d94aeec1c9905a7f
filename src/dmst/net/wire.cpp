#include "dmst/net/wire.h"

namespace dmst {

// Byte-arithmetic load/store: endianness-fixed, alignment-free, and — the
// property the fuzz suite leans on — impossible to over-read as long as
// the callers bound-check the byte counts, which they do below.
namespace {

void store16(std::vector<std::uint8_t>& buf, std::uint16_t v)
{
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void store32(std::vector<std::uint8_t>& buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void store64(std::vector<std::uint8_t>& buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t load16(const std::uint8_t* p)
{
    return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t load32(const std::uint8_t* p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t{p[i]} << (8 * i);
    return v;
}

std::uint64_t load64(const std::uint8_t* p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t{p[i]} << (8 * i);
    return v;
}

// Packet header byte offsets (total kPacketHeaderBytes = 24):
//   0  u32 magic        4  u8 version      5  u8 kind
//   6  u16 src_rank     8  u16 frame_count 10 u16 reserved
//   12 u32 reserved     16 u64 session

// Frame header byte offsets (total kFrameHeaderBytes = 24):
//   0 u8 kind   1 u8 reserved   2 u16 nwords   4 u32 tag
//   8 u64 round 16 u32 dst_vertex 20 u32 port

}  // namespace

std::uint64_t WireFrame::word(std::size_t i) const
{
    return load64(payload + 8 * i);
}

const char* wire_error_name(WireError e)
{
    switch (e) {
    case WireError::Ok:
        return "ok";
    case WireError::Short:
        return "short";
    case WireError::BadMagic:
        return "bad-magic";
    case WireError::BadVersion:
        return "bad-version";
    case WireError::BadPacketKind:
        return "bad-packet-kind";
    case WireError::BadFrameKind:
        return "bad-frame-kind";
    case WireError::Oversized:
        return "oversized";
    case WireError::TrailingBytes:
        return "trailing-bytes";
    case WireError::FrameCountMismatch:
        return "frame-count-mismatch";
    }
    return "?";
}

void append_packet_header(std::vector<std::uint8_t>& buf, const PacketHeader& h)
{
    store32(buf, kWireMagic);
    buf.push_back(kWireVersion);
    buf.push_back(static_cast<std::uint8_t>(h.kind));
    store16(buf, h.src_rank);
    store16(buf, h.frame_count);
    store16(buf, 0);
    store32(buf, 0);
    store64(buf, h.session);
}

void append_frame(std::vector<std::uint8_t>& buf, FrameKind kind,
                  std::uint32_t tag, std::uint64_t round,
                  std::uint32_t dst_vertex, std::uint32_t port,
                  const std::uint64_t* words, std::size_t nwords)
{
    buf.push_back(static_cast<std::uint8_t>(kind));
    buf.push_back(0);
    store16(buf, static_cast<std::uint16_t>(nwords));
    store32(buf, tag);
    store64(buf, round);
    store32(buf, dst_vertex);
    store32(buf, port);
    for (std::size_t i = 0; i < nwords; ++i)
        store64(buf, words[i]);
}

WireError parse_packet_header(const std::uint8_t* data, std::size_t len,
                              PacketHeader& out)
{
    if (len < kPacketHeaderBytes)
        return WireError::Short;
    if (load32(data) != kWireMagic)
        return WireError::BadMagic;
    if (data[4] != kWireVersion)
        return WireError::BadVersion;
    const std::uint8_t kind = data[5];
    if (kind < static_cast<std::uint8_t>(PacketKind::Frames) ||
        kind > static_cast<std::uint8_t>(PacketKind::Bye))
        return WireError::BadPacketKind;
    out.kind = static_cast<PacketKind>(kind);
    out.src_rank = load16(data + 6);
    out.frame_count = load16(data + 8);
    out.session = load64(data + 16);
    return WireError::Ok;
}

FrameCursor frame_cursor(const std::uint8_t* payload, std::size_t len,
                         const PacketHeader& h)
{
    FrameCursor c;
    c.p = payload;
    c.end = payload + len;
    c.remaining = h.frame_count;
    return c;
}

WireError next_frame(FrameCursor& c, WireFrame& out)
{
    if (c.remaining == 0)
        return WireError::FrameCountMismatch;
    if (static_cast<std::size_t>(c.end - c.p) < kFrameHeaderBytes)
        return WireError::Short;
    const std::uint8_t kind = c.p[0];
    if (kind < static_cast<std::uint8_t>(FrameKind::Data) ||
        kind > static_cast<std::uint8_t>(FrameKind::Reduce))
        return WireError::BadFrameKind;
    out.kind = static_cast<FrameKind>(kind);
    out.nwords = load16(c.p + 2);
    if (out.nwords > kMaxFrameWords)
        return WireError::Oversized;
    out.tag = load32(c.p + 4);
    out.round = load64(c.p + 8);
    out.dst_vertex = load32(c.p + 16);
    out.port = load32(c.p + 20);
    const std::size_t need =
        kFrameHeaderBytes + 8 * static_cast<std::size_t>(out.nwords);
    if (static_cast<std::size_t>(c.end - c.p) < need)
        return WireError::Short;
    out.payload = c.p + kFrameHeaderBytes;
    c.p += need;
    --c.remaining;
    return WireError::Ok;
}

WireError finish_frames(const FrameCursor& c)
{
    if (c.remaining != 0)
        return WireError::FrameCountMismatch;
    if (c.p != c.end)
        return WireError::TrailingBytes;
    return WireError::Ok;
}

}  // namespace dmst
