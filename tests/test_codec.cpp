// Typed codec layer (congest/codec.h): every payload struct must survive
// an encode/decode round trip bit-exactly, at its documented word count —
// the word-accounting invariant that keeps RunStats comparable across
// revisions — in a pinned word layout, and decode must reject every
// off-width message. Also covers the WordBuf inline/overflow payload
// storage that backs Message.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dmst/congest/codec.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

EdgeKey random_key(Rng& rng)
{
    return EdgeKey{rng.next(), static_cast<VertexId>(rng.next()),
                   static_cast<VertexId>(rng.next())};
}

// Encodes, checks the wire size (and that the compile-time width agrees),
// decodes, returns the round-tripped value.
template <typename P>
P round_trip(const P& payload, std::uint32_t tag, std::size_t words)
{
    Message m = encode(tag, payload);
    EXPECT_EQ(m.tag, tag);
    EXPECT_EQ(m.words.size(), words);
    EXPECT_EQ(payload_words<P>(), words);
    EXPECT_EQ(m.size_words(), words + 1);  // tag counts as one word
    return decode<P>(m);
}

TEST(Codec, EmptyMsg)
{
    round_trip(EmptyMsg{}, 7, 0);
}

TEST(Codec, ProtoPayloads)
{
    Rng rng(101);
    for (int i = 0; i < 200; ++i) {
        {
            BfsExploreMsg in{rng.next()};
            auto out = round_trip(in, 1, 1);
            EXPECT_EQ(out.depth, in.depth);
        }
        {
            BfsEchoMsg in{rng.next(), rng.next()};
            auto out = round_trip(in, 2, 2);
            EXPECT_EQ(out.subtree_size, in.subtree_size);
            EXPECT_EQ(out.height, in.height);
        }
        {
            IntervalAssignMsg in{rng.next(), rng.next()};
            auto out = round_trip(in, 3, 2);
            EXPECT_EQ(out.lo, in.lo);
            EXPECT_EQ(out.hi, in.hi);
        }
        {
            DownRecordMsg in{rng.next(),
                             {rng.next(), rng.next(), rng.next(), rng.next()}};
            auto out = round_trip(in, 4, 5);
            EXPECT_EQ(out.target, in.target);
            EXPECT_EQ(out.payload, in.payload);
        }
        {
            PipeRecordMsg in{random_key(rng), rng.next(), rng.next(), rng.next()};
            auto out = round_trip(in, 5, 5);
            EXPECT_EQ(out.key, in.key);
            EXPECT_EQ(out.group, in.group);
            EXPECT_EQ(out.group2, in.group2);
            EXPECT_EQ(out.aux, in.aux);
        }
    }
}

TEST(Codec, DriverPayloads)
{
    Rng rng(102);
    for (int i = 0; i < 200; ++i) {
        {
            PhaseOnlyMsg in{rng.next()};
            EXPECT_EQ(round_trip(in, 10, 1).phase, in.phase);
        }
        {
            FidMsg in{rng.next(), rng.next(), rng.next()};
            auto out = round_trip(in, 11, 3);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.fid, in.fid);
            EXPECT_EQ(out.vid, in.vid);
        }
        {
            PhaseFlagMsg in{rng.next(), rng.next_below(2) == 1};
            auto out = round_trip(in, 12, 2);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.value, in.value);
        }
        {
            PhaseValueMsg in{rng.next(), rng.next()};
            auto out = round_trip(in, 13, 2);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.value, in.value);
        }
        {
            ColorMsg in{rng.next(), rng.next(), rng.next()};
            auto out = round_trip(in, 14, 3);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.iter, in.iter);
            EXPECT_EQ(out.color, in.color);
        }
        {
            StepValueMsg in{rng.next(), rng.next(), rng.next()};
            auto out = round_trip(in, 15, 3);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.step, in.step);
            EXPECT_EQ(out.value, in.value);
        }
        {
            StepMsg in{rng.next(), rng.next()};
            auto out = round_trip(in, 16, 2);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.step, in.step);
        }
        {
            StatusCrossMsg in{rng.next(), rng.next(), rng.next(),
                              rng.next_below(2) == 1};
            auto out = round_trip(in, 17, 4);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.step, in.step);
            EXPECT_EQ(out.fid, in.fid);
            EXPECT_EQ(out.matched, in.matched);
        }
        {
            MwoeReportMsg in{rng.next(), random_key(rng), rng.next()};
            auto out = round_trip(in, 18, 4);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.key, in.key);
            EXPECT_EQ(out.height, in.height);
        }
        {
            EdgeReportMsg in{rng.next(), random_key(rng)};
            auto out = round_trip(in, 19, 3);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.key, in.key);
        }
        {
            FragReportMsg in{rng.next(), random_key(rng), rng.next()};
            auto out = round_trip(in, 20, 4);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.key, in.key);
            EXPECT_EQ(out.other_coarse, in.other_coarse);
        }
        {
            AckPropMsg in{rng.next(), rng.next_below(2) == 1, rng.next()};
            auto out = round_trip(in, 21, 3);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.reciprocal, in.reciprocal);
            EXPECT_EQ(out.fid, in.fid);
        }
        {
            NewCoarseMsg in{rng.next(), rng.next(), rng.next()};
            auto out = round_trip(in, 22, 3);
            EXPECT_EQ(out.phase, in.phase);
            EXPECT_EQ(out.coarse, in.coarse);
            EXPECT_EQ(out.edge, in.edge);
        }
        {
            StartGhsMsg in{rng.next(), rng.next()};
            auto out = round_trip(in, 23, 2);
            EXPECT_EQ(out.k, in.k);
            EXPECT_EQ(out.start_round, in.start_round);
        }
        {
            IdExchangeMsg in{rng.next(), rng.next()};
            auto out = round_trip(in, 24, 2);
            EXPECT_EQ(out.fid, in.fid);
            EXPECT_EQ(out.vid, in.vid);
        }
        {
            WordMsg in{rng.next()};
            EXPECT_EQ(round_trip(in, 25, 1).word, in.word);
        }
        {
            FloodMsg in{{rng.next(), rng.next(), rng.next(), rng.next()}};
            EXPECT_EQ(round_trip(in, 26, 4).rec, in.rec);
        }
    }
}

TEST(Codec, VerifyPayloads)
{
    Rng rng(103);
    for (int i = 0; i < 200; ++i) {
        {
            HelloMsg in{rng.next(), rng.next_below(2) == 1};
            auto out = round_trip(in, 30, 2);
            EXPECT_EQ(out.vid, in.vid);
            EXPECT_EQ(out.marked, in.marked);
        }
        {
            VerifySnapshotMsg in{rng.next(), rng.next(), random_key(rng),
                                 random_key(rng)};
            auto out = round_trip(in, 31, 6);
            EXPECT_EQ(out.claimed_ports, in.claimed_ports);
            EXPECT_EQ(out.nontree_ports, in.nontree_ports);
            EXPECT_EQ(out.asym, in.asym);
            EXPECT_EQ(out.cycle, in.cycle);
        }
        {
            PathTokenMsg in{rng.next(), random_key(rng), random_key(rng)};
            auto out = round_trip(in, 32, 5);
            EXPECT_EQ(out.pair, in.pair);
            EXPECT_EQ(out.key, in.key);
            EXPECT_EQ(out.max_seen, in.max_seen);
        }
        {
            VerifyCountMsg in{rng.next(), random_key(rng), random_key(rng)};
            auto out = round_trip(in, 33, 5);
            EXPECT_EQ(out.pairs, in.pairs);
            EXPECT_EQ(out.witness, in.witness);
            EXPECT_EQ(out.offender, in.offender);
        }
        {
            VerdictMsg in{rng.next(), random_key(rng), random_key(rng)};
            auto out = round_trip(in, 34, 5);
            EXPECT_EQ(out.verdict, in.verdict);
            EXPECT_EQ(out.witness, in.witness);
            EXPECT_EQ(out.offender, in.offender);
        }
        {
            EdgeKeyMsg in{random_key(rng)};
            EXPECT_EQ(round_trip(in, 35, 2).key, in.key);
        }
        {
            FlagMsg in{rng.next_below(2) == 1};
            EXPECT_EQ(round_trip(in, 36, 1).value, in.value);
        }
    }
}

TEST(Codec, EdgeKeyPackingIsLossless)
{
    // The endpoint pair packs into one word; extreme 32-bit values must not
    // bleed into each other.
    for (VertexId a : {VertexId{0}, VertexId{1}, ~VertexId{0}}) {
        for (VertexId b : {VertexId{0}, VertexId{1}, ~VertexId{0}}) {
            EdgeKey in{~Weight{0}, a, b};
            Message m = encode(42, EdgeReportMsg{0, in});
            EXPECT_EQ(decode<EdgeReportMsg>(m).key, in);
        }
    }
}

// Every payload struct is a fixed word width, so decode has a closed-form
// contract for any field values: it throws naming "shorter" below that
// width, decodes at it, and throws naming "longer" above it. The reader
// saturates, so the short cases never read out of bounds (the sanitizer
// leg is the judge).
template <typename P>
void sweep_widths(const char* name)
{
    Rng rng(11);
    const std::size_t width = encode(1, P{}).words.size();
    for (std::size_t len = 0; len <= width + 3; ++len) {
        SCOPED_TRACE(std::string(name) + " len=" + std::to_string(len) +
                     " width=" + std::to_string(width));
        for (int trial = 0; trial < 16; ++trial) {
            Message m;
            m.tag = 1;
            for (std::size_t i = 0; i < len; ++i)
                m.words.push_back(rng.next());
            if (len == width) {
                EXPECT_NO_THROW((void)decode<P>(m));
                continue;
            }
            try {
                (void)decode<P>(m);
                ADD_FAILURE() << "off-width message decoded";
            }
            catch (const InvariantViolation& e) {
                const char* expect = len < width ? "shorter" : "longer";
                EXPECT_NE(std::string(e.what()).find(expect),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(Codec, DecodeRejectsEveryOffWidthPayload)
{
    sweep_widths<EmptyMsg>("EmptyMsg");
    sweep_widths<BfsExploreMsg>("BfsExploreMsg");
    sweep_widths<BfsEchoMsg>("BfsEchoMsg");
    sweep_widths<IntervalAssignMsg>("IntervalAssignMsg");
    sweep_widths<DownRecordMsg>("DownRecordMsg");
    sweep_widths<PipeRecordMsg>("PipeRecordMsg");
    sweep_widths<PhaseOnlyMsg>("PhaseOnlyMsg");
    sweep_widths<FidMsg>("FidMsg");
    sweep_widths<PhaseFlagMsg>("PhaseFlagMsg");
    sweep_widths<PhaseValueMsg>("PhaseValueMsg");
    sweep_widths<ColorMsg>("ColorMsg");
    sweep_widths<StepValueMsg>("StepValueMsg");
    sweep_widths<StepMsg>("StepMsg");
    sweep_widths<StatusCrossMsg>("StatusCrossMsg");
    sweep_widths<MwoeReportMsg>("MwoeReportMsg");
    sweep_widths<EdgeReportMsg>("EdgeReportMsg");
    sweep_widths<FragReportMsg>("FragReportMsg");
    sweep_widths<AckPropMsg>("AckPropMsg");
    sweep_widths<NewCoarseMsg>("NewCoarseMsg");
    sweep_widths<StartGhsMsg>("StartGhsMsg");
    sweep_widths<IdExchangeMsg>("IdExchangeMsg");
    sweep_widths<WordMsg>("WordMsg");
    sweep_widths<HelloMsg>("HelloMsg");
    sweep_widths<VerifySnapshotMsg>("VerifySnapshotMsg");
    sweep_widths<PathTokenMsg>("PathTokenMsg");
    sweep_widths<VerifyCountMsg>("VerifyCountMsg");
    sweep_widths<VerdictMsg>("VerdictMsg");
    sweep_widths<EdgeKeyMsg>("EdgeKeyMsg");
    sweep_widths<FlagMsg>("FlagMsg");
    sweep_widths<FloodMsg>("FloodMsg");
}

TEST(Codec, PeekPhaseReadsWordZero)
{
    Message m = encode(9, FidMsg{1234, 5, 6});
    EXPECT_EQ(peek_phase(m), 1234u);
}

TEST(Codec, PeekPhaseOnEmptyMessageThrows)
{
    EXPECT_THROW((void)peek_phase(Message{}), InvariantViolation);
}

// ------------------------------------------------------------ wire layout

// Encodes `payload`, compares its exact words, and checks that decoding
// those words and encoding again reproduces them. Every field carries a
// distinct value, so a reordered field, a swapped endpoint or a changed
// packing shows here even though write and read share one field list.
template <typename P>
void expect_wire(const char* name, const P& payload,
                 const std::vector<std::uint64_t>& words)
{
    SCOPED_TRACE(name);
    const Message m = encode(0, payload);
    const std::vector<std::uint64_t> got(m.words.begin(), m.words.end());
    EXPECT_EQ(got, words);
    EXPECT_EQ(encode(0, decode<P>(m)).words, m.words);
}

TEST(Codec, WireLayoutPinned)
{
    // Distinct weights and distinct 32-bit halves; an EdgeKey is the
    // weight word, then (a << 32) | b.
    const EdgeKey k1{0x11, 0xA1, 0xB1};
    const EdgeKey k2{0x22, 0xA2, 0xB2};
    const std::uint64_t p1 = 0x000000A1000000B1ULL;
    const std::uint64_t p2 = 0x000000A2000000B2ULL;

    expect_wire("EmptyMsg", EmptyMsg{}, {});
    expect_wire("BfsExploreMsg", BfsExploreMsg{2}, {2});
    expect_wire("BfsEchoMsg", BfsEchoMsg{2, 3}, {2, 3});
    expect_wire("IntervalAssignMsg", IntervalAssignMsg{2, 3}, {2, 3});
    expect_wire("DownRecordMsg", DownRecordMsg{2, {3, 4, 5, 6}},
                {2, 3, 4, 5, 6});
    expect_wire("PipeRecordMsg", PipeRecordMsg{k1, 2, 3, 4},
                {0x11, p1, 2, 3, 4});
    expect_wire("PhaseOnlyMsg", PhaseOnlyMsg{2}, {2});
    expect_wire("FidMsg", FidMsg{2, 3, 4}, {2, 3, 4});
    expect_wire("PhaseFlagMsg", PhaseFlagMsg{2, true}, {2, 1});
    expect_wire("PhaseValueMsg", PhaseValueMsg{2, 3}, {2, 3});
    expect_wire("ColorMsg", ColorMsg{2, 3, 4}, {2, 3, 4});
    expect_wire("StepValueMsg", StepValueMsg{2, 3, 4}, {2, 3, 4});
    expect_wire("StepMsg", StepMsg{2, 3}, {2, 3});
    expect_wire("StatusCrossMsg", StatusCrossMsg{2, 3, 4, true}, {2, 3, 4, 1});
    expect_wire("MwoeReportMsg", MwoeReportMsg{2, k1, 3}, {2, 0x11, p1, 3});
    expect_wire("EdgeReportMsg", EdgeReportMsg{2, k1}, {2, 0x11, p1});
    expect_wire("FragReportMsg", FragReportMsg{2, k1, 3}, {2, 0x11, p1, 3});
    expect_wire("AckPropMsg", AckPropMsg{2, true, 3}, {2, 1, 3});
    expect_wire("NewCoarseMsg", NewCoarseMsg{2, 3, 4}, {2, 3, 4});
    expect_wire("StartGhsMsg", StartGhsMsg{2, 3}, {2, 3});
    expect_wire("IdExchangeMsg", IdExchangeMsg{2, 3}, {2, 3});
    expect_wire("WordMsg", WordMsg{2}, {2});
    expect_wire("HelloMsg", HelloMsg{2, true}, {2, 1});
    expect_wire("VerifySnapshotMsg", VerifySnapshotMsg{2, 3, k1, k2},
                {2, 3, 0x11, p1, 0x22, p2});
    expect_wire("PathTokenMsg", PathTokenMsg{2, k1, k2},
                {2, 0x11, p1, 0x22, p2});
    expect_wire("VerifyCountMsg", VerifyCountMsg{2, k1, k2},
                {2, 0x11, p1, 0x22, p2});
    expect_wire("VerdictMsg", VerdictMsg{2, k1, k2}, {2, 0x11, p1, 0x22, p2});
    expect_wire("EdgeKeyMsg", EdgeKeyMsg{k1}, {0x11, p1});
    expect_wire("FlagMsg", FlagMsg{true}, {1});
    expect_wire("FloodMsg", FloodMsg{{2, 3, 4, 5}}, {2, 3, 4, 5});
}

// ------------------------------------------------------------ WordBuf

TEST(WordBuf, InlineSmallPayloads)
{
    WordBuf b{1, 2, 3};
    EXPECT_EQ(b.size(), 3u);
    EXPECT_FALSE(b.overflowed());
    EXPECT_EQ(b.at(0), 1u);
    EXPECT_EQ(b.at(2), 3u);
    EXPECT_THROW(b.at(3), std::out_of_range);
}

TEST(WordBuf, StaysInlineUpToCapacity)
{
    WordBuf b;
    for (std::size_t i = 0; i < WordBuf::kInlineCapacity; ++i)
        b.push_back(i);
    EXPECT_EQ(b.size(), WordBuf::kInlineCapacity);
    EXPECT_FALSE(b.overflowed());
}

TEST(WordBuf, OverflowPathPreservesContents)
{
    for (std::size_t n : {WordBuf::kInlineCapacity + 1,
                          3 * WordBuf::kInlineCapacity + 1}) {
        WordBuf b;
        for (std::size_t i = 0; i < n; ++i)
            b.push_back(i * 7);
        EXPECT_TRUE(b.overflowed());
        ASSERT_EQ(b.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(b[i], i * 7);
    }
}

// The three storage states a copy or move can meet.
enum class Storage { Inline, Overflowed, RefilledInline };

WordBuf make_buf(Storage s, std::uint64_t base)
{
    WordBuf b;
    if (s != Storage::Inline) {
        for (std::size_t i = 0; i < 2 * WordBuf::kInlineCapacity + 1; ++i)
            b.push_back(base + i);
    }
    if (s != Storage::Overflowed) {
        b.clear();  // an overflowed buffer keeps its heap block
        for (std::uint64_t i = 0; i < 3; ++i)
            b.push_back(base + 50 + i);
    }
    return b;
}

// A moved-from buffer is empty, inline and reusable.
void expect_reset(WordBuf& b)
{
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.overflowed());
    b.push_back(7);
    EXPECT_EQ(b, (WordBuf{7}));
}

TEST(WordBuf, CopyAndMoveAcrossStorageModes)
{
    const Storage all[] = {Storage::Inline, Storage::Overflowed,
                           Storage::RefilledInline};
    for (Storage from : all) {
        SCOPED_TRACE(static_cast<int>(from));
        const WordBuf src = make_buf(from, 1000);
        const bool heap = from != Storage::Inline;

        WordBuf copied(src);
        EXPECT_EQ(copied, src);
        EXPECT_EQ(copied.overflowed(), heap);
        WordBuf moved(std::move(copied));
        EXPECT_EQ(moved, src);
        EXPECT_EQ(moved.overflowed(), heap);
        expect_reset(copied);

        for (Storage to : all) {
            SCOPED_TRACE(static_cast<int>(to));
            WordBuf assigned = make_buf(to, 1);
            assigned = src;
            EXPECT_EQ(assigned, src);
            EXPECT_EQ(assigned.overflowed(), heap);

            WordBuf donor = src;
            WordBuf move_assigned = make_buf(to, 1);
            move_assigned = std::move(donor);
            EXPECT_EQ(move_assigned, src);
            EXPECT_EQ(move_assigned.overflowed(), heap);
            expect_reset(donor);
        }
    }
}

TEST(WordBuf, MessageIsOneCacheLine)
{
    EXPECT_EQ(sizeof(Message), 64u);
}

TEST(WordBuf, EqualityComparesContents)
{
    EXPECT_EQ((WordBuf{1, 2}), (WordBuf{1, 2}));
    EXPECT_NE((WordBuf{1, 2}), (WordBuf{1, 3}));
    EXPECT_NE((WordBuf{1, 2}), (WordBuf{1, 2, 3}));

    // Inline vs overflowed storage with equal contents compares equal.
    WordBuf big_then_cleared;
    for (std::size_t i = 0; i < 2 * WordBuf::kInlineCapacity; ++i)
        big_then_cleared.push_back(i);
    big_then_cleared.clear();
    big_then_cleared.push_back(1);
    big_then_cleared.push_back(2);
    EXPECT_EQ(big_then_cleared, (WordBuf{1, 2}));
}

}  // namespace
}  // namespace dmst
