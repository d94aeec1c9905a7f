#ifndef DMST_CONGEST_CODEC_H
#define DMST_CONGEST_CODEC_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "dmst/congest/message.h"
#include "dmst/graph/graph.h"
#include "dmst/util/assert.h"

namespace dmst {

// Typed wire codec for CONGEST messages.
//
// Every protocol payload is a fixed sequence of 64-bit words. Each payload
// struct below names its fields once, in wire order, in `fields(f)`, which
// calls `f(field, ...)`. encode() walks that list with a WordWriter and
// decode() with a WordReader, so the two directions cannot disagree.
//
// decode() throws InvariantViolation ("shorter" / "longer") unless the
// message holds exactly the payload's words, so a protocol bug or a
// well-framed socket payload of the wrong width fails the run at the
// boundary. The reader saturates: no read goes out of bounds.
//
// Layout: a u64 or bool field is one word (a bool is 1 or 0; any nonzero
// word reads as true); an EdgeKey is two, the weight and then (a << 32) | b;
// a std::array<std::uint64_t, N> is N. payload_words<P>() counts a
// payload's words from its field types at compile time, and encode()
// static_asserts that it fits WordBuf's inline array: a payload that would
// make a send allocate does not compile.

// ----------------------------------------------------------- reader/writer

// Field visitor that appends each field's words to a message.
class WordWriter {
public:
    explicit WordWriter(Message& m) : words_(m.words) {}

    template <typename... Fs>
    void operator()(const Fs&... fs) { (put(fs), ...); }

private:
    void put(std::uint64_t v) { words_.push_back(v); }  // a bool is 1 or 0
    void put(const EdgeKey& k)
    {
        words_.push_back(k.w);
        words_.push_back((std::uint64_t{k.a} << 32) | k.b);
    }
    template <std::size_t N>
    void put(const std::array<std::uint64_t, N>& a)
    {
        for (std::uint64_t v : a)
            put(v);
    }

    WordBuf& words_;
};

// Field visitor that fills each field from a message's words. A read past
// the end yields 0 and clears ok(), which decode() reports as "shorter".
class WordReader {
public:
    explicit WordReader(const Message& m) : words_(m.words) {}

    template <typename... Fs> void operator()(Fs&... fs) { (get(fs), ...); }

    bool ok() const { return ok_; }
    bool exhausted() const { return cursor_ == words_.size(); }

private:
    std::uint64_t next()
    {
        ok_ = ok_ && cursor_ < words_.size();
        return ok_ ? words_[cursor_++] : 0;
    }
    void get(std::uint64_t& v) { v = next(); }
    void get(bool& v) { v = next() != 0; }
    void get(EdgeKey& k)
    {
        k.w = next();
        const std::uint64_t ab = next();
        k.a = static_cast<VertexId>(ab >> 32);
        k.b = static_cast<VertexId>(ab & 0xFFFFFFFFULL);
    }
    template <std::size_t N>
    void get(std::array<std::uint64_t, N>& a)
    {
        for (std::uint64_t& v : a)
            get(v);
    }

    const WordBuf& words_;
    std::size_t cursor_ = 0;
    bool ok_ = true;
};

// Field visitor that sums the fields' word widths, by type alone.
class WordCounter {
public:
    template <typename... Fs>
    constexpr void operator()(const Fs&... fs) { ((words_ += width(fs)), ...); }

    constexpr std::size_t words() const { return words_; }

private:
    static constexpr std::size_t width(std::uint64_t) { return 1; }  // or bool
    static constexpr std::size_t width(const EdgeKey&) { return 2; }
    template <std::size_t N>
    static constexpr std::size_t width(const std::array<std::uint64_t, N>&)
    {
        return N;
    }

    std::size_t words_ = 0;
};

// ----------------------------------------------------------- entry points

// The payload's wire width in words (tag excluded), at compile time.
template <typename P>
constexpr std::size_t payload_words()
{
    P payload{};
    WordCounter count;
    payload.fields(count);
    return count.words();
}

// Builds a Message with `tag` and the payload's wire encoding.
template <typename P>
Message encode(std::uint32_t tag, P payload)
{
    static_assert(payload_words<P>() <= WordBuf::kInlineCapacity,
                  "codec: payload wider than WordBuf's inline capacity");
    Message m;
    m.tag = tag;
    payload.fields(WordWriter(m));
    return m;
}

// Decodes the payload of `m`; throws InvariantViolation unless the message
// holds exactly the payload type's words.
template <typename P>
P decode(const Message& m)
{
    P payload;
    WordReader r(m);
    payload.fields(r);
    DMST_ASSERT_MSG(r.ok(), "codec: message shorter than its payload");
    DMST_ASSERT_MSG(r.exhausted(), "codec: message longer than its payload");
    return payload;
}

// Word 0 of every phase-scheduled driver message is the phase index; the
// drivers peek it to route stragglers before committing to a payload type.
// An empty message throws InvariantViolation.
inline std::uint64_t peek_phase(const Message& m)
{
    DMST_ASSERT_MSG(!m.words.empty(), "codec: peek_phase on empty message");
    return m.words[0];
}

// ------------------------------------------------------- payload structs
//
// Grouped by layer. Several tags share a wire shape on purpose (e.g. every
// "control ping carrying only the phase" is a PhaseOnlyMsg); the tag, not
// the struct, identifies the message kind on the wire. The field names
// document each wire, so shape-identical structs stay apart.

// Tagged signal with no payload (ACCEPT/REJECT, DONE, FINISH, MARK_CROSS).
struct EmptyMsg {
    template <typename F> constexpr void fields(F&&) {}
};

// --- proto/bfs ---

// EXPLORE: sender's BFS depth.
struct BfsExploreMsg {
    std::uint64_t depth = 0;

    template <typename F> constexpr void fields(F&& f) { f(depth); }
};

// ECHO: subtree size and height below the sender.
struct BfsEchoMsg {
    std::uint64_t subtree_size = 0;
    std::uint64_t height = 0;

    template <typename F>
    constexpr void fields(F&& f) { f(subtree_size, height); }
};

// --- proto/intervals ---

// ASSIGN: the child's preorder interval [lo, hi).
struct IntervalAssignMsg {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    template <typename F> constexpr void fields(F&& f) { f(lo, hi); }
};

// --- proto/downcast ---

// One interval-routed record: target preorder index + 4 payload words.
struct DownRecordMsg {
    std::uint64_t target = 0;
    std::array<std::uint64_t, 4> payload{};

    template <typename F> constexpr void fields(F&& f) { f(target, payload); }
};

// --- proto/pipeline ---

// One pipelined upcast record: EdgeKey + grouping ids + auxiliary word.
struct PipeRecordMsg {
    EdgeKey key;
    std::uint64_t group = 0;
    std::uint64_t group2 = 0;
    std::uint64_t aux = 0;

    template <typename F>
    constexpr void fields(F&& f) { f(key, group, group2, aux); }
};

// --- core drivers (phase-scheduled) ---
//
// Every driver message leads with its phase index (peek_phase above).

// Control ping carrying only the phase: PHASE_START, ACK, NOTIFY,
// CAND_BCAST, ACCEPT_UP, FLIP, COMMIT, CENTER_UP, MERGE_UP.
struct PhaseOnlyMsg {
    std::uint64_t phase = 0;

    template <typename F> constexpr void fields(F&& f) { f(phase); }
};

// Identity exchange across an edge: FID (GHS / Boruvka), CHAT (Elkin
// coarse ids), PROPOSE (Boruvka). `fid` is the fragment/coarse id, `vid`
// the sender's vertex id.
struct FidMsg {
    std::uint64_t phase = 0;
    std::uint64_t fid = 0;
    std::uint64_t vid = 0;

    template <typename F> constexpr void fields(F&& f) { f(phase, fid, vid); }
};

// Phase + one boolean: CAND_NBR, GATE_INFO.
struct PhaseFlagMsg {
    std::uint64_t phase = 0;
    bool value = false;

    template <typename F> constexpr void fields(F&& f) { f(phase, value); }
};

// Phase + one value word: NEW_ID (fid), ANNOUNCE (packed edge),
// PROPOSE (GHS: proposer fid), EDGE flood words.
struct PhaseValueMsg {
    std::uint64_t phase = 0;
    std::uint64_t value = 0;

    template <typename F> constexpr void fields(F&& f) { f(phase, value); }
};

// Cole–Vishkin color relay: COLOR_DOWN, COLOR_CROSS, COLOR_UP.
struct ColorMsg {
    std::uint64_t phase = 0;
    std::uint64_t iter = 0;
    std::uint64_t color = 0;

    template <typename F>
    constexpr void fields(F&& f) { f(phase, iter, color); }
};

// Matching-step relays carrying (phase, MM step, one value): STATUS_DOWN
// (matched flag), STATUS_REPORT / ACCEPT_DOWN (fragment id).
struct StepValueMsg {
    std::uint64_t phase = 0;
    std::uint64_t step = 0;
    std::uint64_t value = 0;

    template <typename F>
    constexpr void fields(F&& f) { f(phase, step, value); }
};

// ACCEPT_CROSS: phase + MM step.
struct StepMsg {
    std::uint64_t phase = 0;
    std::uint64_t step = 0;

    template <typename F> constexpr void fields(F&& f) { f(phase, step); }
};

// STATUS_CROSS: the gate tells its foreign partner (phase, step, own fid,
// matched flag).
struct StatusCrossMsg {
    std::uint64_t phase = 0;
    std::uint64_t step = 0;
    std::uint64_t fid = 0;
    bool matched = false;

    template <typename F>
    constexpr void fields(F&& f) { f(phase, step, fid, matched); }
};

// MWOE convergecast report: best crossing edge + subtree height (GHS).
struct MwoeReportMsg {
    std::uint64_t phase = 0;
    EdgeKey key;
    std::uint64_t height = 0;

    template <typename F>
    constexpr void fields(F&& f) { f(phase, key, height); }
};

// Boruvka convergecast report: best crossing edge only.
struct EdgeReportMsg {
    std::uint64_t phase = 0;
    EdgeKey key;

    template <typename F> constexpr void fields(F&& f) { f(phase, key); }
};

// Elkin fragment report: best crossing edge + the coarse id it leads to.
struct FragReportMsg {
    std::uint64_t phase = 0;
    EdgeKey key;
    std::uint64_t other_coarse = 0;

    template <typename F>
    constexpr void fields(F&& f) { f(phase, key, other_coarse); }
};

// ACK_PROP (Boruvka): was the proposal reciprocal, and the acker's fid.
struct AckPropMsg {
    std::uint64_t phase = 0;
    bool reciprocal = false;
    std::uint64_t fid = 0;

    template <typename F>
    constexpr void fields(F&& f) { f(phase, reciprocal, fid); }
};

// NEW_COARSE (Elkin): the fragment's new coarse id + the packed MST edge
// chosen this phase (kNoEdgeWord if none).
struct NewCoarseMsg {
    std::uint64_t phase = 0;
    std::uint64_t coarse = 0;
    std::uint64_t edge = 0;

    template <typename F>
    constexpr void fields(F&& f) { f(phase, coarse, edge); }
};

// START_GHS wave (Elkin / Pipeline): the k parameter and the global round
// the Controlled-GHS schedule starts at.
struct StartGhsMsg {
    std::uint64_t k = 0;
    std::uint64_t start_round = 0;

    template <typename F> constexpr void fields(F&& f) { f(k, start_round); }
};

// ID_EXCHANGE (Pipeline baseline): fragment id + vertex id, no phase.
struct IdExchangeMsg {
    std::uint64_t fid = 0;
    std::uint64_t vid = 0;

    template <typename F> constexpr void fields(F&& f) { f(fid, vid); }
};

// Single bare word (EDGE_BCAST packed edge).
struct WordMsg {
    std::uint64_t word = 0;

    template <typename F> constexpr void fields(F&& f) { f(word); }
};

// --- proto/verify + core/verify_mst ---

// HELLO: opening exchange of the verification protocol — the sender's
// vertex id and whether it marked the connecting port as a claimed tree
// edge. Gives every vertex its neighbors' ids (KT0-legal: learned via
// messages) and the symmetric intersection of the claimed edge set.
struct HelloMsg {
    std::uint64_t vid = 0;
    bool marked = false;

    template <typename F> constexpr void fields(F&& f) { f(vid, marked); }
};

// SNAPSHOT: per-subtree aggregate of the spanning check, convergecast over
// the BFS tree τ: claimed/non-tree port counts plus the minimal asymmetry
// and cycle witnesses (kInfiniteEdgeKey = none).
struct VerifySnapshotMsg {
    std::uint64_t claimed_ports = 0;
    std::uint64_t nontree_ports = 0;
    EdgeKey asym = kInfiniteEdgeKey;
    EdgeKey cycle = kInfiniteEdgeKey;

    template <typename F>
    constexpr void fields(F&& f)
    {
        f(claimed_ports, nontree_ports, asym, cycle);
    }
};

// TOKEN: one half of a cycle-max query climbing the claimed tree. `pair`
// packs the claimed-preorder indices of the non-tree edge's endpoints
// (lo << 32 | hi); `key` is the queried non-tree edge; `max_seen` the
// heaviest claimed edge traversed so far.
struct PathTokenMsg {
    std::uint64_t pair = 0;
    EdgeKey key;
    EdgeKey max_seen;

    template <typename F>
    constexpr void fields(F&& f) { f(pair, key, max_seen); }
};

// COUNT: monotone pair-completion counter convergecast over τ, carrying
// the minimal cycle-max violation found so far (witness = the heavy
// claimed edge, offender = the lighter non-tree edge it lost to).
struct VerifyCountMsg {
    std::uint64_t pairs = 0;
    EdgeKey witness = kInfiniteEdgeKey;
    EdgeKey offender = kInfiniteEdgeKey;

    template <typename F>
    constexpr void fields(F&& f) { f(pairs, witness, offender); }
};

// FINAL: the root's verdict broadcast (verdict enum as a word + witness
// pair), after which every vertex knows accept/reject and the witness.
struct VerdictMsg {
    std::uint64_t verdict = 0;
    EdgeKey witness = kInfiniteEdgeKey;
    EdgeKey offender = kInfiniteEdgeKey;

    template <typename F>
    constexpr void fields(F&& f) { f(verdict, witness, offender); }
};

// Bare EdgeKey (CUT_REPORT: minimal crossing edge of the disconnection cut).
struct EdgeKeyMsg {
    EdgeKey key;

    template <typename F> constexpr void fields(F&& f) { f(key); }
};

// Single boolean (SIDE: which side of the disconnection cut the sender is on).
struct FlagMsg {
    bool value = false;

    template <typename F> constexpr void fields(F&& f) { f(value); }
};

// FLOOD (Elkin ablation E10b): a 4-word broadcast record
// (target index, phase, coarse, edge).
struct FloodMsg {
    std::array<std::uint64_t, 4> rec{};

    template <typename F> constexpr void fields(F&& f) { f(rec); }
};

}  // namespace dmst

#endif  // DMST_CONGEST_CODEC_H
