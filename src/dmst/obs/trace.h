#ifndef DMST_OBS_TRACE_H
#define DMST_OBS_TRACE_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dmst/congest/network_base.h"
#include "dmst/obs/counters.h"
#include "dmst/obs/phase.h"
#include "dmst/util/assert.h"

namespace dmst {

// Span-based trace recorder for the CONGEST engines (ROADMAP: per-phase
// observability). The model:
//
//   - Drivers open spans around their protocol stages with the TraceScope
//     RAII helper. Spans are keyed by (TracePhase, level) — e.g. (Ghs, i)
//     for Controlled-GHS phase i, (Boruvka, j) for Boruvka phase j — and
//     nest per vertex: every send is attributed to the sender's innermost
//     open span (or the Init span when none is open), so span sums equal
//     the RunStats totals by construction. finalize() checks that
//     conservation invariant on every traced run.
//
//   - Per span the recorder keeps messages, words, instants, and the
//     first/last *logical round* of activity — the engine-invariant clock
//     all three engines agree on — plus first/last substrate tick and
//     async virtual time as engine-specific extras. The logical-round
//     projection (parity_fingerprint) is bit-identical across serial,
//     parallel, and async engines for the same seed: a stronger form of
//     the tri-engine exactness contract, enforced by tests/test_trace.cpp
//     and the nightly trace self-check.
//
//   - A per-message-tag histogram (messages/words by codec tag) rides
//     along; it must conserve too.
//
// Cost model. Disabled (the default), the engines hold a null recorder
// pointer: a TraceScope and a send each pay one pointer test — no
// allocation, no call (the counting-allocator test and the exact bench
// gates pin that down). Enabled, spans are lazy:
//   - one key swap per scope: entering a TraceScope swaps the vertex's
//     current-span key, leaving it restores the saved key;
//   - one memoised cell lookup per send: the sender's key resolves to its
//     shard's cell through a one-entry memo in front of the key index;
//   - zero allocations in the warm steady state: cells live in per-shard
//     grow-only arenas, created on a span's first send, so nothing
//     allocates once every live (span, tag) cell exists.

// One aggregated span row of a finalized trace.
struct TraceSpan {
    TracePhase phase = TracePhase::Init;
    std::int64_t level = 0;
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    std::uint64_t instants = 0;
    // Fault-shim traffic of sends attributed here (0 without faults).
    std::uint64_t retransmissions = 0;
    std::uint64_t drops = 0;
    // Logical rounds of first/last activity: the parity-bearing fields.
    std::uint64_t first_round = 0;
    std::uint64_t last_round = 0;
    // Substrate ticks (= rounds x conditioner stride on the lock-step
    // engines, pulse levels on the async engine); excluded from parity.
    std::uint64_t first_tick = 0;
    std::uint64_t last_tick = 0;
    // Async virtual time of first/last activity; 0 on lock-step engines.
    std::uint64_t first_vtime = 0;
    std::uint64_t last_vtime = 0;
};

// One per-message-tag histogram row.
struct TagCount {
    std::uint32_t tag = 0;
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
};

// A finalized, immutable trace: spans sorted by (phase, level), tags
// sorted by tag, totals snapshotted from the run's RunStats.
struct TraceTable {
    std::vector<TraceSpan> spans;
    std::vector<TagCount> tags;
    std::uint64_t total_messages = 0;
    std::uint64_t total_words = 0;
    std::uint64_t total_rounds = 0;  // RunStats::rounds (ticks)
    std::uint64_t sync_messages = 0;  // α-synchronizer control traffic
    std::uint64_t sync_words = 0;
    std::uint64_t total_retransmissions = 0;  // fault shim (congest/faults.h)
    std::uint64_t total_drops = 0;

    const TraceSpan* find(TracePhase phase, std::int64_t level) const;
    // Sum of span messages over every level of `phase`.
    std::uint64_t phase_messages(TracePhase phase) const;

    // Conservation self-check: span sums and tag sums must both equal the
    // totals. Throws InvariantViolation with a per-phase breakdown on
    // violation.
    void validate() const;

    // Engine-invariant projection: one line per span with the
    // (phase, level, first_round, last_round, messages, words, instants)
    // fields. Same seed => identical string on all three engines, per
    // network run. Multi-epoch drivers (sync Borůvka) accumulate
    // engine-specific round offsets across epoch boundaries (the async
    // engine's endgame skew, see sim/async_network.h), so only their
    // per-span messages/words/instants stay engine-invariant.
    std::string parity_fingerprint() const;
};

// Arena-backed recorder with lazy spans (cost model above). Thread-safety
// contract mirrors the parallel engine's sharding: a vertex's current-span
// key is only touched by the shard that owns the vertex, and every
// cell/tag table and memo is per shard; folding happens on the coordinator
// at finalize() only. The serial and async engines run everything on
// shard 0.
class TraceRecorder {
public:
    explicit TraceRecorder(std::size_t vertex_count);

    // Parallel engine only: route each vertex's events to its owning
    // shard's tables. Must be called before any event is recorded.
    void set_sharding(int shards, const std::vector<int>& shard_of);

    // Engine clock, read by every subsequent event: the logical round,
    // the substrate tick, and the async virtual time of the current
    // activation. The clock is kept per shard so shards running at
    // different logical rounds (the sharded async engine) stay exact and
    // race-free. set_now writes every shard — coordinator-only, between
    // phases (the lock-step engines' single global clock); set_now_for
    // writes only the shard owning `v` — worker-safe, before each pulse
    // (the async engine's per-vertex clock).
    void set_now(std::uint64_t logical_round, std::uint64_t tick,
                 std::uint64_t vtime)
    {
        for (Shard& sh : shards_) {
            sh.now_round = logical_round;
            sh.now_tick = tick;
            sh.now_vtime = vtime;
        }
    }

    void set_now_for(VertexId v, std::uint64_t logical_round,
                     std::uint64_t tick, std::uint64_t vtime)
    {
        Shard& sh = shards_[shard_index(v)];
        sh.now_round = logical_round;
        sh.now_tick = tick;
        sh.now_vtime = vtime;
    }

    // Packs (phase, level) into the recorder's span key; Init/0 is key 0.
    static std::uint64_t span_key(TracePhase phase, std::int64_t level)
    {
        DMST_ASSERT_MSG(level >= 0 && level < (std::int64_t{1} << 48),
                        "span level out of range");
        return (static_cast<std::uint64_t>(phase) << 48) |
               static_cast<std::uint64_t>(level);
    }

    // Makes `key` the current span of `v` and returns the key it replaced;
    // TraceScope hands that back to restore_span() on exit.
    std::uint64_t swap_span(VertexId v, std::uint64_t key)
    {
        const std::uint64_t prev = span_[v];
        span_[v] = key;
        return prev;
    }
    void restore_span(VertexId v, std::uint64_t key) { span_[v] = key; }

    void instant(VertexId v, TracePhase phase, std::int64_t level);

    void on_send(VertexId from, std::uint32_t tag, std::uint64_t words)
    {
        Shard& sh = shards_[shard_index(from)];
        SpanCell& cell = current_cell(sh, from);
        ++cell.messages;
        cell.words += words;
        cell.touch(sh.now_round, sh.now_tick, sh.now_vtime);
        sh.tags.add(tag, words);
    }

    // Fault-shim traffic of one send (retransmissions and lost
    // transmissions), reported right after its on_send so it lands in the
    // same span.
    void on_fault(VertexId from, std::uint64_t retransmissions,
                  std::uint64_t drops)
    {
        Shard& sh = shards_[shard_index(from)];
        SpanCell& cell = current_cell(sh, from);
        cell.retransmissions += retransmissions;
        cell.drops += drops;
        // No touch(): the accompanying on_send already stamped the clock.
    }

    // Folds every shard's cells into a sorted immutable table, snapshots
    // the totals from `stats`, and validates conservation. Repeatable: a
    // multi-epoch driver (sync_boruvka) finalizes after every run() and
    // keeps accumulating in between.
    std::shared_ptr<const TraceTable> finalize(const RunStats& stats) const;

private:
    struct Shard {
        std::vector<SpanCell> cells;      // cell arena; index 0 = Init
        std::vector<std::uint64_t> keys;  // parallel to cells
        std::unordered_map<std::uint64_t, std::uint32_t> index;
        TagHistogram tags;
        // Shard-local engine clock (see set_now / set_now_for).
        std::uint64_t now_round = 0;
        std::uint64_t now_tick = 0;
        std::uint64_t now_vtime = 0;
        // One-entry memo of the last key resolved through `index`; starts
        // on the Init cell, whose key is 0.
        std::uint64_t memo_key = 0;
        std::uint32_t memo_cell = kInitCell;
    };

    static constexpr std::uint32_t kInitCell = 0;

    std::size_t shard_index(VertexId v) const
    {
        return shard_of_.empty() ? 0
                                 : static_cast<std::size_t>(shard_of_[v]);
    }

    // Cell of `v`'s current span in its shard, created on first use.
    SpanCell& current_cell(Shard& sh, VertexId v)
    {
        const std::uint64_t key = span_[v];
        if (key != sh.memo_key) {
            sh.memo_cell = cell_for(sh, key);
            sh.memo_key = key;
        }
        return sh.cells[sh.memo_cell];
    }

    std::uint32_t cell_for(Shard& sh, std::uint64_t key);

    std::vector<Shard> shards_;
    std::vector<int> shard_of_;       // empty = everything on shard 0
    std::vector<std::uint64_t> span_;  // per-vertex current span key
};

// RAII span for driver code: makes (phase, level) the current span of the
// context's vertex for the enclosing scope and restores the enclosing span
// on exit, so scopes nest. Inline: one pointer test when tracing is
// disabled, one key swap when enabled.
class TraceScope {
public:
    TraceScope(Context& ctx, TracePhase phase, std::int64_t level = 0)
        : rec_(ctx.net_->trace_), v_(ctx.id())
    {
        if (rec_)
            saved_ = rec_->swap_span(v_, TraceRecorder::span_key(phase, level));
    }

    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

    ~TraceScope()
    {
        if (rec_)
            rec_->restore_span(v_, saved_);
    }

private:
    TraceRecorder* rec_;
    VertexId v_;
    std::uint64_t saved_ = 0;
};

}  // namespace dmst

#endif  // DMST_OBS_TRACE_H
