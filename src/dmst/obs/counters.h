#ifndef DMST_OBS_COUNTERS_H
#define DMST_OBS_COUNTERS_H

#include <cstdint>
#include <vector>

#include "dmst/obs/phase.h"

namespace dmst {

// Per-message-tag histogram: messages and words by codec tag. Tags are
// small dense integers (each driver's Tag enum starts at 0), so the
// histogram is a grow-on-demand flat vector — after the first round has
// touched every live tag, add() never allocates again.
class TagHistogram {
public:
    void add(std::uint32_t tag, std::uint64_t words)
    {
        if (messages_.size() <= tag)
            grow(tag);
        ++messages_[tag];
        words_[tag] += words;
    }

    void merge(const TagHistogram& other);
    void clear();

    std::size_t size() const { return messages_.size(); }
    std::uint64_t messages(std::uint32_t tag) const
    {
        return tag < messages_.size() ? messages_[tag] : 0;
    }
    std::uint64_t words(std::uint32_t tag) const
    {
        return tag < words_.size() ? words_[tag] : 0;
    }

private:
    void grow(std::uint32_t tag);

    std::vector<std::uint64_t> messages_;
    std::vector<std::uint64_t> words_;
};

// One span accumulation cell: the recorder's unit of attribution. Every
// traced send lands in exactly one cell (the sender's innermost
// open span, or the Init cell), so summing cells reproduces the RunStats
// totals — the conservation invariant TraceRecorder::finalize() checks.
//
// Round/virtual-time bounds are updated only on *activity* (a send),
// never by opening or closing a span: idle re-entries of
// a protocol pump must not widen a span, or the async engine's trailing
// inert pulses would break tri-engine trace parity.
struct SpanCell {
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    // Fault-shim traffic attributed to this span (congest/faults.h):
    // retransmissions and lost transmissions of sends charged here, so
    // per-phase retransmission overhead is directly readable. Conserve
    // against RunStats::retransmissions/::drops like messages do.
    std::uint64_t retransmissions = 0;
    std::uint64_t drops = 0;
    std::uint64_t first_round = kUnset;  // logical rounds (engine-invariant)
    std::uint64_t last_round = 0;
    std::uint64_t first_vtime = kUnset;  // async virtual time (0 elsewhere)
    std::uint64_t last_vtime = 0;

    static constexpr std::uint64_t kUnset = ~std::uint64_t{0};

    bool touched() const { return messages != 0; }

    void touch(std::uint64_t round, std::uint64_t vtime)
    {
        if (round < first_round)
            first_round = round;
        if (round > last_round)
            last_round = round;
        if (vtime < first_vtime)
            first_vtime = vtime;
        if (vtime > last_vtime)
            last_vtime = vtime;
    }

    void merge(const SpanCell& other);
};

}  // namespace dmst

#endif  // DMST_OBS_COUNTERS_H
