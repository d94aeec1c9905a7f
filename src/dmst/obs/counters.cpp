#include "dmst/obs/counters.h"

#include <algorithm>

namespace dmst {

void TagHistogram::grow(std::uint32_t tag)
{
    messages_.resize(static_cast<std::size_t>(tag) + 1, 0);
    words_.resize(static_cast<std::size_t>(tag) + 1, 0);
}

void TagHistogram::merge(const TagHistogram& other)
{
    if (messages_.size() < other.messages_.size())
        grow(static_cast<std::uint32_t>(other.messages_.size()) - 1);
    for (std::size_t t = 0; t < other.messages_.size(); ++t) {
        messages_[t] += other.messages_[t];
        words_[t] += other.words_[t];
    }
}

void TagHistogram::clear()
{
    std::fill(messages_.begin(), messages_.end(), 0);
    std::fill(words_.begin(), words_.end(), 0);
}

void SpanCell::merge(const SpanCell& other)
{
    messages += other.messages;
    words += other.words;
    retransmissions += other.retransmissions;
    drops += other.drops;
    first_round = std::min(first_round, other.first_round);
    last_round = std::max(last_round, other.last_round);
    first_vtime = std::min(first_vtime, other.first_vtime);
    last_vtime = std::max(last_vtime, other.last_vtime);
}

const char* trace_phase_name(TracePhase phase)
{
    switch (phase) {
        case TracePhase::Init: return "init";
        case TracePhase::Bfs: return "bfs";
        case TracePhase::Labeling: return "labeling";
        case TracePhase::Control: return "control";
        case TracePhase::Ghs: return "ghs";
        case TracePhase::Registration: return "registration";
        case TracePhase::Boruvka: return "boruvka";
        case TracePhase::Pipeline: return "pipeline";
        case TracePhase::Finish: return "finish";
        case TracePhase::Hello: return "hello";
        case TracePhase::Spanning: return "spanning";
        case TracePhase::Cut: return "cut";
        case TracePhase::Minimality: return "minimality";
        case TracePhase::Verdict: return "verdict";
        case TracePhase::kCount: break;
    }
    return "unknown";
}

}  // namespace dmst
