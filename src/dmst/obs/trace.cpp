#include "dmst/obs/trace.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "dmst/util/assert.h"

namespace dmst {

// ------------------------------------------------------------- TraceTable

const TraceSpan* TraceTable::find(TracePhase phase, std::int64_t level) const
{
    for (const TraceSpan& s : spans)
        if (s.phase == phase && s.level == level)
            return &s;
    return nullptr;
}

std::uint64_t TraceTable::phase_messages(TracePhase phase) const
{
    std::uint64_t sum = 0;
    for (const TraceSpan& s : spans)
        if (s.phase == phase)
            sum += s.messages;
    return sum;
}

void TraceTable::validate() const
{
    std::uint64_t span_messages = 0, span_words = 0;
    std::uint64_t span_retrans = 0, span_drops = 0;
    for (const TraceSpan& s : spans) {
        span_messages += s.messages;
        span_words += s.words;
        span_retrans += s.retransmissions;
        span_drops += s.drops;
    }
    if (span_retrans != total_retransmissions || span_drops != total_drops) {
        std::ostringstream oss;
        oss << "trace fault conservation violated: spans " << span_retrans
            << " retransmissions / " << span_drops << " drops, RunStats "
            << total_retransmissions << " / " << total_drops;
        throw InvariantViolation(oss.str());
    }
    std::uint64_t tag_messages = 0, tag_words = 0;
    for (const TagCount& t : tags) {
        tag_messages += t.messages;
        tag_words += t.words;
    }
    if (span_messages != total_messages || span_words != total_words ||
        tag_messages != total_messages || tag_words != total_words) {
        std::ostringstream oss;
        oss << "trace conservation violated: spans " << span_messages
            << " msg / " << span_words << " words, tags " << tag_messages
            << " msg / " << tag_words << " words, RunStats "
            << total_messages << " msg / " << total_words << " words;";
        for (const TraceSpan& s : spans)
            oss << " " << trace_phase_name(s.phase) << "/" << s.level << "="
                << s.messages;
        throw InvariantViolation(oss.str());
    }
}

std::string TraceTable::parity_fingerprint() const
{
    std::ostringstream oss;
    for (const TraceSpan& s : spans) {
        oss << trace_phase_name(s.phase) << " " << s.level << " "
            << s.first_round << " " << s.last_round << " " << s.messages
            << " " << s.words << " " << s.instants << "\n";
    }
    return oss.str();
}

// ---------------------------------------------------------- TraceRecorder

TraceRecorder::TraceRecorder(std::size_t vertex_count)
    : span_(vertex_count, span_key(TracePhase::Init, 0))
{
    set_sharding(1, {});
}

void TraceRecorder::set_sharding(int shards, const std::vector<int>& shard_of)
{
    DMST_ASSERT(shards >= 1);
    shard_of_ = shard_of;
    shards_.clear();
    shards_.resize(static_cast<std::size_t>(shards));
    for (Shard& sh : shards_) {
        // Cell 0 is the Init cell: the attribution target of sends made
        // outside any driver span, so conservation holds by construction.
        sh.cells.emplace_back();
        sh.keys.push_back(span_key(TracePhase::Init, 0));
        sh.index.emplace(sh.keys.back(), kInitCell);
    }
}

std::uint32_t TraceRecorder::cell_for(Shard& sh, std::uint64_t key)
{
    // find-then-insert: emplace would allocate its node even on a hit,
    // breaking the warm steady state's zero-allocation contract.
    auto it = sh.index.find(key);
    if (it == sh.index.end()) {
        it = sh.index
                 .emplace(key, static_cast<std::uint32_t>(sh.cells.size()))
                 .first;
        sh.cells.emplace_back();
        sh.keys.push_back(key);
    }
    return it->second;
}

void TraceRecorder::instant(VertexId v, TracePhase phase, std::int64_t level)
{
    Shard& sh = shards_[shard_index(v)];
    SpanCell& cell = sh.cells[cell_for(sh, span_key(phase, level))];
    ++cell.instants;
    cell.touch(sh.now_round, sh.now_tick, sh.now_vtime);
}

std::shared_ptr<const TraceTable> TraceRecorder::finalize(
    const RunStats& stats) const
{
    // Fold the per-shard cells by key. Every fold is commutative
    // (sum/min/max), so the result is independent of shard count and
    // schedule — the basis of the tri-engine parity invariant.
    std::map<std::uint64_t, SpanCell> merged;
    TagHistogram tags;
    for (const Shard& sh : shards_) {
        for (std::size_t i = 0; i < sh.cells.size(); ++i) {
            if (!sh.cells[i].touched())
                continue;
            merged[sh.keys[i]].merge(sh.cells[i]);
        }
        tags.merge(sh.tags);
    }

    auto table = std::make_shared<TraceTable>();
    table->spans.reserve(merged.size());
    for (const auto& [key, cell] : merged) {
        TraceSpan s;
        s.phase = static_cast<TracePhase>(key >> 48);
        s.level = static_cast<std::int64_t>(key & ((std::uint64_t{1} << 48) - 1));
        s.messages = cell.messages;
        s.words = cell.words;
        s.instants = cell.instants;
        s.retransmissions = cell.retransmissions;
        s.drops = cell.drops;
        s.first_round = cell.first_round == SpanCell::kUnset ? 0 : cell.first_round;
        s.last_round = cell.last_round;
        s.first_tick = cell.first_tick == SpanCell::kUnset ? 0 : cell.first_tick;
        s.last_tick = cell.last_tick;
        s.first_vtime = cell.first_vtime == SpanCell::kUnset ? 0 : cell.first_vtime;
        s.last_vtime = cell.last_vtime;
        table->spans.push_back(s);
    }
    for (std::uint32_t t = 0; t < tags.size(); ++t) {
        if (tags.messages(t) == 0)
            continue;
        table->tags.push_back(TagCount{t, tags.messages(t), tags.words(t)});
    }
    table->total_messages = stats.messages;
    table->total_words = stats.words;
    table->total_rounds = stats.rounds;
    table->sync_messages = stats.sync_messages;
    table->sync_words = stats.sync_words;
    table->total_retransmissions = stats.retransmissions;
    table->total_drops = stats.drops;

    // Every traced run self-checks: attribution that does not conserve is
    // a bug in the instrumentation, not a report-time curiosity.
    table->validate();
    return table;
}

}  // namespace dmst
