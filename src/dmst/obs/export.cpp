#include "dmst/obs/export.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

namespace dmst {

namespace {

// The listed counters that keep(key, group) selects, as comma-led JSON
// members in list order.
template <typename Keep>
std::string members(const RunStats& stats, Keep&& keep)
{
    std::ostringstream oss;
    oss << std::boolalpha;
    stats.fields([&](const char* key, auto value, CounterGroup group) {
        if (keep(std::string_view(key), group))
            oss << ",\"" << key << "\":" << value;
    });
    return oss.str();
}

}  // namespace

std::string counter_members(const RunStats& stats, CounterGroup group)
{
    return members(stats, [group](std::string_view, CounterGroup g) {
        return g == group;
    });
}

void write_chrome_trace(std::ostream& out, const RunStats& stats)
{
    DMST_ASSERT(stats.trace);
    const TraceTable& table = *stats.trace;
    // Timebase: 1 logical round = 1 µs of trace time; Perfetto renders the
    // dur of each (phase, level) span on its phase's track.
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out << ",";
        first = false;
        out << "\n ";
    };

    constexpr int kSyncTid = 64;  // past every TracePhase value
    bool phase_used[static_cast<int>(TracePhase::kCount)] = {};
    for (const TraceSpan& s : table.spans)
        phase_used[static_cast<int>(s.phase)] = true;
    for (int p = 0; p < static_cast<int>(TracePhase::kCount); ++p) {
        if (!phase_used[p])
            continue;
        sep();
        out << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << p
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << trace_phase_name(static_cast<TracePhase>(p)) << "\"}}";
    }
    if (stats.sync_messages > 0) {
        sep();
        out << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << kSyncTid
            << ",\"name\":\"thread_name\",\"args\":{\"name\":"
               "\"synchronizer\"}}";
    }

    for (const TraceSpan& s : table.spans) {
        const std::uint64_t dur =
            s.last_round >= s.first_round ? s.last_round - s.first_round + 1 : 1;
        sep();
        out << "{\"ph\":\"X\",\"pid\":0,\"tid\":"
            << static_cast<int>(s.phase) << ",\"name\":\""
            << trace_phase_name(s.phase) << "/" << s.level
            << "\",\"ts\":" << s.first_round << ",\"dur\":" << dur
            << ",\"args\":{\"level\":" << s.level
            << ",\"messages\":" << s.messages << ",\"words\":" << s.words
            << ",\"retransmissions\":" << s.retransmissions
            << ",\"drops\":" << s.drops
            << ",\"first_round\":" << s.first_round
            << ",\"last_round\":" << s.last_round
            << ",\"first_vtime\":" << s.first_vtime
            << ",\"last_vtime\":" << s.last_vtime << "}}";
    }

    if (stats.sync_messages > 0) {
        // The synchronizer's own counters (sync_*) are its span's args.
        const std::string sync = members(
            stats, [](std::string_view key, CounterGroup) {
                return key.substr(0, 5) == "sync_";
            });
        sep();
        out << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << kSyncTid
            << ",\"name\":\"sync\",\"ts\":0,\"dur\":"
            << std::max<std::uint64_t>(stats.rounds, 1) << ",\"args\":{"
            << sync.substr(1) << "}}";
    }

    // Every counter rides along as a global instant event so
    // trace_report.py can re-check conservation from the file alone.
    const std::string totals =
        members(stats, [](std::string_view, CounterGroup) { return true; });
    sep();
    out << "{\"ph\":\"I\",\"pid\":0,\"ts\":0,\"s\":\"g\",\"name\":"
           "\"dmst_totals\",\"args\":{"
        << totals.substr(1) << "}}";

    out << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path, const RunStats& stats)
{
    std::ofstream out(path);
    if (!out)
        return false;
    write_chrome_trace(out, stats);
    out.close();
    return static_cast<bool>(out);
}

}  // namespace dmst
