#include "dmst/obs/export.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

namespace dmst {

void write_chrome_trace(std::ostream& out, const TraceTable& table)
{
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
    if (table.sync_messages > 0) {
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

    if (table.sync_messages > 0) {
        sep();
        out << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << kSyncTid
            << ",\"name\":\"sync\",\"ts\":0,\"dur\":"
            << std::max<std::uint64_t>(table.total_rounds, 1)
            << ",\"args\":{\"sync_messages\":" << table.sync_messages
            << ",\"sync_words\":" << table.sync_words << "}}";
    }

    // Totals ride along as a global instant event so trace_report.py can
    // re-check conservation from the exported file alone.
    sep();
    out << "{\"ph\":\"I\",\"pid\":0,\"ts\":0,\"s\":\"g\",\"name\":"
           "\"dmst_totals\",\"args\":{\"messages\":"
        << table.total_messages << ",\"words\":" << table.total_words
        << ",\"rounds\":" << table.total_rounds
        << ",\"sync_messages\":" << table.sync_messages
        << ",\"sync_words\":" << table.sync_words
        << ",\"retransmissions\":" << table.total_retransmissions
        << ",\"drops\":" << table.total_drops << "}}";

    out << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path, const TraceTable& table)
{
    std::ofstream out(path);
    if (!out)
        return false;
    write_chrome_trace(out, table);
    out.close();
    return static_cast<bool>(out);
}

}  // namespace dmst
