#include "dmst/obs/export.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dmst {

namespace {

TracePhase parse_trace_phase(const std::string& name)
{
    for (int p = 0; p < static_cast<int>(TracePhase::kCount); ++p) {
        TracePhase ph = static_cast<TracePhase>(p);
        if (name == trace_phase_name(ph))
            return ph;
    }
    throw std::runtime_error("unknown trace phase '" + name + "'");
}

// Minimal field extraction from one flat JSON object line of our own
// emitter (numbers and plain strings only — the format is fixed, this is
// not a general JSON parser).
bool find_raw(const std::string& line, const std::string& key,
              std::string& out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    std::size_t i = at + needle.size();
    std::size_t end = i;
    while (end < line.size() && line[end] != ',' && line[end] != '}')
        ++end;
    out = line.substr(i, end - i);
    return true;
}

std::uint64_t get_u64(const std::string& line, const std::string& key)
{
    std::string raw;
    if (!find_raw(line, key, raw))
        throw std::runtime_error("trace jsonl: missing field '" + key +
                                 "' in: " + line);
    return std::stoull(raw);
}

// Fields added after the format's first release (the fault counters) are
// read permissively so older trace files stay loadable.
std::uint64_t get_u64_or(const std::string& line, const std::string& key,
                         std::uint64_t fallback)
{
    std::string raw;
    if (!find_raw(line, key, raw))
        return fallback;
    return std::stoull(raw);
}

std::string get_string(const std::string& line, const std::string& key)
{
    std::string raw;
    if (!find_raw(line, key, raw) || raw.size() < 2 || raw.front() != '"' ||
        raw.back() != '"')
        throw std::runtime_error("trace jsonl: missing string field '" + key +
                                 "' in: " + line);
    return raw.substr(1, raw.size() - 2);
}

void span_args_json(std::ostream& out, const TraceSpan& s)
{
    out << "\"messages\":" << s.messages << ",\"words\":" << s.words
        << ",\"retransmissions\":" << s.retransmissions
        << ",\"drops\":" << s.drops
        << ",\"first_round\":" << s.first_round
        << ",\"last_round\":" << s.last_round
        << ",\"first_vtime\":" << s.first_vtime
        << ",\"last_vtime\":" << s.last_vtime;
}

}  // namespace

void write_trace_jsonl(std::ostream& out, const TraceTable& table)
{
    out << "{\"type\":\"total\",\"messages\":" << table.total_messages
        << ",\"words\":" << table.total_words
        << ",\"rounds\":" << table.total_rounds
        << ",\"sync_messages\":" << table.sync_messages
        << ",\"sync_words\":" << table.sync_words
        << ",\"retransmissions\":" << table.total_retransmissions
        << ",\"drops\":" << table.total_drops << "}\n";
    for (const TraceSpan& s : table.spans) {
        out << "{\"type\":\"span\",\"phase\":\"" << trace_phase_name(s.phase)
            << "\",\"level\":" << s.level << ",";
        span_args_json(out, s);
        out << "}\n";
    }
    for (const TagCount& t : table.tags)
        out << "{\"type\":\"tag\",\"tag\":" << t.tag
            << ",\"messages\":" << t.messages << ",\"words\":" << t.words
            << "}\n";
}

TraceTable read_trace_jsonl(std::istream& in)
{
    TraceTable table;
    bool saw_total = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const std::string type = get_string(line, "type");
        if (type == "total") {
            table.total_messages = get_u64(line, "messages");
            table.total_words = get_u64(line, "words");
            table.total_rounds = get_u64(line, "rounds");
            table.sync_messages = get_u64(line, "sync_messages");
            table.sync_words = get_u64(line, "sync_words");
            table.total_retransmissions = get_u64_or(line, "retransmissions", 0);
            table.total_drops = get_u64_or(line, "drops", 0);
            saw_total = true;
        } else if (type == "span") {
            TraceSpan s;
            s.phase = parse_trace_phase(get_string(line, "phase"));
            s.level = static_cast<std::int64_t>(get_u64(line, "level"));
            s.messages = get_u64(line, "messages");
            s.words = get_u64(line, "words");
            s.retransmissions = get_u64_or(line, "retransmissions", 0);
            s.drops = get_u64_or(line, "drops", 0);
            s.first_round = get_u64(line, "first_round");
            s.last_round = get_u64(line, "last_round");
            s.first_vtime = get_u64(line, "first_vtime");
            s.last_vtime = get_u64(line, "last_vtime");
            table.spans.push_back(s);
        } else if (type == "tag") {
            TagCount t;
            t.tag = static_cast<std::uint32_t>(get_u64(line, "tag"));
            t.messages = get_u64(line, "messages");
            t.words = get_u64(line, "words");
            table.tags.push_back(t);
        } else {
            throw std::runtime_error("trace jsonl: unknown row type '" + type +
                                     "'");
        }
    }
    if (!saw_total)
        throw std::runtime_error("trace jsonl: no total row");
    return table;
}

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
            << ",\"args\":{\"level\":" << s.level << ",";
        span_args_json(out, s);
        out << "}}";
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
    return static_cast<bool>(out);
}

bool write_trace_jsonl_file(const std::string& path, const TraceTable& table)
{
    std::ofstream out(path);
    if (!out)
        return false;
    write_trace_jsonl(out, table);
    return static_cast<bool>(out);
}

}  // namespace dmst
