#ifndef DMST_OBS_EXPORT_H
#define DMST_OBS_EXPORT_H

#include <iosfwd>
#include <string>

#include "dmst/obs/trace.h"

namespace dmst {

// Trace exporters (scripts/trace_report.py understands both formats):
//
//   chrome  Chrome-trace JSON, loadable in Perfetto (ui.perfetto.dev) or
//           chrome://tracing. One track per driver phase plus one for the
//           synchronizer control traffic; spans are complete ("X")
//           events on the logical-round timebase (1 round = 1 µs), with
//           the span row's fields in args. A "dmst_totals" global event
//           carries the RunStats totals so the report tool can re-check
//           conservation from the file alone.
//
//   jsonl   One self-describing JSON object per line: a "total" row, one
//           "span" row per (phase, level) — messages, words, fault-shim
//           retransmissions and drops, first/last round and virtual
//           time — and one "tag" row per codec tag.
//           Lossless: read_trace_jsonl() reconstructs the exact table
//           (the exporter round-trip test relies on that).

void write_chrome_trace(std::ostream& out, const TraceTable& table);
void write_trace_jsonl(std::ostream& out, const TraceTable& table);

// Parses the JSONL format back into a table. Throws std::runtime_error
// on malformed input.
TraceTable read_trace_jsonl(std::istream& in);

// File-opening convenience wrappers; return false if the file cannot be
// opened for writing.
bool write_chrome_trace_file(const std::string& path, const TraceTable& table);
bool write_trace_jsonl_file(const std::string& path, const TraceTable& table);

}  // namespace dmst

#endif  // DMST_OBS_EXPORT_H
