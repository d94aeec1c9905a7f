#ifndef DMST_OBS_EXPORT_H
#define DMST_OBS_EXPORT_H

#include <iosfwd>
#include <string>

#include "dmst/obs/trace.h"

namespace dmst {

// The counters of `group` that RunStats::fields lists, as JSON object
// members in list order, each led by a comma (`,"rounds":12,...`);
// booleans print as true/false. The scenario JSONL, E16 and the Chrome
// trace's totals write their counters through it.
std::string counter_members(const RunStats& stats, CounterGroup group);

// The span-trace exporter: writes stats.trace (which must be set) as
// Chrome-trace JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing, and read by scripts/trace_report.py. One track per
// driver phase plus one for the synchronizer control traffic; spans are
// complete ("X") events on the logical-round timebase (1 round = 1 µs),
// with every field of the span row in args. A "dmst_totals" global event
// carries every counter RunStats::fields lists, so the report tool can
// re-check conservation from the file alone. The table's tag histogram
// stays in memory (TraceTable::validate reads it).
void write_chrome_trace(std::ostream& out, const RunStats& stats);

// Writes the trace to `path`; returns false if the file cannot be opened
// or a write fails (checked after the file is closed, so a full disk is
// reported too).
bool write_chrome_trace_file(const std::string& path, const RunStats& stats);

}  // namespace dmst

#endif  // DMST_OBS_EXPORT_H
