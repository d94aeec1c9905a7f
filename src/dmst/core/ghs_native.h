#ifndef DMST_CORE_GHS_NATIVE_H
#define DMST_CORE_GHS_NATIVE_H

#include "dmst/core/controlled_ghs.h"
#include "dmst/core/driver_harness.h"
#include "dmst/graph/graph.h"

namespace dmst {

// Natively asynchronous MST: the classic Gallager–Humblet–Spira algorithm
// (1983) written against the message-driven MessageProcess surface
// (congest/network_base.h) instead of a round schedule. There is no
// per-round logic anywhere in the driver — every transition is a response
// to one arriving message — so it runs unchanged on every engine:
//
//   - on the lock-step engines (serial / parallel / socket) the final
//     on_round adapter replays each round's inbox through the handlers;
//   - on the event-driven engine with AsyncConfig::sync == SyncMode::None
//     it is dispatched per event with per-link FIFO delivery, zero
//     synchronizer traffic (RunStats::sync_messages == 0), and no global
//     barrier of any kind.
//
// Fragments are named by the EdgeKey of their core edge, and every
// weight comparison is an EdgeKey comparison, so edge weights are
// effectively distinct and the MST is the unique one of seq/mst.h: the
// marked edge set is bit-identical across engines, schedules, and every
// (max_delay, event_seed) point — the parity bar tests/test_ghs_native.cpp
// holds it to. The fragment tree (fragment_id = root vertex id,
// parent_port) is a valid orientation of that MST but its root choice
// depends on the merge order, which is schedule-dependent; callers compare
// the edge set and the verifier verdict, not the orientation.
//
// KT0 bootstrap: vertices know ports and weights but not neighbor ids,
// and EdgeKey tie-breaking needs endpoint ids, so on_start exchanges one
// Hello{id} per link and a vertex defers every other message until all
// its Hellos arrived (per-link FIFO guarantees a link's Hello precedes
// its protocol traffic). Message cost stays the classic O(m + n log n).
struct GhsNativeOptions : DriverOptions {};

// Runs GHS to completion and harvests the forest (one fragment per
// connected component; degree-0 vertices halt as singletons). The
// sharded-harvest and partial-result rules are DriverHarness's, as for
// run_controlled_ghs.
MstForestResult run_ghs_native(const WeightedGraph& g,
                               const GhsNativeOptions& opts);

}  // namespace dmst

#endif  // DMST_CORE_GHS_NATIVE_H
