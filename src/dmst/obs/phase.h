#ifndef DMST_OBS_PHASE_H
#define DMST_OBS_PHASE_H

#include <cstdint>

namespace dmst {

// Driver-phase taxonomy of the tracing layer (obs/trace.h). One shared
// enum across all five drivers so traces of different algorithms line up
// in the same report: a span is keyed by (phase, level), where the level
// disambiguates repeated phases (the Controlled-GHS phase index i, the
// Boruvka phase index j); single-shot phases use level 0.
//
// This header is deliberately leaf (no includes beyond <cstdint>): the
// engine substrate (congest/network_base.h) carries TraceConfig in
// NetConfig without pulling in the recorder.
enum class TracePhase : std::uint8_t {
    Init = 0,      // sends outside any driver span (default attribution)
    Bfs,           // BFS-tree construction (the tau tree / verify tau)
    Labeling,      // preorder interval labeling of tau
    Control,       // driver control waves before phase 2 (e.g. START_GHS)
    Ghs,           // Controlled-GHS; level = GHS phase index i
    Registration,  // base-fragment registration convergecast
    Boruvka,       // Boruvka-over-fragments; level = phase index j
    Pipeline,      // pipelined edge upcast of the GKP-style baseline
    Finish,        // termination wave
    Hello,         // verify_mst: port-mark exchange
    Spanning,      // verify_mst: spanning/symmetry/acyclicity snapshot
    Cut,           // verify_mst: cut (connectivity witness) stage
    Minimality,    // verify_mst: token/index minimality stage
    Verdict,       // verify_mst: verdict broadcast
    kCount
};

const char* trace_phase_name(TracePhase phase);

// Tracing options carried by NetConfig. Disabled by default: the engines'
// datapath then pays exactly one null-pointer test per send and performs
// no allocation (the counting-allocator test pins that down).
struct TraceConfig {
    // Implicit from bool on purpose: driver Options inherit NetConfig, and
    // `opts.trace = true` is how callers switch a driver's trace on.
    TraceConfig(bool on = false) : enabled(on) {}

    bool enabled = false;
};

}  // namespace dmst

#endif  // DMST_OBS_PHASE_H
