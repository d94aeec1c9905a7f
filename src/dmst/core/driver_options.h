#ifndef DMST_CORE_DRIVER_OPTIONS_H
#define DMST_CORE_DRIVER_OPTIONS_H

#include <cstdint>

#include "dmst/congest/network.h"

namespace dmst {

// Shared engine/substrate knobs of every driver-facing Options struct.
// All five MST drivers (and the verifier) expose the same substrate
// surface — bandwidth, engine selection, conditioning, faults, transport —
// and build the same NetConfig from it; each driver's own knobs (GHS k,
// Elkin root, Borůvka phase cap, ...) live in a thin derived struct.
//
// to_net_config() is the one place the shared fields become a NetConfig,
// including the fault-aware round-budget scaling; drivers layer their
// specific tweaks (record_per_round, forced trace) on the returned value.
struct DriverOptions {
    int bandwidth = 1;  // the b of CONGEST(b log n)
    Engine engine = Engine::Serial;
    int threads = 0;  // parallel engine workers; 0 = hardware concurrency
    // Adversarial network conditioning; output-invariant (see
    // congest/conditioner.h). Lock-step engines only.
    ConditionerConfig conditioner;
    // Event-driven engine configuration (Engine::Async only): delay model
    // plus the synchronizer choice (sync = alpha | beta | none); see
    // sim/async_network.h. Output-invariant for round-programmed drivers.
    AsyncConfig async;
    // Seeded fault injection (congest/faults.h): loss (async only) is
    // output-invariant, crash-stop (lock-step only) degrades a run to a
    // partial result.
    FaultConfig faults;
    // Socket backend parameters (Engine::Socket only). A sharded run
    // returns the local shard's view; the caller merges across ranks.
    SocketConfig socket;
    // Runaway guard in ideal-substrate rounds (0 = the NetConfig default);
    // scaled by the fault retry bound when the async engine drops messages.
    std::uint64_t max_rounds = 0;
    // Record per-edge message counts in stats.messages_per_edge.
    bool record_per_edge = false;
    // Record the per-phase span trace in stats.trace.
    bool trace = false;

    // NetConfig with every shared field filled in and max_rounds scaled
    // for the loss shim.
    NetConfig to_net_config() const;
};

}  // namespace dmst

#endif  // DMST_CORE_DRIVER_OPTIONS_H
