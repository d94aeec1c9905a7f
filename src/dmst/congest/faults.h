#ifndef DMST_CONGEST_FAULTS_H
#define DMST_CONGEST_FAULTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "dmst/congest/conditioner.h"
#include "dmst/graph/graph.h"

namespace dmst {

// Deterministic fault-injection layer (docs/FAULTS.md): seeded per-link
// message loss behind a reliable-delivery shim on the event-driven engine,
// and crash-stop vertex failures with graceful degradation on the lock-step
// engines. Like the conditioner, every draw is hashed from seeds — never
// from wall clock, thread timing, or arrival order — so a faulted run
// replays bit-identically under any thread count.
//
// Loss model (Engine::Async only; make_network rejects drop_rate > 0 on
// the lock-step engines, whose synchronous rounds have no time for a loss
// to cost). Each protocol send becomes a shim *transmission plan*: data
// attempt k is lost iff a seeded per-(link, direction) draw says so, the
// receiver ACKs every data arrival, a lost data or ACK transmission fires
// the sender's retransmission timer (capped exponential backoff on top of
// the round-trip time), and attempt kMaxAttempts always succeeds — a
// bounded adversary, so delivery is guaranteed and the protocols run
// unmodified. The plan's wait until the first successful data arrival
// rides the payload's event delay, so loss changes the interleaving and
// the virtual clock but never the payload a process reads: MST outputs and
// verdicts are invariant for every (loss_seed, drop_rate) point (the
// invariance fuzz bar). The α-synchronizer's own link-level ACK doubles as
// the shim ACK.
//
// Crash model (lock-step engines only; make_network rejects crashes on
// the async engine). A crash point (vertex, round) stops that vertex at
// the start of logical round `round`: it executes no further on_round,
// and sends addressed to it fail (counted in RunStats::failed_sends). A
// run that goes silent — no live sends, nothing in flight, not quiescent
// — for 2n + 64 consecutive rounds (past any round-programmed quiet
// window of the drivers) ends gracefully with RunStats::stalled set, and
// the drivers harvest a partial forest from the frozen per-vertex state.
struct CrashPoint {
    VertexId vertex = 0;
    // The first logical round the vertex does NOT execute. Round 1 is the
    // first round of a run, so round = 1 crashes the vertex from the start.
    std::uint64_t round = 1;
};

struct FaultConfig {
    // Per-transmission loss probability in [0, 1); 0 disables the loss
    // shim entirely (the exact no-op the drop_rate = 0 grid points pin).
    double drop_rate = 0.0;
    // Transmissions on one (link, direction) share a loss draw in windows
    // of this many consecutive attempts: burst_len > 1 yields bursty
    // losses, 1 is i.i.d. per attempt.
    int burst_len = 1;
    std::uint64_t loss_seed = 11;
    // Crash-stop schedule, applied in (round, vertex) order.
    std::vector<CrashPoint> crashes;
    // Graceful degradation: a stalled run (see the crash model above)
    // finishes with RunStats::stalled instead of throwing
    // InvariantViolation. Stall detection is armed only when crashes are
    // configured — the loss shim alone cannot stall.
    bool graceful = true;

    // The shim's link latencies on the async engine, whose seeded event
    // delay models the wire: one hop is one virtual-time unit, so an ACK
    // completes a round trip in 2.
    static constexpr std::uint64_t kOneWay = 1;
    static constexpr std::uint64_t kRtt = 2 * kOneWay;
    // Retransmission timer of attempt k: RTT + min(kRtoBase << (k-1),
    // kRtoCap) virtual-time units. The RTT term keeps the timer from
    // firing before the ACK could possibly arrive, so every retransmission
    // corresponds to a real loss — the invariant paper_gates' loss-* rows
    // gate overhead against.
    static constexpr std::uint64_t kRtoBase = 2;
    static constexpr std::uint64_t kRtoCap = 64;
    // Bounded adversary: attempt kMaxAttempts (data and ACK both) always
    // succeeds, so shim delivery is guaranteed in bounded time.
    static constexpr int kMaxAttempts = 8;

    bool loss_enabled() const { return drop_rate > 0.0; }
    bool crash_enabled() const { return !crashes.empty(); }
    bool enabled() const { return loss_enabled() || crash_enabled(); }

    // Full retransmission timer of attempt k (1-based), in virtual time.
    static std::uint64_t rto(int attempt, std::uint64_t rtt);

    // Upper bound on the virtual time one shim plan can take: the
    // completion time of a plan that loses every droppable attempt. 1 when loss is off. Sizes the async
    // event queue's span and the round budget below.
    std::uint64_t worst_round_ticks() const;
};

// Fault-aware round budget: `ideal` rounds of the ideal substrate, scaled
// by worst_round_ticks — under loss the async engine's native clock (and
// with it run()'s runaway guard) stretches with every retransmission wait.
std::uint64_t scaled_round_budget(std::uint64_t ideal_rounds,
                                  const FaultConfig& faults);

// Crash-spec grammar shared by the CLI surfaces: "v@r[+v@r...]" (vertex v
// crashes at logical round r), or "none"/"" for no crashes. Throws
// std::invalid_argument on malformed specs.
std::vector<CrashPoint> parse_crash_spec(const std::string& spec);
std::string crash_spec_string(const std::vector<CrashPoint>& crashes);

// `count` distinct seeded crash points with rounds in [1, max_round],
// hashed from `seed` — the fuzz suites' crash schedules.
std::vector<CrashPoint> seeded_crashes(std::size_t n, std::size_t count,
                                       std::uint64_t max_round,
                                       std::uint64_t seed);

// The shim's verdict on one protocol send: how many data transmissions it
// took, when the first copy reaches the receiver, when the sender holds
// the ACK, and the counter deltas. Offsets are in virtual time from the
// send.
struct FaultPlan {
    std::uint64_t delivery = 0;    // first successful data arrival
    std::uint32_t attempts = 1;    // data transmissions performed
    std::uint64_t drops = 0;       // data + ACK transmissions lost
    std::uint64_t retransmissions = 0;  // attempts - 1
    std::uint64_t acks = 0;        // ACKs the receiver generated
    std::uint64_t timeouts = 0;    // retransmission timer expiries
};

// The seeded per-link loss assignment and shim planner. Engine-independent
// and pure: a plan is a function of (config, edge, direction, attempt
// counter) alone — nothing here reads engine, shard, or
// thread state. The caller owns the per-(link, direction) attempt counter
// (the burst-window clock) and must advance it in a deterministic order;
// the async engine keys it by sender (vertex, port).
class LinkFaults {
public:
    LinkFaults() = default;  // disabled

    // Validates the config against the graph (crash vertices in range,
    // drop_rate in [0, 1), positive burst length); throws
    // std::invalid_argument on violation.
    LinkFaults(const WeightedGraph& g, FaultConfig config);

    bool enabled() const { return config_.enabled(); }
    bool loss_enabled() const { return config_.loss_enabled(); }
    bool crash_enabled() const { return config_.crash_enabled(); }
    const FaultConfig& config() const { return config_; }

    // Plans one transmission on (edge, direction): walks the
    // attempt/timeout recurrence until an ACK completes (guaranteed by
    // attempt kMaxAttempts), consuming one attempt-counter step per data
    // attempt. Hops take FaultConfig::kOneWay.
    FaultPlan plan_transmission(EdgeId e, int direction,
                                std::uint64_t& attempt_counter) const;

    // The seeded loss draw behind the planner — domain 0 = data, 1 = ACK —
    // exposed so tests can predict plans from first principles.
    static bool transmission_lost(const FaultConfig& config, EdgeId e,
                                  int direction, int domain,
                                  std::uint64_t window);

private:
    FaultConfig config_;
};

}  // namespace dmst

#endif  // DMST_CONGEST_FAULTS_H
