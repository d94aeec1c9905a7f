#ifndef DMST_CONGEST_CONDITIONER_H
#define DMST_CONGEST_CONDITIONER_H

#include <cstdint>
#include <utility>
#include <vector>

#include "dmst/congest/message.h"
#include "dmst/graph/graph.h"

namespace dmst {

// Deterministic adversarial network conditioner for the lock-step engines:
// per-link bandwidth caps and an adversarial inbox permutation, both drawn
// from a seed — never from wall-clock, thread timing, or arrival order —
// so a conditioned run is exactly reproducible and bit-identical across
// the serial and sharded engines under any thread count.
//
// Model. Every logical CONGEST round is still one engine step: the inbox
// of round r+1 holds exactly the messages of round r, which is what keeps
// protocol outputs invariant under conditioning (the acceptance bar of the
// invariance fuzz suite). What changes is observable: per-link bandwidth
// caps throttle the pipelined protocols (more rounds), and the adversarial
// order permutes each inbox. Message delay is not a lock-step concept;
// the event-driven engine's seeded per-message delay draw models it
// (sim/async_network.h), and make_network rejects the conditioner there.
struct ConditionerConfig {
    // Cap each link's bandwidth at a hashed value in [1, b] units,
    // overriding the global NetConfig::bandwidth for that link (no-op at
    // b = 1). Protocols consult Context::bandwidth(port).
    bool hetero_bandwidth = false;
    // Permute every delivered inbox span by a seeded hash of (receiver,
    // logical round) — a delivery-order adversary: protocols may not rely
    // on port-sorted arrival. Per-link FIFO is preserved (see
    // LinkConditioner::permute_span).
    bool adversarial_order = false;
    std::uint64_t seed = 7;

    bool enabled() const { return hetero_bandwidth || adversarial_order; }
};

// Reusable scratch for permute_span (one per serial engine, one per shard
// in the parallel engine, alongside the sort scratch): both buffers grow
// to a high-water mark, keeping the deliver phase allocation-free in
// steady state even under an adversarial-order conditioner.
struct PermuteScratch {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> groups;  // (off, len)
    std::vector<Incoming> tmp;
};

// The seeded per-link assignment, precomputed per edge at construction.
// Engine-independent: nothing here reads engine, shard, or thread state.
class LinkConditioner {
public:
    LinkConditioner() = default;  // disabled

    LinkConditioner(const WeightedGraph& g, const ConditionerConfig& config,
                    int global_bandwidth);

    bool enabled() const { return config_.enabled(); }
    const ConditionerConfig& config() const { return config_; }
    bool adversarial_order() const { return config_.adversarial_order; }

    // Bandwidth cap of edge e in units, in [1, global b].
    int bandwidth_cap(EdgeId e) const
    {
        return cap_.empty() ? global_bandwidth_ : cap_[e];
    }

    // Applies the adversarial delivery permutation to one inbox span: a
    // seeded Fisher-Yates over the per-port groups, keyed by receiver and
    // logical round. Links stay FIFO — the messages one edge carries in a
    // round form one CONGEST packet — but the interleaving across links is
    // adversarial. Must be called on the canonical port-sorted span, which
    // both engines build bit-identically — so the permuted span is
    // bit-identical too.
    void permute_span(Incoming* first, std::size_t n, VertexId receiver,
                      std::uint64_t logical_round,
                      PermuteScratch& scratch) const;

    // SplitMix64 finalizer, the hash behind every per-link draw. Exposed
    // so tests can predict assignments from first principles.
    static std::uint64_t mix(std::uint64_t x);

private:
    ConditionerConfig config_;
    int global_bandwidth_ = 1;
    std::vector<std::uint16_t> cap_;      // per edge; empty unless hetero
};

}  // namespace dmst

#endif  // DMST_CONGEST_CONDITIONER_H
