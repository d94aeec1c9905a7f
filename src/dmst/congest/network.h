#ifndef DMST_CONGEST_NETWORK_H
#define DMST_CONGEST_NETWORK_H

#include "dmst/congest/network_base.h"

namespace dmst {

// Single-threaded reference engine. Deterministic: vertices are stepped in
// id order and messages are delivered in send order per port. The parallel
// engine (sim/parallel_network.h) is defined to be bit-identical to this
// one; when in doubt, this is the model's semantics.
//
// Datapath: sends append to one flat staging vector; the deliver phase
// counting-sorts it by target into the shared inbox arena (stable, so the
// (sender id, send order) staging order is preserved per target) and then
// stable-sorts each target's span by arrival port. Only booked and
// targeted vertices are stepped (NetworkBase::ActiveSet), so a round costs
// O(active vertices + messages). All buffers are reused across rounds —
// no per-message allocation in steady state.
class Network : public NetworkBase {
public:
    Network(const WeightedGraph& g, NetConfig config);

    bool step() override;

protected:
    void send_from(VertexId from, std::size_t port, Message&& msg) override;

private:
    void deliver_staged();

    ActiveSet active_;
    // This round's send targets, in first-send order.
    std::vector<VertexId> staged_targets_;

    StagedBuffer staged_;  // this round's sends, in send order
    std::vector<Incoming> slab_;  // grow-only inbox arena
    std::size_t live_ = 0;        // slots delivered into this round
    SortScratch sort_scratch_;
    std::uint64_t round_messages_ = 0;
    // Crash-stop counters of the current round (failed sends, wedged
    // vertices), folded at the end of each round.
    FaultDelta fault_delta_;
};

}  // namespace dmst

#endif  // DMST_CONGEST_NETWORK_H
