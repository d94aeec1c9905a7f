#ifndef DMST_CONGEST_NETWORK_H
#define DMST_CONGEST_NETWORK_H

#include "dmst/congest/network_base.h"
#include "dmst/obs/trace.h"

namespace dmst {

// Single-threaded reference engine. Deterministic: vertices are stepped in
// id order and messages are delivered in send order per port. The parallel
// engine (sim/parallel_network.h) is defined to be bit-identical to this
// one; when in doubt, this is the model's semantics. The socket engine
// (net/socket_network.h) is this engine plus a wire: it derives from it,
// steps its rank's block through the same lane and stages its remote
// arrivals into the same buffer between the step and deliver phases.
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

    // The halves of one send. count_send charges the bandwidth ledger and
    // counts the send (trace, per-edge histogram, round and run totals);
    // stage queues it for `target` at `port` for this round's deliver
    // phase and puts it in flight.
    void count_send(VertexId from, std::size_t port, const Message& msg)
    {
        const std::size_t size = msg.size_words();
        charge_bandwidth(from, port, size);
        if (trace_)
            trace_->on_send(from, msg.tag, size);
        if (config_.record_per_edge)
            ++stats_.messages_per_edge[graph_.edge_id(from, port)];
        ++round_messages_;
        stats_.messages += 1;
        stats_.words += size;
    }
    void stage(VertexId target, std::uint32_t port, Message&& msg)
    {
        if (inbox_count_[target]++ == 0)  // reset by deliver_staged
            staged_targets_.push_back(target);
        staged_.emplace(target, port, std::move(msg));
        ++in_flight_;
    }
    std::size_t staged_count() const { return staged_.size(); }

    // The two phases of a round (round_ already bumped). step_phase steps
    // the round's vertices and retires the inbox they consumed;
    // deliver_phase turns the staged sends into next round's inboxes and
    // closes the round's counters.
    void step_phase();
    void deliver_phase();

    ActiveSet active_;

private:
    void deliver_staged();

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
