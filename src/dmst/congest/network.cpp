#include "dmst/congest/network.h"

#include <algorithm>

#include "dmst/obs/trace.h"
#include "dmst/util/assert.h"

namespace dmst {

Network::Network(const WeightedGraph& g, NetConfig config)
    : NetworkBase(g, config)
{
    wake_range(active_, 0, static_cast<VertexId>(g.vertex_count()));
}

void Network::send_from(VertexId from, std::size_t port, Message&& msg)
{
    count_send(from, port, msg);
    const VertexId target = graph_.neighbor(from, port);
    if (has_crashes_ && crashed_[target]) {
        // The sender paid (bandwidth, counters, trace) but the target is
        // dead: the message dies on the wire and never enters flight.
        ++fault_delta_.failed_sends;
        return;
    }
    stage(target, static_cast<std::uint32_t>(reverse_port(from, port)),
          std::move(msg));
}

bool Network::step()
{
    DMST_ASSERT_MSG(!processes_.empty(), "init() must be called before stepping");
    if (stalled_ || quiescent())
        return false;
    check_sleep_deadlock(active_.booked);

    ++round_;
    if (has_crashes_)
        apply_crashes();
    step_phase();
    note_round();
    if (has_crashes_)
        fold_fault_delta(fault_delta_);
    deliver_phase();
    return true;
}

void Network::step_phase()
{
    round_messages_ = 0;
    if (trace_)
        trace_->set_now(round_, 0);
    step_active(active_, fault_delta_);
    stats_.activations += active_.activations;
    active_.activations = 0;
    // The inbox was consumed this round; its messages leave flight now
    // even though the arena is only rebuilt by the deliver phase.
    DMST_ASSERT(live_ <= in_flight_);
    in_flight_ -= live_;
    live_ = 0;
}

void Network::deliver_phase()
{
    deliver_staged();
    stats_.rounds = round_;
    if (config_.record_per_round)
        stats_.messages_per_round.push_back(round_messages_);
}

void Network::deliver_staged()
{
    // The arena still holds messages already consumed (and struck from
    // in_flight_) this round; rebuilding it from the staging
    // buffer drops them and delivers the new ones.
    // Grow-only, with geometric headroom: per-round message volume often
    // ramps exponentially (e.g. a spreading wave), and each growth
    // relocates the whole arena, so overshooting halves the relocations.
    if (slab_.size() < staged_.size())
        slab_.resize(std::max(staged_.size(), 2 * slab_.size()));
    live_ = staged_.size();

    // Stable counting scatter by target: staged_ is already in (sender id,
    // send order) because vertices step in id order, so each target's span
    // ends up in exactly the order the seed's per-vertex push_backs did.
    // send_from counted per target as it staged; reset the counts here.
    // Only targets get a span (laid out in first-send order); last
    // delivery's targets go back to empty.
    for (VertexId v : active_.inbox)
        inbox_span_[v] = InboxSpan{};
    active_.inbox.swap(staged_targets_);
    staged_targets_.clear();
    Incoming* base = slab_.data();
    std::size_t cursor = 0;
    for (VertexId v : active_.inbox) {
        inbox_span_[v] = InboxSpan{base + cursor, inbox_count_[v]};
        scatter_off_[v] = cursor;
        cursor += inbox_count_[v];
        inbox_count_[v] = 0;
    }
    staged_.for_each([&](Staged& s) {
        Incoming& slot = base[scatter_off_[s.target]++];
        slot.port = s.port;
        slot.msg = std::move(s.msg);
    });
    staged_.clear();

    for (VertexId v : active_.inbox) {
        const InboxSpan& span = inbox_span_[v];
        sort_span_by_port(span.data, span.len, sort_scratch_);
        maybe_permute_span(v, sort_scratch_);
    }
}

}  // namespace dmst
