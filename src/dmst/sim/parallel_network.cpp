#include "dmst/sim/parallel_network.h"

#include <algorithm>

#include "dmst/obs/trace.h"
#include "dmst/util/assert.h"

namespace dmst {

ParallelNetwork::ParallelNetwork(const WeightedGraph& g, NetConfig config,
                                 int shard_override)
    : NetworkBase(g, config)
{
    threads_ = resolve_threads(config_.threads);
    shards_ = shard_override > 0 ? shard_override : threads_;

    const std::size_t n = graph_.vertex_count();
    bounds_.resize(static_cast<std::size_t>(shards_) + 1);
    for (int s = 0; s <= shards_; ++s)
        bounds_[s] = static_cast<VertexId>(
            n * static_cast<std::size_t>(s) / static_cast<std::size_t>(shards_));

    shard_of_.resize(n);
    for (int s = 0; s < shards_; ++s)
        for (VertexId v = bounds_[s]; v < bounds_[s + 1]; ++v)
            shard_of_[v] = s;

    shard_states_.resize(static_cast<std::size_t>(shards_));
    for (auto& st : shard_states_) {
        st.out.resize(static_cast<std::size_t>(shards_));
        if (config_.record_per_edge)
            st.edge_hist.assign(graph_.edge_count(), 0);
    }

    for (int s = 0; s < shards_; ++s)
        wake_range(shard_states_[static_cast<std::size_t>(s)].active,
                   bounds_[s], bounds_[s + 1]);

    if (threads_ > 1)
        pool_ = std::make_unique<ThreadPool>(threads_);

    // Per-shard trace tables: each worker records into its own shard's
    // cells (routed by shard_of_), folded at finalize only — the same
    // no-synchronization discipline as the counters above.
    if (trace_)
        trace_->set_sharding(shards_, shard_of_);
}

void ParallelNetwork::run_phase(const std::function<void(int)>& phase)
{
    if (pool_) {
        pool_->run_jobs(shards_, phase);
    } else {
        for (int s = 0; s < shards_; ++s)
            phase(s);
    }
}

void ParallelNetwork::rethrow_shard_error()
{
    for (int s = 0; s < shards_; ++s) {
        if (shard_states_[s].error) {
            std::exception_ptr err = shard_states_[s].error;
            for (auto& st : shard_states_)
                st.error = nullptr;
            std::rethrow_exception(err);
        }
    }
}

void ParallelNetwork::send_from(VertexId from, std::size_t port, Message&& msg)
{
    const std::size_t size = msg.size_words();
    charge_bandwidth(from, port, size);

    ShardState& st = shard_states_[static_cast<std::size_t>(shard_of_[from])];
    VertexId target = graph_.neighbor(from, port);
    if (trace_)
        trace_->on_send(from, msg.tag, size);
    if (config_.record_per_edge) {
        EdgeId e = graph_.edge_id(from, port);
        if (st.edge_hist[e]++ == 0)
            st.touched_edges.push_back(e);
    }
    ++st.messages;
    st.words += size;
    if (has_crashes_ && crashed_[target]) {
        // Same contract as the serial engine: the sender paid, the
        // message dies on the wire and never enters flight.
        ++st.faults.failed_sends;
        return;
    }
    st.out[static_cast<std::size_t>(shard_of_[target])].emplace(
        target, static_cast<std::uint32_t>(reverse_port(from, port)),
        std::move(msg));
}

void ParallelNetwork::step_shard(int s)
{
    try {
        ShardState& st = shard_states_[static_cast<std::size_t>(s)];
        step_active(st.active, st.faults);
    } catch (...) {
        shard_states_[static_cast<std::size_t>(s)].error =
            std::current_exception();
    }
}

void ParallelNetwork::deliver_shard(int s)
{
    ShardState& st = shard_states_[static_cast<std::size_t>(s)];
    try {
        // Size this shard's own arena; growth happens on the worker, so
        // each shard faults-in and fills only its own memory.
        std::size_t total = 0;
        for (int t = 0; t < shards_; ++t)
            total += shard_states_[static_cast<std::size_t>(t)]
                         .out[static_cast<std::size_t>(s)]
                         .size();
        if (st.slab.size() < total)
            st.slab.resize(std::max(total, 2 * st.slab.size()));
        st.live = total;

        // Count staged messages per target vertex of this shard, listing
        // the targets; last delivery's targets go back to empty spans.
        for (VertexId v : st.active.inbox)
            inbox_span_[v] = InboxSpan{};
        st.active.inbox.clear();
        for (int t = 0; t < shards_; ++t)
            shard_states_[static_cast<std::size_t>(t)]
                .out[static_cast<std::size_t>(s)]
                .for_each([&](const Staged& m) {
                    if (inbox_count_[m.target]++ == 0)
                        st.active.inbox.push_back(m.target);
                });

        // Lay the targets out contiguously within the shard's slab.
        Incoming* base = st.slab.data();
        std::size_t cursor = 0;
        for (VertexId v : st.active.inbox) {
            inbox_span_[v] = InboxSpan{base + cursor, inbox_count_[v]};
            scatter_off_[v] = cursor;
            cursor += inbox_count_[v];
            inbox_count_[v] = 0;
        }

        // Stable scatter: source shards in ascending order reproduce the
        // serial staging order (sender id, send order) per target.
        for (int t = 0; t < shards_; ++t) {
            auto& box = shard_states_[static_cast<std::size_t>(t)]
                            .out[static_cast<std::size_t>(s)];
            box.for_each([&](Staged& m) {
                Incoming& slot = base[scatter_off_[m.target]++];
                slot.port = m.port;
                slot.msg = std::move(m.msg);
            });
            box.clear();
        }

        for (VertexId v : st.active.inbox) {
            const InboxSpan& span = inbox_span_[v];
            sort_span_by_port(span.data, span.len, st.sort_scratch);
            maybe_permute_span(v, st.sort_scratch);
        }
    } catch (...) {
        st.error = std::current_exception();
    }
}

void ParallelNetwork::fold_edge_histograms()
{
    // Coordinator-only (between phase barriers). Each shard lists the
    // edges it touched this round, so the fold is O(sends), not O(m).
    for (auto& st : shard_states_) {
        for (EdgeId e : st.touched_edges) {
            stats_.messages_per_edge[e] += st.edge_hist[e];
            st.edge_hist[e] = 0;
        }
        st.touched_edges.clear();
    }
}

bool ParallelNetwork::step()
{
    DMST_ASSERT_MSG(!processes_.empty(), "init() must be called before stepping");
    if (stalled_ || quiescent())
        return false;
    std::uint64_t booked = 0;
    for (const ShardState& st : shard_states_)
        booked += st.active.booked;
    check_sleep_deadlock(booked);

    ++round_;
    if (has_crashes_)
        apply_crashes();
    if (trace_)
        trace_->set_now(round_, 0);
    run_phase([this](int s) { step_shard(s); });
    rethrow_shard_error();

    // The arena contents delivered last round are exactly the messages
    // consumed this round; the deliver phase below overwrites them
    // shard-locally.
    std::uint64_t consumed = 0;
    for (auto& st : shard_states_) {
        consumed += st.live;
        st.live = 0;
    }
    DMST_ASSERT(consumed <= in_flight_);
    in_flight_ -= consumed;

    // Merge the shard counters on the coordinator, between phases. Failed
    // sends (dead targets) never enter flight.
    std::uint64_t sent = 0;
    std::uint64_t staged = 0;
    for (auto& st : shard_states_) {
        sent += st.messages;
        staged += st.messages - st.faults.failed_sends;
        stats_.messages += st.messages;
        stats_.words += st.words;
        stats_.activations += st.active.activations;
        st.messages = 0;
        st.words = 0;
        st.active.activations = 0;
        if (has_crashes_)
            fold_fault_delta(st.faults);
    }
    in_flight_ += staged;
    note_round();
    if (config_.record_per_edge)
        fold_edge_histograms();

    run_phase([this](int s) { deliver_shard(s); });
    rethrow_shard_error();

    stats_.rounds = round_;
    if (config_.record_per_round)
        stats_.messages_per_round.push_back(sent);
    return true;
}

}  // namespace dmst
