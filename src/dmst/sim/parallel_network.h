#ifndef DMST_SIM_PARALLEL_NETWORK_H
#define DMST_SIM_PARALLEL_NETWORK_H

#include <exception>
#include <memory>

#include "dmst/congest/network_base.h"
#include "dmst/sim/thread_pool.h"

namespace dmst {

// Sharded multi-threaded round engine. Vertices are partitioned into
// contiguous id ranges (one shard per worker); each synchronous round runs
// in two barrier-separated phases over a persistent ThreadPool, whose
// calling thread (the coordinator) runs shard 0's share itself:
//
//   1. step:    every shard runs on_round() in id order on its vertices
//               that are booked for the round or have mail (its own
//               NetworkBase::ActiveSet lane), resetting each one's
//               bandwidth ledger first and booking its next wakeup after,
//               and stages sends into per-(source shard, destination
//               shard) outboxes;
//   2. deliver: every shard counting-scatters the staged outboxes addressed
//               to it — source shards in ascending order — into its own
//               arena slab, laying out only the targets' spans, then
//               stable-sorts each target span by arrival port.
//
// Determinism: concatenating contiguous source shards in ascending order
// reproduces exactly the (sender id, send order) staging order of the
// serial engine, and the same stable per-port sort then yields bit-identical
// inboxes — so RunStats, process state, and protocol output are identical
// to Network for every shard and thread count. Counters are accumulated
// per shard and merged by the coordinator after each round.
//
// Shards write disjoint regions of the shared arena (and disjoint vertex
// ranges of the span/scratch tables), so the deliver phase needs no
// synchronization beyond the phase barrier; like the serial engine, the
// steady state performs zero per-message heap allocations at bandwidth=1.
// With two barriers per round and rounds of tens of microseconds, the
// barrier sets the engine's speed: ThreadPool's waiters spin on atomics
// before they park, and a pool never runs more workers than the machine
// has CPUs, so with threads above that the shards share the workers
// (thread_pool.h).
//
// A process exception (e.g. a bandwidth violation) is captured per shard
// and rethrown after the phase barrier; when several shards throw in the
// same round, the lowest shard — i.e. the lowest vertex range, matching
// the serial engine's first-thrower — wins.
class ParallelNetwork : public NetworkBase {
public:
    // Worker count comes from config.threads (0 = hardware concurrency).
    // shard_override forces a shard count different from the worker count;
    // results do not depend on it (tests sweep it to prove that).
    ParallelNetwork(const WeightedGraph& g, NetConfig config,
                    int shard_override = 0);

    bool step() override;

    int threads() const { return threads_; }
    int shards() const { return shards_; }

protected:
    void send_from(VertexId from, std::size_t port, Message&& msg) override;

private:
    // Per-shard scratch, cache-line separated: only the owning worker
    // touches it during a phase; the coordinator merges between phases.
    struct alignas(64) ShardState {
        std::vector<StagedBuffer> out;  // by destination shard
        std::vector<Incoming> slab;     // grow-only arena for own vertices
        std::size_t live = 0;           // slots delivered into this round
        std::uint64_t messages = 0;
        std::uint64_t words = 0;
        // Crash-stop counters of this shard's round (failed sends, wedged
        // vertices); folded by the coordinator.
        FaultDelta faults;
        std::vector<std::uint64_t> edge_hist;  // only if record_per_edge
        std::vector<EdgeId> touched_edges;     // edges with edge_hist != 0
        SortScratch sort_scratch;
        ActiveSet active;  // the shard's vertices only
        std::exception_ptr error;
    };

    void run_phase(const std::function<void(int)>& phase);
    void step_shard(int s);
    void deliver_shard(int s);
    void fold_edge_histograms();
    void rethrow_shard_error();

    int threads_ = 1;
    int shards_ = 1;
    std::vector<VertexId> bounds_;  // size shards_+1; shard s = [b[s], b[s+1])
    std::vector<int> shard_of_;     // vertex -> owning shard, O(1) in send_from
    std::vector<ShardState> shard_states_;
    std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1
};

}  // namespace dmst

#endif  // DMST_SIM_PARALLEL_NETWORK_H
