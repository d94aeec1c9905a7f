#ifndef DMST_PROTO_PIPELINE_H
#define DMST_PROTO_PIPELINE_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "dmst/congest/network.h"
#include "dmst/graph/graph.h"
#include "dmst/proto/bfs.h"
#include "dmst/util/dsu.h"

namespace dmst {

// One item of a pipelined convergecast: an edge (identified by its EdgeKey)
// plus protocol-defined grouping ids and an auxiliary payload word. In the
// Elkin algorithm a record is "the lightest crossing edge found by base
// fragment `aux` for coarse fragment `group`"; in the GKP Pipeline baseline
// it is an inter-fragment edge with its two base fragment ids.
struct PipeRecord {
    EdgeKey key;
    std::uint64_t group = 0;
    std::uint64_t group2 = 0;
    std::uint64_t aux = 0;
};

// Strict total order used by the sorted streams: (key, group, group2).
using PipeSortKey = std::tuple<EdgeKey, std::uint64_t, std::uint64_t>;

inline PipeSortKey pipe_sort_key(const PipeRecord& r)
{
    return {r.key, r.group, r.group2};
}

// Emission policy: decides which records survive each hop of the upcast.
// admits() must be monotone under emission (once rejected, stays rejected),
// which both provided policies satisfy.
class UpcastFilter {
public:
    virtual ~UpcastFilter() = default;
    virtual bool admits(const PipeRecord& r) = 0;
    virtual void on_emit(const PipeRecord& r) = 0;
};

// Forwards everything (pure pipelining).
class KeepAllFilter : public UpcastFilter {
public:
    bool admits(const PipeRecord&) override { return true; }
    void on_emit(const PipeRecord&) override {}
};

// Forwards only the first (hence lightest) record per group: the per-coarse-
// fragment filtering of the Elkin upcast ("every intermediate vertex u
// forwards only the lightest edge for each fragment").
class GroupMinFilter : public UpcastFilter {
public:
    bool admits(const PipeRecord& r) override { return !emitted_.count(r.group); }
    void on_emit(const PipeRecord& r) override { emitted_.emplace(r.group, true); }

private:
    std::map<std::uint64_t, bool> emitted_;
};

// Forwards only records that join two distinct components of the local
// union-find over group ids: the cycle filter of the GKP Pipeline baseline
// (an edge heaviest on a cycle of already-forwarded edges is dropped).
// Group ids are mapped densely on first use.
class DsuCycleFilter : public UpcastFilter {
public:
    bool admits(const PipeRecord& r) override;
    void on_emit(const PipeRecord& r) override;

private:
    std::size_t index_of(std::uint64_t group);

    std::map<std::uint64_t, std::size_t> index_;
    std::unique_ptr<Dsu> dsu_;  // rebuilt with doubled capacity as needed
    std::size_t used_ = 0;
};

// Pipelined convergecast of sorted record streams over a rooted tree
// ([Pel00] Ch. 3; the workhorse of the Elkin algorithm's phase 2).
//
// Every vertex owns one instance. Local records are injected with
// add_local()/close_local(); each round the component merges its children's
// (sorted) streams with the local ones and emits up to `bandwidth` records
// to the parent in globally sorted order, applying the filter at every hop.
// A record is emitted only when it can no longer be preceded by a smaller
// record from any child (frontier rule), so streams stay sorted. DONE
// sentinels propagate exhaustion; at the root, emitted records accumulate
// in delivered().
//
// Rounds: O(depth + K/b) for K surviving records (measured in experiment
// E8). Messages: one per surviving record per hop, plus one DONE per edge.
class SortedMergeUpcast {
public:
    // Tags used: tag_base + {0 (record), 1 (done)}.
    SortedMergeUpcast(std::uint32_t tag_base, std::unique_ptr<UpcastFilter> filter);

    // Installs the tree position. Must be called before the first record
    // from a child arrives. parent_port == kNoPort makes this the root.
    void attach(std::size_t parent_port, std::vector<std::size_t> children_ports);
    bool attached() const { return attached_; }

    // Local contributions. Nothing is emitted until close_local() is
    // called (a pending local record could be smaller than anything seen).
    void add_local(const PipeRecord& r);
    void close_local();

    void on_round(Context& ctx);

    bool handles(std::uint32_t tag) const
    {
        return tag == tag_base_ || tag == tag_base_ + 1;
    }

    // Non-root: DONE sent. Root: every stream exhausted and drained.
    bool finished() const;

    // Whether on_round() without an upcast message would do nothing: no
    // record is safe to emit and no DONE is due (the owner's sleep
    // contract, Process::next_wakeup).
    bool idle() const;

    // Root only: records that reached the root, in sorted order.
    const std::vector<PipeRecord>& delivered() const { return delivered_; }

private:
    struct ChildStream {
        std::size_t port = 0;
        std::optional<PipeSortKey> frontier;  // empty = nothing received yet
        bool done = false;
    };

    std::uint32_t tag_record() const { return tag_base_; }
    std::uint32_t tag_done() const { return tag_base_ + 1; }

    Message serialize(const PipeRecord& r) const;
    static PipeRecord deserialize(const Message& m);

    bool safe_to_emit(const PipeSortKey& k) const;

    std::uint32_t tag_base_;
    std::unique_ptr<UpcastFilter> filter_;
    bool attached_ = false;
    std::size_t parent_port_ = kNoPort;
    std::vector<ChildStream> children_;
    std::map<PipeSortKey, PipeRecord> buffer_;
    bool local_closed_ = false;
    bool done_sent_ = false;
    std::vector<PipeRecord> delivered_;
};

}  // namespace dmst

#endif  // DMST_PROTO_PIPELINE_H
