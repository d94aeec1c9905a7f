#ifndef DMST_PROTO_DOWNCAST_H
#define DMST_PROTO_DOWNCAST_H

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "dmst/congest/network.h"
#include "dmst/proto/bfs.h"

namespace dmst {

// Half-open routing interval [lo, hi) of preorder indices.
struct Interval {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool contains(std::uint64_t x) const { return lo <= x && x < hi; }
    std::uint64_t size() const { return hi - lo; }
};

// A point-to-point message routed down a preorder-labelled tree. `target`
// is the preorder index of the destination vertex.
struct DownRecord {
    std::uint64_t target = 0;
    std::array<std::uint64_t, 4> payload{};
};

// Pipelined interval-routed downcast ("each such message (F, F') has the
// destination interval I(rt_F) attached to it, and is routed along the
// unique rt-rt_F path in τ"). The root injects records; every vertex
// forwards each record to the unique child whose interval contains the
// target, at most `bandwidth` records per child edge per round. Note that
// this sends each message only along its own root-destination path rather
// than broadcasting it — ablation E10b quantifies the message savings.
class IntervalDowncast {
public:
    explicit IntervalDowncast(std::uint32_t tag_base) : tag_base_(tag_base) {}

    // Installs this vertex's preorder index and its children's intervals
    // (parallel arrays). Must be called before traffic arrives.
    void attach(std::uint64_t own_index, std::vector<std::size_t> children_ports,
                std::vector<Interval> child_intervals);
    bool attached() const { return attached_; }

    // Enqueues a record for routing from this vertex (typically the root).
    void inject(const DownRecord& r);

    void on_round(Context& ctx);

    bool handles(std::uint32_t tag) const { return tag == tag_base_; }

    // Records addressed to this vertex, in arrival order.
    const std::vector<DownRecord>& delivered() const { return delivered_; }

    // No queued records at this vertex (global quiescence is the owner's
    // concern: receivers act on delivery, so no barrier is needed).
    bool idle() const { return queued_ == 0; }

private:
    void route(const DownRecord& r);

    std::uint32_t tag_base_;
    bool attached_ = false;
    std::uint64_t own_index_ = 0;
    std::vector<std::size_t> children_ports_;
    std::vector<Interval> child_intervals_;
    std::vector<std::deque<DownRecord>> queues_;  // per child
    // Records waiting in queues_, so an idle round skips the queue scan.
    std::size_t queued_ = 0;
    std::vector<DownRecord> delivered_;
};

}  // namespace dmst

#endif  // DMST_PROTO_DOWNCAST_H
