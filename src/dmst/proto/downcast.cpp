#include "dmst/proto/downcast.h"

#include "dmst/congest/codec.h"
#include "dmst/util/assert.h"

namespace dmst {

void IntervalDowncast::attach(std::uint64_t own_index,
                              std::vector<std::size_t> children_ports,
                              std::vector<Interval> child_intervals)
{
    DMST_ASSERT_MSG(!attached_, "attach() called twice");
    DMST_ASSERT(children_ports.size() == child_intervals.size());
    attached_ = true;
    own_index_ = own_index;
    children_ports_ = std::move(children_ports);
    child_intervals_ = std::move(child_intervals);
    queues_.resize(children_ports_.size());
}

void IntervalDowncast::route(const DownRecord& r)
{
    if (r.target == own_index_) {
        delivered_.push_back(r);
        return;
    }
    for (std::size_t i = 0; i < child_intervals_.size(); ++i) {
        if (child_intervals_[i].contains(r.target)) {
            queues_[i].push_back(r);
            ++queued_;
            return;
        }
    }
    DMST_ASSERT_MSG(false, "downcast target not in any child interval");
}

void IntervalDowncast::inject(const DownRecord& r)
{
    DMST_ASSERT_MSG(attached_, "inject() before attach()");
    route(r);
}

void IntervalDowncast::on_round(Context& ctx)
{
    for (const Incoming& in : ctx.inbox()) {
        if (!handles(in.msg.tag))
            continue;
        DMST_ASSERT_MSG(attached_, "downcast traffic before attach()");
        auto m = decode<DownRecordMsg>(in.msg);
        route(DownRecord{m.target, m.payload});
    }
    if (queued_ == 0)
        return;

    for (std::size_t i = 0; i < queues_.size(); ++i) {
        // Per-link record budget: the conditioner may cap a child edge
        // below the global b.
        const int budget = ctx.bandwidth(children_ports_[i]);
        int sent = 0;
        while (sent < budget && !queues_[i].empty()) {
            const DownRecord& r = queues_[i].front();
            ctx.send(children_ports_[i],
                     encode(tag_base_, DownRecordMsg{r.target, r.payload}));
            queues_[i].pop_front();
            --queued_;
            ++sent;
        }
    }
}

}  // namespace dmst
