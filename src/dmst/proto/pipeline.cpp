#include "dmst/proto/pipeline.h"

#include <algorithm>

#include "dmst/congest/codec.h"
#include "dmst/util/assert.h"

namespace dmst {

// ---------------------------------------------------------- DsuCycleFilter

std::size_t DsuCycleFilter::index_of(std::uint64_t group)
{
    auto it = index_.find(group);
    if (it != index_.end())
        return it->second;
    std::size_t idx = used_++;
    index_.emplace(group, idx);
    if (!dsu_ || idx >= dsu_->size()) {
        // Rebuild with doubled capacity, replaying the established unions.
        std::size_t capacity = std::max<std::size_t>(16, (idx + 1) * 2);
        auto grown = std::make_unique<Dsu>(capacity);
        if (dsu_) {
            for (std::size_t i = 0; i < dsu_->size(); ++i)
                grown->unite(i, dsu_->find(i));
        }
        dsu_ = std::move(grown);
    }
    return idx;
}

bool DsuCycleFilter::admits(const PipeRecord& r)
{
    // Resolve both indices before touching dsu_: index_of() may grow it.
    std::size_t a = index_of(r.group);
    std::size_t b = index_of(r.group2);
    return dsu_->find(a) != dsu_->find(b);
}

void DsuCycleFilter::on_emit(const PipeRecord& r)
{
    std::size_t a = index_of(r.group);
    std::size_t b = index_of(r.group2);
    dsu_->unite(a, b);
}

// -------------------------------------------------------- SortedMergeUpcast

SortedMergeUpcast::SortedMergeUpcast(std::uint32_t tag_base,
                                     std::unique_ptr<UpcastFilter> filter)
    : tag_base_(tag_base), filter_(std::move(filter))
{
    DMST_ASSERT(filter_ != nullptr);
}

void SortedMergeUpcast::attach(std::size_t parent_port,
                               std::vector<std::size_t> children_ports)
{
    DMST_ASSERT_MSG(!attached_, "attach() called twice");
    attached_ = true;
    parent_port_ = parent_port;
    children_.reserve(children_ports.size());
    for (std::size_t p : children_ports)
        children_.push_back(ChildStream{p, std::nullopt, false});
}

void SortedMergeUpcast::add_local(const PipeRecord& r)
{
    DMST_ASSERT_MSG(!local_closed_, "add_local() after close_local()");
    buffer_.emplace(pipe_sort_key(r), r);
}

void SortedMergeUpcast::close_local()
{
    local_closed_ = true;
}

Message SortedMergeUpcast::serialize(const PipeRecord& r) const
{
    return encode(tag_record(),
                  PipeRecordMsg{r.key, r.group, r.group2, r.aux});
}

PipeRecord SortedMergeUpcast::deserialize(const Message& m)
{
    auto p = decode<PipeRecordMsg>(m);
    return PipeRecord{p.key, p.group, p.group2, p.aux};
}

bool SortedMergeUpcast::safe_to_emit(const PipeSortKey& k) const
{
    if (!local_closed_)
        return false;
    for (const ChildStream& c : children_) {
        if (c.done)
            continue;
        if (!c.frontier.has_value() || k > *c.frontier)
            return false;  // the child could still deliver something smaller
    }
    return true;
}

void SortedMergeUpcast::on_round(Context& ctx)
{
    // Ingest child records and DONE sentinels.
    for (const Incoming& in : ctx.inbox()) {
        if (!handles(in.msg.tag))
            continue;
        DMST_ASSERT_MSG(attached_, "upcast traffic before attach()");
        auto child = std::find_if(children_.begin(), children_.end(),
                                  [&](const ChildStream& c) {
                                      return c.port == in.port;
                                  });
        DMST_ASSERT_MSG(child != children_.end(),
                        "upcast message from a non-child port");
        if (in.msg.tag == tag_done()) {
            child->done = true;
            continue;
        }
        PipeRecord r = deserialize(in.msg);
        PipeSortKey k = pipe_sort_key(r);
        DMST_ASSERT_MSG(!child->frontier || k > *child->frontier,
                        "child stream not sorted");
        child->frontier = k;
        if (filter_->admits(r))
            buffer_.emplace(k, r);
    }

    if (!attached_)
        return;

    // Emit up to `bandwidth` records, globally smallest first — paced by
    // the parent link's own budget, which a conditioner may cap below b.
    const int budget = parent_port_ != kNoPort ? ctx.bandwidth(parent_port_)
                                               : ctx.bandwidth();
    int sent = 0;
    while (sent < budget && !buffer_.empty()) {
        auto it = buffer_.begin();
        if (!filter_->admits(it->second)) {
            buffer_.erase(it);  // superseded since insertion
            continue;
        }
        if (!safe_to_emit(it->first))
            break;
        if (parent_port_ != kNoPort)
            ctx.send(parent_port_, serialize(it->second));
        else
            delivered_.push_back(it->second);
        filter_->on_emit(it->second);
        buffer_.erase(it);
        ++sent;
    }

    // Propagate exhaustion. The DONE shares the round's record budget so
    // the per-edge word cap is respected.
    if (!done_sent_ && parent_port_ != kNoPort && sent < budget && local_closed_ &&
        buffer_.empty() &&
        std::all_of(children_.begin(), children_.end(),
                    [](const ChildStream& c) { return c.done; })) {
        ctx.send(parent_port_, encode(tag_done(), EmptyMsg{}));
        done_sent_ = true;
    }
}

bool SortedMergeUpcast::idle() const
{
    if (!attached_ || !local_closed_)
        return true;
    // Keys only grow along the buffer, so an unsafe front blocks all of
    // it. A superseded front counts as work: on_round() would drop it.
    if (!buffer_.empty())
        return !safe_to_emit(buffer_.begin()->first);
    return done_sent_ || parent_port_ == kNoPort ||
           !std::all_of(children_.begin(), children_.end(),
                        [](const ChildStream& c) { return c.done; });
}

bool SortedMergeUpcast::finished() const
{
    if (parent_port_ != kNoPort)
        return done_sent_;
    return attached_ && local_closed_ && buffer_.empty() &&
           std::all_of(children_.begin(), children_.end(),
                       [](const ChildStream& c) { return c.done; });
}

}  // namespace dmst
