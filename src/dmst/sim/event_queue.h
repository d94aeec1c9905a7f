#ifndef DMST_SIM_EVENT_QUEUE_H
#define DMST_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dmst/util/assert.h"

namespace dmst {

// Batched future-event queue of the async engine (sim/async_network.h),
// ordered by (time, seq): a calendar/timing-wheel queue specialized for the
// engine's bounded-delay discipline, with a binary-heap fallback for
// degenerate delay distributions.
//
// The engine's delays are small integers in [1, max_delay], so every push
// lands in the half-open window (now, now + max_delay] — the textbook
// timing-wheel case. The wheel keeps a power-of-two ring of at least
// max_delay + 1 buckets indexed by time & mask: the live window spans at
// most max_delay distinct times, strictly fewer than the ring size, so no
// two live times ever share a bucket and each bucket is exactly one
// timestamp's batch. push/pop are O(1) per event plus an O(max_delay) ring
// scan per occupied-timestamp lookup; beyond kWheelMaxDelay that scan (and
// the ring's memory) stops paying for itself and the queue degrades to a
// (time, seq) binary min-heap behind the same interface.
//
// Ordering contract (both modes, fuzz-checked against a std::priority_queue
// reference in tests/test_event_queue.cpp): pop_due(t) yields exactly the
// events with time == t, in ascending seq — bit-identical to draining a
// (time, seq) min-heap. Buckets are FIFO, so callers pushing each
// timestamp's events in ascending seq order (the engine numbers each event
// as it pushes it) hit a pre-sorted fast path; out-of-order seqs are
// sorted on pop.
//
// Ev must expose `std::uint64_t time` and `std::uint64_t seq` members and
// be movable; all storage is grow-only, so the steady state allocates
// nothing once at high-water capacity.
template <typename Ev>
class EventQueue {
public:
    enum class Mode { Auto, Wheel, Heap };

    // Delay distributions wider than this fall back to the heap: the wheel
    // ring scan is O(max_delay) per timestamp and its memory O(max_delay)
    // buckets, which degenerates for sparse far-future schedules.
    static constexpr int kWheelMaxDelay = 64;

    explicit EventQueue(int max_delay, Mode mode = Mode::Auto)
        : span_(static_cast<std::uint64_t>(max_delay))
    {
        DMST_ASSERT_MSG(max_delay >= 1, "event queue span must be >= 1");
        wheel_mode_ = mode == Mode::Auto ? max_delay <= kWheelMaxDelay
                                         : mode == Mode::Wheel;
        if (wheel_mode_) {
            std::size_t ring = 1;
            while (ring < static_cast<std::size_t>(max_delay) + 1)
                ring <<= 1;
            mask_ = ring - 1;
            buckets_.resize(ring);
        }
    }

    bool wheel() const { return wheel_mode_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::uint64_t now() const { return now_; }

    // Schedules one event; ev.time must be in (now, now + max_delay] in
    // wheel mode (asserted; the heap accepts any time > now).
    void push(Ev&& ev)
    {
        DMST_ASSERT_MSG(ev.time > now_, "event scheduled in the past");
        if (wheel_mode_) {
            DMST_ASSERT_MSG(ev.time - now_ <= span_,
                            "event scheduled past the wheel window");
            buckets_[ev.time & mask_].push_back(std::move(ev));
        } else {
            heap_.push_back(std::move(ev));
            std::push_heap(heap_.begin(), heap_.end(), after);
        }
        ++size_;
    }

    // Earliest scheduled time; queue must be non-empty.
    std::uint64_t next_time() const
    {
        DMST_ASSERT(size_ > 0);
        if (!wheel_mode_)
            return heap_.front().time;
        for (std::uint64_t t = now_ + 1;; ++t) {
            const std::vector<Ev>& b = buckets_[t & mask_];
            if (!b.empty())
                return b.front().time;
        }
    }

    // Advances the clock to `t` without popping; every queued event must be
    // strictly later (the caller advances idle queues to the global step
    // time so the wheel window stays anchored). Monotone.
    void advance_to(std::uint64_t t)
    {
        DMST_ASSERT(t >= now_);
        DMST_ASSERT(size_ == 0 || next_time() > t);
        now_ = t;
    }

    // Advances the clock to `t` and appends every event with time == t to
    // `out` in ascending seq order; `t` must be the queue's next_time().
    void pop_due(std::uint64_t t, std::vector<Ev>& out)
    {
        DMST_ASSERT(size_ > 0 && next_time() == t);
        now_ = t;
        if (wheel_mode_) {
            std::vector<Ev>& b = buckets_[t & mask_];
            const std::size_t base = out.size();
            for (Ev& ev : b)
                out.push_back(std::move(ev));
            size_ -= b.size();
            b.clear();
            // Callers pushing in seq order (the engine) skip the sort.
            if (!std::is_sorted(out.begin() + base, out.end(), by_seq))
                std::sort(out.begin() + base, out.end(), by_seq);
        } else {
            while (!heap_.empty() && heap_.front().time == t) {
                std::pop_heap(heap_.begin(), heap_.end(), after);
                out.push_back(std::move(heap_.back()));
                heap_.pop_back();
                --size_;
            }
        }
    }

private:
    static bool after(const Ev& a, const Ev& b)
    {
        return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
    static bool by_seq(const Ev& a, const Ev& b) { return a.seq < b.seq; }

    bool wheel_mode_ = true;
    std::uint64_t span_ = 1;
    std::uint64_t now_ = 0;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    std::vector<std::vector<Ev>> buckets_;  // wheel mode; FIFO per time
    std::vector<Ev> heap_;                  // heap mode; (time, seq) min-heap
};

}  // namespace dmst

#endif  // DMST_SIM_EVENT_QUEUE_H
