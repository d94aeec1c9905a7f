#ifndef DMST_CONGEST_PAYLOAD_POOL_H
#define DMST_CONGEST_PAYLOAD_POOL_H

#include <cstddef>
#include <memory>
#include <vector>

#include "dmst/congest/message.h"

namespace dmst {

// Grow-only arena of Message slots for the async engine's in-flight
// payloads (sim/async_network.h): a sent payload is moved into a pool slot
// once and travels through the event queue and the synchronizer's pulse
// buffers as a raw slot pointer, so queue and buffer operations shuffle
// 8-byte handles instead of move-constructing a whole Message (inline
// WordBuf and all) at every hop.
//
// Slots live in fixed-size chunks that never relocate, so an outstanding
// pointer stays valid while the owning pool grows. Freed slots recycle
// through a free list; chunks, the chunk table, and the free list all keep
// their high-water capacity, so the warm steady state acquires and
// releases without touching the allocator (pinned by
// tests/test_substrate_alloc.cpp).
class PayloadPool {
public:
    // Moves `msg` into a fresh slot and returns its stable address.
    Message* acquire(Message&& msg)
    {
        Message* slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        } else {
            if (next_ == kChunkSize) {
                chunks_.push_back(std::make_unique<Message[]>(kChunkSize));
                next_ = 0;
            }
            slot = &chunks_.back()[next_++];
        }
        *slot = std::move(msg);
        return slot;
    }

    // Returns a slot to the free list. The slot's payload is expected to
    // have been moved out already; the slot keeps any overflow capacity its
    // WordBuf grew for reuse.
    void release(Message* slot) { free_.push_back(slot); }

    // Slots handed out and not yet released.
    std::size_t live() const
    {
        return (chunks_.empty() ? 0
                                : (chunks_.size() - 1) * kChunkSize + next_) -
               free_.size();
    }

private:
    static constexpr std::size_t kChunkSize = 256;

    std::vector<std::unique_ptr<Message[]>> chunks_;
    std::size_t next_ = kChunkSize;  // cursor into the newest chunk
    std::vector<Message*> free_;
};

}  // namespace dmst

#endif  // DMST_CONGEST_PAYLOAD_POOL_H
