#ifndef DMST_CONGEST_MESSAGE_H
#define DMST_CONGEST_MESSAGE_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <stdexcept>

namespace dmst {

// Words per bandwidth unit (the "O(log n) bits" of the standard model): the
// per-edge budget the engines charge, not a storage size (see WordBuf).
constexpr std::size_t kWordsPerUnit = 16;

// Small-buffer payload storage for CONGEST messages.
//
// kInlineCapacity is a storage size, not a bandwidth: it is the width of the
// widest codec payload (VerifySnapshotMsg, 6 words), and codec.h's encode()
// static_asserts that every payload fits. So every message of every
// protocol in this library is stored inline and a send is a fixed-size
// copy, never a malloc; with the size and capacity words a Message is one
// 64-byte cache line. Wider payloads (only raw messages, possible under
// bandwidth > 1) take an explicit heap overflow path: the inline array's
// bytes then hold the heap pointer. Correctness is identical; only the
// zero-allocation property is waived for those messages.
//
// The interface is the subset of std::vector the protocols use: size/empty,
// at (bounds-checked), operator[], data, begin/end, push_back, clear.
class WordBuf {
public:
    static constexpr std::size_t kInlineCapacity = 6;

    WordBuf() = default;

    WordBuf(std::initializer_list<std::uint64_t> init)
    {
        for (std::uint64_t w : init)
            push_back(w);
    }

    WordBuf(const WordBuf& other) { copy_from(other); }

    WordBuf(WordBuf&& other) noexcept { steal_from(other); }

    WordBuf& operator=(const WordBuf& other)
    {
        if (this != &other) {
            release();
            copy_from(other);
        }
        return *this;
    }

    WordBuf& operator=(WordBuf&& other) noexcept
    {
        if (this != &other) {
            release();
            steal_from(other);
        }
        return *this;
    }

    ~WordBuf() { release(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }
    bool overflowed() const { return cap_ > kInlineCapacity; }

    const std::uint64_t* data() const
    {
        return overflowed() ? store_.heap : store_.words;
    }
    std::uint64_t* data() { return overflowed() ? store_.heap : store_.words; }

    const std::uint64_t* begin() const { return data(); }
    const std::uint64_t* end() const { return data() + size_; }

    std::uint64_t operator[](std::size_t i) const { return data()[i]; }
    std::uint64_t& operator[](std::size_t i) { return data()[i]; }

    std::uint64_t at(std::size_t i) const
    {
        if (i >= size_)
            throw std::out_of_range("WordBuf::at: index out of range");
        return data()[i];
    }

    void push_back(std::uint64_t w)
    {
        if (size_ == cap_)
            grow();
        data()[size_++] = w;
    }

    void clear() { size_ = 0; }

    friend bool operator==(const WordBuf& x, const WordBuf& y)
    {
        return x.size_ == y.size_ &&
               std::equal(x.begin(), x.end(), y.begin());
    }
    friend bool operator!=(const WordBuf& x, const WordBuf& y) { return !(x == y); }

private:
    // An inline copy takes the whole fixed-size array, so it compiles to a
    // few register moves instead of a length-dependent memcpy.
    void copy_from(const WordBuf& other)
    {
        size_ = other.size_;
        cap_ = other.cap_;
        if (other.overflowed()) {
            store_.heap = new std::uint64_t[cap_];
            std::memcpy(store_.heap, other.store_.heap,
                        size_ * sizeof(std::uint64_t));
        } else {
            store_ = other.store_;
        }
    }

    // Takes the inline words or the heap pointer with one union copy.
    void steal_from(WordBuf& other) noexcept
    {
        size_ = other.size_;
        cap_ = other.cap_;
        store_ = other.store_;
        other.size_ = 0;
        other.cap_ = kInlineCapacity;
    }

    void release() noexcept
    {
        if (overflowed())
            delete[] store_.heap;
        size_ = 0;
        cap_ = kInlineCapacity;
    }

    // Overflow path: spills to a doubled heap buffer. Reached only by
    // payloads wider than every codec payload.
    void grow()
    {
        std::size_t new_cap = cap_ * 2;
        auto* grown = new std::uint64_t[new_cap];
        std::memcpy(grown, data(), size_ * sizeof(std::uint64_t));
        if (overflowed())
            delete[] store_.heap;
        store_.heap = grown;
        cap_ = static_cast<std::uint32_t>(new_cap);
    }

    union Store {
        std::uint64_t words[kInlineCapacity];  // uninitialized past size_
        std::uint64_t* heap;                   // when cap_ > kInlineCapacity
    };
    Store store_;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = kInlineCapacity;
};

// One CONGEST message. In CONGEST(b log n) a message carries O(b) edge
// weights and/or vertex identities; we model one "unit" as kWordsPerUnit
// 64-bit words — a constant multiple of the O(log n) bits of the standard
// model — and allow each edge direction to carry b units worth of words per
// round. The pipelined primitives (SortedMergeUpcast, IntervalDowncast)
// additionally self-limit to exactly b records per edge per round, matching
// the paper's accounting; the word budget is the hard model-violation
// backstop, with headroom for a pipelined record (6 words) to share a round
// with the constant-size control messages of a concurrent protocol stage.
//
// Word-accounting invariant: size_words() counts the tag as one word plus
// one word per payload word, exactly as it did when the payload was a heap
// vector — RunStats::words is comparable across revisions of this library.
// Payload encode/decode goes through the typed codec layer
// (congest/codec.h) rather than hand-indexed words.at(i).
struct Message {
    std::uint32_t tag = 0;
    WordBuf words;

    // Size in 64-bit words, tag counted as one word.
    std::size_t size_words() const { return 1 + words.size(); }
};

// A message delivered to a vertex, annotated with the arrival port.
struct Incoming {
    std::size_t port = 0;
    Message msg;
};

static_assert(sizeof(Message) == 64, "a Message is one cache line");

}  // namespace dmst

#endif  // DMST_CONGEST_MESSAGE_H
