#ifndef DMST_UTIL_RNG_H
#define DMST_UTIL_RNG_H

#include <cstdint>

namespace dmst {

// Deterministic 64-bit PRNG (SplitMix64). Used only by graph generators and
// test harnesses; the distributed algorithms themselves are deterministic.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    // Uniform value in [0, bound); requires bound > 0. Uses rejection
    // sampling, so the distribution is exactly uniform.
    std::uint64_t next_below(std::uint64_t bound);

    // Uniform value in [lo, hi] inclusive; requires lo <= hi.
    std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

private:
    std::uint64_t state_;
};

}  // namespace dmst

#endif  // DMST_UTIL_RNG_H
