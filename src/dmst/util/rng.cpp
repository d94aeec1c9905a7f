#include "dmst/util/rng.h"

#include "dmst/util/assert.h"

namespace dmst {

std::uint64_t Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t Rng::next_below(std::uint64_t bound)
{
    DMST_ASSERT(bound > 0);
    // Rejection sampling over the largest multiple of bound that fits.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
    std::uint64_t v = next();
    while (v >= limit)
        v = next();
    return v % bound;
}

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi)
{
    DMST_ASSERT(lo <= hi);
    const std::uint64_t span = hi - lo + 1;
    if (span == 0)  // full 64-bit range
        return next();
    return lo + next_below(span);
}

}  // namespace dmst
