#include "dmst/util/dsu.h"

#include <numeric>

#include "dmst/util/assert.h"

namespace dmst {

Dsu::Dsu(std::size_t n) : parent_(n), size_(n, 1), components_(n)
{
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

std::size_t Dsu::find(std::size_t x)
{
    DMST_ASSERT(x < parent_.size());
    std::size_t root = x;
    while (parent_[root] != root)
        root = parent_[root];
    while (parent_[x] != root) {
        std::size_t next = parent_[x];
        parent_[x] = root;
        x = next;
    }
    return root;
}

bool Dsu::unite(std::size_t a, std::size_t b)
{
    std::size_t ra = find(a);
    std::size_t rb = find(b);
    if (ra == rb)
        return false;
    if (size_[ra] < size_[rb])
        std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    --components_;
    return true;
}

}  // namespace dmst
