#ifndef DMST_UTIL_DSU_H
#define DMST_UTIL_DSU_H

#include <cstddef>
#include <vector>

namespace dmst {

// Disjoint-set union (union by size + path compression). Elements are
// 0..n-1. Used by Kruskal, by the root-local Boruvka step of the Elkin
// algorithm, and by the cycle filter of the GKP Pipeline baseline.
class Dsu {
public:
    explicit Dsu(std::size_t n);

    std::size_t find(std::size_t x);

    // Merges the sets containing a and b. Returns true if they were distinct.
    bool unite(std::size_t a, std::size_t b);

    bool same(std::size_t a, std::size_t b) { return find(a) == find(b); }

    std::size_t component_count() const { return components_; }

    std::size_t size() const { return parent_.size(); }

private:
    std::vector<std::size_t> parent_;
    std::vector<std::size_t> size_;
    std::size_t components_;
};

}  // namespace dmst

#endif  // DMST_UTIL_DSU_H
