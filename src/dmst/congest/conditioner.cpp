#include "dmst/congest/conditioner.h"

#include <algorithm>
#include <utility>

#include "dmst/util/assert.h"

namespace dmst {

namespace {

// Domain-separation constants for the independent per-link draws.
constexpr std::uint64_t kBandwidthStream = 0x62616e6477640002ULL;
constexpr std::uint64_t kOrderStream = 0x6f72646572210003ULL;

}  // namespace

std::uint64_t LinkConditioner::mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

LinkConditioner::LinkConditioner(const WeightedGraph& g,
                                 const ConditionerConfig& config,
                                 int global_bandwidth)
    : config_(config), global_bandwidth_(global_bandwidth)
{
    DMST_ASSERT(global_bandwidth_ >= 1);
    const std::size_t m = g.edge_count();
    if (config_.hetero_bandwidth && global_bandwidth_ > 1) {
        const std::uint64_t span = static_cast<std::uint64_t>(global_bandwidth_);
        cap_.resize(m);
        for (EdgeId e = 0; e < m; ++e)
            cap_[e] = static_cast<std::uint16_t>(
                1 + mix(config_.seed ^ mix(kBandwidthStream ^ e)) % span);
    }
}

void LinkConditioner::permute_span(Incoming* first, std::size_t n,
                                   VertexId receiver,
                                   std::uint64_t logical_round,
                                   PermuteScratch& scratch) const
{
    if (n < 2)
        return;
    // The adversary controls the interleaving ACROSS links but each link
    // stays FIFO: the messages one edge carries in one round are a single
    // CONGEST packet, and the pipelined protocols' sorted-stream contract
    // is stated per link. So the permutation shuffles whole per-port
    // groups of the canonical port-sorted span, preserving order inside
    // each group.
    scratch.groups.clear();
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i + 1;
        while (j < n && first[j].port == first[i].port)
            ++j;
        scratch.groups.emplace_back(static_cast<std::uint32_t>(i),
                                    static_cast<std::uint32_t>(j - i));
        i = j;
    }
    if (scratch.groups.size() < 2)
        return;

    // Fisher-Yates over the groups, drawing from a SplitMix64 stream keyed
    // by (seed, receiver, logical round). Pure function of its arguments:
    // any engine sorting the span the same way permutes it the same way.
    std::uint64_t state =
        mix(config_.seed ^ mix(kOrderStream ^ receiver) ^ mix(logical_round));
    for (std::size_t i = scratch.groups.size() - 1; i > 0; --i) {
        state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t draw = mix(state);
        std::size_t j = static_cast<std::size_t>(draw % (i + 1));
        if (i != j)
            std::swap(scratch.groups[i], scratch.groups[j]);
    }

    if (scratch.tmp.size() < n)
        scratch.tmp.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        scratch.tmp[i] = std::move(first[i]);
    std::size_t cursor = 0;
    for (auto [off, len] : scratch.groups)
        for (std::uint32_t k = 0; k < len; ++k)
            first[cursor++] = std::move(scratch.tmp[off + k]);
}

}  // namespace dmst
