#include "dmst/core/driver_harness.h"

#include <algorithm>
#include <stdexcept>

#include "dmst/congest/faults.h"
#include "dmst/graph/metrics.h"

namespace dmst {

NetConfig DriverOptions::to_net_config() const
{
    NetConfig config = *this;
    config.max_rounds = scaled_round_budget(max_rounds, faults);
    return config;
}

void check_driver_input(const WeightedGraph& g, const DriverInput& input)
{
    if (input.root && *input.root >= g.vertex_count())
        throw std::invalid_argument("root out of range");
    if (input.spanning && !is_connected(g))
        throw std::invalid_argument("MST requires a connected graph");
}

PhaseSplit phase_split(const RunStats& stats, std::uint64_t first)
{
    PhaseSplit split;
    if (first == 0)
        return split;
    const std::uint64_t before = std::min(first - 1, stats.rounds);
    split.rounds = stats.rounds - before;
    for (std::uint64_t r = before; r < stats.messages_per_round.size(); ++r)
        split.messages += stats.messages_per_round[r];
    return split;
}

}  // namespace dmst
