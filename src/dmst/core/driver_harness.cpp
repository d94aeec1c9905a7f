#include "dmst/core/driver_harness.h"

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

}  // namespace dmst
