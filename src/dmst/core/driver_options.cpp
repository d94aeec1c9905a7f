#include "dmst/core/driver_options.h"

#include "dmst/congest/faults.h"

namespace dmst {

NetConfig DriverOptions::to_net_config() const
{
    NetConfig config;
    config.bandwidth = bandwidth;
    config.engine = engine;
    config.threads = threads;
    config.conditioner = conditioner;
    config.async = async;
    config.faults = faults;
    config.socket = socket;
    config.record_per_edge = record_per_edge;
    config.trace.enabled = trace;
    config.max_rounds =
        scaled_round_budget(max_rounds ? max_rounds : config.max_rounds, faults);
    return config;
}

}  // namespace dmst
