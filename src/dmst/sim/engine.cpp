#include "dmst/sim/engine.h"

#include <stdexcept>

#include "dmst/congest/network.h"
#include "dmst/net/socket_network.h"
#include "dmst/sim/async_network.h"
#include "dmst/sim/parallel_network.h"
#include "dmst/util/cli.h"

namespace dmst {

std::unique_ptr<NetworkBase> make_network(const WeightedGraph& g,
                                          const NetConfig& config)
{
    if (config.bandwidth < 1)
        throw std::invalid_argument("bandwidth must be >= 1");
    if (config.threads < 0)
        throw std::invalid_argument("threads must be >= 0");
    if (config.engine == Engine::Socket) {
        const SocketConfig& sc = config.socket;
        if (sc.procs < 1)
            throw std::invalid_argument("--procs must be >= 1");
        if (sc.rank < 0 || sc.rank >= sc.procs)
            throw std::invalid_argument("--rank must be in [0, procs)");
        if (sc.procs > 1 &&
            (sc.base_port < 1024 || sc.base_port + sc.procs > 65536))
            throw std::invalid_argument(
                "--base_port must leave [base_port, base_port + procs) "
                "within [1024, 65536)");
    }
    if (const char* reason = composition_error(config, g.vertex_count()))
        throw std::invalid_argument(reason);
    switch (config.engine) {
        case Engine::Serial:
            return std::make_unique<Network>(g, config);
        case Engine::Parallel:
            return std::make_unique<ParallelNetwork>(g, config);
        case Engine::Async:
            return std::make_unique<AsyncNetwork>(g, config);
        case Engine::Socket:
            return std::make_unique<SocketNetwork>(g, config);
    }
    throw std::invalid_argument("make_network: unknown engine");
}

const char* composition_error(const NetConfig& config, std::size_t n)
{
    switch (config.engine) {
        case Engine::Serial:
        case Engine::Parallel:
            if (config.faults.loss_enabled())
                return "message loss does not compose with the lock-step "
                       "engines (a synchronous round has no time for a "
                       "retransmission to cost); use --engine=async";
            return nullptr;
        case Engine::Async:
            if (config.conditioner.enabled())
                return "the lock-step conditioner does not compose with "
                       "--engine=async (its per-message delay is the "
                       "latency model)";
            if (config.faults.crash_enabled())
                return "crash-stop faults do not compose with --engine=async "
                       "(crash rounds and stall detection need the lock-step "
                       "round barrier)";
            return nullptr;
        case Engine::Socket:
            if (config.conditioner.enabled())
                return "the link conditioner does not compose with "
                       "--engine=socket (a real transport has real links)";
            if (config.faults.enabled())
                return "fault injection does not compose with --engine=socket "
                       "(its loss is real loss, handled by retransmission)";
            if (static_cast<std::size_t>(config.socket.procs) > n)
                return "--procs must not exceed the vertex count on "
                       "--engine=socket (every rank needs a non-empty vertex "
                       "block)";
            return nullptr;
    }
    return nullptr;
}

Engine parse_engine(const std::string& name)
{
    if (name == "serial")
        return Engine::Serial;
    if (name == "parallel")
        return Engine::Parallel;
    if (name == "async")
        return Engine::Async;
    if (name == "socket")
        return Engine::Socket;
    throw std::invalid_argument("unknown engine '" + name +
                                "' (expected serial|parallel|async|socket)");
}

const char* engine_name(Engine engine)
{
    switch (engine) {
        case Engine::Serial: return "serial";
        case Engine::Parallel: return "parallel";
        case Engine::Async: return "async";
        case Engine::Socket: return "socket";
    }
    return "unknown";
}

SyncMode parse_sync(const std::string& name)
{
    if (name == "alpha")
        return SyncMode::Alpha;
    if (name == "beta")
        return SyncMode::Beta;
    if (name == "none")
        return SyncMode::None;
    throw std::invalid_argument("unknown sync mode '" + name +
                                "' (expected alpha|beta|none)");
}

const char* sync_name(SyncMode sync)
{
    switch (sync) {
        case SyncMode::Alpha: return "alpha";
        case SyncMode::Beta: return "beta";
        case SyncMode::None: return "none";
    }
    return "unknown";
}

void define_socket_flags(Args& args)
{
    args.define("procs", "1", "socket engine: total ranks in the run");
    args.define("rank", "0", "socket engine: this process's rank");
    args.define("host", "127.0.0.1",
                "socket engine: peer host (IPv4 literal)");
    args.define("base_port", "0",
                "socket engine: rank r listens on base_port + r "
                "(required when procs > 1)");
    args.define("round_timeout_ms", "60000",
                "socket engine: barrier wait budget per round");
}

SocketConfig socket_from_args(const Args& args)
{
    SocketConfig sc;
    sc.procs = static_cast<int>(args.get_int("procs"));
    sc.rank = static_cast<int>(args.get_int("rank"));
    sc.host = args.get("host");
    sc.base_port = static_cast<int>(args.get_int("base_port"));
    sc.round_timeout_ms = static_cast<int>(args.get_int("round_timeout_ms"));
    if (sc.round_timeout_ms < 1)
        throw std::invalid_argument("--round_timeout_ms must be >= 1");
    return sc;
}

}  // namespace dmst
