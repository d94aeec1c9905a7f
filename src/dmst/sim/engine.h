#ifndef DMST_SIM_ENGINE_H
#define DMST_SIM_ENGINE_H

#include <memory>
#include <string>

#include "dmst/congest/network_base.h"

namespace dmst {

// Builds the engine selected by config.engine: the serial reference
// Network, the sharded ParallelNetwork (config.threads workers), the
// event-driven AsyncNetwork (config.async delay model under the α- or
// β-synchronizer), or the real-network SocketNetwork (config.socket; see
// src/dmst/net/). All honor the NetworkBase contract and produce
// bit-identical protocol outputs; serial and parallel are additionally
// bit-identical in RunStats. Only the parallel engine reads
// config.threads. Throws std::invalid_argument for bandwidth < 1 or
// threads < 0 on every engine; for Engine::Serial and Engine::Parallel
// combined with message loss (drop_rate > 0 — loss lives on the async
// engine); for Engine::Async combined with an enabled lock-step
// conditioner or a crash-stop fault schedule; for Engine::Socket combined
// with the conditioner or any fault injection (a real transport has real
// links and real loss); and for an invalid NetConfig::faults or
// NetConfig::socket.
std::unique_ptr<NetworkBase> make_network(const WeightedGraph& g,
                                          const NetConfig& config);

// "serial" | "parallel" | "async" | "socket" (case-sensitive); throws
// std::invalid_argument on anything else. The inverse of engine_name,
// for CLI flags.
Engine parse_engine(const std::string& name);
const char* engine_name(Engine engine);

// "alpha" | "beta" | "none" (case-sensitive); throws std::invalid_argument
// on anything else. The inverse of sync_name, for the --sync CLI flag and
// the scenario grid's sync axis.
SyncMode parse_sync(const std::string& name);
const char* sync_name(SyncMode sync);

class Args;

// The shared --procs/--rank/--host/--base_port/
// --round_timeout_ms CLI surface of the bench binaries. Only the socket
// engine reads them; dmst_launcher forks a driver once per rank and fills
// --rank/--base_port in per child (see docs/TRANSPORT.md).
void define_socket_flags(Args& args);
SocketConfig socket_from_args(const Args& args);

}  // namespace dmst

#endif  // DMST_SIM_ENGINE_H
