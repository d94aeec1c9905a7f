// Experiment E16 — socket-transport throughput across rank counts.
//
// A rank-aware bench (dmst_launcher-compatible): one process measures one
// rank of a multi-process socket launch running the Borůvka baseline over
// the real transport (net/), and reports sustained message throughput —
// payload messages, transport packets, and bytes per second — one JSONL
// row per (family, n, repeat) per rank. dmst_launcher concatenates the
// rank files in rank order, so one launch yields one stream:
//
//   dmst_launcher --procs=4 --json=e16.jsonl --
//       ./bench_e16_net_throughput --families=er --sizes=256,1024
//
// The launcher appends --procs/--rank/--base_port/--json per
// child; run standalone (defaults: one rank, loopback) for a quick smoke.
// Each repeat builds a fresh socket mesh (handshake included in wall
// time — the steady-state rows are the later repeats). Every row carries
// the rank's owned MST-slice weight and an oracle verdict: an edge is
// owned by the rank holding its lower endpoint, so the per-rank weights
// partition the sequential total and each slice must equal the reference
// MST's slice exactly. A throughput number from a wrong tree is not a
// throughput number.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "dmst/core/sync_boruvka.h"
#include "dmst/exp/workloads.h"
#include "dmst/net/peer_table.h"
#include "dmst/obs/export.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/util/cli.h"

using namespace dmst;

int main(int argc, char** argv)
{
    Args args;
    args.define("families", "er", "workload families");
    args.define("sizes", "256", "comma list of vertex counts");
    args.define("seed", "13", "workload seed");
    args.define("repeat", "3",
                "socket meshes built and timed per (family, n); the first "
                "repeat pays the handshake cold-start");
    args.define("json", "-", "JSON Lines output: '-' = stdout, else a path");
    define_socket_flags(args);
    SocketConfig sc;
    std::vector<std::string> families;
    std::vector<std::size_t> sizes;
    int repeat = 0;
    std::uint64_t seed = 0;
    try {
        args.parse(argc, argv);
        sc = socket_from_args(args);
        seed = args.get_int("seed");
        families = split_list(args.get("families"));
        for (std::int64_t n : split_int_list(args.get("sizes")))
            sizes.push_back(static_cast<std::size_t>(n));
        repeat = static_cast<int>(args.get_int("repeat"));
        if (repeat < 1)
            throw std::invalid_argument("--repeat must be >= 1");
        if (families.empty() || sizes.empty())
            throw std::invalid_argument("--families/--sizes must be non-empty");
        if (sc.procs > 1 && sc.base_port == 0)
            throw std::invalid_argument(
                "--base_port required when --procs > 1 (use dmst_launcher)");
    } catch (const std::exception& e) {
        std::cerr << "bench_e16: " << e.what() << "\n" << args.help();
        return 1;
    }

    std::ofstream file;
    const std::string json_path = args.get("json");
    if (json_path != "-") {
        file.open(json_path);
        if (!file) {
            std::cerr << "bench_e16: cannot open " << json_path << "\n";
            return 1;
        }
    }
    std::ostream& out = json_path == "-" ? std::cout : file;

    bool ok = true;
    // A size the generator rejects (or a failed socket mesh) ends the
    // sweep with exit 1, like the flag errors above.
    try {
        for (const std::string& family : families) {
            for (std::size_t n : sizes) {
                SyncBoruvkaOptions opts;
                opts.engine = Engine::Socket;
                opts.socket = sc;
                if (const char* why = composition_error(opts, n)) {
                    std::cerr << "bench_e16: skipping " << family << "/" << n
                              << ": " << why << "\n";
                    continue;
                }
                auto g = make_workload(family, n, seed);
                const auto reference = mst_kruskal(g);

                // The rank's reference slice: MST edges whose lower endpoint
                // falls in this rank's vertex block.
                PeerTable table(g.vertex_count(), sc.procs);
                std::vector<EdgeId> ref_owned;
                std::uint64_t ref_weight = 0;
                for (EdgeId e : reference.edges) {
                    VertexId lo = std::min(g.edge(e).u, g.edge(e).v);
                    if (table.owner(lo) != sc.rank)
                        continue;
                    ref_owned.push_back(e);
                    ref_weight += g.edge(e).w;
                }

                for (int rep = 0; rep < repeat; ++rep) {
                    const auto t0 = std::chrono::steady_clock::now();
                    auto run = run_sync_boruvka(g, opts);
                    const auto t1 = std::chrono::steady_clock::now();
                    const double wall_ms =
                        std::chrono::duration<double, std::milli>(t1 - t0)
                            .count();
                    const double secs = wall_ms / 1000.0;

                    std::vector<EdgeId> owned;
                    std::uint64_t weight = 0;
                    for (EdgeId e : run.mst_edges) {
                        VertexId lo = std::min(g.edge(e).u, g.edge(e).v);
                        if (table.owner(lo) != sc.rank)
                            continue;
                        owned.push_back(e);
                        weight += g.edge(e).w;
                    }
                    std::sort(owned.begin(), owned.end());
                    const bool verified = owned == ref_owned;
                    if (!verified) {
                        std::cerr << "bench_e16: rank " << sc.rank
                                  << " MST slice differs from the reference ("
                                  << family << "/" << n << " rep " << rep
                                  << ")\n";
                        ok = false;
                    }

                    const auto& s = run.stats;
                    out << "{\"bench\":\"e16_net_throughput\""
                        << ",\"family\":\"" << family << "\""
                        << ",\"n\":" << n << ",\"m\":" << g.edge_count()
                        << ",\"algorithm\":\"boruvka\""
                        << ",\"procs\":" << sc.procs
                        << ",\"rank\":" << sc.rank << ",\"repeat\":" << rep
                        << ",\"wall_ms\":" << wall_ms
                        << counter_members(s, CounterGroup::Every)
                        << ",\"msgs_per_sec\":"
                        << (secs > 0 ? s.messages / secs : 0)
                        << counter_members(s, CounterGroup::Socket)
                        << ",\"packets_per_sec\":"
                        << (secs > 0
                                ? (s.net_packets_out + s.net_packets_in) / secs
                                : 0)
                        << ",\"bytes_per_sec\":"
                        << (secs > 0 ? (s.net_bytes_out + s.net_bytes_in) / secs
                                     : 0)
                        << ",\"mst_weight\":" << weight
                        << ",\"ref_weight\":" << ref_weight
                        << ",\"verified\":" << (verified ? "true" : "false")
                        << "}\n";
                    out.flush();
                }
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "bench_e16: " << e.what() << "\n";
        return 1;
    }

    // A failed flush shows only once the file is closed (or stdout is
    // flushed), e.g. on a full disk: every row may be lost.
    if (file.is_open())
        file.close();
    else
        std::cout.flush();
    if (!out) {
        std::cerr << "bench_e16: cannot write "
                  << (json_path == "-" ? "stdout" : json_path) << "\n";
        return 1;
    }
    if (!ok) {
        std::cerr << "bench_e16: throughput rows from unverified trees\n";
        return 2;
    }
    return 0;
}
