// Scenario runner CLI: sweeps a (family x n x bandwidth x engine x
// threads) grid through one algorithm and emits one JSON object per cell
// (JSON Lines on stdout or --json=FILE). The shared harness behind the
// bench matrix and the CI smoke run.
//
//   scenario_runner --algo=elkin --families=er,grid --sizes=256,1024
//       --engines=serial,parallel --threads=1,2,8 --json=-
//
// Network-conditioner axes (comma lists, congest/conditioner.h):
//   --hetero_b=0,1       per-link bandwidth caps hashed in [1, b]
//   --adversarial_order=0,1   adversarial (seeded) inbox delivery order
// Conditioned cells must produce the same MST (and verification verdicts)
// as the ideal substrate; --verify enforces that per cell.
//
// Event-driven engine axes (comma lists, sim/async_network.h), swept by
// async-engine cells only; the other engines run at the first point:
//   --max_delay=1,4      per-message delay bound in virtual-time units
//   --event_seed=1,2,3   delay-stream seeds
//   --sync=alpha,beta    synchronizer axis; `none` adds native per-event
//                        dispatch cells (algo=ghs_native only — the
//                        round-programmed algorithms are skipped there)
// Async cells must produce the same MST and verdicts as the serial
// engine; --verify enforces that per cell. Only parallel cells sweep
// --threads; every other engine runs one threads = 1 cell.
//
// Fault-injection axes (comma lists, congest/faults.h):
//   --drop_rate=0,0.05,0.2   per-link data/ACK drop probability
//   --loss_seed=11,12,13     loss-stream seeds (collapsed at drop_rate 0)
//   --crash=none,3@5+7@9     crash-stop schedules, "v@r[+v@r...]" or none
// The reliable-delivery shim makes loss transparent: lossy cells must
// produce the same MST and verdicts as their clean twins (--verify
// enforces that). Crash cells verify by containment of the partial forest
// in the reference MST; model verification is skipped on crash cells.
//
// Which engine takes which device is one rule, make_network's
// (composition_error in sim/engine.h; the composition table in
// docs/SCENARIOS.md): the sweep skips exactly the cells it rejects.
//
// Socket-backend flags (scalars, not sweep axes; Engine::Socket cells
// only — see src/dmst/net/ and docs/TRANSPORT.md):
//   --procs=N            processes in the launch (vertex blocks)
//   --rank=R             this process's rank in [0, N)
//   --host=ADDR          IPv4 address every rank binds/dials (localhost)
//   --base_port=P        rank r binds P+r; 0 only for single-process runs
//   --round_timeout_ms=T abort a round blocked longer than T
// One process is one rank: bench/dmst_launcher spawns all N ranks with
// identical flags (except --rank/--json) and merges their JSONL; with
// --procs > 1 the engine list must be exactly `socket`. Per-rank rows
// report the owned slice (see sim/scenario.h); scripts/parity_diff.py
// merges them against the serial oracle.
//
// Verification modes (--verify):
//   oracle  cross-check the output against sequential Kruskal (default)
//   model   additionally run the in-model verification protocol on the
//           constructed forest (expect accept) and the forest-mutation
//           battery (expect rejects with correct witnesses)
//   none    no checking (timing-only sweeps)
// A bare `--verify` selects model mode. Exit status 2 if any check fails.
//
// Observability (obs/trace.h):
//   --trace=PATH         write each cell's span trace to PATH (cell i > 0
//                        appends '.i') as Chrome-trace JSON (loads in
//                        Perfetto; scripts/trace_report.py reads it) and
//                        add a "phases" breakdown to the cell JSON
//   --record_per_edge    per-edge message counts; each cell's JSON gains
//                        its top-5 hottest edges

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dmst/congest/faults.h"
#include "dmst/obs/export.h"
#include "dmst/obs/trace.h"
#include "dmst/sim/engine.h"
#include "dmst/sim/scenario.h"
#include "dmst/util/cli.h"

using namespace dmst;

int main(int argc, char** argv)
{
    Args args;
    args.define("algo", "elkin",
                "algorithm: elkin|pipeline|boruvka|ghs|ghs_native");
    args.define("families", "er", "comma list of workload families");
    args.define("sizes", "256", "comma list of graph sizes");
    args.define("bandwidths", "1", "comma list of CONGEST bandwidths");
    args.define("engines", "serial",
                "comma list: serial,parallel,async,socket");
    args.define("threads", "0",
                "comma list of parallel-engine worker counts (0 = hardware)");
    args.define("seed", "1", "workload seed");
    args.define("hetero_b", "0",
                "comma list (0/1): hash per-link bandwidth caps in [1, b]");
    args.define("adversarial_order", "0",
                "comma list (0/1): adversarial inbox delivery order");
    args.define("max_delay", "4",
                "comma list of async per-message delay bounds (>= 1)");
    args.define("event_seed", "1", "comma list of async delay-stream seeds");
    args.define("sync", "alpha",
                "comma list of async synchronizers: alpha,beta,none (none = "
                "native message-driven dispatch, algo=ghs_native only)");
    args.define("drop_rate", "0",
                "comma list of per-link drop probabilities in [0, 1)");
    args.define("loss_seed", "11", "comma list of loss-stream seeds");
    args.define("crash", "none",
                "comma list of crash-stop schedules: v@r[+v@r...] or none");
    args.define("ghs_k", "8", "Controlled-GHS k (algo=ghs only)");
    args.define("verify", "oracle", "oracle|model|none (bare --verify = model)");
    args.define("json", "-", "JSON Lines output: '-' = stdout, else a path");
    args.define("trace", "",
                "write each cell's span trace to this path as Chrome-trace "
                "JSON (cell i > 0 appends '.i'); also adds the per-phase "
                "breakdown to the cell JSON");
    args.define("record_per_edge", "0",
                "record per-edge message counts and report each cell's "
                "top-5 hottest edges (bare flag = 1)");
    // Socket-backend flags (--procs, --rank, --host, --base_port,
    // --round_timeout_ms), read by Engine::Socket cells only.
    // One process is one rank: dmst_launcher spawns the full launch and
    // fills --rank/--base_port per child.
    define_socket_flags(args);

    // A bare trailing/valueless `--verify` (or `--record_per_edge`) means
    // "on": rewrite it before the --key=value parser sees it.
    std::vector<std::string> rewritten(argv, argv + argc);
    for (std::size_t i = 1; i < rewritten.size(); ++i) {
        const bool is_verify = rewritten[i] == "--verify";
        if (!is_verify && rewritten[i] != "--record_per_edge")
            continue;
        bool has_value = i + 1 < rewritten.size() &&
                         rewritten[i + 1].rfind("--", 0) != 0;
        if (!has_value)
            rewritten[i] = is_verify ? "--verify=model" : "--record_per_edge=1";
    }
    std::vector<const char*> rewritten_argv;
    for (const std::string& s : rewritten)
        rewritten_argv.push_back(s.c_str());

    try {
        args.parse(static_cast<int>(rewritten_argv.size()),
                   rewritten_argv.data());
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n" << args.help();
        return 1;
    }

    ScenarioSpec spec;
    try {
        spec.algorithm = args.get("algo");
        spec.families = split_list(args.get("families"));
        spec.sizes.clear();
        for (std::int64_t n : split_int_list(args.get("sizes")))
            spec.sizes.push_back(static_cast<std::size_t>(n));
        spec.bandwidths.clear();
        for (std::int64_t b : split_int_list(args.get("bandwidths")))
            spec.bandwidths.push_back(static_cast<int>(b));
        spec.engines.clear();
        for (const std::string& name : split_list(args.get("engines")))
            spec.engines.push_back(parse_engine(name));
        spec.thread_counts.clear();
        for (std::int64_t t : split_int_list(args.get("threads"))) {
            if (t < 0)
                throw std::invalid_argument("--threads items must be >= 0");
            spec.thread_counts.push_back(static_cast<int>(t));
        }
        spec.seed = static_cast<std::uint64_t>(args.get_int("seed"));
        spec.hetero_bs.clear();
        for (std::int64_t h : split_int_list(args.get("hetero_b")))
            spec.hetero_bs.push_back(h != 0);
        spec.adversarial_orders.clear();
        for (std::int64_t a : split_int_list(args.get("adversarial_order")))
            spec.adversarial_orders.push_back(a != 0);
        spec.max_delays.clear();
        for (std::int64_t d : split_int_list(args.get("max_delay"))) {
            if (d < 1)
                throw std::invalid_argument("--max_delay items must be >= 1");
            spec.max_delays.push_back(static_cast<int>(d));
        }
        spec.event_seeds.clear();
        for (std::int64_t s : split_int_list(args.get("event_seed")))
            spec.event_seeds.push_back(static_cast<std::uint64_t>(s));
        spec.syncs.clear();
        for (const std::string& name : split_list(args.get("sync")))
            spec.syncs.push_back(parse_sync(name));
        spec.drop_rates.clear();
        for (const std::string& item : split_list(args.get("drop_rate"))) {
            std::size_t pos = 0;
            double rate = 0;
            try {
                rate = std::stod(item, &pos);
            } catch (const std::exception&) {
                pos = std::string::npos;  // unified error below
            }
            if (pos != item.size() || rate < 0.0 || rate >= 1.0)
                throw std::invalid_argument(
                    "--drop_rate items must be numbers in [0, 1)");
            spec.drop_rates.push_back(rate);
        }
        spec.loss_seeds.clear();
        for (std::int64_t s : split_int_list(args.get("loss_seed")))
            spec.loss_seeds.push_back(static_cast<std::uint64_t>(s));
        spec.crash_specs.clear();
        for (const std::string& c : split_list(args.get("crash")))
            spec.crash_specs.push_back(parse_crash_spec(c));
        spec.ghs_k = static_cast<std::uint64_t>(args.get_int("ghs_k"));
        const std::string verify = args.get("verify");
        if (verify == "oracle") {
            spec.verify = true;
        } else if (verify == "model") {
            spec.verify = true;
            spec.model_verify = true;
        } else if (verify == "none") {
            spec.verify = false;
        } else {
            throw std::invalid_argument("--verify must be oracle|model|none");
        }
        spec.record_per_edge = args.get_int("record_per_edge") != 0;
        spec.socket = socket_from_args(args);
        if (spec.socket.procs > 1) {
            // A multi-process launch runs this binary once per rank; any
            // in-process engine in the list would execute identically on
            // every rank and duplicate its rows in the merged JSONL.
            for (Engine e : spec.engines)
                if (e != Engine::Socket)
                    throw std::invalid_argument(
                        "--procs > 1 requires --engines=socket only (run "
                        "the in-process engines in a separate, "
                        "single-process sweep)");
        }
    } catch (const std::exception& e) {
        std::cerr << "bad flag value: " << e.what() << "\n";
        return 1;
    }

    const std::string trace_path = args.get("trace");
    spec.trace = !trace_path.empty();

    if (spec.model_verify && spec.algorithm == "ghs")
        std::cerr << "note: --verify=model is skipped for algo=ghs (its "
                     "partial forest is not a spanning tree, the verifier's "
                     "input contract); only the oracle containment check "
                     "runs\n";

    std::ofstream file;
    std::ostream* out = &std::cout;
    const std::string json = args.get("json");
    if (json != "-") {
        file.open(json);
        if (!file) {
            std::cerr << "cannot open " << json << " for writing\n";
            return 1;
        }
        out = &file;
    }

    bool all_verified = true;
    bool trace_write_ok = true;
    std::size_t cells = 0;
    try {
        run_scenarios(spec, [&](const ScenarioCell& cell) {
            ++cells;
            *out << cell_json(cell) << "\n";
            if (!trace_path.empty() && cell.stats.trace) {
                std::string path = trace_path;
                if (cells > 1)
                    path += "." + std::to_string(cells - 1);
                if (!write_chrome_trace_file(path, cell.stats)) {
                    trace_write_ok = false;
                    std::cerr << "cannot write trace file " << path << "\n";
                }
            }
            if (cell.verify_ran && !cell.verified) {
                all_verified = false;
                std::cerr << "VERIFICATION FAILED: " << cell_json(cell)
                          << "\n";
            }
            if (cell.model_verify_ran &&
                (!cell.model_verified ||
                 cell.mutations_passed != cell.mutations_run)) {
                all_verified = false;
                std::cerr << "IN-MODEL VERIFICATION FAILED: "
                          << cell_json(cell) << "\n";
            }
        });
    } catch (const std::exception& e) {
        std::cerr << "scenario sweep failed: " << e.what() << "\n";
        return 1;
    }
    if (cells == 0) {
        // Every grid point was skipped as engine-inapplicable (e.g.
        // --engines=async with only conditioned points): almost
        // certainly a flag mistake, not an empty-but-fine sweep.
        std::cerr << "scenario sweep produced no cells: every grid point "
                     "was skipped as inapplicable to its engine\n";
        return 1;
    }
    // A failed flush shows only once the file is closed (or stdout is
    // flushed), e.g. on a full disk.
    if (file.is_open())
        file.close();
    else
        std::cout.flush();
    if (!*out) {
        std::cerr << "cannot write " << (json == "-" ? "stdout" : json)
                  << "\n";
        return 1;
    }
    if (!trace_write_ok)
        return 1;
    return all_verified ? 0 : 2;
}
