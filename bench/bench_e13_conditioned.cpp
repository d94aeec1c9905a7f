// Experiment E13 — round/message inflation of the conditioned CONGEST
// substrate versus the ideal one (congest/conditioner.h).
//
// For each (family, n, conditioner config) the bench runs Elkin's MST on
// the ideal substrate and under the conditioner and reports the round and
// message inflation. It is also a CI-able regression check; it exits
// non-zero if any of the model's guarantees is violated:
//
//   - the MST edge set is bit-identical to the ideal run in every cell
//     (conditioning is output-invariant by construction);
//   - hetero bandwidth caps never *reduce* rounds (capping links cannot
//     speed a protocol up).

#include <iostream>
#include <string>
#include <vector>

#include "dmst/congest/conditioner.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/sim/engine.h"
#include "dmst/util/cli.h"
#include "dmst/util/table.h"

using namespace dmst;

namespace {

struct CondCase {
    const char* name;
    ConditionerConfig config;
};

std::vector<CondCase> cond_cases(std::uint64_t seed, int bandwidth)
{
    std::vector<CondCase> cases;
    auto add = [&](const char* name, bool hetero, bool adv) {
        ConditionerConfig cc;
        cc.hetero_bandwidth = hetero;
        cc.adversarial_order = adv;
        cc.seed = seed;
        cases.push_back({name, cc});
    };
    if (bandwidth > 1)
        add("hetero", true, false);
    add("adv", false, true);
    if (bandwidth > 1)
        add("het+adv", true, true);
    return cases;
}

}  // namespace

int main(int argc, char** argv)
{
    Args args;
    args.define("families", "er,grid,path", "workload families");
    args.define("max_n", "1024", "largest size of the 4x-spaced sweep");
    args.define("bandwidth", "2", "CONGEST bandwidth b");
    args.define("seed", "13", "workload seed");
    args.define("cond_seed", "7", "conditioner assignment seed");
    args.define("csv", "false", "emit CSV instead of an aligned table");
    define_engine_flags(args);
    ElkinOptions ideal;
    std::vector<std::string> families;
    std::uint64_t seed = 0, cond_seed = 0;
    std::size_t max_n = 0;
    int bandwidth = 0;
    bool csv = false;
    try {
        args.parse(argc, argv);
        read_engine_flags(args, ideal);
        families = split_list(args.get("families"));
        seed = args.get_int("seed");
        cond_seed = args.get_int("cond_seed");
        max_n = static_cast<std::size_t>(args.get_int("max_n"));
        bandwidth = static_cast<int>(args.get_int("bandwidth"));
        csv = args.get_bool("csv");
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n" << args.help();
        return 1;
    }
    ideal.bandwidth = bandwidth;

    std::cout << "E13: conditioned substrate inflation vs the ideal "
                 "substrate (b=" << bandwidth << ")\n";
    Table table({"family", "n", "config", "rounds", "ideal_rounds",
                 "round_ratio", "msgs", "msg_ratio"});
    bool ok = true;
    auto fail = [&](const std::string& why) {
        std::cerr << "E13 VIOLATION: " << why << "\n";
        ok = false;
    };

    for (const std::string& family : families) {
        for (std::size_t n = 64; n <= max_n; n *= 4) {
            auto g = make_workload(family, n, seed);

            auto base = run_elkin_mst(g, ideal);

            for (const CondCase& cs : cond_cases(cond_seed, bandwidth)) {
                ElkinOptions opts = ideal;
                opts.conditioner = cs.config;
                auto run = run_elkin_mst(g, opts);
                const std::string where = family + "/" +
                                          std::to_string(n) + "/" + cs.name;

                if (run.mst_edges != base.mst_edges)
                    fail(where + ": MST differs from the ideal run");
                if (cs.config.hetero_bandwidth &&
                    run.stats.rounds < base.stats.rounds)
                    fail(where + ": capped links reduced rounds");

                table.new_row()
                    .add(family)
                    .add(static_cast<std::uint64_t>(n))
                    .add(cs.name)
                    .add(run.stats.rounds)
                    .add(base.stats.rounds)
                    .add(static_cast<double>(run.stats.rounds) /
                         static_cast<double>(base.stats.rounds))
                    .add(run.stats.messages)
                    .add(static_cast<double>(run.stats.messages) /
                         static_cast<double>(base.stats.messages));
            }
        }
    }

    if (csv)
        table.print_csv(std::cout);
    else
        table.print(std::cout);
    if (!ok) {
        std::cerr << "E13: conditioned-substrate guarantees VIOLATED\n";
        return 2;
    }
    std::cout << "E13: all conditioned-substrate guarantees hold\n";
    return 0;
}
