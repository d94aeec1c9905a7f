// paper_gates — the paper's bounds, asserted.
//
// Runs the experiment sweeps E1–E8, E10 and E12 on the serial engine and
// checks every measured counter against the bound the paper (or, for the
// verifier, its analysis) proves. The asymptotic bounds carry a constant
// at least 1.2x the largest ratio measured at --max_n = 256, 1024 and
// 16384 (noted next to each); the structural ones (forest shape,
// Cole–Vishkin colours, identical MSTs) hold exactly. Three more groups
// gate the substrate the drivers run on, each at its experiment's seeds
// on the families er, grid and path (workload seed 13):
//
//   cond-*  E13, the conditioned substrate (congest/conditioner.h): Elkin
//           at b = 2, conditioner seed 7, configs hetero, adv and
//           het+adv, serial engine, n = 64, 256, 1024 up to --max_n.
//   sync-*  E14, the synchronizer ladder (sim/synchronizer.h): Elkin
//           behind α and β, native GHS with no synchronizer, and the
//           multi-epoch Borůvka, async engine at max_delay {1, 4} x
//           event_seed {1, 2}.
//   loss-*  E15, the loss shim (congest/faults.h): Elkin at b = 2, loss
//           seed 11, drop rate {0, 0.05, 0.2}, async engine.
//
// The async groups run one worker (outputs do not depend on the worker
// count) at n = 64, then 256 and 1024 while n <= --max_n / 4. It prints
// one row per check —
//
//   gate  case  measured  bound  ratio  ok
//
// where bound is the constant times the formula and ratio = measured /
// bound; a yes/no check measures 1 when it fails, against bound 0. It
// exits 1 naming every row that fails. Lock-step counters are
// engine-invariant (scenario_runner + scripts/parity_diff.py check that),
// so there is no --engine flag.
//
//   paper_gates [--max_n=1024]
//
// --max_n extends the size sweeps (E1, E2a, E5, E12, E13); the fixed-size
// comparisons (E2b at 512, E3, E4, E6, E10 at 1024) run at min(size,
// max_n). Each sweep keeps its experiment's seed.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmst/congest/network.h"
#include "dmst/core/controlled_ghs.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/core/forest_stats.h"
#include "dmst/core/ghs_native.h"
#include "dmst/core/mst_output.h"
#include "dmst/core/pipeline_mst.h"
#include "dmst/core/sync_boruvka.h"
#include "dmst/core/verify_mst.h"
#include "dmst/exp/workloads.h"
#include "dmst/graph/generators.h"
#include "dmst/graph/metrics.h"
#include "dmst/proto/bfs.h"
#include "dmst/proto/cv.h"
#include "dmst/proto/pipeline.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/util/cli.h"
#include "dmst/util/intmath.h"
#include "dmst/util/rng.h"
#include "dmst/util/table.h"

using namespace dmst;

namespace {

// Theorems 3.1/3.2, time: rounds <= kTime * (D + sqrt(n/b)) * L, where
// L = ceil(log2 n) + 1. Measured max 8.98 (E1 er n=128).
constexpr double kTime = 11.0;
// Theorem 3.1, messages: messages <= kMessages * (m + n(log* n + 6)) * L.
// Measured max 3.76 (E6 lollipop n=1024).
constexpr double kMessages = 4.6;
// Theorem 4.3, Controlled-GHS with parameter k: at most max(1, 2n/k)
// fragments of height <= 3 * 2^ceil(log2 k) + 4 (both exact), in
// rounds <= kForestRounds * k(log* n + 6) and messages <=
// kForestMessages * (m + n(log* n + 6)) * (ceil(log2 k) + 1). Measured
// maxima 7.84 (E3 er k=8) and 1.87 (E3 er k=128).
constexpr double kForestRounds = 9.5;
constexpr double kForestMessages = 2.3;
// Section 3, large-diameter regime: with the automatic k = Theta(D) the
// post-GHS phase sends O(n) messages: phase2 <= kLargeD * n. Forcing
// k = sqrt(n) is never cheaper (exact). Measured max 22.44 (n=8192).
constexpr double kLargeD = 27.0;
// [Pel00] Ch. 3 pipelined convergecast: K records over a depth-D tree at
// bandwidth b take rounds <= kUpcast * (D + K/b), BFS included. Measured
// max 3.40 (D=32, K=33, b=4).
constexpr double kUpcast = 4.1;
// Verification protocol (core/verify_mst.h), with D^ the BFS-tree height,
// h the claimed-tree height and q = m - (n-1) non-tree edges:
//   rounds   <= 32 + 8(D^ + h) + 4 ceil(2q/b)
//   messages <= 64 + 8(m + n) + 2q(h+1) + q(D^+1)
// HELLO, the BFS waves and the snapshot/verdict convergecasts are
// O(D^ + h); tokens pipeline b per edge per round; each token half climbs
// at most h+1 hops and each pair completion one count update D^+1 hops.
// β-synchronizer: READY up and GO down a BFS forest cost < 2n control
// messages per pulse; sync_messages <= kBetaControl * n * pulses leaves
// headroom for the epoch restarts. Measured max 0.71 (er n=256).
constexpr double kBetaControl = 3.0;
// Both synchronizers run pulse levels past the last serial round only in
// the endgame: pulses <= 2 * rounds + kPulseSkew. Measured max 0.50.
constexpr double kPulseSkew = 16.0;
// Loss shim: with independent per-attempt loss p on data and ACK, the
// expected retransmissions per message are ~2p/(1-2p). The gate
// retransmissions <= (kRetransPerLoss * p + kRetransSlack) * messages
// leaves slack for burst windows and small samples, and still catches a
// timer that fires every round. Measured max 0.56 (path n=64 p=0.2).
constexpr double kRetransPerLoss = 5.0;
constexpr double kRetransSlack = 0.02;

class Gates {
public:
    void check(const std::string& gate, const std::string& where,
               double measured, double bound)
    {
        const bool ok = measured <= bound;
        table_.new_row()
            .add(gate)
            .add(where)
            .add(measured, 0)
            .add(bound, 0)
            .add(bound > 0 ? measured / bound : 0.0, 2)
            .add(std::string(ok ? "ok" : "FAIL"));
        if (!ok)
            failed_.push_back(gate + " @ " + where);
    }

    int finish() const
    {
        table_.print(std::cout);
        for (const std::string& row : failed_)
            std::cerr << "GATE FAILED: " << row << "\n";
        std::cout << table_.row_count() << " rows, " << failed_.size()
                  << " failed\n";
        return failed_.empty() ? 0 : 1;
    }

private:
    Table table_{{"gate", "case", "measured", "bound", "ratio", "ok"}};
    std::vector<std::string> failed_;
};

std::string at(const std::string& exp, const std::string& family,
               std::uint64_t n, const std::string& extra = "")
{
    return exp + " " + family + " n=" + std::to_string(n) +
           (extra.empty() ? "" : " " + extra);
}

double log_factor(std::uint64_t n)
{
    return ceil_log2(n) + 1;
}

double nlogstar(std::uint64_t n)
{
    return double(n) * (log_star(n) + 6);
}

// One Elkin run, default options but the bandwidth; gated on Theorem 3.1
// (3.2 when b > 1).
DistributedMstResult elkin_gated(Gates& gates, const std::string& where,
                                 const WeightedGraph& g, int b = 1)
{
    ElkinOptions o;
    o.bandwidth = b;
    auto r = run_elkin_mst(g, o);
    const std::uint64_t n = g.vertex_count();
    const double d = hop_diameter_estimate(g);
    gates.check("thm3.1-time", where, r.stats.rounds,
                kTime * (d + std::sqrt(double(n) / b)) * log_factor(n));
    gates.check("thm3.1-messages", where, r.stats.messages,
                kMessages * (g.edge_count() + nlogstar(n)) * log_factor(n));
    return r;
}

// One Controlled-GHS run with parameter k, gated on Theorem 4.3.
void forest_gated(Gates& gates, const std::string& where,
                  const WeightedGraph& g, std::uint64_t k)
{
    GhsOptions o;
    o.k = k;
    auto r = run_controlled_ghs(g, o);
    auto s = analyze_forest(g, r.parent_port, r.fragment_id);
    const std::uint64_t n = g.vertex_count();
    gates.check("thm4.3-fragments", where, s.fragment_count,
                std::max<std::uint64_t>(1, 2 * n / k));
    gates.check("thm4.3-height", where, s.max_height,
                3 * (std::uint64_t{1} << ceil_log2(k)) + 4);
    gates.check("thm4.3-rounds", where, r.stats.rounds,
                kForestRounds * k * (log_star(n) + 6));
    gates.check("thm4.3-messages", where, r.stats.messages,
                kForestMessages * (g.edge_count() + nlogstar(n)) *
                    (ceil_log2(k) + 1));
}

// E8's driver: BFS, then a start wave, then a keep-all upcast of each
// vertex's records.
class UpcastDriver : public Process {
public:
    UpcastDriver(bool root, std::vector<PipeRecord> locals)
        : bfs_(root, 100), up_(300, std::make_unique<KeepAllFilter>()),
          locals_(std::move(locals)), is_root_(root)
    {
    }

    void on_round(Context& ctx) override
    {
        bfs_.on_round(ctx);
        bool start = is_root_ && bfs_.finished() && !up_.attached();
        for (const Incoming& in : ctx.inbox())
            start = start || in.msg.tag == kStartTag;
        if (start && !up_.attached()) {
            up_.attach(bfs_.parent_port(), bfs_.children_ports());
            for (std::size_t c : bfs_.children_ports())
                ctx.send(c, Message{kStartTag, {}});
            for (const auto& r : locals_)
                up_.add_local(r);
            up_.close_local();
        }
        up_.on_round(ctx);
    }

    bool done() const override { return up_.finished(); }

private:
    static constexpr std::uint32_t kStartTag = 500;
    BfsBuilder bfs_;
    SortedMergeUpcast up_;
    std::vector<PipeRecord> locals_;
    bool is_root_;
};

std::vector<std::size_t> cv_forest(const std::string& kind, std::size_t n,
                                   Rng& rng)
{
    std::vector<std::size_t> parent(n, 0);
    for (std::size_t v = 1; v < n; ++v)
        parent[v] = kind == "path" ? v - 1 : rng.next_below(v);
    return parent;
}

void run_gates(Gates& gates, std::size_t max_n)
{
    const std::size_t fixed_n = std::min<std::size_t>(1024, max_n);

    // E1 / E2a: Theorem 3.1 over a size sweep.
    for (const char* family : {"er", "grid", "cliques8"})
        for (std::size_t n = 128; n <= max_n; n *= 2)
            elkin_gated(gates, at("E1", family, n),
                        make_workload(family, n, 1 + n));
    for (const char* family : {"er", "grid"})
        for (std::size_t n = 128; n <= max_n; n *= 2)
            elkin_gated(gates, at("E2a", family, n),
                        make_workload(family, n, 2 + n));

    // E2b: a density sweep at n = 512.
    const std::size_t dense_n = std::min<std::size_t>(512, max_n);
    for (std::size_t m = 2 * dense_n;
         m <= 32 * dense_n && m <= dense_n * (dense_n - 1) / 2; m *= 2) {
        Rng rng(2 + m);
        elkin_gated(gates, at("E2b", "er", dense_n, "m=" + std::to_string(m)),
                    gen_erdos_renyi(dense_n, m, rng));
    }

    // E3 and E10a: Theorem 4.3's (n/k, O(k)) forest.
    for (const char* family : {"er", "grid"}) {
        auto g = make_workload(family, fixed_n, 3);
        for (std::uint64_t k = 2; k <= 256 && k <= fixed_n / 4; k *= 4)
            forest_gated(gates, at("E3", family, fixed_n,
                                   "k=" + std::to_string(k)), g, k);
    }
    for (const char* family : {"er", "path"}) {
        auto g = make_workload(family, fixed_n, 10);
        for (std::uint64_t k : {16, 64})
            forest_gated(gates, at("E10a", family, fixed_n,
                                   "k=" + std::to_string(k)), g, k);
    }

    // E4: Theorem 3.2's bandwidth sweep.
    for (const char* family : {"er", "cliques8"}) {
        auto g = make_workload(family, fixed_n, 4);
        for (int b : {1, 2, 4, 8, 16})
            elkin_gated(gates, at("E4", family, fixed_n,
                                  "b=" + std::to_string(b)), g, b);
    }

    // E5: the large-diameter regime on paths of 8-cliques.
    for (std::size_t cliques = 16; cliques * 8 <= max_n; cliques *= 2) {
        Rng rng(5 + cliques);
        auto g = gen_cliques_path(cliques, 8, rng);
        const std::uint64_t n = g.vertex_count();
        const std::string where = at("E5", "cliques8", n);
        auto auto_k = elkin_gated(gates, where, g);
        ElkinOptions forced;
        forced.k_override = isqrt(n);
        gates.check("large-D-phase2", where, auto_k.phase2_messages,
                    kLargeD * n);
        gates.check("large-D-sqrt-k-not-cheaper", where,
                    auto_k.phase2_messages,
                    run_elkin_mst(g, forced).phase2_messages);
    }

    // E6: Elkin against GKP and SyncBoruvka; all three build one MST.
    for (const char* family : {"er", "grid", "path", "cliques8", "lollipop"}) {
        auto g = make_workload(family, fixed_n, 6);
        const std::string where = at("E6", family, fixed_n);
        auto elkin = elkin_gated(gates, where, g);
        const auto gkp = run_pipeline_mst(g, PipelineMstOptions{});
        const auto boruvka = run_sync_boruvka(g, SyncBoruvkaOptions{});
        gates.check("identical-mst", where,
                    (elkin.mst_edges != gkp.mst_edges) +
                        (elkin.mst_edges != boruvka.mst_edges),
                    0);
    }

    // E7: Cole–Vishkin colours any forest with <= 3 colours in
    // cv_dct_iterations_bound(n) = O(log* n) iterations.
    Rng cv_rng(7);
    for (std::size_t n = 16; n <= (std::size_t{1} << 20); n *= 16) {
        for (const char* kind : {"path", "random"}) {
            auto res = cv_three_color_forest(cv_forest(kind, n, cv_rng));
            const std::string where = at("E7", kind, n);
            gates.check("cv-iterations", where, res.dct_iterations,
                        cv_dct_iterations_bound(n));
            gates.check("cv-colors", where,
                        *std::max_element(res.colors.begin(),
                                          res.colors.end()),
                        2);
        }
    }

    // E8: pipelined convergecast on a path (worst-case depth).
    for (std::size_t depth : {32, 128}) {
        for (std::size_t per_vertex : {1, 4}) {
            for (int b : {1, 2, 4}) {
                Rng rng(8);
                auto g = gen_path(depth + 1, rng);
                Rng weights(9);
                std::vector<std::vector<PipeRecord>> locals(g.vertex_count());
                std::uint64_t k_total = 0;
                for (VertexId v = 0; v < g.vertex_count(); ++v) {
                    for (std::size_t i = 0; i < per_vertex; ++i) {
                        PipeRecord r;
                        r.key = EdgeKey{weights.next_below(1 << 30), v, v + 1};
                        r.group = k_total++;
                        locals[v].push_back(r);
                    }
                }
                Network net(g, NetConfig{.bandwidth = b});
                net.init([&](VertexId v) {
                    return std::make_unique<UpcastDriver>(v == 0, locals[v]);
                });
                gates.check("pipelined-upcast",
                            "E8 path D=" + std::to_string(depth) + " K=" +
                                std::to_string(k_total) +
                                " b=" + std::to_string(b),
                            net.run().rounds,
                            kUpcast * (double(depth) + double(k_total) / b));
            }
        }
    }

    // E10b: interval-routed downcast vs whole-tree broadcast at
    // k = sqrt(n); only the delivery differs, so the MST must not.
    for (const char* family : {"er", "cliques8"}) {
        auto g = make_workload(family, fixed_n, 11);
        ElkinOptions routed;
        routed.k_override = isqrt(g.vertex_count());
        ElkinOptions flooded = routed;
        flooded.broadcast_downcast = true;
        gates.check("identical-mst", at("E10b", family, fixed_n),
                    run_elkin_mst(g, routed).mst_edges !=
                        run_elkin_mst(g, flooded).mst_edges,
                    0);
    }

    // E12: the in-model verifier's budgets on each constructed MST.
    for (const char* family : {"er", "grid", "cliques8"}) {
        for (std::size_t n = 64; n <= max_n; n *= 4) {
            auto g = make_workload(family, n, 12);
            for (int b : {1, 2}) {
                ElkinOptions build;
                build.bandwidth = b;
                VerifyOptions opts;
                opts.bandwidth = b;
                auto r = run_verify_mst(
                    g, ports_from_edges(g, run_elkin_mst(g, build).mst_edges),
                    opts);
                const std::string where =
                    at("E12", family, n, "b=" + std::to_string(b));
                const std::uint64_t m = g.edge_count();
                const std::uint64_t q = r.nontree_edges;
                const std::uint64_t d_hat = r.tau_height;
                const std::uint64_t h = r.claimed_height;
                gates.check("verify-accepts", where, !r.accepted, 0);
                gates.check("verify-rounds", where, r.stats.rounds,
                            32 + 8 * (d_hat + h) + 4 * ceil_div(2 * q, b));
                gates.check("verify-messages", where, r.stats.messages,
                            64 + 8 * (m + n) + 2 * q * (h + 1) +
                                q * (d_hat + 1));
            }
        }
    }
}

// E13: the conditioner never changes the MST, and per-link caps in
// [1, b] never make a run faster.
void cond_gates(Gates& gates, std::size_t max_n)
{
    for (const char* family : {"er", "grid", "path"}) {
        for (std::size_t n = 64; n <= max_n; n *= 4) {
            auto g = make_workload(family, n, 13);
            ElkinOptions ideal;
            ideal.bandwidth = 2;
            const auto base = run_elkin_mst(g, ideal);
            for (const std::string config : {"hetero", "adv", "het+adv"}) {
                ElkinOptions o = ideal;
                o.conditioner.hetero_bandwidth = config != "adv";
                o.conditioner.adversarial_order = config != "hetero";
                o.conditioner.seed = 7;
                const auto run = run_elkin_mst(g, o);
                const std::string where = at("E13", family, n, config);
                gates.check("cond-identical-mst", where,
                            run.mst_edges != base.mst_edges, 0);
                if (o.conditioner.hetero_bandwidth)
                    gates.check("cond-caps-never-faster", where,
                                base.stats.rounds, run.stats.rounds);
            }
        }
    }
}

// The async groups' sizes: 64, then 256 and 1024 while n <= max_n / 4.
std::vector<std::size_t> async_sizes(std::size_t max_n)
{
    std::vector<std::size_t> sizes{64};
    for (std::size_t n = 256; n <= 1024 && n <= max_n / 4; n *= 4)
        sizes.push_back(n);
    return sizes;
}

// Driver options on the async engine with one worker.
template <class Options>
Options on_async()
{
    Options o;
    o.engine = Engine::Async;
    o.threads = 1;
    return o;
}

// Elkin behind the α- or β-synchronizer (async.sync), gated against the
// serial run: the same MST and payload, pulse levels that cover the
// serial rounds with a bounded endgame skew, at least one time unit per
// level, and a one-word control plane within the synchronizer's budget.
RunStats sync_gated(Gates& gates, const std::string& point,
                    const WeightedGraph& g, const DistributedMstResult& serial,
                    const AsyncConfig& async)
{
    auto o = on_async<ElkinOptions>();
    o.async = async;
    const auto run = run_elkin_mst(g, o);
    const RunStats& s = run.stats;
    const RunStats& base = serial.stats;
    const std::string where = point + " " + sync_name(async.sync);
    gates.check("sync-identical-mst", where, run.mst_edges != serial.mst_edges,
                0);
    gates.check("sync-payload-exact", where,
                s.messages != base.messages || s.words != base.words, 0);
    gates.check("sync-pulses-cover-rounds", where, base.rounds, s.rounds);
    gates.check("sync-pulse-skew", where, s.rounds,
                2.0 * base.rounds + kPulseSkew);
    gates.check("sync-vtime-covers-pulses", where, s.rounds, s.virtual_time);
    gates.check("sync-one-word-control", where,
                s.sync_words != s.sync_messages, 0);
    gates.check("sync-control-plane", where, s.sync_messages == 0, 0);
    if (async.sync == SyncMode::Alpha)  // one ACK per payload, plus SAFEs
        gates.check("sync-alpha-safe-traffic", where, s.messages,
                    s.sync_messages - 1.0);
    else
        gates.check("sync-beta-budget", where, s.sync_messages,
                    kBetaControl * g.vertex_count() * s.rounds);
    return s;
}

// The native GHS with no synchronizer: no control traffic, the MST's
// weight, a tree the verification protocol accepts, and a replay-exact
// schedule.
void native_gated(Gates& gates, const std::string& point,
                  const WeightedGraph& g, AsyncConfig async)
{
    auto o = on_async<GhsNativeOptions>();
    o.async = async;
    o.async.sync = SyncMode::None;
    const auto r = run_ghs_native(g, o);
    const auto replay = run_ghs_native(g, o);
    const std::string where = point + " none";
    Weight weight = 0;
    for (EdgeId e : collect_claimed_edges(g, r.mst_ports))
        weight += g.edge(e).w;
    gates.check("sync-native-no-control", where,
                r.stats.sync_messages + r.stats.sync_words, 0);
    gates.check("sync-native-weight", where,
                weight != mst_kruskal(g).total_weight, 0);
    gates.check("sync-native-verified", where,
                !run_verify_mst(g, r.mst_ports).accepted, 0);
    gates.check("sync-native-replay", where,
                replay.stats.events != r.stats.events ||
                    replay.stats.virtual_time != r.stats.virtual_time ||
                    replay.stats.messages != r.stats.messages,
                0);
}

// E14 on one graph: α and β host Elkin at every delay point, β's control
// plane beats α's on dense graphs, the native GHS needs no synchronizer,
// and the phase-kicked Borůvka resumes every epoch behind both.
void ladder_gated(Gates& gates, const char* family, std::size_t n)
{
    auto g = make_workload(family, n, 13);
    const auto serial = run_elkin_mst(g, ElkinOptions{});
    for (const char* delay : {"1", "4"}) {
        for (const char* seed : {"1", "2"}) {
            const std::string point =
                at("E14", family, n, std::string("d") + delay + " s" + seed);
            AsyncConfig async;
            async.max_delay = std::stoi(delay);
            async.event_seed = std::stoull(seed);
            async.sync = SyncMode::Alpha;
            const RunStats alpha = sync_gated(gates, point, g, serial, async);
            async.sync = SyncMode::Beta;
            const RunStats beta = sync_gated(gates, point, g, serial, async);
            if (g.edge_count() >= 3 * n)
                gates.check("sync-beta-cheaper", point + " beta",
                            beta.sync_messages, alpha.sync_messages - 1.0);
            native_gated(gates, point, g, async);
        }
    }

    const auto boruvka = run_sync_boruvka(g, SyncBoruvkaOptions{});
    for (SyncMode sync : {SyncMode::Alpha, SyncMode::Beta}) {
        auto o = on_async<SyncBoruvkaOptions>();
        o.async.sync = sync;
        const auto run = run_sync_boruvka(g, o);
        const std::string where =
            at("E14", family, n, std::string("boruvka ") + sync_name(sync));
        gates.check("sync-epoch-resume", where,
                    run.mst_edges != boruvka.mst_edges ||
                        run.phases != boruvka.phases ||
                        run.stats.messages != boruvka.stats.messages,
                    0);
    }
}

void sync_gates(Gates& gates, std::size_t max_n)
{
    for (const char* family : {"er", "grid", "path"})
        for (std::size_t n : async_sizes(max_n))
            ladder_gated(gates, family, n);
}

// E15: the loss shim is transparent, a no-op at p = 0, and retransmits
// within its gate.
void loss_gates(Gates& gates, std::size_t max_n)
{
    for (const char* family : {"er", "grid", "path"}) {
        for (std::size_t n : async_sizes(max_n)) {
            auto g = make_workload(family, n, 13);
            auto clean = on_async<ElkinOptions>();
            clean.bandwidth = 2;
            const auto base = run_elkin_mst(g, clean);
            for (const char* rate : {"0", "0.05", "0.2"}) {
                const double p = std::stod(rate);
                ElkinOptions o = clean;
                o.faults.drop_rate = p;
                o.faults.loss_seed = 11;
                const auto run = run_elkin_mst(g, o);
                const RunStats& s = run.stats;
                const std::string where =
                    at("E15", family, n, std::string("p=") + rate);
                gates.check("loss-identical-mst", where,
                            run.mst_edges != base.mst_edges, 0);
                gates.check("loss-protocol-counts", where,
                            s.messages != base.stats.messages ||
                                s.words != base.stats.words,
                            0);
                if (p == 0)
                    gates.check("loss-noop-at-zero", where,
                                s.drops + s.retransmissions + s.acks +
                                    s.timeouts,
                                0);
                gates.check("loss-retransmissions", where, s.retransmissions,
                            (kRetransPerLoss * p + kRetransSlack) * s.messages);
            }
        }
    }
}

}  // namespace

int main(int argc, char** argv)
{
    Args args;
    args.define("max_n", "1024", "largest graph size of the size sweeps");
    std::size_t max_n = 0;
    try {
        args.parse(argc, argv);
        max_n = static_cast<std::size_t>(args.get_int("max_n"));
        if (max_n < 128)
            throw std::invalid_argument("--max_n must be >= 128");
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n" << args.help();
        return 1;
    }

    Gates gates;
    try {
        run_gates(gates, max_n);
        cond_gates(gates, max_n);
        sync_gates(gates, max_n);
        loss_gates(gates, max_n);
    } catch (const std::exception& e) {
        std::cerr << "paper_gates: run failed: " << e.what() << "\n";
        return 1;
    }
    return gates.finish();
}
