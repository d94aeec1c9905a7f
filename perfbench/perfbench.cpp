// The repository benchmark: host time per verified MST, the paper's two
// model costs (rounds and messages), and a per-layer split of where the
// host time goes. See README.md in this directory for the workloads and
// the metric table; run.py builds this binary and forwards its flags.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace_dir DIR] [--commit SHA]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate instrumented run that reports the per-layer metrics (and
// writes a Chrome trace into --trace_dir). Either way the last stdout line
// is one JSON object {correct, attempted, failed, metrics}. Every solve is
// checked against sequential Kruskal, and every counter must reproduce
// exactly — across repeated solves, between the driver call and the hosted
// runs, and against the pinned seed-1 values — or the run fails.
//
// The library is driven only through its public surface: make_workload,
// mst_kruskal, run_elkin_mst / run_ghs_native, and make_network +
// NetworkBase::init / step hosting the public ElkinProcess behind a thin
// counting Process wrapper.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dmst/core/elkin_mst.h"
#include "dmst/core/ghs_native.h"
#include "dmst/core/mst_output.h"
#include "dmst/exp/workloads.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"

namespace {

using namespace dmst;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double mean(const std::vector<double>& v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// ------------------------------------------------------------ workloads

enum class Driver { Elkin, GhsNative };

// The deterministic counters of one solve. They must match exactly between
// repeated solves, between the driver call and every hosted run, and (for
// the first graph of --seed 1) the pinned values of the workload table.
struct Counters {
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    std::uint64_t events = 0;
    std::uint64_t virtual_time = 0;
    std::uint64_t sync_messages = 0;

    static Counters of(const RunStats& s)
    {
        return {s.rounds, s.messages, s.words, s.events, s.virtual_time,
                s.sync_messages};
    }
    bool operator==(const Counters& o) const
    {
        return rounds == o.rounds && messages == o.messages &&
               words == o.words && events == o.events &&
               virtual_time == o.virtual_time &&
               sync_messages == o.sync_messages;
    }
    bool operator!=(const Counters& o) const { return !(*this == o); }
    std::string str() const
    {
        std::ostringstream os;
        os << "rounds=" << rounds << " messages=" << messages
           << " words=" << words << " events=" << events
           << " virtual_time=" << virtual_time
           << " sync_messages=" << sync_messages;
        return os.str();
    }
};

struct Workload {
    const char* name;
    Driver driver;
    const char* family;
    std::size_t n;
    Engine engine;
    int threads;
    SyncMode sync;
    // Graphs per run. The workload seed changes the graph, and with it the
    // round, message and wall-time cost by up to ~30% on the async GHS
    // cell; averaging over several graphs keeps a run's figures steady
    // across seeds.
    int graphs;
    Counters seed1;  // pinned counters of the first graph of --seed 1
};

// Bandwidth b = 1 and async max_delay 4 / event_seed 1 everywhere.
const Workload kWorkloads[] = {
    {"elkin-grid-serial", Driver::Elkin, "grid", 2048, Engine::Serial, 1,
     SyncMode::Alpha, 4, {12783, 401120, 1472291, 0, 0, 0}},
    {"ghs-native-er-async", Driver::GhsNative, "er", 65536, Engine::Async, 1,
     SyncMode::None, 8, {140, 2443264, 7311395, 2443264, 4062, 0}},
    {"elkin-er-async-beta", Driver::Elkin, "er", 1024, Engine::Async, 1,
     SyncMode::Beta, 8, {2069, 180339, 640021, 4593852, 67093, 4413513}},
    {"elkin-er-parallel", Driver::Elkin, "er", 4096, Engine::Parallel, 4,
     SyncMode::Alpha, 8, {3664, 837862, 2992176, 0, 0, 0}},
};

const Workload* find_workload(const std::string& name)
{
    for (const Workload& w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

// Workload seed of graph i of a run: runs with distinct --seed values use
// disjoint graph sets, and graph 0 of --seed 1 is workload seed 1 (the
// scenario_runner default the pinned counters come from).
std::uint64_t graph_seed(const Workload& w, std::uint64_t seed, int i)
{
    return (seed - 1) * static_cast<std::uint64_t>(w.graphs) +
           static_cast<std::uint64_t>(i) + 1;
}

int hardware_threads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int worker_threads(const Workload& w)
{
    return std::min(w.threads, hardware_threads());
}

template <typename Opts>
Opts options_for(const Workload& w)
{
    Opts o;
    o.bandwidth = 1;
    o.engine = w.engine;
    o.threads = worker_threads(w);
    o.async.max_delay = 4;
    o.async.event_seed = 1;
    o.async.sync = w.sync;
    return o;
}

// The NetConfig run_elkin_mst builds internally (it forces the per-round
// trace and the span trace on); the hosted runs start from it.
NetConfig elkin_net_config(const ElkinOptions& o, bool span_trace)
{
    NetConfig c = o.to_net_config();
    c.record_per_round = true;
    c.trace.enabled = span_trace;
    return c;
}

// ------------------------------------------------------------ setup

struct Instance {
    WeightedGraph graph;
    MstResult reference;
    double workload_s;
    double kruskal_s;
};

Instance make_instance(const Workload& w, std::uint64_t workload_seed)
{
    auto t0 = Clock::now();
    WeightedGraph g = make_workload(w.family, w.n, workload_seed);
    const double workload_s = seconds_since(t0);
    t0 = Clock::now();
    MstResult reference = mst_kruskal(g);
    const double kruskal_s = seconds_since(t0);
    return {std::move(g), std::move(reference), workload_s, kruskal_s};
}

// ------------------------------------------------------------ host speed

// On a host shared with other tenants the same solve swings by up to 2x
// for minutes at a time with the load on neighbouring cores, while
// latency-bound kernels (pointer chase, one dependent ALU chain, sort, hash
// map) stay flat. This kernel, eight independent xorshift chains that fill
// the execution ports like the drivers' branchy integer code does, slows
// with them (correlation ~0.75 per solve on a 4-vCPU Xeon VM). It uses no
// library code, so no change to the library moves it. With `threads` > 1
// every thread runs it and the time is until the last one ends, the way a
// parallel round waits for its slowest worker.
double host_kernel_s(int threads)
{
    auto kernel = [] {
        std::uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        for (int step = 0; step < 9'000'000; ++step)
            for (std::uint64_t& v : x) {
                v ^= v << 13;
                v ^= v >> 7;
                v ^= v << 17;
            }
        volatile std::uint64_t sink = x[0] ^ x[7];
        (void)sink;
    };
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (int t = 1; t < threads; ++t)
        workers.emplace_back(kernel);
    kernel();
    for (std::thread& t : workers)
        t.join();
    return seconds_since(t0);
}

// The kernel's time on that VM in a quiet period. End-to-end times are
// scaled by kReferenceKernelS / (the run's median kernel time): seconds at
// the reference host speed, steady while neighbours come and go.
constexpr double kReferenceKernelS = 0.022;

// ------------------------------------------------------------ driver calls

struct CpuTimes {
    double user_s = 0.0;
    double sys_s = 0.0;
};

CpuTimes cpu_now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

struct Solve {
    Counters counters;
    std::vector<EdgeId> edges;
    double wall_s = 0.0;
    CpuTimes cpu;  // user/sys seconds spent during the call
    // Elkin milestones from DistributedMstResult (zero for ghs_native).
    std::uint64_t phase2_rounds = 0;
    std::uint64_t phase2_messages = 0;
    std::uint64_t base_fragments = 0;
    std::uint64_t boruvka_phases = 0;
};

// One driver call, timed from the call to its return. `trace` sets the
// driver's opts.trace (Elkin forces its span trace on regardless).
Solve run_driver(const Workload& w, const WeightedGraph& g, bool trace)
{
    Solve s;
    const CpuTimes c0 = cpu_now();
    const auto t0 = Clock::now();
    if (w.driver == Driver::Elkin) {
        ElkinOptions o = options_for<ElkinOptions>(w);
        o.trace = trace;
        const DistributedMstResult r = run_elkin_mst(g, o);
        s.wall_s = seconds_since(t0);
        s.counters = Counters::of(r.stats);
        s.edges = r.mst_edges;
        s.phase2_rounds = r.phase2_rounds;
        s.phase2_messages = r.phase2_messages;
        s.base_fragments = r.base_fragments;
        s.boruvka_phases = static_cast<std::uint64_t>(r.boruvka_phases);
    } else {
        GhsNativeOptions o = options_for<GhsNativeOptions>(w);
        o.trace = trace;
        const MstForestResult r = run_ghs_native(g, o);
        s.wall_s = seconds_since(t0);
        s.counters = Counters::of(r.stats);
        s.edges = collect_mst_edges(g, r.mst_ports);
    }
    const CpuTimes c1 = cpu_now();
    s.cpu = {c1.user_s - c0.user_s, c1.sys_s - c0.sys_s};
    return s;
}

// ------------------------------------------------------------ hosted runs

// Counts and times ElkinProcess::on_round from outside the library. Every
// counter lives in the wrapper of its own vertex, so the parallel and async
// shards update them without any shared state.
class CountingProcess final : public Process {
public:
    explicit CountingProcess(std::unique_ptr<ElkinProcess> inner)
        : inner_(std::move(inner))
    {
    }

    void on_round(Context& ctx) override
    {
        ++activations_;
        if (ctx.inbox().empty())
            ++idle_activations_;
        const auto t0 = Clock::now();
        inner_->on_round(ctx);
        handler_ns_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                .count());
    }
    bool done() const override { return inner_->done(); }

    const ElkinProcess& inner() const { return *inner_; }
    std::uint64_t activations() const { return activations_; }
    std::uint64_t idle_activations() const { return idle_activations_; }
    std::uint64_t handler_ns() const { return handler_ns_; }

private:
    std::unique_ptr<ElkinProcess> inner_;
    std::uint64_t activations_ = 0;
    std::uint64_t idle_activations_ = 0;
    std::uint64_t handler_ns_ = 0;
};

// One step() of the instrumented hosted run, for the Chrome trace.
struct StepSample {
    double start_s;    // since the trace epoch
    double wall_s;     // inside step()
    double handler_s;  // summed on_round time of every vertex in the step
    std::uint64_t messages;
};

struct Hosted {
    Counters counters;
    std::vector<EdgeId> edges;
    double wall_s = 0.0;   // make_network through harvest
    double build_s = 0.0;  // make_network + init
    double start_s = 0.0;  // since the trace epoch
    // Instrumented runs only.
    double step_s = 0.0;
    double silent_step_s = 0.0;
    std::uint64_t steps = 0;
    std::uint64_t silent_steps = 0;
    std::uint64_t activations = 0;
    std::uint64_t idle_activations = 0;
    double handler_s = 0.0;
    std::vector<StepSample> samples;
};

void step_to_quiescence(NetworkBase& net, const NetConfig& config)
{
    while (net.step()) {
        if (net.stats().rounds > config.max_rounds)
            throw std::runtime_error("hosted run exceeded max_rounds");
    }
}

// Hosts ElkinProcess directly (no wrapper, no timers) with the span trace
// off and times the whole solve: the denominator of obs.trace_tax.
Hosted host_plain(const WeightedGraph& g, const ElkinOptions& o,
                  Clock::time_point epoch)
{
    Hosted h;
    const NetConfig config = elkin_net_config(o, false);
    const std::uint64_t n = g.vertex_count();
    const auto t0 = Clock::now();
    h.start_s = std::chrono::duration<double>(t0 - epoch).count();
    std::unique_ptr<NetworkBase> net = make_network(g, config);
    net->init([&](VertexId v) { return std::make_unique<ElkinProcess>(v, n, o); });
    h.build_s = seconds_since(t0);
    step_to_quiescence(*net, config);
    std::vector<std::vector<std::size_t>> ports(n);
    for (VertexId v = 0; v < n; ++v) {
        const auto& p = static_cast<const ElkinProcess&>(net->process(v));
        ports[v].assign(p.mst_ports().begin(), p.mst_ports().end());
    }
    h.edges = collect_mst_edges(g, ports);
    h.wall_s = seconds_since(t0);
    h.counters = Counters::of(net->stats());
    return h;
}

// The instrumented run: the driver's own NetConfig (span trace on), every
// vertex behind a CountingProcess, and a timer around each step().
Hosted host_counted(const WeightedGraph& g, const ElkinOptions& o,
                    Clock::time_point epoch, bool keep_samples)
{
    Hosted h;
    const NetConfig config = elkin_net_config(o, true);
    const std::uint64_t n = g.vertex_count();
    std::vector<const CountingProcess*> procs(n, nullptr);
    const auto t0 = Clock::now();
    h.start_s = std::chrono::duration<double>(t0 - epoch).count();
    std::unique_ptr<NetworkBase> net = make_network(g, config);
    net->init([&](VertexId v) {
        auto p = std::make_unique<CountingProcess>(
            std::make_unique<ElkinProcess>(v, n, o));
        procs[v] = p.get();
        return p;
    });
    h.build_s = seconds_since(t0);

    std::uint64_t handler_ns_before = 0;
    for (;;) {
        const std::uint64_t messages_before = net->stats().messages;
        const auto s0 = Clock::now();
        const bool ran = net->step();
        const double wall = seconds_since(s0);
        if (!ran)
            break;
        if (net->stats().rounds > config.max_rounds)
            throw std::runtime_error("hosted run exceeded max_rounds");
        const std::uint64_t sent = net->stats().messages - messages_before;
        ++h.steps;
        h.step_s += wall;
        if (sent == 0) {
            ++h.silent_steps;
            h.silent_step_s += wall;
        }
        if (keep_samples) {
            std::uint64_t handler_ns = 0;
            for (const CountingProcess* p : procs)
                handler_ns += p->handler_ns();
            h.samples.push_back(
                {std::chrono::duration<double>(s0 - epoch).count(), wall,
                 1e-9 * static_cast<double>(handler_ns - handler_ns_before), sent});
            handler_ns_before = handler_ns;
        }
    }

    std::vector<std::vector<std::size_t>> ports(n);
    std::uint64_t handler_ns = 0;
    for (VertexId v = 0; v < n; ++v) {
        const CountingProcess& p = *procs[v];
        ports[v].assign(p.inner().mst_ports().begin(), p.inner().mst_ports().end());
        h.activations += p.activations();
        h.idle_activations += p.idle_activations();
        handler_ns += p.handler_ns();
    }
    h.handler_s = 1e-9 * static_cast<double>(handler_ns);
    h.edges = collect_mst_edges(g, ports);
    h.wall_s = seconds_since(t0);
    h.counters = Counters::of(net->stats());
    return h;
}

// A message-driven process that is done from the start: hosting it times
// make_network + init for the native GHS cell, whose process type is
// private to the library.
class IdleProcess final : public MessageProcess {
public:
    void on_message(Context&, std::size_t, Message&&) override {}
    bool done() const override { return true; }
};

double time_native_build(const WeightedGraph& g, const GhsNativeOptions& o)
{
    const auto t0 = Clock::now();
    std::unique_ptr<NetworkBase> net = make_network(g, o.to_net_config());
    net->init([](VertexId) { return std::make_unique<IdleProcess>(); });
    return seconds_since(t0);  // before the network is torn down
}

// ------------------------------------------------------------ reporting

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

// Every digit of the measured value (whole counts print as integers).
std::string format_value(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string json_escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

int affinity_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool optimized_build()
{
#ifndef __OPTIMIZE__
    return false;
#else
    const std::string bt = PERFBENCH_BUILD_TYPE;
    return bt == "Release" || bt == "RelWithDebInfo" || bt == "MinSizeRel";
#endif
}

void print_provenance(const std::string& commit)
{
    std::cout << "provenance {\"nproc\":" << affinity_cpus()
              << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
              << ",\"build_type\":\"" << json_escape(PERFBENCH_BUILD_TYPE)
              << "\",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
              << "\",\"git_commit\":\"" << json_escape(commit) << "\"}\n";
}

// ------------------------------------------------------------ Chrome trace

class ChromeTrace {
public:
    void span(const std::string& name, double start_s, double dur_s,
              const std::string& args = "")
    {
        std::ostringstream os;
        os << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << us(start_s) << ",\"dur\":" << us(dur_s);
        if (!args.empty())
            os << ",\"args\":{" << args << "}";
        os << "}";
        events_.push_back(os.str());
    }
    void counter(const std::string& name, double at_s, double value)
    {
        std::ostringstream os;
        os << "{\"name\":\"" << name << "\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":"
           << us(at_s) << ",\"args\":{\"" << name << "\":" << value << "}}";
        events_.push_back(os.str());
    }
    bool write(const std::string& path) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        for (std::size_t i = 0; i < events_.size(); ++i)
            out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
        out << "]}\n";
        return static_cast<bool>(out);
    }

private:
    static std::string us(double s)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", s * 1e6);
        return buf;
    }
    std::vector<std::string> events_;
};

// ------------------------------------------------------------ the runs

struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;  // solves whose edge set differs from Kruskal
    bool counters_ok = true;   // every reproduction held
    std::vector<Metric> metrics;
};

// Checks one solve's edge set against Kruskal and its counters against
// `expect`, recording the outcome.
void check_solve(const char* what, const std::vector<EdgeId>& edges,
                 const Counters& got, const Instance& inst, const Counters& expect,
                 Outcome& out)
{
    ++out.attempted;
    const bool mst_ok = edges == inst.reference.edges;
    if (!mst_ok) {
        ++out.failed;
        std::cerr << "perfbench: " << what << " returned an edge set that differs "
                  << "from Kruskal\n";
    }
    if (got != expect) {
        out.counters_ok = false;
        std::cerr << "perfbench: " << what << " counters differ\n  got    "
                  << got.str() << "\n  expect " << expect.str() << "\n";
    }
}

void check_pinned(const Workload& w, std::uint64_t seed, const Counters& first,
                  Outcome& out)
{
    if (seed != 1 || first == w.seed1)
        return;
    out.counters_ok = false;
    std::cerr << "perfbench: seed-1 counters differ from the pinned values\n  got    "
              << first.str() << "\n  pinned " << w.seed1.str() << "\n";
}

// End-to-end run, tracing off: several set-ups for setup_s, then solves
// round-robin over the run's graphs until the time budget is spent.
Outcome run_end_to_end(const Workload& w, std::uint64_t seed, double seconds)
{
    Outcome out;
    const int graphs = w.graphs;

    // Set up the whole graph set, repeated until ~1 s of set-up work (at
    // most 200 set-ups); setup_s is the median per-graph set-up.
    std::vector<double> kernel{host_kernel_s(worker_threads(w))};
    std::vector<double> setup_samples;
    std::vector<Instance> instances;
    double setup_total = 0.0;
    while (instances.empty() || (setup_total < 1.0 && setup_samples.size() < 200)) {
        std::vector<Instance> fresh;
        for (int i = 0; i < graphs; ++i) {
            fresh.push_back(make_instance(w, graph_seed(w, seed, i)));
            const double s = fresh.back().workload_s + fresh.back().kruskal_s;
            setup_samples.push_back(s);
            setup_total += s;
            if (!instances.empty() &&
                fresh.back().reference.edges != instances[i].reference.edges)
                throw std::runtime_error("make_workload is not deterministic");
        }
        instances = std::move(fresh);
    }

    // One untimed (but checked) warm-up solve of graph 0 takes the process's
    // first-touch costs. Then solve every graph at least once, and keep
    // going round-robin while the next solve is predicted to end inside
    // the budget.
    std::vector<std::vector<double>> wall(graphs);
    std::vector<Counters> first(graphs);
    const auto t0 = Clock::now();
    kernel.push_back(host_kernel_s(worker_threads(w)));
    const Solve warm = run_driver(w, instances[0].graph, false);
    first[0] = warm.counters;
    check_solve("warm-up solve", warm.edges, warm.counters, instances[0], first[0], out);
    for (std::size_t k = 0;; ++k) {
        const int i = static_cast<int>(k % static_cast<std::size_t>(graphs));
        const bool first_pass = k < static_cast<std::size_t>(graphs);
        if (!first_pass) {
            const double elapsed = seconds_since(t0);
            const double per_solve = elapsed / static_cast<double>(k + 1);
            if (elapsed + per_solve > seconds)
                break;
        }
        kernel.push_back(host_kernel_s(worker_threads(w)));
        const Solve s = run_driver(w, instances[i].graph, false);
        if (first_pass && i > 0)
            first[i] = s.counters;
        check_solve("run_* solve", s.edges, s.counters, instances[i], first[i], out);
        wall[i].push_back(s.wall_s);
    }
    check_pinned(w, seed, first[0], out);

    // solve_s is the median over every timed solve of the run (graphs
    // differ by a few percent, single solves on a shared host by more),
    // and like setup_s it is scaled to the reference host speed.
    const double scale = kReferenceKernelS / median(kernel);
    std::vector<double> solve, rounds, sim_time, messages, all_messages;
    for (int i = 0; i < graphs; ++i) {
        const Counters& c = first[i];
        solve.insert(solve.end(), wall[i].begin(), wall[i].end());
        rounds.push_back(static_cast<double>(c.rounds));
        sim_time.push_back(static_cast<double>(
            w.engine == Engine::Async ? c.virtual_time : c.rounds));
        messages.push_back(static_cast<double>(c.messages));
        all_messages.push_back(static_cast<double>(c.messages + c.sync_messages));
    }
    out.metrics = {
        {"solve_s", median(solve) * scale, "s"},
        {"setup_s", median(setup_samples) * scale, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"rounds", mean(rounds), "count"},
        {"sim_time", mean(sim_time), "count"},
        {"messages", mean(messages), "count"},
        {"all_messages", mean(all_messages), "count"},
    };
    std::cout << "host_kernel_s " << median(kernel) << " (scale " << scale
              << "); unscaled solve_s " << median(solve) << ", setup_s "
              << median(setup_samples) << "\ntimed solves:";
    for (double s : solve)
        std::cout << " " << s;
    std::cout << "\n";
    return out;
}

// Per-layer run: one graph (graph 0 of the seed), traced passes repeated
// while the budget lasts; times are medians over passes, counts exact.
Outcome run_per_layer(const Workload& w, std::uint64_t seed, double seconds,
                      const std::string& trace_path)
{
    Outcome out;
    ChromeTrace chrome;
    const auto epoch = Clock::now();
    const Instance inst = make_instance(w, graph_seed(w, seed, 0));
    const double setup_end = seconds_since(epoch);
    chrome.span("setup", 0.0, setup_end);
    chrome.span("exp.workload", 0.0, inst.workload_s);
    chrome.span("seq.kruskal", inst.workload_s, inst.kruskal_s);

    std::map<std::string, std::vector<double>> samples;
    auto sample = [&](const std::string& name, double v) { samples[name].push_back(v); };
    // An untimed, checked warm-up driver call, so the first pass's ratios
    // (obs.trace_tax above all) do not charge first-touch costs to one side.
    const auto t0 = Clock::now();
    const Solve driver = run_driver(w, inst.graph, false);
    check_solve("warm-up solve", driver.edges, driver.counters, inst, driver.counters,
                out);
    Hosted counted;  // first pass's instrumented run (Elkin)
    double pass_s = 0.0;
    for (int pass = 0;; ++pass) {
        const double elapsed = seconds_since(t0);
        if (pass > 0 && elapsed + pass_s > seconds)
            break;
        const auto p0 = Clock::now();
        const bool first_pass = pass == 0;

        sample("bench.host_kernel_s", host_kernel_s(worker_threads(w)));
        const double drv_start = seconds_since(epoch);
        const Solve d = run_driver(w, inst.graph, false);
        check_solve("run_* solve", d.edges, d.counters, inst, driver.counters, out);
        if (first_pass)
            chrome.span("driver", drv_start, d.wall_s);
        const double cpu = d.cpu.user_s + d.cpu.sys_s;
        sample("sim.cpu_util", cpu / d.wall_s);
        sample("sim.sys_share", cpu > 0 ? d.cpu.sys_s / cpu : 0.0);

        if (w.driver == Driver::Elkin) {
            const ElkinOptions o = options_for<ElkinOptions>(w);
            const Hosted plain = host_plain(inst.graph, o, epoch);
            check_solve("hosted run (trace off)", plain.edges, plain.counters, inst,
                        driver.counters, out);
            if (first_pass)
                chrome.span("hosted.untraced", plain.start_s, plain.wall_s);
            const Hosted c = host_counted(inst.graph, o, epoch, first_pass);
            check_solve("instrumented hosted run", c.edges, c.counters, inst,
                        driver.counters, out);
            if (first_pass)
                counted = c;
            sample("sim.build_s", c.build_s);
            sample("sim.step_s", c.step_s);
            sample("sim.silent_step_s", c.silent_step_s);
            // Handler time is summed over vertices, so on the parallel
            // engine it is worker-seconds; the substrate share is the
            // worker-seconds inside step() that no handler used (staging,
            // delivery, synchronizer and barrier waits).
            sample("core.handler_s", c.handler_s);
            sample("congest.substrate_s", c.step_s * o.threads - c.handler_s);
            const double events = static_cast<double>(
                w.engine == Engine::Async ? c.counters.events : c.counters.messages);
            sample("sim.ns_per_event", 1e9 * c.step_s / events);
            sample("obs.trace_tax", d.wall_s / plain.wall_s - 1.0);
            sample("bench.trace_overhead", c.wall_s / d.wall_s - 1.0);
        } else {
            const GhsNativeOptions o = options_for<GhsNativeOptions>(w);
            const double traced_start = seconds_since(epoch);
            const Solve traced = run_driver(w, inst.graph, true);
            check_solve("run_ghs_native (trace on)", traced.edges, traced.counters,
                        inst, driver.counters, out);
            const double build_start = seconds_since(epoch);
            const double build_s = time_native_build(inst.graph, o);
            const double step_s = d.wall_s - build_s;
            sample("sim.build_s", build_s);
            sample("sim.step_s", step_s);
            sample("sim.silent_step_s", 0.0);
            sample("core.handler_s", 0.0);
            sample("congest.substrate_s", 0.0);
            sample("sim.ns_per_event",
                   1e9 * step_s / static_cast<double>(d.counters.events));
            sample("obs.trace_tax", traced.wall_s / d.wall_s - 1.0);
            sample("bench.trace_overhead", traced.wall_s / d.wall_s - 1.0);
            if (first_pass) {
                chrome.span("solve", traced_start, traced.wall_s);
                chrome.span("sim.build", build_start, build_s);
            }
        }
        pass_s = seconds_since(p0);
    }
    check_pinned(w, seed, driver.counters, out);
    const double workload_end = seconds_since(epoch);

    const Counters& c = driver.counters;
    const bool elkin = w.driver == Driver::Elkin;
    const double messages = static_cast<double>(c.messages);
    const std::uint64_t events = w.engine == Engine::Async ? c.events : c.messages;
    const bool pulsed = w.engine == Engine::Async && w.sync != SyncMode::None;
    auto med = [&](const char* name) { return median(samples[name]); };
    out.metrics = {
        {"exp.workload_s", inst.workload_s, "s"},
        {"seq.kruskal_s", inst.kruskal_s, "s"},
        {"sim.build_s", med("sim.build_s"), "s"},
        {"sim.steps",
         static_cast<double>(elkin ? counted.steps : c.virtual_time), "count"},
        {"sim.step_s", med("sim.step_s"), "s"},
        {"sim.silent_steps", static_cast<double>(counted.silent_steps), "count"},
        {"sim.silent_step_s", med("sim.silent_step_s"), "s"},
        {"sim.events", static_cast<double>(events), "count"},
        {"sim.ns_per_event", med("sim.ns_per_event"), "ns"},
        {"sim.cpu_util", med("sim.cpu_util"), "ratio"},
        {"sim.sys_share", med("sim.sys_share"), "ratio"},
        {"core.activations", static_cast<double>(counted.activations), "count"},
        {"core.idle_activations", static_cast<double>(counted.idle_activations),
         "count"},
        {"core.activations_per_message",
         static_cast<double>(counted.activations) / messages, "ratio"},
        {"core.handler_s", med("core.handler_s"), "s"},
        {"core.phase2_rounds", static_cast<double>(driver.phase2_rounds), "count"},
        {"core.phase2_messages", static_cast<double>(driver.phase2_messages), "count"},
        {"core.base_fragments", static_cast<double>(driver.base_fragments), "count"},
        {"core.boruvka_phases", static_cast<double>(driver.boruvka_phases), "count"},
        {"congest.substrate_s", med("congest.substrate_s"), "s"},
        {"sync.messages", static_cast<double>(c.sync_messages), "count"},
        {"sync.control_per_payload", static_cast<double>(c.sync_messages) / messages,
         "ratio"},
        {"sync.events_per_pulse",
         pulsed ? static_cast<double>(c.events) / static_cast<double>(c.rounds) : 0.0,
         "ratio"},
        {"obs.trace_tax", med("obs.trace_tax"), "ratio"},
        {"bench.trace_overhead", med("bench.trace_overhead"), "ratio"},
        {"bench.host_kernel_s", med("bench.host_kernel_s"), "s"},
    };

    if (!trace_path.empty()) {
        chrome.span("workload", 0.0, workload_end,
                    std::string("\"workload\":\"") + w.name + "\",\"seed\":" +
                        std::to_string(seed));
        if (elkin) {
            chrome.span("solve", counted.start_s, counted.wall_s);
            chrome.span("sim.build", counted.start_s, counted.build_s);
            for (const StepSample& s : counted.samples) {
                chrome.span("sim.step", s.start_s, s.wall_s,
                            "\"messages\":" + std::to_string(s.messages));
                chrome.counter("core.handler_us", s.start_s, 1e6 * s.handler_s);
            }
        }
        if (chrome.write(trace_path))
            std::cout << "chrome trace: " << trace_path << "\n";
        else
            std::cerr << "perfbench: could not write " << trace_path << "\n";
    }
    return out;
}

// ------------------------------------------------------------ main

struct CliArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string trace_dir;
    std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why)
{
    std::cerr << "perfbench: " << why << "\nusage: perfbench --workload NAME "
              << "--seed N --seconds S --trace 0|1 [--trace_dir DIR] [--commit SHA]\n"
              << "workloads:";
    for (const Workload& w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
}

CliArgs parse_args(int argc, char** argv)
{
    CliArgs a;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("flag " + key + " needs a value");
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload")
                a.workload = value;
            else if (key == "--seed")
                a.seed = std::stoull(value);
            else if (key == "--seconds")
                a.seconds = std::stod(value);
            else if (key == "--trace")
                a.trace = std::stoi(value);
            else if (key == "--trace_dir")
                a.trace_dir = value;
            else if (key == "--commit")
                a.commit = value;
            else
                usage("unknown flag " + key);
        } catch (const std::logic_error&) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (a.seed < 1)
        usage("--seed must be >= 1");
    if (a.seconds <= 0)
        usage("--seconds must be > 0");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    return a;
}

}  // namespace

int main(int argc, char** argv)
{
    const CliArgs args = parse_args(argc, argv);
    const Workload* w = find_workload(args.workload);
    if (w == nullptr)
        usage("unknown workload '" + args.workload + "'");
    if (!optimized_build()) {
        std::cerr << "perfbench: refusing to measure an unoptimised build (build type '"
                  << PERFBENCH_BUILD_TYPE << "')\n";
        return 2;
    }

    std::cout << "perfbench workload=" << w->name << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << args.trace
              << " graphs=" << (args.trace ? 1 : w->graphs) << "\n";
    print_provenance(args.commit);

    Outcome out;
    try {
        if (args.trace == 0) {
            out = run_end_to_end(*w, args.seed, args.seconds);
        } else {
            const std::string path =
                args.trace_dir.empty()
                    ? std::string()
                    : args.trace_dir + "/" + w->name + "-seed" +
                          std::to_string(args.seed) + ".trace.json";
            out = run_per_layer(*w, args.seed, args.seconds, path);
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    std::ostringstream json;
    json << "{\"correct\": " << (out.failed == 0 && out.counters_ok ? "true" : "false")
         << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        std::cout << "metric " << m.name << " " << format_value(m.value) << " " << m.unit
                  << "\n";
        json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
             << format_value(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return out.failed == 0 && out.counters_ok ? 0 : 1;
}
