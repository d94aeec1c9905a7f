// Experiment E9 — substrate wall-clock microbenchmarks (library quality,
// not a paper claim): sequential MST implementations and simulator round
// throughput, via google-benchmark.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include <algorithm>
#include <cstdint>

#include "dmst/congest/network.h"
#include "dmst/core/elkin_mst.h"
#include "dmst/graph/generators.h"
#include "dmst/obs/trace.h"
#include "dmst/seq/mst.h"
#include "dmst/sim/engine.h"
#include "dmst/sim/event_queue.h"
#include "dmst/sim/parallel_network.h"
#include "dmst/sim/synchronizer.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

WeightedGraph er_graph(std::size_t n)
{
    Rng rng(42);
    return gen_erdos_renyi(n, 4 * n, rng);
}

void BM_Kruskal(benchmark::State& state)
{
    auto g = er_graph(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(mst_kruskal(g));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Kruskal)->Range(256, 4096)->Complexity(benchmark::oNLogN);

void BM_Prim(benchmark::State& state)
{
    auto g = er_graph(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(mst_prim(g));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Prim)->Range(256, 4096)->Complexity(benchmark::oNLogN);

void BM_Boruvka(benchmark::State& state)
{
    auto g = er_graph(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(mst_boruvka(g));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Boruvka)->Range(256, 1024);

// Simulator throughput: a flood over a grid, measuring vertex-rounds/sec.
class FloodProcess : public Process {
public:
    void on_round(Context& ctx) override
    {
        bool heard = ctx.id() == 0 || !ctx.inbox().empty();
        if (heard && !forwarded_) {
            for (std::size_t p = 0; p < ctx.degree(); ++p)
                ctx.send(p, Message{1, {}});
            forwarded_ = true;
        }
    }
    bool done() const override { return forwarded_; }

private:
    bool forwarded_ = false;
};

void BM_SimulatorFlood(benchmark::State& state)
{
    Rng rng(7);
    auto side = static_cast<std::size_t>(state.range(0));
    auto g = gen_grid(side, side, rng);
    for (auto _ : state) {
        Network net(g, NetConfig{});
        net.init([](VertexId) { return std::make_unique<FloodProcess>(); });
        RunStats stats = net.run();
        benchmark::DoNotOptimize(stats.messages);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(g.vertex_count()));
}
BENCHMARK(BM_SimulatorFlood)->Range(8, 64);

// Engine round-throughput comparison on a dense-ish graph at scale: the
// acceptance bar for the sharded engine is >= 2x vertex-round throughput
// over serial at n >= 50k on a multi-core host. args: {n, threads};
// threads == 0 selects the serial reference engine.
void BM_EngineRoundThroughput(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const int threads = static_cast<int>(state.range(1));
    Rng rng(7);
    auto g = gen_erdos_renyi(n, 4 * n, rng);
    std::uint64_t rounds = 0;
    for (auto _ : state) {
        NetConfig config;
        config.engine = threads == 0 ? Engine::Serial : Engine::Parallel;
        config.threads = threads;
        auto net = make_network(g, config);
        net->init([](VertexId) { return std::make_unique<FloodProcess>(); });
        RunStats stats = net->run();
        rounds = stats.rounds;
        benchmark::DoNotOptimize(stats.messages);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(g.vertex_count()) *
                            static_cast<std::int64_t>(rounds));
    // Deterministic tick count of the simulated run: gated exactly by
    // scripts/bench_gate.py (a change means the substrate's schedule
    // changed, not that the runner was noisy).
    state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_EngineRoundThroughput)
    ->Args({50'000, 0})
    ->Args({50'000, 1})
    ->Args({50'000, 2})
    ->Args({50'000, 4})
    ->Args({50'000, 8})
    ->Unit(benchmark::kMillisecond);

// End-to-end wall-clock of the full Elkin run (simulation cost, not model
// rounds).
void BM_ElkinEndToEnd(benchmark::State& state)
{
    auto g = er_graph(static_cast<std::size_t>(state.range(0)));
    std::uint64_t rounds = 0;
    for (auto _ : state) {
        auto r = run_elkin_mst(g, ElkinOptions{});
        rounds = r.stats.rounds;
        benchmark::DoNotOptimize(r.stats.rounds);
    }
    // Deterministic protocol tick count; gated exactly (see above).
    state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_ElkinEndToEnd)->Range(128, 512);

// --- Event-loop microbenchmarks: the async engine's hot paths.

// The event-queue discipline in isolation: a binary min-heap on
// (time, seq) over a reusable vector, std::push_heap/std::pop_heap — the
// shape of EventQueue's fallback mode and the baseline the timing wheel
// (BM_EventWheel) is measured against.
struct HeapEvent {
    std::uint64_t time = 0;
    std::uint64_t seq = 0;
};

bool heap_event_after(const HeapEvent& a, const HeapEvent& b)
{
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
}

void BM_EventHeap(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<HeapEvent> heap;
    heap.reserve(n);
    for (auto _ : state) {
        heap.clear();
        std::uint64_t x = 0x9e3779b97f4a7c15ull;  // deterministic times
        for (std::size_t i = 0; i < n; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            heap.push_back({x >> 40, i});
            std::push_heap(heap.begin(), heap.end(), heap_event_after);
        }
        std::uint64_t drained = 0;
        while (!heap.empty()) {
            std::pop_heap(heap.begin(), heap.end(), heap_event_after);
            drained += heap.back().time;
            heap.pop_back();
        }
        benchmark::DoNotOptimize(drained);
    }
    // One item = one push + one pop.
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventHeap)->Range(1024, 16384);

// The engine's actual queue (sim/event_queue.h) under its bounded-delay
// discipline: every push lands within (now, now+16], pops drain whole
// timestamp batches. Same push/pop volume as BM_EventHeap, so the two
// compare directly (the wheel replaces O(log n) sift operations with O(1)
// bucket appends plus an O(max_delay) scan per occupied timestamp).
void BM_EventWheel(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    constexpr int kMaxDelay = 16;
    EventQueue<HeapEvent> queue(kMaxDelay);
    std::vector<HeapEvent> batch;
    batch.reserve(n);
    for (auto _ : state) {
        std::uint64_t x = 0x9e3779b97f4a7c15ull;  // deterministic delays
        std::uint64_t drained = 0;
        std::size_t pushed = 0;
        // Sliding schedule: keep ~kMaxDelay timestamps in flight, drain a
        // batch, refill — the engine's steady-state shape.
        while (pushed < n || !queue.empty()) {
            while (pushed < n && queue.size() < 4 * kMaxDelay) {
                x = x * 6364136223846793005ull + 1442695040888963407ull;
                const std::uint64_t delay = 1 + (x >> 40) % kMaxDelay;
                queue.push({queue.now() + delay, pushed++});
            }
            batch.clear();
            queue.pop_due(queue.next_time(), batch);
            for (const HeapEvent& ev : batch)
                drained += ev.time;
        }
        benchmark::DoNotOptimize(drained);
    }
    // One item = one push + one pop, comparable to BM_EventHeap.
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventWheel)->Range(1024, 16384);

// Full event-driven flood: event dispatch, delay hashing, synchronizer
// ACK/SAFE waves. The event and virtual-time totals are deterministic per
// (graph, event_seed) and gated exactly.
void BM_AsyncEngineFlood(benchmark::State& state)
{
    Rng rng(7);
    auto side = static_cast<std::size_t>(state.range(0));
    auto g = gen_grid(side, side, rng);
    std::uint64_t events = 0, vtime = 0;
    for (auto _ : state) {
        NetConfig config;
        config.engine = Engine::Async;
        auto net = make_network(g, config);
        net->init([](VertexId) { return std::make_unique<FloodProcess>(); });
        RunStats stats = net->run();
        events = stats.events;
        vtime = stats.virtual_time;
        benchmark::DoNotOptimize(stats.messages);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(events));
    state.counters["events"] = static_cast<double>(events);
    state.counters["vtime"] = static_cast<double>(vtime);
}
// The second arg is always 1 and unused: it and UseRealTime keep the row
// names (BM_AsyncEngineFlood/<side>/1/real_time) that BENCH_substrate.json
// gates. The 224-side grid is the ~50k-vertex workload.
BENCHMARK(BM_AsyncEngineFlood)
    ->Args({8, 1})
    ->Args({32, 1})
    ->Args({224, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The α-synchronizer pulse state machine alone (no event queue, no
// delays): one iteration drives one whole-graph pulse wave — begin_pulse
// plus the SAFE exchange that gates the next one. Items are
// vertex-pulses.
void BM_SynchronizerPulse(benchmark::State& state)
{
    Rng rng(7);
    auto side = static_cast<std::size_t>(state.range(0));
    auto g = gen_grid(side, side, rng);
    const auto n = static_cast<VertexId>(g.vertex_count());
    AlphaSynchronizer sync(g);
    sync.start_epoch(0);
    std::vector<AsyncIncoming> scratch;
    std::vector<SyncEmit> emits;
    for (auto _ : state) {
        for (VertexId v = 0; v < n; ++v) {
            sync.begin_pulse(v, scratch);
            emits.clear();
            sync.note_pulse_sends_done(v, emits);  // no sends: safe at once
            benchmark::DoNotOptimize(scratch.size());
            benchmark::DoNotOptimize(emits.size());
        }
        for (VertexId v = 0; v < n; ++v)
            for (std::size_t p = 0; p < g.degree(v); ++p) {
                emits.clear();
                sync.on_control(g.neighbor(v, p), 0, sync.pulse(v), emits);
            }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SynchronizerPulse)->Range(8, 32);

// --- Trace-overhead gate (obs/trace.h).

// Saturates every link for a fixed number of rounds, each send under a
// trace span — the message-datapath workload of the trace-overhead gate.
// With tracing disabled the span and the send hook are single pointer
// tests; the deterministic round/message counters are gated exactly so
// the disabled path cannot silently change the schedule.
class BoundedChatter : public Process {
public:
    void on_round(Context& ctx) override
    {
        TraceScope span(ctx, TracePhase::Bfs,
                        static_cast<std::int64_t>(ctx.round() % 2));
        for (const Incoming& in : ctx.inbox())
            checksum_ += in.msg.words[0] + in.port;
        if (ctx.round() <= kRounds)
            for (std::size_t p = 0; p < ctx.degree(); ++p)
                ctx.send(p, Message{1, {ctx.round(), 7}});
        else
            idle_ = true;
    }
    bool done() const override { return idle_; }

    static constexpr std::uint64_t kRounds = 32;

private:
    std::uint64_t checksum_ = 0;
    bool idle_ = false;
};

void BM_TraceOverhead(benchmark::State& state)
{
    const bool traced = state.range(0) != 0;
    Rng rng(9);
    auto g = gen_erdos_renyi(512, 2048, rng);
    std::uint64_t rounds = 0, messages = 0;
    for (auto _ : state) {
        NetConfig config;
        config.trace.enabled = traced;
        Network net(g, config);
        net.init([](VertexId) { return std::make_unique<BoundedChatter>(); });
        RunStats stats = net.run();
        rounds = stats.rounds;
        messages = stats.messages;
        benchmark::DoNotOptimize(stats.messages);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(messages));
    state.counters["rounds"] = static_cast<double>(rounds);
    state.counters["messages"] = static_cast<double>(messages);
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

}  // namespace
}  // namespace dmst

// `--smoke` (for CI): run a fast, fixed subset once and emit
// BENCH_substrate.json in the working directory, so every CI run archives a
// comparable substrate-throughput artifact. Any other arguments pass
// through to google-benchmark unchanged.
int main(int argc, char** argv)
{
    std::vector<char*> args(argv, argv + argc);
    bool smoke = false;
    for (auto it = args.begin(); it != args.end();) {
        if (std::string(*it) == "--smoke") {
            smoke = true;
            it = args.erase(it);
        } else {
            ++it;
        }
    }
    static char filter[] =
        "--benchmark_filter=BM_SimulatorFlood/8|BM_EngineRoundThroughput/"
        "50000/(0|2)|BM_ElkinEndToEnd/128|BM_EventHeap/1024|BM_EventWheel/"
        "1024|BM_AsyncEngineFlood/(8|32)/1|BM_SynchronizerPulse/8|"
        "BM_TraceOverhead/(0|1)";
    static char out[] = "--benchmark_out=BENCH_substrate.json";
    static char out_format[] = "--benchmark_out_format=json";
    static char min_time[] = "--benchmark_min_time=0.05";
    if (smoke) {
        args.push_back(filter);
        args.push_back(out);
        args.push_back(out_format);
        args.push_back(min_time);
    }
    // The stock "library_build_type" context field describes how
    // libbenchmark itself was compiled, not this code — report our own
    // build flavor so scripts/bench_gate.py can refuse debug baselines.
#ifdef NDEBUG
    benchmark::AddCustomContext("dmst_build_type", "release");
#else
    benchmark::AddCustomContext("dmst_build_type", "debug");
#endif
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
