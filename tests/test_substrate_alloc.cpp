// Zero-allocation contract of the message datapath: after warmup, a
// bandwidth=1 steady state — inline WordBuf payloads, reused staging
// vectors, the flat inbox arena, and the allocation-free per-span port sort
// — performs no per-message heap allocations in either engine. Verified
// with a counting global operator new; this file must stay its own test
// binary so the counter sees only this test's traffic.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "dmst/congest/network.h"
#include "dmst/graph/generators.h"
#include "dmst/obs/trace.h"
#include "dmst/sim/async_network.h"
#include "dmst/sim/parallel_network.h"
#include "dmst/util/rng.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size)
{
    return ::operator new(size);
}

void operator delete(void* p) noexcept
{
    std::free(p);
}

void operator delete[](void* p) noexcept
{
    std::free(p);
}

void operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace dmst {
namespace {

// Saturates the substrate every round without allocating itself: sends a
// three-word message on every port, reads every inbox message.
class SteadyChatter : public Process {
public:
    void on_round(Context& ctx) override
    {
        for (const Incoming& in : ctx.inbox())
            checksum_ += in.msg.words[0] + in.port;
        for (std::size_t p = 0; p < ctx.degree(); ++p)
            ctx.send(p, Message{1, {ctx.round(), 7}});
    }

    bool done() const override { return false; }  // stepped manually

    std::uint64_t checksum_ = 0;
};

// Like SteadyChatter, but every send runs under an alternating trace span
// — the worst case for the recorder's arena: two live (span, tag) cells
// per shard plus the per-vertex span stacks, all of which must hit their
// high-water mark during warmup.
class TracedChatter : public Process {
public:
    void on_round(Context& ctx) override
    {
        TraceScope span(ctx, TracePhase::Bfs,
                        static_cast<std::int64_t>(ctx.round() % 2));
        for (const Incoming& in : ctx.inbox())
            checksum_ += in.msg.words[0] + in.port;
        for (std::size_t p = 0; p < ctx.degree(); ++p)
            ctx.send(p, Message{1, {ctx.round(), 7}});
    }

    bool done() const override { return false; }  // stepped manually

    std::uint64_t checksum_ = 0;
};

std::uint64_t measure_steady_state_allocs(NetworkBase& net,
                                          const NetworkBase::Factory& factory,
                                          int warmup_rounds,
                                          int measured_rounds)
{
    net.init(factory);
    for (int i = 0; i < warmup_rounds; ++i)
        net.step();
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < measured_rounds; ++i)
        net.step();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

std::uint64_t measure_steady_state_allocs(NetworkBase& net, int warmup_rounds,
                                          int measured_rounds)
{
    return measure_steady_state_allocs(
        net, [](VertexId) { return std::make_unique<SteadyChatter>(); },
        warmup_rounds, measured_rounds);
}

TEST(SubstrateAlloc, SerialSteadyStateIsAllocationFree)
{
    Rng rng(31);
    auto g = gen_erdos_renyi(200, 800, rng);
    Network net(g, NetConfig{});
    // ~1600 messages per measured round; not one allocation.
    EXPECT_EQ(measure_steady_state_allocs(net, 3, 8), 0u);
}

TEST(SubstrateAlloc, ParallelSteadyStateIsAllocationFree)
{
    // Single worker keeps the counter meaningful (the coordinator path is
    // identical for any thread count; worker threads would only add their
    // own wakeup machinery, not per-message traffic).
    Rng rng(32);
    auto g = gen_erdos_renyi(200, 800, rng);
    NetConfig config;
    config.threads = 1;
    ParallelNetwork net(g, config, /*shard_override=*/4);
    EXPECT_EQ(measure_steady_state_allocs(net, 3, 8), 0u);
}

TEST(SubstrateAlloc, HighDegreeHubStaysAllocationFree)
{
    // Star hub inboxes take the counting-sort path; its scratch buffers
    // must hit their high-water mark during warmup and then stay put.
    Rng rng(33);
    auto g = gen_star(64, rng);
    Network net(g, NetConfig{});
    EXPECT_EQ(measure_steady_state_allocs(net, 3, 8), 0u);
}

TEST(SubstrateAlloc, ConditionedSteadyStateIsAllocationFree)
{
    // The conditioner's adversarial permutation runs through reusable
    // scratch (PermuteScratch) and the same arena datapath: once warm, a
    // conditioned steady state allocates nothing either.
    Rng rng(34);
    auto g = gen_erdos_renyi(200, 800, rng);
    NetConfig config;
    config.conditioner.adversarial_order = true;
    Network net(g, config);
    // 4 warmup rounds reach every high-water mark.
    EXPECT_EQ(measure_steady_state_allocs(net, 4, 8), 0u);
}

TEST(SubstrateAlloc, TraceEnabledSteadyStateIsAllocationFree)
{
    // Enabled tracing holds the same contract once warm: the recorder's
    // cells live in grow-only arenas and the per-vertex span stacks keep
    // their capacity, so a steady state with every send inside a span
    // performs no allocations either.
    Rng rng(35);
    auto g = gen_erdos_renyi(200, 800, rng);
    NetConfig config;
    config.trace.enabled = true;
    Network net(g, config);
    auto factory = [](VertexId) { return std::make_unique<TracedChatter>(); };
    EXPECT_EQ(measure_steady_state_allocs(net, factory, 3, 8), 0u);
}

TEST(SubstrateAlloc, TraceEnabledParallelSteadyStateIsAllocationFree)
{
    // Parallel engine: events route to per-shard tables, so the warm
    // steady state is allocation-free on the sharded recorder too.
    Rng rng(36);
    auto g = gen_erdos_renyi(200, 800, rng);
    NetConfig config;
    config.threads = 1;
    config.trace.enabled = true;
    ParallelNetwork net(g, config, /*shard_override=*/4);
    auto factory = [](VertexId) { return std::make_unique<TracedChatter>(); };
    EXPECT_EQ(measure_steady_state_allocs(net, factory, 3, 8), 0u);
}

TEST(SubstrateAlloc, AsyncSteadyStateIsAllocationFree)
{
    // The event datapath holds the same contract: pooled payload slots,
    // grow-only timing-wheel buckets and scratch vectors, the in-place
    // due-batch sort, and the sliding level window all reach their
    // high-water mark during warmup — then not one allocation per event.
    Rng rng(37);
    auto g = gen_erdos_renyi(200, 800, rng);
    NetConfig config;
    config.async.max_delay = 4;
    AsyncNetwork net(g, config);
    // Warmup is longer than the lock-step engines': pool, wheel, and
    // synchronizer buffers only fill as the delay-spread traffic arrives.
    EXPECT_EQ(measure_steady_state_allocs(net, 10, 8), 0u);
}

TEST(SubstrateAlloc, AsyncHeapFallbackSteadyStateIsAllocationFree)
{
    // Past kWheelMaxDelay the queue degrades to the binary heap; the
    // zero-allocation contract must survive the fallback.
    Rng rng(39);
    auto g = gen_erdos_renyi(100, 300, rng);
    NetConfig config;
    config.async.max_delay = 80;
    AsyncNetwork net(g, config);
    EXPECT_FALSE(net.wheel_queue());
    EXPECT_EQ(measure_steady_state_allocs(net, 10, 8), 0u);
}

TEST(SubstrateAlloc, CountingOperatorNewIsLive)
{
    // Sanity-check the harness itself: an actual allocation is counted.
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    auto* p = new std::uint64_t(42);
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    delete p;
    EXPECT_GE(after - before, 1u);
}

}  // namespace
}  // namespace dmst
