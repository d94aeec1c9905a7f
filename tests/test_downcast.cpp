// Direct unit tests for the interval-routed downcast (proto/downcast.h),
// including under the network conditioner: heterogeneous per-link
// bandwidth caps and adversarial delivery order. Until now the primitive
// was only exercised indirectly through the full Elkin driver.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dmst/congest/conditioner.h"
#include "dmst/graph/generators.h"
#include "dmst/proto/downcast.h"
#include "dmst/sim/engine.h"
#include "dmst/util/rng.h"

namespace dmst {
namespace {

// Hosts one IntervalDowncast on a path graph 0-1-...-n-1 rooted at 0 with
// preorder index v and child interval [v+1, n). The root injects the given
// records at logical round 1. The child port is precomputed by the test
// from the graph (a process under KT0 cannot look it up itself).
class PathDowncastHost : public Process {
public:
    PathDowncastHost(VertexId id, std::size_t n, std::size_t child_port,
                     std::vector<DownRecord> inject)
        : id_(id), n_(n), child_port_(child_port),
          inject_(std::move(inject)), downcast_(77)
    {
    }

    void on_round(Context& ctx) override
    {
        if (!downcast_.attached()) {
            std::vector<std::size_t> children;
            std::vector<Interval> intervals;
            if (id_ + 1 < n_) {
                children.push_back(child_port_);
                intervals.push_back(Interval{id_ + 1, n_});
            }
            downcast_.attach(id_, children, intervals);
            if (id_ == 0)
                for (const DownRecord& r : inject_)
                    downcast_.inject(r);
        }
        downcast_.on_round(ctx);
    }

    // In-flight records keep the run alive; a vertex is done once its own
    // queues drained (attach happens in round 1).
    bool done() const override
    {
        return downcast_.attached() && downcast_.idle();
    }

    const IntervalDowncast& downcast() const { return downcast_; }

private:
    VertexId id_;
    std::size_t n_;
    std::size_t child_port_;
    std::vector<DownRecord> inject_;
    IntervalDowncast downcast_;
};

std::vector<DownRecord> make_records(std::size_t n, std::size_t count)
{
    // count records round-robin over targets 1..n-1, payload tagged with
    // the injection index so per-target FIFO is checkable.
    std::vector<DownRecord> recs;
    for (std::size_t i = 0; i < count; ++i) {
        DownRecord r;
        r.target = 1 + (i % (n - 1));
        r.payload = {i, 2 * i, 0, 0};
        recs.push_back(r);
    }
    return recs;
}

struct DeliveryMap {
    // delivered payload[0] sequences per vertex, in arrival order.
    std::vector<std::vector<std::uint64_t>> per_vertex;
    std::uint64_t rounds = 0;

    bool operator==(const DeliveryMap& o) const
    {
        return per_vertex == o.per_vertex && rounds == o.rounds;
    }
};

DeliveryMap run_path_downcast(std::size_t n, std::size_t count,
                              const ConditionerConfig& cc, Engine engine,
                              int threads, int bandwidth)
{
    Rng rng(5);
    auto g = gen_path(n, rng);
    NetConfig config;
    config.bandwidth = bandwidth;
    config.engine = engine;
    config.threads = threads;
    config.conditioner = cc;
    auto net = make_network(g, config);
    auto records = make_records(n, count);
    net->init([&](VertexId v) {
        const std::size_t child =
            v + 1 < n ? g.port_of(v, static_cast<VertexId>(v + 1)) : 0;
        return std::make_unique<PathDowncastHost>(v, n, child, records);
    });
    DeliveryMap out;
    out.rounds = net->run().rounds;
    out.per_vertex.resize(n);
    for (VertexId v = 0; v < n; ++v) {
        const auto& host = static_cast<const PathDowncastHost&>(net->process(v));
        EXPECT_TRUE(host.downcast().idle());
        for (const DownRecord& r : host.downcast().delivered())
            out.per_vertex[v].push_back(r.payload[0]);
    }
    return out;
}

TEST(Downcast, RoutesAndPreservesFifoOnIdealSubstrate)
{
    const std::size_t n = 9;
    const std::size_t count = 24;
    auto map = run_path_downcast(n, count, ConditionerConfig{},
                                 Engine::Serial, 0, 2);
    // Every record reaches exactly its target, in injection order.
    EXPECT_TRUE(map.per_vertex[0].empty());
    for (std::size_t v = 1; v < n; ++v) {
        std::vector<std::uint64_t> expected;
        for (std::size_t i = 0; i < count; ++i)
            if (1 + (i % (n - 1)) == v)
                expected.push_back(i);
        EXPECT_EQ(map.per_vertex[v], expected) << "vertex " << v;
    }
}

TEST(Downcast, DeliveriesInvariantUnderConditioning)
{
    const std::size_t n = 9;
    const std::size_t count = 24;
    const int b = 4;
    auto ideal =
        run_path_downcast(n, count, ConditionerConfig{}, Engine::Serial, 0, b);

    ConditionerConfig hetero;
    hetero.hetero_bandwidth = true;
    ConditionerConfig adv;
    adv.adversarial_order = true;
    ConditionerConfig all;
    all.hetero_bandwidth = true;
    all.adversarial_order = true;

    for (const ConditionerConfig& cc : {hetero, adv, all}) {
        DeliveryMap first;
        bool have_first = false;
        for (int threads : {0, 1, 2, 8}) {
            Engine engine = threads == 0 ? Engine::Serial : Engine::Parallel;
            auto map = run_path_downcast(n, count, cc, engine, threads, b);
            // Same records at the same targets in the same per-target
            // order as the ideal substrate (per-link FIFO).
            EXPECT_EQ(map.per_vertex, ideal.per_vertex)
                << "hetero " << cc.hetero_bandwidth << " adv "
                << cc.adversarial_order;
            if (!have_first) {
                first = map;
                have_first = true;
            } else {
                // Bit-identical round counts across engines.
                EXPECT_EQ(map, first);
            }
        }
        // Adversarial order leaves the schedule alone; per-link caps add
        // rounds on the capped links; neither loses records.
        if (!cc.hetero_bandwidth)
            EXPECT_EQ(first.rounds, ideal.rounds);
        else
            EXPECT_GE(first.rounds, ideal.rounds);
    }
}

TEST(Downcast, HeteroCapsThrottleButDeliverEverything)
{
    // A long path with b=6 and hashed per-link caps in [1, 6]: the
    // pipeline's logical round count is governed by the slowest link, but
    // every record still arrives in order.
    const std::size_t n = 12;
    const std::size_t count = 48;
    const int b = 6;
    ConditionerConfig hetero;
    hetero.hetero_bandwidth = true;
    hetero.seed = 19;

    auto ideal =
        run_path_downcast(n, count, ConditionerConfig{}, Engine::Serial, 0, b);
    auto capped = run_path_downcast(n, count, hetero, Engine::Serial, 0, b);
    EXPECT_EQ(capped.per_vertex, ideal.per_vertex);
    EXPECT_GT(capped.rounds, ideal.rounds);

    // The slowest link bounds throughput from below: the far vertex alone
    // receives `far` records through the path's minimum cap.
    Rng rng(5);
    auto g = gen_path(n, rng);
    LinkConditioner cond(g, hetero, b);
    int min_cap = b;
    for (EdgeId e = 0; e < g.edge_count(); ++e)
        min_cap = std::min(min_cap, cond.bandwidth_cap(e));
    const std::uint64_t far = count / (n - 1);
    EXPECT_GE(capped.rounds,
              far / static_cast<std::uint64_t>(min_cap));
}

}  // namespace
}  // namespace dmst
