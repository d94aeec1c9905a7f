// Contract of the fork-join ThreadPool under the parallel and async engines:
// a pool asked for W workers runs min(W, hardware concurrency) of them,
// every job index runs exactly once per run_jobs, job j on worker
// j % size() with worker 0 being the calling thread, and plain writes made
// in jobs are visible to the caller once run_jobs returns. Twice hardware
// concurrency checks that the pool never oversubscribes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "dmst/sim/thread_pool.h"

namespace dmst {
namespace {

std::vector<int> pool_sizes()
{
    const int hw = resolve_threads(0);
    std::vector<int> sizes = {1, 2, 3, hw, 2 * hw};
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    return sizes;
}

std::vector<int> job_counts(int workers)
{
    std::vector<int> counts = {1, workers - 1, workers, 3 * workers + 1};
    counts.erase(std::remove(counts.begin(), counts.end(), 0), counts.end());
    return counts;
}

TEST(ThreadPool, EveryJobRunsOnceOnItsWorker)
{
    constexpr int kCalls = 10000;
    for (int workers : pool_sizes()) {
        SCOPED_TRACE(workers);
        ThreadPool pool(workers);
        const int size = std::min(workers, resolve_threads(0));
        ASSERT_EQ(pool.size(), size);
        const std::vector<int> counts = job_counts(workers);
        const int max_jobs = *std::max_element(counts.begin(), counts.end());
        // Plain, non-atomic slots: each is written by one job only, and the
        // caller reads them after the barrier.
        std::vector<int> runs(static_cast<std::size_t>(max_jobs), 0);
        std::vector<std::thread::id> ran_on(runs.size());
        const std::thread::id caller = std::this_thread::get_id();
        for (int call = 0; call < kCalls; ++call) {
            const int job_count = counts[call % counts.size()];
            pool.run_jobs(job_count, [&](int j) {
                ++runs[static_cast<std::size_t>(j)];
                ran_on[static_cast<std::size_t>(j)] =
                    std::this_thread::get_id();
            });
            for (int j = 0; j < job_count; ++j) {
                const auto sj = static_cast<std::size_t>(j);
                ASSERT_EQ(runs[sj], 1) << "call " << call << " job " << j;
                runs[sj] = 0;
                const auto share = static_cast<std::size_t>(j % size);
                ASSERT_EQ(ran_on[sj], ran_on[share]) << "job " << j;
                if (j < size) {
                    ASSERT_EQ(ran_on[sj] == caller, j == 0) << "job " << j;
                }
            }
            for (int j = job_count; j < max_jobs; ++j)
                ASSERT_EQ(runs[static_cast<std::size_t>(j)], 0);
        }
    }
}

TEST(ThreadPool, JobWritesAreVisibleAfterReturn)
{
    for (int workers : pool_sizes()) {
        SCOPED_TRACE(workers);
        ThreadPool pool(workers);
        const int jobs = 3 * workers + 1;
        std::vector<std::vector<std::uint64_t>> out(
            static_cast<std::size_t>(jobs));
        for (std::uint64_t round = 1; round <= 200; ++round) {
            pool.run_jobs(jobs, [&](int j) {
                auto& v = out[static_cast<std::size_t>(j)];
                v.assign(64, round * 1000 + static_cast<std::uint64_t>(j));
            });
            for (int j = 0; j < jobs; ++j) {
                const auto& v = out[static_cast<std::size_t>(j)];
                ASSERT_EQ(v.size(), 64u);
                for (std::uint64_t x : v)
                    ASSERT_EQ(x, round * 1000 + static_cast<std::uint64_t>(j));
            }
        }
    }
}

TEST(ThreadPool, EmptyCallRunsNothing)
{
    ThreadPool pool(2);
    int runs = 0;
    pool.run_jobs(0, [&](int) { ++runs; });
    pool.run_jobs(-3, [&](int) { ++runs; });
    EXPECT_EQ(runs, 0);
}

// A hang here is caught by the ctest timeout.
TEST(ThreadPool, DestroysWithAndWithoutWork)
{
    for (int workers : pool_sizes()) {
        SCOPED_TRACE(workers);
        for (int i = 0; i < 50; ++i) {
            { ThreadPool idle(workers); }
            int sum = 0;
            {
                ThreadPool used(workers);
                std::vector<int> part(static_cast<std::size_t>(workers), 0);
                used.run_jobs(workers, [&](int j) {
                    part[static_cast<std::size_t>(j)] = j + 1;
                });
                for (int x : part)
                    sum += x;
            }
            EXPECT_EQ(sum, workers * (workers + 1) / 2);
        }
    }
}

}  // namespace
}  // namespace dmst
