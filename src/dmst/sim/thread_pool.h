#ifndef DMST_SIM_THREAD_POOL_H
#define DMST_SIM_THREAD_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dmst {

// Persistent fork-join worker pool for the parallel simulation engine.
// run_jobs() executes job(0..job_count-1), job j on worker j % size(), and
// blocks until every job finished — a barrier per invocation, which is
// exactly the shape of one simulation phase (step all shards, then deliver
// all shards). Jobs must not throw; engines catch per-shard and rethrow
// deterministically after the barrier.
//
// The caller joins: a pool of W workers spawns W-1 threads, and the thread
// calling run_jobs() is worker 0, so W workers occupy exactly W CPUs. The
// pool never oversubscribes: asked for more workers than the hardware has
// CPUs, it runs one per CPU, and the callers' jobs share them.
//
// Barrier: run_jobs() publishes the job and bumps an atomic epoch (start),
// and the helper threads count an atomic `remaining_` down to zero
// (finish). A waiter on either side spins on its atomic with a CPU pause
// hint for at most its own window — up to 100 us, halved after a spin that
// timed out, restored after one that succeeded — then parks on a mutex +
// condition variable. A signaller passes through that mutex after its
// atomic write and before notifying, so a parking waiter either sees the
// write when it checks under the mutex or is already blocked when the
// notify comes: no wakeup is lost. A phase of a few tens of microseconds
// thus crosses its barrier without a syscall.
class ThreadPool {
public:
    // A pool asked for `workers` >= 1 runs min(workers, hardware
    // concurrency) workers (a concurrency of 0 counts as 1), spawning one
    // thread fewer; it is idle between run_jobs calls.
    explicit ThreadPool(int workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int size() const { return workers_; }

    // Runs job(j) for j in [0, job_count); worker i executes jobs i, i+W,
    // i+2W, ... in increasing order, worker 0 on the calling thread. Caller
    // blocks until all jobs are done. Only one run_jobs may be active at a
    // time (single coordinator).
    void run_jobs(int job_count, const std::function<void(int)>& job);

private:
    void worker_main(int index);
    void stop();  // wakes the helper threads with a null job and joins them
    void run_share(int index) const;
    // Returns once ready() holds: spins for up to `spin` (the waiter's own
    // adaptive window), then parks on cv under mu_.
    template <class Ready>
    void await(std::condition_variable& cv, std::chrono::nanoseconds& spin,
               Ready ready);
    // Wakes the waiters of cv after an atomic write they wait for.
    void signal(std::condition_variable& cv);

    const int workers_;
    std::chrono::nanoseconds done_spin_;  // the caller's window
    std::vector<std::thread> threads_;
    // Written by the caller before the epoch bump that publishes it; null
    // means stop.
    const std::function<void(int)>* job_ = nullptr;
    int job_count_ = 0;
    alignas(64) std::atomic<std::uint64_t> epoch_{0};
    alignas(64) std::atomic<int> remaining_{0};  // helper threads still busy
    std::mutex mu_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
};

// Resolves a requested worker count: n >= 1 is taken as-is; 0 (or negative)
// means hardware concurrency, clamped to at least 1.
int resolve_threads(int requested);

}  // namespace dmst

#endif  // DMST_SIM_THREAD_POOL_H
