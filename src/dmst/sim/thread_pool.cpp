#include "dmst/sim/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "dmst/util/assert.h"

namespace dmst {

namespace {

// A barrier waiter spins at most kMaxSpin before it parks, because parking
// is dear on a VM: the wakeup is a futex call plus an IPI to a halted vCPU.
// Median wall time per Elkin solve, parallel engine at 4 threads on a
// 4-vCPU Xeon VM (Release; serial engine: ER 463 ms, grid 200 ms):
//
//   kMaxSpin                  20 us    100 us   200 us
//   ER n=4096                 189 ms   154 ms   147 ms
//   grid n=2048               300 ms   124 ms   131 ms
//
// Each waiter adapts its own window between kMinSpin and kMaxSpin: a spin
// that times out halves it, one that succeeds restores it. When other
// processes load the CPUs the thread being waited for is often
// descheduled, and a full-length spin burns the CPU it needs: four test
// binaries at once (ctest -j4) took 35 s with a fixed 100 us window and
// 7.9 s with the adaptive one.
constexpr std::chrono::nanoseconds kMaxSpin{100'000};
constexpr std::chrono::nanoseconds kMinSpin{1'000};

inline void cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

int hardware_workers()
{
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace

ThreadPool::ThreadPool(int workers)
    : workers_(std::min(workers, hardware_workers())), done_spin_(kMaxSpin)
{
    DMST_ASSERT_MSG(workers >= 1, "ThreadPool needs at least one worker");
    threads_.reserve(static_cast<std::size_t>(workers_ - 1));
    try {
        for (int i = 1; i < workers_; ++i)
            threads_.emplace_back([this, i] { worker_main(i); });
    } catch (...) {
        stop();  // a throwing constructor runs no destructor
        throw;
    }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop()
{
    job_ = nullptr;
    epoch_.fetch_add(1, std::memory_order_release);
    signal(cv_start_);
    for (auto& t : threads_)
        t.join();
}

template <class Ready>
void ThreadPool::await(std::condition_variable& cv,
                       std::chrono::nanoseconds& spin, Ready ready)
{
    if (ready())
        return;
    const auto deadline = std::chrono::steady_clock::now() + spin;
    do {
        cpu_relax();
        if (ready()) {
            spin = kMaxSpin;
            return;
        }
    } while (std::chrono::steady_clock::now() < deadline);
    spin = std::max(spin / 2, kMinSpin);
    std::unique_lock<std::mutex> lock(mu_);
    cv.wait(lock, ready);
}

void ThreadPool::signal(std::condition_variable& cv)
{
    // A parking waiter checks its condition and blocks while holding mu_,
    // so passing through mu_ here orders the atomic write before that
    // check or the notify after the block.
    { std::lock_guard<std::mutex> lock(mu_); }
    cv.notify_all();
}

void ThreadPool::run_share(int index) const
{
    for (int j = index; j < job_count_; j += workers_)
        (*job_)(j);
}

void ThreadPool::run_jobs(int job_count, const std::function<void(int)>& job)
{
    if (job_count <= 0)
        return;
    job_ = &job;
    job_count_ = job_count;
    if (threads_.empty()) {
        run_share(0);
        return;
    }
    remaining_.store(workers_ - 1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    signal(cv_start_);
    run_share(0);
    await(cv_done_, done_spin_, [this] {
        return remaining_.load(std::memory_order_acquire) == 0;
    });
}

void ThreadPool::worker_main(int index)
{
    std::uint64_t seen_epoch = 0;
    std::chrono::nanoseconds spin = kMaxSpin;
    for (;;) {
        await(cv_start_, spin, [&] {
            return epoch_.load(std::memory_order_acquire) != seen_epoch;
        });
        // The coordinator bumps the epoch again only after every worker
        // has finished this one, so exactly one bump happened.
        ++seen_epoch;
        if (job_ == nullptr)
            return;
        run_share(index);
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            signal(cv_done_);
    }
}

int resolve_threads(int requested)
{
    return requested >= 1 ? requested : hardware_workers();
}

}  // namespace dmst
