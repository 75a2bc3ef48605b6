// Fixed-size thread pool for batch runs.
//
// exp::ExperimentRunner keeps one pool per runner and dispatches one region
// per batch, so the pool is built for repeated fork/join over the same
// worker set rather than for general task graphs: workers are spawned once,
// park on a condition variable between regions, and each parallel_for()
// splits the index range into one contiguous chunk per participant. The
// calling thread always executes chunk 0 itself, so ThreadPool(n) provides
// n-way parallelism with n-1 worker threads and ThreadPool(1) degenerates to
// an inline loop with no threads and no locking.
//
// Exceptions thrown inside a chunk are captured (first one wins), the region
// still completes on the other chunks, and parallel_for() rethrows on the
// calling thread; the pool stays usable afterwards. Determinism note: the
// chunk partition is a pure function of (n, size()), never of timing, so any
// caller whose chunks touch disjoint state gets identical results at every
// pool size.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace abp {

class ThreadPool {
 public:
  // A pool of total parallelism `threads` (>= 1), counting the caller.
  explicit ThreadPool(int threads) : size_(threads) {
    if (threads < 1) throw std::invalid_argument("ThreadPool needs >= 1 thread");
    workers_.reserve(static_cast<std::size_t>(threads - 1));
    for (int i = 1; i < threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  [[nodiscard]] int size() const noexcept { return size_; }

  // Runs fn(begin, end) over a partition of [0, n) into size() contiguous
  // half-open chunks (one per participant; chunk sizes differ by at most 1).
  // Blocks until every chunk has finished; rethrows the first exception any
  // chunk raised. Reentrant calls from inside fn are not supported.
  void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
    if (n == 0) return;
    if (size_ == 1 || n == 1) {
      fn(0, n);  // inline fast path: no locks, no wakeups
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_fn_ = &fn;
      job_n_ = n;
      pending_ = size_ - 1;
      error_ = nullptr;
      ++epoch_;
    }
    start_cv_.notify_all();
    run_chunk(0);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [this] { return pending_ == 0; });
      job_fn_ = nullptr;
      if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        std::rethrow_exception(e);
      }
    }
  }

 private:
  void run_chunk(int who) noexcept {
    // Even split with the remainder spread over the leading chunks, so the
    // partition depends only on (job_n_, size_).
    const std::size_t n = job_n_;
    const std::size_t p = static_cast<std::size_t>(size_);
    const std::size_t base = n / p;
    const std::size_t extra = n % p;
    const std::size_t w = static_cast<std::size_t>(who);
    const std::size_t begin = w * base + (w < extra ? w : extra);
    const std::size_t end = begin + base + (w < extra ? 1 : 0);
    if (begin >= end) return;
    try {
      (*job_fn_)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }

  void worker_loop(int who) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [this, seen] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
      }
      run_chunk(who);
      bool last;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        last = --pending_ == 0;
      }
      if (last) done_cv_.notify_one();
    }
  }

  const int size_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t, std::size_t)>* job_fn_ = nullptr;
  std::size_t job_n_ = 0;
  int pending_ = 0;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace abp
