// ThreadPool: the experiment runner's fork/join primitive.
//
// A runner keeps one pool and dispatches one region per batch, so beyond
// basic correctness (every index covered exactly once) these tests pin the
// properties the runner leans on: the chunk partition is a pure function of
// (n, size) — never of timing; exceptions thrown inside a chunk surface on
// the calling thread and leave the pool reusable; and the same pool object
// survives heavy reuse without leaking state from one parallel_for into the
// next.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/util/thread_pool.hpp"

namespace abp {
namespace {

TEST(ThreadPool, RejectsNonPositiveSize) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(ThreadPool(-3), std::invalid_argument);
}

TEST(ThreadPool, ReportsSize) {
  EXPECT_EQ(ThreadPool(1).size(), 1);
  EXPECT_EQ(ThreadPool(5).size(), 5);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ChunksAreContiguousAndOrderedByWorker) {
  // The partition must be the deterministic even split: chunk sizes differ by
  // at most one and earlier chunks are never smaller than later ones. This is
  // what makes "which thread ran what" irrelevant to any caller with
  // disjoint-by-index state.
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(chunks[1], (std::pair<std::size_t, std::size_t>{3, 6}));
  EXPECT_EQ(chunks[2], (std::pair<std::size_t, std::size_t>{6, 8}));
  EXPECT_EQ(chunks[3], (std::pair<std::size_t, std::size_t>{8, 10}));
}

TEST(ThreadPool, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 0) throw std::runtime_error("chunk zero failed");
                        }),
      std::runtime_error);
  // The failed region must not poison the pool: the next dispatch works.
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ExceptionFromWorkerChunkPropagates) {
  ThreadPool pool(4);
  // Throw from every chunk: whichever is captured first must surface; the
  // others are swallowed rather than terminating a worker thread.
  EXPECT_THROW(pool.parallel_for(8, [](std::size_t, std::size_t) {
    throw std::logic_error("boom");
  }),
               std::logic_error);
}

TEST(ThreadPool, ReusableAcrossManyTicks) {
  // Repeated fork/join against the same worker set: 5000 dispatches shake
  // out lost-wakeup and stale-epoch bugs that a single-shot test never sees.
  ThreadPool pool(4);
  constexpr std::size_t kItems = 64;
  std::vector<long> value(kItems, 0);
  for (int tick = 0; tick < 5000; ++tick) {
    pool.parallel_for(kItems, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) value[i] += 1;
    });
  }
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(value[i], 5000);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  // size 1 must not spawn workers or require synchronization: the chunk runs
  // on the calling thread, so thread-local observations hold.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.parallel_for(5, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 5u);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

}  // namespace
}  // namespace abp
