// Tests for the shared executor subsystem: thread-count resolution, static
// chunk partitioning, task ordering independence, exception rethrow on the
// submitting thread, nested ParallelFor safety, a waiting submitter running
// other batches' chunks, and worker-pool reuse (zero spawns after
// construction).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/executor.h"

namespace qmqo {
namespace util {
namespace {

TEST(ResolveNumThreadsTest, PositiveRequestsPassThrough) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(3), 3);
  EXPECT_EQ(ResolveNumThreads(64), 64);
}

TEST(ResolveNumThreadsTest, AutoAndNegativeFallBackToAtLeastOne) {
  EXPECT_GE(ResolveNumThreads(0), 1);
  EXPECT_GE(ResolveNumThreads(-5), 1);
  EXPECT_EQ(ResolveNumThreads(0), ResolveNumThreads(-1));
}

TEST(ExecutorTest, CoversEveryIndexExactlyOnce) {
  for (int pool_size : {1, 2, 4}) {
    Executor executor(pool_size);
    for (int parallelism : {1, 2, 3, 16}) {
      for (int total : {1, 7, 13, 64}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(total));
        for (auto& h : hits) h.store(0);
        executor.ParallelFor(total, parallelism,
                             [&](int begin, int end, int /*chunk*/) {
                               for (int i = begin; i < end; ++i) {
                                 hits[static_cast<size_t>(i)].fetch_add(1);
                               }
                             });
        for (int i = 0; i < total; ++i) {
          EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
              << "pool=" << pool_size << " parallelism=" << parallelism
              << " total=" << total << " index=" << i;
        }
      }
    }
  }
}

TEST(ExecutorTest, ZeroOrNegativeTotalRunsNothing) {
  Executor executor(2);
  executor.ParallelFor(0, 4, [](int, int, int) { FAIL(); });
  executor.ParallelFor(-3, 4, [](int, int, int) { FAIL(); });
}

TEST(ExecutorTest, ChunkingIsStaticAndContiguous) {
  // The partition depends only on (total, parallelism): base-size chunks
  // with the first `total % parts` chunks taking one extra index.
  Executor executor(4);
  const int total = 10;
  const int parallelism = 4;
  std::vector<std::pair<int, int>> ranges(static_cast<size_t>(parallelism),
                                          {-1, -1});
  executor.ParallelFor(total, parallelism, [&](int begin, int end, int chunk) {
    ranges[static_cast<size_t>(chunk)] = {begin, end};
  });
  EXPECT_EQ(ranges[0], std::make_pair(0, 3));
  EXPECT_EQ(ranges[1], std::make_pair(3, 6));
  EXPECT_EQ(ranges[2], std::make_pair(6, 8));
  EXPECT_EQ(ranges[3], std::make_pair(8, 10));
}

TEST(ExecutorTest, ResultIndependentOfParallelism) {
  // Per-chunk partial sums combined in chunk order give the same total for
  // every pool size and parallelism — the reduction discipline RunReads
  // and the harness rely on.
  const int total = 1000;
  std::vector<int64_t> values(static_cast<size_t>(total));
  std::iota(values.begin(), values.end(), 1);
  const int64_t expected = 1000LL * 1001LL / 2LL;
  for (int pool_size : {1, 3}) {
    Executor executor(pool_size);
    for (int parallelism : {1, 2, 8, 1000}) {
      std::vector<int64_t> partials(
          static_cast<size_t>(std::min(parallelism, total)), 0);
      executor.ParallelFor(total, parallelism,
                           [&](int begin, int end, int chunk) {
                             int64_t sum = 0;
                             for (int i = begin; i < end; ++i) {
                               sum += values[static_cast<size_t>(i)];
                             }
                             partials[static_cast<size_t>(chunk)] = sum;
                           });
      int64_t combined = 0;
      for (int64_t partial : partials) combined += partial;
      EXPECT_EQ(combined, expected) << "pool=" << pool_size
                                    << " parallelism=" << parallelism;
    }
  }
}

TEST(ExecutorTest, ExceptionRethrownOnSubmittingThread) {
  Executor executor(4);
  EXPECT_THROW(
      executor.ParallelFor(16, 8,
                           [](int begin, int end, int /*chunk*/) {
                             for (int i = begin; i < end; ++i) {
                               if (i == 11) throw std::runtime_error("boom");
                             }
                           }),
      std::runtime_error);
  // The pool survives a throwing batch and stays usable.
  std::atomic<int> count{0};
  executor.ParallelFor(8, 8, [&](int begin, int end, int /*chunk*/) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(ExecutorTest, NestedParallelForIsSafe) {
  // Inner ParallelFor calls issued from inside worker chunks must not
  // deadlock (submitters drain their own chunks) and must still cover
  // every index.
  Executor executor(2);
  const int outer = 4;
  const int inner = 32;
  std::vector<std::atomic<int>> hits(static_cast<size_t>(outer * inner));
  for (auto& h : hits) h.store(0);
  executor.ParallelFor(outer, outer, [&](int begin, int end, int /*chunk*/) {
    for (int o = begin; o < end; ++o) {
      executor.ParallelFor(inner, 4, [&, o](int b, int e, int /*c*/) {
        for (int i = b; i < e; ++i) {
          hits[static_cast<size_t>(o * inner + i)].fetch_add(1);
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// One worker and the submitter. Whichever thread runs outer chunk 1 opens a
// nested batch whose chunk 0 holds until its chunk 1 has run. The other
// thread finishes outer chunk 0 and must claim that chunk 1 itself: a
// submitter waiting for its stragglers runs other batches' chunks (and a
// worker always did). Were the waiting submitter to sleep, the nested
// chunk 0 would hold until its timeout.
TEST(ExecutorTest, WaitingSubmitterRunsOtherBatchesChunks) {
  Executor executor(1);
  std::atomic<bool> released{false};
  std::atomic<bool> timed_out{false};
  executor.ParallelFor(2, 2, [&](int begin, int, int) {
    if (begin == 0) return;
    executor.ParallelFor(2, 2, [&](int inner, int, int) {
      if (inner == 1) {
        released.store(true);
        return;
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!released.load()) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          return;
        }
        std::this_thread::yield();
      }
    });
  });
  EXPECT_TRUE(released.load());
  EXPECT_FALSE(timed_out.load());
}

TEST(ExecutorTest, WorkersSpawnedOnceAndReused) {
  const int64_t before = Executor::TotalWorkersSpawned();
  Executor executor(3);
  EXPECT_EQ(executor.num_threads(), 3);
  EXPECT_EQ(Executor::TotalWorkersSpawned(), before + 3);
  // Repeated ParallelFor calls reuse the pool: no further spawns.
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    executor.ParallelFor(64, 3, [&](int begin, int end, int /*chunk*/) {
      count.fetch_add(end - begin);
    });
    EXPECT_EQ(count.load(), 64);
  }
  EXPECT_EQ(Executor::TotalWorkersSpawned(), before + 3);
}

TEST(ExecutorTest, SharedPoolIsOneInstance) {
  Executor& a = Executor::Shared();
  Executor& b = Executor::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1);
  const int64_t before = Executor::TotalWorkersSpawned();
  std::atomic<int> count{0};
  a.ParallelFor(32, 0, [&](int begin, int end, int /*chunk*/) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 32);
  EXPECT_EQ(Executor::TotalWorkersSpawned(), before);
}

TEST(ExecutorTest, PerIndexConvenienceOverload) {
  Executor executor(2);
  std::vector<std::atomic<int>> hits(25);
  for (auto& h : hits) h.store(0);
  executor.ParallelFor(25, [&](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace util
}  // namespace qmqo
