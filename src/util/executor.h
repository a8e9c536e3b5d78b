#ifndef QMQO_UTIL_EXECUTOR_H_
#define QMQO_UTIL_EXECUTOR_H_

/// \file executor.h
/// The single parallelism primitive of the library: a reusable fixed-size
/// worker pool with a condition-variable task queue.
///
/// Every parallel loop in the codebase — the annealers' read engine
/// (`anneal::RunReads`, which also carries the device simulator's one
/// read fan-out per call), the pipeline's read-out, the experiment
/// harness's instance fan-out, and the bench drivers — runs on an
/// `Executor` instead of spawning `std::thread`s per call. Workers are
/// spawned once, at construction, and reused for every subsequent
/// `ParallelFor`; `TotalWorkersSpawned()` exposes the process-wide spawn
/// counter so tests and benches can assert that hot paths (e.g. a
/// multi-gauge device call) create zero threads.
///
/// `ParallelFor` partitions `[0, total)` into statically chunked
/// contiguous index ranges (the same base-plus-remainder split for every
/// pool size), enqueues them, and blocks until all chunks finished. The
/// *submitting* thread participates in draining its own chunks, which has
/// two consequences:
///  * nested `ParallelFor` calls issued from inside a worker are
///    deadlock-free — a blocked submitter always has chunks it can run
///    itself, and a claimed chunk is by construction running on some
///    thread;
///  * an executor with N workers serves a `ParallelFor` even when all N
///    workers are busy elsewhere.
/// Once its own chunks are all claimed, a submitter waiting for the
/// stragglers runs other batches' unclaimed chunks instead of sleeping, so
/// nested fan-outs (a service round's requests, each fanning out its reads)
/// keep every thread busy. It sleeps only when nothing is left to claim.
/// Exceptions thrown by a chunk are captured and the first one is rethrown
/// on the submitting thread after the batch drains.
///
/// Determinism: chunk boundaries depend only on (total, parallelism), and
/// every call site either writes results into per-index slots or combines
/// per-chunk partials with an order-independent reduction (e.g.
/// `SampleSet::Finalize`), so results are bit-identical for every pool
/// size and thread count. `RunReads` uses one chunk per worker as a
/// self-scheduling loop over an atomic read cursor, which the same two
/// rules keep deterministic.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qmqo {
namespace util {

/// Resolves a requested worker count: values >= 1 pass through, anything
/// else (0 = "auto") becomes the hardware concurrency — which itself falls
/// back to 1 when `std::thread::hardware_concurrency()` reports 0.
int ResolveNumThreads(int requested);

/// Reusable fixed-size worker pool.
class Executor {
 public:
  /// Spawns `ResolveNumThreads(num_threads)` workers (0 = hardware
  /// concurrency). Workers live until destruction.
  explicit Executor(int num_threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Number of worker threads owned by this executor.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Process-wide count of worker threads ever spawned by any `Executor`.
  /// Constant between constructions — the reuse guarantee tests assert on.
  static int64_t TotalWorkersSpawned();

  /// Chunk body: a contiguous index range [begin, end) plus the chunk's
  /// index in [0, parallelism) — callers use it to address per-chunk
  /// accumulators without locking.
  using RangeBody = std::function<void(int begin, int end, int chunk)>;

  /// Runs `body` over `[0, total)` split into
  /// `min(ResolveNumThreads(parallelism), total)` static contiguous
  /// chunks; at most that many chunks execute concurrently regardless of
  /// the pool size. Blocks until every chunk finished; rethrows the first
  /// chunk exception. `parallelism <= 1` (after resolution the chunk count
  /// may still collapse to 1) runs inline on the calling thread.
  void ParallelFor(int total, int parallelism, const RangeBody& body);

  /// Per-index convenience over all workers: `body(i)` for i in [0, total).
  void ParallelFor(int total, const std::function<void(int)>& body);

  /// The lazily-created process-wide pool: hardware concurrency minus one
  /// workers (at least one), since the submitting thread runs chunks too.
  /// Call sites that take an optional `Executor*` fall back to this, so
  /// the whole process shares one set of threads by default.
  static Executor& Shared();

  /// `ParallelFor` on `executor` (null = the shared pool), except that a
  /// resolved parallelism of 1 runs inline without touching any pool — so
  /// serial call paths never construct the shared singleton's workers.
  static void Run(Executor* executor, int total, int parallelism,
                  const RangeBody& body);

 private:
  struct Batch;

  void WorkerLoop();
  /// The queue's first batch with an unclaimed chunk, retiring fully
  /// claimed ones on the way; null when there is none. Needs `mutex_`.
  std::shared_ptr<Batch> NextClaimable();
  /// Runs one chunk of `batch`; false when all its chunks were claimed.
  /// Wakes waiting submitters when the chunk finished the batch.
  bool RunChunk(Batch* batch);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stop_ = false;
};

}  // namespace util
}  // namespace qmqo

#endif  // QMQO_UTIL_EXECUTOR_H_
