#include "util/executor.h"

#include <algorithm>
#include <exception>

namespace qmqo {
namespace util {
namespace {

std::atomic<int64_t> g_workers_spawned{0};

}  // namespace

int ResolveNumThreads(int requested) {
  if (requested >= 1) return requested;
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

/// One `ParallelFor` call: a statically chunked index range whose chunks
/// are claimed via an atomic cursor. A batch sits in the executor's queue
/// while unclaimed chunks remain; claiming is separate from completion so
/// the submitter can tell "everything claimed" (stop running own chunks)
/// from "everything finished" (safe to return).
struct Executor::Batch {
  int total = 0;
  int parts = 0;
  int base = 0;
  int remainder = 0;
  const RangeBody* body = nullptr;

  std::atomic<int> next_chunk{0};
  std::atomic<int> remaining{0};  // chunks not yet finished
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex; first error wins

  enum class Ran { kNothing, kChunk, kLastChunk };

  /// Claims and runs one chunk: kNothing when all chunks are claimed,
  /// kLastChunk when this chunk was the batch's last to finish.
  Ran RunOneChunk() {
    int chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= parts) return Ran::kNothing;
    const int begin = chunk * base + std::min(chunk, remainder);
    const int end = begin + base + (chunk < remainder ? 1 : 0);
    try {
      (*body)(begin, end, chunk);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
    return remaining.fetch_sub(1, std::memory_order_acq_rel) == 1
               ? Ran::kLastChunk
               : Ran::kChunk;
  }

  bool AllClaimed() const {
    return next_chunk.load(std::memory_order_relaxed) >= parts;
  }
  bool Finished() const {
    return remaining.load(std::memory_order_acquire) == 0;
  }
};

Executor::Executor(int num_threads) {
  const int workers = ResolveNumThreads(num_threads);
  workers_.reserve(static_cast<size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    workers_.emplace_back([this]() { WorkerLoop(); });
    g_workers_spawned.fetch_add(1, std::memory_order_relaxed);
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int64_t Executor::TotalWorkersSpawned() {
  return g_workers_spawned.load(std::memory_order_relaxed);
}

Executor& Executor::Shared() {
  // The thread that calls ParallelFor runs chunks too, so one worker fewer
  // than the hardware concurrency keeps every core busy without putting
  // more runnable threads than cores on the machine.
  static Executor shared(std::max(1, ResolveNumThreads(0) - 1));
  return shared;
}

void Executor::Run(Executor* executor, int total, int parallelism,
                   const RangeBody& body) {
  if (total <= 0) return;
  if (std::min(ResolveNumThreads(parallelism), total) <= 1) {
    body(0, total, 0);
    return;
  }
  (executor != nullptr ? *executor : Shared())
      .ParallelFor(total, parallelism, body);
}

std::shared_ptr<Executor::Batch> Executor::NextClaimable() {
  while (!queue_.empty() && queue_.front()->AllClaimed()) {
    // Fully claimed batches are done or finishing on other threads.
    queue_.pop_front();
  }
  return queue_.empty() ? nullptr : queue_.front();
}

bool Executor::RunChunk(Batch* batch) {
  const Batch::Ran ran = batch->RunOneChunk();
  if (ran == Batch::Ran::kLastChunk) {
    // The submitter waits on `wake_` under `mutex_`: taking the mutex
    // between its predicate check and this notify rules out a lost wake-up.
    { std::lock_guard<std::mutex> lock(mutex_); }
    wake_.notify_all();
  }
  return ran != Batch::Ran::kNothing;
}

void Executor::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&]() {
        batch = NextClaimable();
        return stop_ || batch != nullptr;
      });
      if (batch == nullptr) return;  // stop_ set and nothing left to help
    }
    RunChunk(batch.get());
  }
}

void Executor::ParallelFor(int total, int parallelism, const RangeBody& body) {
  if (total <= 0) return;
  const int parts = std::min(ResolveNumThreads(parallelism), total);
  if (parts <= 1) {
    body(0, total, 0);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->total = total;
  batch->parts = parts;
  batch->base = total / parts;
  batch->remainder = total % parts;
  batch->body = &body;
  batch->remaining.store(parts, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(batch);
  }
  wake_.notify_all();
  // Help drain our own chunks; this is what makes nested calls from worker
  // threads deadlock-free (see the header).
  while (RunChunk(batch.get())) {
  }
  // Every chunk is claimed. Until the last one finishes, run other
  // batches' unclaimed chunks rather than block: a nested call's submitter
  // would otherwise idle on its stragglers while the pool has work queued.
  for (;;) {
    std::shared_ptr<Batch> other;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&]() {
        if (batch->Finished()) return true;
        other = NextClaimable();
        return other != nullptr;
      });
      if (batch->Finished()) break;
    }
    RunChunk(other.get());
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(batch->error_mutex);
    error = batch->error;
  }
  if (error) std::rethrow_exception(error);
}

void Executor::ParallelFor(int total, const std::function<void(int)>& body) {
  ParallelFor(total, num_threads(),
              [&body](int begin, int end, int /*chunk*/) {
                for (int i = begin; i < end; ++i) body(i);
              });
}

}  // namespace util
}  // namespace qmqo
