#include "anneal/parallel.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

namespace qmqo {
namespace anneal {

SampleSet RunReads(int num_reads, int num_threads,
                   const std::function<void(int, SampleSet*)>& run_read,
                   util::Executor* executor, int max_samples) {
  SampleSet out;
  out.set_max_samples(max_samples);
  if (num_reads <= 0) {
    out.Finalize();
    return out;
  }
  const int workers = std::min(ResolveNumThreads(num_threads), num_reads);
  if (workers == 1) {
    for (int read = 0; read < num_reads; ++read) {
      run_read(read, &out);
    }
    out.Finalize();
    return out;
  }

  // One worker-local set per pool task; each task claims reads one at a
  // time from a shared cursor until none are left, so no worker idles
  // while another still holds a static chunk's tail. Which worker runs a
  // read cannot matter: Finalize makes the union partition-independent.
  util::Executor& pool =
      executor != nullptr ? *executor : util::Executor::Shared();
  std::vector<SampleSet> locals(static_cast<size_t>(workers));
  for (SampleSet& local : locals) local.set_max_samples(max_samples);
  std::atomic<int> next_read{0};
  pool.ParallelFor(workers, workers, [&](int, int, int worker) {
    SampleSet* local = &locals[static_cast<size_t>(worker)];
    for (int read = next_read.fetch_add(1, std::memory_order_relaxed);
         read < num_reads;
         read = next_read.fetch_add(1, std::memory_order_relaxed)) {
      run_read(read, local);
    }
  });
  for (SampleSet& local : locals) {
    out.Append(std::move(local));
  }
  out.Finalize();
  return out;
}

std::vector<ReadGroup> SplitReadGroups(const std::vector<int>& segment_reads,
                                       int width) {
  std::vector<ReadGroup> groups;
  int first = 0;
  for (const int reads : segment_reads) {
    const int end = first + reads;
    while (first < end) {
      const int count = std::min(width, end - first);
      groups.push_back({first, count});
      first += count;
    }
  }
  return groups;
}

}  // namespace anneal
}  // namespace qmqo
