#ifndef QMQO_ANNEAL_PARALLEL_H_
#define QMQO_ANNEAL_PARALLEL_H_

/// \file parallel.h
/// The shared parallel read engine of the annealing samplers.
///
/// Every sampler in this library runs `num_reads` *independent* anneals:
/// read r forks its own RNG stream (`rng.Fork(r)`), so reads can execute in
/// any order — and therefore on any thread — without changing a single
/// random draw. `RunReads` fans the reads — or groups of reads of one
/// problem, which the SA sweep runs in lockstep (`SplitReadGroups`) —
/// across a reusable `util::Executor` worker pool (caller-supplied, or the
/// lazily-created process-wide `util::Executor::Shared()` pool) instead of
/// spawning threads per call. Units are self-scheduled: each worker claims
/// the next unclaimed one from an atomic cursor, so a slow read or a
/// late-starting worker never leaves the others idle behind a static chunk
/// boundary. Each worker accumulates into its own `SampleSet`, and the
/// locals are concatenated and finalized once at the end. Because
/// `SampleSet::Finalize` imposes a total order (energy, then assignment)
/// and merges duplicates, the finalized result is **bit-identical** for
/// every thread count and every claim order, including the serial path.
/// Callers that need per-read outputs (the device's chronological
/// `raw_reads`) write them into per-read slots indexed by the read.
///
/// Callers must finalize shared problem structures (`IsingProblem::Finalize`
/// / `QuboProblem::Finalize`) before entering the engine: lazy finalization
/// under concurrent const access would be a data race.

#include <functional>
#include <vector>

#include "anneal/sample_set.h"
#include "util/executor.h"

namespace qmqo {
namespace anneal {

/// The shared thread-count resolution path (see util/executor.h): values
/// >= 1 pass through, anything else (0 = "auto") becomes the hardware
/// concurrency (at least 1).
using util::ResolveNumThreads;

/// Runs `run_read(read, &local)` for every read in [0, num_reads) on up to
/// `num_threads` concurrent workers (0 = auto), each claiming reads one at a
/// time, and returns the finalized union of the worker-local sets. `run_read` must not touch shared mutable
/// state; exceptions thrown by a worker are rethrown on the calling thread.
/// `num_threads == 1` runs inline without touching any pool. `executor` is
/// the pool to run on; null means the process-wide shared pool. No threads
/// are ever spawned by this call itself. A positive `max_samples` applies
/// streaming top-k retention (see SampleSet::set_max_samples) to the
/// worker-local sets and the returned union — the retained top-k stays
/// exact and bit-identical for any partition of the reads, because an
/// overall-top-k assignment ranks in the top-k of every subset it appears
/// in.
SampleSet RunReads(int num_reads, int num_threads,
                   const std::function<void(int, SampleSet*)>& run_read,
                   util::Executor* executor = nullptr, int max_samples = 0);

/// A claim unit of the read fan-out: `count` consecutive reads from
/// `first`, all of one programmed problem.
struct ReadGroup {
  int first = 0;
  int count = 0;
};

/// Splits consecutive segments of reads (`segment_reads[k]` reads of
/// problem k, e.g. one gauge each) into claim units of `width` reads, and
/// each segment's tail of fewer than `width` reads as one smaller group,
/// which the lane kernel runs with its missing lanes masked off. A sampler
/// passes the groups to `RunReads` as its units (`num_reads =
/// groups.size()`) and runs each group with `RunSweepGroup`
/// (sweep_kernel.h) at `width = SweepGroupWidth()`. Which reads share a
/// group cannot change a result: every read keeps its own stream.
std::vector<ReadGroup> SplitReadGroups(const std::vector<int>& segment_reads,
                                       int width);

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_PARALLEL_H_
