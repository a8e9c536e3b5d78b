#ifndef QMQO_ANNEAL_SIMULATED_ANNEALER_H_
#define QMQO_ANNEAL_SIMULATED_ANNEALER_H_

/// \file simulated_annealer.h
/// Classical simulated annealing over Ising/QUBO problems.
///
/// This is both (a) the classical reference point the paper contrasts
/// quantum annealing against in Section 2, and (b) the default inner
/// sampler of the `DWaveSimulator` device model. The implementation keeps
/// per-spin local fields so a Metropolis step costs O(degree).

#include <cstdint>
#include <vector>

#include "anneal/sample_set.h"
#include "anneal/schedule.h"
#include "anneal/sweep_kernel.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "util/rng.h"

namespace qmqo {
namespace util {
class Executor;
}  // namespace util

namespace anneal {

/// Options for `SimulatedAnnealer`.
struct SaOptions {
  /// Independent restarts; each contributes one sample.
  int num_reads = 100;
  /// Full sweeps over all spins per read.
  int sweeps_per_read = 1000;
  /// Inverse-temperature ramp; non-positive start/end triggers the
  /// `SuggestBetaRange` heuristic per problem.
  Schedule beta{0.0, 0.0, ScheduleShape::kGeometric};
  uint64_t seed = 1;
  /// Worker threads for the read loop: 1 = serial (default, keeps
  /// wall-clock measurements comparable across machines), 0 = hardware
  /// concurrency. On an AVX2 CPU a worker claims up to
  /// `SweepGroupWidth()` reads at a time (eight with AVX-512, four with
  /// AVX2) and sweeps them in lockstep (anneal/sweep_kernel.h). Results
  /// are bit-identical for every thread count (see anneal/parallel.h).
  int num_threads = 1;
  /// Worker pool to fan reads across when `num_threads != 1`; null = the
  /// process-wide `util::Executor::Shared()` pool. Never owned.
  util::Executor* executor = nullptr;
  /// Streaming top-k retention: keep only the best `max_samples` distinct
  /// assignments (0 = unlimited). Top-k membership, energies, and
  /// occurrence counts are exact and thread-count independent;
  /// `SampleSet::total_reads` still counts every read.
  int max_samples = 0;
};

/// Metropolis simulated annealing sampler.
class SimulatedAnnealer {
 public:
  explicit SimulatedAnnealer(const SaOptions& options) : options_(options) {}

  /// Samples an Ising problem; energies are Ising energies.
  SampleSet SampleIsing(const qubo::IsingProblem& ising) const;

  /// Samples a QUBO problem (internally via the exact Ising conversion);
  /// energies are QUBO energies.
  SampleSet Sample(const qubo::QuboProblem& problem) const;

  const SaOptions& options() const { return options_; }

 private:
  SaOptions options_;
};

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_SIMULATED_ANNEALER_H_
