#ifndef QMQO_ANNEAL_SQA_H_
#define QMQO_ANNEAL_SQA_H_

/// \file sqa.h
/// Simulated quantum annealing (SQA): a path-integral Monte Carlo emulation
/// of transverse-field quantum annealing, the standard classical model of
/// the D-Wave annealing process.
///
/// The quantum Hamiltonian H(t) = A(t) * H_driver + B(t) * H_problem with a
/// decaying transverse field Gamma is Trotterized into P coupled replicas
/// ("slices") of the classical problem. Slice k couples to slice k+1
/// (periodically) on each site with ferromagnetic strength
///
///   J_perp(Gamma) = -(1 / (2 beta_slice)) * ln tanh(beta_slice * Gamma),
///
/// which diverges as Gamma -> 0, freezing the replicas into a single
/// classical state. Metropolis sweeps alternate single-site moves and
/// global (all-slice) spin flips.

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

/// Options for `SimulatedQuantumAnnealer`.
struct SqaOptions {
  int num_reads = 100;
  /// Trotter slices P.
  int num_slices = 16;
  /// Annealing steps; each step sweeps every slice once plus one global
  /// sweep.
  int sweeps = 300;
  /// Inverse temperature of the quantum system (distributed over slices).
  double beta = 16.0;
  /// Transverse-field ramp (linear, as on the hardware).
  Schedule gamma{3.0, 0.01, ScheduleShape::kLinear};
  uint64_t seed = 1;
  /// Worker threads for the read loop: 1 = serial (default, keeps
  /// wall-clock measurements comparable across machines), 0 = hardware
  /// concurrency. Results are bit-identical for every thread count (see
  /// anneal/parallel.h).
  int num_threads = 1;
  /// Worker pool to fan reads across when `num_threads != 1`; null = the
  /// process-wide `util::Executor::Shared()` pool. Never owned.
  util::Executor* executor = nullptr;
  /// Streaming top-k retention for the returned SampleSet (0 = unlimited);
  /// see SaOptions::max_samples.
  int max_samples = 0;
};

/// Path-integral Monte Carlo sampler.
class SimulatedQuantumAnnealer {
 public:
  explicit SimulatedQuantumAnnealer(const SqaOptions& options)
      : options_(options) {}

  /// Samples an Ising problem; each read reports the best slice's state.
  SampleSet SampleIsing(const qubo::IsingProblem& ising) const;

  /// QUBO wrapper (exact Ising conversion; energies on the QUBO scale).
  SampleSet Sample(const qubo::QuboProblem& problem) const;

  /// One read: anneals a fresh replica stack drawn from `rng` (the read's
  /// own forked stream), writes the best slice's spins to `spins` and
  /// returns its exact energy on `ising`. `SampleIsing` runs this per
  /// read, and so does the device model's SQA backend inside its single
  /// read fan-out; the options' read count, seed, threads and cap are not
  /// used here. Uniforms are drawn from `rng` a block ahead, so `rng` is
  /// left in an unspecified state: every caller discards it.
  double AnnealRead(const qubo::IsingView& ising, Rng* rng,
                    std::vector<int8_t>* spins) const;

  const SqaOptions& options() const { return options_; }

 private:
  SqaOptions options_;
};

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_SQA_H_
