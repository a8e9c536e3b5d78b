#ifndef QMQO_ANNEAL_SWEEP_KERNEL_H_
#define QMQO_ANNEAL_SWEEP_KERNEL_H_

/// \file sweep_kernel.h
/// Selectable Metropolis sweep kernels for the annealing samplers.
///
/// A sweep proposes one flip per spin. The two kernels trade sweep order
/// for throughput; both make the exact Metropolis decision:
///
///  * `kScalar` — the original per-spin loop, in ascending spin order with
///    per-proposal RNG draws (`Rng::UniformReal`) and the exact Metropolis
///    test. This is the **bit-exact reference**: its random stream and
///    results are frozen across PRs and identical at any thread count. The
///    stream is still the standard library's 64-bit Mersenne Twister, value
///    for value, but comes from the in-house `Mt19937_64` and the exact
///    branch-free `UnitUniform` (util/rng.h), which cut a uniform draw from
///    ~13.5 to ~3 ns (x86-64, -O3).
///  * `kCheckerboard` — a two-color ("checkerboard") sweep over the color
///    classes of `qubo::ColorGraph` (Chimera is bipartite, arbitrary CSR
///    graphs fall back to a greedy coloring). Within a class no spin's
///    local field depends on another member, so uniforms are drawn into a
///    per-class buffer up front and the decide loop runs with no loop-carried
///    dependency — parallelizable across a `util::Executor`
///    (`sweep_threads`) with bit-identical results at any thread count.
///    Exact double-precision math (the exact Metropolis test); the random
///    stream differs from `kScalar` (batched draws, color order), so
///    trajectories differ while energy quality is statistically equivalent.
///
/// The exact Metropolis test is `MetropolisAccept` (below): it decides
/// exactly `u < std::exp(-β·Δ)`, bit for bit, but a cubic lower bound on
/// `e^{β·Δ}` rejects most uphill proposals before `std::exp` is called. Every
/// exact site uses it — both `kScalar` and `kCheckerboard` loops here and
/// the local and global moves of both exact SQA steps (anneal/sqa.cc).
///
/// Initialization pairs with the kernels: `kScalar` keeps the legacy
/// one-`Bernoulli`-per-spin `RandomSpins`, the checkerboard kernel uses
/// `RandomSpinsBatched` (64 spins bit-unpacked per `Rng::Next` call), whose
/// sequence is pinned by `tests/sweep_kernel_test.cc`.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "anneal/schedule.h"
#include "qubo/csr.h"
#include "qubo/ising.h"
#include "util/rng.h"

namespace qmqo {
namespace util {
class Executor;
}  // namespace util

namespace anneal {

/// Which Metropolis sweep implementation a sampler runs.
enum class SweepKernel {
  kScalar,
  kCheckerboard,
};

/// Canonical names: "scalar", "checkerboard".
const char* SweepKernelName(SweepKernel kernel);

/// Parses a canonical name (as accepted by QMQO_BENCH_KERNEL). Returns
/// false (leaving `kernel` untouched) on anything else.
bool ParseSweepKernel(const std::string& name, SweepKernel* kernel);

/// The exact Metropolis test for an uphill proposal: returns exactly
/// `u < std::exp(-bd)` for `bd = β·Δ >= 0`, but settles most proposals
/// without calling `std::exp`.
///
/// Screen: `P = 1 + bd + bd²/2 + bd³/6` is a partial sum of the series of
/// `e^bd` with non-negative terms, so `P <= e^bd` and `exp(-bd) <= 1/P`.
/// When `u·P >= 1 + 1e-12`, u exceeds `exp(-bd)` and the proposal is a sure
/// reject; otherwise the original expression decides.
///
/// Error analysis (double precision, ε = 2⁻⁵³): the Horner evaluation of
/// `P` has only non-negative terms, so it is within a few ε of the exact
/// cubic, and the product `u·P` adds one more rounding. A screened reject
/// therefore has `u·P_exact > (1 + 1e-12)(1 - 8ε) > 1 + 2⁻⁵²`, i.e.
/// `u > (1 + 2⁻⁵²)·exp(-bd)`, which is above glibc's `std::exp(-bd)` (error
/// under 1 ulp <= 2⁻⁵²·exp(-bd) while the result is normal). The 1e-12
/// margin is ~4500 times wider than the rounding it covers. When the
/// result of `std::exp` would be subnormal (bd > ~708), any nonzero u
/// (>= 2⁻⁶⁴ from every stream here) is above it anyway. Edge cases: `P`
/// overflowing to inf rejects any u > 0, where `exp(-bd)` is 0; u == 0
/// and NaN never pass the screen and fall through to `std::exp`. Callers
/// that wrote `std::exp(-b * delta)` pass `b * delta`: IEEE multiplication
/// is symmetric in sign, so `(-b) * delta == -(b * delta)` bit for bit.
inline bool MetropolisAccept(double u, double bd) {
  const double p = 1.0 + bd * (1.0 + bd * (0.5 + bd * (1.0 / 6.0)));
  if (u * p >= 1.0 + 1e-12) return false;
  return u < std::exp(-bd);
}

/// Per-problem precomputation shared by every read of a sampler call: the
/// color classes the checkerboard kernel sweeps, plus a **color-major
/// permuted copy** of the problem — vertices renumbered so each class is
/// contiguous (`coloring().class_members` is the permuted→original map).
/// The class pass then walks spins and fields sequentially with no member
/// indirection, which is where the checkerboard layout's cache behavior
/// comes from. Cheap for `kScalar` callers to skip (pass null to
/// `RunSweeps`).
class SweepPlan {
 public:
  explicit SweepPlan(const qubo::IsingView& ising);

  const qubo::Coloring& coloring() const { return coloring_; }
  int max_class_size() const { return coloring_.max_class_size(); }

  /// CSR adjacency over permuted vertex ids (neighbor ids are permuted).
  const std::vector<int32_t>& row_offsets() const { return row_offsets_; }
  const std::vector<qubo::VarId>& neighbor_ids() const {
    return neighbor_ids_;
  }
  const std::vector<double>& weights() const { return weights_; }
  /// Ising fields h over permuted vertex ids.
  const std::vector<double>& fields() const { return fields_; }

 private:
  qubo::Coloring coloring_;
  std::vector<int32_t> row_offsets_;
  std::vector<qubo::VarId> neighbor_ids_;
  std::vector<double> weights_;
  std::vector<double> fields_;
};

/// Fills `spins` with uniform random ±1, one `Bernoulli` draw per spin —
/// the legacy initialization of the bit-exact `kScalar` path.
void RandomSpins(Rng* rng, std::vector<int8_t>* spins);

/// Fills `spins` with uniform random ±1, bit-unpacking 64 spins per
/// `Rng::Next` call. Used by the checkerboard kernel (whose stream
/// already differs from `kScalar`); the sequence for a given seed is part of
/// the documented seed contract and pinned by a regression test.
void RandomSpinsBatched(Rng* rng, std::vector<int8_t>* spins);

/// Kernel-matched initialization: legacy `RandomSpins` for `kScalar`,
/// `RandomSpinsBatched` otherwise.
void InitSpins(SweepKernel kernel, Rng* rng, std::vector<int8_t>* spins);

/// Runs `sweeps` Metropolis sweeps over `spins` in place with the selected
/// kernel — the one kernel entry point of both SA callers: the sampler
/// passes a view of its `IsingProblem`, the device model a view of a
/// programmed gauge's flat arrays. `plan` may be null for `kScalar` and must outlive the call
/// otherwise (build it once per problem, share across reads). The
/// checkerboard kernel fans its per-class decide loop across
/// `sweep_threads` concurrent chunks of `executor` (null = the process-wide
/// shared pool; <= 1 = inline) with bit-identical results at any thread
/// count, because the class's uniforms are drawn serially up front and each
/// chunk writes per-index accept slots.
void RunSweeps(const qubo::IsingView& ising, const SweepPlan* plan,
               const Schedule& beta, int sweeps, SweepKernel kernel, Rng* rng,
               std::vector<int8_t>* spins, util::Executor* executor = nullptr,
               int sweep_threads = 1);

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_SWEEP_KERNEL_H_
