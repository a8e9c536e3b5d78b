#ifndef QMQO_ANNEAL_SWEEP_KERNEL_H_
#define QMQO_ANNEAL_SWEEP_KERNEL_H_

/// \file sweep_kernel.h
/// The Metropolis sweep of the SA samplers, and the exact Metropolis test
/// every annealing sampler shares.
///
/// `RunSweeps` is the per-spin loop: ascending spin order, one
/// `Rng::UniformReal(0, 1)` draw per uphill proposal, the exact Metropolis
/// test. It is the **bit-exact reference**: its random stream and results
/// are frozen across PRs and identical at any thread count. The stream is
/// the standard library's 64-bit Mersenne Twister, value for value, but
/// comes from the in-house `Mt19937_64` and the exact branch-free
/// `UnitUniform` (util/rng.h). On a CPU with AVX2, `RunSweepGroup` runs
/// the reads of one problem in lockstep, one per lane of a vector of
/// doubles: eight per AVX-512 vector, four per AVX2 vector (`LaneSweeps`,
/// anneal/sweep_lanes.h). A group of fewer reads masks its missing lanes
/// off. Each lane is spin for spin the scalar loop's read, so the lanes
/// are an implementation of the same sweep, not another kernel;
/// `RunSweeps` is the tests' reference and the only path on a CPU without
/// AVX2.
///
/// Every exact site decides `u < std::exp(-β·Δ)`, bit for bit, and calls
/// `std::exp` only when a cheaper test cannot settle it:
///  * `MetropolisAccept` (below), in the scalar loop and in the local and
///    global moves of the SQA step (anneal/sqa.cc): a cubic lower bound on
///    `e^{β·Δ}` rejects most uphill proposals, and a degree-7 lower bound on
///    `e^{-β·Δ}` accepts most of the rest;
///  * `LogDomainAccept` (below), in the lanes: each buffered uniform
///    carries `t = -ln u` (within `kNegLogError`), and one compare of `β·Δ`
///    against `t` with a 1e-12 margin each way settles all but at most two
///    proposals in 10¹².

#include <cmath>
#include <cstdint>
#include <vector>

#include "anneal/schedule.h"
#include "qubo/ising.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {

/// A lower bound on `e^{-bd}` for `bd <= 2`, below even the rounded
/// `std::exp(-bd)`: `L7(bd)·(1 - 1e-12)`, where `L7(x) = Σ_{k≤7} (-x)^k/k!`
/// is evaluated by Horner's rule in `y = -bd`. See `MetropolisAccept`.
inline double SureAcceptBound(double bd) {
  const double y = -bd;
  const double l7 =
      1.0 +
      y * (1.0 +
           y * (1.0 / 2 +
                y * (1.0 / 6 +
                     y * (1.0 / 24 +
                          y * (1.0 / 120 +
                               y * (1.0 / 720 + y * (1.0 / 5040)))))));
  return l7 * (1.0 - 1e-12);
}

/// The exact Metropolis test for an uphill proposal: returns exactly
/// `u < std::exp(-bd)` for `bd = β·Δ >= 0`, but settles most proposals
/// without calling `std::exp`.
///
/// Reject screen: `P = 1 + bd + bd²/2 + bd³/6` is a partial sum of the
/// series of `e^bd` with non-negative terms, so `P <= e^bd` and
/// `exp(-bd) <= 1/P`. When `u·P >= 1 + 1e-12`, u exceeds `exp(-bd)` and the
/// proposal is a sure reject.
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
/// and NaN never pass the screen and fall through to `std::exp`.
///
/// Accept screen (`bd <= 2`): the Lagrange remainder of `L7` at `-x` is
/// `x⁸/8!·e^{-ξ} >= 0`, so `L7(x) <= e^{-x}` for every x. The Horner
/// evaluation of `L7` at `y = -bd` (seven multiply-adds, coefficients
/// rounded once each) errs by at most about 18ε·Σ|c_k|·bd^k <= 18ε·e² <
/// 1.5e-14 in absolute terms, which is under 1.1e-13·e^{-bd} while
/// `e^{-bd} >= e^{-2}`. The bound `SureAcceptBound(bd)` is therefore at
/// most `e^{-bd}(1 + 1.1e-13)(1 - 1e-12)(1 + ε) < e^{-bd}(1 - 8e-13)`,
/// below glibc's `std::exp(-bd) >= e^{-bd}(1 - 2⁻⁵²)`, so `u` under it is
/// a sure accept. The 1e-12 margin is ~9 times wider than this worst case;
/// a dense check over bd in [0, 3] (tests/sweep_kernel_test.cc) finds the
/// computed bound at most `e^{-bd}(1 - 0.9998e-12)`. NaN fails `bd <= 2`
/// and falls through. On the paper instance this settles 80% of the
/// proposals the reject screen passes: 3.3% of uphill proposals still
/// reach `std::exp`, against 16% with the reject screen alone.
///
/// Callers that wrote `std::exp(-b * delta)` pass `b * delta`: IEEE
/// multiplication is symmetric in sign, so `(-b) * delta == -(b * delta)`
/// bit for bit.
inline bool MetropolisAccept(double u, double bd) {
  const double p = 1.0 + bd * (1.0 + bd * (0.5 + bd * (1.0 / 6.0)));
  if (u * p >= 1.0 + 1e-12) return false;
  if (bd <= 2.0 && u < SureAcceptBound(bd)) return true;
  return u < std::exp(-bd);
}

/// How far the lanes' buffered `t = -ln u` may lie from the exact value,
/// for a uniform u in [2⁻⁶⁴, 1) (`NegLogUniforms`, anneal/sweep_lanes.h,
/// computes t as `-(e·ln2 + 2·s·P(s²))` with `u = 2^e·m`, m in [√½, √2),
/// `s = (m - 1)/(m + 1)` and `P(z) = Σ_{j<10} z^j/(2j + 1)`, so that
/// `s·P(s²)` is atanh's series to s¹⁹; ε = 2⁻⁵³):
///  * `m - 1` is exact (Sterbenz), `m + 1` and the quotient round, so s is
///    within 2ε relative; P (all terms positive, s² <= 0.0295) is within
///    1.2ε, and the series' first omitted term, `|s|²¹/21`, is under
///    5e-18. With the product `2s·P` rounded once, `ln m` (|ln m| <=
///    0.347) is within 0.347·5ε + 1e-17 < 2.1e-16 absolute.
///  * `|e| <= 64`, and `ln 2` rounds to within ε/2 (ln 2 < 1), so
///    `e·ln2` errs by 64·ε/2 = 3.6e-15 before, and at most half an ulp of
///    a value below 64 (2⁻⁴⁸ = 3.6e-15) after, its product rounds.
///  * The sum rounds by at most 3.6e-15 more; the negation is exact.
/// So `|t + ln u| <= 3·3.6e-15 + 2.1e-16 < 1.1e-14`. The bound below adds
/// headroom; tests/sweep_kernel_test.cc checks a million values against
/// `-logl(u)` at both lane widths.
constexpr double kNegLogError = 1.2e-14;

/// The half-width of the band around t in which the lanes' verdict falls
/// back to `std::exp`: about 80 times `kNegLogError`. See `LogDomainScreen`.
constexpr double kLogDomainMargin = 1e-12;

/// The lanes' Metropolis screen for an uphill proposal, in the log domain:
/// `u < exp(-bd)` is `bd < -ln u`. Given t within `kNegLogError` of
/// `-ln u` (u >= 2⁻⁶⁴, so t < 44.4), returns +1 when the proposal is a
/// sure accept (`bd < t - kLogDomainMargin`), -1 when it is a sure reject
/// (`bd > t + kLogDomainMargin`), and 0 when the exact test must decide.
///
/// Error analysis (ε = 2⁻⁵³): `t ∓ margin` rounds by at most half an ulp
/// of a value below 64, 3.6e-15. A sure accept therefore has `bd < -ln u -
/// 1e-12 + 1.2e-14 + 3.6e-15 < -ln u - 9.8e-13`, so `e^{-bd} > u·e^{9.8e-13}
/// > u·(1 + 9.8e-13)`, and glibc's `std::exp(-bd)` (within 1 ulp, a
/// relative 2ε = 2.2e-16 while the result is normal, as it is for bd <
/// 44.4) is above u: `u < std::exp(-bd)` holds. Symmetrically, a sure
/// reject has `e^{-bd} < u·(1 - 9.8e-13)`, and `std::exp(-bd)` is below u
/// (when it is subnormal it is below 2⁻¹⁰²², far under u). So the screen
/// never disagrees with the exact test; the margin is over 60 times wider
/// than the errors it covers. NaN in t (the buffer's u = 0) or in bd
/// fails both compares and returns 0. A uniform falls in the band with
/// probability `2e-12·e^{-bd}` or less, so `std::exp` is practically
/// never called.
inline int LogDomainScreen(double t, double bd) {
  if (bd < t - kLogDomainMargin) return 1;
  if (bd > t + kLogDomainMargin) return -1;
  return 0;
}

/// The lanes' whole verdict for one uphill proposal, the scalar twin of
/// the vector code in `LaneKernel`: exactly `u < std::exp(-bd)`, given
/// `t` within `kNegLogError` of `-ln u` (or NaN).
inline bool LogDomainAccept(double u, double t, double bd) {
  const int screen = LogDomainScreen(t, bd);
  return screen != 0 ? screen > 0 : u < std::exp(-bd);
}

/// Fills `spins` with uniform random ±1, one `Bernoulli` draw per spin:
/// the initialization of every SA and SQA read.
void RandomSpins(Rng* rng, std::vector<int8_t>* spins);

/// Runs `sweeps` Metropolis sweeps over `spins` in place, for one read.
/// Both SA callers reach it through `RunSweepGroup` (below): the sampler
/// passes a view of its `IsingProblem`, the device model a view of a
/// programmed gauge's flat arrays. It draws exactly one
/// `rng->UniformReal(0, 1)` per uphill proposal and nothing else.
void RunSweeps(const qubo::IsingView& ising, const Schedule& beta, int sweeps,
               Rng* rng, std::vector<int8_t>* spins);

/// Reads per lane group: one per double of a 256-bit AVX2 vector, and of
/// a 512-bit AVX-512 vector.
constexpr int kAvx2Lanes = 4;
constexpr int kAvx512Lanes = 8;

/// Reads per claim unit on this CPU, from `util::CpuVectorIsa()`:
/// `kAvx512Lanes` with AVX-512, `kAvx2Lanes` with AVX2 only, else 1.
int SweepGroupWidth();

/// Runs `RunSweeps` for `count` reads of one problem: read k anneals
/// `spins[k]` with `rngs[k]`. On an AVX2 CPU the reads run in the lane
/// kernel, `SweepGroupWidth()` at a time, a last group of fewer reads with
/// its missing lanes masked off; on any other CPU they run read by read.
/// `count == 0` does nothing. Every spin of every read is exactly what
/// `RunSweeps` gives for that read alone. The lane kernel draws each
/// read's uniforms into a buffer ahead of use, so afterwards `rngs[k]`
/// sits past the draws the read used; callers discard it.
void RunSweepGroup(const qubo::IsingView& ising, const Schedule& beta,
                   int sweeps, int count, Rng* rngs,
                   std::vector<int8_t>* spins);

/// The lane kernel itself: `count` reads of `ising` in lockstep, 1 <=
/// count <= width, in a vector of `width` lanes, each lane spin for spin
/// the `RunSweeps` read of its stream (see `RunSweepGroup`).
/// Precondition: `util::CpuVectorIsa()` is at least AVX2 for `width ==
/// kAvx2Lanes`, and AVX-512 for `kAvx512Lanes`. Callers go
/// through `RunSweepGroup`; tests call it directly at every width.
void LaneSweeps(int width, const qubo::IsingView& ising, const Schedule& beta,
                int sweeps, int count, Rng* rngs,
                std::vector<int8_t>* spins);

/// Writes `-ln u[k]` to `t[k]` for k < count (a multiple of `width`) as
/// the lane kernel of that width buffers it: within `kNegLogError`, NaN
/// for u = 0. Same precondition as `LaneSweeps`; for tests.
void LaneNegLog(int width, const double* u, int count, double* t);

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_SWEEP_KERNEL_H_
