#ifndef QMQO_ANNEAL_SWEEP_LANES_H_
#define QMQO_ANNEAL_SWEEP_LANES_H_

/// \file sweep_lanes.h
/// The lane kernel of the SA sweep: up to W reads of one programmed
/// problem swept in lockstep, one read per lane of a vector of W doubles.
/// This is multi-replica spin coding (Isakov et al., "Optimised simulated
/// annealing for Ising spin glasses", arXiv 1401.1084) in exact double
/// math: every lane makes, spin for spin, the decisions of `RunSweeps` for
/// its read, so each read's spins are bit-identical to the scalar loop's.
///
/// The body below is written once, as `LaneKernel<L>`, over a lane type L
/// (the contract is at `LaneKernel`). It is instantiated twice: for AVX2,
/// four reads per `__m256d` with lane masks held in vectors
/// (sweep_lanes_avx2.cc), and for AVX-512, eight reads per `__m512d` with
/// lane masks in mask registers (sweep_lanes_avx512.cc).
///
/// Per spin, for all lanes at once:
///  * every group runs under a live-lane mask: a group of 1..W reads (a
///    gauge's tail, or reads thinned by dropout) keeps its missing lanes
///    masked off, so they draw nothing and flip nothing;
///  * spins are held as ±1.0 doubles, so `change = -2·spin` and `delta =
///    change·field` need no convert, and a flip is the masked add `spin +
///    change`, which is exact (s + (-2s) = -s);
///  * each lane keeps its own `Rng` stream and takes a uniform only when
///    its proposal is uphill. Uniforms come from a per-lane buffer, refilled
///    by `Rng::FillUniform01`, with a per-lane cursor; each refill also
///    writes `t = -ln u` beside every uniform (`NegLogUniforms`), off the
///    per-spin chain;
///  * the accept decision is a lane mask: `delta <= 0`, or an uphill
///    proposal settled in the log domain as `LogDomainScreen` (in
///    sweep_kernel.h) settles it: `bd = β·Δ` below `t` less a 1e-12 margin
///    accepts, above `t` plus it rejects, and only inside that band (or on
///    NaN) does the exact `u < std::exp(-bd)` run, per lane in scalar
///    code, on the uniform at the lane's cursor. Every lane's t is
///    gathered before its delta is known (a cursor always stays inside its
///    lane's buffer), so the chain per spin is field, delta, bd, compare,
///    flip. The uphill test is `!(delta <= 0)`, so a NaN delta draws and
///    rejects, as in the scalar loop;
///  * the field update is a masked add of `w * change`: lanes that did not
///    flip keep their field (AVX2 adds +0.0 there, which changes a field
///    only when it is -0.0, and a zero field gives `delta <= 0` either
///    way). Multiplying by a zero change instead would turn an inf weight
///    into NaN.
///
/// No multiply-add is fused: each instantiating file sets fp-contract off
/// for the kernel, whatever the build's flags, so the lanes make the
/// scalar loop's IEEE operations one for one. (The products that feed an
/// add, `w·(±1)` and `w·(±2)`, are exact anyway, and the verdict's margin
/// covers fused or unfused evaluation of t.)
///
/// A file that instantiates `LaneKernel` includes this header after a
/// `#pragma GCC target` that enables its lane type's instructions, and
/// after every header this one includes, so that no inline function of
/// those headers is compiled for that target.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "anneal/schedule.h"
#include "anneal/sweep_kernel.h"
#include "qubo/ising.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {

/// `LaneSweeps` at one width, for `util::CpuVectorIsa()` at least AVX2
/// (`kAvx2Lanes` reads) and AVX-512 (`kAvx512Lanes` reads).
void LaneSweepsAvx2(const qubo::IsingView& ising, const Schedule& beta,
                    int sweeps, int count, Rng* rngs,
                    std::vector<int8_t>* spins);
void LaneSweepsAvx512(const qubo::IsingView& ising, const Schedule& beta,
                      int sweeps, int count, Rng* rngs,
                      std::vector<int8_t>* spins);

/// `LaneNegLog` at one width: eight or four values per vector, for the
/// same CPUs as `LaneSweepsAvx512` and `LaneSweepsAvx2`.
void NegLogAvx2(const double* u, int count, double* t);
void NegLogAvx512(const double* u, int count, double* t);

/// Uniforms buffered per lane between refills. Each sits beside its
/// `-ln u` (`NegLogUniforms`), which is what a spin step gathers; the
/// uniform itself is read only by the rare exact test.
constexpr int kLaneBufferDraws = 256;

/// Writes `t[k] = -ln u[k]` for k < count, W values per vector of the GCC/
/// Clang vector extension, so it compiles to the instructions of the
/// function it is inlined into. count is a multiple of W; each `u[k]` is 0
/// or a normal double in (0, 1), as `UnitUniform` gives. u = 0 gives NaN,
/// which leaves the lanes' verdict to the exact test. Otherwise t is
/// within `kNegLogError` of -ln u; the derivation is at `kNegLogError`.
///
/// Range reduction: u = 2^e·m with m in [√½, √2). Adding the bits of
/// `1 - √½` to those of u carries into the exponent field exactly when
/// u's mantissa is at least √2's, so that field, less one's, is e, and
/// subtracting e from u's exponent field gives m. Then
/// `-ln u = -(e·ln 2 + 2·atanh(s))` with `s = (m - 1)/(m + 1)`, |s| <=
/// 0.1716, and atanh by its series to s¹⁹.
template <int W>
__attribute__((always_inline)) inline void NegLogUniforms(const double* u,
                                                          int count,
                                                          double* t) {
  typedef uint64_t Words __attribute__((vector_size(8 * W)));
  typedef double Doubles __attribute__((vector_size(8 * W)));
  constexpr uint64_t kOneBits = 0x3FF0000000000000ULL;
  constexpr uint64_t kSqrtHalfBits = 0x3FE6A09E667F3BCDULL;
  constexpr uint64_t kExponentField = 0x7FF0000000000000ULL;
  const Doubles nan = Doubles{} + __builtin_nan("");
  for (int k = 0; k < count; k += W) {
    Doubles x;
    std::memcpy(&x, u + k, sizeof(x));
    const Words bits = reinterpret_cast<Words>(x);
    const Words carried = bits + (kOneBits - kSqrtHalfBits);
    const Doubles m = reinterpret_cast<Doubles>(
        bits - ((carried & kExponentField) - kOneBits));
    // The biased exponent, at most 1023, read exactly as 2⁵² + it.
    const Doubles e = reinterpret_cast<Doubles>((carried >> 52) |
                                                0x4330000000000000ULL) -
                      (0x1.0p52 + 1023.0);
    const Doubles s = (m - 1.0) / (m + 1.0);
    const Doubles z = s * s;
    // atanh(s)/s = Σ z^j/(2j + 1), j < 10.
    Doubles series = Doubles{} + 1.0 / 19;
    for (int j = 8; j >= 0; --j) series = series * z + 1.0 / (2 * j + 1);
    const Doubles neg_log = -(e * 0x1.62e42fefa39efp-1 + (s + s) * series);
    const Doubles out = x == 0.0 ? nan : neg_log;
    std::memcpy(t + k, &out, sizeof(out));
  }
}

/// `LaneSweeps` for `count` (1..W) reads over lane type `L`, which provides:
///  * `kWidth` (W) and the types `V` (W doubles), `M` (a mask of W lanes)
///    and `I` (W int64 indices);
///  * on V: `Set1`, aligned `Load`/`Store`, `Add`, `Mul`, and
///    `MaskedAdd(f, m, step)` = f + step in the lanes of m, f elsewhere;
///  * comparisons into M: `Le`, `Lt` (ordered, false on NaN);
///  * on M: `And`, `Or`, `AndNot(a, b)` = ~a & b, `Bits` (lane l to bit l)
///    and `FromBits`;
///  * `Gather(base, index)`: base[index] in every lane; `Advance(index,
///    m)`: index + 1 in the lanes of m; `AnyEqual`, and aligned
///    `LoadI`/`StoreI`.
template <typename L>
void LaneKernel(const qubo::IsingView& ising, const Schedule& beta,
                int sweeps, int count, Rng* rngs,
                std::vector<int8_t>* spins) {
  using V = typename L::V;
  using M = typename L::M;
  using I = typename L::I;
  constexpr int W = L::kWidth;
  const int n = ising.num_spins();
  const int32_t* offsets = ising.csr.row_offsets;
  const qubo::VarId* ids = ising.csr.neighbor_ids;
  const double* weights = ising.csr.weights;
  const double* h = ising.fields;

  // Lane-interleaved state: entry W·i + l is spin (or local field) i of
  // lane l's read. One allocation holds the fields, then each lane's
  // uniform buffer (lane l draws from buffer[l * kLaneBufferDraws + k]),
  // then their -ln u at the same offsets in `neg_log`, then the spins as
  // ±1.0. One block per call, not several: separate blocks fragmented the
  // workers' heaps and raised peak RSS measurably.
  const size_t cells = static_cast<size_t>(n) * W;
  const size_t buffer_cells = static_cast<size_t>(W) * kLaneBufferDraws;
  // Seven doubles of slack let `field` start on a 64-byte boundary, so a
  // spin's W fields (and W spins) never straddle a cache line.
  std::vector<double> store(2 * cells + 2 * buffer_cells + 7);
  double* field = reinterpret_cast<double*>(
      (reinterpret_cast<uintptr_t>(store.data()) + 63) & ~uintptr_t{63});
  double* buffer = field + cells;
  double* neg_log = buffer + buffer_cells;
  double* s = neg_log + buffer_cells;
  // Masked-off lanes hold +1 spins; they never flip.
  for (int i = 0; i < n; ++i) {
    for (int l = 0; l < W; ++l) {
      s[W * i + l] = l < count ? spins[l][static_cast<size_t>(i)] : 1.0;
    }
  }
  // Each lane's fields in the scalar loop's summation order.
  for (int i = 0; i < n; ++i) {
    V f = L::Set1(h[i]);
    for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      f = L::Add(f, L::Mul(L::Set1(weights[e]), L::Load(s + W * ids[e])));
    }
    L::Store(field + W * i, f);
  }

  auto refill = [&](int l) {
    double* draws = buffer + l * kLaneBufferDraws;
    rngs[l].FillUniform01(draws, kLaneBufferDraws);
    NegLogUniforms<W>(draws, kLaneBufferDraws, neg_log + l * kLaneBufferDraws);
  };
  for (int l = 0; l < count; ++l) refill(l);
  // Each lane's absolute cursor into `buffer`, and where its part ends.
  // A cursor always points inside its lane's part (a lane that was never
  // filled reads the zeros `store` starts with), so the gather below
  // needs no mask.
  alignas(64) int64_t cursor[W];
  for (int l = 0; l < W; ++l) cursor[l] = int64_t{l + 1} * kLaneBufferDraws;
  const I buffer_end = L::LoadI(cursor);
  for (int l = 0; l < W; ++l) cursor[l] = int64_t{l} * kLaneBufferDraws;
  I next = L::LoadI(cursor);

  const M live = L::FromBits((1u << count) - 1);
  const V zero = L::Set1(0.0);
  const V minus_two = L::Set1(-2.0);
  const V margin = L::Set1(kLogDomainMargin);
  const V minus_margin = L::Set1(-kLogDomainMargin);
  alignas(64) double lane_bd[W];

  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const V b = L::Set1(beta.At(sweep, sweeps));
    for (int i = 0; i < n; ++i) {
      const V spin = L::Load(s + W * i);
      // change = -2 s_i; delta = change * field[i], as in the scalar loop.
      const V change = L::Mul(minus_two, spin);
      const V delta = L::Mul(change, L::Load(field + W * i));
      // Every lane's next -ln u, gathered before its delta is known;
      // only the uphill lanes' are used.
      const V t = L::Gather(neg_log, next);
      // The decision runs without a branch on the lanes' outcomes (they
      // mispredict): lanes that are not uphill take no uniform and are
      // masked out of the verdict, and a spin that flips in no lane
      // leaves its neighbors' fields as they are.
      const M down = L::Le(delta, zero);
      // Uphill (or NaN) live lanes take their uniform.
      const M up = L::AndNot(down, live);
      // `LogDomainScreen`: bd = β·Δ against t, one compare each way.
      const V bd = L::Mul(b, delta);
      const M sure_accept = L::Lt(bd, L::Add(t, minus_margin));
      const M sure_reject = L::Lt(L::Add(t, margin), bd);
      M accept = L::Or(L::And(down, live), L::And(up, sure_accept));
      const uint32_t unsettled =
          L::Bits(L::AndNot(L::Or(sure_accept, sure_reject), up));
      if (unsettled != 0) {
        // Practically never: the exact test on the lane's own uniform.
        L::StoreI(cursor, next);
        L::Store(lane_bd, bd);
        uint32_t exp_accepts = 0;
        for (int l = 0; l < W; ++l) {
          if ((unsettled >> l & 1) &&
              buffer[cursor[l]] < std::exp(-lane_bd[l])) {
            exp_accepts |= 1u << l;
          }
        }
        accept = L::Or(accept, L::FromBits(exp_accepts));
      }
      // s + (-2s) = -s exactly.
      L::Store(s + W * i, L::MaskedAdd(spin, accept, change));
      for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
        double* f_j = field + W * ids[e];
        L::Store(f_j, L::MaskedAdd(L::Load(f_j), accept,
                                   L::Mul(L::Set1(weights[e]), change)));
      }
      next = L::Advance(next, up);
      if (L::AnyEqual(next, buffer_end)) {
        L::StoreI(cursor, next);
        for (int l = 0; l < count; ++l) {
          if (cursor[l] != int64_t{l + 1} * kLaneBufferDraws) continue;
          refill(l);
          cursor[l] = int64_t{l} * kLaneBufferDraws;
        }
        next = L::LoadI(cursor);
      }
    }
  }

  for (int i = 0; i < n; ++i) {
    for (int l = 0; l < count; ++l) {
      spins[l][static_cast<size_t>(i)] = static_cast<int8_t>(s[W * i + l]);
    }
  }
}

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_SWEEP_LANES_H_
