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
///  * the accept decision is a lane mask: `delta <= 0`, or an uphill
///    proposal settled by `MetropolisAccept`'s two screens, with the rare
///    unscreened `std::exp` run per lane in scalar code. The uphill test is
///    `!(delta <= 0)`, so a NaN delta draws and rejects, as in the scalar
///    loop;
///  * each lane keeps its own `Rng` stream and takes a uniform only when
///    its proposal is uphill. Uniforms come from a per-lane buffer, refilled
///    by `Rng::FillUniform01`, with a per-lane cursor;
///  * the field update is a masked add of `w * change`: lanes that did not
///    flip keep their field (AVX2 adds +0.0 there, which changes a field
///    only when it is -0.0, and a zero field gives `delta <= 0` either
///    way). Multiplying by a zero change instead would turn an inf weight
///    into NaN.
///
/// No multiply-add is fused: each instantiating file sets fp-contract off
/// for the kernel, whatever the build's flags, so the lanes make the
/// scalar loop's IEEE operations one for one. (The products that feed an
/// add, `w·(±1)` and `w·(±2)`, are exact anyway, and the screens' margins
/// cover fused or unfused evaluation.)
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

/// Uniforms buffered per lane between refills.
constexpr int kLaneBufferDraws = 256;

/// Flips lane l of the `W` lane-interleaved int8 spins at `s` for every
/// bit l set in `flips`: 0x01 ^ 0xFE = 0xFF (-1) and back. Each multiply
/// spreads four bits of `flips` to bits 0, 8, 16 and 24.
template <int W>
inline void FlipLaneSpins(int8_t* s, uint32_t flips) {
  static_assert(W % 4 == 0 && W <= 8, "spins of one spin fit a uint64_t");
  uint64_t spread = 0;
  for (int c = 0; c < W; c += 4) {
    spread |= static_cast<uint64_t>(((flips >> c) & 0xFu) * 0x204081u &
                                    0x01010101u)
              << (8 * c);
  }
  uint64_t word = 0;
  std::memcpy(&word, s, W);
  word ^= spread * 0xFEu;
  std::memcpy(s, &word, W);
}

/// `LaneSweeps` for `count` (1..W) reads over lane type `L`, which provides:
///  * `kWidth` (W) and the types `V` (W doubles), `M` (a mask of W lanes)
///    and `I` (W int64 indices);
///  * on V: `Set1`, aligned `Load`/`Store`, `Add`, `Mul`, `Xor`, and
///    `MaskedAdd(f, m, step)` = f + step in the lanes of m, f elsewhere;
///  * comparisons into M: `Le`, `Lt`, `Ge` (ordered, false on NaN);
///  * on M: `And`, `Or`, `AndNot(a, b)` = ~a & b, `Bits` (lane l to bit l)
///    and `FromBits`;
///  * `LoadSpins(s)`: the W int8 spins at `s` as ±1.0;
///  * `Gather(base, index, m)`: base[index] in the lanes of m, 0 elsewhere;
///    `Advance(index, m)`: index + 1 in the lanes of m; `AnyEqual`, and
///    aligned `LoadI`/`StoreI`.
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
  // then the ±1 spins as int8. One block per call, not three: separate
  // blocks fragmented the workers' heaps and raised peak RSS measurably.
  const size_t cells = static_cast<size_t>(n) * W;
  const size_t buffer_cells = static_cast<size_t>(W) * kLaneBufferDraws;
  const size_t spin_cells = (cells + sizeof(double) - 1) / sizeof(double);
  // Seven doubles of slack let `field` start on a 64-byte boundary, so a
  // spin's W fields never straddle a cache line.
  std::vector<double> store(cells + buffer_cells + spin_cells + 7);
  double* field = reinterpret_cast<double*>(
      (reinterpret_cast<uintptr_t>(store.data()) + 63) & ~uintptr_t{63});
  double* buffer = field + cells;
  int8_t* s = reinterpret_cast<int8_t*>(buffer + buffer_cells);
  // Masked-off lanes hold +1 spins; they never flip.
  for (int i = 0; i < n; ++i) {
    for (int l = 0; l < W; ++l) {
      s[W * i + l] = l < count ? spins[l][static_cast<size_t>(i)] : int8_t{1};
    }
  }
  // Each lane's fields in the scalar loop's summation order.
  for (int i = 0; i < n; ++i) {
    V f = L::Set1(h[i]);
    for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      f = L::Add(f, L::Mul(L::Set1(weights[e]), L::LoadSpins(s + W * ids[e])));
    }
    L::Store(field + W * i, f);
  }

  for (int l = 0; l < count; ++l) {
    rngs[l].FillUniform01(buffer + l * kLaneBufferDraws, kLaneBufferDraws);
  }
  // Each lane's absolute cursor into `buffer`, and where its part ends.
  alignas(64) int64_t cursor[W];
  for (int l = 0; l < W; ++l) cursor[l] = int64_t{l + 1} * kLaneBufferDraws;
  const I buffer_end = L::LoadI(cursor);
  for (int l = 0; l < W; ++l) cursor[l] = int64_t{l} * kLaneBufferDraws;
  I next = L::LoadI(cursor);

  const M live = L::FromBits((1u << count) - 1);
  const V zero = L::Set1(0.0);
  const V sign = L::Set1(-0.0);  // for y = -bd
  const V minus_two = L::Set1(-2.0);
  const V one = L::Set1(1.0);
  const V half = L::Set1(0.5);
  const V sixth = L::Set1(1.0 / 6.0);
  const V reject_margin = L::Set1(1.0 + 1e-12);
  const V accept_margin = L::Set1(1.0 - 1e-12);
  const V two = L::Set1(2.0);
  // L7's coefficients 1/k!, k = 4..7 (1/2 and 1/6 are above).
  const V c4 = L::Set1(1.0 / 24);
  const V c5 = L::Set1(1.0 / 120);
  const V c6 = L::Set1(1.0 / 720);
  const V c7 = L::Set1(1.0 / 5040);
  alignas(64) double lane_u[W];
  alignas(64) double lane_bd[W];

  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const V b = L::Set1(beta.At(sweep, sweeps));
    for (int i = 0; i < n; ++i) {
      const V spin = L::LoadSpins(s + W * i);
      // change = -2 s_i; delta = change * field[i], as in the scalar loop.
      const V change = L::Mul(minus_two, spin);
      const V delta = L::Mul(change, L::Load(field + W * i));
      // The decision runs without a branch on the lanes' outcomes (they
      // mispredict): lanes that are not uphill take no uniform and are
      // masked out of both screens, and a spin that flips in no lane
      // leaves its neighbors' fields as they are.
      const M down = L::Le(delta, zero);
      // Uphill (or NaN) live lanes take their next uniform.
      const M up = L::AndNot(down, live);
      const V u = L::Gather(buffer, next, up);
      next = L::Advance(next, up);
      if (L::AnyEqual(next, buffer_end)) {
        L::StoreI(cursor, next);
        for (int l = 0; l < count; ++l) {
          if (cursor[l] != int64_t{l + 1} * kLaneBufferDraws) continue;
          rngs[l].FillUniform01(buffer + l * kLaneBufferDraws,
                                kLaneBufferDraws);
          cursor[l] = int64_t{l} * kLaneBufferDraws;
        }
        next = L::LoadI(cursor);
      }
      // MetropolisAccept's reject screen, then its accept screen.
      const V bd = L::Mul(b, delta);
      const V p = L::Add(
          one,
          L::Mul(bd, L::Add(one, L::Mul(bd, L::Add(half, L::Mul(bd, sixth))))));
      const M reject = L::Ge(L::Mul(u, p), reject_margin);
      const M open = L::AndNot(reject, up);
      const V y = L::Xor(bd, sign);
      V l7 = L::Add(c6, L::Mul(y, c7));
      l7 = L::Add(c5, L::Mul(y, l7));
      l7 = L::Add(c4, L::Mul(y, l7));
      l7 = L::Add(sixth, L::Mul(y, l7));
      l7 = L::Add(half, L::Mul(y, l7));
      l7 = L::Add(one, L::Mul(y, l7));
      l7 = L::Add(one, L::Mul(y, l7));
      const M sure =
          L::And(L::Le(bd, two), L::Lt(u, L::Mul(l7, accept_margin)));
      M accept = L::Or(L::And(down, live), L::And(open, sure));
      const uint32_t unsettled = L::Bits(L::AndNot(sure, open));
      if (unsettled != 0) {
        L::Store(lane_u, u);
        L::Store(lane_bd, bd);
        uint32_t exp_accepts = 0;
        for (int l = 0; l < W; ++l) {
          if ((unsettled >> l & 1) && lane_u[l] < std::exp(-lane_bd[l])) {
            exp_accepts |= 1u << l;
          }
        }
        accept = L::Or(accept, L::FromBits(exp_accepts));
      }
      FlipLaneSpins<W>(s + W * i, L::Bits(accept));
      for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
        double* f_j = field + W * ids[e];
        L::Store(f_j, L::MaskedAdd(L::Load(f_j), accept,
                                   L::Mul(L::Set1(weights[e]), change)));
      }
    }
  }

  for (int i = 0; i < n; ++i) {
    for (int l = 0; l < count; ++l) {
      spins[l][static_cast<size_t>(i)] = s[W * i + l];
    }
  }
}

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_SWEEP_LANES_H_
