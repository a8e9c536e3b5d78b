// The lane kernel of the SA sweep: `kSweepLanes` reads of one programmed
// problem swept in lockstep, one read per lane of an AVX2 vector of
// doubles. This is multi-replica spin coding (Isakov et al., "Optimised
// simulated annealing for Ising spin glasses", arXiv 1401.1084) in exact
// double math: every lane performs, spin for spin, the IEEE operations of
// `RunSweeps` for its read, so each read's spins are bit-identical to the
// scalar loop's.
//
// Per spin, for all lanes at once:
//  * the accept decision is a lane mask: `delta <= 0`, or an uphill
//    proposal settled by `MetropolisAccept`'s two screens, with the rare
//    unscreened `std::exp` run per lane in scalar code. The uphill test is
//    `!(delta <= 0)`, so a NaN delta draws and rejects, as in the scalar
//    loop;
//  * each lane keeps its own `Rng` stream and takes a uniform only when
//    its proposal is uphill. Uniforms come from a per-lane buffer, refilled
//    by `Rng::FillUniform01`, with a per-lane cursor;
//  * the field update is a masked add: `w * change` is masked to +0.0 for
//    lanes that did not flip. (Multiplying by a zero change instead would
//    turn an inf weight into NaN.) Adding +0.0 changes a field only when
//    it is -0.0, and a zero field gives `delta <= 0` either way.
//
// This file is compiled with -ffp-contract=off (CMakeLists.txt), so no
// multiply-add is fused into an FMA when the tree is built for a CPU that
// has one.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "anneal/sweep_kernel.h"
#include "util/cpu.h"

#ifdef QMQO_AVX2_PATHS
#include <immintrin.h>
#endif

namespace qmqo {
namespace anneal {

#ifdef QMQO_AVX2_PATHS
namespace {

static_assert(kSweepLanes == 4, "one read per double of an AVX2 vector");

/// Uniforms buffered per lane between refills.
constexpr int kBufferDraws = 256;

/// The `kSweepLanes` spins i of a lane-interleaved int8 array, as ±1.0.
__attribute__((target("avx2"))) inline __m256d LoadSpins(const int8_t* s,
                                                         int i) {
  int32_t packed;
  std::memcpy(&packed, s + kSweepLanes * i, sizeof(packed));
  return _mm256_cvtepi32_pd(_mm_cvtepi8_epi32(_mm_cvtsi32_si128(packed)));
}

}  // namespace

__attribute__((target("avx2"))) void LaneSweeps(
    const qubo::IsingView& ising, const Schedule& beta, int sweeps, Rng* rngs,
    std::vector<int8_t>* spins) {
  const int n = ising.num_spins();
  const int32_t* offsets = ising.csr.row_offsets;
  const qubo::VarId* ids = ising.csr.neighbor_ids;
  const double* weights = ising.csr.weights;
  const double* h = ising.fields;

  // Lane-interleaved state: entry 4i + l is spin (or local field) i of
  // lane l's read. One allocation holds the fields, then each lane's
  // uniform buffer (lane l draws from buffer[l * kBufferDraws + k]), then
  // the ±1 spins as int8. One block per call, not three: separate blocks
  // fragmented the workers' heaps and raised peak RSS measurably.
  const size_t cells = static_cast<size_t>(n) * kSweepLanes;
  const size_t buffer_cells = kSweepLanes * kBufferDraws;
  const size_t spin_cells = (cells + sizeof(double) - 1) / sizeof(double);
  // Three doubles of slack let `field` start on a 32-byte boundary.
  std::vector<double> store(cells + buffer_cells + spin_cells + 3);
  double* field = reinterpret_cast<double*>(
      (reinterpret_cast<uintptr_t>(store.data()) + 31) & ~uintptr_t{31});
  double* buffer = field + cells;
  int8_t* s = reinterpret_cast<int8_t*>(buffer + buffer_cells);
  for (int i = 0; i < n; ++i) {
    for (int l = 0; l < kSweepLanes; ++l) {
      s[kSweepLanes * i + l] = spins[l][static_cast<size_t>(i)];
    }
  }
  // Each lane's fields in the scalar loop's summation order.
  for (int i = 0; i < n; ++i) {
    __m256d f = _mm256_set1_pd(h[i]);
    for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      f = _mm256_add_pd(f, _mm256_mul_pd(_mm256_set1_pd(weights[e]),
                                         LoadSpins(s, ids[e])));
    }
    _mm256_store_pd(field + kSweepLanes * i, f);
  }

  for (int l = 0; l < kSweepLanes; ++l) {
    rngs[l].FillUniform01(buffer + l * kBufferDraws, kBufferDraws);
  }
  // Each lane's absolute cursor into `buffer`, and where its part ends.
  __m256i next = _mm256_setr_epi64x(0, kBufferDraws, 2 * kBufferDraws,
                                    3 * kBufferDraws);
  const __m256i buffer_end =
      _mm256_setr_epi64x(kBufferDraws, 2 * kBufferDraws, 3 * kBufferDraws,
                         4 * kBufferDraws);

  const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d sign = _mm256_set1_pd(-0.0);  // for y = -bd
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d sixth = _mm256_set1_pd(1.0 / 6.0);
  const __m256d reject_margin = _mm256_set1_pd(1.0 + 1e-12);
  const __m256d accept_margin = _mm256_set1_pd(1.0 - 1e-12);
  const __m256d two = _mm256_set1_pd(2.0);
  // L7's coefficients 1/k!, k = 4..7 (1/2 and 1/6 are above).
  const __m256d c4 = _mm256_set1_pd(1.0 / 24);
  const __m256d c5 = _mm256_set1_pd(1.0 / 120);
  const __m256d c6 = _mm256_set1_pd(1.0 / 720);
  const __m256d c7 = _mm256_set1_pd(1.0 / 5040);
  alignas(32) double lane_u[kSweepLanes];
  alignas(32) double lane_bd[kSweepLanes];
  alignas(32) int64_t cursor[kSweepLanes];

  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const __m256d b = _mm256_set1_pd(beta.At(sweep, sweeps));
    for (int i = 0; i < n; ++i) {
      const __m256d spin = LoadSpins(s, i);
      // change = -2 s_i; delta = change * field[i], as in the scalar loop.
      const __m256d change = _mm256_mul_pd(minus_two, spin);
      const __m256d delta =
          _mm256_mul_pd(change, _mm256_load_pd(field + kSweepLanes * i));
      // The decision runs without a branch on the lanes' outcomes (they
      // mispredict): lanes that are not uphill take no uniform and are
      // masked out of both screens, and a spin that flips in no lane adds
      // +0.0 to its neighbors' fields.
      const __m256d down = _mm256_cmp_pd(delta, zero, _CMP_LE_OQ);
      // Uphill (or NaN) lanes take their next uniform.
      const __m256d up = _mm256_xor_pd(down, all);
      const __m256d u = _mm256_mask_i64gather_pd(zero, buffer, next, up, 8);
      next = _mm256_sub_epi64(next, _mm256_castpd_si256(up));
      const __m256i spent = _mm256_cmpeq_epi64(next, buffer_end);
      if (!_mm256_testz_si256(spent, spent)) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(cursor), next);
        for (int l = 0; l < kSweepLanes; ++l) {
          if (cursor[l] != (l + 1) * kBufferDraws) continue;
          rngs[l].FillUniform01(buffer + l * kBufferDraws, kBufferDraws);
          cursor[l] = l * kBufferDraws;
        }
        next = _mm256_load_si256(reinterpret_cast<const __m256i*>(cursor));
      }
      // MetropolisAccept's reject screen, then its accept screen.
      const __m256d bd = _mm256_mul_pd(b, delta);
      const __m256d p = _mm256_add_pd(
          one,
          _mm256_mul_pd(
              bd, _mm256_add_pd(
                      one, _mm256_mul_pd(
                               bd, _mm256_add_pd(
                                       half, _mm256_mul_pd(bd, sixth))))));
      const __m256d reject =
          _mm256_cmp_pd(_mm256_mul_pd(u, p), reject_margin, _CMP_GE_OQ);
      const __m256d open = _mm256_andnot_pd(reject, up);
      const __m256d y = _mm256_xor_pd(bd, sign);
      __m256d l7 = _mm256_add_pd(c6, _mm256_mul_pd(y, c7));
      l7 = _mm256_add_pd(c5, _mm256_mul_pd(y, l7));
      l7 = _mm256_add_pd(c4, _mm256_mul_pd(y, l7));
      l7 = _mm256_add_pd(sixth, _mm256_mul_pd(y, l7));
      l7 = _mm256_add_pd(half, _mm256_mul_pd(y, l7));
      l7 = _mm256_add_pd(one, _mm256_mul_pd(y, l7));
      l7 = _mm256_add_pd(one, _mm256_mul_pd(y, l7));
      const __m256d sure = _mm256_and_pd(
          _mm256_cmp_pd(bd, two, _CMP_LE_OQ),
          _mm256_cmp_pd(u, _mm256_mul_pd(l7, accept_margin), _CMP_LT_OQ));
      __m256d accept = _mm256_or_pd(down, _mm256_and_pd(open, sure));
      const int unsettled = _mm256_movemask_pd(_mm256_andnot_pd(sure, open));
      if (unsettled != 0) {
        _mm256_store_pd(lane_u, u);
        _mm256_store_pd(lane_bd, bd);
        int exp_accepts = 0;
        for (int l = 0; l < kSweepLanes; ++l) {
          if ((unsettled >> l & 1) && lane_u[l] < std::exp(-lane_bd[l])) {
            exp_accepts |= 1 << l;
          }
        }
        const __m256i bits =
            _mm256_and_si256(_mm256_set1_epi64x(exp_accepts), lane_bit);
        accept = _mm256_or_pd(
            accept, _mm256_castsi256_pd(_mm256_cmpeq_epi64(bits, lane_bit)));
      }
      const uint32_t flips = static_cast<uint32_t>(_mm256_movemask_pd(accept));
      // Flip the accepted lanes' int8 spins: 0x01 ^ 0xFE = 0xFF (-1) and
      // back. The multiply spreads bit l of `flips` to bit 8l.
      uint32_t packed;
      std::memcpy(&packed, s + kSweepLanes * i, sizeof(packed));
      packed ^= ((flips * 0x204081u) & 0x01010101u) * 0xFEu;
      std::memcpy(s + kSweepLanes * i, &packed, sizeof(packed));
      for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
        double* f_j = field + kSweepLanes * ids[e];
        const __m256d step = _mm256_and_pd(
            _mm256_mul_pd(_mm256_set1_pd(weights[e]), change), accept);
        _mm256_store_pd(f_j, _mm256_add_pd(_mm256_load_pd(f_j), step));
      }
    }
  }

  for (int i = 0; i < n; ++i) {
    for (int l = 0; l < kSweepLanes; ++l) {
      spins[l][static_cast<size_t>(i)] = s[kSweepLanes * i + l];
    }
  }
}

#else
void LaneSweeps(const qubo::IsingView&, const Schedule&, int, Rng*,
                std::vector<int8_t>*) {
  std::abort();  // unreachable: util::CpuHasAvx2() is false in this build
}
#endif

}  // namespace anneal
}  // namespace qmqo
