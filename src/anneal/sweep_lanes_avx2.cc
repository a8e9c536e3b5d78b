// The lane kernel (anneal/sweep_lanes.h) at four reads per AVX2 vector of
// doubles. Lane masks are vectors of all-ones or all-zero doubles.

#include "util/cpu.h"

#ifdef QMQO_AVX2_PATHS

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "anneal/schedule.h"
#include "anneal/sweep_kernel.h"
#include "qubo/ising.h"
#include "util/rng.h"

// Everything below is compiled for AVX2, with no multiply-add fused. The
// headers above come first so that none of their inline functions is.
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
#pragma clang fp contract(off)
#else
#pragma GCC target("avx2")
#pragma GCC optimize("fp-contract=off")
#endif

#include "anneal/sweep_lanes.h"

namespace qmqo {
namespace anneal {
namespace {

struct Avx2Lanes {
  static constexpr int kWidth = kAvx2Lanes;
  using V = __m256d;
  using M = __m256d;
  using I = __m256i;

  static V Set1(double x) { return _mm256_set1_pd(x); }
  static V Load(const double* p) { return _mm256_load_pd(p); }
  static void Store(double* p, V v) { _mm256_store_pd(p, v); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  /// The step masked to +0.0 in the other lanes: a vector add has no mask.
  static V MaskedAdd(V f, M m, V step) {
    return _mm256_add_pd(f, _mm256_and_pd(step, m));
  }

  static M Le(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static M Lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static M And(M a, M b) { return _mm256_and_pd(a, b); }
  static M Or(M a, M b) { return _mm256_or_pd(a, b); }
  static M AndNot(M a, M b) { return _mm256_andnot_pd(a, b); }
  static uint32_t Bits(M m) {
    return static_cast<uint32_t>(_mm256_movemask_pd(m));
  }
  static M FromBits(uint32_t bits) {
    const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256i set = _mm256_and_si256(
        _mm256_set1_epi64x(static_cast<int64_t>(bits)), lane_bit);
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(set, lane_bit));
  }

  static V Gather(const double* base, I index) {
    return _mm256_i64gather_pd(base, index, 8);
  }
  /// A mask lane is -1 as an int64, so subtracting it adds one.
  static I Advance(I index, M m) {
    return _mm256_sub_epi64(index, _mm256_castpd_si256(m));
  }
  static bool AnyEqual(I a, I b) {
    const __m256i equal = _mm256_cmpeq_epi64(a, b);
    return !_mm256_testz_si256(equal, equal);
  }
  static I LoadI(const int64_t* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void StoreI(int64_t* p, I v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
};

}  // namespace

void NegLogAvx2(const double* u, int count, double* t) {
  NegLogUniforms<kAvx2Lanes>(u, count, t);
}

void LaneSweepsAvx2(const qubo::IsingView& ising, const Schedule& beta,
                    int sweeps, int count, Rng* rngs,
                    std::vector<int8_t>* spins) {
  LaneKernel<Avx2Lanes>(ising, beta, sweeps, count, rngs, spins);
}

}  // namespace anneal
}  // namespace qmqo

#if defined(__clang__)
#pragma clang attribute pop
#endif

#endif  // QMQO_AVX2_PATHS
