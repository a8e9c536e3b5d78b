// The lane kernel (anneal/sweep_lanes.h) at eight reads per AVX-512 vector
// of doubles. Compares write mask registers, and the field update is a
// masked add.

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

// Everything below is compiled for AVX-512F, with no multiply-add fused
// (AVX-512F has FMA instructions, so the compiler would fuse otherwise).
// The headers above come first so that none of their inline functions is.
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx512f"))), \
                             apply_to = function)
#pragma clang fp contract(off)
#else
#pragma GCC target("avx512f")
#pragma GCC optimize("fp-contract=off")
#endif

#include "anneal/sweep_lanes.h"

namespace qmqo {
namespace anneal {
namespace {

struct Avx512Lanes {
  static constexpr int kWidth = kAvx512Lanes;
  using V = __m512d;
  using M = __mmask8;
  using I = __m512i;

  static V Set1(double x) { return _mm512_set1_pd(x); }
  static V Load(const double* p) { return _mm512_load_pd(p); }
  static void Store(double* p, V v) { _mm512_store_pd(p, v); }
  static V Add(V a, V b) { return _mm512_add_pd(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V MaskedAdd(V f, M m, V step) {
    return _mm512_mask_add_pd(f, m, f, step);
  }

  static M Le(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
  static M Lt(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static M And(M a, M b) { return static_cast<M>(a & b); }
  static M Or(M a, M b) { return static_cast<M>(a | b); }
  static M AndNot(M a, M b) { return static_cast<M>(~a & b); }
  static uint32_t Bits(M m) { return m; }
  static M FromBits(uint32_t bits) { return static_cast<M>(bits); }

  /// The masked gather with every lane set is the plain gather; GCC 12
  /// warns (-Wmaybe-uninitialized) on the unmasked intrinsic.
  static V Gather(const double* base, I index) {
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), static_cast<M>(0xFF),
                                    index, base, 8);
  }
  static I Advance(I index, M m) {
    return _mm512_mask_add_epi64(index, m, index, _mm512_set1_epi64(1));
  }
  static bool AnyEqual(I a, I b) { return _mm512_cmpeq_epi64_mask(a, b) != 0; }
  static I LoadI(const int64_t* p) { return _mm512_load_si512(p); }
  static void StoreI(int64_t* p, I v) { _mm512_store_si512(p, v); }
};

}  // namespace

void NegLogAvx512(const double* u, int count, double* t) {
  NegLogUniforms<kAvx512Lanes>(u, count, t);
}

void LaneSweepsAvx512(const qubo::IsingView& ising, const Schedule& beta,
                      int sweeps, int count, Rng* rngs,
                      std::vector<int8_t>* spins) {
  LaneKernel<Avx512Lanes>(ising, beta, sweeps, count, rngs, spins);
}

}  // namespace anneal
}  // namespace qmqo

#if defined(__clang__)
#pragma clang attribute pop
#endif

#endif  // QMQO_AVX2_PATHS
