#ifndef QMQO_UTIL_CPU_H_
#define QMQO_UTIL_CPU_H_

/// \file cpu.h
/// The one runtime CPU-feature check. It picks the width of the SA sweep's
/// lanes (anneal/sweep_lanes.h: eight reads per AVX-512 vector, four per
/// AVX2 vector, else the scalar loop) and the vector twist and fill of the
/// uniform stream (util/rng.cc). Every path gives exactly the values of
/// the scalar code.

/// Defined when the AVX2 and AVX-512 paths are compiled: x86-64 with GCC
/// or Clang, which provide `__attribute__((target(...)))`, `#pragma GCC
/// target` and the intrinsics.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QMQO_AVX2_PATHS 1
#endif

namespace qmqo {
namespace util {

/// The vector extensions the library's vector paths use, narrowest first.
enum class VectorIsa { kNone, kAvx2, kAvx512 };

/// The widest `VectorIsa` that is compiled into this build and that this
/// CPU (and its OS) supports. `kAvx512` means AVX-512F and AVX2. Checked
/// once per process.
inline VectorIsa CpuVectorIsa() {
#ifdef QMQO_AVX2_PATHS
  static const VectorIsa isa = [] {
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx2")) return VectorIsa::kNone;
    return __builtin_cpu_supports("avx512f") ? VectorIsa::kAvx512
                                             : VectorIsa::kAvx2;
  }();
  return isa;
#else
  return VectorIsa::kNone;
#endif
}

}  // namespace util
}  // namespace qmqo

#endif  // QMQO_UTIL_CPU_H_
