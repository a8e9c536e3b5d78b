#ifndef QMQO_UTIL_CPU_H_
#define QMQO_UTIL_CPU_H_

/// \file cpu.h
/// The one runtime CPU-feature check: AVX2 picks the SA sweep's lanes
/// (anneal/sweep_lanes.cc), which give exactly the spins of the scalar
/// loop.

/// Defined when the AVX2 paths are compiled: x86-64 with GCC or Clang,
/// which provide `__attribute__((target("avx2")))` and the intrinsics.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QMQO_AVX2_PATHS 1
#endif

namespace qmqo {
namespace util {

/// True when the AVX2 paths are compiled and this CPU supports AVX2.
/// Checked once per process.
inline bool CpuHasAvx2() {
#ifdef QMQO_AVX2_PATHS
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace util
}  // namespace qmqo

#endif  // QMQO_UTIL_CPU_H_
