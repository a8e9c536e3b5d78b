#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "util/cpu.h"

// No multiply-add is fused in this file, whatever the build's flags: the
// conversion needs none fused, and `Rng::Gaussian` must give the values
// of the standard library's normal distribution built without FMA.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace qmqo {

namespace {

constexpr size_t kWords = 312;  // MT19937-64's state size n
constexpr size_t kShift = 156;  // and its middle word offset m.
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the upper bit of `a` joined to the lower 31 of `b`,
/// shifted and conditionally XORed with the matrix — branch-free.
inline uint64_t TwistMix(uint64_t a, uint64_t b) {
  const uint64_t y = (a & kUpperMask) | (b & kLowerMask);
  return (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

#ifdef QMQO_AVX2_PATHS

/// W 64-bit words, and W doubles, in one vector register. The bodies below
/// use only operators on these GCC/Clang vector types, so each compiles to
/// the instructions of the target-specific function it is inlined into:
/// four words per AVX2 vector, eight per AVX-512 vector.
template <int W>
struct WordVector {
  typedef uint64_t Words __attribute__((vector_size(8 * W)));
  typedef double Doubles __attribute__((vector_size(8 * W)));
};

/// W twist steps at once: `state[k + j] = state[far + j] ^
/// TwistMix(state[k + j], state[k + j + 1])` for j < W. All W + 1 words
/// `state[k..k+W]` are loaded before any is stored.
template <int W>
__attribute__((always_inline)) inline void TwistWords(uint64_t* state,
                                                      size_t k, size_t far) {
  using Words = typename WordVector<W>::Words;
  Words a;
  Words b;
  Words c;
  std::memcpy(&a, state + k, sizeof(a));
  std::memcpy(&b, state + k + 1, sizeof(b));
  std::memcpy(&c, state + far, sizeof(c));
  const Words y = (a & kUpperMask) | (b & kLowerMask);
  c ^= (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  std::memcpy(state + k, &c, sizeof(c));
}

/// `Mt19937_64::Twist` of `kWords` words, W at a time, with the words that
/// do not fill a vector (and the last one, which wraps to word 0) one by
/// one.
template <int W>
__attribute__((always_inline)) inline void TwistVector(uint64_t* state) {
  constexpr size_t kMid = kWords - kShift;  // where k + m wraps
  constexpr size_t kHead = kMid / W * W;
  constexpr size_t kTail = kMid + (kWords - 1 - kMid) / W * W;
  for (size_t k = 0; k < kHead; k += W) TwistWords<W>(state, k, k + kShift);
  for (size_t k = kHead; k < kMid; ++k) {
    state[k] = state[k + kShift] ^ TwistMix(state[k], state[k + 1]);
  }
  for (size_t k = kMid; k < kTail; k += W) TwistWords<W>(state, k, k - kMid);
  for (size_t k = kTail; k < kWords - 1; ++k) {
    state[k] = state[k - kMid] ^ TwistMix(state[k], state[k + 1]);
  }
  state[kWords - 1] =
      state[kShift - 1] ^ TwistMix(state[kWords - 1], state[0]);
}

/// `Mt19937_64::TemperUnitUniform` W words at a time. Each 32-bit half of
/// a tempered word becomes a double exactly by the magic-number trick:
/// OR-ed into the mantissa of 2⁵² it reads 2⁵² + lo, and OR-ed into the
/// mantissa of 2⁸⁴ it reads 2⁸⁴ + hi·2³². Subtracting 2⁸⁴ + 2⁵² from the
/// second is exact (the result, hi·2³² - 2⁵², is a multiple of 2³² below
/// 2⁶⁴), so adding the first gives hi·2³² + lo rounded once:
/// `UnitUniform`'s one rounding. The scale by 2⁻⁶⁴ and the clamp are
/// exact, and no product feeds an add, so no fused multiply-add can
/// change a value.
template <int W>
__attribute__((always_inline)) inline void TemperUnitVector(
    const uint64_t* words, size_t count, double* out) {
  using Words = typename WordVector<W>::Words;
  using Doubles = typename WordVector<W>::Doubles;
  const Doubles below_one = Doubles{} + 0x1.fffffffffffffp-1;
  size_t k = 0;
  for (; k + W <= count; k += W) {
    Words z;
    std::memcpy(&z, words + k, sizeof(z));
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    const Doubles lo =
        reinterpret_cast<Doubles>((z & 0xffffffffULL) | 0x4330000000000000ULL);
    const Doubles hi =
        reinterpret_cast<Doubles>((z >> 32) | 0x4530000000000000ULL);
    const Doubles u = ((hi - (0x1.0p84 + 0x1.0p52)) + lo) * 0x1.0p-64;
    const Doubles clamped = below_one < u ? below_one : u;
    std::memcpy(out + k, &clamped, sizeof(clamped));
  }
  for (; k < count; ++k) out[k] = UnitUniform(Mt19937_64::Temper(words[k]));
}

__attribute__((target("avx2"))) void TwistAvx2(uint64_t* state) {
  TwistVector<4>(state);
}
__attribute__((target("avx512f"))) void TwistAvx512(uint64_t* state) {
  TwistVector<8>(state);
}
__attribute__((target("avx2"))) void TemperUnitAvx2(const uint64_t* words,
                                                   size_t count, double* out) {
  TemperUnitVector<4>(words, count, out);
}
__attribute__((target("avx512f"))) void TemperUnitAvx512(
    const uint64_t* words, size_t count, double* out) {
  TemperUnitVector<8>(words, count, out);
}

#endif  // QMQO_AVX2_PATHS

}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) : index_(kStateWords) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateWords; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  constexpr size_t n = kStateWords;
  static_assert(n == kWords, "the vector twist's word count");
  index_ = 0;
#ifdef QMQO_AVX2_PATHS
  switch (util::CpuVectorIsa()) {
    case util::VectorIsa::kAvx512:
      TwistAvx512(state_);
      return;
    case util::VectorIsa::kAvx2:
      TwistAvx2(state_);
      return;
    case util::VectorIsa::kNone:
      break;
  }
#endif
  // Split where k + m wraps past the end, as in the reference algorithm.
  // Neither of the first two loops carries a dependence between
  // iterations, so both vectorize.
  for (size_t k = 0; k < n - kShift; ++k) {
    state_[k] = state_[k + kShift] ^ TwistMix(state_[k], state_[k + 1]);
  }
  for (size_t k = n - kShift; k < n - 1; ++k) {
    state_[k] = state_[k + kShift - n] ^ TwistMix(state_[k], state_[k + 1]);
  }
  state_[n - 1] = state_[kShift - 1] ^ TwistMix(state_[n - 1], state_[0]);
}

void Mt19937_64::TemperUnitUniform(const uint64_t* words, size_t count,
                                   double* out) {
#ifdef QMQO_AVX2_PATHS
  switch (util::CpuVectorIsa()) {
    case util::VectorIsa::kAvx512:
      TemperUnitAvx512(words, count, out);
      return;
    case util::VectorIsa::kAvx2:
      TemperUnitAvx2(words, count, out);
      return;
    case util::VectorIsa::kNone:
      break;
  }
#endif
  for (size_t k = 0; k < count; ++k) out[k] = UnitUniform(Temper(words[k]));
}

void Mt19937_64::FillUnitUniform(double* out, size_t count) {
  while (count > 0) {
    if (index_ >= kStateWords) Twist();
    const size_t take = std::min(count, kStateWords - index_);
    TemperUnitUniform(state_ + index_, take, out);
    index_ += take;
    out += take;
    count -= take;
  }
}

uint64_t Rng::Scramble(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Rng::Gaussian(double mean, double stddev) {
  // Marsaglia's polar method as libstdc++ writes it. A fresh distribution
  // per call keeps no saved value, so the pair's other value is dropped.
  double x;
  double y;
  double r2;
  do {
    x = 2.0 * UnitUniform(engine_()) - 1.0;
    y = 2.0 * UnitUniform(engine_()) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2 * std::log(r2) / r2);
  return y * mult * stddev + mean;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int count) {
  if (count >= n) {
    std::vector<int> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  // Partial Fisher-Yates over an index pool.
  std::vector<int> pool(static_cast<size_t>(n));
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<int> picked;
  picked.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    int j = UniformInt(i, n - 1);
    std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
    picked.push_back(pool[static_cast<size_t>(i)]);
  }
  return picked;
}

}  // namespace qmqo
