#ifndef QMQO_UTIL_RNG_H_
#define QMQO_UTIL_RNG_H_

/// \file rng.h
/// Deterministic pseudo-random number generation.
///
/// All randomized components of the library (workload generators, annealers,
/// genetic algorithm, ...) take an explicit `Rng*` so that every experiment
/// is reproducible from a single seed. `Rng::Fork` derives independent child
/// streams, which keeps parallel or per-restart randomness decoupled from the
/// consumption pattern of the parent stream.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace qmqo {

/// 64-bit Mersenne Twister (Matsumoto & Nishimura). Emits exactly the
/// stream of the standard library's MT19937-64 engine for the same seed —
/// same seeding recurrence, twist, and tempering. The twist regenerates
/// all 312 state words at a time, and `FillUnitUniform` tempers and
/// converts a whole block of them; both run eight words per vector
/// register on an AVX-512 CPU and four on an AVX2 CPU (util/cpu.h), else
/// the compiler vectorizes the scalar twist. The per-call path tempers one
/// word per draw, so the state stays 312 words. Satisfies UniformRandomBitGenerator, so std distributions
/// accept it and see the same values they would from the standard engine.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  result_type operator()() {
    if (index_ >= kStateWords) Twist();
    return Temper(state_[index_++]);
  }

  /// Writes the next `count` draws, each mapped by `UnitUniform` (below),
  /// to `out`: exactly what `count` calls of `Rng::UniformReal(0, 1)`
  /// would return, value for value, and the engine ends in the same state.
  /// Runs `TemperUnitUniform` over each block of state words up to the
  /// next twist, with no per-draw twist check.
  void FillUnitUniform(double* out, size_t count);

  /// Writes `UnitUniform(Temper(words[k]))` to `out[k]` for k < count: the
  /// tempering and conversion `FillUnitUniform` runs on a block of state
  /// words, eight or four words per vector on an AVX-512 or AVX2 CPU, with
  /// the same values.
  static void TemperUnitUniform(const uint64_t* words, size_t count,
                                double* out);

  /// MT19937-64's output tempering of one state word.
  static uint64_t Temper(uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr size_t kStateWords = 312;

  /// Regenerates all 312 state words and rewinds the read index.
  void Twist();

  uint64_t state_[kStateWords];
  size_t index_;
};

/// Maps 64 random bits to a double in [0, 1), equal to libstdc++'s
/// `std::generate_canonical<double, 53>` on a 64-bit engine: the correctly
/// rounded `bits · 2⁻⁶⁴`. Each 32-bit half converts to double exactly, so
/// the one add rounds once; a result of 1 (bits near 2⁶⁴) is clamped to
/// the largest double below 1, as the standard library does. Branch-free.
inline double UnitUniform(uint64_t bits) {
  const double hi = static_cast<double>(static_cast<uint32_t>(bits >> 32));
  const double lo = static_cast<double>(static_cast<uint32_t>(bits));
  return std::min((hi * 0x1.0p32 + lo) * 0x1.0p-64, 0x1.fffffffffffffp-1);
}

/// Seedable pseudo-random number generator over a 64-bit Mersenne Twister
/// (`Mt19937_64`); its values match what the same calls on the standard
/// library's MT19937-64 engine with the std distributions return.
class Rng {
 public:
  /// Creates a generator from a 64-bit seed; equal seeds yield equal streams.
  explicit Rng(uint64_t seed) : engine_(Scramble(seed)), seed_(seed) {}

  /// Returns the seed this generator was constructed with.
  uint64_t seed() const { return seed_; }

  /// Returns the next raw 64-bit value.
  uint64_t Next() { return engine_(); }

  /// Returns a uniform integer in the inclusive range [lo, hi].
  int UniformInt(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Returns a uniform 64-bit integer in the inclusive range [lo, hi].
  int64_t UniformInt64(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Returns a uniform double in the half-open range [lo, hi); the same
  /// value `std::uniform_real_distribution<double>(lo, hi)` would draw.
  double UniformReal(double lo, double hi) {
    return UnitUniform(engine_()) * (hi - lo) + lo;
  }

  /// Writes the next `count` values `UniformReal(0, 1)` would return to
  /// `out`, leaving the generator where those calls would.
  void FillUniform01(double* out, size_t count) {
    engine_.FillUnitUniform(out, count);
  }

  /// Returns true with probability `p` (clamped to [0,1]); the same value
  /// `std::bernoulli_distribution(p)` would draw.
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UnitUniform(engine_()) < p;
  }

  /// Returns a normally distributed double: the value a fresh
  /// `std::normal_distribution<double>(mean, stddev)` draws (libstdc++'s
  /// polar method, operation for operation), with no multiply-add fused
  /// on any build, so an FMA build gives the same values.
  double Gaussian(double mean, double stddev);

  /// Uniformly shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt64(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// Picks `count` distinct indices from [0, n) uniformly at random.
  std::vector<int> SampleWithoutReplacement(int n, int count);

  /// Derives an independent child generator; children with distinct `salt`
  /// values are decorrelated from each other and from the parent. Depends
  /// only on the construction seed (not on draws made so far), so forking
  /// is safe from concurrent reader threads and independent of fork order.
  Rng Fork(uint64_t salt) const {
    return Rng(Scramble(seed_ ^ (0x9e3779b97f4a7c15ULL * (salt + 1))));
  }

 private:
  /// splitmix64 finalizer; decorrelates sequential seeds.
  static uint64_t Scramble(uint64_t x);

  Mt19937_64 engine_;
  uint64_t seed_;
};

}  // namespace qmqo

#endif  // QMQO_UTIL_RNG_H_
