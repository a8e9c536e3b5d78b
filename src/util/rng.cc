#include "util/rng.h"

#include <algorithm>
#include <numeric>

namespace qmqo {

namespace {

constexpr size_t kShift = 156;  // MT19937-64's middle word offset m.
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the upper bit of `a` joined to the lower 31 of `b`,
/// shifted and conditionally XORed with the matrix — branch-free.
inline uint64_t TwistMix(uint64_t a, uint64_t b) {
  const uint64_t y = (a & kUpperMask) | (b & kLowerMask);
  return (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

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
  index_ = 0;
}

void Mt19937_64::FillUnitUniform(double* out, size_t count) {
  while (count > 0) {
    if (index_ >= kStateWords) Twist();
    const size_t take = std::min(count, kStateWords - index_);
    const uint64_t* words = state_ + index_;
    for (size_t k = 0; k < take; ++k) out[k] = UnitUniform(Temper(words[k]));
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
