#include "anneal/packed.h"

#include <algorithm>
#include <cassert>

namespace qmqo {
namespace anneal {

void PackBytes(const uint8_t* bytes, int n, uint64_t* out) {
  const int words = PackedWordsForBits(n);
  for (int w = 0; w < words; ++w) out[w] = 0;
  for (int base = 0; base < n; base += 64) {
    uint64_t word = 0;
    const int limit = n - base < 64 ? n - base : 64;
    for (int bit = 0; bit < limit; ++bit) {
      // Assignments are 0/1 bytes; any nonzero byte packs as a set bit, so
      // the packed form canonicalizes what the byte form left implicit.
      word |= static_cast<uint64_t>(bytes[base + bit] != 0) << bit;
    }
    out[base / 64] = word;
  }
}

void PackSpins(const int8_t* spins, int n, uint64_t* out) {
  const int words = PackedWordsForBits(n);
  for (int w = 0; w < words; ++w) out[w] = 0;
  for (int base = 0; base < n; base += 64) {
    uint64_t word = 0;
    const int limit = n - base < 64 ? n - base : 64;
    for (int bit = 0; bit < limit; ++bit) {
      word |= static_cast<uint64_t>(spins[base + bit] > 0) << bit;
    }
    out[base / 64] = word;
  }
}

void UnpackBytes(const uint64_t* words, int n, uint8_t* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>((words[i / 64] >> (i % 64)) & 1u);
  }
}

void UnpackSpins(const uint64_t* words, int n, int8_t* out) {
  for (int i = 0; i < n; ++i) {
    out[i] = (words[i / 64] >> (i % 64)) & 1u ? int8_t{1} : int8_t{-1};
  }
}

int AssignmentRef::PopCount() const {
  int count = 0;
  const int words = num_words();
  for (int w = 0; w < words; ++w) {
    count += __builtin_popcountll(words_[w]);
  }
  return count;
}

std::vector<uint8_t> AssignmentRef::ToBytes() const {
  std::vector<uint8_t> out(static_cast<size_t>(num_bits_));
  UnpackBytes(words_, num_bits_, out.data());
  return out;
}

std::vector<int8_t> AssignmentRef::ToSpins() const {
  std::vector<int8_t> out(static_cast<size_t>(num_bits_));
  UnpackSpins(words_, num_bits_, out.data());
  return out;
}

void AssignmentRef::CopyBytesTo(std::vector<uint8_t>* out) const {
  out->resize(static_cast<size_t>(num_bits_));
  UnpackBytes(words_, num_bits_, out->data());
}

void AssignmentRef::CopySpinsTo(std::vector<int8_t>* out) const {
  out->resize(static_cast<size_t>(num_bits_));
  UnpackSpins(words_, num_bits_, out->data());
}

int AssignmentRef::Compare(const AssignmentRef& other) const {
  assert(num_bits_ == other.num_bits_);
  const int words = num_words();
  for (int w = 0; w < words; ++w) {
    const uint64_t diff = words_[w] ^ other.words_[w];
    if (diff == 0) continue;
    // The lowest differing bit is the earliest differing byte position;
    // whichever side has it set holds byte 1 > 0 there.
    const int bit = __builtin_ctzll(diff);
    return (words_[w] >> bit) & 1u ? 1 : -1;
  }
  return 0;
}

void PackedAssignments::Reset(int num_bits) {
  assert(num_bits >= 0);
  num_bits_ = num_bits;
  words_per_ = num_bits > 0 ? PackedWordsForBits(num_bits) : 0;
  size_ = 0;
  words_.clear();
}

uint64_t* PackedAssignments::GrowOne(int n) {
  assert(n > 0);
  if (num_bits_ == 0) {
    Reset(n);
  } else {
    assert(n == num_bits_ && "all assignments in a pool share one width");
  }
  words_.resize(words_.size() + static_cast<size_t>(words_per_));
  const int slot = size_++;
  return words_.data() +
         static_cast<size_t>(slot) * static_cast<size_t>(words_per_);
}

int PackedAssignments::AppendBytes(const uint8_t* bytes, int n) {
  PackBytes(bytes, n, GrowOne(n));
  return size_ - 1;
}

int PackedAssignments::AppendSpins(const int8_t* spins, int n) {
  PackSpins(spins, n, GrowOne(n));
  return size_ - 1;
}

int PackedAssignments::AppendWords(const uint64_t* words) {
  assert(num_bits_ > 0);
  uint64_t* dst = GrowOne(num_bits_);
  std::memcpy(dst, words, sizeof(uint64_t) * static_cast<size_t>(words_per_));
  return size_ - 1;
}

int PackedAssignments::AppendAll(const PackedAssignments& other) {
  if (other.size_ == 0) return size_;
  if (num_bits_ == 0) {
    Reset(other.num_bits_);
  } else {
    assert(num_bits_ == other.num_bits_ &&
           "pools being combined must share one width");
  }
  const int base = size_;
  words_.insert(words_.end(), other.words_.begin(), other.words_.end());
  size_ += other.size_;
  return base;
}

void PackedAssignments::Truncate(int size) {
  assert(size >= 0 && size <= size_);
  words_.resize(static_cast<size_t>(size) * static_cast<size_t>(words_per_));
  size_ = size;
}

void PackedAssignments::EraseSlots(const std::vector<uint8_t>& erase) {
  assert(static_cast<int>(erase.size()) == size_);
  const size_t width = static_cast<size_t>(words_per_);
  int kept = 0;
  for (int slot = 0; slot < size_; ++slot) {
    if (erase[static_cast<size_t>(slot)] != 0) continue;
    if (kept != slot) {
      std::copy_n(words_.data() + static_cast<size_t>(slot) * width, width,
                  words_.data() + static_cast<size_t>(kept) * width);
    }
    ++kept;
  }
  Truncate(kept);
}

void PackedAssignments::Resize(int size) {
  assert(size >= 0);
  assert(num_bits_ > 0 && "Resize requires a fixed width (Reset first)");
  words_.resize(static_cast<size_t>(size) * static_cast<size_t>(words_per_),
                0);
  size_ = size;
}

void PackedAssignments::StoreBytes(int slot, const uint8_t* bytes, int n) {
  assert(slot >= 0 && slot < size_);
  assert(n == num_bits_);
  PackBytes(bytes, n,
            words_.data() +
                static_cast<size_t>(slot) * static_cast<size_t>(words_per_));
}

void PackedAssignments::StoreSpins(int slot, const int8_t* spins, int n) {
  assert(slot >= 0 && slot < size_);
  assert(n == num_bits_);
  PackSpins(spins, n,
            words_.data() +
                static_cast<size_t>(slot) * static_cast<size_t>(words_per_));
}

}  // namespace anneal
}  // namespace qmqo
