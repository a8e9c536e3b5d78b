#ifndef QMQO_ANNEAL_PACKED_H_
#define QMQO_ANNEAL_PACKED_H_

/// \file packed.h
/// Pooled bit-packed assignment storage for annealing results.
///
/// The paper's workflow keeps thousands of reads per annealer call to pick
/// minimum-energy plan selections; storing each read as its own
/// `std::vector<uint8_t>` costs one heap allocation plus a full byte per
/// spin. `PackedAssignments` is the arena that replaces that: every
/// assignment lives in one contiguous buffer at 64 spins per `uint64_t`
/// word, so a retained sample costs `ceil(n/64)` words and zero extra
/// allocations, and `raw_reads` at paper scale (1000 reads x 1152 qubits)
/// drops from ~1.2 MB of scattered vectors to ~144 KB of flat words.
///
/// Canonical form: bits past `num_bits` in the last word of an assignment
/// are always zero. Every mutator maintains this, which is what makes
/// equality a straight word compare and ordering a single
/// find-first-differing-bit scan.
///
/// Ordering contract: `AssignmentRef` comparisons reproduce the
/// lexicographic order of the unpacked `std::vector<uint8_t>`
/// representation exactly (bit 0 is the most significant position, as in
/// byte-vector `operator<`). The `SampleSet` sort order — and therefore
/// the bit-identical-results contract of the parallel read engine — is
/// defined in terms of that byte order, so the agreement is load-bearing
/// and pinned by `tests/packed_test.cc`.

#include <cstdint>
#include <cstring>
#include <vector>

namespace qmqo {
namespace anneal {

/// Number of 64-bit words needed for `num_bits` bits.
inline int PackedWordsForBits(int num_bits) {
  return (num_bits + 63) / 64;
}

/// Packs `n` 0/1 bytes into words, bit i of the assignment at bit (i % 64)
/// of word (i / 64). `out` must hold `PackedWordsForBits(n)` words; tail
/// bits are zeroed (canonical form).
void PackBytes(const uint8_t* bytes, int n, uint64_t* out);

/// Packs `n` ±1 spins (int8_t) into words: −1 -> 0, +1 -> 1 — the fused
/// `SpinsToAssignment` + `PackBytes`, so sampler read-out appends packed
/// words without materializing a byte vector. Tail bits are zeroed.
void PackSpins(const int8_t* spins, int n, uint64_t* out);

/// Unpacks `n` bits into 0/1 bytes.
void UnpackBytes(const uint64_t* words, int n, uint8_t* out);

/// Unpacks `n` bits into ±1 spins (0 -> −1, 1 -> +1).
void UnpackSpins(const uint64_t* words, int n, int8_t* out);

/// A non-owning view of one packed assignment (`num_bits` bits starting at
/// `words`). Views are invalidated by any mutation of the owning
/// `PackedAssignments` (the arena may reallocate), exactly like vector
/// iterators.
class AssignmentRef {
 public:
  AssignmentRef() = default;
  AssignmentRef(const uint64_t* words, int num_bits)
      : words_(words), num_bits_(num_bits) {}

  int num_bits() const { return num_bits_; }
  int num_words() const { return PackedWordsForBits(num_bits_); }
  const uint64_t* words() const { return words_; }

  /// Bit i as 0/1.
  uint8_t bit(int i) const {
    return static_cast<uint8_t>((words_[i / 64] >> (i % 64)) & 1u);
  }

  /// Number of set bits (selected QUBO variables).
  int PopCount() const;

  std::vector<uint8_t> ToBytes() const;
  std::vector<int8_t> ToSpins() const;

  /// Allocation-reusing unpack: resizes `out` to `num_bits()` entries.
  /// The read-out loops that unpack thousands of reads reuse one buffer.
  void CopyBytesTo(std::vector<uint8_t>* out) const;
  void CopySpinsTo(std::vector<int8_t>* out) const;

  /// Three-way comparison in unpacked-byte lexicographic order: negative /
  /// zero / positive like memcmp. Requires equal `num_bits` (all
  /// assignments of one sampler call share the problem size); word-wise
  /// scan + count-trailing-zeros on the first differing word.
  int Compare(const AssignmentRef& other) const;

  friend bool operator==(const AssignmentRef& a, const AssignmentRef& b) {
    // The zero-width guard keeps memcmp away from the null `words_` of
    // default-constructed refs (UB even at length 0).
    return a.num_bits_ == b.num_bits_ &&
           (a.num_bits_ == 0 ||
            std::memcmp(a.words_, b.words_,
                        sizeof(uint64_t) *
                            static_cast<size_t>(a.num_words())) == 0);
  }
  friend bool operator!=(const AssignmentRef& a, const AssignmentRef& b) {
    return !(a == b);
  }
  friend bool operator<(const AssignmentRef& a, const AssignmentRef& b) {
    return a.Compare(b) < 0;
  }

 private:
  const uint64_t* words_ = nullptr;
  int num_bits_ = 0;
};

/// The arena: a flat `uint64_t` buffer holding `size()` equally-sized
/// packed assignments. Appends grow geometrically like a vector; slots are
/// stable indices (never invalidated), views are not.
class PackedAssignments {
 public:
  PackedAssignments() = default;
  explicit PackedAssignments(int num_bits) { Reset(num_bits); }

  /// Clears the pool and fixes the per-assignment width. `num_bits == 0`
  /// returns the pool to the unset state (the next append fixes it).
  void Reset(int num_bits);

  /// Bits per assignment; 0 until the first append fixes it.
  int num_bits() const { return num_bits_; }
  int words_per_assignment() const { return words_per_; }

  /// Number of stored assignments.
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends from 0/1 bytes; returns the new slot index. The first append
  /// to an unset pool fixes `num_bits`; later appends must match it.
  int AppendBytes(const uint8_t* bytes, int n);
  int AppendBytes(const std::vector<uint8_t>& bytes) {
    return AppendBytes(bytes.data(), static_cast<int>(bytes.size()));
  }

  /// Appends from ±1 spins (the sampler read-out path: no byte staging).
  int AppendSpins(const int8_t* spins, int n);
  int AppendSpins(const std::vector<int8_t>& spins) {
    return AppendSpins(spins.data(), static_cast<int>(spins.size()));
  }

  /// Appends `words_per_assignment()` canonical words (tail bits zero) —
  /// the word-wise copy path used when moving assignments between pools.
  int AppendWords(const uint64_t* words);

  /// Copies slot `slot` of `other` into this pool (word-wise).
  int AppendFrom(const PackedAssignments& other, int slot) {
    return AppendWords(other.word_ptr(slot));
  }

  /// Appends every assignment of `other` (one flat word copy); returns the
  /// slot the first appended assignment received. Widths must agree; an
  /// unset pool adopts `other`'s width.
  int AppendAll(const PackedAssignments& other);

  /// Grows the pool to exactly `size` zero-filled slots (requires a fixed
  /// width, i.e. a prior `Reset(num_bits)` with positive bits). Slots can
  /// then be written out of order with `StoreBytes`/`StoreSpins` — the
  /// chronological-`raw_reads` path of the parallel read engine, where each
  /// worker fills its own disjoint slots with no appends (and therefore no
  /// reallocation) racing the others.
  void Resize(int size);

  /// Drops every slot at index >= `size` (keeps the width). The
  /// `max_samples` truncation path: retained slots are contiguous from 0.
  void Truncate(int size);

  /// Removes every slot whose `erase` flag is nonzero (`erase.size() ==
  /// size()`), keeping the others in order — the serial compaction of the
  /// device's per-read `raw_reads` slots after dropped reads.
  void EraseSlots(const std::vector<uint8_t>& erase);

  /// Overwrites slot `slot` in place (tail bits re-zeroed).
  void StoreBytes(int slot, const uint8_t* bytes, int n);
  void StoreSpins(int slot, const int8_t* spins, int n);
  void StoreSpins(int slot, const std::vector<int8_t>& spins) {
    StoreSpins(slot, spins.data(), static_cast<int>(spins.size()));
  }

  /// View of one slot. Invalidated by the next append/Reset.
  AssignmentRef operator[](int slot) const {
    return AssignmentRef(word_ptr(slot), num_bits_);
  }

  std::vector<uint8_t> ToBytes(int slot) const {
    return (*this)[slot].ToBytes();
  }

  /// Forward iteration over slots as `AssignmentRef` views (for range-for
  /// over e.g. `DeviceResult::raw_reads`). Invalidated like any view.
  class const_iterator {
   public:
    const_iterator(const PackedAssignments* pool, int slot)
        : pool_(pool), slot_(slot) {}
    AssignmentRef operator*() const { return (*pool_)[slot_]; }
    const_iterator& operator++() {
      ++slot_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.slot_ == b.slot_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.slot_ != b.slot_;
    }

   private:
    const PackedAssignments* pool_;
    int slot_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  /// Heap bytes held by the word buffer (capacity, not size — the number
  /// the bench's `bytes_per_sample` accounting reports).
  size_t memory_bytes() const { return words_.capacity() * sizeof(uint64_t); }

  /// Reserves room for `assignments` total assignments (no-op while the
  /// width is unset). `SampleSet::Finalize` reserves its pre-dedup rebuild
  /// upper bound, then releases whatever dedup/cap-truncation left unused
  /// via `ShrinkToFit` — so finalized arenas carry no growth slack, which
  /// keeps the bench's bytes-per-sample accounting honest
  /// (`memory_bytes()` reports capacity).
  void Reserve(int assignments) {
    words_.reserve(static_cast<size_t>(assignments) *
                   static_cast<size_t>(words_per_));
  }

  /// Releases excess capacity down to `size()` assignments.
  void ShrinkToFit() { words_.shrink_to_fit(); }

  friend bool operator==(const PackedAssignments& a,
                         const PackedAssignments& b) {
    // Empty-pool guard: data() of an empty vector may be null, and null
    // memcmp arguments are UB even at length 0.
    return a.num_bits_ == b.num_bits_ && a.size_ == b.size_ &&
           (a.words_.empty() ||
            std::memcmp(a.words_.data(), b.words_.data(),
                        a.words_.size() * sizeof(uint64_t)) == 0);
  }
  friend bool operator!=(const PackedAssignments& a,
                         const PackedAssignments& b) {
    return !(a == b);
  }

 private:
  const uint64_t* word_ptr(int slot) const {
    return words_.data() +
           static_cast<size_t>(slot) * static_cast<size_t>(words_per_);
  }
  /// Fixes the width on first use (or checks it) and returns the write
  /// pointer for one new zero-initialized slot.
  uint64_t* GrowOne(int n);

  int num_bits_ = 0;
  int words_per_ = 0;
  int size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_PACKED_H_
