// Property tests for the bit-packed assignment storage (anneal/packed.h)
// and its load-bearing contract: the packed representation must agree with
// the unpacked `std::vector<uint8_t>` representation it replaced — on
// round-trips, on equality, on the lexicographic order that defines
// SampleSet's sort (and therefore the parallel read engine's bit-identical
// results), and on the full sort/dedup/cap/merge pipeline under shuffled
// insertion orders.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "anneal/packed.h"
#include "anneal/sample_set.h"
#include "qubo/ising.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {
namespace {

/// Sizes covering every word-boundary edge from 1 bit to just past 64
/// words, as the ISSUE prescribes: 1..4097 with the ±1 neighborhoods of
/// multiples of 64.
std::vector<int> BoundarySizes() {
  std::vector<int> sizes = {1, 2, 3, 31, 32, 33, 63, 64, 65, 127, 128, 129,
                            191, 192, 193, 1000, 2047, 2048, 2049, 4095,
                            4096, 4097};
  return sizes;
}

std::vector<uint8_t> RandomBytes(int n, Rng* rng) {
  std::vector<uint8_t> out(static_cast<size_t>(n));
  for (auto& b : out) b = rng->Bernoulli(0.5) ? 1 : 0;
  return out;
}

// --------------------------------------------------------------------
// Round-trips
// --------------------------------------------------------------------

TEST(PackedRoundTripTest, BytesSurviveAcrossWordBoundarySizes) {
  Rng rng(1);
  for (int n : BoundarySizes()) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint8_t> bytes = RandomBytes(n, &rng);
      std::vector<uint64_t> words(
          static_cast<size_t>(PackedWordsForBits(n)));
      PackBytes(bytes.data(), n, words.data());
      AssignmentRef ref(words.data(), n);
      EXPECT_EQ(ref.ToBytes(), bytes) << "n=" << n;
      // Per-bit accessor agrees with bulk unpack.
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(ref.bit(i), bytes[static_cast<size_t>(i)])
            << "n=" << n << " bit " << i;
      }
    }
  }
}

TEST(PackedRoundTripTest, SpinsSurviveAcrossWordBoundarySizes) {
  Rng rng(2);
  for (int n : BoundarySizes()) {
    std::vector<int8_t> spins(static_cast<size_t>(n));
    for (auto& s : spins) s = rng.Bernoulli(0.5) ? 1 : -1;
    std::vector<uint64_t> words(static_cast<size_t>(PackedWordsForBits(n)));
    PackSpins(spins.data(), n, words.data());
    AssignmentRef ref(words.data(), n);
    EXPECT_EQ(ref.ToSpins(), spins) << "n=" << n;
    // PackSpins is the fused SpinsToAssignment + PackBytes.
    std::vector<uint64_t> via_bytes(words.size());
    std::vector<uint8_t> bytes = qubo::SpinsToAssignment(spins);
    PackBytes(bytes.data(), n, via_bytes.data());
    EXPECT_EQ(words, via_bytes) << "n=" << n;
  }
}

TEST(PackedRoundTripTest, TailBitsStayCanonicalZero) {
  Rng rng(3);
  for (int n : {1, 63, 65, 100, 129}) {
    std::vector<uint8_t> bytes(static_cast<size_t>(n), 1);  // all ones
    std::vector<uint64_t> words(
        static_cast<size_t>(PackedWordsForBits(n)), ~uint64_t{0});
    PackBytes(bytes.data(), n, words.data());
    if (n % 64 != 0) {
      const uint64_t tail = words.back() >> (n % 64);
      EXPECT_EQ(tail, 0u) << "n=" << n;
    }
    (void)rng;
  }
}

TEST(PackedRoundTripTest, PopCountMatchesByteSum) {
  Rng rng(4);
  for (int n : {1, 64, 65, 1000, 4097}) {
    std::vector<uint8_t> bytes = RandomBytes(n, &rng);
    std::vector<uint64_t> words(static_cast<size_t>(PackedWordsForBits(n)));
    PackBytes(bytes.data(), n, words.data());
    int expected = 0;
    for (uint8_t b : bytes) expected += b;
    EXPECT_EQ(AssignmentRef(words.data(), n).PopCount(), expected)
        << "n=" << n;
  }
}

// --------------------------------------------------------------------
// Equality / ordering agreement with the byte representation
// --------------------------------------------------------------------

TEST(PackedOrderingTest, CompareAgreesWithByteLexOrder) {
  Rng rng(5);
  for (int n : BoundarySizes()) {
    PackedAssignments pool(n);
    std::vector<std::vector<uint8_t>> bytes;
    for (int i = 0; i < 24; ++i) {
      std::vector<uint8_t> b = RandomBytes(n, &rng);
      // Half the pairs share a long prefix so the tie-break scans into
      // late words (the case word-wise compare gets wrong first).
      if (i % 2 == 1 && n > 1) {
        b = bytes.back();
        const int flip = rng.UniformInt(0, n - 1);
        b[static_cast<size_t>(flip)] ^= 1;
      }
      pool.AppendBytes(b);
      bytes.push_back(std::move(b));
    }
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (size_t j = 0; j < bytes.size(); ++j) {
        const int cmp =
            pool[static_cast<int>(i)].Compare(pool[static_cast<int>(j)]);
        const bool lt = bytes[i] < bytes[j];
        const bool eq = bytes[i] == bytes[j];
        EXPECT_EQ(cmp < 0, lt) << "n=" << n;
        EXPECT_EQ(cmp == 0, eq) << "n=" << n;
        EXPECT_EQ(pool[static_cast<int>(i)] == pool[static_cast<int>(j)],
                  eq)
            << "n=" << n;
        EXPECT_EQ(pool[static_cast<int>(i)] < pool[static_cast<int>(j)], lt)
            << "n=" << n;
      }
    }
  }
}

// --------------------------------------------------------------------
// Arena mechanics
// --------------------------------------------------------------------

TEST(PackedArenaTest, EmptyAndDefaultComparisonsAreDefined) {
  // Default-constructed refs and empty pools have null word storage; the
  // comparisons must not hand those pointers to memcmp (UB the sanitizer
  // jobs would trap). Pinned here so the guard never regresses.
  AssignmentRef a;
  AssignmentRef b;
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a != b);
  PackedAssignments x;
  PackedAssignments y;
  EXPECT_TRUE(x == y);
  PackedAssignments z(8);
  EXPECT_TRUE(x == x);
  std::vector<uint8_t> bytes(8, 1);
  z.AppendBytes(bytes);
  EXPECT_FALSE(x == z);
}

TEST(PackedArenaTest, AppendAllConcatenatesAndAdoptsWidth) {
  Rng rng(6);
  PackedAssignments a(130);
  PackedAssignments b(130);
  std::vector<std::vector<uint8_t>> all;
  for (int i = 0; i < 5; ++i) {
    all.push_back(RandomBytes(130, &rng));
    a.AppendBytes(all.back());
  }
  for (int i = 0; i < 7; ++i) {
    all.push_back(RandomBytes(130, &rng));
    b.AppendBytes(all.back());
  }
  PackedAssignments joined;  // unset width: adopted from the first append
  EXPECT_EQ(joined.AppendAll(a), 0);
  EXPECT_EQ(joined.AppendAll(b), 5);
  ASSERT_EQ(joined.size(), 12);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(joined.ToBytes(i), all[static_cast<size_t>(i)]) << i;
  }
}

TEST(PackedArenaTest, ResizeAndStoreFillSlotsOutOfOrder) {
  Rng rng(7);
  const int n = 77;
  PackedAssignments pool(n);
  pool.Resize(9);
  std::vector<std::vector<uint8_t>> expected(9);
  // Store in a scrambled order, as parallel workers do.
  for (int slot : {4, 0, 8, 2, 6, 1, 7, 3, 5}) {
    expected[static_cast<size_t>(slot)] = RandomBytes(n, &rng);
    pool.StoreBytes(slot, expected[static_cast<size_t>(slot)].data(), n);
  }
  for (int slot = 0; slot < 9; ++slot) {
    EXPECT_EQ(pool.ToBytes(slot), expected[static_cast<size_t>(slot)])
        << slot;
  }
  pool.Truncate(4);
  ASSERT_EQ(pool.size(), 4);
  EXPECT_EQ(pool.ToBytes(3), expected[3]);
}

TEST(PackedArenaTest, EraseSlotsKeepsTheRestInOrder) {
  const int n = 130;  // three words per slot, a partial last word
  Rng rng(12);
  PackedAssignments pool(n);
  std::vector<std::vector<uint8_t>> stored;
  for (int slot = 0; slot < 7; ++slot) {
    stored.push_back(RandomBytes(n, &rng));
    pool.AppendBytes(stored.back());
  }
  pool.EraseSlots({1, 0, 0, 1, 1, 0, 0});
  ASSERT_EQ(pool.size(), 4);
  EXPECT_EQ(pool.ToBytes(0), stored[1]);
  EXPECT_EQ(pool.ToBytes(1), stored[2]);
  EXPECT_EQ(pool.ToBytes(2), stored[5]);
  EXPECT_EQ(pool.ToBytes(3), stored[6]);
  pool.EraseSlots({0, 0, 0, 0});
  EXPECT_EQ(pool.size(), 4);
  pool.EraseSlots({1, 1, 1, 1});
  EXPECT_TRUE(pool.empty());
}

TEST(PackedArenaTest, MemoryFootprintIsWordsNotBytes) {
  const int n = 2048;
  PackedAssignments pool(n);
  pool.Reserve(100);
  std::vector<uint8_t> bytes(static_cast<size_t>(n), 1);
  for (int i = 0; i < 100; ++i) pool.AppendBytes(bytes);
  // 100 assignments x 32 words: the arena holds exactly what it reserved.
  EXPECT_EQ(pool.memory_bytes(), 100u * 32u * sizeof(uint64_t));
}

// --------------------------------------------------------------------
// SampleSet pipeline equivalence against an unpacked reference model
// --------------------------------------------------------------------

/// The byte-vector reference: the exact algorithm SampleSet implemented
/// before the packed arena (sort by (energy, byte-lex assignment), merge
/// adjacent duplicates, truncate to the cap).
struct RefSample {
  std::vector<uint8_t> assignment;
  double energy;
  int count;
};

std::vector<RefSample> ReferenceFinalize(std::vector<RefSample> raw,
                                         int max_samples) {
  std::sort(raw.begin(), raw.end(), [](const RefSample& a,
                                       const RefSample& b) {
    if (a.energy != b.energy) return a.energy < b.energy;
    return a.assignment < b.assignment;
  });
  std::vector<RefSample> merged;
  for (RefSample& sample : raw) {
    if (!merged.empty() && merged.back().assignment == sample.assignment) {
      merged.back().count += sample.count;
    } else {
      merged.push_back(std::move(sample));
    }
  }
  if (max_samples > 0 &&
      static_cast<int>(merged.size()) > max_samples) {
    merged.resize(static_cast<size_t>(max_samples));
  }
  return merged;
}

void ExpectMatchesReference(const SampleSet& set,
                            const std::vector<RefSample>& reference) {
  ASSERT_EQ(set.samples().size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(set.samples()[i].assignment.ToBytes(),
              reference[i].assignment)
        << i;
    EXPECT_EQ(set.samples()[i].energy, reference[i].energy) << i;
    EXPECT_EQ(set.samples()[i].num_occurrences, reference[i].count) << i;
  }
}

class PackedSampleSetProperty : public ::testing::TestWithParam<int> {};

TEST_P(PackedSampleSetProperty, FinalizeMatchesUnpackedReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 600);
  // Word-boundary widths and a small duplicate-rich universe.
  const int n = std::vector<int>{1, 5, 63, 64, 65, 130}[GetParam() % 6];
  const int distinct = rng.UniformInt(2, 12);
  std::vector<std::vector<uint8_t>> universe;
  for (int d = 0; d < distinct; ++d) {
    universe.push_back(RandomBytes(n, &rng));
  }
  std::vector<RefSample> raw;
  for (int i = 0; i < 200; ++i) {
    const int pick = rng.UniformInt(0, distinct - 1);
    // Energies collide across assignments (integer levels) to stress the
    // assignment tie-break; one assignment always maps to one energy, as
    // the samplers guarantee.
    raw.push_back(RefSample{universe[static_cast<size_t>(pick)],
                            static_cast<double>(pick % 4), 1});
  }
  rng.Shuffle(&raw);
  for (int cap : {0, 3}) {
    SampleSet set;
    set.set_max_samples(cap);
    for (const RefSample& sample : raw) {
      set.Add(sample.assignment, sample.energy);
    }
    set.Finalize();
    EXPECT_EQ(set.total_reads(), 200);
    ExpectMatchesReference(set, ReferenceFinalize(raw, cap));
  }
}

TEST_P(PackedSampleSetProperty, MergeDedupMatchesReferenceUnderShuffles) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 700);
  const int n = std::vector<int>{2, 64, 65, 96}[GetParam() % 4];
  const int distinct = rng.UniformInt(3, 10);
  std::vector<std::vector<uint8_t>> universe;
  for (int d = 0; d < distinct; ++d) {
    universe.push_back(RandomBytes(n, &rng));
  }
  auto draw = [&](int count) {
    std::vector<RefSample> out;
    for (int i = 0; i < count; ++i) {
      const int pick = rng.UniformInt(0, distinct - 1);
      out.push_back(RefSample{universe[static_cast<size_t>(pick)],
                              static_cast<double>(pick % 3), 1});
    }
    rng.Shuffle(&out);
    return out;
  };
  const std::vector<RefSample> raw_a = draw(60);
  const std::vector<RefSample> raw_b = draw(45);
  std::vector<RefSample> raw_union = raw_a;
  raw_union.insert(raw_union.end(), raw_b.begin(), raw_b.end());

  for (int cap : {0, 4}) {
    SampleSet a;
    a.set_max_samples(cap);
    for (const RefSample& sample : raw_a) a.Add(sample.assignment, sample.energy);
    SampleSet b;
    b.set_max_samples(cap);
    for (const RefSample& sample : raw_b) b.Add(sample.assignment, sample.energy);
    a.Finalize();
    b.Finalize();
    a.Merge(b);  // finalized x finalized: the linear no-re-sort path
    EXPECT_EQ(a.total_reads(), 105);
    ExpectMatchesReference(a, ReferenceFinalize(raw_union, cap));

    // Append + Finalize (the parallel engine's accumulation path) agrees.
    SampleSet c;
    c.set_max_samples(cap);
    for (const RefSample& sample : raw_a) c.Add(sample.assignment, sample.energy);
    SampleSet d;
    for (const RefSample& sample : raw_b) d.Add(sample.assignment, sample.energy);
    c.Append(std::move(d));
    c.Finalize();
    ExpectMatchesReference(c, ReferenceFinalize(raw_union, cap));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedSampleSetProperty,
                         ::testing::Range(0, 12));

TEST(PackedSampleSetTest, AddSpinsEqualsAddOfSpinsToAssignment) {
  Rng rng(8);
  const int n = 70;
  SampleSet via_spins;
  SampleSet via_bytes;
  for (int i = 0; i < 20; ++i) {
    std::vector<int8_t> spins(static_cast<size_t>(n));
    for (auto& s : spins) s = rng.Bernoulli(0.5) ? 1 : -1;
    const double energy = rng.UniformReal(-5.0, 5.0);
    via_spins.AddSpins(spins, energy);
    via_bytes.Add(qubo::SpinsToAssignment(spins), energy);
  }
  via_spins.Finalize();
  via_bytes.Finalize();
  ASSERT_EQ(via_spins.samples().size(), via_bytes.samples().size());
  for (size_t i = 0; i < via_spins.samples().size(); ++i) {
    EXPECT_EQ(via_spins.samples()[i].assignment,
              via_bytes.samples()[i].assignment);
    EXPECT_EQ(via_spins.samples()[i].energy, via_bytes.samples()[i].energy);
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qmqo
