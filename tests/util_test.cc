// Unit tests for src/util: Status/Result, Rng, SummaryStats, string and
// table helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qmqo {
namespace {

// --------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllNamedConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Timeout("x").code(), StatusCode::kTimeout);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  std::string taken = std::move(result).value();
  EXPECT_EQ(taken, "payload");
}

Status FailingHelper() { return Status::Internal("inner"); }

Status UsesReturnIfError() {
  QMQO_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kInternal);
}

Result<int> ProducesValue() { return 10; }

Result<int> UsesAssignOrReturn() {
  QMQO_ASSIGN_OR_RETURN(int value, ProducesValue());
  return value * 2;
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto result = UsesAssignOrReturn();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 20);
}

// --------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, FillUniform01MatchesPerCallUniformReal) {
  // Counts around the engine's 312-word block, from a fresh engine (whose
  // first draw twists) and from one 100 draws into a block; afterwards
  // both generators must stand at the same point of the stream.
  for (int skip : {0, 100}) {
    for (size_t count : {0u, 1u, 311u, 312u, 313u, 1000u}) {
      Rng filled(4242);
      Rng drawn(4242);
      for (int k = 0; k < skip; ++k) {
        filled.Next();
        drawn.Next();
      }
      std::vector<double> out(count + 1, -1.0);
      filled.FillUniform01(out.data(), count);
      for (size_t k = 0; k < count; ++k) {
        const double expected = drawn.UniformReal(0.0, 1.0);
        ASSERT_EQ(std::memcmp(&out[k], &expected, sizeof(double)), 0)
            << "skip " << skip << ", count " << count << ", value " << k;
      }
      EXPECT_EQ(out[count], -1.0) << "wrote past count " << count;
      EXPECT_EQ(filled.Next(), drawn.Next())
          << "skip " << skip << ", count " << count;
    }
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformRealRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformReal(-1.0, 1.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(19);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.5) ? 1 : 0;
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(RngTest, GaussianMeanRoughlyCorrect) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, ForkIsDecorrelatedAndDeterministic) {
  Rng parent1(99);
  Rng parent2(99);
  Rng child_a = parent1.Fork(1);
  Rng child_b = parent2.Fork(1);
  EXPECT_EQ(child_a.Next(), child_b.Next());
  Rng child_c = parent1.Fork(2);
  EXPECT_NE(child_a.Next(), child_c.Next());
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  std::vector<int> picks = rng.SampleWithoutReplacement(100, 30);
  std::set<int> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 30u);
  for (int p : picks) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 100);
  }
}

TEST(RngTest, SampleWithoutReplacementAllWhenCountExceedsN) {
  Rng rng(37);
  std::vector<int> picks = rng.SampleWithoutReplacement(5, 10);
  EXPECT_EQ(picks.size(), 5u);
}

// --------------------------------------------------------------------
// Stream parity: the in-house engine and uniform helper must reproduce
// the standard library's stream value for value, since the bit-exact
// SA sweep and every golden fixture hang off it.
// --------------------------------------------------------------------

// Rng's seed scrambler (splitmix64), so a std twin can be seeded alike.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const uint64_t kParitySeeds[] = {0, 1, 5489, 0x9e3779b97f4a7c15ULL,
                                 ~uint64_t{0}};

TEST(Mt19937Test, KnownAnswerForDefaultSeed) {
  // The standard's check value: the 10000th output for seed 5489.
  Mt19937_64 engine(5489);
  for (int i = 0; i < 9999; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(Mt19937Test, MatchesStdEngineOverAMillionOutputs) {
  for (uint64_t seed : kParitySeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 reference(seed);
    int mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
      if (ours() != reference()) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

TEST(Mt19937Test, RngStreamIsStdEngineOnScrambledSeed) {
  for (uint64_t seed : kParitySeeds) {
    Rng rng(seed);
    std::mt19937_64 reference(SplitMix64(seed));
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.Next(), reference()) << i;
  }
}

TEST(UnitUniformTest, MatchesGenerateCanonicalOnTwinEngine) {
  for (uint64_t seed : kParitySeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 reference(seed);
    int mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
      if (UnitUniform(ours()) !=
          std::generate_canonical<double, 53>(reference)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
}

// Returns one fixed value: drives generate_canonical through the edges.
struct FixedBits {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }
  result_type operator()() { return value; }
  uint64_t value;
};

TEST(UnitUniformTest, EdgeValuesMatchGenerateCanonical) {
  const uint64_t edges[] = {
      0, 1, 0xffffffffULL, 0x100000000ULL,
      (uint64_t{1} << 53) + 1,  // exact: fits in 54 bits, odd low bit
      0x8000000000000400ULL,    // tie, even mantissa: rounds down
      0x8000000000000c00ULL,    // tie, odd mantissa: rounds up
      0x8000000000000401ULL,    // just above a tie
      0xfffffffffffff800ULL,    // largest input that stays below 1
      0xfffffffffffffbffULL,    // rounds down to 1 - 2^-53
      0xfffffffffffffc00ULL,    // tie that rounds up to 1: clamped
      ~uint64_t{0},             // rounds to 1: clamped
  };
  for (uint64_t bits : edges) {
    FixedBits stub{bits};
    const double reference = std::generate_canonical<double, 53>(stub);
    EXPECT_EQ(UnitUniform(bits), reference) << std::hex << bits;
  }
  EXPECT_EQ(UnitUniform(~uint64_t{0}), std::nextafter(1.0, 0.0));
}

// The uniform fill against the standard library directly, not against
// the per-call path (both share the vector twist): `FillUnitUniform` must
// give `generate_canonical<double, 53>` on a twin `std::mt19937_64`,
// value for value, for fills that cross the 312-word twist boundary and
// start mid-block, and leave the engine where the twin stands.
TEST(FillUnitUniformTest, MatchesStdEngineAndGenerateCanonical) {
  for (uint64_t seed : kParitySeeds) {
    for (int skip : {0, 1, 3, 100, 311, 312, 313}) {
      for (size_t count : {0u, 1u, 3u, 4u, 5u, 311u, 312u, 313u, 624u, 1001u}) {
        Mt19937_64 ours(seed);
        std::mt19937_64 reference(seed);
        for (int k = 0; k < skip; ++k) ASSERT_EQ(ours(), reference());
        std::vector<double> out(count + 1, -1.0);
        ours.FillUnitUniform(out.data(), count);
        for (size_t k = 0; k < count; ++k) {
          const double expected =
              std::generate_canonical<double, 53>(reference);
          ASSERT_EQ(std::memcmp(&out[k], &expected, sizeof(double)), 0)
              << "seed " << seed << ", skip " << skip << ", count " << count
              << ", value " << k;
        }
        EXPECT_EQ(out[count], -1.0) << "wrote past count " << count;
        EXPECT_EQ(ours(), reference())
            << "seed " << seed << ", skip " << skip << ", count " << count;
      }
    }
  }
}

TEST(FillUnitUniformTest, InterleavedFillsAndDrawsFollowStdEngine) {
  // Odd-sized fills and single draws in turn walk every offset of the
  // 312-word block over a few thousand values.
  Mt19937_64 ours(2024);
  std::mt19937_64 reference(2024);
  std::vector<double> out(64);
  for (int round = 0; round < 200; ++round) {
    const size_t count = static_cast<size_t>(round * 7 % 61);
    ours.FillUnitUniform(out.data(), count);
    for (size_t k = 0; k < count; ++k) {
      const double expected = std::generate_canonical<double, 53>(reference);
      ASSERT_EQ(out[k], expected) << "round " << round << ", value " << k;
    }
    ASSERT_EQ(ours(), reference()) << "round " << round;
  }
}

/// Inverse of `Mt19937_64::Temper`: the state word that tempers to `y`.
uint64_t Untemper(uint64_t y) {
  y ^= y >> 43;
  y ^= (y << 37) & 0xfff7eee000000000ULL;
  uint64_t x = y;  // each pass fixes 17 more low bits
  for (int pass = 0; pass < 4; ++pass) {
    x = y ^ ((x << 17) & 0x71d67fffeda60000ULL);
  }
  y = x;  // each pass fixes 29 more high bits
  for (int pass = 0; pass < 3; ++pass) {
    x = y ^ ((x >> 29) & 0x5555555555555555ULL);
  }
  return x;
}

TEST(FillUnitUniformTest, ConversionOfEdgeWordsMatchesGenerateCanonical) {
  // Tempered words at the conversion's edges, placed at every offset of a
  // 9-word block so each passes through every vector lane and the scalar
  // tail: TemperUnitUniform is the step FillUnitUniform runs per block.
  const uint64_t edges[] = {
      0,
      1,
      0xffffffffULL,             // 2^32 - 1: all of the low half
      0x100000000ULL,            // 2^32: the low bit of the high half
      ~uint64_t{0},              // 2^64 - 1: rounds to 1, clamped
      0xfffffffffffffc00ULL,     // tie that rounds up to 1: clamped
      0xfffffffffffffbffULL,     // rounds down to 1 - 2^-53
      0xfffffffffffff800ULL,     // largest input that stays below 1
      0x8000000000000400ULL,     // tie, even mantissa: rounds down
      0x8000000000000c00ULL,     // tie, odd mantissa: rounds up
      (uint64_t{1} << 53) + 1,   // exact: fits in 54 bits, odd low bit
  };
  for (uint64_t word : edges) {
    const uint64_t raw = Untemper(word);
    ASSERT_EQ(Mt19937_64::Temper(raw), word) << std::hex << word;
    FixedBits stub{word};
    const double reference = std::generate_canonical<double, 53>(stub);
    for (size_t at = 0; at < 9; ++at) {
      std::vector<uint64_t> block(9, Untemper(0x123456789abcdefULL));
      block[at] = raw;
      std::vector<double> out(9);
      Mt19937_64::TemperUnitUniform(block.data(), block.size(), out.data());
      EXPECT_EQ(std::memcmp(&out[at], &reference, sizeof(double)), 0)
          << std::hex << word << std::dec << " at " << at << ": "
          << out[at] << " vs " << reference;
    }
  }
  EXPECT_EQ(UnitUniform(~uint64_t{0}), std::nextafter(1.0, 0.0));
}

TEST(RngParityTest, UniformRealMatchesStdDistribution) {
  const double ranges[][2] = {{0.0, 1.0}, {-1.0, 1.0}, {3.5, 1e6}};
  for (uint64_t seed : kParitySeeds) {
    for (const auto& range : ranges) {
      Rng rng(seed);
      std::mt19937_64 twin(SplitMix64(seed));
      std::uniform_real_distribution<double> dist(range[0], range[1]);
      for (int i = 0; i < 100000; ++i) {
        ASSERT_EQ(rng.UniformReal(range[0], range[1]), dist(twin))
            << "seed " << seed << " draw " << i;
      }
    }
  }
}

TEST(RngParityTest, BernoulliMatchesStdDistribution) {
  const double probabilities[] = {1e-9, 0.1, 0.5, 0.75, 1.0 - 1e-12};
  for (uint64_t seed : kParitySeeds) {
    for (double p : probabilities) {
      Rng rng(seed);
      std::mt19937_64 twin(SplitMix64(seed));
      std::bernoulli_distribution dist(p);
      for (int i = 0; i < 100000; ++i) {
        ASSERT_EQ(rng.Bernoulli(p), dist(twin))
            << "seed " << seed << " p " << p << " draw " << i;
      }
    }
  }
}

TEST(RngParityTest, UniformIntAndGaussianSequencesArePinned) {
  // These still go through std distributions, now fed by Mt19937_64; the
  // values were recorded on std::mt19937_64 and must never move.
  Rng ints(2016);
  const int expected_ints[] = {77, 89, 51, 39, 28, 54, 2, 56};
  for (int v : expected_ints) EXPECT_EQ(ints.UniformInt(0, 99), v);

  Rng wide(2016);
  const int64_t expected_wide[] = {550996632049LL, 798422115664LL,
                                   20547672097LL, -209059485077LL};
  for (int64_t v : expected_wide) {
    EXPECT_EQ(wide.UniformInt64(-1000000000000LL, 1000000000000LL), v);
  }

  Rng normal(2016);
  const double expected_normal[] = {0.28684358710132801, -2.486282911504774,
                                    0.35335870841229944, 0.058011517456307796};
  for (double v : expected_normal) EXPECT_EQ(normal.Gaussian(0.0, 1.0), v);
}

TEST(RngParityTest, GaussianMatchesStdDistribution) {
#ifdef __FMA__
  GTEST_SKIP() << "this build may fuse multiply-adds inside "
                  "std::normal_distribution, so it is no reference here; "
                  "the pinned Gaussian values still hold";
#endif
  const double params[][2] = {{0.0, 1.0}, {3.5, 0.25}, {-2.0, 10.0}};
  for (uint64_t seed : kParitySeeds) {
    for (const auto& param : params) {
      Rng rng(seed);
      Mt19937_64 twin(SplitMix64(seed));
      for (int i = 0; i < 10000; ++i) {
        const double expected =
            std::normal_distribution<double>(param[0], param[1])(twin);
        ASSERT_EQ(rng.Gaussian(param[0], param[1]), expected)
            << "seed " << seed << ", draw " << i;
      }
    }
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

// --------------------------------------------------------------------
// SummaryStats
// --------------------------------------------------------------------

TEST(StatsTest, BasicMoments) {
  SummaryStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.Mean(), 2.5);
  EXPECT_NEAR(stats.Stddev(), 1.29099, 1e-4);
}

TEST(StatsTest, MedianEvenAndOdd) {
  SummaryStats even;
  for (double v : {4.0, 1.0, 3.0, 2.0}) even.Add(v);
  EXPECT_DOUBLE_EQ(even.Median(), 2.5);
  SummaryStats odd;
  for (double v : {5.0, 1.0, 3.0}) odd.Add(v);
  EXPECT_DOUBLE_EQ(odd.Median(), 3.0);
}

TEST(StatsTest, PercentileInterpolation) {
  SummaryStats stats;
  for (double v : {0.0, 10.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(0.25), 2.5);
}

TEST(StatsTest, SingleSampleStddevZero) {
  SummaryStats stats;
  stats.Add(7.0);
  EXPECT_DOUBLE_EQ(stats.Stddev(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Median(), 7.0);
}

TEST(StatsTest, QueriesAfterInterleavedAdds) {
  SummaryStats stats;
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 3.0);
  stats.Add(9.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 3.0);
}

// --------------------------------------------------------------------
// String utilities
// --------------------------------------------------------------------

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(StrFormat("%s", "plain"), "plain");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,c");
  EXPECT_EQ(Split("a,b,c", ','), parts);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  std::vector<std::string> expected = {"", "x", "", ""};
  EXPECT_EQ(Split(",x,,", ','), expected);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello \t"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \n "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("query 1 2", "query"));
  EXPECT_FALSE(StartsWith("que", "query"));
}

// --------------------------------------------------------------------
// TablePrinter
// --------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "22"});
  std::string text = table.ToString();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("only,,"), std::string::npos);
}

TEST(TablePrinterTest, MarkdownShape) {
  TablePrinter table({"h1", "h2"});
  table.AddRow({"v1", "v2"});
  std::string md = table.ToMarkdown();
  EXPECT_NE(md.find("| h1 | h2 |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| v1 | v2 |"), std::string::npos);
}

// --------------------------------------------------------------------
// Stopwatch
// --------------------------------------------------------------------

TEST(StopwatchTest, MonotoneNonNegative) {
  Stopwatch watch;
  int64_t first = watch.ElapsedMicros();
  int64_t second = watch.ElapsedMicros();
  EXPECT_GE(first, 0);
  EXPECT_GE(second, first);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  (void)sink;
  watch.Restart();
  EXPECT_LT(watch.ElapsedMillis(), 100.0);
}

}  // namespace
}  // namespace qmqo
