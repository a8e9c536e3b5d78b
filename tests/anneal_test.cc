// Tests for schedules, samplers (SA, SQA), gauge transforms, sample sets,
// and the D-Wave device simulator.

#include <gtest/gtest.h>

#include <cmath>

#include "anneal/dwave_simulator.h"
#include "anneal/gauge.h"
#include "anneal/sample_set.h"
#include "anneal/schedule.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "qubo/brute_force.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {
namespace {

/// Binary encoding of `value` as a `width`-bit 0/1 assignment. The packed
/// arena stores assignments as bits, so synthetic test assignments use bit
/// patterns where the byte-vector representation tolerated multi-valued
/// bytes.
std::vector<uint8_t> Bits(int value, int width) {
  std::vector<uint8_t> out(static_cast<size_t>(width));
  for (int b = 0; b < width; ++b) {
    out[static_cast<size_t>(b)] = static_cast<uint8_t>((value >> b) & 1);
  }
  return out;
}

qubo::QuboProblem RandomQubo(int num_vars, double density, Rng* rng) {
  qubo::QuboProblem problem(num_vars);
  for (int i = 0; i < num_vars; ++i) {
    problem.AddLinear(i, rng->UniformReal(-4.0, 4.0));
    for (int j = i + 1; j < num_vars; ++j) {
      if (rng->Bernoulli(density)) {
        problem.AddQuadratic(i, j, rng->UniformReal(-4.0, 4.0));
      }
    }
  }
  return problem;
}

// --------------------------------------------------------------------
// Schedules
// --------------------------------------------------------------------

TEST(ScheduleTest, LinearInterpolation) {
  Schedule schedule{0.0, 10.0, ScheduleShape::kLinear};
  EXPECT_DOUBLE_EQ(schedule.At(0, 11), 0.0);
  EXPECT_DOUBLE_EQ(schedule.At(5, 11), 5.0);
  EXPECT_DOUBLE_EQ(schedule.At(10, 11), 10.0);
}

TEST(ScheduleTest, GeometricInterpolation) {
  Schedule schedule{1.0, 100.0, ScheduleShape::kGeometric};
  EXPECT_DOUBLE_EQ(schedule.At(0, 3), 1.0);
  EXPECT_NEAR(schedule.At(1, 3), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(schedule.At(2, 3), 100.0);
}

TEST(ScheduleTest, SingleStepReturnsEnd) {
  Schedule schedule{1.0, 8.0, ScheduleShape::kGeometric};
  EXPECT_DOUBLE_EQ(schedule.At(0, 1), 8.0);
}

TEST(ScheduleTest, SuggestBetaRangeOrdering) {
  Rng rng(1);
  qubo::QuboProblem qubo = RandomQubo(8, 0.5, &rng);
  qubo::IsingWithOffset ising = qubo::QuboToIsing(qubo);
  auto [hot, cold] = SuggestBetaRange(ising.ising);
  EXPECT_GT(hot, 0.0);
  EXPECT_GT(cold, hot);
}

TEST(ScheduleTest, SuggestBetaRangeTrivialProblem) {
  qubo::IsingProblem empty(4);
  auto [hot, cold] = SuggestBetaRange(empty);
  EXPECT_GT(hot, 0.0);
  EXPECT_GT(cold, hot);
}

// Regression: a near-overflow coupling used to drive beta_hot to a
// denormal / zero, which a geometric schedule asserts on. The suggestion
// must stay finite, positive, and ordered for any input magnitudes.
TEST(ScheduleTest, SuggestBetaRangeExtremeMagnitudesStaysSane) {
  qubo::IsingProblem huge(3);
  huge.AddCoupling(0, 1, 1e308);
  huge.AddField(2, 1e-320);  // denormal: log(100)/field overflows to inf
  auto [hot, cold] = SuggestBetaRange(huge);
  EXPECT_TRUE(std::isfinite(hot));
  EXPECT_TRUE(std::isfinite(cold));
  EXPECT_GT(hot, 0.0);
  EXPECT_GT(cold, hot);
}

// Regression: two near-max couplings on one spin sum to inf, which used
// to propagate through beta_hot = log(2)/inf = 0. Non-finite field sums
// must be skipped, not poison the range.
TEST(ScheduleTest, SuggestBetaRangeOverflowingFieldSumSkipped) {
  qubo::IsingProblem overflow(4);
  overflow.AddCoupling(0, 1, 1.5e308);
  overflow.AddCoupling(0, 2, 1.5e308);  // spin 0's field sum is inf
  overflow.AddField(3, 2.0);            // a sane spin remains
  auto [hot, cold] = SuggestBetaRange(overflow);
  EXPECT_TRUE(std::isfinite(hot));
  EXPECT_TRUE(std::isfinite(cold));
  EXPECT_GT(hot, 0.0);
  EXPECT_GT(cold, hot);
}

// Regression: when *every* spin's field sum is non-finite there is no
// usable signal; the suggestion must fall back to the trivial-problem
// defaults instead of returning NaN/inf or an inverted pair.
TEST(ScheduleTest, SuggestBetaRangeAllNonFiniteFallsBack) {
  qubo::IsingProblem bad(2);
  bad.AddCoupling(0, 1, 1.5e308);
  bad.AddCoupling(0, 1, 1.5e308);  // J_01 itself overflows to inf
  auto [hot, cold] = SuggestBetaRange(bad);
  EXPECT_TRUE(std::isfinite(hot));
  EXPECT_TRUE(std::isfinite(cold));
  EXPECT_GT(hot, 0.0);
  EXPECT_GT(cold, hot);
}

// The sanitization must not perturb ordinary problems: the clamp band is
// far outside anything a sane instance produces, so values match the
// unclamped arithmetic exactly (golden fixtures flow through this path).
TEST(ScheduleTest, SuggestBetaRangeNormalValuesUnchangedByClamping) {
  qubo::IsingProblem plain(2);
  plain.AddField(0, 2.0);
  plain.AddCoupling(0, 1, 1.0);
  auto [hot, cold] = SuggestBetaRange(plain);
  // Spin 0: |2.0| + |1.0| = 3.0 (max); spin 1: |1.0| (min).
  EXPECT_DOUBLE_EQ(hot, std::log(2.0) / 3.0);
  EXPECT_DOUBLE_EQ(cold, std::log(100.0) / 1.0);
}

// --------------------------------------------------------------------
// Sample sets
// --------------------------------------------------------------------

TEST(SampleSetTest, SortsByEnergyAndMergesDuplicates) {
  SampleSet set;
  set.Add({1, 0}, 5.0);
  set.Add({0, 1}, -2.0);
  set.Add({1, 0}, 5.0);
  set.Finalize();
  ASSERT_EQ(set.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(set.best().energy, -2.0);
  EXPECT_EQ(set.samples()[1].num_occurrences, 2);
  EXPECT_EQ(set.total_reads(), 3);
}

TEST(SampleSetTest, MaxSamplesKeepsExactTopK) {
  // A capped set must equal the uncapped set truncated after Finalize —
  // membership, energies, and occurrence counts — while total_reads keeps
  // counting dropped reads.
  Rng rng(51);
  SampleSet capped;
  capped.set_max_samples(5);
  SampleSet uncapped;
  for (int i = 0; i < 400; ++i) {
    // Few distinct energies force duplicates near the cutoff.
    int level = rng.UniformInt(0, 19);
    std::vector<uint8_t> assignment = Bits(level, 5);
    capped.Add(assignment, static_cast<double>(level));
    uncapped.Add(assignment, static_cast<double>(level));
  }
  capped.Finalize();
  uncapped.Finalize();
  ASSERT_LE(capped.samples().size(), 5u);
  EXPECT_EQ(capped.total_reads(), 400);
  for (size_t i = 0; i < capped.samples().size(); ++i) {
    EXPECT_EQ(capped.samples()[i].assignment, uncapped.samples()[i].assignment);
    EXPECT_DOUBLE_EQ(capped.samples()[i].energy, uncapped.samples()[i].energy);
    EXPECT_EQ(capped.samples()[i].num_occurrences,
              uncapped.samples()[i].num_occurrences);
  }
}

TEST(SampleSetTest, MaxSamplesBoundsMemoryDuringStreaming) {
  SampleSet set;
  set.set_max_samples(3);
  for (int i = 0; i < 10000; ++i) {
    set.Add(Bits(i & 7, 3), static_cast<double>(i % 100));
    // The streaming compaction keeps the buffer within 2k + 64 entries.
    ASSERT_LE(set.samples().size(), 3u * 2 + 64u);
  }
  set.Finalize();
  EXPECT_EQ(set.samples().size(), 3u);
  EXPECT_EQ(set.total_reads(), 10000);
  EXPECT_DOUBLE_EQ(set.best().energy, 0.0);
}

TEST(SampleSetTest, MergeRespectsCap) {
  SampleSet a;
  a.set_max_samples(2);
  a.Add(Bits(0, 2), 3.0);
  a.Add(Bits(1, 2), 1.0);
  a.Finalize();
  SampleSet b;
  b.Add(Bits(2, 2), 0.0);
  b.Add(Bits(3, 2), 2.0);
  b.Finalize();
  a.Merge(b);
  ASSERT_EQ(a.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(a.samples()[0].energy, 0.0);
  EXPECT_DOUBLE_EQ(a.samples()[1].energy, 1.0);
  EXPECT_EQ(a.total_reads(), 4);
}

TEST(SampleSetTest, MergeOfCappedSetsOverlappingAtEnergyCutBoundary) {
  // Two capped sets whose retained ranges overlap exactly at the energy
  // cut: every survivor of the merge sits at the tie energy, so retention
  // is decided purely by the assignment tie-break (byte-lexicographic
  // order of the unpacked bits). The merged capped result must equal the
  // uncapped union truncated after Finalize — membership, energies, AND
  // occurrence counts.
  constexpr int kCap = 3;
  constexpr double kCut = 5.0;  // every sample ties at the cut energy
  SampleSet a;
  a.set_max_samples(kCap);
  SampleSet b;
  b.set_max_samples(kCap);
  SampleSet uncapped;
  // Assignments 0..5 all at the cut energy, split across the sets with a
  // shared straddler (assignment 2 appears in both, so its occurrence
  // count must survive the per-set caps intact).
  for (int value : {0, 2, 4, 2, 1}) {
    a.Add(Bits(value, 3), kCut);
    uncapped.Add(Bits(value, 3), kCut);
  }
  for (int value : {5, 2, 3, 0}) {
    b.Add(Bits(value, 3), kCut);
    uncapped.Add(Bits(value, 3), kCut);
  }
  // Byte-lex order over the unpacked bits (LSB first) ranks the values
  // 0 < 4 < 2 < 1 < 5 < 3 at the tie energy.
  a.Finalize();
  b.Finalize();
  ASSERT_EQ(a.samples().size(), 3u);  // {0, 4, 2} survive a's cap
  ASSERT_EQ(b.samples().size(), 3u);  // {0, 2, 5} survive b's cap
  a.Merge(b);
  uncapped.Finalize();
  ASSERT_EQ(a.samples().size(), 3u);
  EXPECT_EQ(a.total_reads(), 9);
  for (size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].assignment, uncapped.samples()[i].assignment);
    EXPECT_DOUBLE_EQ(a.samples()[i].energy, uncapped.samples()[i].energy);
    EXPECT_EQ(a.samples()[i].num_occurrences,
              uncapped.samples()[i].num_occurrences);
  }
  // The boundary survivors under the byte-lex tie-break: 0 (twice, once
  // per set), 4, and the straddler 2 (three occurrences across both sets
  // — a's cap kept both of its copies, b's kept its one).
  EXPECT_EQ(a.samples()[0].num_occurrences, 2);
  EXPECT_EQ(a.samples()[1].num_occurrences, 1);
  EXPECT_EQ(a.samples()[2].num_occurrences, 3);
}

TEST(SampleSetTest, MergeCombines) {
  SampleSet a;
  a.Add({1}, 1.0);
  a.Finalize();
  SampleSet b;
  b.Add({0}, 0.0);
  b.Add({1}, 1.0);
  b.Finalize();
  a.Merge(b);
  EXPECT_EQ(a.total_reads(), 3);
  ASSERT_EQ(a.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(a.best().energy, 0.0);
  EXPECT_EQ(a.samples()[1].num_occurrences, 2);
}

// --------------------------------------------------------------------
// Gauge transforms
// --------------------------------------------------------------------

class GaugeProperty : public ::testing::TestWithParam<int> {};

TEST_P(GaugeProperty, EnergyInvariantUnderGauge) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 10);
  qubo::QuboProblem qubo = RandomQubo(8, 0.5, &rng);
  qubo::IsingWithOffset converted = qubo::QuboToIsing(qubo);
  GaugeTransform gauge = GaugeTransform::Random(8, &rng);
  qubo::IsingProblem transformed = gauge.Apply(converted.ising);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<int8_t> spins(8);
    for (auto& s : spins) s = rng.Bernoulli(0.5) ? 1 : -1;
    // H'(s') == H(g ⊙ s') where s = RestoreSpins(s').
    EXPECT_NEAR(transformed.Energy(spins),
                converted.ising.Energy(gauge.RestoreSpins(spins)), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaugeProperty, ::testing::Range(0, 8));

TEST(GaugeTest, IdentityGaugeIsNoOp) {
  GaugeTransform identity(4);
  std::vector<int8_t> spins = {1, -1, 1, -1};
  EXPECT_EQ(identity.RestoreSpins(spins), spins);
}

TEST(GaugeTest, RestoreIsInvolution) {
  Rng rng(3);
  GaugeTransform gauge = GaugeTransform::Random(6, &rng);
  std::vector<int8_t> spins = {1, 1, -1, 1, -1, -1};
  EXPECT_EQ(gauge.RestoreSpins(gauge.RestoreSpins(spins)), spins);
}

// --------------------------------------------------------------------
// Simulated annealing
// --------------------------------------------------------------------

class SaOptimalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(SaOptimalityProperty, FindsGroundStateOfSmallProblems) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 20);
  qubo::QuboProblem problem = RandomQubo(rng.UniformInt(4, 14), 0.5, &rng);
  auto exact = qubo::SolveExhaustive(problem);
  ASSERT_TRUE(exact.ok());
  SaOptions options;
  options.num_reads = 32;
  options.sweeps_per_read = 256;
  options.seed = rng.Next();
  SimulatedAnnealer annealer(options);
  SampleSet samples = annealer.Sample(problem);
  ASSERT_FALSE(samples.empty());
  EXPECT_NEAR(samples.best().energy, exact->energy, 1e-9);
  // Reported energies must match re-evaluation.
  for (const Sample& sample : samples.samples()) {
    EXPECT_NEAR(problem.Energy(sample.assignment.ToBytes()), sample.energy, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaOptimalityProperty, ::testing::Range(0, 12));

TEST(SimulatedAnnealerTest, DeterministicGivenSeed) {
  Rng rng(7);
  qubo::QuboProblem problem = RandomQubo(10, 0.4, &rng);
  SaOptions options;
  options.num_reads = 8;
  options.sweeps_per_read = 64;
  options.seed = 99;
  SimulatedAnnealer annealer(options);
  SampleSet a = annealer.Sample(problem);
  SampleSet b = annealer.Sample(problem);
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].assignment, b.samples()[i].assignment);
  }
}

TEST(SimulatedAnnealerTest, MaxSamplesMatchesUncappedTruncationAtAnyThreads) {
  Rng rng(77);
  qubo::QuboProblem problem = RandomQubo(10, 0.5, &rng);
  SaOptions options;
  options.num_reads = 64;
  options.sweeps_per_read = 32;
  options.seed = 3;
  SampleSet uncapped = SimulatedAnnealer(options).Sample(problem);
  for (int num_threads : {1, 2, 4}) {
    SaOptions capped_options = options;
    capped_options.max_samples = 4;
    capped_options.num_threads = num_threads;
    SampleSet capped = SimulatedAnnealer(capped_options).Sample(problem);
    ASSERT_LE(capped.samples().size(), 4u);
    EXPECT_EQ(capped.total_reads(), uncapped.total_reads());
    for (size_t i = 0; i < capped.samples().size(); ++i) {
      EXPECT_EQ(capped.samples()[i].assignment,
                uncapped.samples()[i].assignment);
      EXPECT_DOUBLE_EQ(capped.samples()[i].energy,
                       uncapped.samples()[i].energy);
      EXPECT_EQ(capped.samples()[i].num_occurrences,
                uncapped.samples()[i].num_occurrences);
    }
  }
}

TEST(SimulatedAnnealerTest, ReadCountHonored) {
  Rng rng(8);
  qubo::QuboProblem problem = RandomQubo(6, 0.5, &rng);
  SaOptions options;
  options.num_reads = 17;
  options.sweeps_per_read = 16;
  SimulatedAnnealer annealer(options);
  EXPECT_EQ(annealer.Sample(problem).total_reads(), 17);
}

// --------------------------------------------------------------------
// Simulated quantum annealing
// --------------------------------------------------------------------

class SqaOptimalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(SqaOptimalityProperty, FindsGroundStateOfSmallProblems) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 30);
  qubo::QuboProblem problem = RandomQubo(rng.UniformInt(4, 10), 0.5, &rng);
  auto exact = qubo::SolveExhaustive(problem);
  ASSERT_TRUE(exact.ok());
  SqaOptions options;
  options.num_reads = 12;
  options.num_slices = 8;
  options.sweeps = 128;
  options.seed = rng.Next();
  SimulatedQuantumAnnealer annealer(options);
  SampleSet samples = annealer.Sample(problem);
  ASSERT_FALSE(samples.empty());
  EXPECT_NEAR(samples.best().energy, exact->energy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqaOptimalityProperty,
                         ::testing::Range(0, 8));

TEST(SqaTest, EnergiesMatchAssignments) {
  Rng rng(9);
  qubo::QuboProblem problem = RandomQubo(8, 0.5, &rng);
  SqaOptions options;
  options.num_reads = 6;
  options.num_slices = 6;
  options.sweeps = 64;
  SimulatedQuantumAnnealer annealer(options);
  SampleSet samples = annealer.Sample(problem);
  for (const Sample& sample : samples.samples()) {
    EXPECT_NEAR(problem.Energy(sample.assignment.ToBytes()), sample.energy, 1e-9);
  }
}

// --------------------------------------------------------------------
// D-Wave device simulator
// --------------------------------------------------------------------

TEST(DWaveSimulatorTest, ValidatesOptions) {
  qubo::QuboProblem problem(2);
  problem.AddLinear(0, -1.0);
  DWaveOptions bad_reads;
  bad_reads.num_reads = 0;
  EXPECT_FALSE(DWaveSimulator(bad_reads).Sample(problem).ok());
  DWaveOptions bad_gauges;
  bad_gauges.num_gauges = 0;
  EXPECT_FALSE(DWaveSimulator(bad_gauges).Sample(problem).ok());
  DWaveOptions bad_range;
  bad_range.h_range = 0.0;
  EXPECT_FALSE(DWaveSimulator(bad_range).Sample(problem).ok());
}

TEST(DWaveSimulatorTest, TimingModelMatchesPaper) {
  DWaveOptions options;  // defaults: 129 + 247 us, 1000 reads
  DWaveSimulator device(options);
  EXPECT_DOUBLE_EQ(device.DeviceTimeForReads(1), 376.0);
  EXPECT_DOUBLE_EQ(device.DeviceTimeForReads(1000), 376000.0);
}

TEST(DWaveSimulatorTest, SamplesSmallProblemToOptimality) {
  Rng rng(10);
  qubo::QuboProblem problem = RandomQubo(10, 0.5, &rng);
  auto exact = qubo::SolveExhaustive(problem);
  ASSERT_TRUE(exact.ok());
  DWaveOptions options;
  options.num_reads = 200;
  options.num_gauges = 5;
  options.sa_sweeps = 64;
  options.control_error = 0.01;
  DWaveSimulator device(options);
  auto result = device.Sample(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->samples.total_reads(), 200);
  EXPECT_NEAR(result->samples.best().energy, exact->energy, 1e-9);
  EXPECT_DOUBLE_EQ(result->device_time_us, 200 * 376.0);
  EXPECT_GT(result->scale_factor, 0.0);
}

TEST(DWaveSimulatorTest, EnergiesReportedOnOriginalScale) {
  // Even with scaling and noise, reported energies must be exact w.r.t.
  // the submitted problem.
  Rng rng(11);
  qubo::QuboProblem problem = RandomQubo(8, 0.6, &rng);
  DWaveOptions options;
  options.num_reads = 50;
  options.control_error = 0.1;  // heavy noise
  DWaveSimulator device(options);
  auto result = device.Sample(problem);
  ASSERT_TRUE(result.ok());
  for (const Sample& sample : result->samples.samples()) {
    EXPECT_NEAR(problem.Energy(sample.assignment.ToBytes()), sample.energy, 1e-9);
  }
}

TEST(DWaveSimulatorTest, RecordReadsKeepsChronologicalCount) {
  Rng rng(12);
  qubo::QuboProblem problem = RandomQubo(6, 0.5, &rng);
  DWaveOptions options;
  options.num_reads = 37;
  options.num_gauges = 4;
  options.record_reads = true;
  DWaveSimulator device(options);
  auto result = device.Sample(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->raw_reads.size(), 37);
}

TEST(DWaveSimulatorTest, DeterministicGivenSeed) {
  Rng rng(13);
  qubo::QuboProblem problem = RandomQubo(8, 0.5, &rng);
  DWaveOptions options;
  options.num_reads = 20;
  options.seed = 1234;
  options.record_reads = true;
  DWaveSimulator device(options);
  auto a = device.Sample(problem);
  auto b = device.Sample(problem);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->raw_reads, b->raw_reads);
}

// A coupling that programs to exactly 0 (here: a zero-weight term with no
// control error) is dropped from the programmed problem, as the hardware
// drops it. The device must then behave exactly as if the term were never
// there.
TEST(DWaveSimulatorTest, CouplingProgrammedToZeroIsDropped) {
  Rng rng(15);
  qubo::QuboProblem without(7);
  for (int i = 0; i < 7; ++i) without.AddLinear(i, rng.UniformReal(-2.0, 2.0));
  without.AddQuadratic(0, 1, 1.5);
  without.AddQuadratic(1, 2, -2.0);
  without.AddQuadratic(2, 3, 0.75);
  without.AddQuadratic(3, 4, -1.25);
  without.AddQuadratic(4, 5, 1.0);
  without.AddQuadratic(5, 6, -0.5);
  qubo::QuboProblem with = without;
  with.AddQuadratic(0, 2, 0.0);
  ASSERT_EQ(with.interactions().size(), without.interactions().size() + 1);
  for (DeviceBackend backend : {DeviceBackend::kSimulatedAnnealing,
                                DeviceBackend::kSimulatedQuantumAnnealing}) {
    SCOPED_TRACE(testing::Message()
                 << "backend " << static_cast<int>(backend));
    DWaveOptions options;
    options.backend = backend;
    options.control_error = 0.0;
    options.num_reads = 24;
    options.num_gauges = 3;
    options.sa_sweeps = 16;
    options.sqa.num_slices = 4;
    options.sqa.sweeps = 12;
    options.record_reads = true;
    options.num_threads = 3;
    auto a = DWaveSimulator(options).Sample(with);
    auto b = DWaveSimulator(options).Sample(without);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->raw_reads, b->raw_reads);
    ASSERT_EQ(a->samples.size(), b->samples.size());
    for (size_t i = 0; i < a->samples.size(); ++i) {
      EXPECT_EQ(a->samples[i].assignment, b->samples[i].assignment);
      EXPECT_EQ(a->samples[i].energy, b->samples[i].energy);
      EXPECT_EQ(a->samples[i].num_occurrences,
                b->samples[i].num_occurrences);
    }
  }
}

TEST(DWaveSimulatorTest, SqaBackendWorks) {
  Rng rng(14);
  qubo::QuboProblem problem = RandomQubo(6, 0.6, &rng);
  auto exact = qubo::SolveExhaustive(problem);
  ASSERT_TRUE(exact.ok());
  DWaveOptions options;
  options.backend = DeviceBackend::kSimulatedQuantumAnnealing;
  options.num_reads = 20;
  options.num_gauges = 2;
  options.control_error = 0.0;
  options.sqa.num_slices = 8;
  options.sqa.sweeps = 128;
  DWaveSimulator device(options);
  auto result = device.Sample(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->samples.total_reads(), 20);
  EXPECT_NEAR(result->samples.best().energy, exact->energy, 1e-9);
}

TEST(DWaveSimulatorTest, NoiseDegradesButNeverLies) {
  // With extreme control error the device may return bad solutions, but
  // the sample set stays sorted and self-consistent.
  Rng rng(15);
  qubo::QuboProblem problem = RandomQubo(8, 0.5, &rng);
  DWaveOptions options;
  options.num_reads = 30;
  options.control_error = 0.5;
  DWaveSimulator device(options);
  auto result = device.Sample(problem);
  ASSERT_TRUE(result.ok());
  double previous = -1e300;
  for (const Sample& sample : result->samples.samples()) {
    EXPECT_GE(sample.energy, previous);
    previous = sample.energy;
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qmqo
