// Tests for the QUBO/Ising formalism: energies, flip deltas, conversions,
// exhaustive minimization, and serialization.

#include <gtest/gtest.h>

#include "qubo/brute_force.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "util/rng.h"

namespace qmqo {
namespace qubo {
namespace {

QuboProblem RandomQubo(int num_vars, double density, Rng* rng) {
  QuboProblem problem(num_vars);
  for (VarId i = 0; i < num_vars; ++i) {
    problem.AddLinear(i, rng->UniformReal(-5.0, 5.0));
  }
  for (VarId i = 0; i < num_vars; ++i) {
    for (VarId j = i + 1; j < num_vars; ++j) {
      if (rng->Bernoulli(density)) {
        problem.AddQuadratic(i, j, rng->UniformReal(-5.0, 5.0));
      }
    }
  }
  return problem;
}

std::vector<uint8_t> RandomAssignment(int num_vars, Rng* rng) {
  std::vector<uint8_t> x(static_cast<size_t>(num_vars));
  for (auto& v : x) v = rng->Bernoulli(0.5) ? 1 : 0;
  return x;
}

TEST(QuboTest, EnergyOfSmallInstance) {
  QuboProblem problem(3);
  problem.AddLinear(0, 1.0);
  problem.AddLinear(1, -2.0);
  problem.AddQuadratic(0, 1, 3.0);
  problem.AddQuadratic(1, 2, -1.0);
  EXPECT_DOUBLE_EQ(problem.Energy({0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(problem.Energy({1, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(problem.Energy({1, 1, 0}), 1.0 - 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(problem.Energy({0, 1, 1}), -2.0 - 1.0);
  EXPECT_DOUBLE_EQ(problem.Energy({1, 1, 1}), 1.0 - 2.0 + 3.0 - 1.0);
}

TEST(QuboTest, WeightsAccumulate) {
  QuboProblem problem(2);
  problem.AddLinear(0, 1.0);
  problem.AddLinear(0, 2.0);
  problem.AddQuadratic(0, 1, 1.0);
  problem.AddQuadratic(1, 0, 0.5);  // same pair, either order
  EXPECT_DOUBLE_EQ(problem.linear(0), 3.0);
  EXPECT_DOUBLE_EQ(problem.quadratic(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(problem.quadratic(1, 0), 1.5);
  EXPECT_EQ(problem.num_interactions(), 1);
}

TEST(QuboTest, NeighborsAreSymmetric) {
  QuboProblem problem(3);
  problem.AddQuadratic(0, 2, 4.0);
  ASSERT_EQ(problem.neighbors(0).size(), 1u);
  EXPECT_EQ(problem.neighbors(0)[0].first, 2);
  EXPECT_DOUBLE_EQ(problem.neighbors(0)[0].second, 4.0);
  ASSERT_EQ(problem.neighbors(2).size(), 1u);
  EXPECT_EQ(problem.neighbors(2)[0].first, 0);
  EXPECT_TRUE(problem.neighbors(1).empty());
}

TEST(QuboTest, MutationAfterQueryingInvalidatesCaches) {
  QuboProblem problem(2);
  problem.AddQuadratic(0, 1, 1.0);
  EXPECT_EQ(problem.interactions().size(), 1u);
  problem.AddQuadratic(0, 1, 1.0);  // accumulates to 2.0
  EXPECT_DOUBLE_EQ(problem.interactions()[0].weight, 2.0);
}

TEST(QuboTest, WeightRangeAndMaxAbs) {
  QuboProblem problem(3);
  problem.AddLinear(0, -7.0);
  problem.AddLinear(1, 2.0);
  problem.AddQuadratic(0, 1, 4.0);
  auto [lo, hi] = problem.WeightRange();
  EXPECT_DOUBLE_EQ(lo, -7.0);
  EXPECT_DOUBLE_EQ(hi, 4.0);
  EXPECT_DOUBLE_EQ(problem.MaxAbsWeight(), 7.0);
}

TEST(QuboTest, EmptyProblemWeightRange) {
  QuboProblem problem(4);
  auto [lo, hi] = problem.WeightRange();
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 0.0);
}

class QuboFlipDeltaProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuboFlipDeltaProperty, FlipDeltaMatchesEnergyDifference) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  QuboProblem problem = RandomQubo(rng.UniformInt(2, 12), 0.4, &rng);
  std::vector<uint8_t> x = RandomAssignment(problem.num_vars(), &rng);
  for (int step = 0; step < 40; ++step) {
    VarId i = rng.UniformInt(0, problem.num_vars() - 1);
    double before = problem.Energy(x);
    double delta = problem.FlipDelta(x, i);
    x[static_cast<size_t>(i)] ^= 1;
    EXPECT_NEAR(problem.Energy(x), before + delta, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuboFlipDeltaProperty,
                         ::testing::Range(0, 10));

// --------------------------------------------------------------------
// Ising
// --------------------------------------------------------------------

TEST(IsingTest, EnergyOfSmallInstance) {
  IsingProblem ising(2);
  ising.AddField(0, 1.0);
  ising.AddField(1, -0.5);
  ising.AddCoupling(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(ising.Energy({1, 1}), 1.0 - 0.5 + 2.0);
  EXPECT_DOUBLE_EQ(ising.Energy({-1, 1}), -1.0 - 0.5 - 2.0);
  EXPECT_DOUBLE_EQ(ising.Energy({-1, -1}), -1.0 + 0.5 + 2.0);
}

TEST(IsingTest, FlipDeltaMatchesEnergyDifference) {
  Rng rng(5);
  IsingProblem ising(6);
  for (VarId i = 0; i < 6; ++i) ising.AddField(i, rng.UniformReal(-2, 2));
  for (VarId i = 0; i < 6; ++i) {
    for (VarId j = i + 1; j < 6; ++j) {
      if (rng.Bernoulli(0.5)) ising.AddCoupling(i, j, rng.UniformReal(-2, 2));
    }
  }
  std::vector<int8_t> s = {1, -1, 1, 1, -1, -1};
  for (VarId i = 0; i < 6; ++i) {
    double before = ising.Energy(s);
    double delta = ising.FlipDelta(s, i);
    s[static_cast<size_t>(i)] = static_cast<int8_t>(-s[static_cast<size_t>(i)]);
    EXPECT_NEAR(ising.Energy(s), before + delta, 1e-9);
    s[static_cast<size_t>(i)] = static_cast<int8_t>(-s[static_cast<size_t>(i)]);
  }
}

TEST(IsingTest, MaxAbsAccessors) {
  IsingProblem ising(3);
  ising.AddField(0, -3.0);
  ising.AddField(2, 1.0);
  ising.AddCoupling(0, 1, -0.25);
  ising.AddCoupling(1, 2, 0.75);
  EXPECT_DOUBLE_EQ(ising.MaxAbsField(), 3.0);
  EXPECT_DOUBLE_EQ(ising.MaxAbsCoupling(), 0.75);
}

class IsingConversionProperty : public ::testing::TestWithParam<int> {};

TEST_P(IsingConversionProperty, QuboToIsingPreservesEnergies) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 50);
  QuboProblem qubo = RandomQubo(rng.UniformInt(1, 10), 0.5, &rng);
  IsingWithOffset converted = QuboToIsing(qubo);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint8_t> x = RandomAssignment(qubo.num_vars(), &rng);
    std::vector<int8_t> s = AssignmentToSpins(x);
    EXPECT_NEAR(qubo.Energy(x), converted.ising.Energy(s) + converted.offset,
                1e-9);
  }
}

TEST_P(IsingConversionProperty, IsingToQuboPreservesEnergies) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 150);
  int n = rng.UniformInt(1, 10);
  IsingProblem ising(n);
  for (VarId i = 0; i < n; ++i) ising.AddField(i, rng.UniformReal(-3, 3));
  for (VarId i = 0; i < n; ++i) {
    for (VarId j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.4)) ising.AddCoupling(i, j, rng.UniformReal(-3, 3));
    }
  }
  QuboWithOffset converted = IsingToQubo(ising);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint8_t> x = RandomAssignment(n, &rng);
    std::vector<int8_t> s = AssignmentToSpins(x);
    EXPECT_NEAR(ising.Energy(s), converted.qubo.Energy(x) + converted.offset,
                1e-9);
  }
}

TEST_P(IsingConversionProperty, RoundTripPreservesEnergies) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 250);
  QuboProblem qubo = RandomQubo(rng.UniformInt(1, 8), 0.5, &rng);
  IsingWithOffset to_ising = QuboToIsing(qubo);
  QuboWithOffset back = IsingToQubo(to_ising.ising);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint8_t> x = RandomAssignment(qubo.num_vars(), &rng);
    EXPECT_NEAR(qubo.Energy(x),
                back.qubo.Energy(x) + back.offset + to_ising.offset, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsingConversionProperty,
                         ::testing::Range(0, 8));

TEST(SpinConversionTest, RoundTrip) {
  std::vector<uint8_t> x = {0, 1, 1, 0};
  std::vector<int8_t> expected_spins = {-1, 1, 1, -1};
  EXPECT_EQ(AssignmentToSpins(x), expected_spins);
  EXPECT_EQ(SpinsToAssignment(expected_spins), x);
}

// --------------------------------------------------------------------
// Exhaustive minimization
// --------------------------------------------------------------------

TEST(QuboBruteForceTest, SolvesTinyInstance) {
  QuboProblem problem(2);
  problem.AddLinear(0, -1.0);
  problem.AddLinear(1, 2.0);
  problem.AddQuadratic(0, 1, -4.0);
  auto result = SolveExhaustive(problem);
  ASSERT_TRUE(result.ok());
  // Setting both: -1 + 2 - 4 = -3 is minimal.
  EXPECT_DOUBLE_EQ(result->energy, -3.0);
  std::vector<uint8_t> expected = {1, 1};
  EXPECT_EQ(result->assignment, expected);
}

TEST(QuboBruteForceTest, CountsDegenerateOptima) {
  QuboProblem problem(2);  // all zero weights: all 4 states tie at 0
  auto result = SolveExhaustive(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->energy, 0.0);
  EXPECT_EQ(result->num_optima, 4);
}

TEST(QuboBruteForceTest, RejectsLargeInstances) {
  QuboProblem problem(30);
  auto result = SolveExhaustive(problem, /*max_vars=*/26);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

class QuboBruteForceProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuboBruteForceProperty, GrayCodeMatchesNaiveScan) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  QuboProblem problem = RandomQubo(rng.UniformInt(1, 10), 0.5, &rng);
  auto result = SolveExhaustive(problem);
  ASSERT_TRUE(result.ok());
  double naive_best = 1e300;
  int n = problem.num_vars();
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    std::vector<uint8_t> x(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) x[static_cast<size_t>(i)] = (mask >> i) & 1;
    naive_best = std::min(naive_best, problem.Energy(x));
  }
  EXPECT_NEAR(result->energy, naive_best, 1e-9);
  EXPECT_NEAR(problem.Energy(result->assignment), result->energy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuboBruteForceProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace qubo
}  // namespace qmqo
