// Unit and property tests for the MQO problem model, solutions, incremental
// evaluation, generators, clustering, brute force, and serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include "mqo/brute_force.h"
#include "mqo/clustering.h"
#include "mqo/generator.h"
#include "mqo/problem.h"
#include "mqo/serialization.h"
#include "mqo/solution.h"
#include "util/rng.h"

namespace qmqo {
namespace mqo {
namespace {

/// The running example of the paper (Example 1): two queries, two plans
/// each, costs 2/4/3/1, saving 5 between p2 and p3 (plan ids 1 and 2).
MqoProblem PaperExample() {
  MqoProblem problem;
  problem.AddQuery({2.0, 4.0});
  problem.AddQuery({3.0, 1.0});
  EXPECT_TRUE(problem.AddSaving(1, 2, 5.0).ok());
  return problem;
}

TEST(MqoProblemTest, BuildAndAccessors) {
  MqoProblem problem = PaperExample();
  EXPECT_EQ(problem.num_queries(), 2);
  EXPECT_EQ(problem.num_plans(), 4);
  EXPECT_EQ(problem.num_savings(), 1);
  EXPECT_EQ(problem.first_plan(0), 0);
  EXPECT_EQ(problem.first_plan(1), 2);
  EXPECT_EQ(problem.num_plans_of(0), 2);
  EXPECT_EQ(problem.query_of(0), 0);
  EXPECT_EQ(problem.query_of(3), 1);
  EXPECT_DOUBLE_EQ(problem.plan_cost(1), 4.0);
  EXPECT_DOUBLE_EQ(problem.max_plan_cost(), 4.0);
  EXPECT_DOUBLE_EQ(problem.total_plan_cost(), 10.0);
}

TEST(MqoProblemTest, SavingLookupIsSymmetric) {
  MqoProblem problem = PaperExample();
  EXPECT_DOUBLE_EQ(problem.saving_between(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(problem.saving_between(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(problem.saving_between(0, 3), 0.0);
}

TEST(MqoProblemTest, SavingsAccumulateOnDuplicatePairs) {
  MqoProblem problem = PaperExample();
  ASSERT_TRUE(problem.AddSaving(2, 1, 1.5).ok());
  EXPECT_EQ(problem.num_savings(), 1);
  EXPECT_DOUBLE_EQ(problem.saving_between(1, 2), 6.5);
  // The adjacency view stays in sync.
  ASSERT_EQ(problem.savings_of(1).size(), 1u);
  EXPECT_DOUBLE_EQ(problem.savings_of(1)[0].second, 6.5);
  EXPECT_DOUBLE_EQ(problem.savings_of(2)[0].second, 6.5);
}

TEST(MqoProblemTest, MaxAccumulatedSaving) {
  MqoProblem problem = PaperExample();
  ASSERT_TRUE(problem.AddSaving(1, 3, 2.0).ok());
  // Plan 1 now shares 5 + 2 = 7.
  EXPECT_DOUBLE_EQ(problem.max_accumulated_saving(), 7.0);
  EXPECT_DOUBLE_EQ(problem.accumulated_saving_of(1), 7.0);
  EXPECT_DOUBLE_EQ(problem.accumulated_saving_of(0), 0.0);
}

TEST(MqoProblemTest, AddSavingRejectsSameQuery) {
  MqoProblem problem = PaperExample();
  Status status = problem.AddSaving(0, 1, 1.0);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(MqoProblemTest, AddSavingRejectsSelfAndRangeAndNonPositive) {
  MqoProblem problem = PaperExample();
  EXPECT_EQ(problem.AddSaving(1, 1, 1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(problem.AddSaving(0, 99, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(problem.AddSaving(-1, 2, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(problem.AddSaving(0, 2, 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(problem.AddSaving(0, 2, -1.0).code(),
            StatusCode::kInvalidArgument);
}

TEST(MqoProblemTest, ValidateEmptyProblemFails) {
  MqoProblem problem;
  EXPECT_EQ(problem.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(MqoProblemTest, ValidateRejectsNegativeCost) {
  MqoProblem problem;
  problem.AddQuery({-1.0});
  EXPECT_EQ(problem.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(MqoProblemTest, SummaryMentionsCounts) {
  MqoProblem problem = PaperExample();
  EXPECT_EQ(problem.Summary(), "MQO(2 queries, 4 plans, 1 savings)");
}

// --------------------------------------------------------------------
// Solutions and cost
// --------------------------------------------------------------------

TEST(MqoSolutionTest, CompletenessTracking) {
  MqoSolution solution(2);
  EXPECT_FALSE(solution.IsComplete());
  solution.Select(0, 0);
  EXPECT_FALSE(solution.IsComplete());
  solution.Select(1, 2);
  EXPECT_TRUE(solution.IsComplete());
}

TEST(MqoSolutionTest, EvaluateCostAppliesSavings) {
  MqoProblem problem = PaperExample();
  MqoSolution solution(2);
  solution.Select(0, 1);  // cost 4
  solution.Select(1, 2);  // cost 3, shares 5 with plan 1
  EXPECT_DOUBLE_EQ(EvaluateCost(problem, solution), 2.0);
}

TEST(MqoSolutionTest, EvaluateCostWithoutSharedPlans) {
  MqoProblem problem = PaperExample();
  MqoSolution solution(2);
  solution.Select(0, 0);
  solution.Select(1, 3);
  EXPECT_DOUBLE_EQ(EvaluateCost(problem, solution), 3.0);
}

TEST(MqoSolutionTest, ValidateSolutionChecksOwnership) {
  MqoProblem problem = PaperExample();
  MqoSolution solution(2);
  solution.Select(0, 2);  // plan 2 belongs to query 1
  solution.Select(1, 3);
  EXPECT_EQ(ValidateSolution(problem, solution).code(),
            StatusCode::kInvalidArgument);
}

TEST(MqoSolutionTest, ValidateSolutionChecksCompleteness) {
  MqoProblem problem = PaperExample();
  MqoSolution solution(2);
  solution.Select(0, 0);
  EXPECT_EQ(ValidateSolution(problem, solution).code(),
            StatusCode::kFailedPrecondition);
}

TEST(MqoSolutionTest, ValidateSolutionAccepts) {
  MqoProblem problem = PaperExample();
  MqoSolution solution(2);
  solution.Select(0, 1);
  solution.Select(1, 2);
  EXPECT_TRUE(ValidateSolution(problem, solution).ok());
}

// --------------------------------------------------------------------
// Incremental evaluation: property — SwapDelta matches full re-evaluation.
// --------------------------------------------------------------------

class IncrementalEvalProperty : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalEvalProperty, SwapDeltaMatchesFullReevaluation) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  RandomWorkloadOptions options;
  options.num_queries = rng.UniformInt(2, 10);
  options.min_plans = 1;
  options.max_plans = 4;
  options.sharing_probability = 0.3;
  MqoProblem problem = GenerateRandomWorkload(options, &rng);

  MqoSolution solution(problem.num_queries());
  for (QueryId q = 0; q < problem.num_queries(); ++q) {
    solution.Select(q, problem.first_plan(q) +
                           rng.UniformInt(0, problem.num_plans_of(q) - 1));
  }
  IncrementalCostEvaluator eval(problem);
  eval.Reset(solution);
  EXPECT_NEAR(eval.cost(), EvaluateCost(problem, solution), 1e-9);

  for (int step = 0; step < 50; ++step) {
    QueryId q = rng.UniformInt(0, problem.num_queries() - 1);
    PlanId p = problem.first_plan(q) +
               rng.UniformInt(0, problem.num_plans_of(q) - 1);
    MqoSolution next = eval.ToSolution();
    next.Select(q, p);
    double expected_delta =
        EvaluateCost(problem, next) - EvaluateCost(problem, eval.ToSolution());
    EXPECT_NEAR(eval.SwapDelta(q, p), expected_delta, 1e-9);
    eval.ApplySwap(q, p);
    EXPECT_NEAR(eval.cost(), EvaluateCost(problem, next), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEvalProperty,
                         ::testing::Range(0, 12));

// --------------------------------------------------------------------
// Swap descent: the cached-delta descent against a full-rescan reference.
// --------------------------------------------------------------------

/// The full-rescan steepest descent SwapDescent must reproduce: every step
/// re-evaluates every plan and applies the first strictly best swap.
int ReferenceSwapDescent(const MqoProblem& problem, MqoSolution* solution) {
  IncrementalCostEvaluator eval(problem);
  eval.Reset(*solution);
  int swaps = 0;
  while (true) {
    QueryId best_query = -1;
    PlanId best_plan = -1;
    double best_delta = -1e-12;
    for (QueryId q = 0; q < problem.num_queries(); ++q) {
      for (int k = 0; k < problem.num_plans_of(q); ++k) {
        PlanId p = problem.first_plan(q) + k;
        if (p == eval.selected(q)) continue;
        double delta = eval.SwapDelta(q, p);
        if (delta < best_delta) {
          best_delta = delta;
          best_query = q;
          best_plan = p;
        }
      }
    }
    if (best_query < 0) break;
    eval.ApplySwap(best_query, best_plan);
    ++swaps;
  }
  if (swaps > 0) *solution = eval.ToSolution();
  return swaps;
}

uint64_t CostBits(const MqoProblem& problem, const MqoSolution& solution) {
  double cost = EvaluateCost(problem, solution);
  uint64_t bits;
  std::memcpy(&bits, &cost, sizeof(bits));
  return bits;
}

struct DescentCase {
  uint64_t seed;
  int plans_per_query;         ///< 0 = each query draws 2 to 5 plans
  double sharing_probability;  ///< 0 = no savings at all
  bool integral;               ///< small integer weights: many tied deltas
  double unselected_share;     ///< share of queries left kUnselected
  bool uniform = false;        ///< one cost and one saving value: all ties
};

void PrintTo(const DescentCase& c, std::ostream* out) {
  *out << "seed " << c.seed << ", " << c.plans_per_query << " plans, sharing "
       << c.sharing_probability << (c.integral ? ", integral" : "")
       << (c.uniform ? ", uniform" : "") << ", unselected "
       << c.unselected_share;
}

class SwapDescentProperty : public ::testing::TestWithParam<DescentCase> {};

TEST_P(SwapDescentProperty, MatchesFullRescanReference) {
  const DescentCase& param = GetParam();
  Rng rng(param.seed);
  int total_swaps = 0;
  for (int trial = 0; trial < 20; ++trial) {
    MqoProblem problem;
    const int num_queries = rng.UniformInt(3, 40);
    for (int q = 0; q < num_queries; ++q) {
      const int plans = param.plans_per_query > 0 ? param.plans_per_query
                                                  : rng.UniformInt(2, 5);
      std::vector<double> costs;
      for (int k = 0; k < plans; ++k) {
        costs.push_back(param.uniform    ? 5.0
                        : param.integral ? rng.UniformInt(1, 9)
                                         : rng.UniformReal(1.0, 10.0));
      }
      problem.AddQuery(costs);
    }
    for (PlanId a = 0; a < problem.num_plans(); ++a) {
      for (PlanId b = a + 1; b < problem.num_plans(); ++b) {
        if (problem.query_of(a) == problem.query_of(b)) continue;
        if (!rng.Bernoulli(param.sharing_probability)) continue;
        ASSERT_TRUE(problem
                        .AddSaving(a, b,
                                   param.uniform    ? 2.0
                                   : param.integral ? rng.UniformInt(1, 6)
                                                    : rng.UniformReal(0.1, 6.0))
                        .ok());
      }
    }
    MqoSolution start(num_queries);
    for (QueryId q = 0; q < num_queries; ++q) {
      if (rng.Bernoulli(param.unselected_share)) continue;
      start.Select(q, problem.first_plan(q) +
                          rng.UniformInt(0, problem.num_plans_of(q) - 1));
    }

    MqoSolution expected = start;
    const int expected_swaps = ReferenceSwapDescent(problem, &expected);
    MqoSolution actual = start;
    const int swaps = SwapDescent(problem, &actual);
    ASSERT_EQ(swaps, expected_swaps) << "trial " << trial;
    ASSERT_TRUE(actual == expected) << "trial " << trial;
    EXPECT_EQ(CostBits(problem, actual), CostBits(problem, expected))
        << "trial " << trial;
    total_swaps += swaps;

    // A descended solution is locally optimal: no swap, no change.
    MqoSolution again = actual;
    EXPECT_EQ(SwapDescent(problem, &again), 0) << "trial " << trial;
    EXPECT_TRUE(again == actual) << "trial " << trial;
  }
  EXPECT_GT(total_swaps, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Instances, SwapDescentProperty,
    ::testing::Values(DescentCase{1, 2, 0.3, false, 0.0},
                      DescentCase{2, 3, 0.3, false, 0.0},
                      DescentCase{3, 5, 0.2, false, 0.0},
                      DescentCase{4, 2, 0.0, false, 0.0},
                      DescentCase{5, 3, 0.0, true, 0.3},
                      DescentCase{6, 2, 0.5, true, 0.0},
                      DescentCase{7, 3, 0.4, true, 0.25},
                      DescentCase{8, 5, 0.3, false, 0.5},
                      DescentCase{9, 2, 0.3, true, 0.8},
                      DescentCase{10, 4, 0.3, true, 0.1},
                      DescentCase{11, 0, 0.3, false, 0.2},
                      DescentCase{12, 0, 0.4, true, 0.0, true},
                      DescentCase{13, 3, 0.5, true, 0.3, true}));

// A NaN swap delta fails every `<` comparison, so the full scan never picks
// it; the tournament must not either, wherever the NaN plan sits.
TEST(SwapDescentTest, NanDeltaNeverWins) {
  for (int nan_plan = 0; nan_plan < 6; ++nan_plan) {
    MqoProblem problem;
    std::vector<double> costs = {4.0, 3.0, 9.0, 1.0, 7.0, 2.0};
    costs[static_cast<size_t>(nan_plan)] = std::nan("");
    problem.AddQuery({costs[0], costs[1]});
    problem.AddQuery({costs[2], costs[3]});
    problem.AddQuery({costs[4], costs[5]});
    ASSERT_TRUE(problem.AddSaving(1, 3, 2.0).ok());
    ASSERT_TRUE(problem.AddSaving(3, 5, 1.0).ok());
    MqoSolution start(3);
    start.Select(0, 0);
    start.Select(1, 2);
    start.Select(2, 4);
    MqoSolution expected = start;
    const int expected_swaps = ReferenceSwapDescent(problem, &expected);
    MqoSolution actual = start;
    EXPECT_EQ(SwapDescent(problem, &actual), expected_swaps)
        << "NaN plan " << nan_plan;
    EXPECT_TRUE(actual == expected) << "NaN plan " << nan_plan;
    for (QueryId q = 0; q < 3; ++q) {
      if (actual.selected(q) != start.selected(q)) {
        EXPECT_NE(actual.selected(q), nan_plan);
      }
    }
  }
}

TEST(SwapDescentTest, PaperExampleReachesTheSharedOptimum) {
  MqoProblem problem = PaperExample();
  MqoSolution solution(2);
  solution.Select(0, 1);
  solution.Select(1, 3);
  // From cost 4 + 1 = 5, switching query 1 to plan 2 (delta -3) beats
  // switching query 0 to plan 0 (delta -2) and unlocks the saving of 5.
  EXPECT_EQ(SwapDescent(problem, &solution), 1);
  EXPECT_EQ(solution.selected(0), 1);
  EXPECT_EQ(solution.selected(1), 2);
  EXPECT_DOUBLE_EQ(EvaluateCost(problem, solution), 2.0);
}

// --------------------------------------------------------------------
// Brute force
// --------------------------------------------------------------------

TEST(BruteForceTest, PaperExampleOptimum) {
  MqoProblem problem = PaperExample();
  auto result = SolveExhaustive(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->cost, 2.0);
  EXPECT_EQ(result->solution.selected(0), 1);
  EXPECT_EQ(result->solution.selected(1), 2);
  EXPECT_EQ(result->states_visited, 4u);
}

TEST(BruteForceTest, RespectsStateLimit) {
  MqoProblem problem;
  for (int q = 0; q < 30; ++q) problem.AddQuery({1.0, 2.0});
  auto result = SolveExhaustive(problem, /*max_states=*/1 << 10);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

class BruteForceProperty : public ::testing::TestWithParam<int> {};

TEST_P(BruteForceProperty, MatchesNaiveEnumeration) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  RandomWorkloadOptions options;
  options.num_queries = rng.UniformInt(2, 6);
  options.min_plans = 1;
  options.max_plans = 3;
  options.sharing_probability = 0.4;
  MqoProblem problem = GenerateRandomWorkload(options, &rng);

  auto result = SolveExhaustive(problem);
  ASSERT_TRUE(result.ok());
  // Naive: enumerate with nested counters and EvaluateCost.
  std::vector<int> index(static_cast<size_t>(problem.num_queries()), 0);
  double naive_best = 1e300;
  while (true) {
    MqoSolution solution(problem.num_queries());
    for (QueryId q = 0; q < problem.num_queries(); ++q) {
      solution.Select(q, problem.first_plan(q) + index[static_cast<size_t>(q)]);
    }
    naive_best = std::min(naive_best, EvaluateCost(problem, solution));
    int q = 0;
    while (q < problem.num_queries()) {
      size_t uq = static_cast<size_t>(q);
      if (++index[uq] < problem.num_plans_of(q)) break;
      index[uq] = 0;
      ++q;
    }
    if (q == problem.num_queries()) break;
  }
  EXPECT_NEAR(result->cost, naive_best, 1e-9);
  EXPECT_NEAR(EvaluateCost(problem, result->solution), result->cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BruteForceProperty, ::testing::Range(0, 10));

// --------------------------------------------------------------------
// Generators
// --------------------------------------------------------------------

TEST(GeneratorTest, RandomWorkloadIsValidAndSized) {
  Rng rng(5);
  RandomWorkloadOptions options;
  options.num_queries = 12;
  options.min_plans = 2;
  options.max_plans = 4;
  options.sharing_probability = 0.2;
  MqoProblem problem = GenerateRandomWorkload(options, &rng);
  EXPECT_TRUE(problem.Validate().ok());
  EXPECT_EQ(problem.num_queries(), 12);
  for (QueryId q = 0; q < problem.num_queries(); ++q) {
    EXPECT_GE(problem.num_plans_of(q), 2);
    EXPECT_LE(problem.num_plans_of(q), 4);
  }
}

TEST(GeneratorTest, RandomWorkloadIntegralValues) {
  Rng rng(6);
  RandomWorkloadOptions options;
  options.num_queries = 8;
  options.integral = true;
  options.sharing_probability = 0.5;
  MqoProblem problem = GenerateRandomWorkload(options, &rng);
  for (PlanId p = 0; p < problem.num_plans(); ++p) {
    EXPECT_DOUBLE_EQ(problem.plan_cost(p), std::round(problem.plan_cost(p)));
  }
  for (const Saving& s : problem.savings()) {
    EXPECT_DOUBLE_EQ(s.value, std::round(s.value));
  }
}

TEST(GeneratorTest, DeterministicInSeed) {
  RandomWorkloadOptions options;
  options.num_queries = 10;
  options.sharing_probability = 0.3;
  Rng rng1(77);
  Rng rng2(77);
  MqoProblem a = GenerateRandomWorkload(options, &rng1);
  MqoProblem b = GenerateRandomWorkload(options, &rng2);
  EXPECT_EQ(ToText(a), ToText(b));
}

TEST(GeneratorTest, ClusteredWorkloadRespectsClusterStructure) {
  Rng rng(9);
  ClusteredWorkloadOptions options;
  options.num_clusters = 3;
  options.queries_per_cluster = 2;
  options.plans_per_query = 2;
  options.intra_cluster_probability = 1.0;
  options.inter_cluster_probability = 0.0;
  MqoProblem problem = GenerateClusteredWorkload(options, &rng);
  EXPECT_EQ(problem.num_queries(), 6);
  for (const Saving& s : problem.savings()) {
    int cluster_a = problem.query_of(s.plan_a) / 2;
    int cluster_b = problem.query_of(s.plan_b) / 2;
    EXPECT_EQ(cluster_a, cluster_b);
  }
  EXPECT_GT(problem.num_savings(), 0);
}

TEST(GeneratorTest, ChainWorkloadLinksOnlyNeighbors) {
  Rng rng(10);
  ChainWorkloadOptions options;
  options.num_queries = 6;
  options.plans_per_query = 2;
  options.link_probability = 1.0;
  MqoProblem problem = GenerateChainWorkload(options, &rng);
  for (const Saving& s : problem.savings()) {
    int qa = problem.query_of(s.plan_a);
    int qb = problem.query_of(s.plan_b);
    EXPECT_EQ(std::abs(qa - qb), 1);
  }
  // Full link probability: every adjacent plan pair shares.
  EXPECT_EQ(problem.num_savings(), 5 * 2 * 2);
}

// --------------------------------------------------------------------
// Clustering
// --------------------------------------------------------------------

TEST(ClusteringTest, ConnectedComponentsOfChain) {
  Rng rng(11);
  ChainWorkloadOptions options;
  options.num_queries = 5;
  options.link_probability = 1.0;
  MqoProblem problem = GenerateChainWorkload(options, &rng);
  QueryClustering clustering = ClusterByConnectedComponents(problem);
  EXPECT_EQ(clustering.num_clusters(), 1);
  EXPECT_EQ(CountCrossClusterSavings(problem, clustering), 0);
}

TEST(ClusteringTest, IsolatedQueriesAreSingletons) {
  MqoProblem problem;
  problem.AddQuery({1.0});
  problem.AddQuery({2.0});
  problem.AddQuery({3.0});
  QueryClustering clustering = ClusterByConnectedComponents(problem);
  EXPECT_EQ(clustering.num_clusters(), 3);
}

TEST(ClusteringTest, TwoComponents) {
  MqoProblem problem;
  problem.AddQuery({1.0, 2.0});
  problem.AddQuery({1.0, 2.0});
  problem.AddQuery({1.0, 2.0});
  problem.AddQuery({1.0, 2.0});
  ASSERT_TRUE(problem.AddSaving(0, 2, 1.0).ok());  // queries 0-1
  ASSERT_TRUE(problem.AddSaving(4, 6, 1.0).ok());  // queries 2-3
  QueryClustering clustering = ClusterByConnectedComponents(problem);
  EXPECT_EQ(clustering.num_clusters(), 2);
  EXPECT_EQ(clustering.cluster_of[0], clustering.cluster_of[1]);
  EXPECT_EQ(clustering.cluster_of[2], clustering.cluster_of[3]);
  EXPECT_NE(clustering.cluster_of[0], clustering.cluster_of[2]);
}

TEST(ClusteringTest, SizeCapSplitsComponents) {
  Rng rng(12);
  ChainWorkloadOptions options;
  options.num_queries = 9;
  options.link_probability = 1.0;
  MqoProblem problem = GenerateChainWorkload(options, &rng);
  QueryClustering clustering = ClusterWithSizeCap(problem, 3);
  EXPECT_EQ(clustering.num_clusters(), 3);
  for (const auto& members : clustering.members) {
    EXPECT_LE(members.size(), 3u);
  }
  // Every query appears in exactly one cluster.
  std::vector<int> seen(9, 0);
  for (const auto& members : clustering.members) {
    for (QueryId q : members) seen[static_cast<size_t>(q)]++;
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

// --------------------------------------------------------------------
// Serialization
// --------------------------------------------------------------------

TEST(SerializationTest, RoundTripPreservesEverything) {
  Rng rng(13);
  RandomWorkloadOptions options;
  options.num_queries = 7;
  options.min_plans = 1;
  options.max_plans = 3;
  options.sharing_probability = 0.4;
  options.integral = false;
  MqoProblem problem = GenerateRandomWorkload(options, &rng);
  auto restored = FromText(ToText(problem));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(ToText(problem), ToText(*restored));
}

TEST(SerializationTest, RejectsMissingHeader) {
  EXPECT_FALSE(FromText("query 1 2\nend\n").ok());
}

TEST(SerializationTest, RejectsMissingEnd) {
  EXPECT_FALSE(FromText("mqo v1\nquery 1 2\n").ok());
}

TEST(SerializationTest, RejectsBadCost) {
  EXPECT_FALSE(FromText("mqo v1\nquery abc\nend\n").ok());
}

TEST(SerializationTest, RejectsBadSaving) {
  // Saving between plans of the same query.
  EXPECT_FALSE(FromText("mqo v1\nquery 1 2\nsaving 0 1 3\nend\n").ok());
}

TEST(SerializationTest, IgnoresCommentsAndBlankLines) {
  auto result =
      FromText("# workload\nmqo v1\n\nquery 1 2\nquery 3 4\n# done\nend\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_queries(), 2);
}

TEST(SerializationTest, FileRoundTrip) {
  MqoProblem problem = PaperExample();
  std::string path = ::testing::TempDir() + "/mqo_roundtrip.txt";
  ASSERT_TRUE(SaveToFile(problem, path).ok());
  auto loaded = LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(ToText(problem), ToText(*loaded));
}

TEST(SerializationTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadFromFile("/nonexistent/path/x.mqo").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace mqo
}  // namespace qmqo
