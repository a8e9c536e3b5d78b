// End-to-end tests of Algorithm 1: MQO -> logical QUBO -> embedded QUBO ->
// (simulated) annealing -> unembedding -> plan selection, checked against
// exhaustive ground truth on chips small enough to verify.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>

#include "chimera/topology.h"
#include "harness/paper_workload.h"
#include "harness/quantum_pipeline.h"
#include "mqo/brute_force.h"
#include "util/fault.h"
#include "util/rng.h"

namespace qmqo {
namespace {

using chimera::ChimeraGraph;
using harness::GeneratePaperInstance;
using harness::PaperWorkloadOptions;
using harness::QuantumMqoOptions;
using harness::SolveQuantumMqo;

struct PipelineCase {
  int seed;
  int plans_per_query;
  int num_queries;
};

class PipelineProperty : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineProperty, FindsOptimalSolutionOnSmallChip) {
  const PipelineCase& param = GetParam();
  ChimeraGraph graph(2, 2, 4);
  PaperWorkloadOptions workload;
  workload.plans_per_query = param.plans_per_query;
  workload.num_queries = param.num_queries;
  Rng rng(static_cast<uint64_t>(param.seed));
  auto instance = GeneratePaperInstance(graph, workload, &rng);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  auto exact = mqo::SolveExhaustive(instance->problem);
  ASSERT_TRUE(exact.ok());

  QuantumMqoOptions options;
  options.device.num_reads = 300;
  options.device.num_gauges = 10;
  options.device.sa_sweeps = 48;
  options.device.control_error = 0.015;
  options.device.seed = static_cast<uint64_t>(param.seed) * 13 + 1;
  auto result =
      SolveQuantumMqo(instance->problem, instance->embedding, graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The returned solution is valid and (with 300 reads on these tiny
  // instances) optimal.
  EXPECT_TRUE(
      mqo::ValidateSolution(instance->problem, result->best_solution).ok());
  EXPECT_NEAR(result->best_cost, exact->cost, 1e-9);
  EXPECT_NEAR(mqo::EvaluateCost(instance->problem, result->best_solution),
              result->best_cost, 1e-9);
  // Measurement metadata is populated.
  EXPECT_GT(result->preprocessing_ms, 0.0);
  EXPECT_DOUBLE_EQ(result->device_time_us, 300 * 376.0);
  EXPECT_FALSE(result->cost_vs_device_time.empty());
  EXPECT_GT(result->physical_qubits, 0);
  EXPECT_GE(result->first_read_cost, result->best_cost - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SmallChips, PipelineProperty,
    ::testing::Values(PipelineCase{1, 2, 6}, PipelineCase{2, 2, 10},
                      PipelineCase{3, 3, 4}, PipelineCase{4, 3, 6},
                      PipelineCase{5, 4, 4}, PipelineCase{6, 5, 3},
                      PipelineCase{7, 2, 16}, PipelineCase{8, 5, 4}));

TEST(PipelineTest, WorksOnDefectiveChip) {
  ChimeraGraph graph(3, 3, 4);
  Rng defect_rng(42);
  graph.BreakRandom(8, &defect_rng);
  PaperWorkloadOptions workload;
  workload.plans_per_query = 3;
  Rng rng(9);
  auto instance = GeneratePaperInstance(graph, workload, &rng);
  ASSERT_TRUE(instance.ok());
  ASSERT_LE(instance->problem.num_queries() * 3, 36);

  QuantumMqoOptions options;
  options.device.num_reads = 200;
  options.device.sa_sweeps = 48;
  auto result =
      SolveQuantumMqo(instance->problem, instance->embedding, graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto exact = mqo::SolveExhaustive(instance->problem);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(result->best_cost, exact->cost, 1e-9);
}

TEST(PipelineTest, DeterministicGivenSeeds) {
  ChimeraGraph graph(2, 2, 4);
  PaperWorkloadOptions workload;
  workload.plans_per_query = 2;
  workload.num_queries = 8;
  Rng rng1(10);
  Rng rng2(10);
  auto a = GeneratePaperInstance(graph, workload, &rng1);
  auto b = GeneratePaperInstance(graph, workload, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  QuantumMqoOptions options;
  options.device.num_reads = 64;
  options.device.seed = 777;
  auto result_a = SolveQuantumMqo(a->problem, a->embedding, graph, options);
  auto result_b = SolveQuantumMqo(b->problem, b->embedding, graph, options);
  ASSERT_TRUE(result_a.ok());
  ASSERT_TRUE(result_b.ok());
  EXPECT_EQ(result_a->best_cost, result_b->best_cost);
  EXPECT_TRUE(result_a->best_solution == result_b->best_solution);
}

TEST(PipelineTest, SqaBackendEndToEnd) {
  ChimeraGraph graph(2, 2, 4);
  PaperWorkloadOptions workload;
  workload.plans_per_query = 2;
  workload.num_queries = 5;
  Rng rng(11);
  auto instance = GeneratePaperInstance(graph, workload, &rng);
  ASSERT_TRUE(instance.ok());
  auto exact = mqo::SolveExhaustive(instance->problem);
  ASSERT_TRUE(exact.ok());

  QuantumMqoOptions options;
  options.device.backend = anneal::DeviceBackend::kSimulatedQuantumAnnealing;
  options.device.num_reads = 40;
  options.device.num_gauges = 4;
  options.device.control_error = 0.01;
  options.device.sqa.num_slices = 8;
  options.device.sqa.sweeps = 96;
  auto result =
      SolveQuantumMqo(instance->problem, instance->embedding, graph, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->best_cost, exact->cost, 1e-9);
}

TEST(PipelineTest, FirstReadQualityIsNearOptimalOnPaperLikeChip) {
  // The paper's headline: the very first annealing run is already close
  // to the optimum. Verify the shape on a mid-size chip: first read within
  // 15% of the best-known cost.
  ChimeraGraph graph(4, 4, 4);
  PaperWorkloadOptions workload;
  workload.plans_per_query = 2;
  Rng rng(12);
  auto instance = GeneratePaperInstance(graph, workload, &rng);
  ASSERT_TRUE(instance.ok());

  QuantumMqoOptions options;
  options.device.num_reads = 500;
  options.device.sa_sweeps = 64;
  auto result =
      SolveQuantumMqo(instance->problem, instance->embedding, graph, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->first_read_cost,
            1.15 * result->best_cost + 1e-9);
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// The read-out fans reads out over the device executor; every output must
// be bit-identical to the single-thread (inline) read-out, with and without
// broken chains and compacted (dropped) reads.
TEST(ReadOutTest, BitIdenticalAcrossThreadCounts) {
  // The 3-plan class embeds with multi-qubit chains, so chain-break
  // faults actually break chains.
  ChimeraGraph graph(4, 4, 4);
  PaperWorkloadOptions workload;
  workload.plans_per_query = 3;
  Rng rng(21);
  auto instance = GeneratePaperInstance(graph, workload, &rng);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  for (bool with_faults : {false, true}) {
    util::FaultInjector faults(99);
    util::FaultSpec chain_break;
    chain_break.probability = 0.6;
    chain_break.intensity = 4;
    faults.Arm("device.chain_break", chain_break);
    util::FaultSpec dropout;
    dropout.probability = 0.2;
    faults.Arm("device.read_dropout", dropout);

    auto run = [&](int threads) {
      QuantumMqoOptions options;
      options.device.num_reads = 60;
      options.device.num_gauges = 3;
      options.device.sa_sweeps = 32;
      options.device.seed = 31;
      options.device.num_threads = threads;
      if (with_faults) options.faults = &faults;
      auto result = SolveQuantumMqo(instance->problem, instance->embedding,
                                    graph, options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      return result.ok() ? std::move(result).value()
                         : harness::QuantumMqoResult();
    };

    const harness::QuantumMqoResult reference = run(1);
    if (with_faults) {
      EXPECT_GT(reference.dropped_reads, 0);
      EXPECT_GT(reference.broken_chain_read_fraction, 0.0);
    } else {
      EXPECT_EQ(reference.dropped_reads, 0);
    }
    EXPECT_TRUE(
        mqo::ValidateSolution(instance->problem, reference.best_solution).ok());
    EXPECT_EQ(Bits(mqo::EvaluateCost(instance->problem,
                                     reference.best_solution)),
              Bits(reference.best_cost));
    for (int threads : {2, 4}) {
      SCOPED_TRACE(testing::Message() << "faults " << with_faults
                                      << ", threads " << threads);
      const harness::QuantumMqoResult other = run(threads);
      EXPECT_TRUE(other.best_solution == reference.best_solution);
      EXPECT_EQ(Bits(other.best_cost), Bits(reference.best_cost));
      EXPECT_EQ(Bits(other.first_read_cost), Bits(reference.first_read_cost));
      EXPECT_EQ(Bits(other.broken_chain_read_fraction),
                Bits(reference.broken_chain_read_fraction));
      EXPECT_EQ(Bits(other.valid_read_fraction),
                Bits(reference.valid_read_fraction));
      const auto& points = other.cost_vs_device_time.points();
      const auto& expected = reference.cost_vs_device_time.points();
      ASSERT_EQ(points.size(), expected.size());
      for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(Bits(points[i].time_ms), Bits(expected[i].time_ms)) << i;
        EXPECT_EQ(Bits(points[i].cost), Bits(expected[i].cost)) << i;
      }
    }
  }
}

}  // namespace
}  // namespace qmqo
