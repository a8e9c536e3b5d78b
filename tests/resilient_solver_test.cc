// Tests for the resilient solve orchestrator: the degradation ladder under
// injected chaos, retry/backoff/deadline policy mechanics, and report
// determinism across thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "chimera/topology.h"
#include "harness/paper_workload.h"
#include "harness/quantum_pipeline.h"
#include "harness/resilient_solver.h"
#include "mqo/solution.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/status.h"
#include "workloads/max_clique.h"

namespace qmqo {
namespace harness {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("QMQO_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

class ResilientSolverTest : public ::testing::Test {
 protected:
  ResilientSolverTest() : graph_(4, 4, 4) {
    Rng rng(ChaosSeed());
    PaperWorkloadOptions workload;
    workload.plans_per_query = 2;
    workload.num_queries = 12;
    auto instance = GeneratePaperInstance(graph_, workload, &rng);
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    instance_ = *std::move(instance);
  }

  QuantumMqoOptions SmallOptions() const {
    QuantumMqoOptions options;
    options.device.num_reads = 40;
    options.device.num_gauges = 4;
    options.device.sa_sweeps = 16;
    options.device.seed = ChaosSeed() + 7;
    return options;
  }

  SolvePolicy QuickPolicy() const {
    SolvePolicy policy;
    policy.seed = ChaosSeed();
    policy.max_attempts_per_backend = 2;
    policy.sqa_reads = 4;
    policy.sqa_slices = 4;
    policy.sqa_sweeps = 16;
    policy.sa_reads = 8;
    policy.sa_sweeps = 32;
    return policy;
  }

  SolveReport Run(const SolvePolicy& policy) const {
    return ResilientSolver(policy).Solve(instance_.problem,
                                         instance_.embedding, graph_,
                                         SmallOptions());
  }

  chimera::ChimeraGraph graph_;
  PaperInstance instance_{};
};

TEST_F(ResilientSolverTest, NoFaultRunAnswersOnDeviceFirstTry) {
  SolveReport report = Run(QuickPolicy());
  ASSERT_TRUE(report.ok) << report.final_status.ToString();
  EXPECT_EQ(report.backend, SolveBackend::kDevice);
  EXPECT_EQ(report.total_attempts, 1);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.fallbacks, 0);
  EXPECT_EQ(report.faults_observed, 0);
  EXPECT_FALSE(report.deadline_exhausted);
  EXPECT_TRUE(
      mqo::ValidateSolution(instance_.problem, report.solution).ok());

  // The no-fault resilient answer is exactly the plain pipeline's answer.
  auto plain = SolveQuantumMqo(instance_.problem, instance_.embedding,
                               graph_, SmallOptions());
  ASSERT_TRUE(plain.ok());
  double plain_cost = mqo::EvaluateCost(instance_.problem,
                                        plain->best_solution);
  EXPECT_EQ(report.cost, plain_cost);
}

// ISSUE acceptance scenario: the device fails 100% of its programming
// cycles; the orchestrator must still return a valid MQO solution through
// the degraded ladder, within the deadline, with the full failure chain
// visible in the report. No aborts, no exceptions.
TEST_F(ResilientSolverTest, DeviceDeadChaosStillYieldsValidSolution) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("device.program", always);

  SolvePolicy policy = QuickPolicy();
  policy.faults = &faults;
  policy.deadline_ms = 60000.0;
  SolveReport report = Run(policy);

  ASSERT_TRUE(report.ok) << report.FailureChain();
  EXPECT_NE(report.backend, SolveBackend::kDevice);
  EXPECT_TRUE(
      mqo::ValidateSolution(instance_.problem, report.solution).ok());
  EXPECT_GT(report.faults_observed, 0);
  // Both device attempts failed before a degraded backend answered.
  EXPECT_GE(report.total_attempts, 3);
  EXPECT_EQ(report.retries, 1);
  EXPECT_GE(report.fallbacks, 1);
  // The failure chain narrates every device failure and the final success.
  std::string chain = report.FailureChain();
  EXPECT_NE(chain.find("device#1"), std::string::npos) << chain;
  EXPECT_NE(chain.find("device#2"), std::string::npos) << chain;
  EXPECT_NE(chain.find("OK (cost"), std::string::npos) << chain;
}

TEST_F(ResilientSolverTest, LadderBottomsOutAtGreedyWhenAllSamplersFail) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("solve.device", always);
  faults.Arm("solve.sqa", always);
  faults.Arm("solve.sa", always);

  SolvePolicy policy = QuickPolicy();
  policy.faults = &faults;
  SolveReport report = Run(policy);

  ASSERT_TRUE(report.ok) << report.FailureChain();
  EXPECT_EQ(report.backend, SolveBackend::kGreedy);
  EXPECT_EQ(report.fallbacks, 3);
  EXPECT_TRUE(
      mqo::ValidateSolution(instance_.problem, report.solution).ok());
}

TEST_F(ResilientSolverTest, EveryBackendFaultedReportsLastError) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("solve.device", always);
  faults.Arm("solve.sqa", always);
  faults.Arm("solve.sa", always);
  faults.Arm("solve.greedy", always);

  SolvePolicy policy = QuickPolicy();
  policy.faults = &faults;
  SolveReport report = Run(policy);

  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.final_status.ok());
  EXPECT_EQ(report.total_attempts, 8);  // 2 attempts x 4 backends
  EXPECT_EQ(report.retries, 4);
}

TEST_F(ResilientSolverTest, FailFirstScheduleRecoversOnRetry) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec once;
  once.fail_first = 1;  // attempt 1 (key 0) fails; attempt 2 succeeds
  faults.Arm("solve.device", once);

  SolvePolicy policy = QuickPolicy();
  policy.faults = &faults;
  SolveReport report = Run(policy);

  ASSERT_TRUE(report.ok) << report.FailureChain();
  EXPECT_EQ(report.backend, SolveBackend::kDevice);
  EXPECT_EQ(report.total_attempts, 2);
  EXPECT_EQ(report.retries, 1);
  EXPECT_EQ(report.fallbacks, 0);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_FALSE(report.attempts[0].status.ok());
  EXPECT_TRUE(report.attempts[1].status.ok());
}

// A saving whose two chains share no usable coupler cannot compile onto the
// layout: the device fails with FailedPrecondition on any attempt, so the
// ladder degrades at once. No retry, no backoff, no jitter draw.
TEST_F(ResilientSolverTest, DeterministicFailureIsNotRetried) {
  auto chains_touch = [&](int a, int b) {
    for (chimera::QubitId qa : instance_.embedding.chain(a).qubits) {
      for (chimera::QubitId qb : instance_.embedding.chain(b).qubits) {
        if (graph_.CouplerUsable(qa, qb)) return true;
      }
    }
    return false;
  };
  mqo::MqoProblem problem = instance_.problem;
  bool added = false;
  for (int a = 0; a < problem.num_plans() && !added; ++a) {
    for (int b = a + 1; b < problem.num_plans() && !added; ++b) {
      if (problem.query_of(a) != problem.query_of(b) && !chains_touch(a, b)) {
        added = problem.AddSaving(a, b, 1.0).ok();
      }
    }
  }
  ASSERT_TRUE(added);

  SolvePolicy policy = QuickPolicy();
  policy.max_attempts_per_backend = 3;
  policy.backoff_initial_ms = 50.0;
  SolveReport report = ResilientSolver(policy).Solve(
      problem, instance_.embedding, graph_, SmallOptions());

  ASSERT_TRUE(report.ok) << report.FailureChain();
  ASSERT_EQ(report.attempts.size(), 2u) << report.FailureChain();
  const SolveAttempt& device = report.attempts[0];
  EXPECT_EQ(device.backend, SolveBackend::kDevice);
  EXPECT_EQ(device.attempt, 1);
  EXPECT_EQ(device.status.code(), StatusCode::kFailedPrecondition)
      << device.status.ToString();
  EXPECT_DOUBLE_EQ(device.backoff_ms, 0.0);
  EXPECT_EQ(report.attempts[1].backend, SolveBackend::kSqa);
  EXPECT_EQ(report.attempts[1].attempt, 1);
  EXPECT_EQ(report.backend, SolveBackend::kSqa);
  EXPECT_EQ(report.total_attempts, 2);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.fallbacks, 1);
  EXPECT_DOUBLE_EQ(report.total_modeled_ms, 0.0);
  EXPECT_TRUE(mqo::ValidateSolution(problem, report.solution).ok());
}

TEST_F(ResilientSolverTest, InjectedLatencyTimesOutTheAttempt) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec slow;
  slow.probability = 1.0;
  slow.latency_ms = 1e6;  // modeled, not slept
  faults.Arm("device.latency", slow);

  SolvePolicy policy = QuickPolicy();
  policy.faults = &faults;
  policy.attempt_timeout_ms = 1000.0;
  policy.max_attempts_per_backend = 1;
  SolveReport report = Run(policy);

  ASSERT_TRUE(report.ok) << report.FailureChain();
  EXPECT_NE(report.backend, SolveBackend::kDevice);
  ASSERT_FALSE(report.attempts.empty());
  EXPECT_EQ(report.attempts[0].status.code(), StatusCode::kTimeout);
  EXPECT_GE(report.attempts[0].modeled_ms, 1e6);
}

TEST_F(ResilientSolverTest, ModeledLatencyExhaustsTheDeadline) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec slow;
  slow.probability = 1.0;
  slow.latency_ms = 1e6;
  faults.Arm("device.latency", slow);
  util::FaultSpec broken;
  broken.probability = 1.0;
  faults.Arm("device.program", broken);

  SolvePolicy policy = QuickPolicy();
  policy.faults = &faults;
  policy.deadline_ms = 2000.0;
  SolveReport report = Run(policy);

  // The first device attempt charges ~4e6 modeled ms, blowing the budget;
  // the orchestrator skips to the last resort, which always runs.
  ASSERT_TRUE(report.ok) << report.FailureChain();
  EXPECT_EQ(report.backend, SolveBackend::kGreedy);
  EXPECT_TRUE(report.deadline_exhausted);
  EXPECT_GE(report.total_modeled_ms, 1e6);
  EXPECT_TRUE(
      mqo::ValidateSolution(instance_.problem, report.solution).ok());
}

TEST_F(ResilientSolverTest, BackoffIsModeledChargedAndJittered) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("solve.device", always);

  SolvePolicy policy = QuickPolicy();
  policy.faults = &faults;
  policy.max_attempts_per_backend = 3;
  policy.backoff_initial_ms = 100.0;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter = 0.25;
  SolveReport report = Run(policy);

  ASSERT_TRUE(report.ok) << report.FailureChain();
  ASSERT_GE(report.attempts.size(), 3u);
  const SolveAttempt& first = report.attempts[0];
  const SolveAttempt& second = report.attempts[1];
  // Jittered exponential: within +-25% of 100 ms and 200 ms respectively.
  EXPECT_GE(first.backoff_ms, 75.0);
  EXPECT_LE(first.backoff_ms, 125.0);
  EXPECT_GE(second.backoff_ms, 150.0);
  EXPECT_LE(second.backoff_ms, 250.0);
  // The last attempt of the backend takes no backoff.
  EXPECT_DOUBLE_EQ(report.attempts[2].backoff_ms, 0.0);
  // Modeled, not slept: total wall time stays far below the backoff sum.
  EXPECT_LT(report.total_wall_ms, first.backoff_ms + second.backoff_ms);
  EXPECT_GE(report.total_modeled_ms, first.backoff_ms + second.backoff_ms);
}

TEST_F(ResilientSolverTest, ChainBreakStormTriggersFreshGaugeRetry) {
  // Chain breaks need multi-qubit chains: the l = 3 workload embeds one
  // plan per query on a 2-qubit chain (l = 2 chains are singletons).
  Rng rng(ChaosSeed() + 3);
  PaperWorkloadOptions workload;
  workload.plans_per_query = 3;
  workload.num_queries = 8;
  auto instance = GeneratePaperInstance(graph_, workload, &rng);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec storm;
  storm.probability = 1.0;
  storm.intensity = 16;
  faults.Arm("device.chain_break", storm);

  SolvePolicy policy = QuickPolicy();
  policy.faults = &faults;
  policy.chain_break_storm_fraction = 0.05;
  SolveReport report = ResilientSolver(policy).Solve(
      instance->problem, instance->embedding, graph_, SmallOptions());

  ASSERT_TRUE(report.ok) << report.FailureChain();
  // Every device read is corrupted, so both device attempts are classified
  // as storms and a degraded backend answers.
  ASSERT_GE(report.attempts.size(), 2u);
  EXPECT_NE(report.attempts[0].status.ToString().find("chain-break storm"),
            std::string::npos)
      << report.FailureChain();
  EXPECT_GE(report.attempts[0].broken_chain_fraction, 0.05);
  EXPECT_NE(report.backend, SolveBackend::kDevice);
}

TEST_F(ResilientSolverTest, CustomLadderIsHonored) {
  SolvePolicy policy = QuickPolicy();
  policy.ladder = {SolveBackend::kSa, SolveBackend::kGreedy};
  SolveReport report = Run(policy);
  ASSERT_TRUE(report.ok) << report.FailureChain();
  EXPECT_EQ(report.backend, SolveBackend::kSa);
  EXPECT_TRUE(
      mqo::ValidateSolution(instance_.problem, report.solution).ok());
}

// A bare QUBO has no device attempt. As the last resort the device rung is
// never gated, so it runs and fails with a typed Unimplemented instead of
// crashing or answering.
TEST_F(ResilientSolverTest, BareQuboWithDeviceLastResortFailsTyped) {
  auto clique = workloads::MaxCliqueWorkload::MakePlanted(12, 4, 0.35,
                                                          ChaosSeed() + 50);
  ASSERT_TRUE(clique.ok()) << clique.status().ToString();
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("solve.sa", always);

  SolvePolicy policy = QuickPolicy();
  policy.faults = &faults;
  policy.ladder = {SolveBackend::kSa, SolveBackend::kDevice};
  SolveReport report =
      ResilientSolver(policy).SolveQubo((*clique)->qubo(), SmallOptions());

  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.final_status.code(), StatusCode::kUnimplemented)
      << report.FailureChain();
  ASSERT_FALSE(report.attempts.empty());
  EXPECT_EQ(report.attempts.back().backend, SolveBackend::kDevice);
  EXPECT_GE(report.attempts.back().attempt, 1);
  EXPECT_TRUE(report.qubo_assignment.empty());
}

// MQO and bare-QUBO solves run one ladder: under the same classical ladder,
// policy, and faults they take the same attempts, charge the same modeled
// time, and count the same retries and fallbacks.
TEST_F(ResilientSolverTest, MqoAndBareQuboShareTheLadder) {
  auto clique = workloads::MaxCliqueWorkload::MakePlanted(12, 4, 0.35,
                                                          ChaosSeed() + 51);
  ASSERT_TRUE(clique.ok()) << clique.status().ToString();
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec once;
  once.fail_first = 1;
  once.latency_ms = 2.0;
  faults.Arm("solve.sqa", once);

  SolvePolicy policy = QuickPolicy();
  policy.faults = &faults;
  policy.backoff_initial_ms = 1.0;
  policy.ladder = {SolveBackend::kSqa, SolveBackend::kSa,
                   SolveBackend::kGreedy};
  const SolveReport mqo = Run(policy);
  const SolveReport bare =
      ResilientSolver(policy).SolveQubo((*clique)->qubo(), SmallOptions());

  ASSERT_TRUE(mqo.ok) << mqo.FailureChain();
  ASSERT_TRUE(bare.ok) << bare.FailureChain();
  ASSERT_EQ(mqo.attempts.size(), bare.attempts.size());
  for (size_t i = 0; i < mqo.attempts.size(); ++i) {
    const SolveAttempt& a = mqo.attempts[i];
    const SolveAttempt& b = bare.attempts[i];
    EXPECT_EQ(a.backend, b.backend) << i;
    EXPECT_EQ(a.attempt, b.attempt) << i;
    EXPECT_EQ(a.status.code(), b.status.code()) << i;
    EXPECT_EQ(a.modeled_ms, b.modeled_ms) << i;
    EXPECT_EQ(a.backoff_ms, b.backoff_ms) << i;
  }
  EXPECT_EQ(mqo.backend, SolveBackend::kSqa);
  EXPECT_EQ(mqo.retries, 1);
  EXPECT_EQ(mqo.retries, bare.retries);
  EXPECT_EQ(mqo.fallbacks, bare.fallbacks);
  EXPECT_GT(mqo.total_modeled_ms, 2.0);  // the fault's latency + backoff
  EXPECT_EQ(mqo.total_modeled_ms, bare.total_modeled_ms);
}

TEST_F(ResilientSolverTest, BackendNamesAreStable) {
  EXPECT_STREQ(SolveBackendName(SolveBackend::kDevice), "device");
  EXPECT_STREQ(SolveBackendName(SolveBackend::kSqa), "sqa");
  EXPECT_STREQ(SolveBackendName(SolveBackend::kSa), "sa");
  EXPECT_STREQ(SolveBackendName(SolveBackend::kGreedy), "greedy");
}

// Determinism: same seed + same fault config => identical SolveReport,
// including under parallel read fan-out (1/2/4 threads).
TEST_F(ResilientSolverTest, ReportDeterministicAcrossRunsAndThreadCounts) {
  auto run_chaos = [&](int threads) {
    util::FaultInjector faults(ChaosSeed());
    util::FaultSpec flaky;
    flaky.probability = 0.5;
    faults.Arm("device.program", flaky);
    util::FaultSpec dropout;
    dropout.probability = 0.2;
    faults.Arm("device.read_dropout", dropout);
    SolvePolicy policy = QuickPolicy();
    policy.faults = &faults;
    policy.backoff_initial_ms = 10.0;
    QuantumMqoOptions options = SmallOptions();
    options.device.num_threads = threads;
    return ResilientSolver(policy).Solve(instance_.problem,
                                         instance_.embedding, graph_,
                                         options);
  };

  SolveReport reference = run_chaos(1);
  ASSERT_TRUE(reference.ok) << reference.FailureChain();
  for (int threads : {1, 2, 4}) {
    SolveReport other = run_chaos(threads);
    EXPECT_EQ(reference.backend, other.backend) << threads;
    EXPECT_EQ(reference.total_attempts, other.total_attempts) << threads;
    EXPECT_EQ(reference.retries, other.retries) << threads;
    EXPECT_EQ(reference.fallbacks, other.fallbacks) << threads;
    EXPECT_EQ(reference.faults_observed, other.faults_observed) << threads;
    EXPECT_EQ(reference.cost, other.cost) << threads;
    EXPECT_EQ(reference.solution.selections(), other.solution.selections())
        << threads;
    ASSERT_EQ(reference.attempts.size(), other.attempts.size()) << threads;
    for (size_t i = 0; i < reference.attempts.size(); ++i) {
      EXPECT_EQ(reference.attempts[i].status.ToString(),
                other.attempts[i].status.ToString())
          << threads;
      EXPECT_EQ(reference.attempts[i].backoff_ms, other.attempts[i].backoff_ms)
          << threads;
    }
  }
}

// Seed-sweep property (driven by QMQO_CHAOS_SEED in CI): under random
// per-site fault probabilities derived from the seed, the orchestrator
// always returns a valid solution and never reports success with an error
// status (or vice versa).
TEST_F(ResilientSolverTest, RandomChaosAlwaysYieldsValidSolution) {
  Rng rng(ChaosSeed() * 7919 + 1);
  for (int trial = 0; trial < 3; ++trial) {
    util::FaultInjector faults(rng.Next());
    util::FaultSpec program;
    program.probability = rng.UniformReal(0.0, 1.0);
    faults.Arm("device.program", program);
    util::FaultSpec dropout;
    dropout.probability = rng.UniformReal(0.0, 0.5);
    faults.Arm("device.read_dropout", dropout);
    util::FaultSpec breaks;
    breaks.probability = rng.UniformReal(0.0, 0.5);
    breaks.intensity = rng.UniformInt(1, 8);
    faults.Arm("device.chain_break", breaks);

    SolvePolicy policy = QuickPolicy();
    policy.faults = &faults;
    policy.seed = rng.Next();
    SolveReport report = Run(policy);
    ASSERT_TRUE(report.ok) << report.FailureChain();
    EXPECT_TRUE(report.final_status.ok());
    EXPECT_TRUE(
        mqo::ValidateSolution(instance_.problem, report.solution).ok())
        << report.FailureChain();
    EXPECT_EQ(report.total_attempts,
              static_cast<int>(report.attempts.size()));
  }
}

}  // namespace
}  // namespace harness
}  // namespace qmqo
