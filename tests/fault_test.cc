// Tests for the fault-injection framework: FaultSpec schedules, seed
// determinism, per-site counters, the Deadline modeled-time budget, and —
// the property everything else leans on — that a device call with faults
// armed stays bit-identical at any thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "anneal/dwave_simulator.h"
#include "chimera/topology.h"
#include "harness/paper_workload.h"
#include "harness/quantum_pipeline.h"
#include "mapping/logical_mapping.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/rng.h"

namespace qmqo {
namespace {

// Chaos suites honor QMQO_CHAOS_SEED so CI can sweep seeds; default 1.
uint64_t ChaosSeed() {
  const char* env = std::getenv("QMQO_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

// --------------------------------------------------------------------
// FaultInjector
// --------------------------------------------------------------------

TEST(FaultInjectorTest, DisarmedInjectorNeverFires) {
  util::FaultInjector faults(ChaosSeed());
  EXPECT_FALSE(faults.armed());
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_FALSE(faults.ShouldFail("device.program", key));
  }
  EXPECT_TRUE(faults.MaybeFail("device.program", 0).ok());
  EXPECT_EQ(faults.faults_injected(), 0);
}

TEST(FaultInjectorTest, UnarmedSiteNeverFiresEvenWhenOthersAre) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("device.program", always);
  EXPECT_TRUE(faults.armed());
  EXPECT_TRUE(faults.ShouldFail("device.program", 0));
  EXPECT_FALSE(faults.ShouldFail("device.read_dropout", 0));
}

TEST(FaultInjectorTest, FailFirstFiresExactlyTheFirstKeys) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec spec;
  spec.fail_first = 3;
  faults.Arm("solve.device", spec);
  EXPECT_TRUE(faults.ShouldFail("solve.device", 0));
  EXPECT_TRUE(faults.ShouldFail("solve.device", 1));
  EXPECT_TRUE(faults.ShouldFail("solve.device", 2));
  EXPECT_FALSE(faults.ShouldFail("solve.device", 3));
  EXPECT_FALSE(faults.ShouldFail("solve.device", 1000));
  EXPECT_EQ(faults.FaultCount("solve.device"), 3);
}

TEST(FaultInjectorTest, ProbabilityZeroAndOneAreExact) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec never;
  faults.Arm("a", never);
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("b", always);
  for (uint64_t key = 0; key < 256; ++key) {
    EXPECT_FALSE(faults.WouldFail("a", key));
    EXPECT_TRUE(faults.WouldFail("b", key));
  }
}

TEST(FaultInjectorTest, BernoulliRateIsRoughlyHonored) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec spec;
  spec.probability = 0.25;
  faults.Arm("device.read_dropout", spec);
  int fired = 0;
  const int kKeys = 20000;
  for (uint64_t key = 0; key < kKeys; ++key) {
    if (faults.WouldFail("device.read_dropout", key)) ++fired;
  }
  double rate = static_cast<double>(fired) / kKeys;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(FaultInjectorTest, DecisionsArePureInSeedSiteKey) {
  util::FaultSpec spec;
  spec.probability = 0.5;
  util::FaultInjector a(42);
  a.Arm("site", spec);
  util::FaultInjector b(42);
  b.Arm("site", spec);
  util::FaultInjector c(43);
  c.Arm("site", spec);
  int differs = 0;
  for (uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(a.WouldFail("site", key), b.WouldFail("site", key)) << key;
    if (a.WouldFail("site", key) != c.WouldFail("site", key)) ++differs;
  }
  // A different seed must give a genuinely different pattern.
  EXPECT_GT(differs, 0);
}

TEST(FaultInjectorTest, SitesDrawIndependentStreams) {
  util::FaultSpec spec;
  spec.probability = 0.5;
  util::FaultInjector faults(ChaosSeed());
  faults.Arm("x", spec);
  faults.Arm("y", spec);
  int differs = 0;
  for (uint64_t key = 0; key < 512; ++key) {
    if (faults.WouldFail("x", key) != faults.WouldFail("y", key)) ++differs;
  }
  EXPECT_GT(differs, 0);
}

// A scoped view decides exactly as its parent, counts only its own
// firings, and adds each firing to the parent's counters too.
TEST(FaultInjectorTest, ScopedViewCountsItsOwnFiringsAndItsParents) {
  util::FaultSpec spec;
  spec.probability = 0.5;
  util::FaultInjector parent(ChaosSeed());
  parent.Arm("x", spec);
  parent.Arm("y", spec);
  std::unique_ptr<util::FaultInjector> view = parent.Scope();
  std::unique_ptr<util::FaultInjector> other = parent.Scope();
  int64_t fired_x = 0;
  int64_t fired_y = 0;
  for (uint64_t key = 0; key < 256; ++key) {
    EXPECT_EQ(view->WouldFail("x", key), parent.WouldFail("x", key)) << key;
    if (view->ShouldFail("x", key)) ++fired_x;
    if (other->ShouldFail("y", key)) ++fired_y;
  }
  EXPECT_GT(fired_x, 0);
  EXPECT_EQ(view->FaultCount("x"), fired_x);
  EXPECT_EQ(view->FaultCount("y"), 0);
  EXPECT_EQ(view->faults_injected(), fired_x);
  EXPECT_EQ(other->faults_injected(), fired_y);
  EXPECT_EQ(parent.FaultCount("x"), fired_x);
  EXPECT_EQ(parent.FaultCount("y"), fired_y);
}

TEST(FaultInjectorTest, WouldFailDoesNotCount) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("site", always);
  EXPECT_TRUE(faults.WouldFail("site", 0));
  EXPECT_EQ(faults.faults_injected(), 0);
  EXPECT_TRUE(faults.ShouldFail("site", 0));
  EXPECT_EQ(faults.faults_injected(), 1);
}

TEST(FaultInjectorTest, MaybeFailNamesSiteAndKey) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("embed.compile", always);
  Status status = faults.MaybeFail("embed.compile", 7);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("embed.compile"), std::string::npos);
  EXPECT_NE(status.message().find("7"), std::string::npos);
}

TEST(FaultInjectorTest, CountsReportPerSiteInArmingOrder) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("first", always);
  faults.Arm("second", always);
  faults.ShouldFail("first", 0);
  faults.ShouldFail("first", 1);
  faults.ShouldFail("second", 0);
  auto counts = faults.Counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, "first");
  EXPECT_EQ(counts[0].second, 2);
  EXPECT_EQ(counts[1].first, "second");
  EXPECT_EQ(counts[1].second, 1);
  EXPECT_EQ(faults.faults_injected(), 3);
  EXPECT_EQ(faults.FaultCount("unarmed"), 0);
}

TEST(FaultInjectorTest, LatencyIntensityAndPayloadHash) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec spec;
  spec.probability = 1.0;
  spec.latency_ms = 12.5;
  spec.intensity = 4;
  faults.Arm("device.chain_break", spec);
  EXPECT_DOUBLE_EQ(faults.LatencyMillis("device.chain_break"), 12.5);
  EXPECT_EQ(faults.Intensity("device.chain_break"), 4);
  EXPECT_DOUBLE_EQ(faults.LatencyMillis("unarmed"), 0.0);
  EXPECT_EQ(faults.Intensity("unarmed"), 1);
  // Payload randomness: deterministic, key-sensitive, and distinct from
  // the firing stream.
  EXPECT_EQ(faults.HashAt("device.chain_break", 3),
            faults.HashAt("device.chain_break", 3));
  EXPECT_NE(faults.HashAt("device.chain_break", 3),
            faults.HashAt("device.chain_break", 4));
}

TEST(FaultInjectorTest, RearmingReplacesSpec) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("site", always);
  EXPECT_TRUE(faults.WouldFail("site", 0));
  faults.Arm("site", util::FaultSpec());
  EXPECT_FALSE(faults.WouldFail("site", 0));
}

// --------------------------------------------------------------------
// Deadline
// --------------------------------------------------------------------

TEST(DeadlineTest, DefaultNeverExpires) {
  util::Deadline deadline;
  EXPECT_FALSE(deadline.has_budget());
  EXPECT_FALSE(deadline.expired());
  EXPECT_TRUE(std::isinf(deadline.RemainingMillis()));
  deadline.Charge(1e12);
  EXPECT_FALSE(deadline.expired());
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(util::Deadline::AfterMillis(0.0).expired());
  EXPECT_TRUE(util::Deadline::AfterMillis(-5.0).expired());
}

TEST(DeadlineTest, ModeledChargeExpiresDeterministically) {
  util::Deadline deadline = util::Deadline::AfterMillis(1e9);
  EXPECT_FALSE(deadline.expired());
  deadline.Charge(4e8);
  EXPECT_FALSE(deadline.expired());
  EXPECT_DOUBLE_EQ(deadline.charged_millis(), 4e8);
  deadline.Charge(7e8);
  EXPECT_TRUE(deadline.expired());
  EXPECT_DOUBLE_EQ(deadline.RemainingMillis(), 0.0);
}

// --------------------------------------------------------------------
// Device-level fault behavior
// --------------------------------------------------------------------

class DeviceFaultTest : public ::testing::Test {
 protected:
  DeviceFaultTest() : graph_(4, 4, 4) {
    Rng rng(ChaosSeed());
    harness::PaperWorkloadOptions workload;
    workload.plans_per_query = 2;
    workload.num_queries = 12;
    auto instance = harness::GeneratePaperInstance(graph_, workload, &rng);
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    instance_ = *std::move(instance);
  }

  harness::QuantumMqoOptions SmallOptions() const {
    harness::QuantumMqoOptions options;
    options.device.num_reads = 40;
    options.device.num_gauges = 4;
    options.device.sa_sweeps = 16;
    options.device.seed = ChaosSeed() + 7;
    return options;
  }

  chimera::ChimeraGraph graph_;
  harness::PaperInstance instance_{};
};

TEST_F(DeviceFaultTest, ProgramFaultFailsTheCallWithTypedError) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("device.program", always);
  harness::QuantumMqoOptions options = SmallOptions();
  options.faults = &faults;
  auto result = harness::SolveQuantumMqo(instance_.problem,
                                         instance_.embedding, graph_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_GT(faults.FaultCount("device.program"), 0);
}

// A programming failure at a later gauge ends the call before any read
// runs, after exactly the fault decisions a gauge-by-gauge loop makes
// first: per gauge, latency, program, then each read's dropout and chain
// break. The status text and per-site counts below were recorded from
// that loop (which ran each gauge's reads before programming the next);
// fixed seeds, not QMQO_CHAOS_SEED, because the values are pinned.
TEST(DeviceProgramFaultTest, LaterGaugeFailureKeepsStatusAndSiteCounts) {
  Rng rng(31);
  qubo::QuboProblem problem(12);
  for (int i = 0; i < 12; ++i) {
    problem.AddLinear(i, rng.UniformReal(-2.0, 2.0));
    for (int j = i + 1; j < 12; ++j) {
      if (rng.Bernoulli(0.4)) {
        problem.AddQuadratic(i, j, rng.UniformReal(-2.0, 2.0));
      }
    }
  }
  for (anneal::DeviceBackend backend :
       {anneal::DeviceBackend::kSimulatedAnnealing,
        anneal::DeviceBackend::kSimulatedQuantumAnnealing}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "backend " << static_cast<int>(backend)
                                      << ", " << threads << " threads");
      util::FaultInjector faults(3);
      util::FaultSpec stuck;
      stuck.probability = 0.1;
      faults.Arm("device.stuck_qubit", stuck);
      util::FaultSpec latency;
      latency.probability = 0.5;
      latency.latency_ms = 1.5;
      faults.Arm("device.latency", latency);
      util::FaultSpec program;
      program.probability = 0.25;  // first fires at gauge 3 of epoch 1
      faults.Arm("device.program", program);
      util::FaultSpec dropout;
      dropout.probability = 0.2;
      faults.Arm("device.read_dropout", dropout);
      util::FaultSpec chain_break;
      chain_break.probability = 0.25;
      faults.Arm("device.chain_break", chain_break);

      anneal::DWaveOptions options;
      options.backend = backend;
      options.num_reads = 40;
      options.num_gauges = 5;
      options.sa_sweeps = 16;
      options.sqa.num_slices = 4;
      options.sqa.sweeps = 8;
      options.seed = 3;
      options.faults = &faults;
      options.fault_epoch = 1;
      options.num_threads = threads;
      auto result = anneal::DWaveSimulator(options).Sample(problem);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().ToString(),
                "Internal: injected programming-cycle failure (gauge 3, "
                "epoch 1)");
      const std::vector<std::pair<std::string, int64_t>> expected = {
          {"device.stuck_qubit", 1}, {"device.latency", 4},
          {"device.program", 1},     {"device.read_dropout", 8},
          {"device.chain_break", 2}};
      EXPECT_EQ(faults.Counts(), expected);
    }
  }
}

TEST_F(DeviceFaultTest, ReadDropoutShrinksRawReads) {
  harness::QuantumMqoOptions clean = SmallOptions();
  auto baseline = harness::SolveQuantumMqo(instance_.problem,
                                           instance_.embedding, graph_, clean);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec dropout;
  dropout.probability = 0.3;
  faults.Arm("device.read_dropout", dropout);
  harness::QuantumMqoOptions faulty = SmallOptions();
  faulty.faults = &faults;
  auto result = harness::SolveQuantumMqo(instance_.problem,
                                         instance_.embedding, graph_, faulty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->dropped_reads, 0);
  EXPECT_EQ(result->faults_injected, faults.faults_injected());
  // The surviving reads still yield a valid (repaired) solution.
  EXPECT_TRUE(
      mqo::ValidateSolution(instance_.problem, result->best_solution).ok());
}

TEST_F(DeviceFaultTest, TotalDropoutIsResourceExhausted) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec all;
  all.probability = 1.0;
  faults.Arm("device.read_dropout", all);
  harness::QuantumMqoOptions options = SmallOptions();
  options.faults = &faults;
  auto result = harness::SolveQuantumMqo(instance_.problem,
                                         instance_.embedding, graph_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(DeviceFaultTest, ForcedChainBreaksRaiseBrokenFraction) {
  // l = 2 instances embed every plan on a single qubit, so chains cannot
  // break; chain-break faults need the l = 3 workload's 2-qubit chains.
  Rng rng(ChaosSeed() + 3);
  harness::PaperWorkloadOptions workload;
  workload.plans_per_query = 3;
  workload.num_queries = 8;
  auto instance = harness::GeneratePaperInstance(graph_, workload, &rng);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  harness::QuantumMqoOptions clean = SmallOptions();
  auto baseline = harness::SolveQuantumMqo(instance->problem,
                                           instance->embedding, graph_, clean);
  ASSERT_TRUE(baseline.ok());

  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec breaks;
  breaks.probability = 1.0;
  breaks.intensity = 8;
  faults.Arm("device.chain_break", breaks);
  harness::QuantumMqoOptions faulty = SmallOptions();
  faulty.faults = &faults;
  auto result = harness::SolveQuantumMqo(instance->problem,
                                         instance->embedding, graph_, faulty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->broken_chain_read_fraction,
            baseline->broken_chain_read_fraction);
}

TEST_F(DeviceFaultTest, InjectedLatencyIsReportedNotSlept) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec latency;
  latency.probability = 1.0;
  latency.latency_ms = 250.0;
  faults.Arm("device.latency", latency);
  harness::QuantumMqoOptions options = SmallOptions();
  options.faults = &faults;
  auto result = harness::SolveQuantumMqo(instance_.problem,
                                         instance_.embedding, graph_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // One latency spike per programming cycle (4 gauges).
  EXPECT_DOUBLE_EQ(result->injected_latency_ms, 4 * 250.0);
}

TEST_F(DeviceFaultTest, NoFaultRunsAreUnchangedByNullInjector) {
  harness::QuantumMqoOptions a = SmallOptions();
  auto without = harness::SolveQuantumMqo(instance_.problem,
                                          instance_.embedding, graph_, a);
  ASSERT_TRUE(without.ok());
  util::FaultInjector disarmed(ChaosSeed());
  harness::QuantumMqoOptions b = SmallOptions();
  b.faults = &disarmed;  // armed() is false: the fast path must not change
  auto with = harness::SolveQuantumMqo(instance_.problem,
                                       instance_.embedding, graph_, b);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(without->best_cost, with->best_cost);
  EXPECT_EQ(without->broken_chain_read_fraction,
            with->broken_chain_read_fraction);
  EXPECT_EQ(with->faults_injected, 0);
}

// The central determinism contract: with faults armed, a device call is
// bit-identical at 1/2/4 threads — firing decisions are pure in
// (seed, site, key), never in scheduling order.
TEST_F(DeviceFaultTest, FaultyDeviceCallBitIdenticalAcrossThreadCounts) {
  auto run = [&](int threads) {
    util::FaultInjector faults(ChaosSeed());
    util::FaultSpec dropout;
    dropout.probability = 0.2;
    faults.Arm("device.read_dropout", dropout);
    util::FaultSpec stuck;
    stuck.probability = 0.1;
    faults.Arm("device.stuck_qubit", stuck);
    util::FaultSpec breaks;
    breaks.probability = 0.15;
    breaks.intensity = 3;
    faults.Arm("device.chain_break", breaks);
    harness::QuantumMqoOptions options = SmallOptions();
    options.faults = &faults;
    options.device.num_threads = threads;
    auto result = harness::SolveQuantumMqo(
        instance_.problem, instance_.embedding, graph_, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *std::move(result);
  };

  harness::QuantumMqoResult serial = run(1);
  EXPECT_GT(serial.faults_injected, 0);
  for (int threads : {2, 4}) {
    harness::QuantumMqoResult parallel = run(threads);
    EXPECT_EQ(serial.best_cost, parallel.best_cost) << threads;
    EXPECT_EQ(serial.first_read_cost, parallel.first_read_cost) << threads;
    EXPECT_EQ(serial.broken_chain_read_fraction,
              parallel.broken_chain_read_fraction)
        << threads;
    EXPECT_EQ(serial.valid_read_fraction, parallel.valid_read_fraction)
        << threads;
    EXPECT_EQ(serial.faults_injected, parallel.faults_injected) << threads;
    EXPECT_EQ(serial.dropped_reads, parallel.dropped_reads) << threads;
    EXPECT_EQ(serial.best_solution.selections(),
              parallel.best_solution.selections())
        << threads;
  }
}

TEST_F(DeviceFaultTest, EmbedCompileFaultSurfacesAsStatus) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec once;
  once.fail_first = 1;
  faults.Arm("embed.compile", once);
  harness::QuantumMqoOptions options = SmallOptions();
  options.faults = &faults;
  options.fault_attempt = 0;
  auto failed = harness::SolveQuantumMqo(instance_.problem,
                                         instance_.embedding, graph_, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("embed.compile"),
            std::string::npos);
  // The next attempt (key 1) is past the fail-first window.
  options.fault_attempt = 1;
  auto retried = harness::SolveQuantumMqo(instance_.problem,
                                          instance_.embedding, graph_, options);
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
}

}  // namespace
}  // namespace qmqo
