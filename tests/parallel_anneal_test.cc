// Determinism of the parallel read engine: for a fixed seed, serial and
// multi-threaded execution (1, 2, 8 workers) must produce *identical*
// SampleSets — same assignments, energies, occurrence counts, and order —
// for SA, SQA, and the device simulator. The device suites also run with
// every device fault site armed from QMQO_CHAOS_SEED (this suite carries
// the "chaos" label, so CI sweeps it across seeds and sanitizers).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anneal/dwave_simulator.h"
#include "anneal/parallel.h"
#include "anneal/sample_set.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "anneal/sweep_kernel.h"
#include "qubo/qubo.h"
#include "util/executor.h"
#include "util/fault.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

uint64_t ChaosSeed() {
  const char* env = std::getenv("QMQO_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

/// Binary encoding of `value` as a `width`-bit 0/1 assignment (the packed
/// arena stores bits, not multi-valued bytes).
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

/// Exact equality — bit-identical energies, not approximate.
void ExpectIdentical(const SampleSet& a, const SampleSet& b) {
  EXPECT_EQ(a.total_reads(), b.total_reads());
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].assignment, b.samples()[i].assignment);
    EXPECT_EQ(a.samples()[i].energy, b.samples()[i].energy);
    EXPECT_EQ(a.samples()[i].num_occurrences, b.samples()[i].num_occurrences);
  }
}

TEST(RunReadsTest, PartitionsEveryReadExactlyOnce) {
  for (int threads : {1, 2, 3, 8, 16}) {
    SampleSet set = RunReads(13, threads, [](int read, SampleSet* local) {
      local->Add(Bits(read, 4), static_cast<double>(read));
    });
    EXPECT_EQ(set.total_reads(), 13);
    ASSERT_EQ(set.samples().size(), 13u);
    for (int read = 0; read < 13; ++read) {
      EXPECT_EQ(set.samples()[static_cast<size_t>(read)].energy,
                static_cast<double>(read));
    }
  }
}

TEST(RunReadsTest, SplitReadGroupsKeepsGroupsInsideSegments) {
  // Gauges of 4, 5, 10 and 3 reads at width 4: groups never cross a
  // gauge, and each gauge's tail is one smaller group.
  const std::vector<ReadGroup> groups = SplitReadGroups({4, 5, 10, 3}, 4);
  const std::vector<std::pair<int, int>> expected = {
      {0, 4}, {4, 4}, {8, 1}, {9, 4}, {13, 4}, {17, 2}, {19, 3}};
  ASSERT_EQ(groups.size(), expected.size());
  for (size_t k = 0; k < groups.size(); ++k) {
    EXPECT_EQ(groups[k].first, expected[k].first) << "group " << k;
    EXPECT_EQ(groups[k].count, expected[k].second) << "group " << k;
  }
  // Width 8: a 10-read gauge splits as 8 + 2.
  const std::vector<ReadGroup> wide = SplitReadGroups({10, 8, 1}, 8);
  const std::vector<std::pair<int, int>> expected_wide = {
      {0, 8}, {8, 2}, {10, 8}, {18, 1}};
  ASSERT_EQ(wide.size(), expected_wide.size());
  for (size_t k = 0; k < wide.size(); ++k) {
    EXPECT_EQ(wide[k].first, expected_wide[k].first) << "group " << k;
    EXPECT_EQ(wide[k].count, expected_wide[k].second) << "group " << k;
  }
  // Width 1 is one read per unit.
  const std::vector<ReadGroup> singles = SplitReadGroups({3, 2}, 1);
  ASSERT_EQ(singles.size(), 5u);
  for (size_t k = 0; k < singles.size(); ++k) {
    EXPECT_EQ(singles[k].first, static_cast<int>(k));
    EXPECT_EQ(singles[k].count, 1);
  }
  EXPECT_TRUE(SplitReadGroups({}, 4).empty());
  EXPECT_TRUE(SplitReadGroups({0}, 4).empty());
}

TEST(DeviceReadGroupTest, GroupWithEveryReadDroppedLeavesOtherReadsAsIs) {
  // Dropout takes the call's first SweepGroupWidth() reads: the first
  // claim unit has no read left to anneal, and every surviving read must
  // still be the clean call's read, at any thread count.
  const int width = SweepGroupWidth();
  Rng rng(61);
  qubo::QuboProblem problem = RandomQubo(14, 0.4, &rng);
  DWaveOptions options;
  options.num_reads = 3 * width + 2;
  options.num_gauges = 1;
  options.sa_sweeps = 24;
  options.seed = 9;
  options.record_reads = true;
  const Result<DeviceResult> clean = DWaveSimulator(options).Sample(problem);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  util::FaultInjector faults(1);
  util::FaultSpec dropout;
  dropout.fail_first = width;  // read keys of epoch 0 are the read indices
  faults.Arm("device.read_dropout", dropout);
  options.faults = &faults;
  for (int threads : {1, 4}) {
    options.num_threads = threads;
    const Result<DeviceResult> thinned =
        DWaveSimulator(options).Sample(problem);
    ASSERT_TRUE(thinned.ok()) << thinned.status().ToString();
    EXPECT_EQ(thinned->dropped_reads, width);
    EXPECT_EQ(thinned->samples.total_reads(), options.num_reads - width);
    ASSERT_EQ(thinned->raw_reads.size(), clean->raw_reads.size() - width);
    for (int k = 0; k < thinned->raw_reads.size(); ++k) {
      EXPECT_TRUE(thinned->raw_reads[k] == clean->raw_reads[k + width])
          << threads << " threads, surviving read " << k;
    }
  }
}

TEST(RunReadsTest, ZeroReadsYieldsEmptyFinalizedSet) {
  SampleSet set = RunReads(0, 4, [](int, SampleSet*) { FAIL(); });
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.total_reads(), 0);
}

TEST(RunReadsTest, MoreThreadsThanReads) {
  SampleSet set = RunReads(3, 16, [](int read, SampleSet* local) {
    local->Add(Bits(read, 2), 0.0);
  });
  EXPECT_EQ(set.total_reads(), 3);
}

TEST(RunReadsTest, WorkerExceptionPropagates) {
  EXPECT_THROW(RunReads(8, 4,
                        [](int read, SampleSet*) {
                          if (read == 5) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
}

TEST(RunReadsTest, CallerSuppliedExecutorIsReusedNotRespawned) {
  util::Executor executor(2);
  const int64_t spawned = util::Executor::TotalWorkersSpawned();
  for (int round = 0; round < 5; ++round) {
    SampleSet set = RunReads(
        11, 4,
        [](int read, SampleSet* local) {
          local->Add(Bits(read, 4), static_cast<double>(read));
        },
        &executor);
    EXPECT_EQ(set.total_reads(), 11);
  }
  EXPECT_EQ(util::Executor::TotalWorkersSpawned(), spawned);
}

TEST(RunReadsTest, SharedPoolFallbackSpawnsNothingPerCall) {
  util::Executor::Shared();  // force the one-time lazy construction
  const int64_t spawned = util::Executor::TotalWorkersSpawned();
  for (int round = 0; round < 3; ++round) {
    SampleSet set = RunReads(7, 3, [](int read, SampleSet* local) {
      local->Add(Bits(read, 3), 0.0);
    });
    EXPECT_EQ(set.total_reads(), 7);
  }
  EXPECT_EQ(util::Executor::TotalWorkersSpawned(), spawned);
}

TEST(ParallelDeterminismTest, SimulatedAnnealerMatchesSerial) {
  Rng rng(42);
  qubo::QuboProblem problem = RandomQubo(24, 0.3, &rng);
  SaOptions options;
  options.num_reads = 33;
  options.sweeps_per_read = 64;
  options.seed = 7;
  options.num_threads = 1;
  SampleSet serial = SimulatedAnnealer(options).Sample(problem);
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    SampleSet parallel = SimulatedAnnealer(options).Sample(problem);
    ExpectIdentical(serial, parallel);
  }
}

TEST(ParallelDeterminismTest, SqaMatchesSerial) {
  Rng rng(43);
  qubo::QuboProblem problem = RandomQubo(12, 0.4, &rng);
  SqaOptions options;
  options.num_reads = 9;
  options.num_slices = 6;
  options.sweeps = 48;
  options.seed = 11;
  options.num_threads = 1;
  SampleSet serial = SimulatedQuantumAnnealer(options).Sample(problem);
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    SampleSet parallel = SimulatedQuantumAnnealer(options).Sample(problem);
    ExpectIdentical(serial, parallel);
  }
}

TEST(ParallelDeterminismTest, DeviceSimulatorMatchesSerial) {
  Rng rng(44);
  qubo::QuboProblem problem = RandomQubo(16, 0.4, &rng);
  DWaveOptions options;
  options.num_reads = 40;
  options.num_gauges = 4;
  options.sa_sweeps = 32;
  options.seed = 99;
  options.record_reads = true;
  options.num_threads = 1;
  auto serial = DWaveSimulator(options).Sample(problem);
  ASSERT_TRUE(serial.ok());
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    auto parallel = DWaveSimulator(options).Sample(problem);
    ASSERT_TRUE(parallel.ok());
    ExpectIdentical(serial->samples, parallel->samples);
    // raw_reads must stay chronological regardless of worker assignment.
    EXPECT_EQ(serial->raw_reads, parallel->raw_reads);
  }
}

TEST(ParallelDeterminismTest, DeviceSimulatorSqaBackendMatchesSerial) {
  Rng rng(45);
  qubo::QuboProblem problem = RandomQubo(10, 0.4, &rng);
  DWaveOptions options;
  options.backend = DeviceBackend::kSimulatedQuantumAnnealing;
  options.num_reads = 12;
  options.num_gauges = 3;
  options.sqa.num_slices = 4;
  options.sqa.sweeps = 32;
  options.seed = 5;
  options.num_threads = 1;
  auto serial = DWaveSimulator(options).Sample(problem);
  ASSERT_TRUE(serial.ok());
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    auto parallel = DWaveSimulator(options).Sample(problem);
    ASSERT_TRUE(parallel.ok());
    ExpectIdentical(serial->samples, parallel->samples);
  }
}

/// Arms all five device fault sites. A programming failure ends the call,
/// so that site fires rarely; the others fire often enough that dropped,
/// corrupted and stuck reads, and latency, show up in most calls.
void ArmDeviceFaults(util::FaultInjector* faults) {
  util::FaultSpec program;
  program.probability = 0.03;
  faults->Arm("device.program", program);
  util::FaultSpec latency;
  latency.probability = 0.4;
  latency.latency_ms = 2.5;
  faults->Arm("device.latency", latency);
  util::FaultSpec dropout;
  dropout.probability = 0.15;
  faults->Arm("device.read_dropout", dropout);
  util::FaultSpec stuck;
  stuck.probability = 0.1;
  faults->Arm("device.stuck_qubit", stuck);
  util::FaultSpec chain_break;
  chain_break.probability = 0.2;
  chain_break.intensity = 2;
  faults->Arm("device.chain_break", chain_break);
}

/// Everything of a device call that must not depend on which worker
/// claimed which read (wall times excluded).
void ExpectSameDeviceCall(const Result<DeviceResult>& expected,
                          const Result<DeviceResult>& actual) {
  ASSERT_EQ(expected.ok(), actual.ok()) << actual.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().ToString(), actual.status().ToString());
    return;
  }
  ExpectIdentical(expected->samples, actual->samples);
  EXPECT_EQ(expected->raw_reads, actual->raw_reads);
  EXPECT_EQ(expected->dropped_reads, actual->dropped_reads);
  EXPECT_EQ(expected->injected_latency_ms, actual->injected_latency_ms);
  EXPECT_EQ(expected->faults_injected, actual->faults_injected);
  ASSERT_EQ(expected->gauge_timings.size(), actual->gauge_timings.size());
  for (size_t g = 0; g < expected->gauge_timings.size(); ++g) {
    const GaugeTiming& want = expected->gauge_timings[g];
    const GaugeTiming& got = actual->gauge_timings[g];
    EXPECT_EQ(want.gauge, got.gauge);
    EXPECT_EQ(want.reads, got.reads);
    EXPECT_EQ(want.dropped_reads, got.dropped_reads);
    EXPECT_EQ(want.injected_latency_ms, got.injected_latency_ms);
  }
}

/// Runs `call` with one worker of `pool` held by a sleeping task, so the
/// call's reads are claimed by a different set of threads, in a different
/// order, than on an idle pool.
template <typename Call>
auto WithOneWorkerAsleep(util::Executor* pool, const Call& call) {
  std::atomic<int> started{0};
  std::thread holder([&]() {
    pool->ParallelFor(2, 2, [&](int, int, int) {
      started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
  });
  // Both chunks running: the holder thread and one pool worker sleep.
  while (started.load() < 2) std::this_thread::yield();
  auto result = call();
  holder.join();
  return result;
}

class DeviceClaimOrderTest : public ::testing::TestWithParam<DeviceBackend> {};

TEST_P(DeviceClaimOrderTest, FaultedCallIsIdenticalForAnyClaimOrder) {
  const uint64_t seed = ChaosSeed();
  Rng rng(seed * 7919 + 48);
  qubo::QuboProblem problem = RandomQubo(14, 0.4, &rng);
  util::FaultInjector faults(seed);
  ArmDeviceFaults(&faults);
  DWaveOptions options;
  options.backend = GetParam();
  // Enough reads per worker that the capped worker-local sets compact.
  options.num_reads = 401;
  options.num_gauges = 4;  // uneven split: the last gauge holds 101 reads
  options.sa_sweeps = 24;
  options.sqa.num_slices = 4;
  options.sqa.sweeps = 16;
  options.seed = seed + 100;
  options.record_reads = true;
  options.max_samples = 4;  // top-k retention in every worker-local set
  options.faults = &faults;
  int faulted_calls = 0;
  for (uint64_t epoch = 0; epoch < 3; ++epoch) {
    SCOPED_TRACE(testing::Message() << "epoch " << epoch);
    options.fault_epoch = epoch;
    options.num_threads = 1;
    options.executor = nullptr;
    const Result<DeviceResult> serial = DWaveSimulator(options).Sample(problem);
    if (serial.ok() && serial->dropped_reads > 0) ++faulted_calls;
    util::Executor pool(4);
    options.executor = &pool;
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      options.num_threads = threads;
      ExpectSameDeviceCall(serial, DWaveSimulator(options).Sample(problem));
      ExpectSameDeviceCall(serial, WithOneWorkerAsleep(&pool, [&]() {
                             return DWaveSimulator(options).Sample(problem);
                           }));
    }
  }
  EXPECT_GT(faulted_calls, 0) << "no call completed with dropped reads";
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DeviceClaimOrderTest,
    ::testing::Values(DeviceBackend::kSimulatedAnnealing,
                      DeviceBackend::kSimulatedQuantumAnnealing),
    [](const ::testing::TestParamInfo<DeviceBackend>& info) {
      return std::string(info.param == DeviceBackend::kSimulatedAnnealing
                             ? "Sa"
                             : "Sqa");
    });

TEST(ParallelDeterminismTest, DeviceCallSpawnsZeroThreadsPerGauge) {
  // The acceptance criterion of the executor subsystem: a multi-gauge,
  // multi-threaded device call enqueues every gauge's reads on one
  // reusable pool — the worker-spawn counter must not move across calls.
  Rng rng(46);
  qubo::QuboProblem problem = RandomQubo(14, 0.4, &rng);
  util::Executor executor(2);
  DWaveOptions options;
  options.num_reads = 24;
  options.num_gauges = 6;  // six programming cycles per Sample call
  options.sa_sweeps = 16;
  options.seed = 3;
  options.num_threads = 2;
  options.executor = &executor;
  auto first = DWaveSimulator(options).Sample(problem);
  ASSERT_TRUE(first.ok());
  const int64_t spawned = util::Executor::TotalWorkersSpawned();
  auto second = DWaveSimulator(options).Sample(problem);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(util::Executor::TotalWorkersSpawned(), spawned);
  ExpectIdentical(first->samples, second->samples);

  // Same with the SQA backend sharing the same pool.
  options.backend = DeviceBackend::kSimulatedQuantumAnnealing;
  options.sqa.num_slices = 4;
  options.sqa.sweeps = 16;
  auto sqa_result = DWaveSimulator(options).Sample(problem);
  ASSERT_TRUE(sqa_result.ok());
  EXPECT_EQ(util::Executor::TotalWorkersSpawned(), spawned);
}

TEST(ParallelDeterminismTest, ExplicitExecutorMatchesSharedPoolResults) {
  Rng rng(47);
  qubo::QuboProblem problem = RandomQubo(18, 0.3, &rng);
  SaOptions options;
  options.num_reads = 21;
  options.sweeps_per_read = 32;
  options.seed = 13;
  options.num_threads = 1;
  SampleSet serial = SimulatedAnnealer(options).Sample(problem);
  util::Executor executor(3);
  options.num_threads = 4;
  options.executor = &executor;
  SampleSet pooled = SimulatedAnnealer(options).Sample(problem);
  ExpectIdentical(serial, pooled);
}

TEST(SampleSetOpsTest, AddEnergyOffsetShiftsInPlace) {
  SampleSet set;
  set.Add({1, 0}, 3.0);
  set.Add({0, 1}, -1.0);
  set.Finalize();
  set.AddEnergyOffset(10.0);
  EXPECT_DOUBLE_EQ(set.samples()[0].energy, 9.0);
  EXPECT_DOUBLE_EQ(set.samples()[1].energy, 13.0);
  EXPECT_EQ(set.total_reads(), 2);
}

TEST(SampleSetOpsTest, AppendThenFinalizeEqualsMerge) {
  SampleSet a;
  a.Add({1, 0}, 1.0);
  a.Add({0, 0}, 0.0);
  a.Finalize();
  SampleSet b;
  b.Add({1, 0}, 1.0);
  b.Add({1, 1}, 2.0);  // different assignment, makes ordering interesting
  b.Finalize();

  SampleSet merged = a;
  merged.Merge(b);
  SampleSet appended = a;
  appended.Append(b);
  appended.Finalize();
  ExpectIdentical(merged, appended);
  EXPECT_EQ(merged.total_reads(), 4);
  EXPECT_EQ(merged.samples()[1].num_occurrences, 2);  // {1, 0} twice
}

TEST(SampleSetOpsTest, MergeUnfinalizedInputsStillFinalizes) {
  SampleSet a;
  a.Add({1}, 5.0);
  SampleSet b;
  b.Add({0}, -5.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.best().energy, -5.0);
  EXPECT_EQ(a.total_reads(), 2);
}

}  // namespace
}  // namespace anneal
}  // namespace qmqo
