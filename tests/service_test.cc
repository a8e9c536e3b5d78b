// Tests for the MQO solve service: admission control, priority lanes,
// deadline shedding, load-shedded entry rungs, circuit-breaker feedback,
// drain/shutdown accounting, and — the acceptance bar for everything
// above — bit-identical outcomes and counters at 1/2/4 worker threads
// under a fixed QMQO_CHAOS_SEED.

#include "service/solve_service.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "chimera/topology.h"
#include "harness/paper_workload.h"
#include "harness/quantum_pipeline.h"
#include "harness/resilient_solver.h"
#include "mqo/serialization.h"
#include "mqo/solution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "workloads/workload.h"

namespace qmqo {
namespace service {
namespace {

using harness::SolveBackend;

uint64_t ChaosSeed() {
  const char* env = std::getenv("QMQO_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

// Reads the service counter `qmqo_service_<name>` from the metrics
// registry, the one store of service counters; a missing name fails the
// test instead of reading a freshly created zero.
int64_t Count(SolveService& service, const std::string& name) {
  const std::string full = "qmqo_service_" + name;
  for (const obs::MetricPoint& point : service.metrics().Collect().points) {
    if (point.name == full) return point.counter_value;
  }
  ADD_FAILURE() << "no counter " << full;
  return -1;
}

// The value of tag `key` on `span`, or "" when the span has none.
std::string TagOf(const obs::Span& span, const std::string& key) {
  for (const auto& [name, value] : span.tags) {
    if (name == key) return value;
  }
  return "";
}

int64_t Answered(SolveService& service, SolveBackend backend) {
  return Count(service, StrFormat("answered_total{backend=\"%s\"}",
                                  harness::SolveBackendName(backend)));
}

class SolveServiceTest : public ::testing::Test {
 protected:
  SolveServiceTest() : graph_(4, 4, 4) {
    Rng rng(ChaosSeed());
    harness::PaperWorkloadOptions workload;
    workload.plans_per_query = 2;
    workload.num_queries = 10;
    auto instance = harness::GeneratePaperInstance(graph_, workload, &rng);
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    instance_ = *std::move(instance);
  }

  ServiceOptions SmallServiceOptions() const {
    ServiceOptions options;
    options.graph = &graph_;
    options.num_threads = 1;
    options.pipeline.device.num_reads = 30;
    options.pipeline.device.num_gauges = 3;
    options.pipeline.device.sa_sweeps = 16;
    options.pipeline.device.seed = ChaosSeed() + 7;
    options.policy.seed = ChaosSeed();
    options.policy.max_attempts_per_backend = 1;
    options.policy.sqa_reads = 4;
    options.policy.sqa_slices = 4;
    options.policy.sqa_sweeps = 16;
    options.policy.sa_reads = 8;
    options.policy.sa_sweeps = 32;
    return options;
  }

  chimera::ChimeraGraph graph_;
  harness::PaperInstance instance_;
};

TEST_F(SolveServiceTest, DrainSolvesEverythingOnTheDevice) {
  SolveService service(SmallServiceOptions());
  for (int i = 0; i < 3; ++i) {
    auto id = service.Submit(instance_.problem, instance_.embedding);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(service.DrainAll(), 3);
  EXPECT_EQ(Count(service, "requests_accepted_total"), 3);
  EXPECT_EQ(Count(service, "requests_settled_total{verdict=\"ok\"}"), 3);
  EXPECT_EQ(Answered(service, SolveBackend::kDevice), 3);
  EXPECT_EQ(service.in_flight(), 0);
  for (const SolveOutcome& outcome : service.outcomes()) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.detail;
    EXPECT_EQ(outcome.backend, SolveBackend::kDevice);
    EXPECT_EQ(outcome.entry_rung, 0);
    EXPECT_FALSE(outcome.shed_degraded);
    // A first-attempt answer has no failure chain to keep.
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_TRUE(outcome.detail.empty()) << outcome.detail;
  }
}

// The service keeps every settled outcome, so their size bounds its
// memory under sustained load. Field order leaves no padding, the status
// is a code plus a message pointer and the enums are one byte: 176 bytes
// on x86-64 with libstdc++, down from 216.
TEST(SolveOutcomeTest, StaysCompact) {
  EXPECT_LE(sizeof(SolveOutcome), 176u);
  EXPECT_EQ(sizeof(harness::SolveBackend), 1u);
  EXPECT_EQ(sizeof(workloads::WorkloadKind), 1u);
}

TEST_F(SolveServiceTest, FailedAttemptKeepsItsChainInDetail) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec program;
  program.probability = 1.0;  // every device call fails to program
  faults.Arm("device.program", program);
  ServiceOptions options = SmallServiceOptions();
  options.faults = &faults;
  SolveService service(options);
  ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  ASSERT_EQ(service.DrainAll(), 1);
  const SolveOutcome& outcome = service.outcomes()[0];
  ASSERT_TRUE(outcome.status.ok()) << outcome.detail;
  EXPECT_NE(outcome.backend, SolveBackend::kDevice);
  EXPECT_EQ(outcome.detail.rfind("device#1: ", 0), 0u) << outcome.detail;
  EXPECT_NE(outcome.detail.find(": OK (cost "), std::string::npos)
      << outcome.detail;
}

// The no-fault, no-overload acceptance bar: a request routed through the
// whole service (queue, admission, breakers, round scheduling) answers
// bit-identically to calling the quantum pipeline directly.
TEST_F(SolveServiceTest, NoFaultPathMatchesDirectPipelineBitExactly) {
  ServiceOptions options = SmallServiceOptions();
  SolveService service(options);
  ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  ASSERT_EQ(service.DrainAll(), 1);
  const SolveOutcome& outcome = service.outcomes()[0];
  ASSERT_TRUE(outcome.status.ok()) << outcome.detail;

  auto direct = harness::SolveQuantumMqo(instance_.problem,
                                         instance_.embedding, graph_,
                                         options.pipeline);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(outcome.cost, direct->best_cost);
  ASSERT_EQ(outcome.solution.num_queries(),
            direct->best_solution.num_queries());
  for (int q = 0; q < outcome.solution.num_queries(); ++q) {
    EXPECT_EQ(outcome.solution.selected(q), direct->best_solution.selected(q));
  }
}

TEST_F(SolveServiceTest, SubmitTextRoundTripMatchesDirectSubmit) {
  SolveService a(SmallServiceOptions());
  SolveService b(SmallServiceOptions());
  ASSERT_TRUE(a.Submit(instance_.problem, instance_.embedding).ok());
  auto id = b.SubmitText(mqo::ToText(instance_.problem));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_EQ(a.DrainAll(), 1);
  ASSERT_EQ(b.DrainAll(), 1);
  // The wire path re-derives the embedding from the cluster structure —
  // the same construction the workload generator used — so the answer is
  // bit-identical to the in-process submission.
  EXPECT_TRUE(b.outcomes()[0].status.ok()) << b.outcomes()[0].detail;
  EXPECT_EQ(b.outcomes()[0].cost, a.outcomes()[0].cost);
  EXPECT_EQ(b.outcomes()[0].backend, a.outcomes()[0].backend);
}

TEST_F(SolveServiceTest, HostilePayloadIsRejectedNotCrashed) {
  SolveService service(SmallServiceOptions());
  auto bad = service.SubmitText("mqo v1\nquery nan\nend\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Count(service, "requests_rejected_total{reason=\"invalid\"}"), 1);
  EXPECT_EQ(Count(service, "requests_accepted_total"), 0);
}

TEST_F(SolveServiceTest, FullQueueRejectsWithResourceExhausted) {
  ServiceOptions options = SmallServiceOptions();
  options.queue_capacity = 2;
  SolveService service(options);
  ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  auto rejected = service.Submit(instance_.problem, instance_.embedding);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(
      Count(service, "requests_rejected_total{reason=\"queue_full\"}"), 1);
  // The two admitted requests still drain normally.
  EXPECT_EQ(service.DrainAll(), 2);
  EXPECT_EQ(service.in_flight(), 0);
}

TEST_F(SolveServiceTest, InteractiveLaneDequeuesAheadOfBatch) {
  ServiceOptions options = SmallServiceOptions();
  options.round_width = 1;
  SolveService service(options);
  auto batch1 = service.Submit(instance_.problem, instance_.embedding,
                               RequestPriority::kBatch);
  auto batch2 = service.Submit(instance_.problem, instance_.embedding,
                               RequestPriority::kBatch);
  auto interactive = service.Submit(instance_.problem, instance_.embedding,
                                    RequestPriority::kInteractive);
  ASSERT_TRUE(batch1.ok() && batch2.ok() && interactive.ok());
  ASSERT_EQ(service.ProcessRound(), 1);
  EXPECT_EQ(service.outcomes()[0].id, *interactive);
  ASSERT_EQ(service.ProcessRound(), 1);
  EXPECT_EQ(service.outcomes()[1].id, *batch1);
  ASSERT_EQ(service.ProcessRound(), 1);
  EXPECT_EQ(service.outcomes()[2].id, *batch2);
}

TEST_F(SolveServiceTest, QueueStallExpiresDeadlinedRequestsWithoutSolving) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec stall;
  stall.probability = 1.0;
  stall.latency_ms = 100.0;
  faults.Arm("service.queue_stall", stall);

  ServiceOptions options = SmallServiceOptions();
  options.faults = &faults;
  SolveService service(options);
  auto doomed =
      service.Submit(instance_.problem, instance_.embedding,
                     RequestPriority::kBatch, /*deadline_ms=*/50.0);
  auto patient = service.Submit(instance_.problem, instance_.embedding);
  ASSERT_TRUE(doomed.ok() && patient.ok());
  EXPECT_EQ(service.DrainAll(), 2);

  EXPECT_EQ(
      Count(service, "requests_settled_total{verdict=\"expired_in_queue\"}"),
      1);
  EXPECT_EQ(Count(service, "requests_settled_total{verdict=\"ok\"}"), 1);
  EXPECT_EQ(service.in_flight(), 0);
  const SolveOutcome& expired = service.outcomes()[0];
  EXPECT_EQ(expired.id, *doomed);
  EXPECT_EQ(expired.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(expired.attempts, 0);          // never occupied a worker
  EXPECT_GE(expired.queue_wait_modeled_ms, 100.0);
  EXPECT_GE(service.modeled_now_ms(), 100.0);
}

TEST_F(SolveServiceTest, QueuePressureShedsTheEntryRung) {
  ServiceOptions options = SmallServiceOptions();
  options.queue_capacity = 8;  // 4 queued = fill 0.5 = shed_fill
  options.round_width = 4;
  SolveService service(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  }
  ASSERT_EQ(service.ProcessRound(), 4);
  // All four were claimed by an overfilled round: they enter at the last
  // rung, greedy answers at its first attempt, requests still complete.
  EXPECT_EQ(Count(service, "shed_degraded_total"), 4);
  EXPECT_EQ(Answered(service, SolveBackend::kGreedy), 4);
  for (const SolveOutcome& outcome : service.outcomes()) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.detail;
    EXPECT_EQ(outcome.entry_rung, 3);
    EXPECT_EQ(outcome.backend, SolveBackend::kGreedy);
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_TRUE(outcome.shed_degraded);
  }
  // Pressure gone: the next request gets the full ladder again.
  ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  ASSERT_EQ(service.ProcessRound(), 1);
  EXPECT_EQ(Answered(service, SolveBackend::kDevice), 1);
  EXPECT_EQ(service.outcomes()[4].entry_rung, 0);
}

// Pressure shedding targets the ladder's last rung, whatever the ladder:
// on {device, SA, greedy} an overfilled round enters at rung 2 and the
// request samples nothing — no anneal, no sampler attempt.
TEST_F(SolveServiceTest, PressureShedEntersTheLastRungOfAnyLadder) {
  obs::Tracer tracer;
  ServiceOptions options = SmallServiceOptions();
  options.policy.ladder = {SolveBackend::kDevice, SolveBackend::kSa,
                           SolveBackend::kGreedy};
  options.queue_capacity = 2;  // 1 queued = fill 0.5 = shed_fill
  options.tracer = &tracer;
  SolveService service(options);
  ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  ASSERT_EQ(service.ProcessRound(), 1);
  ASSERT_EQ(service.outcomes().size(), 1u);
  const SolveOutcome& outcome = service.outcomes()[0];
  ASSERT_TRUE(outcome.status.ok()) << outcome.detail;
  EXPECT_EQ(outcome.entry_rung, 2);
  EXPECT_EQ(outcome.backend, SolveBackend::kGreedy);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_TRUE(outcome.shed_degraded);

  ASSERT_EQ(tracer.traces().size(), 1u);
  int attempts = 0;
  for (const obs::Span& span : tracer.traces()[0].spans()) {
    EXPECT_NE(span.name, "pipeline.anneal");
    if (span.name == "service.request") {
      EXPECT_EQ(TagOf(span, "entry_rung"), "2");
    }
    if (span.name == "solve.attempt") {
      ++attempts;
      EXPECT_EQ(TagOf(span, "backend"), "greedy");
      EXPECT_EQ(TagOf(span, "rung"), "2");
    }
  }
  EXPECT_EQ(attempts, 1);
}

// A brownout routes past the device at rung 1, but a one-rung ladder has no
// rung 1: the outcome and the trace report the rung that ran, rung 0.
TEST_F(SolveServiceTest, BrownoutOnAOneRungLadderReportsTheRungThatRan) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec brownout;
  brownout.fail_first = INT64_MAX;  // every request browns out
  faults.Arm("service.brownout", brownout);

  obs::Tracer tracer;
  ServiceOptions options = SmallServiceOptions();
  options.policy.ladder = {SolveBackend::kGreedy};
  options.faults = &faults;
  options.tracer = &tracer;
  SolveService service(options);
  ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  ASSERT_EQ(service.DrainAll(), 1);
  const SolveOutcome& outcome = service.outcomes()[0];
  ASSERT_TRUE(outcome.status.ok()) << outcome.detail;
  EXPECT_TRUE(outcome.shed_degraded);
  EXPECT_EQ(outcome.entry_rung, 0);
  EXPECT_EQ(outcome.backend, SolveBackend::kGreedy);
  ASSERT_EQ(tracer.traces().size(), 1u);
  EXPECT_EQ(TagOf(tracer.traces()[0].spans()[0], "entry_rung"), "0");
}

TEST_F(SolveServiceTest, BreakerOpensOnDeviceFailuresThenRecovers) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec down;
  down.fail_first = INT64_MAX;  // device rung fails every attempt
  down.latency_ms = 10.0;       // each failure advances the modeled clock
  faults.Arm("solve.device", down);

  ServiceOptions options = SmallServiceOptions();
  options.faults = &faults;
  options.round_width = 1;
  options.breaker.window = 4;
  options.breaker.min_samples = 2;
  options.breaker.failure_rate_to_open = 0.5;
  options.breaker.open_cooldown_ms = 15.0;
  SolveService service(options);

  // Two failing device attempts open the breaker; the third request skips
  // the device rung at admission without burning an attempt on it.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
    ASSERT_EQ(service.ProcessRound(), 1);
  }
  EXPECT_EQ(service.breaker(SolveBackend::kDevice).state(),
            BreakerState::kOpen);
  // SQA absorbed everything.
  EXPECT_EQ(Count(service, "requests_settled_total{verdict=\"ok\"}"), 3);
  EXPECT_EQ(Answered(service, SolveBackend::kSqa), 3);
  EXPECT_EQ(service.outcomes()[2].breaker_skips, 1);
  EXPECT_EQ(Count(service, "breaker_skips_total"), 1);

  // The device comes back; queue stalls advance the modeled clock past the
  // cooldown, the half-open probe succeeds, and the breaker closes.
  util::FaultSpec recovered;
  faults.Arm("solve.device", recovered);
  util::FaultSpec stall;
  stall.probability = 1.0;
  stall.latency_ms = 10.0;
  faults.Arm("service.queue_stall", stall);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
    ASSERT_EQ(service.ProcessRound(), 1);
  }
  EXPECT_EQ(service.breaker(SolveBackend::kDevice).state(),
            BreakerState::kClosed);
  EXPECT_GE(service.breaker(SolveBackend::kDevice).times_closed(), 1);
  EXPECT_GE(Answered(service, SolveBackend::kDevice), 1);
}

TEST_F(SolveServiceTest, WorkerCrashFaultFailsOnlyThatRequest) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec crash;
  crash.fail_first = 2;  // request ids start at 1: only id 1 crashes
  faults.Arm("service.worker_crash", crash);

  ServiceOptions options = SmallServiceOptions();
  options.faults = &faults;
  SolveService service(options);
  ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  EXPECT_EQ(service.DrainAll(), 2);
  EXPECT_EQ(service.outcomes()[0].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(service.outcomes()[1].status.ok());
  EXPECT_EQ(Count(service, "requests_settled_total{verdict=\"failed\"}"), 1);
  EXPECT_EQ(Count(service, "requests_settled_total{verdict=\"ok\"}"), 1);
  EXPECT_EQ(service.in_flight(), 0);
}

TEST_F(SolveServiceTest, FailFastShutdownLeaksNothingAndStopsAdmission) {
  ServiceOptions options = SmallServiceOptions();
  options.round_width = 4;
  SolveService service(options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  }
  ASSERT_EQ(service.ProcessRound(), 4);
  EXPECT_EQ(service.Shutdown(/*graceful=*/false), 1);
  EXPECT_EQ(
      Count(service, "requests_settled_total{verdict=\"drained_failfast\"}"),
      1);
  EXPECT_EQ(service.in_flight(), 0);  // the zero-leak invariant
  EXPECT_EQ(service.outcomes().back().status.code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(service.accepting());

  auto late = service.Submit(instance_.problem, instance_.embedding);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(
      Count(service, "requests_rejected_total{reason=\"shutdown\"}"), 1);
}

TEST_F(SolveServiceTest, GracefulShutdownDrainsFirst) {
  SolveService service(SmallServiceOptions());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
  }
  EXPECT_EQ(service.Shutdown(/*graceful=*/true), 3);
  EXPECT_EQ(Count(service, "requests_settled_total{verdict=\"ok\"}"), 3);
  EXPECT_EQ(
      Count(service, "requests_settled_total{verdict=\"drained_failfast\"}"),
      0);
  EXPECT_EQ(service.in_flight(), 0);
  EXPECT_FALSE(service.accepting());
}

// Fault accounting is per attempt. With device faults armed, the solves of
// one round run concurrently on the same injector; each attempt must count
// only its own firings and charge only its own injected latency. Device
// fault keys do not depend on the request, so the outcomes — fault counts
// and modeled charges included — must match at any worker count.
TEST_F(SolveServiceTest, ConcurrentSolvesKeepTheirOwnFaultAccounting) {
  auto run_with_threads = [&](int num_threads) {
    util::FaultInjector faults(ChaosSeed());
    util::FaultSpec latency;
    latency.probability = 1.0;  // every programming cycle costs 1 ms
    latency.latency_ms = 1.0;
    faults.Arm("device.latency", latency);
    util::FaultSpec program;
    program.probability = 0.3;
    faults.Arm("device.program", program);

    ServiceOptions options = SmallServiceOptions();
    options.faults = &faults;
    options.num_threads = num_threads;
    options.policy.max_attempts_per_backend = 2;
    // Long enough device calls that a round's solves overlap in time.
    options.pipeline.device.num_reads = 300;
    options.pipeline.device.sa_sweeps = 64;
    // Every request tries the device: no breaker may open and skip it.
    options.breakers_enabled = false;
    SolveService service(options);
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(service.Submit(instance_.problem, instance_.embedding).ok());
    }
    EXPECT_EQ(service.DrainAll(), 16);
    std::vector<std::string> fingerprints;
    for (const SolveOutcome& o : service.outcomes()) {
      EXPECT_GT(o.faults_observed, 0) << o.detail;
      fingerprints.push_back(StrFormat(
          "id=%llu status=[%s] backend=%d cost=%.17g solve=%.17g "
          "attempts=%d faults=%lld chain=%s",
          static_cast<unsigned long long>(o.id), o.status.ToString().c_str(),
          static_cast<int>(o.backend), o.cost, o.solve_modeled_ms, o.attempts,
          static_cast<long long>(o.faults_observed), o.detail.c_str()));
    }
    fingerprints.push_back(service.metrics().JsonText());
    return fingerprints;
  };

  const std::vector<std::string> serial = run_with_threads(1);
  for (int threads : {2, 4}) {
    const std::vector<std::string> parallel = run_with_threads(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "threads=" << threads << " entry "
                                        << i;
    }
  }
}

// A full chaos run (queue stalls, worker crashes, brownouts, a flaky
// device, deadline shedding, backoff) settles every request with identical
// per-request outcomes and bit-identical metrics snapshots at 1, 2, and 4
// worker threads. Every slot's reads and read-out fan out over the
// service's workers, so the template's own device thread count is
// overwritten and must not move a result either. Waves of uneven size push
// queue fill past the shed threshold and back under it, so the run holds
// greedy-shed, brownout (SQA) and device slots next to crashed ones.
TEST_F(SolveServiceTest, ChaosRunIsIdenticalAcrossWorkerThreads) {
  struct RunResult {
    std::string metrics;
    int64_t accepted = 0;
    int64_t expired_in_queue = 0;
    std::vector<std::string> outcomes;
    std::array<int, 4> entry_rungs{};
    int device_answers = 0;
  };
  auto run_with_threads = [&](int num_threads, int device_threads) {
    util::FaultInjector faults(ChaosSeed());
    util::FaultSpec stall;
    stall.probability = 1.0;  // every round ages the queue 25 modeled ms
    stall.latency_ms = 25.0;
    faults.Arm("service.queue_stall", stall);
    util::FaultSpec crash;
    crash.probability = 0.15;
    faults.Arm("service.worker_crash", crash);
    util::FaultSpec brownout;
    brownout.probability = 0.25;
    faults.Arm("service.brownout", brownout);
    util::FaultSpec flaky_device;
    flaky_device.probability = 0.4;
    flaky_device.latency_ms = 5.0;
    faults.Arm("solve.device", flaky_device);

    ServiceOptions options = SmallServiceOptions();
    options.faults = &faults;
    options.num_threads = num_threads;
    options.pipeline.device.num_threads = device_threads;
    options.queue_capacity = 8;
    options.round_width = 3;
    options.policy.max_attempts_per_backend = 2;
    options.policy.backoff_initial_ms = 1.0;
    options.breaker.window = 6;
    options.breaker.min_samples = 3;
    options.breaker.open_cooldown_ms = 40.0;

    SolveService service(options);
    int submitted = 0;
    // A light tail keeps fill under the threshold, so brownouts there
    // enter at SQA rather than at the last resort.
    for (int wave_size : {8, 2, 0, 1, 8, 2, 0, 1, 8, 2, 0, 1, 2, 2, 2, 2, 2,
                          2}) {
      for (int i = 0; i < wave_size; ++i) {
        RequestPriority priority = (submitted % 3 == 0)
                                       ? RequestPriority::kInteractive
                                       : RequestPriority::kBatch;
        // Every fourth request carries a deadline shorter than one queue
        // stall, so it deterministically expires before scheduling.
        double deadline = (submitted % 4 == 3) ? 20.0 : 0.0;
        auto id = service.Submit(instance_.problem, instance_.embedding,
                                 priority, deadline);
        if (id.ok()) ++submitted;
      }
      service.ProcessRound();
    }
    service.Shutdown(/*graceful=*/true);

    RunResult result;
    result.metrics = service.metrics().JsonText();
    result.accepted = Count(service, "requests_accepted_total");
    result.expired_in_queue =
        Count(service, "requests_settled_total{verdict=\"expired_in_queue\"}");
    for (const SolveOutcome& o : service.outcomes()) {
      std::string selected;
      for (int q = 0; q < o.solution.num_queries(); ++q) {
        selected += StrFormat("%d,", o.solution.selected(q));
      }
      result.outcomes.push_back(StrFormat(
          "id=%llu status=[%s] backend=%d cost=%.17g rung=%d shed=%d "
          "wait=%.3f solve=%.3f attempts=%d skips=%d faults=%lld sel=%s",
          static_cast<unsigned long long>(o.id), o.status.ToString().c_str(),
          static_cast<int>(o.backend), o.cost, o.entry_rung,
          o.shed_degraded ? 1 : 0, o.queue_wait_modeled_ms,
          o.solve_modeled_ms, o.attempts, o.breaker_skips,
          static_cast<long long>(o.faults_observed), selected.c_str()));
      // Only slots that ran a solve count: an expired request never
      // reached a rung, and a crashed slot keeps its rung but runs nothing.
      if (o.attempts >= 1) {
        ++result.entry_rungs[static_cast<size_t>(o.entry_rung)];
      }
      if (o.status.ok() && o.backend == SolveBackend::kDevice) {
        ++result.device_answers;
      }
    }
    EXPECT_EQ(service.in_flight(), 0) << result.metrics;
    return result;
  };

  RunResult serial = run_with_threads(1, 1);
  EXPECT_GT(serial.accepted, 0);
  EXPECT_GT(serial.expired_in_queue, 0);
  // Solved slots entered at the device, at SQA (brownout) and at greedy
  // (queue pressure); none entered at SA, which is reached only by falling
  // through. The device answered some, so a device read fan-out ran.
  const std::string rungs =
      StrFormat("entry rungs %d/%d/%d/%d", serial.entry_rungs[0],
                serial.entry_rungs[1], serial.entry_rungs[2],
                serial.entry_rungs[3]);
  EXPECT_GT(serial.entry_rungs[0], 0) << rungs;
  EXPECT_GT(serial.entry_rungs[1], 0) << rungs;
  EXPECT_EQ(serial.entry_rungs[2], 0) << rungs;
  EXPECT_GT(serial.entry_rungs[3], 0) << rungs;
  EXPECT_GT(serial.device_answers, 0);
  for (int device_threads : {1, 4}) {
    for (int threads : {1, 2, 4}) {
      if (threads == 1 && device_threads == 1) continue;
      RunResult parallel = run_with_threads(threads, device_threads);
      EXPECT_EQ(parallel.metrics, serial.metrics)
          << "threads=" << threads << " device_threads=" << device_threads;
      ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
      for (size_t i = 0; i < serial.outcomes.size(); ++i) {
        EXPECT_EQ(parallel.outcomes[i], serial.outcomes[i])
            << "threads=" << threads << " device_threads=" << device_threads
            << " outcome " << i;
      }
    }
  }
}

}  // namespace
}  // namespace service
}  // namespace qmqo
