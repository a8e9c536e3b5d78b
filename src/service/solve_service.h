#ifndef QMQO_SERVICE_SOLVE_SERVICE_H_
#define QMQO_SERVICE_SOLVE_SERVICE_H_

/// \file solve_service.h
/// MQO-as-a-service: a process-local bounded batch-solve server.
///
/// `SolveService` turns the one-shot resilient solve orchestrator into a
/// long-running service loop with the operational behaviors a shared MQO
/// endpoint needs:
///
///  * **Admission control.** Requests arrive through `Submit`,
///    `SubmitText` (the v1 wire formats) or `SubmitWorkload`; each builds a
///    queued request and passes one admission step into a bounded two-lane
///    queue (`BoundedRequestQueue`). When the queue is full, submission is
///    rejected with `ResourceExhausted` instead of buffering unboundedly.
///    Invalid payloads are rejected with `InvalidArgument`; a shut-down
///    service rejects with `Unavailable`. Every rejection is a typed
///    `Status` and a registry counter — overload is observable, never an
///    abort.
///  * **Circuit breakers.** Each ladder backend owns a `CircuitBreaker`.
///    Attempt outcomes (including modeled-latency SLA violations) feed the
///    breaker on the serial commit path; open breakers cause subsequent
///    requests to *skip* that rung at admission, via
///    `SolvePolicy::backend_gate`, so a dying device stops taxing every
///    request's retry budget. The last-resort rung is never gated.
///  * **Load shedding.** Queue occupancy measured at round formation
///    degrades the ladder *entry rung* (`SolvePolicy::entry_rung`):
///    past `shed_device_fill` new work skips the device, past
///    `shed_sqa_fill` it also skips SQA, past `shed_sa_fill` everything
///    goes straight to greedy. Degraded requests still complete — graceful
///    degradation trades answer quality for throughput, never availability.
///  * **Deadlines.** Each request carries a modeled deadline; requests that
///    age past it while still queued are shed (`expired_in_queue`) without
///    ever occupying a worker, and scheduled requests inherit only their
///    *remaining* budget.
///  * **Drain / shutdown.** `Shutdown(/*graceful=*/true)` solves everything
///    queued, then stops accepting; fail-fast shutdown fails queued
///    requests with `Unavailable` (`drained_failfast`). Either way
///    `in_flight() == 0` afterwards — zero leaked requests is checkable
///    arithmetic over the registry's admission and settle counters.
///
/// Determinism contract (the same discipline as the rest of the repo):
/// scheduling runs in *rounds*. Round formation, deadline expiry, shed
/// level, and breaker consultation all happen serially; the round's solves
/// fan out on a `util::Executor` into per-index outcome slots; outcomes
/// commit serially in index order (feeding breakers and counters). The
/// round width is deliberately independent of the worker-thread count, and
/// all queue-wait/latency accounting uses the service's *modeled* clock —
/// so for a fixed submission order and `QMQO_CHAOS_SEED`, per-request
/// outcomes and every counter are bit-identical at 1, 2, or 4 worker
/// threads. With no faults armed and no overload, a request's answer is
/// bit-identical to calling `ResilientSolver::Solve` directly.
///
/// Fault sites queried here (see util/fault.h): "service.queue_stall"
/// (keyed by round), "service.worker_crash" and "service.brownout" (keyed
/// by request id).

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "chimera/topology.h"
#include "harness/quantum_pipeline.h"
#include "harness/resilient_solver.h"
#include "mqo/problem.h"
#include "mqo/solution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/circuit_breaker.h"
#include "service/request_queue.h"
#include "util/status.h"
#include "workloads/workload.h"

namespace qmqo {
namespace util {
class Executor;
class FaultInjector;
}  // namespace util

namespace service {

/// Configuration of a `SolveService`.
struct ServiceOptions {
  /// Bounded queue capacity (admission control; >= 1).
  int queue_capacity = 64;
  /// Requests claimed per scheduling round. Deliberately independent of
  /// `num_threads` so round composition — and therefore every outcome and
  /// counter — is identical at any worker count. <= 0 becomes 4.
  int round_width = 4;
  /// Worker parallelism of a round's solve fan-out (affects wall time
  /// only, never results).
  int num_threads = 1;
  /// Worker pool (never owned; null = the process-wide shared pool).
  util::Executor* executor = nullptr;
  /// Per-request solve policy template. The service forks `policy.seed`
  /// per request id, installs its breaker gate and shed entry rung, and
  /// rewrites `deadline_ms` to the request's remaining budget.
  harness::SolvePolicy policy;
  /// Pipeline options template for the device rung (executor and faults
  /// are filled in by the service when unset).
  harness::QuantumMqoOptions pipeline;
  /// Hardware graph solves run against (never owned; required).
  const chimera::ChimeraGraph* graph = nullptr;
  /// Queue fill fractions at which the entry rung degrades to SQA, SA,
  /// and greedy respectively (measured at round formation).
  double shed_device_fill = 0.5;
  double shed_sqa_fill = 0.75;
  double shed_sa_fill = 0.9;
  /// Per-backend breaker configuration (one breaker per ladder backend).
  CircuitBreakerOptions breaker;
  bool breakers_enabled = true;
  /// Fault injection for the service layer and (when the templates carry
  /// none) the solves it routes (never owned; null = no faults).
  const util::FaultInjector* faults = nullptr;
  /// Modeled deadline applied to requests submitted without one;
  /// <= 0 = no default deadline.
  double default_deadline_ms = 0.0;
  /// Optional trace collector (never owned; null = no tracing). One
  /// `service.request` root span is committed per settled request, in
  /// settle order, from the serial scheduling path — solver and pipeline
  /// spans nest under it. Tags record the verdict (completed / failed /
  /// expired_in_queue / worker_crash / drained_failfast), round, entry
  /// rung, shedding, and modeled queue wait. Trace dumps with wall clocks
  /// suppressed are bit-identical at any worker-thread count.
  obs::Tracer* tracer = nullptr;
};

/// What the service settled for one accepted request. The service keeps
/// every outcome it settles, so fields are ordered to leave no padding
/// (176 bytes on x86-64 with libstdc++).
struct SolveOutcome {
  uint64_t id = 0;
  /// OK when a backend answered; `Timeout` for queue expiry; `Unavailable`
  /// for fail-fast drain; otherwise the solve's final error.
  Status status;
  double cost = 0.0;
  mqo::MqoSolution solution{0};
  /// Modeled milliseconds spent queued before scheduling (or expiry).
  double queue_wait_modeled_ms = 0.0;
  /// Modeled milliseconds the solve itself charged.
  double solve_modeled_ms = 0.0;
  int64_t faults_observed = 0;
  /// The solve's failure chain (`SolveReport::FailureChain`), kept only
  /// when the chain holds a failed attempt or a breaker gate skip; empty
  /// when the first attempt answered and when never scheduled.
  std::string detail;
  /// Workload requests only: the decoded domain solution (clique members /
  /// cut sides / colors — always repaired to the domain by
  /// `Workload::Decode`) and its optimality gap against the
  /// generator-planted optimum. `cost` carries the raw QUBO energy of the
  /// winning assignment. The formulated workload itself is not retained, so
  /// settled outcomes stay small; a caller that wants to validate the
  /// solution keeps its own instance.
  workloads::WorkloadSolution workload_solution;
  double workload_gap = 0.0;
  /// Ladder rung the request entered at (0 = full ladder).
  int entry_rung = 0;
  /// Solve attempts run (0 when never scheduled).
  int attempts = 0;
  /// Ladder rungs skipped on an open/half-open breaker.
  int breaker_skips = 0;
  /// The answering backend (meaningful when `status.ok()`).
  harness::SolveBackend backend = harness::SolveBackend::kGreedy;
  /// True when queue pressure or a brownout fault degraded the entry rung.
  bool shed_degraded = false;
  /// Workload requests only: the request's kind (empty for MQO).
  std::optional<workloads::WorkloadKind> workload_kind;
};

/// The service. `Submit*` is thread-safe; `ProcessRound` / `DrainAll` /
/// `Shutdown` form the serial scheduling path and must be called from one
/// thread at a time.
class SolveService {
 public:
  explicit SolveService(const ServiceOptions& options);

  /// Submits a parsed problem with a caller-provided embedding. Returns
  /// the assigned request id, or the typed rejection (`InvalidArgument`,
  /// `ResourceExhausted`, `Unavailable`). `deadline_ms` < 0 uses the
  /// service default; 0 means no deadline.
  Result<uint64_t> Submit(mqo::MqoProblem problem,
                          embedding::Embedding embedding,
                          RequestPriority priority = RequestPriority::kBatch,
                          double deadline_ms = -1.0);

  /// Submits a v1 wire-format payload (`mqo::FromText`). The embedding is
  /// re-derived from the parsed problem's cluster structure
  /// (`ClusteredEmbedder`), exactly as the paper workload builds it — so a
  /// round-tripped instance solves bit-identically to its in-process
  /// original. When no embedding fits the graph the request is still
  /// accepted, entering the ladder at the first classical rung.
  Result<uint64_t> SubmitText(const std::string& text,
                              RequestPriority priority = RequestPriority::kBatch,
                              double deadline_ms = -1.0);

  /// Submits a formulated workload (max-clique / max-cut / coloring). The
  /// solve runs `ResilientSolver::SolveQubo` on the workload's QUBO —
  /// there is no embedding, so the request enters the ladder at the first
  /// classical rung, exactly like an MQO request whose embedding did not
  /// fit. The outcome carries the decoded domain solution and its
  /// optimality gap. Null workloads are `InvalidArgument`.
  Result<uint64_t> SubmitWorkload(
      std::shared_ptr<const workloads::Workload> workload,
      RequestPriority priority = RequestPriority::kBatch,
      double deadline_ms = -1.0);

  /// Runs one scheduling round: claims up to `round_width` requests, sheds
  /// expired ones, solves the rest in parallel, commits outcomes and
  /// breaker feedback serially. Returns the number of requests settled.
  int ProcessRound();

  /// Rounds until the queue is empty. Returns requests settled.
  int DrainAll();

  /// Stops accepting. `graceful` drains the queue through normal rounds
  /// first; otherwise everything queued fails fast with `Unavailable`.
  /// Returns requests settled during shutdown. Idempotent.
  int Shutdown(bool graceful = true);

  bool accepting() const { return accepting_; }

  /// Outcomes in settle order (round by round, index order within rounds).
  const std::vector<SolveOutcome>& outcomes() const { return outcomes_; }

  /// Accepted requests not yet settled, from the registry counters:
  /// `accepted` minus the settled verdicts (ok, failed, expired_in_queue,
  /// drained_failfast). Every accepted request settles exactly once, so
  /// this is 0 after a drain or a shutdown — the zero-leak contract.
  int64_t in_flight() const;

  /// The unified metrics registry, the one store of every service counter:
  /// submissions, acceptances and rejections by reason, settles by
  /// verdict, shed and breaker-skip counts, answers by backend, accepted
  /// workloads by kind, rounds, the modeled clock, and the queue-wait and
  /// solve latency histograms — plus breaker state, fault-site counts, and
  /// embedding-cache stats, mirrored by collectors at snapshot time. Read a
  /// counter with `metrics().counter(name)->Value()`. Call `Collect()` /
  /// `PrometheusText()` / `JsonText()` from the serial scheduling thread —
  /// breaker state is externally synchronized.
  obs::MetricsRegistry& metrics() { return registry_; }

  /// The modeled service clock, milliseconds since construction.
  double modeled_now_ms() const { return clock_ms_; }

  const CircuitBreaker& breaker(harness::SolveBackend backend) const {
    return breakers_[static_cast<size_t>(backend)];
  }

  const BoundedRequestQueue& queue() const { return queue_; }

 private:
  /// The one admission path behind every `Submit*`: counts the submission,
  /// turns an unbuildable request into a counted `InvalidArgument`
  /// rejection, applies the default deadline, and enqueues — counting the
  /// acceptance (and a workload's kind) or the rejection reason under one
  /// lock.
  Result<uint64_t> Admit(Result<QueuedRequest> request,
                         RequestPriority priority, double deadline_ms);
  /// Creates every registry-backed counter/gauge/histogram handle and
  /// registers the breaker/fault/cache collectors. Constructor-only.
  void RegisterMetrics();

  ServiceOptions options_;
  BoundedRequestQueue queue_;
  /// One breaker per harness::SolveBackend value, indexed by the enum.
  CircuitBreaker breakers_[4];
  /// The single store and snapshot surface for every service counter.
  /// Handles below are stable pointers into it, created once at
  /// construction; all updates happen on the serial admission/commit
  /// paths.
  obs::MetricsRegistry registry_;
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_rejected_invalid_ = nullptr;
  obs::Counter* m_rejected_queue_full_ = nullptr;
  obs::Counter* m_rejected_shutdown_ = nullptr;
  obs::Counter* m_completed_ok_ = nullptr;
  obs::Counter* m_completed_failed_ = nullptr;
  obs::Counter* m_expired_in_queue_ = nullptr;
  obs::Counter* m_drained_failfast_ = nullptr;
  obs::Counter* m_shed_degraded_ = nullptr;
  obs::Counter* m_breaker_skips_ = nullptr;
  obs::Counter* m_faults_observed_ = nullptr;
  obs::Counter* m_answered_by_[4] = {nullptr, nullptr, nullptr, nullptr};
  /// Accepted workload requests by kind (max_clique / max_cut / coloring).
  obs::Counter* m_workload_accepted_[3] = {nullptr, nullptr, nullptr};
  obs::Counter* m_rounds_ = nullptr;
  obs::Gauge* m_modeled_clock_ = nullptr;
  obs::Histogram* m_queue_wait_hist_ = nullptr;
  obs::Histogram* m_solve_hist_ = nullptr;
  std::vector<SolveOutcome> outcomes_;
  double clock_ms_ = 0.0;
  uint64_t next_id_ = 1;
  int64_t round_index_ = 0;
  bool accepting_ = true;
  /// Guards admission bookkeeping (counters, clock reads, id assignment)
  /// against concurrent submitters.
  mutable std::mutex mutex_;
};

}  // namespace service
}  // namespace qmqo

#endif  // QMQO_SERVICE_SOLVE_SERVICE_H_
