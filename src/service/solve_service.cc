#include "service/solve_service.h"

#include <algorithm>
#include <array>
#include <utility>

#include "embedding/clustered.h"
#include "embedding/embedding_cache.h"
#include "mqo/serialization.h"
#include "util/executor.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads/serialization.h"

namespace qmqo {
namespace service {
namespace {

// Maximum accepted wire payload (mirrors both formats' own caps) — checked
// before the tag scan so oversized hostile payloads are rejected up front.
constexpr size_t kMaxSubmitTextBytes = 16u << 20;  // 16 MiB

// The request-type tag: first token of the first non-blank, non-comment
// line. One linear scan, no parsing.
std::string LeadingRequestTag(const std::string& text) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = Trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    return space == std::string::npos ? line : line.substr(0, space);
  }
  return "";
}

// One round slot: everything decided serially at admission, filled in by
// the parallel solve, then committed serially.
struct RoundSlot {
  QueuedRequest request;
  harness::SolvePolicy policy;
  harness::QuantumMqoOptions pipeline;
  bool crashed = false;  // service.worker_crash fired at admission
  bool shed = false;     // entry rung set by queue pressure or brownout
  double crash_latency_ms = 0.0;
  harness::SolveReport report;
  // Per-slot trace: the root span opens at admission (serial), solver
  // spans nest under it in the worker, the verdict closes it at the
  // serial commit — then it is committed to the shared Tracer in slot
  // order, the same discipline that makes outcomes deterministic.
  obs::SolveTrace trace;
  int root_span = -1;
};

// A workload request: no embedding exists for a bare QUBO, so admission
// degrades the entry rung past the device exactly as for an MQO request
// whose embedding did not fit, and SolveQubo's own gate records the typed
// skip.
Result<QueuedRequest> WorkloadRequest(
    std::shared_ptr<const workloads::Workload> workload) {
  if (workload == nullptr) return Status::InvalidArgument("null workload");
  QueuedRequest request;
  request.workload = std::move(workload);
  return request;
}

// Parses a wire payload into a request. Dispatch is on the request-type tag
// (the first token of the first non-blank, non-comment line): "mqo" and
// "workload" route to their parsers; anything else is a typed
// InvalidArgument — an unknown tag must never fall through into a format
// parser whose errors would misreport it as a malformed instance of the
// wrong format.
Result<QueuedRequest> ParseRequest(const std::string& text,
                                   const chimera::ChimeraGraph* graph) {
  if (text.size() > kMaxSubmitTextBytes) {
    return Status::InvalidArgument(
        StrFormat("oversized payload: %zu bytes (limit %zu)", text.size(),
                  kMaxSubmitTextBytes));
  }
  const std::string tag = LeadingRequestTag(text);
  if (tag == "workload") {
    QMQO_ASSIGN_OR_RETURN(workloads::WorkloadSpec spec,
                          workloads::FromText(text));
    QMQO_ASSIGN_OR_RETURN(std::shared_ptr<workloads::Workload> workload,
                          workloads::MakeWorkload(spec));
    return WorkloadRequest(std::move(workload));
  }
  if (tag != "mqo") {
    return Status::InvalidArgument(StrFormat(
        "unknown request type tag '%s' (expected 'mqo' or 'workload')",
        tag.c_str()));
  }
  QueuedRequest request;
  QMQO_ASSIGN_OR_RETURN(request.problem, mqo::FromText(text));
  const mqo::MqoProblem& problem = request.problem;
  // Re-derive the embedding from the instance's cluster structure — the
  // same construction the paper workload uses, so a round-tripped payload
  // gets a bit-identical device layout. No fit is not a rejection: the
  // request enters the ladder at the first classical rung instead.
  if (graph != nullptr && problem.num_queries() > 0) {
    std::vector<int> cluster_sizes(
        static_cast<size_t>(problem.num_queries()));
    for (int q = 0; q < problem.num_queries(); ++q) {
      cluster_sizes[static_cast<size_t>(q)] = problem.num_plans_of(q);
    }
    Result<embedding::Embedding> embedded =
        embedding::ClusteredEmbedder::Embed(cluster_sizes, *graph);
    if (embedded.ok()) {
      request.embedding = std::move(embedded).value();
      request.has_embedding = true;
    }
  }
  return request;
}

}  // namespace

SolveService::SolveService(const ServiceOptions& options)
    : options_(options),
      queue_(options.queue_capacity),
      breakers_{CircuitBreaker(options.breaker), CircuitBreaker(options.breaker),
                CircuitBreaker(options.breaker),
                CircuitBreaker(options.breaker)} {
  if (options_.round_width <= 0) options_.round_width = 4;
  RegisterMetrics();
}

void SolveService::RegisterMetrics() {
  m_submitted_ = registry_.counter("qmqo_service_requests_submitted_total",
                                   "Submit calls, accepted or not");
  m_accepted_ = registry_.counter("qmqo_service_requests_accepted_total",
                                  "Requests admitted into the queue");
  m_rejected_invalid_ =
      registry_.counter("qmqo_service_requests_rejected_total{reason=\"invalid\"}",
                        "Rejected requests by reason");
  m_rejected_queue_full_ = registry_.counter(
      "qmqo_service_requests_rejected_total{reason=\"queue_full\"}");
  m_rejected_shutdown_ = registry_.counter(
      "qmqo_service_requests_rejected_total{reason=\"shutdown\"}");
  m_completed_ok_ =
      registry_.counter("qmqo_service_requests_settled_total{verdict=\"ok\"}",
                        "Settled requests by verdict");
  m_completed_failed_ = registry_.counter(
      "qmqo_service_requests_settled_total{verdict=\"failed\"}");
  m_expired_in_queue_ = registry_.counter(
      "qmqo_service_requests_settled_total{verdict=\"expired_in_queue\"}");
  m_drained_failfast_ = registry_.counter(
      "qmqo_service_requests_settled_total{verdict=\"drained_failfast\"}");
  m_shed_degraded_ =
      registry_.counter("qmqo_service_shed_degraded_total",
                        "Requests whose ladder entry rung was degraded");
  m_breaker_skips_ =
      registry_.counter("qmqo_service_breaker_skips_total",
                        "Ladder rungs skipped on an open breaker");
  m_faults_observed_ =
      registry_.counter("qmqo_service_faults_observed_total",
                        "Faults observed inside routed solves");
  for (int b = 0; b < 4; ++b) {
    m_answered_by_[b] = registry_.counter(
        StrFormat("qmqo_service_answered_total{backend=\"%s\"}",
                  harness::SolveBackendName(
                      static_cast<harness::SolveBackend>(b))),
        b == 0 ? "Successful answers by backend" : "");
  }
  for (int k = 0; k < 3; ++k) {
    m_workload_accepted_[k] = registry_.counter(
        StrFormat("qmqo_service_workload_accepted_total{kind=\"%s\"}",
                  workloads::WorkloadKindName(
                      static_cast<workloads::WorkloadKind>(k))),
        k == 0 ? "Accepted workload requests by kind" : "");
  }
  m_rounds_ = registry_.counter("qmqo_service_rounds_total",
                                "Scheduling rounds run");
  m_modeled_clock_ = registry_.gauge("qmqo_service_modeled_clock_ms",
                                     "Modeled service clock, milliseconds");
  m_queue_wait_hist_ = registry_.histogram(
      "qmqo_service_queue_wait_modeled_ms", obs::DefaultLatencyBucketsMs(),
      "Modeled milliseconds settled requests spent queued");
  m_solve_hist_ = registry_.histogram(
      "qmqo_service_solve_modeled_ms", obs::DefaultLatencyBucketsMs(),
      "Modeled milliseconds charged by scheduled solves");

  // Subsystems that keep their own counters for layering reasons are
  // mirrored at snapshot time. Monotonic sources mirror as counters via
  // SetToAbsolute so the exposition's TYPE matches their semantics
  // (scrapers rate() them); point-in-time values (breaker state, window
  // failure rate) stay gauges. Collect() runs on the serial scheduling
  // thread, which is what breaker access requires.
  registry_.AddCollector([this](obs::MetricsRegistry* r) {
    for (int b = 0; b < 4; ++b) {
      const CircuitBreaker& breaker = breakers_[b];
      const char* name = harness::SolveBackendName(
          static_cast<harness::SolveBackend>(b));
      r->gauge(StrFormat("qmqo_breaker_state{backend=\"%s\"}", name),
               b == 0 ? "Breaker state: 0 closed, 1 open, 2 half-open" : "")
          ->Set(static_cast<double>(static_cast<int>(breaker.state())));
      r->gauge(
           StrFormat("qmqo_breaker_window_failure_rate{backend=\"%s\"}", name))
          ->Set(breaker.WindowFailureRate());
      r->counter(StrFormat("qmqo_breaker_admitted_total{backend=\"%s\"}",
                           name))
          ->SetToAbsolute(breaker.admitted());
      r->counter(StrFormat("qmqo_breaker_rejected_total{backend=\"%s\"}",
                           name))
          ->SetToAbsolute(breaker.rejected());
      r->counter(StrFormat("qmqo_breaker_opened_total{backend=\"%s\"}", name))
          ->SetToAbsolute(breaker.times_opened());
    }
  });
  if (options_.faults != nullptr) {
    const util::FaultInjector* faults = options_.faults;
    registry_.AddCollector([faults](obs::MetricsRegistry* r) {
      r->counter("qmqo_faults_fired_total",
                 "Total fault-injector firings across all sites")
          ->SetToAbsolute(faults->faults_injected());
      for (const auto& [site, count] : faults->Counts()) {
        r->counter(
             StrFormat("qmqo_faults_fired_site_total{site=\"%s\"}",
                       site.c_str()))
            ->SetToAbsolute(count);
      }
    });
  }
  if (options_.pipeline.embedding_cache != nullptr) {
    embedding::EmbeddingCache* cache = options_.pipeline.embedding_cache;
    registry_.AddCollector([cache](obs::MetricsRegistry* r) {
      const embedding::EmbeddingCacheStats stats = cache->stats();
      r->counter("qmqo_embedding_cache_hits_total",
                 "Embedding cache lookups by kind")
          ->SetToAbsolute(static_cast<int64_t>(stats.hits));
      r->counter("qmqo_embedding_cache_misses_total")
          ->SetToAbsolute(static_cast<int64_t>(stats.misses));
      r->counter("qmqo_embedding_cache_evictions_total")
          ->SetToAbsolute(static_cast<int64_t>(stats.evictions));
      r->counter("qmqo_embedding_cache_bypasses_total")
          ->SetToAbsolute(static_cast<int64_t>(stats.bypasses));
    });
  }
}

int64_t SolveService::in_flight() const {
  return m_accepted_->Value() -
         (m_completed_ok_->Value() + m_completed_failed_->Value() +
          m_expired_in_queue_->Value() + m_drained_failfast_->Value());
}

Result<uint64_t> SolveService::Admit(Result<QueuedRequest> request,
                                     RequestPriority priority,
                                     double deadline_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  m_submitted_->Increment();
  if (!request.ok()) {
    m_rejected_invalid_->Increment();
    return request.status();
  }
  if (!accepting_) {
    m_rejected_shutdown_->Increment();
    return Status::Unavailable("service is shut down");
  }
  QueuedRequest& admitted = *request;
  admitted.priority = priority;
  admitted.deadline_ms =
      deadline_ms < 0.0 ? options_.default_deadline_ms : deadline_ms;
  admitted.id = next_id_;
  admitted.submit_ms = clock_ms_;
  obs::Counter* kind_counter =
      admitted.workload != nullptr
          ? m_workload_accepted_[static_cast<size_t>(admitted.workload->kind())]
          : nullptr;
  Status pushed = queue_.Push(std::move(admitted));
  if (!pushed.ok()) {
    m_rejected_queue_full_->Increment();
    return pushed;
  }
  m_accepted_->Increment();
  if (kind_counter != nullptr) kind_counter->Increment();
  return next_id_++;
}

Result<uint64_t> SolveService::Submit(mqo::MqoProblem problem,
                                      embedding::Embedding embedding,
                                      RequestPriority priority,
                                      double deadline_ms) {
  Status valid = problem.Validate();
  if (!valid.ok()) return Admit(std::move(valid), priority, deadline_ms);
  QueuedRequest request;
  request.has_embedding = embedding.num_vars() == problem.num_plans();
  request.problem = std::move(problem);
  request.embedding = std::move(embedding);
  return Admit(std::move(request), priority, deadline_ms);
}

Result<uint64_t> SolveService::SubmitText(const std::string& text,
                                          RequestPriority priority,
                                          double deadline_ms) {
  return Admit(ParseRequest(text, options_.graph), priority, deadline_ms);
}

Result<uint64_t> SolveService::SubmitWorkload(
    std::shared_ptr<const workloads::Workload> workload,
    RequestPriority priority, double deadline_ms) {
  return Admit(WorkloadRequest(std::move(workload)), priority, deadline_ms);
}

int SolveService::ProcessRound() {
  const util::FaultInjector* faults = options_.faults;
  obs::Tracer* tracer = options_.tracer;
  std::vector<RoundSlot> slots;
  int settled = 0;
  uint64_t round = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return 0;
    m_rounds_->Increment();
    round = static_cast<uint64_t>(round_index_++);

    // An injected queue stall ages everything still queued before this
    // round claims work — the mechanism deadline-expiry tests use.
    if (faults != nullptr && faults->ShouldFail("service.queue_stall", round)) {
      clock_ms_ += faults->LatencyMillis("service.queue_stall");
    }

    // Queue pressure is measured once per round, at formation — every
    // request claimed by the round sees the same shedding decision. The
    // threshold is inclusive, so fill == shed_fill already sheds.
    const bool pressure = queue_.FillFraction() >= options_.shed_fill;
    const int last_rung =
        std::max(0, static_cast<int>(options_.policy.ladder.size()) - 1);

    QueuedRequest request;
    while (static_cast<int>(slots.size()) < options_.round_width &&
           queue_.Pop(&request)) {
      const double queue_wait = clock_ms_ - request.submit_ms;
      // Shed requests that aged past their deadline while queued: they
      // settle here, without ever occupying a worker.
      if (request.deadline_ms > 0.0 && queue_wait >= request.deadline_ms) {
        SolveOutcome outcome;
        outcome.id = request.id;
        outcome.status = Status::Timeout(
            StrFormat("deadline (%.1f ms) expired after %.1f ms in queue",
                      request.deadline_ms, queue_wait));
        outcome.queue_wait_modeled_ms = queue_wait;
        m_queue_wait_hist_->Observe(queue_wait);
        if (tracer != nullptr) {
          obs::SolveTrace trace;
          trace.Open("service.request");
          trace.Tag("id", static_cast<int64_t>(request.id));
          trace.Tag("round", static_cast<int64_t>(round));
          trace.Tag("verdict", "expired_in_queue");
          trace.Tag("queue_wait_ms", obs::FormatMs(queue_wait));
          trace.AddModeled(queue_wait);
          trace.Close(0.0);
          tracer->Commit(std::move(trace));
        }
        outcomes_.push_back(std::move(outcome));
        m_expired_in_queue_->Increment();
        ++settled;
        continue;
      }

      RoundSlot slot;
      // Entry rung. Queue pressure sends the request straight to the
      // ladder's last resort, which samples nothing, so shedding frees the
      // round instead of adding to it (SQA and SA cost more than the
      // device). A brownout fault or a missing embedding only routes
      // around the device, at rung 1. The rung is clamped to the ladder
      // here, as `RunSolve` clamps it, so the outcome, the trace tag and
      // the breaker snapshot all name the rung that runs.
      int entry_rung = pressure ? last_rung : 0;
      bool shed = pressure;
      if (faults != nullptr &&
          faults->ShouldFail("service.brownout", request.id)) {
        entry_rung = std::max(entry_rung, 1);
        shed = true;
      }
      if (!request.has_embedding) entry_rung = std::max(entry_rung, 1);
      entry_rung = std::min(entry_rung, last_rung);
      if (shed) m_shed_degraded_->Increment();
      slot.shed = shed;

      // Per-request policy: forked seed, remaining deadline, breaker gate
      // snapshot. The snapshot is taken here, on the serial path — workers
      // never touch live breaker state.
      slot.policy = options_.policy;
      slot.policy.seed = Rng(options_.policy.seed).Fork(request.id).Next();
      slot.policy.entry_rung = entry_rung;
      if (slot.policy.faults == nullptr) slot.policy.faults = faults;
      if (request.deadline_ms > 0.0) {
        slot.policy.deadline_ms = request.deadline_ms - queue_wait;
      }
      if (options_.breakers_enabled && !slot.policy.ladder.empty()) {
        std::array<Status, 4> gate_snapshot;
        for (size_t rung = static_cast<size_t>(entry_rung);
             rung + 1 < slot.policy.ladder.size(); ++rung) {
          const harness::SolveBackend backend = slot.policy.ladder[rung];
          gate_snapshot[static_cast<size_t>(backend)] =
              breakers_[static_cast<size_t>(backend)].Admit(clock_ms_);
        }
        slot.policy.backend_gate =
            [gate_snapshot](harness::SolveBackend backend) {
              return gate_snapshot[static_cast<size_t>(backend)];
            };
      }

      // Every slot's reads and read-out fan out over the service's own
      // workers: a worker done with a cheap slot claims reads of the
      // round's slow one through the executor's nested ParallelFor.
      // Answers do not depend on how reads are split across workers.
      slot.pipeline = options_.pipeline;
      if (slot.pipeline.faults == nullptr) slot.pipeline.faults = faults;
      slot.pipeline.device.executor = options_.executor;
      slot.pipeline.device.num_threads = std::max(1, options_.num_threads);

      // A crashed worker is decided at admission (pure in seed and id, so
      // any thread would decide identically) and skips the solve entirely.
      if (faults != nullptr &&
          faults->ShouldFail("service.worker_crash", request.id)) {
        slot.crashed = true;
        slot.crash_latency_ms = faults->LatencyMillis("service.worker_crash");
      }

      if (tracer != nullptr) {
        // Root span opened on the serial path with admission-time tags;
        // the slot's worker nests solver spans under it.
        slot.root_span = slot.trace.Open("service.request");
        slot.trace.Tag("id", static_cast<int64_t>(request.id));
        slot.trace.Tag("round", static_cast<int64_t>(round));
      }

      slot.request = std::move(request);
      slots.push_back(std::move(slot));
    }
  }

  if (slots.empty()) return settled;

  // Parallel fan-out into per-index slots. Everything order-dependent
  // already happened above; everything order-dependent below happens after
  // the barrier — results are bit-identical at any worker count.
  const chimera::ChimeraGraph* graph = options_.graph;
  util::Executor::Run(
      options_.executor, static_cast<int>(slots.size()),
      std::max(1, options_.num_threads), [&](int begin, int end, int) {
        for (int i = begin; i < end; ++i) {
          RoundSlot& slot = slots[static_cast<size_t>(i)];
          if (slot.crashed) continue;
          if (slot.root_span >= 0) slot.pipeline.trace = &slot.trace;
          if (slot.request.workload != nullptr) {
            // Workload requests solve the formulated QUBO through the same
            // ladder/budget machinery; no embedding, no device rung.
            slot.report = harness::ResilientSolver(slot.policy)
                              .SolveQubo(slot.request.workload->qubo(),
                                         slot.pipeline);
          } else {
            slot.report = harness::ResilientSolver(slot.policy)
                              .Solve(slot.request.problem,
                                     slot.request.embedding, *graph,
                                     slot.pipeline);
          }
        }
      });

  // Serial commit, in slot order: advance the modeled clock by the round's
  // longest solve, then feed breakers, counters, and the tracer.
  std::lock_guard<std::mutex> lock(mutex_);
  double round_ms = 0.0;
  for (const RoundSlot& slot : slots) {
    round_ms = std::max(round_ms, slot.crashed ? slot.crash_latency_ms
                                               : slot.report.total_modeled_ms);
  }
  clock_ms_ += round_ms;
  m_modeled_clock_->Set(clock_ms_);

  for (RoundSlot& slot : slots) {
    SolveOutcome outcome;
    outcome.id = slot.request.id;
    outcome.entry_rung = slot.policy.entry_rung;
    outcome.shed_degraded = slot.shed;
    outcome.queue_wait_modeled_ms =
        (clock_ms_ - round_ms) - slot.request.submit_ms;

    if (slot.crashed) {
      outcome.status = Status::Internal(StrFormat(
          "injected worker crash while solving request %llu",
          static_cast<unsigned long long>(slot.request.id)));
      outcome.solve_modeled_ms = slot.crash_latency_ms;
      outcome.faults_observed = 1;
      m_completed_failed_->Increment();
      m_faults_observed_->Increment();
    } else {
      harness::SolveReport& report = slot.report;
      // Breaker feedback: only attempts that actually ran (attempt >= 1)
      // are outcomes; gate skips (attempt 0) are counted as skips.
      for (const harness::SolveAttempt& attempt : report.attempts) {
        if (attempt.attempt == 0) {
          ++outcome.breaker_skips;
          continue;
        }
        if (options_.breakers_enabled) {
          breakers_[static_cast<size_t>(attempt.backend)].Record(
              attempt.status.ok(), attempt.modeled_ms, clock_ms_);
        }
      }
      m_breaker_skips_->Increment(outcome.breaker_skips);
      outcome.status = report.final_status;
      outcome.backend = report.backend;
      outcome.cost = report.cost;
      outcome.solution = std::move(report.solution);
      outcome.solve_modeled_ms = report.total_modeled_ms;
      outcome.attempts = report.total_attempts;
      outcome.faults_observed = report.faults_observed;
      // A first-attempt answer has nothing to explain; formatting its
      // chain would cost every settled outcome a heap string.
      const bool eventful = std::any_of(
          report.attempts.begin(), report.attempts.end(),
          [](const harness::SolveAttempt& a) { return !a.status.ok(); });
      if (eventful) outcome.detail = report.FailureChain();
      if (slot.request.workload != nullptr) {
        outcome.workload_kind = slot.request.workload->kind();
        if (report.ok) {
          // Decode is a pure function of the winning assignment (repair
          // included), so running it on the serial commit path keeps the
          // outcome deterministic at any worker count for free.
          outcome.workload_solution =
              slot.request.workload->Decode(report.qubo_assignment);
          outcome.workload_gap = slot.request.workload->OptimalityGap(
              outcome.workload_solution);
        }
      }
      m_faults_observed_->Increment(report.faults_observed);
      if (report.ok) {
        m_completed_ok_->Increment();
        m_answered_by_[static_cast<size_t>(report.backend)]->Increment();
      } else {
        m_completed_failed_->Increment();
      }
    }
    m_queue_wait_hist_->Observe(outcome.queue_wait_modeled_ms);
    m_solve_hist_->Observe(outcome.solve_modeled_ms);

    if (slot.root_span >= 0 && tracer != nullptr) {
      obs::SolveTrace& trace = slot.trace;
      if (slot.crashed) {
        trace.Tag("verdict", "worker_crash");
      } else if (slot.report.ok) {
        trace.Tag("verdict", "completed");
        trace.Tag("backend", harness::SolveBackendName(slot.report.backend));
      } else {
        trace.Tag("verdict", "failed");
      }
      trace.Tag("entry_rung", static_cast<int64_t>(outcome.entry_rung));
      if (slot.request.workload != nullptr) {
        trace.Tag("workload", workloads::WorkloadKindName(
                                  slot.request.workload->kind()));
      }
      if (slot.shed) trace.Tag("shed", static_cast<int64_t>(1));
      if (outcome.breaker_skips > 0) {
        trace.Tag("breaker_skips", static_cast<int64_t>(outcome.breaker_skips));
      }
      trace.Tag("queue_wait_ms",
                obs::FormatMs(outcome.queue_wait_modeled_ms));
      trace.AddModeled(outcome.queue_wait_modeled_ms +
                       outcome.solve_modeled_ms);
      trace.Close(slot.crashed ? 0.0 : slot.report.total_wall_ms);
      tracer->Commit(std::move(trace));
    }

    outcomes_.push_back(std::move(outcome));
    ++settled;
  }
  return settled;
}

int SolveService::DrainAll() {
  int settled = 0;
  while (!queue_.empty()) {
    int round = ProcessRound();
    if (round == 0 && queue_.empty()) break;
    settled += round;
  }
  return settled;
}

int SolveService::Shutdown(bool graceful) {
  int settled = 0;
  if (graceful) {
    settled = DrainAll();
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    return settled;
  }
  std::vector<QueuedRequest> abandoned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    abandoned = queue_.DrainAll();
    for (QueuedRequest& request : abandoned) {
      SolveOutcome outcome;
      outcome.id = request.id;
      outcome.status =
          Status::Unavailable("request failed fast by service shutdown");
      outcome.queue_wait_modeled_ms = clock_ms_ - request.submit_ms;
      m_queue_wait_hist_->Observe(outcome.queue_wait_modeled_ms);
      if (options_.tracer != nullptr) {
        obs::SolveTrace trace;
        trace.Open("service.request");
        trace.Tag("id", static_cast<int64_t>(request.id));
        trace.Tag("verdict", "drained_failfast");
        trace.Tag("queue_wait_ms",
                  obs::FormatMs(outcome.queue_wait_modeled_ms));
        trace.AddModeled(outcome.queue_wait_modeled_ms);
        trace.Close(0.0);
        options_.tracer->Commit(std::move(trace));
      }
      outcomes_.push_back(std::move(outcome));
      m_drained_failfast_->Increment();
      ++settled;
    }
  }
  return settled;
}

}  // namespace service
}  // namespace qmqo
