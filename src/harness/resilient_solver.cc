#include "harness/resilient_solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "anneal/sample_set.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "baselines/greedy.h"
#include "mapping/logical_mapping.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace qmqo {
namespace harness {
namespace {

// Orchestrator-level fault site of each backend ladder rung.
const char* FaultSiteOf(SolveBackend backend) {
  switch (backend) {
    case SolveBackend::kDevice:
      return "solve.device";
    case SolveBackend::kSqa:
      return "solve.sqa";
    case SolveBackend::kSa:
      return "solve.sa";
    case SolveBackend::kGreedy:
      return "solve.greedy";
  }
  return "solve.unknown";
}

// Failures a retry on the same rung cannot fix. Injected faults are
// Internal and timeouts are Timeout, so both stay retryable.
bool IsDeterministicFailure(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition ||
         status.code() == StatusCode::kInvalidArgument;
}

// What one attempt produced. `modeled_ms` is the simulated-latency debit
// the orchestrator charges to the deadline (injected latency; the backoff
// that may follow is added by the ladder). An MQO answer lands in
// `solution`, a bare-QUBO answer in `assignment`; `cost` is the MQO cost or
// the QUBO energy.
struct AttemptOutcome {
  Status status;
  mqo::MqoSolution solution{0};
  std::vector<uint8_t> assignment;
  double cost = 0.0;
  double modeled_ms = 0.0;
  double broken_chain_fraction = 0.0;
};

// Refines an MQO read-out into a final answer the way every backend does:
// swap descent, then exact cost.
void FinishSolution(const mqo::MqoProblem& problem, mqo::MqoSolution solution,
                    AttemptOutcome* out) {
  mqo::SwapDescent(problem, &solution);
  out->cost = mqo::EvaluateCost(problem, solution);
  out->solution = std::move(solution);
  out->status = Status::OK();
}

// Refines a read-out into a final QUBO answer: deterministic
// best-improvement single-flip descent (lowest variable id on ties), then
// exact energy. Strictly decreasing energy over a finite state space, so it
// always terminates; from all-zeros it doubles as the greedy last resort.
void FinishQubo(const qubo::QuboProblem& problem, std::vector<uint8_t> x,
                AttemptOutcome* out) {
  x.resize(static_cast<size_t>(problem.num_vars()), 0);
  for (uint8_t& bit : x) bit = bit ? 1 : 0;
  for (;;) {
    int best_var = -1;
    double best_delta = -1e-12;
    for (int i = 0; i < problem.num_vars(); ++i) {
      const double delta = problem.FlipDelta(x, i);
      if (delta < best_delta) {
        best_delta = delta;
        best_var = i;
      }
    }
    if (best_var < 0) break;
    x[static_cast<size_t>(best_var)] ^= 1;
  }
  out->cost = problem.Energy(x);
  out->assignment = std::move(x);
  out->status = Status::OK();
}

// What differs between the MQO and the bare-QUBO solve; the runner below
// owns everything else.
struct SolvePath {
  // The QUBO the SQA and SA rungs sample: the logical QUBO for MQO, the
  // problem itself for a bare QUBO. Null when it could not be built;
  // `sampled_status` says why, and those rungs fail with it.
  const qubo::QuboProblem* sampled = nullptr;
  Status sampled_status;
  // From a sampler's best read (one 0/1 byte per variable of `sampled`)
  // to a finished answer.
  std::function<void(std::vector<uint8_t>, AttemptOutcome*)> finish;
  // The greedy last resort's finished answer.
  std::function<void(AttemptOutcome*)> greedy;
  // The device rung, given the 1-based attempt number and the attempt's
  // own fault view (null without faults). Empty when the problem has no
  // embedding: the rung is then gated as a typed Unimplemented skip.
  std::function<void(int, const util::FaultInjector*, AttemptOutcome*)>
      device;
};

// One ladder attempt on `backend`. `faults` is a view scoped to this
// attempt, so the firings and the latency it reports are this attempt's
// alone, even while concurrent solves share the policy's injector.
AttemptOutcome RunAttempt(const SolvePolicy& policy,
                          const QuantumMqoOptions& options,
                          const SolvePath& path, SolveBackend backend,
                          int attempt, const util::FaultInjector* faults) {
  AttemptOutcome out;
  // The orchestrator's own fault point: force a whole rung down.
  if (faults != nullptr) {
    const char* site = FaultSiteOf(backend);
    Status injected =
        faults->MaybeFail(site, static_cast<uint64_t>(attempt - 1));
    if (!injected.ok()) {
      out.status = std::move(injected);
      out.modeled_ms = faults->LatencyMillis(site);
      return out;
    }
  }
  switch (backend) {
    case SolveBackend::kDevice:
      if (!path.device) {
        // Reachable only when a caller puts kDevice last in the ladder
        // (the last resort is never gated).
        out.status = Status::Unimplemented(
            "device backend requires an embedded MQO problem");
        return out;
      }
      path.device(attempt, faults, &out);
      return out;
    case SolveBackend::kSqa:
    case SolveBackend::kSa: {
      if (path.sampled == nullptr) {
        out.status = path.sampled_status;
        return out;
      }
      anneal::SampleSet set;
      if (backend == SolveBackend::kSqa) {
        anneal::SqaOptions sqa;
        sqa.num_reads = policy.sqa_reads;
        sqa.num_slices = policy.sqa_slices;
        sqa.sweeps = policy.sqa_sweeps;
        sqa.seed =
            Rng(policy.seed).Fork(0x50aULL + static_cast<uint64_t>(attempt))
                .Next();
        sqa.num_threads = options.device.num_threads;
        sqa.executor = options.device.executor;
        set = anneal::SimulatedQuantumAnnealer(sqa).Sample(*path.sampled);
      } else {
        anneal::SaOptions sa;
        sa.num_reads = policy.sa_reads;
        sa.sweeps_per_read = policy.sa_sweeps;
        sa.seed =
            Rng(policy.seed).Fork(0x5aULL + static_cast<uint64_t>(attempt))
                .Next();
        sa.num_threads = options.device.num_threads;
        sa.executor = options.device.executor;
        set = anneal::SimulatedAnnealer(sa).Sample(*path.sampled);
      }
      if (set.empty()) {
        out.status = Status::Internal(
            StrFormat("%s backend returned no samples",
                      backend == SolveBackend::kSqa ? "SQA" : "SA"));
        return out;
      }
      std::vector<uint8_t> bytes;
      set.best().assignment.CopyBytesTo(&bytes);
      path.finish(std::move(bytes), &out);
      return out;
    }
    case SolveBackend::kGreedy:
      path.greedy(&out);
      return out;
  }
  out.status = Status::Internal("unknown backend");
  return out;
}

// The one solve runner behind `Solve` and `SolveQubo`. Everything but the
// `path` is payload-independent and lives here: deadline and jitter setup,
// admission gating, per-attempt fault views, retry budget, backoff with
// seeded jitter, deadline accounting, chain-break storm detection, trace
// spans, attempt records, the retries/fallbacks arithmetic, and the
// report totals.
SolveReport RunSolve(const SolvePolicy& policy,
                     const QuantumMqoOptions& options, const SolvePath& path) {
  SolveReport report;
  Stopwatch total;
  util::Deadline deadline = policy.deadline_ms > 0.0
                                ? util::Deadline::AfterMillis(policy.deadline_ms)
                                : util::Deadline::Infinite();
  // Jitter draws happen only after retryable failures, which are pure in
  // (seed, faults, policy), so the stream stays reproducible.
  Rng jitter_rng = Rng(policy.seed).Fork(0xbac0ffULL);
  obs::SolveTrace* trace = options.trace;
  const int max_attempts = std::max(1, policy.max_attempts_per_backend);

  // One "solve.attempt" span per ladder attempt (and per gate-skipped
  // rung), nested under whatever span the caller has open. The device
  // backend's pipeline spans become its children: the attempt options
  // carry the same trace pointer.
  auto close_attempt_span = [&](const SolveAttempt& rec) {
    if (trace == nullptr) return;
    // Tag the status *code* only: messages embed wall times, which would
    // leak nondeterminism into otherwise deterministic trace dumps.
    trace->Tag("status",
               rec.status.ok() ? "ok" : StatusCodeToString(rec.status.code()));
    if (rec.backoff_ms > 0.0) {
      trace->Tag("backoff_ms", obs::FormatMs(rec.backoff_ms));
    }
    if (rec.faults_observed > 0) trace->Tag("faults", rec.faults_observed);
    trace->AddModeled(rec.modeled_ms);
    trace->Close(rec.wall_ms);
  };

  Status last_error = Status::Internal("empty backend ladder");
  int backends_tried = 0;
  // Entry rung: the solve service raises `entry_rung` to skip rungs (the
  // last resort under queue pressure, past the device otherwise). 0 keeps
  // the full ladder.
  size_t start_rung = 0;
  if (policy.entry_rung > 0 && !policy.ladder.empty()) {
    start_rung = std::min(static_cast<size_t>(policy.entry_rung),
                          policy.ladder.size() - 1);
  }
  for (size_t rung = start_rung; rung < policy.ladder.size() && !report.ok;
       ++rung) {
    const SolveBackend backend = policy.ladder[rung];
    const bool last_resort = rung + 1 == policy.ladder.size();
    // Consult the admission gate (a missing device, then e.g. a
    // circuit-breaker snapshot) before spending any of the retry budget on
    // this rung. The last resort is never gated — something must answer.
    // A skipped rung costs nothing: one attempt-0 record, no attempts, no
    // backoff.
    if (!last_resort) {
      Status gate;
      if (backend == SolveBackend::kDevice && !path.device) {
        gate = Status::Unimplemented(
            "device backend requires an embedded MQO problem; bare QUBO "
            "solves enter the ladder at SQA");
      } else if (policy.backend_gate) {
        gate = policy.backend_gate(backend);
      }
      if (!gate.ok()) {
        SolveAttempt skipped;
        skipped.backend = backend;
        skipped.attempt = 0;
        skipped.status = gate;
        if (trace != nullptr) {
          trace->Open("solve.attempt");
          trace->Tag("rung", static_cast<int64_t>(rung));
          trace->Tag("backend", SolveBackendName(backend));
          trace->Tag("attempt", static_cast<int64_t>(0));
          trace->Tag("gate", "skipped");
        }
        close_attempt_span(skipped);
        report.attempts.push_back(std::move(skipped));
        last_error = std::move(gate);
        continue;
      }
    }
    bool tried = false;
    for (int attempt = 1; attempt <= max_attempts && !report.ok; ++attempt) {
      // The last resort always runs: a valid (cheap) answer beats honoring
      // an already-blown budget with no answer at all.
      if (deadline.expired() && !last_resort) {
        report.deadline_exhausted = true;
        break;
      }
      tried = true;

      SolveAttempt rec;
      rec.backend = backend;
      rec.attempt = attempt;
      if (trace != nullptr) {
        trace->Open("solve.attempt");
        trace->Tag("rung", static_cast<int64_t>(rung));
        trace->Tag("backend", SolveBackendName(backend));
        trace->Tag("attempt", static_cast<int64_t>(attempt));
      }
      const std::unique_ptr<util::FaultInjector> faults =
          policy.faults != nullptr ? policy.faults->Scope() : nullptr;
      Stopwatch attempt_clock;
      AttemptOutcome out =
          RunAttempt(policy, options, path, backend, attempt, faults.get());
      rec.wall_ms = attempt_clock.ElapsedMillis();
      rec.modeled_ms = out.modeled_ms;
      deadline.Charge(out.modeled_ms);
      rec.broken_chain_fraction = out.broken_chain_fraction;
      rec.status = std::move(out.status);
      rec.faults_observed = faults != nullptr ? faults->faults_injected() : 0;
      report.faults_observed += rec.faults_observed;
      ++report.total_attempts;

      if (rec.status.ok() && policy.attempt_timeout_ms > 0.0 &&
          rec.wall_ms + rec.modeled_ms > policy.attempt_timeout_ms) {
        rec.status = Status::Timeout(StrFormat(
            "%s attempt %d took %.1f ms (%.1f wall + %.1f modeled), over "
            "the %.1f ms per-attempt budget",
            SolveBackendName(backend), attempt, rec.wall_ms + rec.modeled_ms,
            rec.wall_ms, rec.modeled_ms, policy.attempt_timeout_ms));
      }
      if (rec.status.ok() && backend == SolveBackend::kDevice &&
          policy.chain_break_storm_fraction > 0.0 &&
          rec.broken_chain_fraction >= policy.chain_break_storm_fraction) {
        rec.status = Status::Internal(StrFormat(
            "chain-break storm: %.0f%% of reads broke chains "
            "(threshold %.0f%%)",
            100.0 * rec.broken_chain_fraction,
            100.0 * policy.chain_break_storm_fraction));
      }

      if (rec.status.ok()) {
        rec.cost = out.cost;
        report.ok = true;
        report.backend = backend;
        report.cost = out.cost;
        report.final_status = Status::OK();
        report.fallbacks = static_cast<int>(rung);
        report.solution = std::move(out.solution);
        report.qubo_assignment = std::move(out.assignment);
        close_attempt_span(rec);
        report.attempts.push_back(std::move(rec));
        break;
      }

      last_error = rec.status;
      // A deterministic failure (e.g. a saving with no coupler in the
      // layout) would fail the same way again: degrade now, with no
      // backoff and no jitter draw.
      const bool retryable = !IsDeterministicFailure(rec.status);
      if (retryable && attempt < max_attempts &&
          policy.backoff_initial_ms > 0.0) {
        double backoff =
            policy.backoff_initial_ms *
            std::pow(policy.backoff_multiplier, attempt - 1);
        if (policy.backoff_jitter > 0.0) {
          backoff *= 1.0 + jitter_rng.UniformReal(-policy.backoff_jitter,
                                                  policy.backoff_jitter);
        }
        backoff = std::max(0.0, backoff);
        // Waiting longer than the remaining budget cannot help; degrade
        // instead of burning the deadline on a sleep.
        if (backoff < deadline.RemainingMillis()) {
          rec.backoff_ms = backoff;
          rec.modeled_ms += backoff;
          deadline.Charge(backoff);
          if (policy.sleep_on_backoff) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff));
          }
        }
      }
      close_attempt_span(rec);
      report.attempts.push_back(std::move(rec));
      if (!retryable) break;
    }
    if (tried) ++backends_tried;
  }

  report.retries = report.total_attempts - backends_tried;
  if (!report.ok) report.final_status = last_error;
  report.total_wall_ms = total.ElapsedMillis();
  report.total_modeled_ms = deadline.charged_millis();
  return report;
}

}  // namespace

const char* SolveBackendName(SolveBackend backend) {
  switch (backend) {
    case SolveBackend::kDevice:
      return "device";
    case SolveBackend::kSqa:
      return "sqa";
    case SolveBackend::kSa:
      return "sa";
    case SolveBackend::kGreedy:
      return "greedy";
  }
  return "unknown";
}

std::string SolveReport::FailureChain() const {
  std::string chain;
  for (const SolveAttempt& a : attempts) {
    if (!chain.empty()) chain += " -> ";
    chain += StrFormat("%s#%d: ", SolveBackendName(a.backend), a.attempt);
    if (a.status.ok()) {
      chain += StrFormat("OK (cost %g)", a.cost);
    } else {
      chain += a.status.ToString();
    }
  }
  return chain;
}

SolveReport ResilientSolver::Solve(const mqo::MqoProblem& problem,
                                   const embedding::Embedding& embedding,
                                   const chimera::ChimeraGraph& graph,
                                   const QuantumMqoOptions& options) const {
  // The samplers run on the logical QUBO, built once and shared by every
  // SQA/SA attempt. The device path builds its own inside the pipeline;
  // greedy needs none.
  SolvePath path;
  std::optional<mapping::LogicalMapping> logical;
  {
    Result<mapping::LogicalMapping> built =
        mapping::LogicalMapping::Create(problem, options.logical);
    if (built.ok()) {
      logical.emplace(std::move(built).value());
      path.sampled = &logical->qubo();
    } else {
      path.sampled_status = built.status();
    }
  }
  path.finish = [&](std::vector<uint8_t> bits, AttemptOutcome* out) {
    FinishSolution(problem, logical->RepairedSolution(bits), out);
  };
  path.greedy = [&](AttemptOutcome* out) {
    FinishSolution(problem, baselines::GreedySolver::Construct(problem), out);
  };

  // Per-request embedding cache: the structure is identical across device
  // retries (only gauges/fault keys change), so every retry after the first
  // re-weights the cached layout instead of re-running verification,
  // placement, and spanning-tree search. A caller-provided cache (shared
  // across requests) takes precedence.
  embedding::EmbeddingCache request_cache;
  embedding::EmbeddingCache* embedding_cache =
      options.embedding_cache != nullptr ? options.embedding_cache
                                         : &request_cache;
  path.device = [&](int attempt, const util::FaultInjector* faults,
                    AttemptOutcome* out) {
    QuantumMqoOptions attempt_options = options;
    attempt_options.embedding_cache = embedding_cache;
    // The pipeline fires on the attempt's own view of the policy's
    // injector, so its firings and latency are this attempt's alone.
    if (attempt_options.faults == nullptr ||
        attempt_options.faults == policy_.faults) {
      attempt_options.faults = faults;
    }
    attempt_options.fault_attempt = static_cast<uint64_t>(attempt - 1);
    if (attempt > 1) {
      // Fresh gauges per retry: refork the caller's device seed so a
      // chain-break storm is not replayed verbatim. Attempt 1 keeps the
      // caller's seed — a no-fault solve reproduces the plain pipeline.
      attempt_options.device.seed =
          Rng(options.device.seed).Fork(static_cast<uint64_t>(attempt)).Next();
    }
    Result<QuantumMqoResult> solved =
        SolveQuantumMqo(problem, embedding, graph, attempt_options);
    if (!solved.ok()) {
      out->status = solved.status();
      // A failed device call still burned its injected latency; the result
      // payload is gone, so recover the charge from the attempt's fault
      // view (each firing costs the spec's latency_ms).
      if (faults != nullptr) {
        out->modeled_ms =
            static_cast<double>(faults->FaultCount("device.latency")) *
            faults->LatencyMillis("device.latency");
      }
      return;
    }
    out->modeled_ms = solved->injected_latency_ms;
    out->broken_chain_fraction = solved->broken_chain_read_fraction;
    out->cost = solved->best_cost;
    out->solution = std::move(solved->best_solution);
    out->status = Status::OK();
  };
  return RunSolve(policy_, options, path);
}

SolveReport ResilientSolver::SolveQubo(const qubo::QuboProblem& problem,
                                       const QuantumMqoOptions& options) const {
  // Samplers share the problem across reads/threads; build the evaluation
  // structures once up front so the sharing is data-race-free.
  problem.Finalize();
  // No device attempt: a bare QUBO carries no embedding, so the runner
  // gates the device rung as a typed Unimplemented skip.
  SolvePath path;
  path.sampled = &problem;
  path.finish = [&](std::vector<uint8_t> bits, AttemptOutcome* out) {
    FinishQubo(problem, std::move(bits), out);
  };
  path.greedy = [&](AttemptOutcome* out) {
    FinishQubo(problem,
               std::vector<uint8_t>(static_cast<size_t>(problem.num_vars()), 0),
               out);
  };
  SolveReport report = RunSolve(policy_, options, path);
  if (report.ok) report.qubo_energy = report.cost;
  return report;
}

}  // namespace harness
}  // namespace qmqo
