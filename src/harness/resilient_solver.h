#ifndef QMQO_HARNESS_RESILIENT_SOLVER_H_
#define QMQO_HARNESS_RESILIENT_SOLVER_H_

/// \file resilient_solver.h
/// The resilient solve orchestrator: MQO solving that survives an
/// unreliable device.
///
/// The paper's workflow assumes every stage succeeds; real annealer service
/// traffic does not get that luxury — programming cycles fail, reads drop,
/// chains break in storms, and the quantum path can simply be too slow for
/// a request's latency budget (the hybrid classical+quantum MQO line of
/// work routes around exactly this). `ResilientSolver` wraps the quantum
/// pipeline in a `SolvePolicy`:
///
///  * a per-request deadline (`util::Deadline`) and per-attempt timeout;
///  * bounded retries with exponential backoff and seeded jitter;
///  * retry-with-fresh-gauges when a device answer comes back as a
///    chain-break storm (each retry reseeds the gauge stream, the paper's
///    own remedy for gauge-dependent noise). Retries share a per-request
///    `embedding::EmbeddingCache` (or the caller's, via
///    `QuantumMqoOptions::embedding_cache`), so only the first device
///    attempt pays for embedding compilation — later attempts re-weight
///    the cached layout bit-identically;
///  * graceful degradation down the backend ladder
///    device -> SQA -> SA -> greedy when attempts fail or the budget runs
///    out — greedy is near-instant and always succeeds, so a valid MQO
///    solution comes back even when the device fails 100% of attempts.
///
/// `Solve` (MQO) and `SolveQubo` (a bare QUBO, e.g. a graph workload) are
/// thin wrappers over one runner that owns the ladder, the deadline, the
/// fault sites, the single SQA and SA rungs, and the report. A wrapper
/// supplies only what differs: the QUBO the samplers run on, the step from
/// sampled bits to an answer, the greedy answer, and an optional device
/// attempt (a bare QUBO has none, so its device rung is gated).
///
/// Every attempt is recorded in a `SolveReport` (backend, typed status,
/// wall and modeled time, faults observed, backoff applied), so a caller —
/// or the chaos suite — can see exactly which failures were absorbed. An
/// attempt fires faults on its own view of `SolvePolicy::faults`
/// (`FaultInjector::Scope`), so its fault count and latency charge are its
/// own even when concurrent solves share the injector.
/// When `QuantumMqoOptions::trace` is set, the orchestrator additionally
/// emits one `solve.attempt` span per ladder attempt (tags: rung, backend,
/// attempt, status code, backoff, faults) with the pipeline's stage spans
/// nested under the device attempts — see obs/trace.h.
/// The orchestrator never throws and never aborts: every failure mode is a
/// `Status` inside the report.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chimera/topology.h"
#include "embedding/embedding.h"
#include "harness/quantum_pipeline.h"
#include "mqo/problem.h"
#include "mqo/solution.h"
#include "qubo/qubo.h"
#include "util/status.h"

namespace qmqo {
namespace util {
class FaultInjector;
}  // namespace util

namespace harness {

/// The degradation ladder, cheapest last.
enum class SolveBackend : uint8_t {
  kDevice,  ///< full quantum pipeline (embedding + device model)
  kSqa,     ///< simulated quantum annealing on the logical QUBO
  kSa,      ///< classical simulated annealing on the logical QUBO
  kGreedy,  ///< deterministic greedy construction + swap descent
};

/// Stable lower-case name ("device", "sqa", "sa", "greedy").
const char* SolveBackendName(SolveBackend backend);

/// Retry/deadline/degradation policy of one solve request.
struct SolvePolicy {
  /// Per-request deadline, milliseconds; <= 0 = none. When the budget runs
  /// out, remaining expensive backends are skipped and the last-resort
  /// backend still answers (its cost is negligible).
  double deadline_ms = 0.0;
  /// Per-attempt budget, milliseconds; <= 0 = none. An attempt whose wall
  /// plus modeled (injected-latency) time exceeds it is classified
  /// `Status::Timeout` and its result discarded.
  double attempt_timeout_ms = 0.0;
  /// Attempts per backend before degrading (>= 1).
  int max_attempts_per_backend = 2;
  /// Exponential backoff between retries on the same backend:
  /// initial * multiplier^(retry-1), jittered by +-`backoff_jitter`
  /// fraction (seeded — reports are reproducible). Backoff is *modeled*
  /// time charged against the deadline; `sleep_on_backoff` makes it real.
  double backoff_initial_ms = 0.0;
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.25;
  bool sleep_on_backoff = false;
  /// A successful device answer whose mean broken-chain read fraction
  /// reaches this is treated as a failed attempt (a "chain-break storm")
  /// and retried with fresh gauges.
  double chain_break_storm_fraction = 0.75;
  /// The backend ladder, tried in order. The default ends in kGreedy,
  /// which cannot fail (unless explicitly fault-injected).
  std::vector<SolveBackend> ladder = {SolveBackend::kDevice,
                                      SolveBackend::kSqa, SolveBackend::kSa,
                                      SolveBackend::kGreedy};
  /// Sampler budgets of the degraded classical backends (they run on the
  /// logical QUBO, no embedding).
  int sqa_reads = 16;
  int sqa_slices = 8;
  int sqa_sweeps = 64;
  int sa_reads = 32;
  int sa_sweeps = 256;
  /// Seeds backoff jitter and the degraded samplers' read streams; device
  /// retries fork fresh gauge seeds from the request's device seed.
  uint64_t seed = 1;
  /// Fault injection (never owned; null = no faults). Besides the sites
  /// inside the pipeline (see QuantumMqoOptions::faults), the orchestrator
  /// itself queries "solve.device" / "solve.sqa" / "solve.sa" /
  /// "solve.greedy" (key: 0-based attempt within the backend) before each
  /// attempt, so whole backends can be forced down for chaos tests.
  const util::FaultInjector* faults = nullptr;
  /// Admission gate consulted once per ladder rung (except the last
  /// resort, which always runs): a non-OK return skips the rung entirely —
  /// no attempts, no retry budget, no backoff — recording one attempt-0
  /// entry carrying the gate's status. The solve service installs a
  /// circuit-breaker snapshot here so requests stop burning their budget
  /// on a backend the fleet already knows is down. Must be thread-safe or
  /// effectively immutable (the service captures a per-request snapshot).
  std::function<Status(SolveBackend)> backend_gate;
  /// First ladder rung to try (shed-aware rung selection): under queue
  /// pressure the service raises this so overloaded traffic enters the
  /// ladder at a cheaper backend. Clamped to [0, ladder.size() - 1];
  /// 0 = the full ladder (default, bit-identical to the pre-shedding
  /// behavior).
  int entry_rung = 0;
};

/// One attempt's record inside a `SolveReport`.
struct SolveAttempt {
  SolveBackend backend = SolveBackend::kGreedy;
  /// 1-based attempt number within the backend; 0 for a rung the
  /// `backend_gate` skipped without running (the status carries the gate's
  /// reason, e.g. an open circuit breaker).
  int attempt = 0;
  /// OK when this attempt produced the returned answer.
  Status status;
  /// MQO cost of the attempt's answer (only when `status.ok()`).
  double cost = 0.0;
  double wall_ms = 0.0;
  /// Modeled time charged to the deadline by this attempt: injected device
  /// latency plus (for failed attempts) the backoff that followed.
  double modeled_ms = 0.0;
  /// Backoff scheduled after this (failed) attempt, milliseconds.
  double backoff_ms = 0.0;
  /// Faults fired during the attempt (pipeline + orchestrator sites).
  int64_t faults_observed = 0;
  /// Device attempts: mean broken-chain fraction of the call's reads.
  double broken_chain_fraction = 0.0;
};

/// Everything one resilient solve produced and absorbed.
struct SolveReport {
  /// True when some backend answered with a valid solution.
  bool ok = false;
  /// OK on success; otherwise the last attempt's error.
  Status final_status;
  /// The backend that answered.
  SolveBackend backend = SolveBackend::kGreedy;
  mqo::MqoSolution solution{0};
  /// Bare-QUBO answers (`SolveQubo`): the winning assignment (one 0/1 byte
  /// per variable) and its energy. Empty / 0 for MQO solves, where the
  /// answer lives in `solution` instead.
  std::vector<uint8_t> qubo_assignment;
  double qubo_energy = 0.0;
  double cost = 0.0;
  int total_attempts = 0;
  /// Re-attempts on the same backend (total attempts minus backends tried).
  int retries = 0;
  /// Backend downgrades taken before the answer (0 = device answered).
  int fallbacks = 0;
  int64_t faults_observed = 0;
  /// True when the deadline expired before the answering backend ran (the
  /// orchestrator skipped ahead to cheaper backends).
  bool deadline_exhausted = false;
  double total_wall_ms = 0.0;
  /// Total modeled time charged to the deadline (injected latency +
  /// modeled backoff).
  double total_modeled_ms = 0.0;
  std::vector<SolveAttempt> attempts;

  /// Human-readable failure chain, e.g.
  /// "device#1: Internal: injected programming-cycle failure -> device#2:
  ///  Timeout: ... -> sqa#1: OK (cost 812)".
  std::string FailureChain() const;
};

/// The orchestrator. Stateless between calls; safe to reuse.
class ResilientSolver {
 public:
  explicit ResilientSolver(const SolvePolicy& policy) : policy_(policy) {}

  /// Solves `problem` under the policy. Never throws; always returns a
  /// report (with `ok == false` only when every ladder backend failed,
  /// which requires fault-injecting the last resort). `options` configures
  /// the device backend exactly like `SolveQuantumMqo`; its executor and
  /// thread count are reused by the degraded samplers.
  SolveReport Solve(const mqo::MqoProblem& problem,
                    const embedding::Embedding& embedding,
                    const chimera::ChimeraGraph& graph,
                    const QuantumMqoOptions& options) const;

  /// Solves a bare QUBO (no MQO structure, no embedding) through the same
  /// runner as `Solve`: one degradation ladder, retry budget, deadline
  /// accounting, backoff, gate, fault sites, and trace spans. The device
  /// rung cannot run without an embedded MQO problem, so it is gated with a
  /// typed `Unimplemented` (one attempt-0 record, no retry budget burned)
  /// and the ladder enters at SQA; as the last resort it fails with the
  /// same typed status. Each sampler's best read is refined by a
  /// deterministic best-improvement single-flip descent; the greedy last
  /// resort is that descent from all-zeros, which always answers. The
  /// winning assignment and energy come back in
  /// `SolveReport::qubo_assignment` / `qubo_energy` (`cost` mirrors the
  /// energy). `options` supplies the executor/threads/kernel for the
  /// samplers and the optional trace, exactly as in `Solve`.
  SolveReport SolveQubo(const qubo::QuboProblem& problem,
                        const QuantumMqoOptions& options) const;

  const SolvePolicy& policy() const { return policy_; }

 private:
  SolvePolicy policy_;
};

}  // namespace harness
}  // namespace qmqo

#endif  // QMQO_HARNESS_RESILIENT_SOLVER_H_
