#ifndef QMQO_UTIL_FAULT_H_
#define QMQO_UTIL_FAULT_H_

/// \file fault.h
/// Deterministic fault injection for the solve path.
///
/// The D-Wave workflow the paper describes runs on an unreliable physical
/// device: programming cycles fail, reads drop out, qubits get stuck, and
/// chains break as normal operating conditions. The simulator and the
/// resilient solve orchestrator reproduce those conditions through a
/// `FaultInjector`: a seeded registry of named *fault sites* (e.g.
/// "device.program", "device.read_dropout") that components query at the
/// points where the real system can fail.
///
/// Design constraints, in order:
///  1. **Zero cost when absent.** Components hold a `const FaultInjector*`
///     that defaults to null; the hot path pays one pointer test.
///  2. **Deterministic under threads.** Whether a site fires is a pure
///     function of (injector seed, site name, caller-supplied key) — never
///     of invocation order — so the parallel read engine stays bit-identical
///     at any thread count with faults armed. Callers pass stable keys
///     (gauge index, global read index, qubit id, attempt number).
///  3. **Observable.** Every fired fault is counted per site (atomically;
///     counts are diagnostics, not decision inputs), so reports and benches
///     can state exactly how many faults a run absorbed.
///
/// Schedules compose per site: `fail_first` makes keys [0, fail_first)
/// fire unconditionally (fail-once / fail-N-times when the caller keys by
/// attempt or cycle number), `probability` adds a seeded Bernoulli on every
/// key, and `latency_ms` models a latency spike whenever the site fires
/// (optionally backed by a real sleep).
///
/// Registered fault-site vocabulary (sites are created by arming them; this
/// is the catalog of what the solve path queries):
///
///   device.program / device.latency       keyed by epoch-gauge
///   device.read_dropout / device.chain_break  keyed by epoch<<32 | read
///   device.stuck_qubit                    keyed by qubit id
///   embed.compile                         keyed by attempt
///   pipeline.solve                        keyed by attempt
///   solve.device / solve.sqa / solve.sa / solve.greedy
///                                         keyed by 0-based attempt
///
/// Service-layer sites (see service/solve_service.h):
///
///   service.queue_stall   keyed by scheduling round — the round's modeled
///                         clock advances by the spec's latency_ms, so
///                         queued requests age toward their deadlines
///   service.worker_crash  keyed by request id — the worker session solving
///                         that request dies mid-flight; the request fails
///                         with Internal instead of producing a result
///   service.brownout      keyed by request id — the device backend browns
///                         out for that request; admission degrades the
///                         entry rung to the first classical backend

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace qmqo {
namespace util {

/// When and how one fault site fires.
struct FaultSpec {
  /// Seeded Bernoulli per key: the site fires with this probability.
  double probability = 0.0;
  /// Keys [0, fail_first) fire unconditionally — "fail the first N
  /// invocations" when the caller keys by a monotone counter.
  int64_t fail_first = 0;
  /// Modeled latency injected when the site fires, milliseconds. Charged to
  /// the caller's modeled-time accounting (see util::Deadline::Charge).
  double latency_ms = 0.0;
  /// Actually sleep for `latency_ms` when firing (off by default so fault
  /// suites stay fast; the modeled charge is what tests assert on).
  bool sleep = false;
  /// Site-specific intensity (e.g. spins to corrupt per fired chain-break
  /// read).
  int intensity = 1;
};

/// A seeded registry of fault sites. Thread-safe for concurrent queries
/// after configuration (`Arm` calls must happen before the injector is
/// shared with workers). Non-copyable; components reference one injector.
class FaultInjector {
 public:
  /// A disarmed injector: no site ever fires.
  FaultInjector() : FaultInjector(0) {}

  /// All firing decisions derive from `seed`; equal seeds and configs give
  /// equal fault patterns.
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers (or replaces) the spec of `site`. Not thread-safe; call
  /// before handing the injector to the solve path.
  void Arm(const std::string& site, const FaultSpec& spec);

  /// True when any site is armed.
  bool armed() const { return !sites_.empty(); }

  uint64_t seed() const { return seed_; }

  /// Whether `site` fires for `key`, counting the fault when it does. Pure
  /// in (seed, site, key) aside from the diagnostic counter; unarmed sites
  /// never fire. When the firing spec carries `latency_ms` with `sleep`,
  /// the calling thread sleeps here.
  bool ShouldFail(const char* site, uint64_t key = 0) const;

  /// `ShouldFail` without counting or sleeping — for re-deriving a decision
  /// already counted (e.g. serially precomputed drop masks re-checked by
  /// workers).
  bool WouldFail(const char* site, uint64_t key = 0) const;

  /// Status-typed injection point: `Status::Internal` naming the site and
  /// key when it fires, OK otherwise.
  Status MaybeFail(const char* site, uint64_t key = 0) const;

  /// Modeled latency of `site`'s spec (0 when unarmed). The caller charges
  /// this against its deadline when the site fires.
  double LatencyMillis(const char* site) const;

  /// Spec intensity of `site` (1 when unarmed).
  int Intensity(const char* site) const;

  /// Deterministic raw bits for (site, key) — auxiliary randomness for
  /// fault payloads (which qubit sticks high vs low, which spins a
  /// chain-break corrupts). Independent of the firing decision stream.
  uint64_t HashAt(const char* site, uint64_t key) const;

  /// Total faults fired across all sites since construction.
  int64_t faults_injected() const;

  /// Faults fired at `site` (0 when unarmed).
  int64_t FaultCount(const std::string& site) const;

  /// (site, count) for every armed site, in arming order.
  std::vector<std::pair<std::string, int64_t>> Counts() const;

  /// A scoped view of this injector: the same seed and armed sites, so it
  /// decides exactly as this injector does, but with counters of its own
  /// (each firing also counts here). A call that shares this injector
  /// with concurrent calls hands a view down and reads its own firings
  /// from the view, never as deltas of the shared counters. The view must
  /// not outlive this injector; neither may be re-armed while it exists.
  std::unique_ptr<FaultInjector> Scope() const;

 private:
  struct Site {
    std::string name;
    uint64_t name_hash = 0;
    FaultSpec spec;
  };

  const Site* Find(const char* site) const;
  bool Decide(const Site& site, uint64_t key) const;

  uint64_t seed_;
  /// Set on a `Scope()` view: the injector whose counters also count
  /// every firing of this one.
  const FaultInjector* parent_ = nullptr;
  std::vector<Site> sites_;
  /// Parallel to `sites_`; deque so elements stay put as sites are armed.
  mutable std::deque<std::atomic<int64_t>> counts_;
};

/// The one-line guard components use at a fault point:
///   if (util::FaultFires(options_.faults, "device.program", gauge)) ...
inline bool FaultFires(const FaultInjector* faults, const char* site,
                       uint64_t key = 0) {
  return faults != nullptr && faults->ShouldFail(site, key);
}

}  // namespace util
}  // namespace qmqo

#endif  // QMQO_UTIL_FAULT_H_
