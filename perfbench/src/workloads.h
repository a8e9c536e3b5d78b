#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads. Each builds its inputs from the seed at
// set-up and hands the program under test only wire payloads. A workload
// makes "lanes": one client loop each, with its own service instance (or
// its own request stream), optionally traced. The measurement alternates
// blocks between lanes; a lane's clock runs only inside its own blocks,
// and answer checks and trace analysis happen between blocks, off the
// clock.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "breakdown.h"
#include "util.h"

namespace perfbench {

/// Requests a service round claims (`ServiceOptions::round_width`).
constexpr int kRoundWidth = 4;

struct Config {
  uint64_t seed = 1;
  /// Worker threads: the mqo-paper device read loop and the service's
  /// round fan-out (nproc unless overridden).
  int threads = 1;
  /// Tiny instances and read counts for the benchmark's own smoke test.
  bool smoke = false;
};

/// What one lane measured since its last reset.
struct LaneStats {
  // Fates of requests decided in the window.
  int64_t attempted = 0;
  int64_t answered = 0;   ///< settled with an answer that passed the checks
  int64_t incorrect = 0;  ///< settled with an answer that failed the checks
  int64_t rejected = 0;   ///< refused at admission (queue full)
  int64_t crashed = 0;    ///< settled by an injected worker crash
  int64_t failed = 0;     ///< any other request that got no answer
  std::vector<double> latency_ms;  ///< one per correct answer
  double quality_pct_sum = 0.0;    ///< answer quality vs reference, 100 = equal
  double gap_pct_sum = 0.0;        ///< signed gap to reference, percent
  double active_ms = 0.0;          ///< lane clock: wall time inside blocks
  std::vector<double> block_rates;  ///< correct answers per second, per block
  uint64_t digest = kFnvBasis;     ///< over settled answers, settle order

  // Ladder outcomes of correct answers.
  int64_t answered_by[4] = {0, 0, 0, 0};  ///< device, sqa, sa, greedy
  int64_t fallbacks = 0;
  double broken_chain_sum = 0.0;  ///< mqo-paper device answers only
  int64_t device_answers = 0;

  // Wire payloads submitted.
  int64_t mqo_payloads = 0;
  int64_t mqo_bytes = 0;
  int64_t workload_payloads = 0;
  int64_t workload_bytes = 0;

  // Service lanes.
  int64_t settled = 0;  ///< every settled request (answer or not)
  int64_t rounds = 0;
  int64_t shed = 0;
  int64_t breaker_skips = 0;
  std::vector<double> lag_ms;  ///< open loop: submit time minus due time

  // Traced lanes: wall ms per layer (see breakdown.h) and span counts.
  LayerMs layers;
  TraceCounts counts;
  int64_t traces = 0;
  double spin_updates = 0.0;  ///< device reads x sweeps x physical qubits
};

class Lane {
 public:
  virtual ~Lane() = default;
  /// Runs at least one unit of work (a request, or a round), stopping once
  /// `budget_ms` of lane time has passed; then checks the block's answers
  /// and analyzes its traces, off the lane clock.
  virtual void RunBlock(double budget_ms) = 0;
  LaneStats& stats() { return stats_; }

 protected:
  LaneStats stats_;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  /// `threads` overrides Config::threads (the determinism check).
  virtual std::unique_ptr<Lane> MakeLane(bool traced, int threads) const = 0;
  /// Lane time run and discarded before measuring.
  virtual double warmup_ms() const = 0;
  /// Lane time per block when lanes alternate (0 = one unit of work).
  virtual double block_ms() const = 0;
  /// Units of work in the determinism prefix.
  virtual int prefix_blocks() const = 0;
};

/// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Builds a workload's inputs (the set-up the benchmark times); null for
/// an unknown name.
std::unique_ptr<BenchWorkload> MakeBenchWorkload(const std::string& name,
                                                 const Config& config);

/// The open-loop arrival rate of service-overload, requests per second.
double OverloadRatePerSecond();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
