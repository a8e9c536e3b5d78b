#ifndef QMQO_HARNESS_EXPERIMENT_H_
#define QMQO_HARNESS_EXPERIMENT_H_

/// \file experiment.h
/// The cost-vs-time experiment of the paper's Section 7: per instance, run
/// the quantum pipeline plus all classical competitors (LIN-MQO, LIN-QUB,
/// CLIMB, GA(50), GA(200)) and record best-cost trajectories; aggregate
/// per class (number of queries x plans per query) into the data behind
/// Figures 4-6 and Table 1.

#include <cstdint>
#include <string>
#include <vector>

#include "chimera/topology.h"
#include "harness/paper_workload.h"
#include "harness/quantum_pipeline.h"
#include "harness/trajectory.h"
#include "util/status.h"

namespace qmqo {
namespace util {
class Executor;
}  // namespace util

namespace harness {

/// Configuration of one experiment class.
struct ExperimentConfig {
  PaperWorkloadOptions workload;
  /// Instances per class (paper: 20).
  int num_instances = 20;
  /// Wall-clock budget per classical algorithm per instance, ms
  /// (paper: 1e5; scaled down by default so bench suites finish quickly).
  double classical_time_limit_ms = 1000.0;
  /// Deterministic caps, 0 = off. When set, the anytime baselines stop
  /// after this many restarts/generations and the exact solvers after this
  /// many search nodes (instead of — in practice, before — the wall-clock
  /// budget), which makes every recorded cost machine-independent; the
  /// thread-count determinism tests rely on this.
  int64_t classical_max_iterations = 0;
  int64_t classical_max_nodes = 0;
  /// GA population sizes to run (paper: 50 and 200).
  std::vector<int> ga_populations = {50, 200};
  /// Run the (slow) exact solver on the QUBO reformulation.
  bool run_lin_qub = true;
  /// Quantum pipeline configuration.
  QuantumMqoOptions quantum;
  uint64_t seed = 42;
  /// Worker threads for the instance fan-out: 1 = serial (default),
  /// 0 = hardware concurrency. Instances are independent — each forks its
  /// own RNG stream from `seed` (the same discipline as the read engine) —
  /// so every seed-derived quantity in `ClassResult` is bit-identical to
  /// the serial run at any thread count; under the deterministic caps
  /// above (which remove the wall-clock dependence of the classical
  /// baselines) the whole result is.
  int num_threads = 1;
  /// Worker pool for the fan-out; null = the process-wide
  /// `util::Executor::Shared()` pool. Never owned.
  util::Executor* executor = nullptr;
};

/// Trajectories of one algorithm on one instance.
struct AlgorithmSeries {
  std::string name;
  Trajectory trajectory;
  /// True when the time axis is modeled device time rather than wall time.
  bool device_time_axis = false;
};

/// Everything measured on one instance.
struct InstanceRun {
  std::vector<AlgorithmSeries> series;
  /// MQO cost of the quantum annealer's first read.
  double qa_first_read_cost = 0.0;
  /// Best cost after all reads.
  double qa_final_cost = 0.0;
  /// Best cost any algorithm found (the reference "optimum" for scaling;
  /// equals the true optimum whenever LIN-MQO finished its proof).
  double best_known_cost = 0.0;
  bool optimum_proven = false;
  /// LIN-MQO: time until the proof completed (or the budget, if capped).
  double lin_mqo_proof_ms = 0.0;
  bool lin_mqo_proof_capped = false;
  /// Mapping (logical + physical) preprocessing time.
  double preprocessing_ms = 0.0;
  /// Normalization base for "scaled cost" plots: sum over queries of the
  /// most expensive plan (no-sharing worst case).
  double scale_base = 0.0;
  /// QA per-read modeled time, ms.
  double qa_read_ms = 0.0;
  /// Physical qubits used / logical variables (Figure 6's x-axis ratio).
  int physical_qubits = 0;
  int logical_vars = 0;
};

/// One experiment class.
struct ClassResult {
  ExperimentConfig config;
  int actual_num_queries = 0;
  std::vector<InstanceRun> instances;
};

/// Runs a full class. `graph` is the chip model (typically
/// `DWave2XWithDefects`).
Result<ClassResult> RunExperimentClass(const ExperimentConfig& config,
                                       const chimera::ChimeraGraph& graph);

/// Figure 6's speedup definition for one instance: the time the *best*
/// classical competitor needs to match the QA first-read quality, divided
/// by the QA first-read (modeled) time. Infinite when no classical series
/// matched within its budget; the caller decides how to report that.
double QuantumSpeedup(const InstanceRun& run);

/// Average qubits per logical variable for a class (Figure 6's x-axis).
double QubitsPerVariable(const ClassResult& result);

}  // namespace harness
}  // namespace qmqo

#endif  // QMQO_HARNESS_EXPERIMENT_H_
