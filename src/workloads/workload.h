#ifndef QMQO_WORKLOADS_WORKLOAD_H_
#define QMQO_WORKLOADS_WORKLOAD_H_

/// \file workload.h
/// The common interface of the combinatorial QUBO workloads.
///
/// The paper's MQO workload proved the samplers/embedding/service stack
/// general; this layer opens it to the problem classes the related work
/// names directly — maximum clique on the annealer (Chapuis et al.) and
/// general combinatorial optimization via QUBO (Djidjev et al.). Every
/// workload follows one lifecycle:
///
///   generate (planted optimum) -> Formulate (a `qubo::QuboProblem`)
///     -> solve (any sampler / the resilient ladder / exact)
///     -> Decode (bitstring back to graph terms, with deterministic repair)
///     -> Validate (feasibility + optimality gap against the planted truth)
///
/// Conventions shared by every workload:
///  * The QUBO is a *minimization*; `energy_offset()` is the constant that
///    relates QUBO energy to the graph objective (see each subclass).
///  * `Decode` never fails: infeasible bitstrings are repaired
///    deterministically (pure function of the bits), so any sampler read
///    yields a valid graph answer — the same contract the MQO pipeline's
///    chain-break repair provides.
///  * Objectives are graph-native (clique size, cut weight, conflict
///    count); `ObjectiveSense` says which direction is better so gap
///    computation is uniform.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qubo/qubo.h"
#include "util/status.h"
#include "workloads/graph.h"

namespace qmqo {
namespace workloads {

/// The supported workload families.
enum class WorkloadKind : uint8_t {
  kMaxClique = 0,
  kMaxCut = 1,
  kGraphColoring = 2,
};

/// Stable lower-case wire/display name ("max_clique", "max_cut",
/// "coloring").
const char* WorkloadKindName(WorkloadKind kind);

/// Parses a wire name into a kind; false on unknown names (`*out`
/// untouched).
bool ParseWorkloadKind(const std::string& name, WorkloadKind* out);

/// Whether larger or smaller objective values are better.
enum class ObjectiveSense {
  kMaximize,
  kMinimize,
};

/// A decoded (and repaired) solution in graph terms.
struct WorkloadSolution {
  /// Per-node label: clique membership (0/1), cut side (0/1), or color
  /// (0..k-1).
  std::vector<int> labels;
  /// Graph-native objective of the repaired labels: clique size, cut
  /// weight, or conflicting-edge count.
  double objective = 0.0;
  /// True when the labels satisfy the workload's hard constraints (clique
  /// is complete, coloring is proper; cuts are always feasible).
  bool feasible = false;
};

/// One formulated workload instance. Implementations are immutable after
/// construction and safe to share across threads (the QUBO is finalized by
/// the constructor).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual WorkloadKind kind() const = 0;

  /// Display name, e.g. "max_clique(24n/61e, planted 6)".
  virtual std::string name() const = 0;

  virtual const Graph& graph() const = 0;

  /// The QUBO formulation (minimization). Finalized; one binary variable
  /// per node (k per node for coloring).
  virtual const qubo::QuboProblem& qubo() const = 0;

  /// Constant such that `qubo().Energy(x) + energy_offset()` is the
  /// workload's penalty-plus-objective energy in canonical form (0 for
  /// max-cut and clique; A*n for coloring).
  virtual double energy_offset() const = 0;

  /// The generator-planted optimal objective (provable by construction).
  virtual double known_optimum() const = 0;

  virtual ObjectiveSense sense() const = 0;

  /// Decodes a 0/1 assignment of `qubo().num_vars()` variables into graph
  /// terms, applying the workload's deterministic repair. Never fails.
  virtual WorkloadSolution Decode(const std::vector<uint8_t>& x) const = 0;

  /// Validates a solution's hard constraints against the graph;
  /// `InvalidArgument` with a reason when infeasible or malformed.
  virtual Status ValidateFeasible(const WorkloadSolution& solution) const = 0;

  /// Non-negative distance from the planted optimum in objective units
  /// (0 = optimum recovered), respecting `sense()`.
  double OptimalityGap(const WorkloadSolution& solution) const {
    const double gap = sense() == ObjectiveSense::kMaximize
                           ? known_optimum() - solution.objective
                           : solution.objective - known_optimum();
    return gap > 0.0 ? gap : 0.0;
  }
};

}  // namespace workloads
}  // namespace qmqo

#endif  // QMQO_WORKLOADS_WORKLOAD_H_
