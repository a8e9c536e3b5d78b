#ifndef QMQO_MQO_SOLUTION_H_
#define QMQO_MQO_SOLUTION_H_

/// \file solution.h
/// Solutions to MQO problems and (incremental) cost evaluation.

#include <vector>

#include "mqo/problem.h"
#include "util/status.h"

namespace qmqo {
namespace mqo {

/// A (possibly partial) plan selection: one chosen plan per query.
class MqoSolution {
 public:
  /// Sentinel for "no plan chosen yet" for a query.
  static constexpr PlanId kUnselected = -1;

  /// Creates an empty selection for `num_queries` queries.
  explicit MqoSolution(int num_queries)
      : selected_(static_cast<size_t>(num_queries), kUnselected) {}

  /// Chooses plan `p` for query `q` (replacing any previous choice).
  void Select(QueryId q, PlanId p) { selected_[static_cast<size_t>(q)] = p; }

  /// The chosen plan of query `q`, or `kUnselected`.
  PlanId selected(QueryId q) const { return selected_[static_cast<size_t>(q)]; }

  int num_queries() const { return static_cast<int>(selected_.size()); }

  /// True when every query has a chosen plan.
  bool IsComplete() const;

  /// The selected plan ids in query order (only meaningful when complete).
  const std::vector<PlanId>& selections() const { return selected_; }

  bool operator==(const MqoSolution& other) const {
    return selected_ == other.selected_;
  }

 private:
  std::vector<PlanId> selected_;
};

/// Checks that `solution` is a valid solution of `problem`: complete, and
/// every chosen plan belongs to the query it is chosen for.
Status ValidateSolution(const MqoProblem& problem, const MqoSolution& solution);

/// Evaluates C(Pe) = sum(costs) − sum(savings among chosen plans).
/// `solution` must be valid; unselected queries contribute nothing.
double EvaluateCost(const MqoProblem& problem, const MqoSolution& solution);

/// Greedy steepest-descent over single-query plan swaps, in place, until no
/// swap improves the cost. Returns the number of swaps applied. This is the
/// classical post-processing step applied to annealer read-outs (the real
/// D-Wave SAPI exposes the same capability as its "optimization"
/// post-processing mode) and the building block of the CLIMB baseline.
///
/// Each step takes the first strictly best swap (delta < -1e-12) in
/// (query, plan) order. The swap deltas are cached: after a swap only the
/// plans of the swapped query and of the queries owning a savings neighbour
/// of the old or new plan are re-evaluated, and a tournament tree over the
/// cached deltas yields the next swap, so a step costs O(local degree x
/// log plans) instead of a full rescan — with the same swaps and
/// bit-identical costs as the full rescan. Partial solutions are accepted:
/// an unselected query may gain a plan when that lowers the cost.
int SwapDescent(const MqoProblem& problem, MqoSolution* solution);

/// Maintains the cost of a complete solution under single-query plan swaps
/// in O(degree) per swap. This is the inner loop of the hill-climbing and
/// genetic baselines, where full O(|savings|) re-evaluation would dominate.
class IncrementalCostEvaluator {
 public:
  explicit IncrementalCostEvaluator(const MqoProblem& problem);

  /// Loads a complete solution and computes its cost from scratch.
  void Reset(const MqoSolution& solution);

  /// Current solution cost.
  double cost() const { return cost_; }

  /// Plan currently chosen for query `q`.
  PlanId selected(QueryId q) const { return selected_[static_cast<size_t>(q)]; }

  /// Cost change if query `q` switched to `new_plan` (no state change).
  double SwapDelta(QueryId q, PlanId new_plan) const;

  /// Applies the swap and updates the cached cost.
  void ApplySwap(QueryId q, PlanId new_plan);

  /// Exports the current selection as an MqoSolution.
  MqoSolution ToSolution() const;

 private:
  const MqoProblem& problem_;
  std::vector<PlanId> selected_;
  // is_chosen_[p] == 1 iff plan p is currently selected.
  std::vector<uint8_t> is_chosen_;
  double cost_ = 0.0;
};

}  // namespace mqo
}  // namespace qmqo

#endif  // QMQO_MQO_SOLUTION_H_
