#ifndef QMQO_MQO_TASK_MODEL_H_
#define QMQO_MQO_TASK_MODEL_H_

/// \file task_model.h
/// The task-based MQO model of Sellis (TODS'88) and its reduction to the
/// pairwise-savings model — the transformation of the paper's footnote 4
/// (Section 3).
///
/// In the task-based model a plan is a *set of tasks* (scans, joins,
/// materializations); executing several plans costs the union of their
/// tasks, so any number of plans may share one task. The paper's model
/// only has pairwise savings; footnote 4 reduces tasks to it:
///
///   * each plan's cost becomes the sum of its task costs;
///   * each task t becomes one extra "intermediate result" query with two
///     plans — materialize (cost c_t) or skip (cost 0);
///   * each original plan containing t gets a saving of exactly c_t with
///     the materialize plan.
///
/// Selecting k >= 1 plans that contain t then makes "materialize" pay for
/// itself (+c_t − k*c_t <= 0), and the task is charged exactly once; with
/// k = 0 the "skip" plan costs nothing. The reduction is exact — verified
/// against direct union-cost enumeration in the tests.
///
/// Reachable only from tests (tests/task_model_test.cc): no workload,
/// bench or solve path builds task-based instances. It is kept because it
/// is the executable form of footnote 4's claim that the pairwise model
/// loses no generality.

#include <vector>

#include "mqo/problem.h"
#include "mqo/solution.h"
#include "util/status.h"

namespace qmqo {
namespace mqo {

/// An MQO instance in the task-based model.
struct TaskBasedProblem {
  /// Cost of each task, indexed by task id.
  std::vector<double> task_costs;
  /// plans_of[q][k] = the set of task ids of plan k of query q.
  std::vector<std::vector<std::vector<int>>> plans_of;

  int num_queries() const { return static_cast<int>(plans_of.size()); }
  int num_tasks() const { return static_cast<int>(task_costs.size()); }
};

/// The reduction's output: the pairwise problem plus the bookkeeping to
/// interpret its solutions.
struct TaskReduction {
  MqoProblem problem;
  /// Queries [0, num_original_queries) are the original ones; query
  /// num_original_queries + t is task t's intermediate-result query.
  int num_original_queries = 0;

  /// Plan id of task t's "materialize" plan.
  PlanId materialize_plan(int task) const {
    return problem.first_plan(num_original_queries + task);
  }
  /// Plan id of task t's "skip" plan.
  PlanId skip_plan(int task) const { return materialize_plan(task) + 1; }
};

/// Reduces a task-based instance to the pairwise model. Fails on invalid
/// input (empty queries, task ids out of range, negative costs).
Result<TaskReduction> ReduceToPairwise(const TaskBasedProblem& tasks);

/// Direct task-model cost of choosing plan `selection[q]` (an index into
/// `plans_of[q]`) for each query: the cost of the union of selected tasks.
double EvaluateTaskCost(const TaskBasedProblem& tasks,
                        const std::vector<int>& selection);

/// Extracts the original queries' plan indices from a solution of the
/// reduced problem.
std::vector<int> OriginalSelection(const TaskReduction& reduction,
                                   const MqoSolution& solution);

}  // namespace mqo
}  // namespace qmqo

#endif  // QMQO_MQO_TASK_MODEL_H_
