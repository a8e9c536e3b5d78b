#include "mqo/solution.h"

#include <cassert>

#include "util/string_util.h"

namespace qmqo {
namespace mqo {

bool MqoSolution::IsComplete() const {
  for (PlanId p : selected_) {
    if (p == kUnselected) return false;
  }
  return true;
}

Status ValidateSolution(const MqoProblem& problem,
                        const MqoSolution& solution) {
  if (solution.num_queries() != problem.num_queries()) {
    return Status::InvalidArgument(
        StrFormat("solution covers %d queries, problem has %d",
                  solution.num_queries(), problem.num_queries()));
  }
  for (QueryId q = 0; q < problem.num_queries(); ++q) {
    PlanId p = solution.selected(q);
    if (p == MqoSolution::kUnselected) {
      return Status::FailedPrecondition(
          StrFormat("query %d has no selected plan", q));
    }
    if (p < 0 || p >= problem.num_plans() || problem.query_of(p) != q) {
      return Status::InvalidArgument(
          StrFormat("plan %d is not a plan of query %d", p, q));
    }
  }
  return Status::OK();
}

double EvaluateCost(const MqoProblem& problem, const MqoSolution& solution) {
  std::vector<uint8_t> chosen(static_cast<size_t>(problem.num_plans()), 0);
  double cost = 0.0;
  for (QueryId q = 0; q < solution.num_queries(); ++q) {
    PlanId p = solution.selected(q);
    if (p == MqoSolution::kUnselected) continue;
    chosen[static_cast<size_t>(p)] = 1;
    cost += problem.plan_cost(p);
  }
  for (const Saving& s : problem.savings()) {
    if (chosen[static_cast<size_t>(s.plan_a)] &&
        chosen[static_cast<size_t>(s.plan_b)]) {
      cost -= s.value;
    }
  }
  return cost;
}

int SwapDescent(const MqoProblem& problem, MqoSolution* solution) {
  IncrementalCostEvaluator eval(problem);
  eval.Reset(*solution);
  // delta[p] caches eval.SwapDelta(query_of(p), p). SwapDelta(q, p) reads
  // only selected(q) and the chosen flags of the savings neighbours of p
  // and of selected(q), and a swap old -> new in query q0 changes only
  // selected(q0) and the flags of old and new. So the stale entries are the
  // plans of q0 and of every query owning a savings neighbour of old or
  // new; every other entry equals (bit for bit) what a fresh call returns.
  const int num_plans = problem.num_plans();
  std::vector<double> delta(static_cast<size_t>(num_plans), 0.0);
  // A tournament tree over the plans picks each step's swap: leaf
  // `leaves + p` holds p while p is a candidate (not its query's selection,
  // delta below -1e-12 — never NaN), else -1; an inner node holds the
  // better of its children's winners, by (delta, plan id). Plans of a
  // query are contiguous and queries ascend with plan ids, so the root is
  // the first strictly best swap in (query, plan) order, as a full scan
  // with a strict `<` finds it.
  int leaves = 1;
  while (leaves < num_plans) leaves *= 2;
  std::vector<int> winner(2 * static_cast<size_t>(leaves), -1);
  auto better = [&delta](int left, int right) {
    if (left < 0) return right;
    if (right < 0) return left;
    return delta[static_cast<size_t>(right)] < delta[static_cast<size_t>(left)]
               ? right
               : left;
  };
  auto set_leaf = [&](QueryId q, PlanId p) {
    winner[static_cast<size_t>(leaves + p)] =
        p != eval.selected(q) && delta[static_cast<size_t>(p)] < -1e-12 ? p
                                                                        : -1;
  };
  auto refresh = [&](QueryId q) {
    for (int k = 0; k < problem.num_plans_of(q); ++k) {
      PlanId p = problem.first_plan(q) + k;
      delta[static_cast<size_t>(p)] = eval.SwapDelta(q, p);
      set_leaf(q, p);
      for (size_t node = static_cast<size_t>(leaves + p) / 2; node >= 1;
           node /= 2) {
        winner[node] = better(winner[2 * node], winner[2 * node + 1]);
      }
    }
  };
  for (QueryId q = 0; q < problem.num_queries(); ++q) {
    for (int k = 0; k < problem.num_plans_of(q); ++k) {
      PlanId p = problem.first_plan(q) + k;
      delta[static_cast<size_t>(p)] = eval.SwapDelta(q, p);
      set_leaf(q, p);
    }
  }
  for (size_t node = static_cast<size_t>(leaves) - 1; node >= 1; --node) {
    winner[node] = better(winner[2 * node], winner[2 * node + 1]);
  }
  // refreshed_at[q] == swaps once q was refreshed after the latest swap.
  std::vector<int> refreshed_at(static_cast<size_t>(problem.num_queries()), 0);
  int swaps = 0;
  auto refresh_once = [&](QueryId q) {
    if (refreshed_at[static_cast<size_t>(q)] == swaps) return;
    refreshed_at[static_cast<size_t>(q)] = swaps;
    refresh(q);
  };
  auto refresh_neighbours_of = [&](PlanId plan) {
    for (const auto& link : problem.savings_of(plan)) {
      refresh_once(problem.query_of(link.first));
    }
  };
  while (winner[1] >= 0) {
    const PlanId best_plan = winner[1];
    const QueryId best_query = problem.query_of(best_plan);
    PlanId old_plan = eval.selected(best_query);
    eval.ApplySwap(best_query, best_plan);
    ++swaps;
    refresh_once(best_query);
    if (old_plan != MqoSolution::kUnselected) refresh_neighbours_of(old_plan);
    refresh_neighbours_of(best_plan);
  }
  if (swaps > 0) *solution = eval.ToSolution();
  return swaps;
}

IncrementalCostEvaluator::IncrementalCostEvaluator(const MqoProblem& problem)
    : problem_(problem),
      selected_(static_cast<size_t>(problem.num_queries()),
                MqoSolution::kUnselected),
      is_chosen_(static_cast<size_t>(problem.num_plans()), 0) {}

void IncrementalCostEvaluator::Reset(const MqoSolution& solution) {
  assert(solution.num_queries() == problem_.num_queries());
  std::fill(is_chosen_.begin(), is_chosen_.end(), 0);
  for (QueryId q = 0; q < problem_.num_queries(); ++q) {
    selected_[static_cast<size_t>(q)] = solution.selected(q);
    if (solution.selected(q) != MqoSolution::kUnselected) {
      is_chosen_[static_cast<size_t>(solution.selected(q))] = 1;
    }
  }
  cost_ = EvaluateCost(problem_, solution);
}

double IncrementalCostEvaluator::SwapDelta(QueryId q, PlanId new_plan) const {
  PlanId old_plan = selected_[static_cast<size_t>(q)];
  if (old_plan == new_plan) return 0.0;
  double delta = problem_.plan_cost(new_plan);
  if (old_plan != MqoSolution::kUnselected) {
    delta -= problem_.plan_cost(old_plan);
    // Savings lost by dropping old_plan (links to plans that stay selected).
    for (const auto& [other, value] : problem_.savings_of(old_plan)) {
      if (is_chosen_[static_cast<size_t>(other)]) delta += value;
    }
  }
  // Savings gained by adding new_plan. Note old_plan is still flagged chosen
  // here; a link new_plan<->old_plan is impossible (same query), so the sum
  // is unaffected by the ordering of the swap's two halves.
  for (const auto& [other, value] : problem_.savings_of(new_plan)) {
    if (is_chosen_[static_cast<size_t>(other)]) delta -= value;
  }
  return delta;
}

void IncrementalCostEvaluator::ApplySwap(QueryId q, PlanId new_plan) {
  PlanId old_plan = selected_[static_cast<size_t>(q)];
  if (old_plan == new_plan) return;
  cost_ += SwapDelta(q, new_plan);
  if (old_plan != MqoSolution::kUnselected) {
    is_chosen_[static_cast<size_t>(old_plan)] = 0;
  }
  is_chosen_[static_cast<size_t>(new_plan)] = 1;
  selected_[static_cast<size_t>(q)] = new_plan;
}

MqoSolution IncrementalCostEvaluator::ToSolution() const {
  MqoSolution out(problem_.num_queries());
  for (QueryId q = 0; q < problem_.num_queries(); ++q) {
    out.Select(q, selected_[static_cast<size_t>(q)]);
  }
  return out;
}

}  // namespace mqo
}  // namespace qmqo
