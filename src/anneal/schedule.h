#ifndef QMQO_ANNEAL_SCHEDULE_H_
#define QMQO_ANNEAL_SCHEDULE_H_

/// \file schedule.h
/// Annealing schedules: inverse-temperature ramps for simulated annealing
/// and transverse-field ramps for simulated quantum annealing.

#include <utility>

#include "qubo/ising.h"

namespace qmqo {
namespace anneal {

/// Interpolation shape of a schedule.
enum class ScheduleShape {
  kLinear,
  kGeometric,
};

/// A monotone ramp from `start` to `end` over a fixed number of steps.
struct Schedule {
  double start = 0.1;
  double end = 10.0;
  ScheduleShape shape = ScheduleShape::kGeometric;

  /// Value at step `step` of `total` (step in [0, total-1]; total >= 1).
  double At(int step, int total) const;
};

/// Suggests an inverse-temperature range for an Ising problem following the
/// heuristic used by classical annealing samplers: the hot temperature
/// makes the largest local field flippable with probability ~1/2, the cold
/// temperature freezes the smallest nonzero field to acceptance ~1%.
std::pair<double, double> SuggestBetaRange(const qubo::IsingView& ising);

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_SCHEDULE_H_
