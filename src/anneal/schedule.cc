#include "anneal/schedule.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace qmqo {
namespace anneal {

double Schedule::At(int step, int total) const {
  assert(total >= 1);
  if (total == 1) return end;
  double t = static_cast<double>(step) / static_cast<double>(total - 1);
  t = std::clamp(t, 0.0, 1.0);
  switch (shape) {
    case ScheduleShape::kLinear:
      return start + (end - start) * t;
    case ScheduleShape::kGeometric: {
      assert(start > 0.0 && end > 0.0);
      return start * std::pow(end / start, t);
    }
  }
  return end;
}

std::pair<double, double> SuggestBetaRange(const qubo::IsingView& ising) {
  // Largest and smallest (nonzero) magnitude of the effective field any
  // spin can experience.
  double max_field = 0.0;
  double min_field = std::numeric_limits<double>::infinity();
  const qubo::CsrView& csr = ising.csr;
  for (qubo::VarId i = 0; i < ising.num_spins(); ++i) {
    double field = std::fabs(ising.fields[i]);
    for (int32_t e = csr.row_offsets[i]; e < csr.row_offsets[i + 1]; ++e) {
      field += std::fabs(csr.weights[e]);
    }
    // A spin whose field sum is inf or NaN (overflowing or non-finite
    // couplings) says nothing useful about the temperature range — skip
    // it rather than let one bad weight poison both betas.
    if (!std::isfinite(field)) continue;
    if (field > 0.0) {
      max_field = std::max(max_field, field);
      min_field = std::min(min_field, field);
    }
  }
  if (max_field == 0.0) {
    return {0.1, 1.0};  // trivial (or fully degenerate) problem
  }
  if (!std::isfinite(min_field) || min_field <= 0.0) min_field = max_field;
  double beta_hot = std::log(2.0) / max_field;
  double beta_cold = std::log(100.0) / min_field;
  // Extreme magnitudes (near-overflow couplings, denormal fields) push the
  // betas toward 0 or inf, which inverts or degenerates downstream
  // geometric schedules. Clamp to a band far outside anything a sane
  // problem produces, keeping ordinary inputs bit-identical, and keep
  // beta_hot a decade below the ceiling so cold > hot always holds.
  constexpr double kMinBeta = 1e-9;
  constexpr double kMaxBeta = 1e9;
  beta_hot = std::clamp(beta_hot, kMinBeta, kMaxBeta / 10.0);
  beta_cold = std::isfinite(beta_cold)
                  ? std::clamp(beta_cold, kMinBeta, kMaxBeta)
                  : kMaxBeta;
  if (beta_cold <= beta_hot) beta_cold = beta_hot * 10.0;
  return {beta_hot, beta_cold};
}

}  // namespace anneal
}  // namespace qmqo
