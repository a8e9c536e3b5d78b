#include "anneal/sweep_kernel.h"

#include <cassert>
#include <cmath>

#include "util/cpu.h"

namespace qmqo {
namespace anneal {

/// The original per-spin loop, decision for decision: ascending spin order,
/// lazy per-proposal draws, the exact Metropolis test (`MetropolisAccept`:
/// `std::exp` behind screens that change no decision), incremental local
/// fields. Its random stream is the frozen bit-exactness contract.
void RunSweeps(const qubo::IsingView& ising, const Schedule& beta, int sweeps,
               Rng* rng, std::vector<int8_t>* spins) {
  const int n = ising.num_spins();
  assert(static_cast<int>(spins->size()) == n);
  const int32_t* offsets = ising.csr.row_offsets;
  const qubo::VarId* ids = ising.csr.neighbor_ids;
  const double* weights = ising.csr.weights;
  const double* h = ising.fields;
  int8_t* s = spins->data();

  // Local fields: field[i] = h_i + sum_j J_ij s_j; flipping spin i changes
  // the energy by -2 s_i field[i] ... note the sign convention below.
  std::vector<double> field(static_cast<size_t>(n));
  for (qubo::VarId i = 0; i < n; ++i) {
    double f = h[i];
    for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      f += weights[e] * static_cast<double>(s[ids[e]]);
    }
    field[static_cast<size_t>(i)] = f;
  }
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    double b = beta.At(sweep, sweeps);
    for (qubo::VarId i = 0; i < n; ++i) {
      double s_i = static_cast<double>(s[i]);
      // field[i] has no self term, so the flip delta is exact.
      double delta = -2.0 * s_i * field[static_cast<size_t>(i)];
      if (delta <= 0.0 ||
          MetropolisAccept(rng->UniformReal(0.0, 1.0), b * delta)) {
        s[i] = static_cast<int8_t>(-s_i);
        double change = -2.0 * s_i;
        for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
          field[static_cast<size_t>(ids[e])] += weights[e] * change;
        }
      }
    }
  }
}

void RandomSpins(Rng* rng, std::vector<int8_t>* spins) {
  for (auto& s : *spins) {
    s = rng->Bernoulli(0.5) ? int8_t{1} : int8_t{-1};
  }
}

int SweepGroupWidth() { return util::CpuHasAvx2() ? kSweepLanes : 1; }

void RunSweepGroup(const qubo::IsingView& ising, const Schedule& beta,
                   int sweeps, int count, Rng* rngs,
                   std::vector<int8_t>* spins) {
  if (count == kSweepLanes && util::CpuHasAvx2()) {
    LaneSweeps(ising, beta, sweeps, rngs, spins);
    return;
  }
  for (int k = 0; k < count; ++k) {
    RunSweeps(ising, beta, sweeps, &rngs[k], &spins[k]);
  }
}

}  // namespace anneal
}  // namespace qmqo
