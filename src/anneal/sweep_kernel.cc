#include "anneal/sweep_kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "anneal/sweep_lanes.h"
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

int SweepGroupWidth() {
  switch (util::CpuVectorIsa()) {
    case util::VectorIsa::kAvx512:
      return kAvx512Lanes;
    case util::VectorIsa::kAvx2:
      return kAvx2Lanes;
    case util::VectorIsa::kNone:
      break;
  }
  return 1;
}

void LaneSweeps(int width, const qubo::IsingView& ising, const Schedule& beta,
                int sweeps, int count, Rng* rngs,
                std::vector<int8_t>* spins) {
  assert(count >= 1 && count <= width);
#ifdef QMQO_AVX2_PATHS
  if (width == kAvx512Lanes) {
    LaneSweepsAvx512(ising, beta, sweeps, count, rngs, spins);
    return;
  }
  if (width == kAvx2Lanes) {
    LaneSweepsAvx2(ising, beta, sweeps, count, rngs, spins);
    return;
  }
#else
  (void)ising;
  (void)beta;
  (void)sweeps;
  (void)rngs;
  (void)spins;
#endif
  std::abort();  // unreachable: SweepGroupWidth() picks a compiled width
}

void RunSweepGroup(const qubo::IsingView& ising, const Schedule& beta,
                   int sweeps, int count, Rng* rngs,
                   std::vector<int8_t>* spins) {
  const int width = SweepGroupWidth();
  if (width == 1) {
    for (int k = 0; k < count; ++k) {
      RunSweeps(ising, beta, sweeps, &rngs[k], &spins[k]);
    }
    return;
  }
  for (int first = 0; first < count; first += width) {
    LaneSweeps(width, ising, beta, sweeps, std::min(width, count - first),
               rngs + first, spins + first);
  }
}

}  // namespace anneal
}  // namespace qmqo
