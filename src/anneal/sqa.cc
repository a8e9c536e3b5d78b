#include "anneal/sqa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "anneal/parallel.h"

namespace qmqo {
namespace anneal {
namespace {

/// Per-read state of the path-integral simulation: P replicas of the spin
/// vector plus, for each replica, the cached local problem fields
///   field[k][i] = h_i + sum_j J_ij s_{k,j},
/// maintained incrementally on every accepted flip (mirroring the SA
/// kernel) so a Metropolis move costs O(1) to evaluate and O(degree) only
/// when accepted — instead of O(degree) recomputation per *proposal*.
class SqaState {
 public:
  SqaState(const qubo::IsingView& ising, int num_slices, Rng* rng)
      : ising_(ising),
        n_(ising.num_spins()),
        p_(num_slices),
        spins_(static_cast<size_t>(num_slices) * static_cast<size_t>(n_)),
        fields_(spins_.size()) {
    RandomSpins(rng, &spins_);
    const qubo::CsrView& csr = ising_.csr;
    const double* h = ising_.fields;
    for (int k = 0; k < p_; ++k) {
      const int8_t* slice = slice_spins(k);
      double* field = slice_fields(k);
      for (qubo::VarId i = 0; i < n_; ++i) {
        double f = h[i];
        for (int32_t e = csr.row_offsets[i]; e < csr.row_offsets[i + 1]; ++e) {
          f += csr.weights[e] * static_cast<double>(slice[csr.neighbor_ids[e]]);
        }
        field[i] = f;
      }
    }
  }

  int8_t* slice_spins(int k) {
    return spins_.data() + static_cast<size_t>(k) * static_cast<size_t>(n_);
  }
  const int8_t* slice_spins(int k) const {
    return spins_.data() + static_cast<size_t>(k) * static_cast<size_t>(n_);
  }
  double* slice_fields(int k) {
    return fields_.data() + static_cast<size_t>(k) * static_cast<size_t>(n_);
  }

  /// Problem-energy delta for flipping spin i of slice k; O(1).
  double ProblemDelta(int k, qubo::VarId i) const {
    return -2.0 *
           static_cast<double>(
               spins_[static_cast<size_t>(k) * static_cast<size_t>(n_) +
                      static_cast<size_t>(i)]) *
           fields_[static_cast<size_t>(k) * static_cast<size_t>(n_) +
                   static_cast<size_t>(i)];
  }

  /// Flips spin i of slice k and updates the slice's cached fields.
  void Flip(int k, qubo::VarId i) {
    int8_t* slice = slice_spins(k);
    double* field = slice_fields(k);
    const qubo::CsrView& csr = ising_.csr;
    double change = -2.0 * static_cast<double>(slice[i]);
    slice[i] = static_cast<int8_t>(-slice[i]);
    for (int32_t e = csr.row_offsets[i]; e < csr.row_offsets[i + 1]; ++e) {
      field[csr.neighbor_ids[e]] += csr.weights[e] * change;
    }
  }

  /// Exact energy of slice k (recomputed from scratch; used for read-out
  /// only, so cached-field drift never reaches reported energies).
  double SliceEnergy(int k) const { return ising_.Energy(slice_spins(k)); }

 private:
  qubo::IsingView ising_;
  int n_;
  int p_;
  std::vector<int8_t> spins_;
  std::vector<double> fields_;
};

/// A read's `UniformReal(0, 1)` draws in stream order, taken from `rng` a
/// block at a time (`Rng::FillUniform01`): the same values as per-draw
/// calls, without a per-draw twist check. It reads ahead up to one block,
/// so `rng` ends past the last value used.
class UniformStream {
 public:
  explicit UniformStream(Rng* rng) : rng_(rng) {}

  double Next() {
    if (next_ == kBlock) {
      rng_->FillUniform01(block_, kBlock);
      next_ = 0;
    }
    return block_[next_++];
  }

 private:
  static constexpr size_t kBlock = 256;
  Rng* rng_;
  double block_[kBlock];
  size_t next_ = kBlock;
};

/// One annealing step: ascending spin order within each slice, lazy
/// per-proposal draws, the exact Metropolis test (`MetropolisAccept`, which
/// decides exactly as `std::exp` did). Frozen — the SQA bit-exactness
/// reference.
void Step(SqaState* state, int n, int p, double beta_slice,
                double j_perp, UniformStream* uniforms) {
  // Single-site Metropolis moves, slice by slice.
  for (int k = 0; k < p; ++k) {
    const int8_t* slice = state->slice_spins(k);
    const int8_t* prev = state->slice_spins((k + p - 1) % p);
    const int8_t* next = state->slice_spins((k + 1) % p);
    for (qubo::VarId i = 0; i < n; ++i) {
      double delta = state->ProblemDelta(k, i);
      // Kinetic part: flipping s_{k,i} changes
      // −j_perp*s_{k,i}(s_{k-1,i}+s_{k+1,i}) by:
      double s_i = static_cast<double>(slice[i]);
      double neighbors_sum =
          static_cast<double>(prev[i]) + static_cast<double>(next[i]);
      double kinetic = 2.0 * j_perp * s_i * neighbors_sum;
      double total = delta + kinetic;
      if (total <= 0.0 ||
          MetropolisAccept(uniforms->Next(), beta_slice * total)) {
        state->Flip(k, i);
      }
    }
  }
  // Global moves: flip spin i in all slices (kinetic term invariant). Each
  // slice's delta only involves that slice's own fields, so summing the
  // cached deltas is exact.
  for (qubo::VarId i = 0; i < n; ++i) {
    double delta = 0.0;
    for (int k = 0; k < p; ++k) {
      delta += state->ProblemDelta(k, i);
    }
    if (delta <= 0.0 ||
        MetropolisAccept(uniforms->Next(), beta_slice * delta)) {
      for (int k = 0; k < p; ++k) {
        state->Flip(k, i);
      }
    }
  }
}

}  // namespace

SampleSet SimulatedQuantumAnnealer::SampleIsing(
    const qubo::IsingProblem& ising) const {
  // The view finalizes the problem before it is shared across workers.
  const qubo::IsingView view(ising);
  Rng rng(options_.seed);
  return RunReads(
      options_.num_reads, options_.num_threads,
      [&](int read, SampleSet* local) {
        Rng read_rng = rng.Fork(static_cast<uint64_t>(read));
        std::vector<int8_t> spins;
        const double energy = AnnealRead(view, &read_rng, &spins);
        local->AddSpins(spins, energy);
      },
      options_.executor, options_.max_samples);
}

double SimulatedQuantumAnnealer::AnnealRead(const qubo::IsingView& ising,
                                            Rng* rng,
                                            std::vector<int8_t>* spins) const {
  const int n = ising.num_spins();
  const int p = options_.num_slices;
  assert(p >= 2);
  const double beta_slice = options_.beta / static_cast<double>(p);
  SqaState state(ising, p, rng);
  UniformStream uniforms(rng);

  for (int step = 0; step < options_.sweeps; ++step) {
    double gamma = options_.gamma.At(step, options_.sweeps);
    gamma = std::max(gamma, 1e-9);
    // Inter-slice ferromagnetic coupling; positive, diverging as
    // gamma -> 0. The energy term is −j_perp * s_{k,i} * s_{k+1,i}.
    double j_perp = -0.5 / beta_slice * std::log(std::tanh(beta_slice * gamma));

    Step(&state, n, p, beta_slice, j_perp, &uniforms);
  }

  // Read out the best slice (energies recomputed exactly).
  double best_energy = std::numeric_limits<double>::infinity();
  int best_slice = 0;
  for (int k = 0; k < p; ++k) {
    double energy = state.SliceEnergy(k);
    if (energy < best_energy) {
      best_energy = energy;
      best_slice = k;
    }
  }
  spins->assign(state.slice_spins(best_slice),
                state.slice_spins(best_slice) + n);
  return best_energy;
}

SampleSet SimulatedQuantumAnnealer::Sample(const qubo::QuboProblem& problem) const {
  qubo::IsingWithOffset converted = qubo::QuboToIsing(problem);
  SampleSet out = SampleIsing(converted.ising);
  out.AddEnergyOffset(converted.offset);
  return out;
}

}  // namespace anneal
}  // namespace qmqo
