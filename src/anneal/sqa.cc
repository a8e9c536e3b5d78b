#include "anneal/sqa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>

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
  SqaState(const qubo::IsingView& ising, int num_slices, SweepKernel kernel,
           Rng* rng)
      : ising_(ising),
        n_(ising.num_spins()),
        p_(num_slices),
        spins_(static_cast<size_t>(num_slices) * static_cast<size_t>(n_)),
        fields_(spins_.size()) {
    // Kernel-matched initialization: the scalar kernel keeps the frozen
    // one-Bernoulli-per-spin stream, the checkerboard kernel bit-unpacks
    // 64 spins per draw.
    InitSpins(kernel, rng, &spins_);
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

/// The original slice loop: ascending spin order within each slice, lazy
/// per-proposal draws, the exact Metropolis test (`MetropolisAccept`, which
/// decides exactly as `std::exp` did). Frozen — the SQA bit-exactness
/// reference.
void ScalarStep(SqaState* state, int n, int p, double beta_slice,
                double j_perp, Rng* rng) {
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
          MetropolisAccept(rng->UniformReal(0.0, 1.0), beta_slice * total)) {
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
        MetropolisAccept(rng->UniformReal(0.0, 1.0), beta_slice * delta)) {
      for (int k = 0; k < p; ++k) {
        state->Flip(k, i);
      }
    }
  }
}

/// Checkerboard step: each slice is swept color class by color class with
/// the class's uniforms drawn up front. Within a class members are never
/// adjacent, so a member's cached problem field is unaffected by the other
/// members' flips — and the kinetic term reads spin i of the *neighbor*
/// slices, which this slice's sweep never touches — making the fused
/// decide-and-flip loop equivalent to an all-at-once class update. Global
/// moves keep their sequential order (their deltas chain through shared
/// neighbors) but draw uniforms batched.
void CheckerboardStep(SqaState* state, const qubo::Coloring& coloring, int n,
                      int p, double beta_slice, double j_perp, FastRng* rng,
                      std::vector<double>* uniforms) {
  double* u = uniforms->data();
  for (int k = 0; k < p; ++k) {
    const int8_t* slice = state->slice_spins(k);
    const int8_t* prev = state->slice_spins((k + p - 1) % p);
    const int8_t* next = state->slice_spins((k + 1) % p);
    for (int c = 0; c < coloring.num_colors; ++c) {
      const qubo::VarId* members = coloring.class_begin(c);
      const int count = coloring.class_size(c);
      rng->FillUniform(u, count);
      for (int m = 0; m < count; ++m) {
        qubo::VarId i = members[m];
        double delta = state->ProblemDelta(k, i);
        double s_i = static_cast<double>(slice[i]);
        double neighbors_sum =
            static_cast<double>(prev[i]) + static_cast<double>(next[i]);
        double total = delta + 2.0 * j_perp * s_i * neighbors_sum;
        if (total <= 0.0 || MetropolisAccept(u[m], beta_slice * total)) {
          state->Flip(k, i);
        }
      }
    }
  }
  rng->FillUniform(u, n);
  for (qubo::VarId i = 0; i < n; ++i) {
    double delta = 0.0;
    for (int k = 0; k < p; ++k) {
      delta += state->ProblemDelta(k, i);
    }
    if (delta <= 0.0 || MetropolisAccept(u[i], beta_slice * delta)) {
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
  // Color classes are shared read-only across reads; scalar skips them.
  // (Only the coloring — the SQA sweep keeps the original vertex order, so
  // a full SweepPlan's permuted problem copy would go unused.)
  std::optional<qubo::Coloring> coloring;
  if (options_.sweep_kernel != SweepKernel::kScalar) {
    coloring.emplace(qubo::ColorGraph(view.csr));
  }
  const qubo::Coloring* coloring_ptr = coloring ? &*coloring : nullptr;
  return RunReads(
      options_.num_reads, options_.num_threads,
      [&](int read, SampleSet* local) {
        Rng read_rng = rng.Fork(static_cast<uint64_t>(read));
        std::vector<int8_t> spins;
        const double energy = AnnealRead(view, coloring_ptr, &read_rng, &spins);
        local->AddSpins(spins, energy);
      },
      options_.executor, options_.max_samples);
}

double SimulatedQuantumAnnealer::AnnealRead(const qubo::IsingView& ising,
                                            const qubo::Coloring* coloring,
                                            Rng* rng,
                                            std::vector<int8_t>* spins) const {
  const int n = ising.num_spins();
  const int p = options_.num_slices;
  assert(p >= 2);
  const double beta_slice = options_.beta / static_cast<double>(p);
  const SweepKernel kernel = options_.sweep_kernel;
  const bool scalar = kernel == SweepKernel::kScalar;
  assert(scalar || coloring != nullptr);
  SqaState state(ising, p, kernel, rng);
  std::vector<double> uniforms(
      scalar ? 0
             : static_cast<size_t>(std::max(n, coloring->max_class_size())));
  // Bulk uniforms for the checkerboard kernel: one xoshiro256++ stream per
  // read, seeded from the read's Rng (see sweep_kernel.h).
  FastRng fast_rng(scalar ? 0 : rng->Next());

  for (int step = 0; step < options_.sweeps; ++step) {
    double gamma = options_.gamma.At(step, options_.sweeps);
    gamma = std::max(gamma, 1e-9);
    // Inter-slice ferromagnetic coupling; positive, diverging as
    // gamma -> 0. The energy term is −j_perp * s_{k,i} * s_{k+1,i}.
    double j_perp = -0.5 / beta_slice * std::log(std::tanh(beta_slice * gamma));

    if (scalar) {
      ScalarStep(&state, n, p, beta_slice, j_perp, rng);
    } else {
      CheckerboardStep(&state, *coloring, n, p, beta_slice, j_perp, &fast_rng,
                       &uniforms);
    }
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
