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
  SqaState(const qubo::IsingProblem& ising, int num_slices, SweepKernel kernel,
           Rng* rng)
      : ising_(ising),
        n_(ising.num_spins()),
        p_(num_slices),
        spins_(static_cast<size_t>(num_slices) * static_cast<size_t>(n_)),
        fields_(spins_.size()) {
    // Kernel-matched initialization: the scalar kernel keeps the frozen
    // one-Bernoulli-per-spin stream, the checkerboard kernels bit-unpack
    // 64 spins per draw.
    InitSpins(kernel, rng, &spins_);
    const qubo::CsrGraph& csr = ising_.csr();
    const double* h = ising_.fields().data();
    for (int k = 0; k < p_; ++k) {
      const int8_t* slice = slice_spins(k);
      double* field = slice_fields(k);
      for (qubo::VarId i = 0; i < n_; ++i) {
        double f = h[i];
        for (int32_t e = csr.row_offsets[static_cast<size_t>(i)];
             e < csr.row_offsets[static_cast<size_t>(i) + 1]; ++e) {
          f += csr.weights[static_cast<size_t>(e)] *
               static_cast<double>(slice[csr.neighbor_ids[static_cast<size_t>(e)]]);
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
    const qubo::CsrGraph& csr = ising_.csr();
    double change = -2.0 * static_cast<double>(slice[i]);
    slice[i] = static_cast<int8_t>(-slice[i]);
    for (int32_t e = csr.row_offsets[static_cast<size_t>(i)];
         e < csr.row_offsets[static_cast<size_t>(i) + 1]; ++e) {
      field[csr.neighbor_ids[static_cast<size_t>(e)]] +=
          csr.weights[static_cast<size_t>(e)] * change;
    }
  }

  /// Exact energy of slice k (recomputed from scratch; used for read-out
  /// only, so cached-field drift never reaches reported energies).
  double SliceEnergy(int k) const {
    std::vector<int8_t> slice(slice_spins(k), slice_spins(k) + n_);
    return ising_.Energy(slice);
  }

 private:
  const qubo::IsingProblem& ising_;
  int n_;
  int p_;
  std::vector<int8_t> spins_;
  std::vector<double> fields_;
};

/// The original slice loop: ascending spin order within each slice, lazy
/// per-proposal draws, the exact Metropolis test (`MetropolisAccept`, which
/// decides exactly as `std::exp` did). Frozen — the SQA bit-exactness
/// reference.
void ScalarStep(const qubo::IsingProblem& ising, SqaState* state, int n, int p,
                double beta_slice, double j_perp, Rng* rng) {
  (void)ising;
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
/// neighbors) but draw uniforms batched. `fast` selects FastExp over the
/// exact `MetropolisAccept`.
void CheckerboardStep(SqaState* state, const qubo::Coloring& coloring, int n,
                      int p, double beta_slice, double j_perp, bool fast,
                      FastRng* rng, std::vector<double>* uniforms) {
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
        bool accept = total <= 0.0 ||
                      (fast ? u[m] < FastExp(-beta_slice * total)
                            : MetropolisAccept(u[m], beta_slice * total));
        if (accept) state->Flip(k, i);
      }
    }
  }
  rng->FillUniform(u, n);
  for (qubo::VarId i = 0; i < n; ++i) {
    double delta = 0.0;
    for (int k = 0; k < p; ++k) {
      delta += state->ProblemDelta(k, i);
    }
    bool accept = delta <= 0.0 ||
                  (fast ? u[i] < FastExp(-beta_slice * delta)
                        : MetropolisAccept(u[i], beta_slice * delta));
    if (accept) {
      for (int k = 0; k < p; ++k) {
        state->Flip(k, i);
      }
    }
  }
}

}  // namespace

SampleSet SimulatedQuantumAnnealer::SampleIsing(
    const qubo::IsingProblem& ising) const {
  const int n = ising.num_spins();
  const int p = options_.num_slices;
  assert(p >= 2);
  const double beta_slice = options_.beta / static_cast<double>(p);
  ising.Finalize();  // shared across worker threads
  Rng rng(options_.seed);
  const SweepKernel kernel = options_.sweep_kernel;
  const bool fast = kernel == SweepKernel::kCheckerboardFast;
  // Color classes are shared read-only across reads; scalar skips them.
  // (Only the coloring — the SQA sweep keeps the original vertex order, so
  // a full SweepPlan's permuted problem copy would go unused.)
  std::optional<qubo::Coloring> coloring;
  if (kernel != SweepKernel::kScalar) {
    coloring.emplace(qubo::ColorGraph(ising.csr()));
  }

  return RunReads(
      options_.num_reads, options_.num_threads,
      [&](int read, SampleSet* local) {
        Rng read_rng = rng.Fork(static_cast<uint64_t>(read));
        SqaState state(ising, p, kernel, &read_rng);
        const bool scalar = kernel == SweepKernel::kScalar;
        std::vector<double> uniforms(
            scalar ? 0
                   : static_cast<size_t>(
                         std::max(n, coloring->max_class_size())));
        // Bulk uniforms for the checkerboard kernels: one xoshiro256++
        // stream per read, seeded from the read's Rng (see sweep_kernel.h).
        FastRng fast_rng(scalar ? 0 : read_rng.Next());

        for (int step = 0; step < options_.sweeps; ++step) {
          double gamma = options_.gamma.At(step, options_.sweeps);
          gamma = std::max(gamma, 1e-9);
          // Inter-slice ferromagnetic coupling; positive, diverging as
          // gamma -> 0. The energy term is −j_perp * s_{k,i} * s_{k+1,i}.
          double j_perp =
              -0.5 / beta_slice * std::log(std::tanh(beta_slice * gamma));

          if (scalar) {
            ScalarStep(ising, &state, n, p, beta_slice, j_perp, &read_rng);
          } else {
            CheckerboardStep(&state, *coloring, n, p, beta_slice, j_perp,
                             fast, &fast_rng, &uniforms);
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
        local->AddSpins(state.slice_spins(best_slice), n, best_energy);
      },
      options_.executor, options_.max_samples);
}

SampleSet SimulatedQuantumAnnealer::Sample(const qubo::QuboProblem& problem) const {
  qubo::IsingWithOffset converted = qubo::QuboToIsing(problem);
  SampleSet out = SampleIsing(converted.ising);
  out.AddEnergyOffset(converted.offset);
  return out;
}

}  // namespace anneal
}  // namespace qmqo
