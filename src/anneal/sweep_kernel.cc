#include "anneal/sweep_kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/executor.h"

namespace qmqo {
namespace anneal {
namespace {

/// The original per-spin loop, decision-for-decision the pre-kernel-layer
/// implementation: ascending spin order, lazy per-proposal draws, the exact
/// Metropolis test (`MetropolisAccept`: `std::exp` behind a screen that
/// changes no decision), incremental local fields. Its random stream is the
/// frozen bit-exactness contract of the default path.
void ScalarSweeps(const qubo::IsingProblem& ising, const Schedule& beta,
                  int sweeps, Rng* rng, std::vector<int8_t>* spins) {
  const int n = ising.num_spins();
  assert(static_cast<int>(spins->size()) == n);
  const qubo::CsrGraph& csr = ising.csr();
  const int32_t* offsets = csr.row_offsets.data();
  const qubo::VarId* ids = csr.neighbor_ids.data();
  const double* weights = csr.weights.data();
  const double* h = ising.fields().data();
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

/// The two-color sweep shared by `kCheckerboard` and `kCheckerboardFast`
/// (`fast` selects FastExp over the exact `MetropolisAccept`). The
/// whole read runs in the plan's color-major permuted space — spins and
/// fields are walked sequentially within a class, with no member
/// indirection — and is permuted back into `spins` at the end. Per class:
/// members are never adjacent, so no member's cached field depends on
/// another member's flip, making the decide results independent of apply
/// order. That admits two equivalent schedules: a fused decide-and-flip
/// pass (fastest serially), and a split pass whose decide half fans out
/// across the executor into per-index accept slots while the scatter
/// stays serial — bit-identical at any `sweep_threads`, because the
/// uniforms are drawn in the same per-class order either way.
void CheckerboardSweeps(const qubo::IsingProblem& ising, const SweepPlan& plan,
                        const Schedule& beta, int sweeps, bool fast, Rng* rng,
                        std::vector<int8_t>* spins, util::Executor* executor,
                        int sweep_threads) {
  const int n = ising.num_spins();
  assert(static_cast<int>(spins->size()) == n);
  const int32_t* offsets = plan.row_offsets().data();
  const qubo::VarId* ids = plan.neighbor_ids().data();
  const double* weights = plan.weights().data();
  const double* h = plan.fields().data();
  const qubo::Coloring& coloring = plan.coloring();
  // class_members concatenated in color order IS the permuted->original
  // map; class c occupies the contiguous permuted range
  // [class_offsets[c], class_offsets[c+1]).
  const qubo::VarId* to_original = coloring.class_members.data();

  std::vector<int8_t> permuted(static_cast<size_t>(n));
  int8_t* s = permuted.data();
  for (int q = 0; q < n; ++q) {
    s[q] = (*spins)[static_cast<size_t>(to_original[q])];
  }
  std::vector<double> field(static_cast<size_t>(n));
  for (int q = 0; q < n; ++q) {
    double f = h[q];
    for (int32_t e = offsets[q]; e < offsets[q + 1]; ++e) {
      f += weights[e] * static_cast<double>(s[ids[e]]);
    }
    field[static_cast<size_t>(q)] = f;
  }

  std::vector<double> uniforms(static_cast<size_t>(plan.max_class_size()));
  std::vector<uint8_t> accept(uniforms.size());
  double* u = uniforms.data();
  uint8_t* a = accept.data();
  // Bulk randomness comes from a xoshiro256++ stream seeded once per read
  // from the read's Rng — a full `Rng::UniformReal` (~3 ns) costs a few
  // times a xoshiro draw and would dominate the sweep. One parent draw
  // keeps determinism hanging off the seed.
  FastRng fast_rng(rng->Next());

  auto flip = [&](qubo::VarId q) {
    double change = -2.0 * static_cast<double>(s[q]);
    s[q] = static_cast<int8_t>(-s[q]);
    for (int32_t e = offsets[q]; e < offsets[q + 1]; ++e) {
      field[static_cast<size_t>(ids[e])] += weights[e] * change;
    }
  };
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const double b = beta.At(sweep, sweeps);
    for (int c = 0; c < coloring.num_colors; ++c) {
      const int begin_q = coloring.class_offsets[static_cast<size_t>(c)];
      const int count = coloring.class_size(c);

      if (sweep_threads == 1) {
        // Fused decide-and-flip, drawing inline: NextUniform() at member k
        // yields exactly FillUniform's u[k], so this path is bit-identical
        // to the split path below while skipping the buffer round trip.
        if (fast) {
          for (int q = begin_q; q < begin_q + count; ++q) {
            double u_k = fast_rng.NextUniform();
            // arg = -b * delta; arg >= 0 is the downhill delta <= 0 case.
            double arg = 2.0 * b * static_cast<double>(s[q]) *
                         field[static_cast<size_t>(q)];
            if (arg >= 0.0 || u_k < FastExp(arg)) flip(q);
          }
        } else {
          for (int q = begin_q; q < begin_q + count; ++q) {
            double u_k = fast_rng.NextUniform();
            double delta = -2.0 * static_cast<double>(s[q]) *
                           field[static_cast<size_t>(q)];
            if (delta <= 0.0 || MetropolisAccept(u_k, b * delta)) flip(q);
          }
        }
        continue;
      }
      fast_rng.FillUniform(u, count);

      // 0 = hardware concurrency (resolved by Executor::Run).
      util::Executor::Run(
          executor, count, sweep_threads,
          [&](int begin, int end, int chunk) {
            (void)chunk;
            if (fast) {
              for (int k = begin; k < end; ++k) {
                qubo::VarId q = begin_q + k;
                double arg = 2.0 * b * static_cast<double>(s[q]) *
                             field[static_cast<size_t>(q)];
                a[k] = arg >= 0.0 || u[k] < FastExp(arg);
              }
            } else {
              for (int k = begin; k < end; ++k) {
                qubo::VarId q = begin_q + k;
                double delta = -2.0 * static_cast<double>(s[q]) *
                               field[static_cast<size_t>(q)];
                a[k] = delta <= 0.0 || MetropolisAccept(u[k], b * delta);
              }
            }
          });
      for (int k = 0; k < count; ++k) {
        if (a[k]) flip(begin_q + k);
      }
    }
  }

  for (int q = 0; q < n; ++q) {
    (*spins)[static_cast<size_t>(to_original[q])] = s[q];
  }
}

}  // namespace

SweepPlan::SweepPlan(const qubo::IsingProblem& ising)
    : coloring_(qubo::ColorGraph(ising.csr())) {
  // Renumber vertices color-major: permuted id q maps to original vertex
  // class_members[q]. Rebuild CSR, weights, and fields in that space so
  // the class pass reads everything sequentially.
  const qubo::CsrGraph& csr = ising.csr();
  const int n = csr.num_vars();
  std::vector<qubo::VarId> to_permuted(static_cast<size_t>(n));
  for (int q = 0; q < n; ++q) {
    to_permuted[static_cast<size_t>(coloring_.class_members[q])] = q;
  }
  row_offsets_.resize(static_cast<size_t>(n) + 1);
  row_offsets_[0] = 0;
  neighbor_ids_.resize(csr.neighbor_ids.size());
  weights_.resize(csr.weights.size());
  fields_.resize(static_cast<size_t>(n));
  const std::vector<double>& h = ising.fields();
  int32_t cursor = 0;
  for (int q = 0; q < n; ++q) {
    qubo::VarId v = coloring_.class_members[static_cast<size_t>(q)];
    fields_[static_cast<size_t>(q)] = h[static_cast<size_t>(v)];
    for (int32_t e = csr.row_offsets[static_cast<size_t>(v)];
         e < csr.row_offsets[static_cast<size_t>(v) + 1]; ++e) {
      neighbor_ids_[static_cast<size_t>(cursor)] =
          to_permuted[static_cast<size_t>(csr.neighbor_ids[static_cast<size_t>(e)])];
      weights_[static_cast<size_t>(cursor)] = csr.weights[static_cast<size_t>(e)];
      ++cursor;
    }
    row_offsets_[static_cast<size_t>(q) + 1] = cursor;
  }
}

const char* SweepKernelName(SweepKernel kernel) {
  switch (kernel) {
    case SweepKernel::kScalar:
      return "scalar";
    case SweepKernel::kCheckerboard:
      return "checkerboard";
    case SweepKernel::kCheckerboardFast:
      return "checkerboard_fast";
  }
  return "scalar";
}

bool ParseSweepKernel(const std::string& name, SweepKernel* kernel) {
  if (name == "scalar") {
    *kernel = SweepKernel::kScalar;
  } else if (name == "checkerboard") {
    *kernel = SweepKernel::kCheckerboard;
  } else if (name == "checkerboard_fast") {
    *kernel = SweepKernel::kCheckerboardFast;
  } else {
    return false;
  }
  return true;
}

void RandomSpins(Rng* rng, std::vector<int8_t>* spins) {
  for (auto& s : *spins) {
    s = rng->Bernoulli(0.5) ? int8_t{1} : int8_t{-1};
  }
}

void RandomSpinsBatched(Rng* rng, std::vector<int8_t>* spins) {
  int8_t* s = spins->data();
  const size_t n = spins->size();
  for (size_t base = 0; base < n; base += 64) {
    uint64_t word = rng->Next();
    const size_t limit = std::min<size_t>(64, n - base);
    for (size_t bit = 0; bit < limit; ++bit) {
      s[base + bit] = (word >> bit) & 1 ? int8_t{1} : int8_t{-1};
    }
  }
}

void InitSpins(SweepKernel kernel, Rng* rng, std::vector<int8_t>* spins) {
  if (kernel == SweepKernel::kScalar) {
    RandomSpins(rng, spins);
  } else {
    RandomSpinsBatched(rng, spins);
  }
}

void RunSweeps(const qubo::IsingProblem& ising, const SweepPlan* plan,
               const Schedule& beta, int sweeps, SweepKernel kernel, Rng* rng,
               std::vector<int8_t>* spins, util::Executor* executor,
               int sweep_threads) {
  if (kernel == SweepKernel::kScalar) {
    ScalarSweeps(ising, beta, sweeps, rng, spins);
    return;
  }
  assert(plan != nullptr);
  CheckerboardSweeps(ising, *plan, beta, sweeps,
                     kernel == SweepKernel::kCheckerboardFast, rng, spins,
                     executor, sweep_threads);
}

}  // namespace anneal
}  // namespace qmqo
