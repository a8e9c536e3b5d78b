#include "anneal/simulated_annealer.h"

#include <cassert>
#include <cmath>
#include <optional>

#include "anneal/parallel.h"

namespace qmqo {
namespace anneal {
namespace {

Schedule ResolveBeta(const qubo::IsingView& ising, const Schedule& beta) {
  if (beta.start > 0.0 && beta.end > 0.0) return beta;
  auto [hot, cold] = SuggestBetaRange(ising);
  Schedule resolved = beta;
  resolved.start = hot;
  resolved.end = cold;
  return resolved;
}

}  // namespace

SampleSet SimulatedAnnealer::SampleIsing(const qubo::IsingProblem& ising) const {
  // The view finalizes the problem before it is shared across workers.
  const qubo::IsingView view(ising);
  Schedule beta = ResolveBeta(view, options_.beta);
  Rng rng(options_.seed);
  const size_t n = static_cast<size_t>(ising.num_spins());
  // The color classes are a per-problem precomputation shared (read-only)
  // by every read; the scalar kernel never needs them.
  std::optional<SweepPlan> plan;
  if (options_.sweep_kernel != SweepKernel::kScalar) plan.emplace(view);
  const SweepPlan* plan_ptr = plan ? &*plan : nullptr;
  return RunReads(
      options_.num_reads, options_.num_threads,
      [&, beta](int read, SampleSet* local) {
        Rng read_rng = rng.Fork(static_cast<uint64_t>(read));
        std::vector<int8_t> spins(n);
        InitSpins(options_.sweep_kernel, &read_rng, &spins);
        RunSweeps(view, plan_ptr, beta, options_.sweeps_per_read,
                  options_.sweep_kernel, &read_rng, &spins, options_.executor,
                  options_.sweep_threads);
        // Read-out appends the spins bit-packed into the chunk-local
        // arena: no per-read byte vector, no per-sample heap allocation.
        local->AddSpins(spins, view.Energy(spins.data()));
      },
      options_.executor, options_.max_samples);
}

SampleSet SimulatedAnnealer::Sample(const qubo::QuboProblem& problem) const {
  qubo::IsingWithOffset converted = qubo::QuboToIsing(problem);
  SampleSet out = SampleIsing(converted.ising);
  // Re-express energies on the QUBO scale (a uniform in-place shift; the
  // energy order and occurrence counts are unchanged).
  out.AddEnergyOffset(converted.offset);
  return out;
}

}  // namespace anneal
}  // namespace qmqo
