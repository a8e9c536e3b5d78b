#include "anneal/simulated_annealer.h"

#include <cassert>
#include <cmath>

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
  // Reads run in groups of SweepGroupWidth(), each read on its own forked
  // stream, so the grouping changes no draw.
  const std::vector<ReadGroup> groups =
      SplitReadGroups({options_.num_reads}, SweepGroupWidth());
  return RunReads(
      static_cast<int>(groups.size()), options_.num_threads,
      [&, beta](int unit, SampleSet* local) {
        const ReadGroup group = groups[static_cast<size_t>(unit)];
        std::vector<Rng> rngs;
        rngs.reserve(static_cast<size_t>(group.count));
        std::vector<std::vector<int8_t>> spins(
            static_cast<size_t>(group.count), std::vector<int8_t>(n));
        for (int k = 0; k < group.count; ++k) {
          rngs.push_back(rng.Fork(static_cast<uint64_t>(group.first + k)));
          RandomSpins(&rngs.back(), &spins[static_cast<size_t>(k)]);
        }
        RunSweepGroup(view, beta, options_.sweeps_per_read, group.count,
                      rngs.data(), spins.data());
        // Read-out appends the spins bit-packed into the chunk-local
        // arena: no per-read byte vector, no per-sample heap allocation.
        for (const std::vector<int8_t>& read : spins) {
          local->AddSpins(read, view.Energy(read.data()));
        }
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
