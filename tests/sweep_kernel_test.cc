// Tests for the sweep-kernel layer: CSR graph coloring, the bit-exact vs
// fast-math kernel contracts (FastExp error bound, the screened exact
// Metropolis test, frozen scalar streams against naive reference loops,
// batched initialization pinning), field-update equivalence of the
// checkerboard sweep, thread-count determinism, and energy-quality parity
// of all three kernels on a 512-spin Chimera glass.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "anneal/schedule.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "anneal/sweep_kernel.h"
#include "chimera/topology.h"
#include "qubo/brute_force.h"
#include "qubo/csr.h"
#include "qubo/ising.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {
namespace {

/// A random spin glass on an intact rows x cols x 4 Chimera graph.
qubo::IsingProblem ChimeraGlass(int rows, int cols, Rng* rng) {
  chimera::ChimeraGraph graph(rows, cols, 4);
  qubo::IsingProblem ising(graph.num_qubits());
  for (chimera::QubitId q = 0; q < graph.num_qubits(); ++q) {
    ising.AddField(q, rng->UniformReal(-1.0, 1.0));
    for (chimera::QubitId other : graph.Neighbors(q)) {
      if (other > q) {
        ising.AddCoupling(q, other, rng->UniformReal(-1.0, 1.0));
      }
    }
  }
  return ising;
}

qubo::IsingProblem RandomIsing(int num_spins, double density, Rng* rng) {
  qubo::IsingProblem ising(num_spins);
  for (int i = 0; i < num_spins; ++i) {
    ising.AddField(i, rng->UniformReal(-2.0, 2.0));
    for (int j = i + 1; j < num_spins; ++j) {
      if (rng->Bernoulli(density)) {
        ising.AddCoupling(i, j, rng->UniformReal(-2.0, 2.0));
      }
    }
  }
  return ising;
}

/// A proper coloring never places two adjacent vertices in one class, and
/// its classes partition the vertex set.
void ExpectValidColoring(const qubo::CsrGraph& graph,
                         const qubo::Coloring& coloring) {
  const int n = graph.num_vars();
  ASSERT_EQ(static_cast<int>(coloring.color_of.size()), n);
  for (qubo::VarId v = 0; v < n; ++v) {
    int c = coloring.color_of[static_cast<size_t>(v)];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, coloring.num_colors);
    for (auto [u, w] : graph.row(v)) {
      (void)w;
      EXPECT_NE(coloring.color_of[static_cast<size_t>(u)], c)
          << "edge (" << v << ", " << u << ") inside color class " << c;
    }
  }
  // class_members is a permutation of [0, n) grouped consistently.
  ASSERT_EQ(static_cast<int>(coloring.class_members.size()), n);
  ASSERT_EQ(static_cast<int>(coloring.class_offsets.size()),
            coloring.num_colors + 1);
  std::vector<int> seen(static_cast<size_t>(n), 0);
  for (int c = 0; c < coloring.num_colors; ++c) {
    for (int k = 0; k < coloring.class_size(c); ++k) {
      qubo::VarId v = coloring.class_begin(c)[k];
      EXPECT_EQ(coloring.color_of[static_cast<size_t>(v)], c);
      ++seen[static_cast<size_t>(v)];
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

// --------------------------------------------------------------------
// Graph coloring
// --------------------------------------------------------------------

TEST(ColoringTest, ChimeraIsBipartiteWithTwoBalancedClasses) {
  Rng rng(1);
  qubo::IsingProblem glass = ChimeraGlass(4, 4, &rng);
  glass.Finalize();
  qubo::Coloring coloring = qubo::ColorGraph(glass.csr());
  EXPECT_TRUE(coloring.is_bipartite);
  EXPECT_EQ(coloring.num_colors, 2);
  ExpectValidColoring(glass.csr(), coloring);
  // The Chimera checkerboard: (side + row + col) parity splits evenly.
  EXPECT_EQ(coloring.class_size(0), glass.num_spins() / 2);
  EXPECT_EQ(coloring.class_size(1), glass.num_spins() / 2);
}

TEST(ColoringTest, RandomCsrGraphsGetValidColorings) {
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 100);
    qubo::IsingProblem ising =
        RandomIsing(rng.UniformInt(8, 40), rng.UniformReal(0.1, 0.6), &rng);
    ising.Finalize();
    qubo::Coloring coloring = qubo::ColorGraph(ising.csr());
    ExpectValidColoring(ising.csr(), coloring);
  }
}

TEST(ColoringTest, TriangleNeedsThreeColors) {
  qubo::IsingProblem ising(3);
  ising.AddCoupling(0, 1, 1.0);
  ising.AddCoupling(1, 2, 1.0);
  ising.AddCoupling(0, 2, 1.0);
  ising.Finalize();
  qubo::Coloring coloring = qubo::ColorGraph(ising.csr());
  EXPECT_FALSE(coloring.is_bipartite);
  EXPECT_EQ(coloring.num_colors, 3);
  ExpectValidColoring(ising.csr(), coloring);
}

TEST(ColoringTest, EdgelessGraphUsesOneClass) {
  qubo::IsingProblem ising(5);
  ising.AddField(0, 1.0);
  ising.Finalize();
  qubo::Coloring coloring = qubo::ColorGraph(ising.csr());
  EXPECT_TRUE(coloring.is_bipartite);
  EXPECT_EQ(coloring.num_colors, 1);
  EXPECT_EQ(coloring.class_size(0), 5);
}

// --------------------------------------------------------------------
// Kernel naming
// --------------------------------------------------------------------

TEST(SweepKernelTest, NamesRoundTrip) {
  for (SweepKernel kernel :
       {SweepKernel::kScalar, SweepKernel::kCheckerboard,
        SweepKernel::kCheckerboardFast}) {
    SweepKernel parsed = SweepKernel::kScalar;
    EXPECT_TRUE(ParseSweepKernel(SweepKernelName(kernel), &parsed));
    EXPECT_EQ(parsed, kernel);
  }
  SweepKernel untouched = SweepKernel::kCheckerboard;
  EXPECT_FALSE(ParseSweepKernel("warp", &untouched));
  EXPECT_EQ(untouched, SweepKernel::kCheckerboard);
}

// --------------------------------------------------------------------
// FastExp
// --------------------------------------------------------------------

TEST(FastExpTest, RelativeErrorBoundedOverKernelRange) {
  // Dense scan of the full argument range the kernels can produce.
  double max_rel = 0.0;
  for (double x = -708.0; x <= 0.0; x += 1e-3) {
    double exact = std::exp(x);
    double rel = std::abs(FastExp(x) - exact) / exact;
    max_rel = std::max(max_rel, rel);
  }
  EXPECT_LT(max_rel, kFastExpMaxRelError);
  EXPECT_DOUBLE_EQ(FastExp(0.0), 1.0);
  // Beyond the clamp the result stays beneath every nonzero 53-bit
  // uniform, so Metropolis tests treat it as zero.
  EXPECT_LT(FastExp(-1e9), 1e-300);
}

TEST(FastExpTest, RealizedBetaDeltaRangeStaysInBound) {
  // The realized arguments are -beta * delta with beta from the suggested
  // schedule and |delta| <= 2 * (|h_i| + sum_j |J_ij|); sample that range
  // for the 512-spin glass the parity test below anneals.
  Rng rng(3);
  qubo::IsingProblem glass = ChimeraGlass(8, 8, &rng);
  glass.Finalize();
  auto [hot, cold] = SuggestBetaRange(glass);
  double max_delta = 0.0;
  for (qubo::VarId i = 0; i < glass.num_spins(); ++i) {
    double reach = std::abs(glass.field(i));
    for (auto [j, w] : glass.neighbors(i)) {
      (void)j;
      reach += std::abs(w);
    }
    max_delta = std::max(max_delta, 2.0 * reach);
  }
  double lo = -cold * max_delta;
  ASSERT_LT(lo, 0.0);
  for (int k = 0; k <= 20000; ++k) {
    double x = lo * (static_cast<double>(k) / 20000.0);
    if (x < -708.0) continue;
    double exact = std::exp(x);
    EXPECT_LT(std::abs(FastExp(x) - exact) / exact, kFastExpMaxRelError)
        << "at x = " << x << " (hot " << hot << ", cold " << cold << ")";
  }
}

// --------------------------------------------------------------------
// MetropolisAccept: the screened exact test
// --------------------------------------------------------------------

/// The unscreened test every exact kernel ran before the screen.
bool PlainAccept(double u, double bd) { return u < std::exp(-bd); }

TEST(MetropolisAcceptTest, MatchesPlainTestOnTenMillionSeededPairs) {
  // u from the kScalar stream's UnitUniform, bd log-uniform over
  // [1e-6, 800] — past exp's underflow at ~745.
  Rng rng(2024);
  const double log_lo = std::log(1e-6);
  const double log_hi = std::log(800.0);
  int64_t mismatches = 0;
  int64_t uphill_accepts = 0;
  constexpr int64_t kPairs = 10'000'000;
  for (int64_t k = 0; k < kPairs; ++k) {
    const double u = UnitUniform(rng.Next());
    const double bd =
        std::exp(log_lo + (log_hi - log_lo) * UnitUniform(rng.Next()));
    const bool expected = PlainAccept(u, bd);
    mismatches += MetropolisAccept(u, bd) != expected;
    uphill_accepts += expected;
  }
  EXPECT_EQ(mismatches, 0);
  // Both outcomes occur in bulk, so the comparison is not vacuous.
  EXPECT_GT(uphill_accepts, kPairs / 10);
  EXPECT_LT(uphill_accepts, kPairs * 9 / 10);
}

TEST(MetropolisAcceptTest, EdgeCasesMatchPlainTest) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kDenormal = std::numeric_limits<double>::denorm_min();
  for (double u : {0.0, 0x1.0p-64, std::nextafter(1.0, 0.0)}) {
    for (double bd : {0.0, kDenormal, 708.0, 745.2, 746.0, 1e300, kInf,
                      kNan}) {
      EXPECT_EQ(MetropolisAccept(u, bd), PlainAccept(u, bd))
          << "u = " << u << ", bd = " << bd;
    }
  }
}

TEST(MetropolisAcceptTest, OneUlpAroundTheThresholdMatchesPlainTest) {
  // u one ulp either side of exp(-bd): where the screen's margin matters.
  // Small bd makes the cubic equal e^bd to the last bit, so u·P lands on
  // 1 within rounding — a screen without its 1e-12 margin rejects some
  // of these accepts.
  std::vector<double> bds;
  for (int k = 0; k <= 400; ++k) {
    bds.push_back(1e-8 * std::pow(1e6, k / 400.0));  // [1e-8, 1e-2]
  }
  for (double bd : {0.5, 1.0, 3.0, 10.0, 100.0, 700.0, 708.0, 744.0}) {
    bds.push_back(bd);
  }
  for (double bd : bds) {
    const double threshold = std::exp(-bd);
    for (double u : {std::nextafter(threshold, 0.0), threshold,
                     std::nextafter(threshold, 1.0)}) {
      EXPECT_EQ(MetropolisAccept(u, bd), PlainAccept(u, bd))
          << "u = " << u << ", bd = " << bd;
    }
  }
}

/// The kScalar sweep as it read before the screen: ascending spin order,
/// one UniformReal per uphill proposal, plain `std::exp`.
void NaiveScalarSweeps(const qubo::IsingProblem& ising, const Schedule& beta,
                       int sweeps, Rng* rng, std::vector<int8_t>* spins) {
  const int n = ising.num_spins();
  std::vector<double> field(static_cast<size_t>(n));
  for (qubo::VarId i = 0; i < n; ++i) {
    double f = ising.field(i);
    for (auto [j, w] : ising.neighbors(i)) {
      f += w * static_cast<double>((*spins)[static_cast<size_t>(j)]);
    }
    field[static_cast<size_t>(i)] = f;
  }
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    double b = beta.At(sweep, sweeps);
    for (qubo::VarId i = 0; i < n; ++i) {
      double s_i = static_cast<double>((*spins)[static_cast<size_t>(i)]);
      double delta = -2.0 * s_i * field[static_cast<size_t>(i)];
      if (delta <= 0.0 ||
          rng->UniformReal(0.0, 1.0) < std::exp(-b * delta)) {
        (*spins)[static_cast<size_t>(i)] = static_cast<int8_t>(-s_i);
        for (auto [j, w] : ising.neighbors(i)) {
          field[static_cast<size_t>(j)] += w * (-2.0 * s_i);
        }
      }
    }
  }
}

/// The kScalar SQA sampler as it read before the screen, one read: the
/// forked read stream, legacy initialization, slice-by-slice local moves
/// then global moves with plain `std::exp`, and best-slice read-out.
std::vector<int8_t> NaiveSqaRead(const qubo::IsingProblem& ising,
                                 const SqaOptions& options, int read) {
  const int n = ising.num_spins();
  const int p = options.num_slices;
  const double beta_slice = options.beta / static_cast<double>(p);
  Rng read_rng = Rng(options.seed).Fork(static_cast<uint64_t>(read));
  std::vector<int8_t> spins(static_cast<size_t>(p) * static_cast<size_t>(n));
  RandomSpins(&read_rng, &spins);
  auto at = [n](int k, qubo::VarId i) {
    return static_cast<size_t>(k) * static_cast<size_t>(n) +
           static_cast<size_t>(i);
  };
  std::vector<double> field(spins.size());
  for (int k = 0; k < p; ++k) {
    for (qubo::VarId i = 0; i < n; ++i) {
      double f = ising.field(i);
      for (auto [j, w] : ising.neighbors(i)) {
        f += w * static_cast<double>(spins[at(k, j)]);
      }
      field[at(k, i)] = f;
    }
  }
  auto delta_of = [&](int k, qubo::VarId i) {
    return -2.0 * static_cast<double>(spins[at(k, i)]) * field[at(k, i)];
  };
  auto flip = [&](int k, qubo::VarId i) {
    double change = -2.0 * static_cast<double>(spins[at(k, i)]);
    spins[at(k, i)] = static_cast<int8_t>(-spins[at(k, i)]);
    for (auto [j, w] : ising.neighbors(i)) field[at(k, j)] += w * change;
  };
  for (int step = 0; step < options.sweeps; ++step) {
    double gamma = std::max(options.gamma.At(step, options.sweeps), 1e-9);
    double j_perp = -0.5 / beta_slice * std::log(std::tanh(beta_slice * gamma));
    for (int k = 0; k < p; ++k) {
      for (qubo::VarId i = 0; i < n; ++i) {
        double neighbors_sum =
            static_cast<double>(spins[at((k + p - 1) % p, i)]) +
            static_cast<double>(spins[at((k + 1) % p, i)]);
        double total = delta_of(k, i) +
                       2.0 * j_perp * static_cast<double>(spins[at(k, i)]) *
                           neighbors_sum;
        if (total <= 0.0 ||
            read_rng.UniformReal(0.0, 1.0) < std::exp(-beta_slice * total)) {
          flip(k, i);
        }
      }
    }
    for (qubo::VarId i = 0; i < n; ++i) {
      double delta = 0.0;
      for (int k = 0; k < p; ++k) delta += delta_of(k, i);
      if (delta <= 0.0 ||
          read_rng.UniformReal(0.0, 1.0) < std::exp(-beta_slice * delta)) {
        for (int k = 0; k < p; ++k) flip(k, i);
      }
    }
  }
  double best_energy = std::numeric_limits<double>::infinity();
  std::vector<int8_t> best;
  for (int k = 0; k < p; ++k) {
    std::vector<int8_t> slice(spins.begin() + static_cast<ptrdiff_t>(at(k, 0)),
                              spins.begin() + static_cast<ptrdiff_t>(at(k, n)));
    double energy = ising.Energy(slice);
    if (energy < best_energy) {
      best_energy = energy;
      best = std::move(slice);
    }
  }
  return best;
}

/// A Chimera problem with chains: every qubit of a unit cell's left shore
/// is chained to its partner on the right shore by a strong ferromagnetic
/// coupler, the way an embedding ties a logical variable's qubits
/// together, over a weak random glass on the inter-cell couplers.
qubo::IsingProblem ChainedChimeraProblem(int rows, int cols, Rng* rng) {
  chimera::ChimeraGraph graph(rows, cols, 4);
  qubo::IsingProblem ising(graph.num_qubits());
  for (chimera::QubitId q = 0; q < graph.num_qubits(); ++q) {
    ising.AddField(q, rng->UniformReal(-1.0, 1.0));
    for (chimera::QubitId other : graph.Neighbors(q)) {
      if (other <= q) continue;
      // Qubit ids are cell * 8 + side * 4 + index.
      const bool same_cell = q / 8 == other / 8;
      double weight = rng->UniformReal(-1.0, 1.0);
      if (same_cell) weight = other - q == 4 ? -6.0 : 0.5 * weight;
      ising.AddCoupling(q, other, weight);
    }
  }
  return ising;
}

TEST(MetropolisAcceptTest, ScalarKernelsEqualNaiveReferenceSpinForSpin) {
  // The screen must leave kScalar's random stream and every decision
  // untouched: RunSweeps(kScalar) and the SQA kScalar sampler equal the
  // unscreened loops over 20 seeds, on a 512-spin glass and on a chained
  // Chimera problem (whose chain couplers make large beta·delta common).
  Rng build_rng(61);
  qubo::IsingProblem glass = ChimeraGlass(8, 8, &build_rng);
  qubo::IsingProblem chained = ChainedChimeraProblem(4, 4, &build_rng);
  for (qubo::IsingProblem* ising : {&glass, &chained}) {
    ising->Finalize();
    auto [hot, cold] = SuggestBetaRange(*ising);
    const Schedule beta{hot, cold, ScheduleShape::kGeometric};
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      std::vector<int8_t> spins(static_cast<size_t>(ising->num_spins()));
      Rng init(seed);
      RandomSpins(&init, &spins);
      std::vector<int8_t> reference(spins);
      Rng kernel_rng(seed * 7919), naive_rng(seed * 7919);
      RunSweeps(*ising, nullptr, beta, 64, SweepKernel::kScalar, &kernel_rng,
                &spins);
      NaiveScalarSweeps(*ising, beta, 64, &naive_rng, &reference);
      EXPECT_EQ(spins, reference) << "SA seed " << seed;
      EXPECT_EQ(kernel_rng.Next(), naive_rng.Next())
          << "SA seed " << seed << ": streams diverged";

      SqaOptions options;
      options.num_reads = 1;
      options.num_slices = 4;
      options.sweeps = 24;
      options.seed = seed;
      SampleSet samples = SimulatedQuantumAnnealer(options).SampleIsing(*ising);
      ASSERT_EQ(samples.samples().size(), 1u);
      EXPECT_EQ(samples.samples()[0].assignment.ToSpins(),
                NaiveSqaRead(*ising, options, 0))
          << "SQA seed " << seed;
    }
  }
}

// --------------------------------------------------------------------
// Initialization contracts
// --------------------------------------------------------------------

TEST(RandomSpinsTest, BatchedSequenceIsPinned) {
  // The checkerboard kernels' seed contract: 64 spins bit-unpacked per
  // Rng::Next draw. This literal sequence (seed 42) must never change
  // without bumping the documented contract in sweep_kernel.h.
  const int8_t kExpected[80] = {
      1,  -1, -1, 1,  1,  1,  1,  1,  1,  1,  1,  -1, -1, 1,  -1, 1,
      1,  1,  -1, 1,  -1, 1,  1,  -1, 1,  -1, 1,  -1, 1,  -1, 1,  -1,
      -1, -1, -1, -1, -1, 1,  1,  -1, 1,  1,  -1, 1,  -1, -1, -1, 1,
      1,  -1, -1, -1, -1, -1, 1,  1,  1,  1,  -1, -1, -1, 1,  -1, -1,
      1,  -1, 1,  -1, -1, 1,  -1, -1, 1,  1,  -1, -1, 1,  1,  1,  1};
  std::vector<int8_t> spins(80);
  Rng rng(42);
  RandomSpinsBatched(&rng, &spins);
  for (int i = 0; i < 80; ++i) {
    EXPECT_EQ(spins[i], kExpected[i]) << "at index " << i;
  }
}

TEST(RandomSpinsTest, BatchedMatchesWordBitUnpack) {
  // The batched draw consumes exactly ceil(n / 64) Next() calls and maps
  // bit b of each word to spin 64*word + b.
  std::vector<int8_t> spins(130);
  Rng rng(9);
  RandomSpinsBatched(&rng, &spins);
  Rng replay(9);
  for (size_t base = 0; base < spins.size(); base += 64) {
    uint64_t word = replay.Next();
    for (size_t bit = 0; bit < 64 && base + bit < spins.size(); ++bit) {
      EXPECT_EQ(spins[base + bit], (word >> bit) & 1 ? 1 : -1);
    }
  }
}

TEST(RandomSpinsTest, ScalarKernelKeepsLegacyBernoulliStream) {
  // InitSpins(kScalar) must stay on the legacy one-Bernoulli-per-spin
  // stream — that is the bit-exactness contract of the default path.
  std::vector<int8_t> via_init(50), via_legacy(50);
  Rng a(7), b(7);
  InitSpins(SweepKernel::kScalar, &a, &via_init);
  for (auto& s : via_legacy) s = b.Bernoulli(0.5) ? 1 : -1;
  EXPECT_EQ(via_init, via_legacy);
}

// --------------------------------------------------------------------
// Field-update equivalence on a frozen spin trajectory
// --------------------------------------------------------------------

TEST(CheckerboardTest, IntraClassFlipsLeaveMemberDeltasFrozen) {
  // The invariant the checkerboard sweep rests on: flipping any subset of
  // one color class never changes another member's flip delta, so deciding
  // the whole class against pre-pass fields equals deciding sequentially.
  Rng rng(11);
  qubo::IsingProblem glass = ChimeraGlass(2, 3, &rng);
  glass.Finalize();
  qubo::Coloring coloring = qubo::ColorGraph(glass.csr());
  ASSERT_EQ(coloring.num_colors, 2);
  for (int c = 0; c < coloring.num_colors; ++c) {
    std::vector<int8_t> spins(static_cast<size_t>(glass.num_spins()));
    RandomSpinsBatched(&rng, &spins);
    // Frozen trajectory: pre-pass deltas of every member.
    std::vector<double> frozen(static_cast<size_t>(coloring.class_size(c)));
    for (int k = 0; k < coloring.class_size(c); ++k) {
      frozen[static_cast<size_t>(k)] =
          glass.FlipDelta(spins, coloring.class_begin(c)[k]);
    }
    // Flip an arbitrary half of the class, then re-evaluate the rest.
    double flipped_delta_sum = 0.0;
    for (int k = 0; k < coloring.class_size(c); k += 2) {
      qubo::VarId v = coloring.class_begin(c)[k];
      flipped_delta_sum += frozen[static_cast<size_t>(k)];
      spins[static_cast<size_t>(v)] =
          static_cast<int8_t>(-spins[static_cast<size_t>(v)]);
    }
    for (int k = 1; k < coloring.class_size(c); k += 2) {
      EXPECT_DOUBLE_EQ(
          glass.FlipDelta(spins, coloring.class_begin(c)[k]),
          frozen[static_cast<size_t>(k)]);
    }
    // And the summed frozen deltas are exactly the realized energy change
    // — the fields scattered by the apply phase stay consistent.
    std::vector<int8_t> original(spins);
    for (int k = 0; k < coloring.class_size(c); k += 2) {
      qubo::VarId v = coloring.class_begin(c)[k];
      original[static_cast<size_t>(v)] =
          static_cast<int8_t>(-original[static_cast<size_t>(v)]);
    }
    EXPECT_NEAR(glass.Energy(spins) - glass.Energy(original),
                flipped_delta_sum, 1e-9);
  }
}

TEST(CheckerboardTest, ZeroBetaSweepFlipsEverySpinLikeScalar) {
  // At beta == 0 every proposal is accepted (u < exp(0) = 1 for u in
  // [0, 1)), so one sweep of *any* kernel negates the state — a frozen
  // trajectory on which scalar and checkerboard field updates must agree
  // exactly despite their different orders and random streams.
  Rng rng(13);
  qubo::IsingProblem glass = ChimeraGlass(3, 3, &rng);
  glass.Finalize();
  SweepPlan plan(glass);
  Schedule zero_beta{0.0, 0.0, ScheduleShape::kLinear};
  for (SweepKernel kernel :
       {SweepKernel::kScalar, SweepKernel::kCheckerboard,
        SweepKernel::kCheckerboardFast}) {
    for (int sweeps : {1, 3}) {
      std::vector<int8_t> spins(static_cast<size_t>(glass.num_spins()));
      Rng read_rng(99);
      RandomSpinsBatched(&read_rng, &spins);
      std::vector<int8_t> initial(spins);
      RunSweeps(glass, &plan, zero_beta, sweeps, kernel, &read_rng, &spins);
      for (size_t i = 0; i < spins.size(); ++i) {
        EXPECT_EQ(spins[i], sweeps % 2 == 0 ? initial[i] : -initial[i])
            << SweepKernelName(kernel) << " sweeps=" << sweeps
            << " spin " << i;
      }
    }
  }
}

// --------------------------------------------------------------------
// Determinism across thread counts
// --------------------------------------------------------------------

bool SameSamples(const SampleSet& a, const SampleSet& b) {
  if (a.total_reads() != b.total_reads()) return false;
  if (a.samples().size() != b.samples().size()) return false;
  for (size_t i = 0; i < a.samples().size(); ++i) {
    if (a.samples()[i].assignment != b.samples()[i].assignment) return false;
    if (a.samples()[i].energy != b.samples()[i].energy) return false;
    if (a.samples()[i].num_occurrences != b.samples()[i].num_occurrences) {
      return false;
    }
  }
  return true;
}

TEST(CheckerboardTest, BitIdenticalAcrossReadAndSweepThreads) {
  Rng rng(17);
  qubo::IsingProblem glass = ChimeraGlass(3, 3, &rng);
  for (SweepKernel kernel :
       {SweepKernel::kCheckerboard, SweepKernel::kCheckerboardFast}) {
    SaOptions options;
    options.num_reads = 8;
    options.sweeps_per_read = 48;
    options.seed = 21;
    options.sweep_kernel = kernel;
    SampleSet serial = SimulatedAnnealer(options).SampleIsing(glass);
    for (int num_threads : {2, 4}) {
      SaOptions parallel = options;
      parallel.num_threads = num_threads;
      EXPECT_TRUE(
          SameSamples(serial, SimulatedAnnealer(parallel).SampleIsing(glass)))
          << SweepKernelName(kernel) << " num_threads=" << num_threads;
    }
    for (int sweep_threads : {0, 2, 3}) {
      SaOptions fanned = options;
      fanned.sweep_threads = sweep_threads;
      EXPECT_TRUE(
          SameSamples(serial, SimulatedAnnealer(fanned).SampleIsing(glass)))
          << SweepKernelName(kernel) << " sweep_threads=" << sweep_threads;
    }
  }
}

// --------------------------------------------------------------------
// Energy-quality parity on a 512-spin glass
// --------------------------------------------------------------------

TEST(SweepKernelTest, KernelsReachParityOn512SpinGlass) {
  Rng rng(23);
  qubo::IsingProblem glass = ChimeraGlass(8, 8, &rng);  // 512 spins
  ASSERT_EQ(glass.num_spins(), 512);
  double best[3] = {0, 0, 0};
  int index = 0;
  for (SweepKernel kernel :
       {SweepKernel::kScalar, SweepKernel::kCheckerboard,
        SweepKernel::kCheckerboardFast}) {
    SaOptions options;
    options.num_reads = 24;
    options.sweeps_per_read = 256;
    options.seed = 5;
    options.sweep_kernel = kernel;
    SampleSet samples = SimulatedAnnealer(options).SampleIsing(glass);
    ASSERT_FALSE(samples.empty());
    best[index++] = samples.best().energy;
    // Reported energies are exact re-evaluations under every kernel.
    for (const Sample& sample : samples.samples()) {
      EXPECT_NEAR(glass.Energy(sample.assignment.ToSpins()), sample.energy,
                  1e-9);
    }
  }
  // All kernels sample the same Boltzmann target: best-of-24 energies
  // agree within a few percent on a glass this size.
  for (int k = 1; k < 3; ++k) {
    EXPECT_NEAR(best[k], best[0], 0.03 * std::abs(best[0]))
        << "kernel " << k << " vs scalar: " << best[k] << " vs " << best[0];
  }
}

// --------------------------------------------------------------------
// SQA kernels
// --------------------------------------------------------------------

TEST(SqaKernelTest, AllKernelsFindGroundStateOfSmallProblem) {
  Rng rng(29);
  qubo::QuboProblem problem(8);
  for (int i = 0; i < 8; ++i) {
    problem.AddLinear(i, rng.UniformReal(-4.0, 4.0));
    for (int j = i + 1; j < 8; ++j) {
      if (rng.Bernoulli(0.5)) {
        problem.AddQuadratic(i, j, rng.UniformReal(-4.0, 4.0));
      }
    }
  }
  auto exact = qubo::SolveExhaustive(problem);
  ASSERT_TRUE(exact.ok());
  for (SweepKernel kernel :
       {SweepKernel::kScalar, SweepKernel::kCheckerboard,
        SweepKernel::kCheckerboardFast}) {
    SqaOptions options;
    options.num_reads = 12;
    options.num_slices = 8;
    options.sweeps = 128;
    options.seed = 31;
    options.sweep_kernel = kernel;
    SampleSet samples = SimulatedQuantumAnnealer(options).Sample(problem);
    ASSERT_FALSE(samples.empty());
    EXPECT_NEAR(samples.best().energy, exact->energy, 1e-9)
        << SweepKernelName(kernel);
  }
}

TEST(SqaKernelTest, CheckerboardDeterministicAcrossThreads) {
  Rng rng(37);
  qubo::IsingProblem glass = ChimeraGlass(2, 2, &rng);
  SqaOptions options;
  options.num_reads = 6;
  options.num_slices = 6;
  options.sweeps = 24;
  options.seed = 41;
  options.sweep_kernel = SweepKernel::kCheckerboardFast;
  SampleSet serial = SimulatedQuantumAnnealer(options).SampleIsing(glass);
  for (int num_threads : {2, 3}) {
    SqaOptions parallel = options;
    parallel.num_threads = num_threads;
    EXPECT_TRUE(SameSamples(
        serial, SimulatedQuantumAnnealer(parallel).SampleIsing(glass)));
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qmqo
