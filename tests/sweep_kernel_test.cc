// Tests for the sweep layer: the screened exact Metropolis test, the
// frozen SA and SQA streams against naive reference loops, the
// initialization stream, and the AVX2 and AVX-512 lanes against the
// scalar loop, spin for spin, for full and partial groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "anneal/gauge.h"
#include "anneal/schedule.h"
#include "anneal/sqa.h"
#include "anneal/sweep_kernel.h"
#include "chimera/topology.h"
#include "embedding/embedded_qubo.h"
#include "harness/paper_workload.h"
#include "mapping/logical_mapping.h"
#include "qubo/brute_force.h"
#include "qubo/csr.h"
#include "qubo/ising.h"
#include "util/cpu.h"
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

// --------------------------------------------------------------------
// MetropolisAccept: the screened exact test
// --------------------------------------------------------------------

/// The unscreened test every exact kernel ran before the screen.
bool PlainAccept(double u, double bd) { return u < std::exp(-bd); }

TEST(MetropolisAcceptTest, MatchesPlainTestOnTenMillionSeededPairs) {
  // u from the SA stream's UnitUniform, bd log-uniform over
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
  // 2 and the next double above it bracket the accept screen's range.
  for (double u : {0.0, kDenormal, 0x1.0p-64, 0.1, 0.5,
                   std::nextafter(1.0, 0.0)}) {
    for (double bd : {0.0, -0.0, kDenormal, 1e-300, 2.0,
                      std::nextafter(2.0, 3.0), 708.0, 745.2, 746.0, 1e300,
                      kInf, kNan}) {
      EXPECT_EQ(MetropolisAccept(u, bd), PlainAccept(u, bd))
          << "u = " << u << ", bd = " << bd;
    }
  }
}

TEST(MetropolisAcceptTest, OneUlpAroundTheThresholdMatchesPlainTest) {
  // u one ulp either side of exp(-bd): where the screens' margins matter.
  // Small bd makes the cubic equal e^bd to the last bit, so u·P lands on
  // 1 within rounding — a screen without its 1e-12 margin rejects some
  // of these accepts. Over [1e-8, 2] the accept screen's bound sits just
  // under exp(-bd) too, and without its margin it would accept some of
  // these rejects.
  std::vector<double> bds;
  for (int k = 0; k <= 4000; ++k) {
    bds.push_back(1e-8 * std::pow(2e8, k / 4000.0));  // [1e-8, 2]
  }
  for (double bd : {3.0, 10.0, 100.0, 700.0, 708.0, 744.0}) {
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

TEST(MetropolisAcceptTest, SureAcceptBoundStaysBelowExp) {
  // The accept screen's bound over e^{-bd}, densely over [0, 3]: at most
  // 1 - 0.999e-12 (the rounding of L7 takes almost nothing of the 1e-12
  // margin), and below the rounded std::exp(-bd) that the plain test
  // compares against.
  long double worst_ratio = 0.0L;
  constexpr int kPoints = 3'000'000;
  for (int k = 0; k <= kPoints; ++k) {
    const double bd = 3.0 * k / kPoints;
    const double bound = SureAcceptBound(bd);
    EXPECT_LT(bound, std::exp(-bd)) << "bd = " << bd;
    worst_ratio = std::max(worst_ratio, static_cast<long double>(bound) /
                                            std::exp(-static_cast<long double>(bd)));
  }
  EXPECT_LE(worst_ratio, 1.0L - 0.999e-12L);
  // The bound is tight enough to settle proposals: at bd = 2 it is
  // within 4% of e^{-2}, near 0 within 1e-11.
  EXPECT_GT(SureAcceptBound(2.0), 0.96 * std::exp(-2.0));
  EXPECT_GT(SureAcceptBound(1e-6), std::exp(-1e-6) - 1e-11);
}

/// The SA sweep as it read before the screen: ascending spin order,
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

/// The SQA sampler as it read before the screen, one read: the
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
  // The screen must leave the SA stream and every decision untouched:
  // RunSweeps and the SQA sampler equal the
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
      RunSweeps(*ising, beta, 64, &kernel_rng, &spins);
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

TEST(RandomSpinsTest, KeepsLegacyBernoulliStream) {
  // RandomSpins must stay on the legacy one-Bernoulli-per-spin stream —
  // that is part of the bit-exactness contract.
  std::vector<int8_t> via_init(50), via_legacy(50);
  Rng a(7), b(7);
  RandomSpins(&a, &via_init);
  for (auto& s : via_legacy) s = b.Bernoulli(0.5) ? 1 : -1;
  EXPECT_EQ(via_init, via_legacy);
}

TEST(SweepTest, ZeroBetaSweepFlipsEverySpin) {
  // At beta == 0 every proposal is accepted (u < exp(0) = 1 for u in
  // [0, 1)), so one sweep negates the state: the incremental field update
  // must keep every delta exact along that trajectory.
  Rng rng(13);
  qubo::IsingProblem glass = ChimeraGlass(3, 3, &rng);
  glass.Finalize();
  Schedule zero_beta{0.0, 0.0, ScheduleShape::kLinear};
  for (int sweeps : {1, 3}) {
    std::vector<int8_t> spins(static_cast<size_t>(glass.num_spins()));
    Rng read_rng(99);
    RandomSpins(&read_rng, &spins);
    std::vector<int8_t> initial(spins);
    RunSweeps(glass, zero_beta, sweeps, &read_rng, &spins);
    for (size_t i = 0; i < spins.size(); ++i) {
      EXPECT_EQ(spins[i], sweeps % 2 == 0 ? initial[i] : -initial[i])
          << "sweeps=" << sweeps << " spin " << i;
    }
  }
}

// --------------------------------------------------------------------
// SQA
// --------------------------------------------------------------------

TEST(SqaTest, FindsGroundStateOfSmallProblem) {
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
  SqaOptions options;
  options.num_reads = 12;
  options.num_slices = 8;
  options.sweeps = 128;
  options.seed = 31;
  SampleSet samples = SimulatedQuantumAnnealer(options).Sample(problem);
  ASSERT_FALSE(samples.empty());
  EXPECT_NEAR(samples.best().energy, exact->energy, 1e-9);
}

// --------------------------------------------------------------------
// The lane kernel: up to W reads in lockstep, each equal to RunSweeps
// --------------------------------------------------------------------

/// A problem given as raw arrays, so fields and weights keep exactly the
/// bits a test puts in (-0.0, inf, NaN, a coupling of exactly 0).
struct RawIsing {
  std::vector<int32_t> rows;
  std::vector<qubo::VarId> ids;
  std::vector<double> weights;
  std::vector<double> fields;

  /// Sets coupling (i, j) in both rows.
  void SetCoupling(int i, int j, double weight) {
    for (auto [row, col] : {std::pair<int, int>{i, j}, {j, i}}) {
      for (int32_t e = rows[static_cast<size_t>(row)];
           e < rows[static_cast<size_t>(row) + 1]; ++e) {
        if (ids[static_cast<size_t>(e)] == col) {
          weights[static_cast<size_t>(e)] = weight;
        }
      }
    }
  }

  qubo::IsingView view() const {
    return qubo::IsingView(
        qubo::CsrView(static_cast<int>(fields.size()), rows.data(),
                      ids.data(), weights.data()),
        fields.data());
  }
};

struct Coupling {
  int i;
  int j;
  double weight;
};

/// Symmetric CSR rows in ascending neighbor order.
RawIsing MakeRaw(std::vector<double> fields,
                 const std::vector<Coupling>& couplings) {
  const int n = static_cast<int>(fields.size());
  std::vector<std::vector<std::pair<int, double>>> adjacency(
      static_cast<size_t>(n));
  for (const Coupling& c : couplings) {
    adjacency[static_cast<size_t>(c.i)].push_back({c.j, c.weight});
    adjacency[static_cast<size_t>(c.j)].push_back({c.i, c.weight});
  }
  RawIsing raw;
  raw.fields = std::move(fields);
  raw.rows.push_back(0);
  for (auto& row : adjacency) {
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [j, w] : row) {
      raw.ids.push_back(j);
      raw.weights.push_back(w);
    }
    raw.rows.push_back(static_cast<int32_t>(raw.ids.size()));
  }
  return raw;
}

/// A random ±1-weighted ring with chords over n spins, fields from `field`.
RawIsing RingProblem(int n, double (*field)(int, Rng*), Rng* rng) {
  std::vector<double> fields;
  for (int i = 0; i < n; ++i) fields.push_back(field(i, rng));
  std::vector<Coupling> couplings;
  for (int i = 0; i < n && n > 1; ++i) {
    const int j = (i + 1) % n;
    if (j != i && !(n == 2 && i == 1)) {
      couplings.push_back({i, j, rng->UniformReal(-1.0, 1.0)});
    }
    const int chord = (i + n / 2) % n;
    if (n > 3 && i < chord) {
      couplings.push_back({i, chord, rng->UniformReal(-1.0, 1.0)});
    }
  }
  return MakeRaw(std::move(fields), couplings);
}

/// A seed-16 paper instance (2-plan queries at the capacity of an 8x8x4
/// chip),
/// mapped, embedded, converted to Ising, and gauge-transformed: the kind
/// of problem the device model programs.
qubo::IsingProblem GaugedPaperProblem() {
  chimera::ChimeraGraph chip(8, 8, 4);
  Rng rng(16);
  harness::PaperWorkloadOptions workload;
  workload.plans_per_query = 2;
  auto paper = harness::GeneratePaperInstance(chip, workload, &rng);
  EXPECT_TRUE(paper.ok()) << paper.status().ToString();
  auto mapping = mapping::LogicalMapping::Create(paper->problem);
  EXPECT_TRUE(mapping.ok());
  auto embedded = embedding::EmbeddedQubo::Create(mapping->qubo(),
                                                  paper->embedding, chip);
  EXPECT_TRUE(embedded.ok()) << embedded.status().ToString();
  qubo::IsingProblem ising = qubo::QuboToIsing(embedded->physical()).ising;
  return GaugeTransform::Random(ising.num_spins(), &rng).Apply(ising);
}

TEST(SweepGroupWidthTest, IsTheWidestLaneWidthThisCpuSupports) {
  // A CPU with the vector extension must get its lanes: a dispatch that
  // always fell back would pass every lane comparison below through the
  // scalar loop without testing the lanes.
#ifdef QMQO_AVX2_PATHS
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx512f")) {
    EXPECT_EQ(SweepGroupWidth(), kAvx512Lanes);
  } else if (__builtin_cpu_supports("avx2")) {
    EXPECT_EQ(SweepGroupWidth(), kAvx2Lanes);
  } else {
    EXPECT_EQ(SweepGroupWidth(), 1);
  }
#else
  EXPECT_EQ(SweepGroupWidth(), 1);
#endif
}

/// The lane kernel at one width (the test parameter), for groups of 1..W
/// reads; skipped, with the reason, on a CPU that lacks the width's
/// vector extension.
class LaneSweepsTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    width_ = GetParam();
#ifdef QMQO_AVX2_PATHS
    const bool wide = width_ == kAvx512Lanes;
    const bool supported = wide ? __builtin_cpu_supports("avx512f") != 0
                                : __builtin_cpu_supports("avx2") != 0;
    if (!supported) {
      GTEST_SKIP() << "this CPU lacks " << (wide ? "AVX-512F" : "AVX2")
                   << ", so the " << width_
                   << "-lane kernel never runs here; only the narrower "
                      "widths are tested";
    }
    ASSERT_GE(SweepGroupWidth(), width_);
#else
    GTEST_SKIP() << "the lane kernels are built for x86-64 only";
#endif
  }

  /// `count` reads seeded `seed`, `seed + 1`, ... through the lane kernel
  /// at this width, and one by one through `RunSweeps`: every lane must
  /// equal its scalar read spin for spin.
  void ExpectLanesEqualScalar(const qubo::IsingView& ising,
                              const Schedule& beta, int sweeps, int count,
                              uint64_t seed, const std::string& label) const {
    std::vector<Rng> lane_rngs;
    std::vector<Rng> scalar_rngs;
    std::vector<std::vector<int8_t>> lane_spins;
    for (int k = 0; k < count; ++k) {
      lane_rngs.emplace_back(seed + static_cast<uint64_t>(k));
      lane_spins.emplace_back(static_cast<size_t>(ising.num_spins()));
      RandomSpins(&lane_rngs.back(), &lane_spins.back());
      scalar_rngs.push_back(lane_rngs.back());
    }
    std::vector<std::vector<int8_t>> scalar_spins = lane_spins;
    LaneSweeps(width_, ising, beta, sweeps, count, lane_rngs.data(),
               lane_spins.data());
    for (int k = 0; k < count; ++k) {
      RunSweeps(ising, beta, sweeps, &scalar_rngs[static_cast<size_t>(k)],
                &scalar_spins[static_cast<size_t>(k)]);
      EXPECT_EQ(lane_spins[static_cast<size_t>(k)],
                scalar_spins[static_cast<size_t>(k)])
          << label << ", width " << width_ << ", " << count
          << " reads, seed " << seed << ", lane " << k;
    }
  }

  int width_ = 0;
};

TEST_P(LaneSweepsTest, GaugedPaperProblemAndGlassEqualScalar) {
  Rng build_rng(71);
  qubo::IsingProblem paper = GaugedPaperProblem();
  qubo::IsingProblem glass = ChimeraGlass(8, 8, &build_rng);
  qubo::IsingProblem chained = ChainedChimeraProblem(4, 4, &build_rng);
  ASSERT_GT(paper.num_spins(), 100);
  for (qubo::IsingProblem* ising : {&paper, &glass, &chained}) {
    const qubo::IsingView view(*ising);
    auto [hot, cold] = SuggestBetaRange(view);
    const Schedule beta{hot, cold, ScheduleShape::kGeometric};
    const std::string label = std::to_string(ising->num_spins()) + " spins";
    // Full groups over several seeds, then every partial group once.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      ExpectLanesEqualScalar(view, beta, 96, width_, seed * 1000, label);
    }
    for (int count = 1; count < width_; ++count) {
      ExpectLanesEqualScalar(view, beta, 96, count,
                             7000 + static_cast<uint64_t>(count), label);
    }
  }
}

TEST_P(LaneSweepsTest, SignedZerosInfAndNanEqualScalar) {
  Rng rng(73);
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const Schedule beta{0.2, 4.0, ScheduleShape::kGeometric};
  std::vector<std::pair<std::string, RawIsing>> cases;
  cases.push_back({"+-0 fields", RingProblem(24, [](int i, Rng* r) {
                     return i % 3 == 0 ? 0.0
                                       : i % 3 == 1 ? -0.0
                                                    : r->UniformReal(-1, 1);
                   }, &rng)});
  cases.push_back({"all-zero fields",
                   RingProblem(24, [](int, Rng*) { return 0.0; }, &rng)});
  RawIsing inf_coupling = RingProblem(
      20, [](int, Rng* r) { return r->UniformReal(-1, 1); }, &rng);
  inf_coupling.SetCoupling(4, 5, kInf);
  cases.push_back({"inf coupling", inf_coupling});
  // Two inf couplings from spin 4 to later spins: a lane whose spins 5
  // and 14 disagree has a NaN field at 4 (so 4 does not flip there) while
  // its fields at 5 and 14 stay ±inf. When another lane flips 4, the
  // masked add must leave those fields as they are; multiplying the
  // change by 0 would make them NaN.
  inf_coupling.SetCoupling(4, 14, kInf);
  cases.push_back({"two inf couplings", inf_coupling});
  RawIsing nan_field = RingProblem(
      20, [](int, Rng* r) { return r->UniformReal(-1, 1); }, &rng);
  nan_field.fields[7] = kNan;
  cases.push_back({"NaN field", nan_field});
  RawIsing zero_coupling = RingProblem(
      20, [](int, Rng* r) { return r->UniformReal(-1, 1); }, &rng);
  zero_coupling.SetCoupling(2, 3, 0.0);  // programmed to exactly 0
  zero_coupling.SetCoupling(8, 18, -0.0);
  cases.push_back({"zero couplings", zero_coupling});
  cases.push_back({"one spin", MakeRaw({0.3}, {})});
  cases.push_back({"one zero-field spin", MakeRaw({-0.0}, {})});
  for (const auto& [label, raw] : cases) {
    for (int sweeps : {0, 1, 2, 40}) {
      for (int count = 1; count <= width_; ++count) {
        for (uint64_t seed = 1; seed <= 2; ++seed) {
          ExpectLanesEqualScalar(raw.view(), beta, sweeps, count,
                                 seed * 100 + static_cast<uint64_t>(count),
                                 label + ", " + std::to_string(sweeps) +
                                     " sweeps");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, LaneSweepsTest,
                         ::testing::Values(kAvx2Lanes, kAvx512Lanes),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "Lanes";
                         });

TEST(RunSweepGroupTest, SplitsIntoMaskedGroupsLikeScalar) {
  // Through the dispatch, at this CPU's width: full groups, a partial
  // last group, and counts above one group all equal the scalar loop.
  Rng build_rng(79);
  qubo::IsingProblem glass = ChimeraGlass(4, 4, &build_rng);
  const qubo::IsingView view(glass);
  auto [hot, cold] = SuggestBetaRange(view);
  const Schedule beta{hot, cold, ScheduleShape::kGeometric};
  const int width = SweepGroupWidth();
  for (int count : {1, 3, width, width + 3, 2 * width}) {
    std::vector<Rng> group_rngs;
    std::vector<std::vector<int8_t>> group_spins;
    for (int k = 0; k < count; ++k) {
      group_rngs.emplace_back(500 + static_cast<uint64_t>(k));
      group_spins.emplace_back(static_cast<size_t>(glass.num_spins()));
      RandomSpins(&group_rngs.back(), &group_spins.back());
    }
    std::vector<Rng> scalar_rngs = group_rngs;
    std::vector<std::vector<int8_t>> scalar_spins = group_spins;
    RunSweepGroup(view, beta, 32, count, group_rngs.data(),
                  group_spins.data());
    for (int k = 0; k < count; ++k) {
      const size_t slot = static_cast<size_t>(k);
      RunSweeps(view, beta, 32, &scalar_rngs[slot], &scalar_spins[slot]);
      EXPECT_EQ(group_spins[slot], scalar_spins[slot])
          << "group of " << count << ", read " << k;
    }
  }
}

TEST(RunSweepGroupTest, EmptyGroupRunsNothing) {
  // A group whose reads were all dropped skips the kernel: the problem
  // has no arrays behind it, and no stream or spin vector exists, so any
  // work on them would crash.
  const qubo::IsingView absent(
      qubo::CsrView(1000, nullptr, nullptr, nullptr), nullptr);
  RunSweepGroup(absent, Schedule{0.1, 3.0, ScheduleShape::kGeometric}, 8, 0,
                nullptr, nullptr);
}

}  // namespace
}  // namespace anneal
}  // namespace qmqo
