// Golden determinism fixtures: committed JSON snapshots of the SampleSets
// that SA, SQA, and the device simulator produce at fixed seeds — energies
// (as exact IEEE-754 bit patterns), occurrence counts, and the packed
// assignment words. Each snapshot is asserted
// byte-stable across 1/2/4 worker threads and against the committed file,
// so future refactors of the samplers, the parallel read engine, or the
// SampleSet representation diff against committed truth instead of
// re-deriving "serial equals parallel" from scratch.
//
// Regenerating (only when an intentional stream/contract change lands):
//   QMQO_UPDATE_GOLDEN=1 ./golden_determinism_test
// then commit the rewritten files under tests/golden/ and call the change
// out in the PR description — a golden diff IS a results change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "anneal/dwave_simulator.h"
#include "anneal/sample_set.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "harness/resilient_solver.h"
#include "util/fault.h"
#include "util/rng.h"
#include "workloads/coloring.h"
#include "workloads/max_clique.h"
#include "workloads/max_cut.h"
#include "workloads/workload.h"

#ifndef QMQO_GOLDEN_DIR
#define QMQO_GOLDEN_DIR "tests/golden"
#endif

namespace qmqo {
namespace anneal {
namespace {

/// The shared fixture problem: a fixed 16-variable random QUBO. Small
/// enough that every engine finishes in milliseconds, dense enough that
/// duplicate assignments exercise the dedup-merge path.
qubo::QuboProblem FixtureProblem() {
  Rng rng(20260729);
  qubo::QuboProblem problem(16);
  for (int i = 0; i < 16; ++i) {
    problem.AddLinear(i, rng.UniformReal(-4.0, 4.0));
    for (int j = i + 1; j < 16; ++j) {
      if (rng.Bernoulli(0.5)) {
        problem.AddQuadratic(i, j, rng.UniformReal(-4.0, 4.0));
      }
    }
  }
  return problem;
}

std::string HexU64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Canonical byte-stable serialization: energies as IEEE-754 bit patterns
/// (the readable decimal rendering rides along for humans), counts, and
/// the packed assignment words. One sample per line for reviewable diffs.
std::string Serialize(const std::string& engine, const std::string& kernel,
                      const SampleSet& set) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"engine\": \"" << engine << "\",\n";
  out << "  \"kernel\": \"" << kernel << "\",\n";
  out << "  \"num_bits\": " << set.assignments().num_bits() << ",\n";
  out << "  \"total_reads\": " << set.total_reads() << ",\n";
  out << "  \"samples\": [";
  for (size_t i = 0; i < set.samples().size(); ++i) {
    const Sample sample = set.samples()[i];
    uint64_t energy_bits;
    static_assert(sizeof(energy_bits) == sizeof(sample.energy), "");
    std::memcpy(&energy_bits, &sample.energy, sizeof(energy_bits));
    char energy_text[64];
    std::snprintf(energy_text, sizeof(energy_text), "%.17g", sample.energy);
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"energy_hex\": \"" << HexU64(energy_bits)
        << "\", \"energy\": \"" << energy_text
        << "\", \"count\": " << sample.num_occurrences << ", \"words\": [";
    const AssignmentRef ref = sample.assignment;
    for (int w = 0; w < ref.num_words(); ++w) {
      out << (w == 0 ? "" : ", ") << "\"" << HexU64(ref.words()[w]) << "\"";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

/// Compares `serialized` against the committed fixture (or rewrites it
/// under QMQO_UPDATE_GOLDEN=1).
void CheckGolden(const std::string& name, const std::string& serialized) {
  const std::string path = std::string(QMQO_GOLDEN_DIR) + "/" + name + ".json";
  if (std::getenv("QMQO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << serialized;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — run with QMQO_UPDATE_GOLDEN=1 to generate it";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), serialized)
      << name << ": results diverged from the committed fixture. If the "
      << "change is intentional, regenerate with QMQO_UPDATE_GOLDEN=1 and "
      << "call the golden diff out in the PR.";
}

constexpr int kThreadCounts[] = {1, 2, 4};

TEST(GoldenDeterminismTest, SimulatedAnnealerSnapshots) {
  qubo::QuboProblem problem = FixtureProblem();
  std::string reference;
  for (int threads : kThreadCounts) {
    SaOptions options;
    options.num_reads = 12;
    options.sweeps_per_read = 48;
    options.seed = 7;
    options.num_threads = threads;
    const std::string serialized =
        Serialize("sa", "scalar",
                  SimulatedAnnealer(options).Sample(problem));
    if (threads == 1) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference)
          << "sa/scalar at " << threads
          << " threads diverged from serial";
    }
  }
  CheckGolden("sa_scalar", reference);
}

TEST(GoldenDeterminismTest, SqaSnapshots) {
  qubo::QuboProblem problem = FixtureProblem();
  std::string reference;
  for (int threads : kThreadCounts) {
    SqaOptions options;
    options.num_reads = 6;
    options.num_slices = 4;
    options.sweeps = 24;
    options.seed = 9;
    options.num_threads = threads;
    const std::string serialized =
        Serialize("sqa", "scalar",
                  SimulatedQuantumAnnealer(options).Sample(problem));
    if (threads == 1) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference)
          << "sqa/scalar at " << threads
          << " threads diverged from serial";
    }
  }
  CheckGolden("sqa_scalar", reference);
}

TEST(GoldenDeterminismTest, DeviceSnapshots) {
  qubo::QuboProblem problem = FixtureProblem();
  std::string reference;
  for (int threads : kThreadCounts) {
    DWaveOptions options;
    options.num_reads = 12;
    options.num_gauges = 3;
    options.sa_sweeps = 24;
    options.seed = 11;
    options.num_threads = threads;
    auto result = DWaveSimulator(options).Sample(problem);
    ASSERT_TRUE(result.ok());
    const std::string serialized =
        Serialize("device", "scalar", result->samples);
    if (threads == 1) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference)
          << "device/scalar at " << threads
          << " threads diverged from serial";
    }
  }
  CheckGolden("device_scalar", reference);
}

/// `Serialize` plus a device call's dropout count and chronological
/// `raw_reads`, one read's packed words per line.
std::string SerializeDevice(const std::string& engine,
                            const DeviceResult& result) {
  std::string samples = Serialize(engine, "scalar", result.samples);
  samples.resize(samples.size() - 3);  // reopen the object: drop "\n}\n"
  std::ostringstream out;
  out << samples << ",\n";
  out << "  \"dropped_reads\": " << result.dropped_reads << ",\n";
  out << "  \"raw_reads\": [";
  int index = 0;
  for (const AssignmentRef read : result.raw_reads) {
    out << (index++ == 0 ? "\n" : ",\n") << "    [";
    for (int w = 0; w < read.num_words(); ++w) {
      out << (w == 0 ? "" : ", ") << "\"" << HexU64(read.words()[w]) << "\"";
    }
    out << "]";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

/// Device calls whose gauges hold 1, 2 and 3 (mod 4) reads, so a sweep
/// that runs a gauge's reads in groups of four always leaves a tail:
/// 13 reads over 3 gauges (4/4/5), 10 reads on one gauge, and 23 over 3
/// (7/7/9). Every read is recorded, and read dropout is armed, so a
/// dropped read inside a group is covered too.
TEST(GoldenDeterminismTest, DeviceTailSnapshots) {
  qubo::QuboProblem problem = FixtureProblem();
  struct Shape {
    int reads;
    int gauges;
  };
  for (const Shape shape : {Shape{13, 3}, Shape{10, 1}, Shape{23, 3}}) {
    const std::string name = "device_tail_" + std::to_string(shape.reads) +
                             "x" + std::to_string(shape.gauges);
    std::string reference;
    for (int threads : kThreadCounts) {
      util::FaultInjector faults(17);
      util::FaultSpec dropout;
      dropout.probability = 0.15;
      faults.Arm("device.read_dropout", dropout);
      DWaveOptions options;
      options.num_reads = shape.reads;
      options.num_gauges = shape.gauges;
      options.sa_sweeps = 24;
      options.seed = 19;
      options.record_reads = true;
      options.faults = &faults;
      options.num_threads = threads;
      auto result = DWaveSimulator(options).Sample(problem);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::string serialized = SerializeDevice(name, *result);
      if (threads == 1) {
        reference = serialized;
      } else {
        EXPECT_EQ(serialized, reference)
            << name << " at " << threads << " threads diverged from serial";
      }
    }
    CheckGolden(name, reference);
  }
}

/// SA with 7 reads: one group of four and a tail of three.
TEST(GoldenDeterminismTest, SaTailSnapshot) {
  qubo::QuboProblem problem = FixtureProblem();
  std::string reference;
  for (int threads : kThreadCounts) {
    SaOptions options;
    options.num_reads = 7;
    options.sweeps_per_read = 40;
    options.seed = 23;
    options.num_threads = threads;
    const std::string serialized = Serialize(
        "sa_tail", "scalar", SimulatedAnnealer(options).Sample(problem));
    if (threads == 1) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference)
          << "sa_tail at " << threads << " threads diverged from serial";
    }
  }
  CheckGolden("sa_tail_scalar", reference);
}

/// The capped (streaming top-k) SA result is part of the frozen contract
/// too: top-k membership, energies, counts at any thread count.
TEST(GoldenDeterminismTest, CappedSaSnapshot) {
  qubo::QuboProblem problem = FixtureProblem();
  std::string reference;
  for (int threads : kThreadCounts) {
    SaOptions options;
    options.num_reads = 24;
    options.sweeps_per_read = 32;
    options.seed = 13;
    options.max_samples = 5;
    options.num_threads = threads;
    const std::string serialized =
        Serialize("sa_capped", "scalar",
                  SimulatedAnnealer(options).Sample(problem));
    if (threads == 1) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference)
          << "sa_capped at " << threads << " threads diverged from serial";
    }
  }
  CheckGolden("sa_capped_scalar", reference);
}

/// One fixed instance per workload kind, solved through the resilient
/// ladder's bare-QUBO path (`SolveQubo`: SQA answers, device rung gated,
/// deterministic descent refinement). The snapshot freezes the winning
/// assignment bits, the energy's IEEE-754 pattern, and the decoded domain
/// labels — asserted byte-stable at 1/2/4 threads and against the
/// committed fixture. Fixed seeds, NOT QMQO_CHAOS_SEED: goldens are
/// committed files, chaos variation lives in workloads_test.
TEST(GoldenDeterminismTest, WorkloadSolveSnapshots) {
  struct Fixture {
    std::string name;
    std::shared_ptr<workloads::Workload> workload;
  };
  std::vector<Fixture> fixtures;
  {
    auto clique = workloads::MaxCliqueWorkload::MakePlanted(
        /*num_nodes=*/20, /*clique_size=*/5, /*edge_prob=*/0.35,
        /*seed=*/20260801);
    ASSERT_TRUE(clique.ok()) << clique.status().ToString();
    fixtures.push_back({"workload_max_clique", *clique});
    auto cut_instance =
        workloads::PlantedCutGraph(/*num_nodes=*/18, /*edge_prob=*/0.45,
                                   /*max_weight=*/3.0, /*seed=*/20260802);
    ASSERT_TRUE(cut_instance.ok());
    auto cut = workloads::MaxCutWorkload::Create(
        cut_instance->graph, cut_instance->graph.total_weight());
    ASSERT_TRUE(cut.ok());
    fixtures.push_back({"workload_max_cut", *cut});
    auto coloring = workloads::ColoringWorkload::MakePlanted(
        /*num_nodes=*/15, /*num_colors=*/3, /*edge_prob=*/0.4,
        /*seed=*/20260803);
    ASSERT_TRUE(coloring.ok());
    fixtures.push_back({"workload_coloring", *coloring});
  }
  harness::SolvePolicy policy;
  policy.seed = 20260804;
  policy.max_attempts_per_backend = 1;
  policy.sqa_reads = 8;
  policy.sqa_slices = 6;
  policy.sqa_sweeps = 64;
  policy.sa_reads = 16;
  policy.sa_sweeps = 128;
  harness::ResilientSolver solver(policy);
  for (const Fixture& fixture : fixtures) {
    std::string reference;
    for (int threads : kThreadCounts) {
      harness::QuantumMqoOptions options;
      options.device.num_threads = threads;
      harness::SolveReport report =
          solver.SolveQubo(fixture.workload->qubo(), options);
      ASSERT_TRUE(report.ok) << fixture.name << ": "
                             << report.FailureChain();
      const workloads::WorkloadSolution decoded =
          fixture.workload->Decode(report.qubo_assignment);
      uint64_t energy_bits;
      static_assert(sizeof(energy_bits) == sizeof(report.qubo_energy), "");
      std::memcpy(&energy_bits, &report.qubo_energy, sizeof(energy_bits));
      char energy_text[64];
      std::snprintf(energy_text, sizeof(energy_text), "%.17g",
                    report.qubo_energy);
      std::ostringstream out;
      out << "{\n";
      out << "  \"workload\": \"" << fixture.name << "\",\n";
      out << "  \"backend\": \""
          << harness::SolveBackendName(report.backend) << "\",\n";
      out << "  \"energy_hex\": \"" << HexU64(energy_bits) << "\",\n";
      out << "  \"energy\": \"" << energy_text << "\",\n";
      out << "  \"objective\": " << decoded.objective << ",\n";
      out << "  \"feasible\": " << (decoded.feasible ? "true" : "false")
          << ",\n";
      out << "  \"assignment\": \"";
      for (uint8_t bit : report.qubo_assignment) out << (bit ? '1' : '0');
      out << "\",\n  \"labels\": [";
      for (size_t i = 0; i < decoded.labels.size(); ++i) {
        out << (i == 0 ? "" : ", ") << decoded.labels[i];
      }
      out << "]\n}\n";
      if (threads == 1) {
        reference = out.str();
      } else {
        EXPECT_EQ(out.str(), reference)
            << fixture.name << " at " << threads
            << " threads diverged from serial";
      }
    }
    CheckGolden(fixture.name, reference);
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qmqo
