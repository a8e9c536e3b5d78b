// Annealing-engine benchmark: read throughput of the SA kernel, the SQA
// path-integral kernel, and a full device call on a 2048-spin
// Chimera-structured spin glass (16x16 cells, shore 4 — one size up from
// the paper's 1152-qubit D-Wave 2X, exercising the same degree-6 sparsity).
//
// For each engine the serial path (1 thread) is compared against parallel
// read fan-out; the benchmark *fails* (exit 1) unless the parallel sample
// sets are bit-identical to serial. Results go to BENCH_annealer.json
// (sweeps*spins/sec, wall time, thread count, the lanes' path, width and
// speedup over the scalar loop, the uniform stream's ns per draw) so the
// perf trajectory is machine-trackable across PRs.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "anneal/dwave_simulator.h"
#include "anneal/sample_set.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "anneal/sweep_kernel.h"
#include "bench_common.h"
#include "chimera/topology.h"
#include "harness/paper_workload.h"
#include "harness/resilient_solver.h"
#include "obs/trace.h"
#include "qubo/ising.h"
#include "util/cpu.h"
#include "util/executor.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace qmqo;

/// A random spin glass on the full 16x16x4 Chimera graph: couplings on
/// every coupler, fields on every qubit.
qubo::IsingProblem MakeChimeraGlass(Rng* rng) {
  chimera::ChimeraGraph graph(16, 16, 4);
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

bool Identical(const anneal::SampleSet& a, const anneal::SampleSet& b) {
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

struct RunResult {
  anneal::SampleSet samples;
  double wall_ms = 0.0;
};

/// One benchmark block: runs `run(threads)` for each thread count, checks
/// the parallel results against the 1-thread baseline, records rows.
template <typename Runner>
bool BenchEngine(const std::string& engine, const std::string& kernel,
                 const std::vector<int>& threads, double sweep_spins_per_run,
                 bench::JsonArray* rows, const Runner& run,
                 RunResult* serial_out = nullptr) {
  bool all_identical = true;
  RunResult serial;
  for (int t : threads) {
    RunResult result = run(t);
    bool identical = true;
    if (t == 1) {
      serial = result;
    } else {
      identical = Identical(serial.samples, result.samples);
      all_identical = all_identical && identical;
    }
    double throughput = sweep_spins_per_run / (result.wall_ms / 1000.0);
    bench::JsonObject row;
    row.Add("engine", engine)
        .Add("kernel", kernel)
        .Add("threads", t)
        .Add("wall_ms", result.wall_ms)
        .Add("sweep_spins_per_sec", throughput)
        .Add("best_energy", result.samples.best().energy)
        .Add("identical_to_serial", identical);
    rows->Add(row);
    std::printf(
        "%-20s threads=%2d  wall=%9.1f ms  sweeps*spins/s=%.3e  best=%.4f%s\n",
        engine.c_str(), t, result.wall_ms, throughput,
        result.samples.best().energy, identical ? "" : "  MISMATCH");
  }
  if (serial_out != nullptr) *serial_out = serial;
  return all_identical;
}

}  // namespace

int main() {
  const bool full = bench::FullScale();
  Rng instance_rng(2048);
  qubo::IsingProblem glass = MakeChimeraGlass(&instance_rng);
  glass.Finalize();
  const int n = glass.num_spins();
  const int num_couplings = static_cast<int>(glass.couplings().size());
  std::printf("instance: %d-spin Chimera(16x16x4) glass, %d couplings\n", n,
              num_couplings);

  const std::vector<int> threads = {1, 2, 4, 8};
  bench::JsonArray rows;
  bool all_identical = true;

  // One worker pool for the whole bench, sized to the largest thread
  // count: every engine run below enqueues on it, so after this line the
  // process-wide spawn counter must not move — the reuse gate at the
  // bottom fails the bench if any run spawned threads of its own.
  qmqo::util::Executor pool(8);
  const int64_t workers_spawned_baseline =
      qmqo::util::Executor::TotalWorkersSpawned();

  // --- SA: the acceptance-criteria engine. ---
  anneal::SaOptions sa;
  sa.num_reads = full ? 256 : 48;
  sa.sweeps_per_read = 256;
  sa.seed = 7;
  sa.executor = &pool;
  const double sa_sweep_spins =
      static_cast<double>(sa.num_reads) * sa.sweeps_per_read * n;
  RunResult sa_serial;
  all_identical &= BenchEngine(
      "sa", "scalar", threads, sa_sweep_spins, &rows,
      [&](int t) {
        anneal::SaOptions options = sa;
        options.num_threads = t;
        Stopwatch clock;
        RunResult result;
        result.samples = anneal::SimulatedAnnealer(options).SampleIsing(glass);
        result.wall_ms = clock.ElapsedMillis();
        return result;
      },
      &sa_serial);

  // --- The lane kernel alone: one read per lane of a vector of doubles
  // (eight per AVX-512 vector, four per AVX2 vector), on the same glass,
  // against the same reads run one by one through the scalar loop. The
  // read count is not a multiple of the width, so the last group runs
  // with lanes masked off. Report-only (the baseline has no row for it):
  // the bit-identity tests are its gate, and this row fails the bench only
  // when a lane's spins differ from its scalar read. ---
  const int lane_width = anneal::SweepGroupWidth();
  const std::string lane_path = lane_width == anneal::kAvx512Lanes ? "avx512"
                                : lane_width == anneal::kAvx2Lanes ? "avx2"
                                                                   : "scalar";
  const int lane_reads = (full ? 64 : 16) + 3;
  const qubo::IsingView glass_view(glass);
  auto [lane_hot, lane_cold] = anneal::SuggestBetaRange(glass_view);
  const anneal::Schedule lane_beta{lane_hot, lane_cold,
                                   anneal::ScheduleShape::kGeometric};
  auto run_lane_reads = [&](bool lanes, std::vector<std::vector<int8_t>>* out) {
    std::vector<Rng> rngs;
    out->assign(static_cast<size_t>(lane_reads),
                std::vector<int8_t>(static_cast<size_t>(n)));
    for (int k = 0; k < lane_reads; ++k) {
      rngs.emplace_back(static_cast<uint64_t>(k) + 1);
      anneal::RandomSpins(&rngs.back(), &(*out)[static_cast<size_t>(k)]);
    }
    Stopwatch clock;
    if (lanes) {
      anneal::RunSweepGroup(glass_view, lane_beta, sa.sweeps_per_read,
                            lane_reads, rngs.data(), out->data());
    } else {
      for (int k = 0; k < lane_reads; ++k) {
        anneal::RunSweeps(glass_view, lane_beta, sa.sweeps_per_read,
                          &rngs[static_cast<size_t>(k)],
                          &(*out)[static_cast<size_t>(k)]);
      }
    }
    return clock.ElapsedMillis();
  };
  std::vector<std::vector<int8_t>> scalar_reads, lane_reads_out;
  const double scalar_reads_ms = run_lane_reads(false, &scalar_reads);
  const double lane_reads_ms = run_lane_reads(true, &lane_reads_out);
  const bool lanes_identical = lane_reads_out == scalar_reads;
  all_identical &= lanes_identical;
  const double lane_sweep_spins =
      static_cast<double>(lane_reads) * sa.sweeps_per_read * n;
  const double lane_speedup = scalar_reads_ms / lane_reads_ms;
  {
    bench::JsonObject row;
    row.Add("engine", "sa_lanes")
        .Add("kernel", lane_path)
        .Add("lanes", lane_width)
        .Add("threads", 1)
        .Add("wall_ms", lane_reads_ms)
        .Add("sweep_spins_per_sec", lane_sweep_spins / (lane_reads_ms / 1000.0))
        .Add("identical_to_serial", lanes_identical);
    rows.Add(row);
  }
  std::printf(
      "%-20s threads= 1  wall=%9.1f ms  sweeps*spins/s=%.3e  path=%s x%d  "
      "%.2fx the scalar loop%s\n",
      "sa_lanes", lane_reads_ms, lane_sweep_spins / (lane_reads_ms / 1000.0),
      lane_path.c_str(), lane_width, lane_speedup,
      lanes_identical ? "" : "  MISMATCH");

  // --- The uniform stream the lanes draw from: `Rng::FillUniform01` in
  // blocks of 256, as the lane kernel refills a lane. Report-only. ---
  double fill_ns_per_draw = 0.0;
  {
    constexpr size_t kBlock = 256;
    const int blocks = full ? 1 << 16 : 1 << 14;
    std::vector<double> block(kBlock);
    Rng fill_rng(11);
    double checksum = 0.0;
    Stopwatch clock;
    for (int b = 0; b < blocks; ++b) {
      fill_rng.FillUniform01(block.data(), kBlock);
      checksum += block[static_cast<size_t>(b) % kBlock];
    }
    fill_ns_per_draw = clock.ElapsedMillis() * 1e6 /
                       (static_cast<double>(blocks) * kBlock);
    bench::JsonObject row;
    row.Add("engine", "uniform_fill")
        .Add("kernel", lane_path)
        .Add("threads", 1)
        .Add("uniform_fill_ns_per_draw", fill_ns_per_draw)
        .Add("checksum", checksum);
    rows.Add(row);
    std::printf("%-20s threads= 1  %.2f ns per draw (blocks of %zu)\n",
                "uniform_fill", fill_ns_per_draw, kBlock);
  }

  // --- Memory accounting: bytes per retained sample on the serial SA
  // result. `bytes_per_sample` is measured (packed arena words + entry
  // records over the retained count); the unpacked reference is the
  // byte-vector representation this storage replaced — one heap
  // `std::vector<uint8_t>` per sample (n payload bytes + vector header)
  // plus the energy/count fields. diff_bench.py gates the ratio at >= 4x
  // for the 2048-spin instance. ---
  const size_t retained = sa_serial.samples.samples().size();
  const double bytes_per_sample =
      retained > 0 ? static_cast<double>(sa_serial.samples.memory_bytes()) /
                         static_cast<double>(retained)
                   : 0.0;
  const double unpacked_bytes_per_sample =
      static_cast<double>(n) +
      static_cast<double>(sizeof(std::vector<uint8_t>)) +
      static_cast<double>(sizeof(double) + sizeof(int));
  const double packed_memory_reduction =
      bytes_per_sample > 0.0 ? unpacked_bytes_per_sample / bytes_per_sample
                             : 0.0;
  std::printf(
      "memory: %.1f B/sample packed (%zu retained) vs %.1f B/sample "
      "unpacked representation -> %.2fx reduction\n",
      bytes_per_sample, retained, unpacked_bytes_per_sample,
      packed_memory_reduction);

  // --- SQA: P coupled replicas, so a "sweep" touches P * n spins. ---
  anneal::SqaOptions sqa;
  sqa.num_reads = full ? 16 : 4;
  sqa.num_slices = 8;
  sqa.sweeps = 32;
  sqa.seed = 7;
  sqa.executor = &pool;
  const double sqa_sweep_spins = static_cast<double>(sqa.num_reads) *
                                 sqa.sweeps * sqa.num_slices * n;
  all_identical &= BenchEngine("sqa", "scalar", threads, sqa_sweep_spins,
                               &rows,
                               [&](int t) {
                                 anneal::SqaOptions options = sqa;
                                 options.num_threads = t;
                                 Stopwatch clock;
                                 RunResult result;
                                 result.samples =
                                     anneal::SimulatedQuantumAnnealer(options)
                                         .SampleIsing(glass);
                                 result.wall_ms = clock.ElapsedMillis();
                                 return result;
                               });

  // --- Full device call (gauges + control error + SA backend). ---
  qubo::QuboWithOffset as_qubo = qubo::IsingToQubo(glass);
  anneal::DWaveOptions device;
  device.num_reads = full ? 200 : 50;
  device.num_gauges = 5;
  device.sa_sweeps = 256;
  device.seed = 7;
  device.executor = &pool;
  const double device_sweep_spins =
      static_cast<double>(device.num_reads) * device.sa_sweeps * n;
  all_identical &= BenchEngine(
      "device", "scalar", threads, device_sweep_spins, &rows, [&](int t) {
        anneal::DWaveOptions options = device;
        options.num_threads = t;
        Stopwatch clock;
        RunResult result;
        auto device_result =
            anneal::DWaveSimulator(options).Sample(as_qubo.qubo);
        if (!device_result.ok()) {
          std::fprintf(stderr, "device call failed: %s\n",
                       device_result.status().message().c_str());
          std::exit(1);
        }
        result.samples = std::move(device_result->samples);
        result.wall_ms = clock.ElapsedMillis();
        return result;
      });

  // --- Resilient orchestrator, no-fault hot path: one resilient MQO solve
  // on a 4x4x4 paper instance through the shared pool. The interesting
  // numbers are the fault/retry/fallback totals — all must stay zero in
  // the default bench (one null-pointer test per fault site is the entire
  // cost of the fault machinery), which diff_bench.py gates. ---
  double resilient_wall_ms = 0.0;
  harness::SolveReport solve_report;
  // Traced (the per-stage rows below come from its span tree); the timed
  // engine rows above run untraced, so the trace costs the hot path
  // nothing.
  obs::SolveTrace solve_trace;
  {
    Rng workload_rng(4);
    chimera::ChimeraGraph chip(4, 4, 4);
    harness::PaperWorkloadOptions workload;
    workload.plans_per_query = 2;
    workload.num_queries = 16;
    auto paper = harness::GeneratePaperInstance(chip, workload, &workload_rng);
    if (!paper.ok()) {
      std::fprintf(stderr, "paper workload failed: %s\n",
                   paper.status().message().c_str());
      return 1;
    }
    harness::SolvePolicy policy;
    policy.seed = 7;
    harness::QuantumMqoOptions solve_options;
    solve_options.device.num_reads = full ? 200 : 50;
    solve_options.device.num_gauges = 5;
    solve_options.device.sa_sweeps = 64;
    solve_options.device.num_threads = 4;
    solve_options.device.executor = &pool;
    solve_options.trace = &solve_trace;
    Stopwatch clock;
    solve_report = harness::ResilientSolver(policy).Solve(
        paper->problem, paper->embedding, chip, solve_options);
    resilient_wall_ms = clock.ElapsedMillis();
    if (!solve_report.ok) {
      std::fprintf(stderr, "resilient solve failed: %s\n",
                   solve_report.FailureChain().c_str());
      return 1;
    }
    std::printf(
        "resilient solve: backend=%s wall=%.1f ms cost=%.1f faults=%lld "
        "retries=%d fallbacks=%d\n",
        harness::SolveBackendName(solve_report.backend), resilient_wall_ms,
        solve_report.cost,
        static_cast<long long>(solve_report.faults_observed),
        solve_report.retries, solve_report.fallbacks);
    std::printf(
        "  stages: embed=%.2f anneal=%.2f unembed=%.2f merge=%.2f ms (wall)\n",
        solve_trace.WallTotal("pipeline.embed"),
        solve_trace.WallTotal("pipeline.anneal"),
        solve_trace.WallTotal("pipeline.unembed"),
        solve_trace.WallTotal("pipeline.merge"));
  }

  // Pool-reuse gate: every parallel run above must have executed on the
  // one pool created before the timed section.
  const int64_t workers_spawned_during_runs =
      qmqo::util::Executor::TotalWorkersSpawned() - workers_spawned_baseline;
  std::printf("worker threads spawned during timed runs: %lld (pool size %d)\n",
              static_cast<long long>(workers_spawned_during_runs),
              pool.num_threads());

  // Peak resident set of the whole bench process, for tracking the memory
  // trajectory across PRs next to the per-sample accounting (machine- and
  // allocator-dependent, so reported rather than gated).
  struct rusage usage;
  const int64_t peak_rss_kb =
      getrusage(RUSAGE_SELF, &usage) == 0
          ? static_cast<int64_t>(usage.ru_maxrss)
          : 0;
  std::printf("peak RSS: %lld KB\n", static_cast<long long>(peak_rss_kb));

  bench::JsonObject root;
  root.Add("bench", "annealer")
      .Add("spins", n)
      .Add("couplings", num_couplings)
      .Add("topology", "chimera_16x16x4")
      .Add("full_scale", full)
      .Add("all_identical_to_serial", all_identical)
      .Add("sweep_lane_path", lane_path)
      .Add("sweep_lane_width", lane_width)
      .Add("lane_speedup_vs_scalar", lane_speedup)
      .Add("bytes_per_sample", bytes_per_sample)
      .Add("unpacked_bytes_per_sample", unpacked_bytes_per_sample)
      .Add("packed_memory_reduction", packed_memory_reduction)
      .Add("peak_rss_kb", peak_rss_kb)
      .Add("resilient_backend",
           std::string(harness::SolveBackendName(solve_report.backend)))
      .Add("resilient_wall_ms", resilient_wall_ms)
      .Add("injected_faults",
           static_cast<int64_t>(solve_report.faults_observed))
      .Add("solver_retries", solve_report.retries)
      .Add("solver_fallbacks", solve_report.fallbacks)
      .Add("stage_embed_wall_ms", solve_trace.WallTotal("pipeline.embed"))
      .Add("stage_anneal_wall_ms", solve_trace.WallTotal("pipeline.anneal"))
      .Add("stage_unembed_wall_ms", solve_trace.WallTotal("pipeline.unembed"))
      .Add("stage_merge_wall_ms", solve_trace.WallTotal("pipeline.merge"))
      .Add("stage_anneal_modeled_ms",
           solve_trace.ModeledTotal("pipeline.anneal"))
      .Add("trace_spans", static_cast<int64_t>(solve_trace.spans().size()))
      .Add("executor_pool_size", pool.num_threads())
      .Add("workers_spawned_during_runs",
           static_cast<int64_t>(workers_spawned_during_runs))
      .AddRaw("runs", rows.Dump());
  std::string path = bench::WriteBenchArtifact("annealer", root);
  if (path.empty()) {
    std::fprintf(stderr, "failed to write BENCH_annealer.json\n");
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel sample sets differ from the serial path\n");
    return 1;
  }
  if (workers_spawned_during_runs != 0) {
    std::fprintf(stderr,
                 "FAIL: engines spawned %lld threads instead of reusing the "
                 "shared pool\n",
                 static_cast<long long>(workers_spawned_during_runs));
    return 1;
  }
  return 0;
}
