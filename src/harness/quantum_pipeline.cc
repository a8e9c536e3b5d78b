#include "harness/quantum_pipeline.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/executor.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace qmqo {
namespace harness {

namespace {

/// Closes the trace's innermost span with an error tag — used on every
/// early-return path so a failing stage never leaks an open span into the
/// caller's tree (ResilientSolver reuses one trace across attempts).
void CloseSpanWithError(obs::SolveTrace* trace, double wall_ms) {
  if (trace == nullptr) return;
  trace->Tag("status", "error");
  trace->Close(wall_ms);
}

/// One read-out chunk's earliest strictly best read, plus the chunk's busy
/// time in each read-out phase (accumulated only when tracing).
struct ReadOutChunk {
  double best_cost = std::numeric_limits<double>::infinity();
  mqo::MqoSolution best_solution{0};
  double unembed_ms = 0.0;
  double merge_ms = 0.0;
};

}  // namespace

Result<QuantumMqoResult> SolveQuantumMqo(const mqo::MqoProblem& problem,
                                         const embedding::Embedding& embedding,
                                         const chimera::ChimeraGraph& graph,
                                         const QuantumMqoOptions& options) {
  QuantumMqoResult result;
  if (options.faults != nullptr) {
    QMQO_RETURN_IF_ERROR(
        options.faults->MaybeFail("pipeline.solve", options.fault_attempt));
  }
  obs::SolveTrace* trace = options.trace;

  // Preprocessing on the "classical computer": logical + physical mapping.
  // The embed span is all wall time: classical preprocessing is never
  // charged to the modeled device clock (the paper's accounting).
  Stopwatch preprocessing;
  if (trace != nullptr) trace->Open("pipeline.embed");
  Result<mapping::LogicalMapping> logical_result =
      mapping::LogicalMapping::Create(problem, options.logical);
  if (!logical_result.ok()) {
    CloseSpanWithError(trace, preprocessing.ElapsedMillis());
    return logical_result.status();
  }
  mapping::LogicalMapping logical = std::move(logical_result).value();
  embedding::EmbeddedQuboOptions physical_options = options.physical;
  if (options.faults != nullptr && physical_options.faults == nullptr) {
    physical_options.faults = options.faults;
    physical_options.fault_key = options.fault_attempt;
  }
  Result<embedding::EmbeddedQubo> compiled =
      options.embedding_cache != nullptr
          ? options.embedding_cache->GetOrCreate(logical.qubo(), embedding,
                                                 graph, physical_options,
                                                 &result.embedding_cache_hit)
          : embedding::EmbeddedQubo::Create(logical.qubo(), embedding, graph,
                                            physical_options);
  if (!compiled.ok()) {
    CloseSpanWithError(trace, preprocessing.ElapsedMillis());
    return compiled.status();
  }
  embedding::EmbeddedQubo physical = std::move(compiled).value();
  result.preprocessing_ms = preprocessing.ElapsedMillis();
  result.physical_qubits = physical.num_physical_vars();
  if (trace != nullptr) {
    trace->Tag("cache_hit",
               static_cast<int64_t>(result.embedding_cache_hit ? 1 : 0));
    trace->Close(result.preprocessing_ms);
  }

  // Annealing on the (simulated) device, with chronological reads.
  anneal::DWaveOptions device_options = options.device;
  device_options.record_reads = true;
  if (options.faults != nullptr && device_options.faults == nullptr) {
    device_options.faults = options.faults;
    device_options.fault_epoch = options.fault_attempt;
  }
  const double per_read_us =
      device_options.anneal_time_us + device_options.readout_time_us;
  Stopwatch anneal_wall;
  if (trace != nullptr) trace->Open("pipeline.anneal");
  anneal::DWaveSimulator device(device_options);
  Result<anneal::DeviceResult> sampled = device.Sample(physical.physical());
  if (!sampled.ok()) {
    CloseSpanWithError(trace, anneal_wall.ElapsedMillis());
    return sampled.status();
  }
  anneal::DeviceResult device_result = std::move(sampled).value();
  result.device_time_us = device_result.device_time_us;
  result.simulator_wall_ms = device_result.wall_clock_ms;
  result.faults_injected = device_result.faults_injected;
  result.dropped_reads = device_result.dropped_reads;
  result.injected_latency_ms = device_result.injected_latency_ms;
  if (trace != nullptr) {
    // One child per programming cycle, from the device's per-gauge
    // timings (programming plus the gauge's share of the read fan-out, so
    // the children fit inside this span); modeled time is the device-time
    // model plus any injected latency (both deterministic).
    for (const anneal::GaugeTiming& timing : device_result.gauge_timings) {
      trace->Open("anneal.gauge");
      trace->Tag("gauge", static_cast<int64_t>(timing.gauge));
      trace->Tag("reads", static_cast<int64_t>(timing.reads));
      if (timing.dropped_reads > 0) {
        trace->Tag("dropped", static_cast<int64_t>(timing.dropped_reads));
      }
      trace->AddModeled(static_cast<double>(timing.reads) * per_read_us /
                            1000.0 +
                        timing.injected_latency_ms);
      trace->Close(timing.wall_ms);
    }
    trace->AddModeled(device_result.device_time_us / 1000.0 +
                      device_result.injected_latency_ms);
    trace->Tag("faults", device_result.faults_injected);
    if (device_result.dropped_reads > 0) {
      trace->Tag("dropped_reads",
                 static_cast<int64_t>(device_result.dropped_reads));
    }
    trace->Close(device_result.wall_clock_ms);
  }

  // Read-out: each read is unpacked, unembedded, repaired to a valid
  // selection, descended and costed on its own, so the reads fan out over
  // the device's executor in static contiguous chunks (inline at one
  // thread). A read writes only its per-index slots; each chunk keeps its
  // earliest strictly best solution. A serial fold in read order then
  // rebuilds the first-read cost, the best-cost staircase on the modeled
  // device-time axis and the fractions exactly as one in-order pass would,
  // so results are bit-identical at every thread count.
  const bool tracing = trace != nullptr;
  int unembed_span = -1;
  int merge_span = -1;
  if (tracing) {
    unembed_span = trace->Open("pipeline.unembed");
    trace->Close(0.0);
    merge_span = trace->Open("pipeline.merge");
    trace->Close(0.0);
  }
  Stopwatch readout_wall;
  const int total_reads = device_result.raw_reads.size();
  std::vector<double> read_cost(static_cast<size_t>(total_reads));
  std::vector<double> read_broken(static_cast<size_t>(total_reads));
  std::vector<uint8_t> read_valid(static_cast<size_t>(total_reads));
  // Executor::Run splits [0, total_reads) into this many chunks.
  const int num_chunks = std::max(
      1, std::min(util::ResolveNumThreads(device_options.num_threads),
                  total_reads));
  std::vector<ReadOutChunk> chunks(static_cast<size_t>(num_chunks));
  util::Executor::Run(
      device_options.executor, total_reads, device_options.num_threads,
      [&](int begin, int end, int chunk_index) {
        ReadOutChunk& chunk = chunks[static_cast<size_t>(chunk_index)];
        // Reads come back bit-packed; unpack each into one reused buffer.
        std::vector<uint8_t> physical_read;
        Stopwatch step;
        for (int i = begin; i < end; ++i) {
          if (tracing) step.Restart();
          device_result.raw_reads[i].CopyBytesTo(&physical_read);
          read_broken[static_cast<size_t>(i)] =
              physical.BrokenChainFraction(physical_read);
          std::vector<uint8_t> logical_read = physical.Unembed(physical_read);
          read_valid[static_cast<size_t>(i)] =
              logical.IsValidAssignment(logical_read) ? 1 : 0;
          mqo::MqoSolution solution = logical.RepairedSolution(logical_read);
          if (tracing) {
            chunk.unembed_ms += step.ElapsedMillis();
            step.Restart();
          }
          if (options.postprocess_swap_descent) {
            mqo::SwapDescent(problem, &solution);
          }
          double cost = mqo::EvaluateCost(problem, solution);
          read_cost[static_cast<size_t>(i)] = cost;
          if (cost < chunk.best_cost) {
            chunk.best_cost = cost;
            chunk.best_solution = std::move(solution);
          }
          if (tracing) chunk.merge_ms += step.ElapsedMillis();
        }
      });

  // The earliest read with the lowest cost: chunks are in read order, so
  // the first chunk whose best is strictly lower wins.
  double best_cost = std::numeric_limits<double>::infinity();
  for (ReadOutChunk& chunk : chunks) {
    if (chunk.best_cost < best_cost) {
      best_cost = chunk.best_cost;
      result.best_solution = std::move(chunk.best_solution);
    }
  }
  result.best_cost = best_cost;
  double running_best = std::numeric_limits<double>::infinity();
  double broken_chain_sum = 0.0;
  int valid_reads = 0;
  for (int i = 0; i < total_reads; ++i) {
    const double cost = read_cost[static_cast<size_t>(i)];
    broken_chain_sum += read_broken[static_cast<size_t>(i)];
    valid_reads += read_valid[static_cast<size_t>(i)];
    if (i == 0) result.first_read_cost = cost;
    if (cost < running_best) {
      running_best = cost;
      result.cost_vs_device_time.Record(
          static_cast<double>(i + 1) * per_read_us / 1000.0, cost);
    }
  }
  if (total_reads > 0) {
    result.broken_chain_read_fraction = broken_chain_sum / total_reads;
    result.valid_read_fraction =
        static_cast<double>(valid_reads) / total_reads;
  }
  if (tracing) {
    // The two spans share the read-out's elapsed wall time in proportion
    // to the chunks' summed busy time in each phase, so they add up to the
    // wall time rather than to the busy time of all threads.
    double unembed_busy_ms = 0.0;
    double merge_busy_ms = 0.0;
    for (const ReadOutChunk& chunk : chunks) {
      unembed_busy_ms += chunk.unembed_ms;
      merge_busy_ms += chunk.merge_ms;
    }
    const double busy_ms = unembed_busy_ms + merge_busy_ms;
    const double wall_ms = readout_wall.ElapsedMillis();
    const double unembed_wall_ms =
        busy_ms > 0.0 ? wall_ms * (unembed_busy_ms / busy_ms) : 0.0;
    trace->SetWallAt(unembed_span, unembed_wall_ms);
    trace->TagAt(unembed_span, "reads", static_cast<int64_t>(total_reads));
    trace->WallTagAt(unembed_span, "threads",
                     static_cast<int64_t>(num_chunks));
    trace->SetWallAt(merge_span, wall_ms - unembed_wall_ms);
    trace->TagAt(merge_span, "swap_descent",
                 static_cast<int64_t>(options.postprocess_swap_descent ? 1
                                                                       : 0));
    trace->WallTagAt(merge_span, "threads", static_cast<int64_t>(num_chunks));
  }
  return result;
}

}  // namespace harness
}  // namespace qmqo
