// Solve-service benchmark: sustained-load smoke test of the MQO batch
// server. A fixed burst of paper-style instances is pushed through the
// bounded queue (overfilling it on purpose, so admission rejects and
// load-shedding both fire) and drained at 1/2/4 worker threads.
//
// Measured per thread count: wall-clock request throughput and the p50 /
// p99 *modeled* end-to-end latency (queue wait + solve charge — the
// deterministic service clock, so those two numbers are bit-identical on
// every machine). The bench *fails* (exit 1) unless every parallel run
// settles the same requests with the same outcomes (status, backend,
// cost, solution, modeled timings) and the same metrics snapshot (every
// counter and both latency histograms) as the serial run — the service's
// round scheduler must not let worker count leak into results. Results go
// to BENCH_service.json for diff_bench.py (--metric requests_per_sec).
// It also fails unless the burst rejected and shed requests, and unless
// every shed request answered on the greedy last resort at its first
// attempt at every thread count: the burst arms no brownout, so each shed
// comes from queue pressure, and pressure shedding must cost no sampling.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <fstream>

#include "bench_common.h"
#include "chimera/topology.h"
#include "harness/paper_workload.h"
#include "harness/resilient_solver.h"
#include "obs/trace.h"
#include "service/solve_service.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using namespace qmqo;

constexpr uint64_t kSeed = 20260808;

struct LoadResult {
  double wall_ms = 0.0;
  /// The run's final metrics snapshot (JSON exposition) and the admission
  /// counters the artifact reports, read from the registry.
  std::string metrics_json;
  int64_t accepted = 0;
  int64_t rejected_queue_full = 0;
  int64_t shed_degraded = 0;
  /// Shed outcomes that did not answer on greedy at their first attempt.
  int64_t shed_not_greedy = 0;
  std::vector<std::string> fingerprints;  // one per settled request
  std::vector<double> modeled_latency_ms;  // queue wait + solve, per request
};

std::string Fingerprint(const service::SolveOutcome& outcome) {
  std::string selected;
  for (int q = 0; q < outcome.solution.num_queries(); ++q) {
    selected += StrFormat("%d,", outcome.solution.selected(q));
  }
  return StrFormat(
      "id=%llu code=%d backend=%d cost=%.17g rung=%d shed=%d wait=%.6f "
      "solve=%.6f sel=%s",
      static_cast<unsigned long long>(outcome.id),
      static_cast<int>(outcome.status.code()),
      static_cast<int>(outcome.backend), outcome.cost, outcome.entry_rung,
      outcome.shed_degraded ? 1 : 0, outcome.queue_wait_modeled_ms,
      outcome.solve_modeled_ms, selected.c_str());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

/// One sustained-load run: submit every instance (overfilling the queue),
/// then drain to empty. Returns outcomes in settle order and the final
/// metric snapshot as JSON. When `tracer` / `prom_out` are set (the serial
/// run), the run is traced and the snapshot also captured as Prometheus
/// text.
LoadResult RunLoad(const chimera::ChimeraGraph& graph,
                   const std::vector<harness::PaperInstance>& instances,
                   int num_requests, int num_threads,
                   obs::Tracer* tracer = nullptr,
                   std::string* prom_out = nullptr) {
  service::ServiceOptions options;
  options.graph = &graph;
  options.num_threads = num_threads;
  options.queue_capacity = 16;  // < num_requests: rejects + shedding fire
  options.round_width = 4;
  options.pipeline.device.num_reads = bench::FullScale() ? 300 : 50;
  options.pipeline.device.num_gauges = 4;
  options.pipeline.device.seed = kSeed + 1;
  options.policy.seed = kSeed;
  options.policy.max_attempts_per_backend = 1;

  // The service clock only advances through modeled charges, and the
  // classical rungs charge zero — so model a fixed 5 ms of per-round
  // service overhead through the queue_stall site (probability 1: a
  // deterministic pacing tick, not an injected failure). This is what
  // makes the queue-wait percentiles below nonzero and machine-independent.
  util::FaultInjector faults(kSeed);
  util::FaultSpec pacing;
  pacing.probability = 1.0;
  pacing.latency_ms = 5.0;
  faults.Arm("service.queue_stall", pacing);
  options.faults = &faults;
  options.tracer = tracer;

  service::SolveService solve_service(options);
  Stopwatch watch;
  for (int i = 0; i < num_requests; ++i) {
    const harness::PaperInstance& instance =
        instances[static_cast<size_t>(i) % instances.size()];
    service::RequestPriority priority = (i % 3 == 0)
                                            ? service::RequestPriority::kInteractive
                                            : service::RequestPriority::kBatch;
    (void)solve_service.Submit(instance.problem, instance.embedding, priority);
  }
  solve_service.DrainAll();

  LoadResult result;
  result.wall_ms = watch.ElapsedMillis();
  for (const service::SolveOutcome& outcome : solve_service.outcomes()) {
    result.fingerprints.push_back(Fingerprint(outcome));
    if (outcome.shed_degraded &&
        !(outcome.status.ok() &&
          outcome.backend == harness::SolveBackend::kGreedy &&
          outcome.attempts == 1)) {
      ++result.shed_not_greedy;
    }
    result.modeled_latency_ms.push_back(outcome.queue_wait_modeled_ms +
                                        outcome.solve_modeled_ms);
  }
  obs::MetricsRegistry& metrics = solve_service.metrics();
  result.accepted =
      metrics.counter("qmqo_service_requests_accepted_total")->Value();
  result.rejected_queue_full =
      metrics
          .counter("qmqo_service_requests_rejected_total{reason=\"queue_full\"}")
          ->Value();
  result.shed_degraded =
      metrics.counter("qmqo_service_shed_degraded_total")->Value();
  obs::MetricsSnapshot snapshot = metrics.Collect();
  result.metrics_json = snapshot.JsonText();
  if (prom_out != nullptr) *prom_out = snapshot.PrometheusText();
  return result;
}

}  // namespace

int main() {
  const int num_requests = bench::FullScale() ? 96 : 24;
  chimera::ChimeraGraph graph(4, 4, 4);

  Rng rng(kSeed);
  std::vector<harness::PaperInstance> instances;
  for (int i = 0; i < 6; ++i) {
    harness::PaperWorkloadOptions workload;
    workload.plans_per_query = 2;
    workload.num_queries = 10;
    auto instance = harness::GeneratePaperInstance(graph, workload, &rng);
    if (!instance.ok()) {
      std::fprintf(stderr, "workload generation failed: %s\n",
                   instance.status().ToString().c_str());
      return 1;
    }
    instances.push_back(*std::move(instance));
  }

  bench::JsonObject root;
  root.Add("bench", "service");
  root.Add("num_requests", static_cast<int64_t>(num_requests));
  root.Add("queue_capacity", static_cast<int64_t>(16));
  root.Add("full_scale", bench::FullScale());

  LoadResult serial;
  obs::Tracer serial_tracer;
  std::string serial_prom;
  bool all_identical = true;
  int64_t shed_not_greedy = 0;
  bench::JsonArray runs;
  for (int threads : {1, 2, 4}) {
    // Trace + snapshot the serial run only; it is the deterministic
    // reference the stage breakdown and the exposition artifacts describe.
    LoadResult result =
        threads == 1
            ? RunLoad(graph, instances, num_requests, threads, &serial_tracer,
                      &serial_prom)
            : RunLoad(graph, instances, num_requests, threads);
    bool identical = true;
    shed_not_greedy += result.shed_not_greedy;
    if (threads == 1) {
      serial = result;
    } else {
      identical = result.fingerprints == serial.fingerprints &&
                  result.metrics_json == serial.metrics_json;
      all_identical = all_identical && identical;
    }
    const size_t settled = result.fingerprints.size();
    double wall_sec = result.wall_ms / 1000.0;
    double throughput =
        wall_sec > 0.0 ? static_cast<double>(settled) / wall_sec : 0.0;
    bench::JsonObject row;
    row.Add("engine", "service");
    row.Add("threads", static_cast<int64_t>(threads));
    row.Add("wall_ms", result.wall_ms);
    row.Add("requests_per_sec", throughput);
    row.Add("p50_modeled_latency_ms", Percentile(result.modeled_latency_ms, 0.50));
    row.Add("p99_modeled_latency_ms", Percentile(result.modeled_latency_ms, 0.99));
    row.Add("identical_to_serial", identical);
    runs.Add(row);
    std::printf(
        "service threads=%d  settled=%lld  wall=%.1f ms  %.1f req/s  "
        "p50=%.3f ms  p99=%.3f ms  identical=%s\n",
        threads, static_cast<long long>(settled),
        result.wall_ms, throughput,
        Percentile(result.modeled_latency_ms, 0.50),
        Percentile(result.modeled_latency_ms, 0.99),
        identical ? "yes" : "NO");
  }
  root.AddRaw("runs", runs.Dump());

  // Admission + degradation profile of the (deterministic) serial run:
  // the burst overfills the 16-slot queue, so both counters must be
  // nonzero — a zero here means the overload path silently stopped firing.
  root.Add("accepted", serial.accepted);
  root.Add("rejected_queue_full", serial.rejected_queue_full);
  root.Add("shed_degraded", serial.shed_degraded);
  double shed_rate = serial.accepted > 0
                         ? static_cast<double>(serial.shed_degraded) /
                               static_cast<double>(serial.accepted)
                         : 0.0;
  root.Add("shed_rate", shed_rate);

  // Per-stage modeled-time breakdown of the serial run, summed over its
  // span trees (deterministic: same on every machine for this seed).
  root.Add("stage_request_modeled_ms",
           serial_tracer.ModeledTotal("service.request"));
  root.Add("stage_attempt_modeled_ms",
           serial_tracer.ModeledTotal("solve.attempt"));
  root.Add("stage_anneal_modeled_ms",
           serial_tracer.ModeledTotal("pipeline.anneal"));
  root.Add("stage_embed_wall_ms", serial_tracer.WallTotal("pipeline.embed"));
  root.Add("stage_unembed_wall_ms",
           serial_tracer.WallTotal("pipeline.unembed"));
  root.Add("stage_merge_wall_ms", serial_tracer.WallTotal("pipeline.merge"));
  root.Add("trace_count", static_cast<int64_t>(serial_tracer.size()));
  std::printf(
      "stages (serial, modeled): request=%.1f attempt=%.1f anneal=%.1f ms; "
      "%zu traces\n",
      serial_tracer.ModeledTotal("service.request"),
      serial_tracer.ModeledTotal("solve.attempt"),
      serial_tracer.ModeledTotal("pipeline.anneal"), serial_tracer.size());

  root.Add("all_identical_to_serial", all_identical);
  std::printf("accepted=%lld rejected=%lld shed_rate=%.3f\n",
              static_cast<long long>(serial.accepted),
              static_cast<long long>(serial.rejected_queue_full),
              shed_rate);

  std::string path = bench::WriteBenchArtifact("service", root);
  if (path.empty()) {
    std::fprintf(stderr, "failed to write BENCH_service.json\n");
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());

  // The serial run's full metric snapshot in both exposition formats,
  // next to the bench artifact. CI checks both stay machine-readable:
  // bench/check_prom.py for the text exposition, a json.load for the
  // JSON one (labeled metric names carry quotes that must be escaped).
  const std::pair<const char*, const std::string*> expositions[] = {
      {"BENCH_service.prom", &serial_prom},
      {"BENCH_service_metrics.json", &serial.metrics_json},
  };
  for (const auto& [filename, content] : expositions) {
    const char* dir = std::getenv("QMQO_BENCH_OUT_DIR");
    std::string out_path =
        (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : "") +
        filename;
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    out << *content;
    out.flush();
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel service runs diverged from serial\n");
    return 1;
  }
  if (serial.rejected_queue_full == 0 || serial.shed_degraded == 0) {
    std::fprintf(stderr,
                 "FAIL: overload burst produced no rejects/shedding\n");
    return 1;
  }
  if (shed_not_greedy > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld shed requests did not answer on greedy at their "
                 "first attempt\n",
                 static_cast<long long>(shed_not_greedy));
    return 1;
  }
  return 0;
}
