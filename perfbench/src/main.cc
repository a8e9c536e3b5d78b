// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       One measured run. --trace 0 prints the end-to-end metrics, --trace 1
//       the per-layer breakdown of a traced run. The last stdout line is
//       {"correct", "attempted", "failed", "metrics"}.
//   perfbench [--workload all] [--seed n] [--seconds s]
//       Every workload, untraced and traced, plus the 1-thread vs
//       nproc-thread determinism check; prints every metric with its unit.
//   perfbench --smoke
//       Tiny runs of every workload that assert the report is complete.
//
// Every run uses nproc worker threads. Common flags: --artifact-dir <dir>
// (one JSON artifact per invocation, with a machine fingerprint) and
// --commit <sha> (recorded in the fingerprint).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "util.h"
#include "util/executor.h"
#include "util/string_util.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using qmqo::StrFormat;
namespace util = qmqo::util;

// Set-up is timed up to this many times per run; the median is reported.
// A set-up takes ~10-25 ms and its time is bimodal on a shared machine, so
// the median needs many samples to stay put.
constexpr int kSetupRepeats = 31;
constexpr double kSmokeSeconds = 0.3;

struct Args {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string artifact_dir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--artifact-dir") {
      args->artifact_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  return args->seconds > 0.0 && std::isfinite(args->seconds);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run: set-up, warm-up, then alternating blocks over its
/// lanes until their clocks add up to the requested time.
struct Measurement {
  std::string workload;
  std::vector<double> setup_ms;
  /// Untraced: {plain}. Traced: {traced, plain}.
  std::vector<LaneStats> lanes;
  int64_t rss_start_kb = 0;
  int64_t rss_end_kb = 0;
  int64_t peak_rss_kb = 0;

  const LaneStats& traced() const { return lanes.front(); }
  const LaneStats& plain() const { return lanes.back(); }
};

// A workload with its lanes: what one set-up builds.
struct SetUp {
  std::unique_ptr<BenchWorkload> workload;
  std::vector<std::unique_ptr<Lane>> lanes;
};

SetUp TimedSetUp(const std::string& name, const Config& config, bool traced,
                 std::vector<double>* setup_ms) {
  const double start = NowMs();
  SetUp s;
  s.workload = MakeBenchWorkload(name, config);
  if (traced) s.lanes.push_back(s.workload->MakeLane(true, config.threads));
  s.lanes.push_back(s.workload->MakeLane(false, config.threads));
  setup_ms->push_back(NowMs() - start);
  return s;
}

Measurement Measure(const std::string& name, const Config& config,
                    double seconds, bool traced) {
  Measurement m;
  m.workload = name;
  SetUp s = TimedSetUp(name, config, traced, &m.setup_ms);
  for (std::unique_ptr<Lane>& lane : s.lanes) {
    lane->RunBlock(s.workload->warmup_ms());
    lane->stats() = LaneStats();
  }
  m.rss_start_kb = ProcStatusKb("VmRSS");
  // The machine's speed drifts over tens of seconds, so the remaining
  // set-ups are timed at even intervals across the run (off every lane
  // clock) rather than back to back.
  const double budget_ms = seconds * 1000.0;
  double active_ms = 0.0;
  while (active_ms < budget_ms) {
    active_ms = 0.0;
    for (std::unique_ptr<Lane>& lane : s.lanes) {
      lane->RunBlock(s.workload->block_ms());
      active_ms += lane->stats().active_ms;
    }
    while (static_cast<int>(m.setup_ms.size()) < kSetupRepeats &&
           active_ms >= static_cast<double>(m.setup_ms.size()) * budget_ms /
                            kSetupRepeats) {
      TimedSetUp(name, config, traced, &m.setup_ms);
    }
  }
  m.rss_end_kb = ProcStatusKb("VmRSS");
  m.peak_rss_kb = ProcStatusKb("VmHWM");
  for (std::unique_ptr<Lane>& lane : s.lanes) {
    m.lanes.push_back(lane->stats());
  }
  return m;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return Ratio(sum, static_cast<double>(values.size()));
}

double AnswersPerSecond(const LaneStats& s) {
  return Ratio(static_cast<double>(s.answered), s.active_ms / 1000.0);
}

// The metrics BENCHMARK.json lists as end_to_end, from the untraced lane.
std::vector<Metric> EndToEnd(const Measurement& m) {
  const LaneStats& s = m.plain();
  const double answered = static_cast<double>(s.answered);
  return {
      {"setup_s", Median(m.setup_ms) / 1000.0, "s"},
      {"latency_p50_ms", Quantile(s.latency_ms, 0.50), "ms"},
      {"latency_p99_ms", Quantile(s.latency_ms, 0.99), "ms"},
      {"answers_per_s", Median(s.block_rates), "answers/s"},
      {"success_rate", Ratio(answered, static_cast<double>(s.attempted)),
       "fraction"},
      {"quality_pct", Ratio(s.quality_pct_sum, answered), "%"},
      {"peak_rss_mb", static_cast<double>(m.peak_rss_kb) / 1024.0, "MB"},
  };
}

// Figures that BENCHMARK.json cannot bound (they can read
// 0 or go negative); printed and written to the artifact.
std::vector<Metric> Extras(const Measurement& m) {
  const LaneStats& s = m.plain();
  const double attempted = static_cast<double>(s.attempted);
  const double answered = static_cast<double>(s.answered);
  return {
      {"error_rate", Ratio(attempted - answered, attempted), "fraction"},
      {"quality_gap_pct", Ratio(s.gap_pct_sum, answered), "%"},
      {"latency_samples", answered, "count"},
      {"answers_per_s_p10", Quantile(s.block_rates, 0.10), "answers/s"},
      {"answers_per_s_p90", Quantile(s.block_rates, 0.90), "answers/s"},
      {"attempted", attempted, "count"},
      {"rejected", static_cast<double>(s.rejected), "count"},
      {"crashed", static_cast<double>(s.crashed), "count"},
      {"failed", static_cast<double>(s.failed), "count"},
      {"incorrect", static_cast<double>(s.incorrect), "count"},
  };
}

double AttributedMs(const LaneStats& s) {
  double sum = 0.0;
  for (const auto& [layer, ms] : s.layers) sum += ms;
  return sum;
}

// The metrics BENCHMARK.json lists as per_layer, from the traced lane;
// times are wall ms per correct answer.
std::vector<Metric> PerLayer(const Measurement& m) {
  const LaneStats& t = m.traced();
  const LaneStats& p = m.plain();
  const double answered =
      std::max<double>(1.0, static_cast<double>(t.answered));
  const double settled =
      std::max<double>(1.0, static_cast<double>(t.settled));
  std::vector<Metric> out;
  for (int i = 0; i < kNumLayers; ++i) {
    auto it = t.layers.find(kLayerNames[i]);
    out.push_back({kLayerNames[i],
                   (it == t.layers.end() ? 0.0 : it->second) / answered, "ms"});
  }
  out.push_back(
      {"unattributed_ms", (t.active_ms - AttributedMs(t)) / answered, "ms"});
  const TraceCounts& c = t.counts;
  const char* rungs[4] = {"device", "sqa", "sa", "greedy"};
  for (int b = 0; b < 4; ++b) {
    out.push_back({std::string("harness.rung_share.") + rungs[b],
                   static_cast<double>(t.answered_by[b]) / answered,
                   "fraction"});
  }
  const std::vector<Metric> rest = {
      {"mqo.payload_bytes",
       Ratio(static_cast<double>(t.mqo_bytes),
             static_cast<double>(t.mqo_payloads)),
       "bytes"},
      {"workloads.payload_bytes",
       Ratio(static_cast<double>(t.workload_bytes),
             static_cast<double>(t.workload_payloads)),
       "bytes"},
      {"embedding.cache_hit_rate",
       Ratio(static_cast<double>(c.embed_cache_hits),
             static_cast<double>(c.embeds)),
       "fraction"},
      {"anneal.reads", static_cast<double>(c.device_reads) / answered,
       "count"},
      {"anneal.gauges", static_cast<double>(c.gauges) / answered, "count"},
      {"anneal.spin_updates_per_s",
       Ratio(t.spin_updates, c.device_wall_ms / 1000.0), "1/s"},
      {"harness.broken_chain_fraction",
       Ratio(t.broken_chain_sum, static_cast<double>(t.device_answers)),
       "fraction"},
      {"harness.attempts_per_answer",
       static_cast<double>(c.attempts) / answered, "count"},
      {"harness.retries", static_cast<double>(c.retries) / answered, "count"},
      {"harness.fallbacks", static_cast<double>(t.fallbacks) / answered,
       "count"},
      {"service.round_fill",
       Ratio(static_cast<double>(t.settled),
             kRoundWidth * static_cast<double>(t.rounds)),
       "fraction"},
      {"service.rejected_share",
       Ratio(static_cast<double>(t.rejected),
             static_cast<double>(t.attempted)),
       "fraction"},
      {"service.shed_share", static_cast<double>(t.shed) / settled,
       "fraction"},
      {"service.breaker_skips", static_cast<double>(t.breaker_skips) / settled,
       "count/req"},
      {"service.crashed", static_cast<double>(t.crashed) / settled,
       "count/req"},
      {"loadgen.lag_ms", Mean(t.lag_ms), "ms"},
      {"obs.trace_overhead_pct",
       100.0 * (Ratio(AnswersPerSecond(p), AnswersPerSecond(t)) - 1.0), "%"},
      {"obs.traces_retained", static_cast<double>(t.traces) / settled,
       "count/req"},
      {"memory.rss_growth_kb_per_1k",
       static_cast<double>(m.rss_end_kb - m.rss_start_kb) /
           (static_cast<double>(t.answered + p.answered) / 1000.0),
       "KB"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& metric : metrics) {
    obj.Raw(metric.name, JsonObject()
                             .Num("value", metric.value)
                             .Str("unit", metric.unit)
                             .Dump());
  }
  return obj.Dump();
}

void PrintMetrics(const std::string& heading,
                  const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading.c_str());
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

struct Totals {
  int64_t attempted = 0;
  int64_t failed = 0;  // unexpected failures plus incorrect answers
  int64_t incorrect = 0;
  void Add(const Measurement& m) {
    for (const LaneStats& s : m.lanes) {
      attempted += s.attempted;
      failed += s.failed + s.incorrect;
      incorrect += s.incorrect;
    }
  }
};

std::string Fingerprint(const Args& args) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  return JsonObject()
      .Int("nproc", util::ResolveNumThreads(0))
      .Str("compiler", __VERSION__)
      .Str("flags", PERFBENCH_CXX_FLAGS)
      .Str("build_type", build_type)
      .Bool("release_build", build_type == "Release")
      .Str("git_commit", args.commit)
      .Dump();
}

/// Answer digests of a workload prefix at 1 thread and at `threads`.
std::string DeterminismJson(const std::string& name, const Config& config,
                            bool* match) {
  std::string digests[2];
  const int thread_counts[2] = {1, config.threads};
  for (int i = 0; i < 2; ++i) {
    std::unique_ptr<BenchWorkload> workload = MakeBenchWorkload(name, config);
    std::unique_ptr<Lane> lane = workload->MakeLane(false, thread_counts[i]);
    for (int b = 0; b < workload->prefix_blocks(); ++b) lane->RunBlock(0.0);
    digests[i] = Hex64(lane->stats().digest);
  }
  *match = digests[0] == digests[1];
  std::printf("determinism %-16s 1 thread %s, %d threads %s: %s\n",
              name.c_str(), digests[0].c_str(), config.threads,
              digests[1].c_str(), *match ? "match" : "MISMATCH");
  return JsonObject()
      .Str("digest_1_thread", digests[0])
      .Str(StrFormat("digest_%d_threads", config.threads), digests[1])
      .Bool("match", *match)
      .Dump();
}

void WriteArtifact(const Args& args, const std::string& file,
                   const std::string& json) {
  if (args.artifact_dir.empty()) return;
  const std::string path = args.artifact_dir + "/" + file;
  std::ofstream out(path);
  out << json << "\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  } else {
    std::printf("artifact: %s\n", path.c_str());
  }
}

std::string MeasurementJson(const Measurement& m, bool traced) {
  JsonObject obj;
  obj.Str("workload", m.workload);
  obj.Bool("traced", traced);
  obj.Raw("metrics", MetricsJson(traced ? PerLayer(m) : EndToEnd(m)));
  if (!traced) obj.Raw("extras", MetricsJson(Extras(m)));
  obj.Raw("setup_ms", JsonArray(m.setup_ms));
  obj.Raw("block_rates", JsonArray(m.plain().block_rates));
  return obj.Dump();
}

// --workload <name> --trace <0|1>: the benchmark contract.
int RunOne(const Args& args, const Config& config) {
  const Measurement m =
      Measure(args.workload, config, args.seconds, args.trace);
  const std::vector<Metric> metrics = args.trace ? PerLayer(m) : EndToEnd(m);
  PrintMetrics(StrFormat("%s (seed %llu, %s)", args.workload.c_str(),
                         static_cast<unsigned long long>(args.seed),
                         args.trace ? "traced, per layer" : "end to end"),
               metrics);
  if (!args.trace) PrintMetrics("  extras", Extras(m));
  Totals totals;
  totals.Add(m);
  WriteArtifact(
      args,
      StrFormat("%s-seed%llu-trace%d.json", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0),
      JsonObject()
          .Raw("fingerprint", Fingerprint(args))
          .Int("seed", static_cast<int64_t>(args.seed))
          .Num("seconds", args.seconds)
          .Raw("run", MeasurementJson(m, args.trace))
          .Dump());
  std::printf("%s\n", JsonObject()
                          .Bool("correct", totals.incorrect == 0)
                          .Int("attempted", totals.attempted)
                          .Int("failed", totals.failed)
                          .Raw("metrics", MetricsJson(metrics))
                          .Dump()
                          .c_str());
  return totals.failed == 0 ? 0 : 1;
}

// Smoke assertions over one workload's untraced and traced runs.
bool SmokeChecks(const Measurement& plain, const Measurement& traced) {
  bool ok = true;
  auto expect = [&](bool condition, const std::string& what) {
    if (!condition) {
      std::printf("  FAIL %s: %s\n", plain.workload.c_str(), what.c_str());
      ok = false;
    }
  };
  for (const std::vector<Metric>& metrics :
       {EndToEnd(plain), Extras(plain), PerLayer(traced)}) {
    for (const Metric& metric : metrics) {
      expect(std::isfinite(metric.value), metric.name + " is not finite");
    }
  }
  const LaneStats& t = traced.traced();
  expect(t.answered > 0 && plain.plain().answered > 0, "no answers");
  double layer_sum = 0.0;
  double unattributed = 0.0;
  for (const Metric& metric : PerLayer(traced)) {
    if (metric.name == "unattributed_ms") unattributed = metric.value;
    for (int i = 0; i < kNumLayers; ++i) {
      if (metric.name == kLayerNames[i]) layer_sum += metric.value;
    }
  }
  const double wall = t.active_ms / static_cast<double>(t.answered);
  expect(std::fabs(layer_sum + unattributed - wall) <= 1e-6 * wall,
         "layers plus unattributed_ms do not sum to the traced wall time");
  expect(unattributed >= -0.01 * wall,
         StrFormat("layers overlap: attributed %.4f ms exceeds wall %.4f ms",
                   layer_sum, wall));
  if (plain.workload == "service-overload") {
    expect(!plain.plain().lag_ms.empty() && !t.lag_ms.empty(),
           "open-loop generator lag not reported");
  }
  std::printf("  %s: answers %lld untraced, %lld traced; wall %.3f ms/answer "
              "= layers %.3f + unattributed %.3f\n",
              plain.workload.c_str(),
              static_cast<long long>(plain.plain().answered),
              static_cast<long long>(t.answered), wall, layer_sum,
              unattributed);
  return ok;
}

// Every workload, untraced then traced, plus the determinism check.
// `smoke` shrinks everything and asserts the report is complete.
int RunAll(const Args& args, const Config& config) {
  const double seconds = config.smoke ? kSmokeSeconds : args.seconds;
  bool ok = true;
  Totals totals;
  JsonObject runs;
  JsonObject determinism;
  for (const std::string& name : WorkloadNames()) {
    const Measurement plain = Measure(name, config, seconds, false);
    const Measurement traced = Measure(name, config, seconds, true);
    totals.Add(plain);
    totals.Add(traced);
    PrintMetrics(name + " (end to end)", EndToEnd(plain));
    PrintMetrics(name + " (extras)", Extras(plain));
    PrintMetrics(name + " (traced, per layer)", PerLayer(traced));
    if (config.smoke) ok = SmokeChecks(plain, traced) && ok;
    runs.Raw(name, JsonObject()
                       .Raw("untraced", MeasurementJson(plain, false))
                       .Raw("traced", MeasurementJson(traced, true))
                       .Dump());
    if (name != "service-overload") {
      bool match = false;
      determinism.Raw(name, DeterminismJson(name, config, &match));
      ok = ok && match;
    }
  }
  ok = ok && totals.failed == 0;
  WriteArtifact(args, config.smoke ? "smoke.json" : "all.json",
                JsonObject()
                    .Raw("fingerprint", Fingerprint(args))
                    .Int("seed", static_cast<int64_t>(args.seed))
                    .Num("seconds", seconds)
                    .Num("overload_rate_per_s", OverloadRatePerSecond())
                    .Raw("runs", runs.Dump())
                    .Raw("determinism", determinism.Dump())
                    .Dump());
  std::printf("%s\n", JsonObject()
                          .Bool("correct", totals.incorrect == 0)
                          .Int("attempted", totals.attempted)
                          .Int("failed", totals.failed)
                          .Bool("ok", ok)
                          .Dump()
                          .c_str());
  if (config.smoke) std::printf("smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench [--workload <name>|all] [--seed n] "
                 "[--seconds s] [--trace 0|1] [--smoke] "
                 "[--artifact-dir dir] [--commit sha]\n");
    return 2;
  }
  Config config;
  config.seed = args.seed;
  config.threads = qmqo::util::ResolveNumThreads(0);
  config.smoke = args.smoke;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: WARNING: %s build, not Release; timings "
                         "are not comparable\n", PERFBENCH_BUILD_TYPE);
  }
  if (args.smoke || args.workload == "all") return RunAll(args, config);
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return RunOne(args, config);
}
