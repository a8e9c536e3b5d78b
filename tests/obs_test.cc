// Unit tests of the observability layer itself: sharded counters, gauge
// bit round-trips, histogram bucket boundaries (inclusive `le`), the
// Prometheus text exposition (golden), JSON exposition, collectors,
// span-tree construction/serialization, and the pipeline's read-out spans.

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chimera/topology.h"
#include "harness/paper_workload.h"
#include "harness/quantum_pipeline.h"
#include "harness/resilient_solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/rng.h"

namespace qmqo {
namespace obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kPerThread);
}

TEST(CounterTest, IncrementByDelta) {
  Counter counter;
  counter.Increment(5);
  counter.Increment(0);
  counter.Increment(37);
  EXPECT_EQ(counter.Value(), 42);
}

TEST(CounterTest, SetToAbsoluteMirrorsMonotonicSource) {
  Counter counter;
  counter.SetToAbsolute(10);
  EXPECT_EQ(counter.Value(), 10);
  counter.SetToAbsolute(10);  // idempotent
  EXPECT_EQ(counter.Value(), 10);
  counter.SetToAbsolute(25);
  EXPECT_EQ(counter.Value(), 25);
  counter.SetToAbsolute(3);  // a counter never goes backwards
  EXPECT_EQ(counter.Value(), 25);
}

TEST(GaugeTest, RoundTripsExactBits) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  for (double v : {36.5, -0.0, 1e-300, 0.1, 12345.6789}) {
    gauge.Set(v);
    double got = gauge.Value();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof(v)), 0) << v;
  }
}

TEST(HistogramTest, UpperBoundsAreInclusive) {
  Histogram h({1.0, 2.5, 5.0});
  h.Observe(1.0);        // exactly on a bound -> that bucket (le semantics)
  h.Observe(1.0000001);  // just over -> next bucket
  h.Observe(2.5);
  h.Observe(5.0);
  h.Observe(5.0001);  // over the last bound -> +Inf bucket
  h.Observe(-3.0);    // below everything -> first bucket
  EXPECT_EQ(h.BucketCount(0), 2);  // 1.0, -3.0
  EXPECT_EQ(h.BucketCount(1), 2);  // 1.0000001, 2.5
  EXPECT_EQ(h.BucketCount(2), 1);  // 5.0
  EXPECT_EQ(h.BucketCount(3), 1);  // 5.0001
  EXPECT_EQ(h.Count(), 6);
}

TEST(HistogramTest, SumIsFixedPointThousandths) {
  Histogram h({10.0});
  h.Observe(1.2344);  // rounds to 1.234
  h.Observe(0.0006);  // rounds to 0.001
  h.Observe(0.0004);  // rounds to 0.000
  EXPECT_DOUBLE_EQ(h.Sum(), 1.235);
  EXPECT_EQ(h.Count(), 3);
}

TEST(HistogramTest, BoundsAreSortedAndDeduplicated) {
  Histogram h({5.0, 1.0, 5.0, 2.5});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_EQ(h.bounds()[0], 1.0);
  EXPECT_EQ(h.bounds()[1], 2.5);
  EXPECT_EQ(h.bounds()[2], 5.0);
}

TEST(RegistryTest, GetOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x_total");
  Counter* b = reg.counter("x_total");
  EXPECT_EQ(a, b);
  Histogram* h1 = reg.histogram("h_ms", {1.0, 2.0});
  Histogram* h2 = reg.histogram("h_ms", {99.0});  // never re-bucketed
  EXPECT_EQ(h1, h2);
  ASSERT_EQ(h1->bounds().size(), 2u);
}

TEST(RegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.counter("x"), nullptr);
  EXPECT_EQ(reg.gauge("x"), nullptr);
  EXPECT_EQ(reg.histogram("x", {1.0}), nullptr);
  ASSERT_NE(reg.gauge("g"), nullptr);
  EXPECT_EQ(reg.counter("g"), nullptr);
}

TEST(RegistryTest, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("zebra");
  reg.counter("alpha");
  reg.counter("mid");
  MetricsSnapshot snap = reg.Collect();
  ASSERT_EQ(snap.points.size(), 3u);
  EXPECT_EQ(snap.points[0].name, "alpha");
  EXPECT_EQ(snap.points[1].name, "mid");
  EXPECT_EQ(snap.points[2].name, "zebra");
}

TEST(RegistryTest, CollectorsRunAtCollectTime) {
  MetricsRegistry reg;
  int runs = 0;
  reg.AddCollector([&runs](MetricsRegistry* r) {
    ++runs;
    r->gauge("mirrored")->Set(static_cast<double>(runs));
  });
  MetricsSnapshot first = reg.Collect();
  MetricsSnapshot second = reg.Collect();
  EXPECT_EQ(runs, 2);
  ASSERT_EQ(second.points.size(), 1u);
  EXPECT_EQ(second.points[0].gauge_value, 2.0);
  (void)first;
}

// The exposition format is an interface: goldens pin the exact bytes.
TEST(ExpositionTest, PrometheusTextGolden) {
  MetricsRegistry reg;
  reg.counter("app_requests_total", "Total requests")->Increment(3);
  reg.counter("app_errors_total{kind=\"parse\"}", "Errors by kind")
      ->Increment();
  reg.counter("app_errors_total{kind=\"io\"}")->Increment(2);
  reg.gauge("app_temperature", "Current temp")->Set(36.5);
  Histogram* h = reg.histogram("app_latency_ms", {1.0, 5.0}, "Latency");
  h->Observe(0.5);
  h->Observe(1.0);
  h->Observe(3.0);
  h->Observe(100.0);

  const char* expected =
      "# HELP app_errors_total Errors by kind\n"
      "# TYPE app_errors_total counter\n"
      "app_errors_total{kind=\"io\"} 2\n"
      "app_errors_total{kind=\"parse\"} 1\n"
      "# HELP app_latency_ms Latency\n"
      "# TYPE app_latency_ms histogram\n"
      "app_latency_ms_bucket{le=\"1\"} 2\n"
      "app_latency_ms_bucket{le=\"5\"} 3\n"
      "app_latency_ms_bucket{le=\"+Inf\"} 4\n"
      "app_latency_ms_sum 104.5\n"
      "app_latency_ms_count 4\n"
      "# HELP app_requests_total Total requests\n"
      "# TYPE app_requests_total counter\n"
      "app_requests_total 3\n"
      "# HELP app_temperature Current temp\n"
      "# TYPE app_temperature gauge\n"
      "app_temperature 36.5\n";
  EXPECT_EQ(reg.PrometheusText(), expected);
}

// A family's labeled series sort after any metric whose next character
// is in ('_', '{') — e.g. `rq_total` < `rq_total_x` < `rq_total{...}` —
// so header emission must group by base name, never by adjacency, or the
// family gets two # TYPE lines and Prometheus parsers reject the scrape.
TEST(ExpositionTest, SplitFamilyEmitsOneTypeHeader) {
  MetricsRegistry reg;
  reg.counter("rq_total", "Requests")->Increment(5);
  reg.counter("rq_total{kind=\"a\"}")->Increment(2);
  reg.gauge("rq_total_x", "Sorts between the family's series")->Set(1.0);
  const char* expected =
      "# HELP rq_total Requests\n"
      "# TYPE rq_total counter\n"
      "rq_total 5\n"
      "rq_total{kind=\"a\"} 2\n"
      "# HELP rq_total_x Sorts between the family's series\n"
      "# TYPE rq_total_x gauge\n"
      "rq_total_x 1\n";
  EXPECT_EQ(reg.PrometheusText(), expected);
}

// FormatDouble must not consult LC_NUMERIC: an embedding application
// that calls setlocale() must not be able to turn "36.5" into "36,5"
// (which breaks Prometheus parsing and the byte-identity contract).
TEST(ExpositionTest, NumberFormattingIgnoresLocale) {
  // Any locale whose decimal separator is ',' exercises the bug; skip
  // (rather than fail) on minimal images that ship only "C"/"POSIX".
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  std::string saved = previous != nullptr ? previous : "C";
  bool locale_available = false;
  for (const char* name : {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8", "fr_FR"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      locale_available = true;
      break;
    }
  }
  if (!locale_available) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  MetricsRegistry reg;
  reg.gauge("g_value")->Set(36.5);
  std::string prom = reg.PrometheusText();
  std::string json = reg.JsonText();
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_NE(prom.find("g_value 36.5\n"), std::string::npos) << prom;
  EXPECT_EQ(json, "{\"g_value\": 36.5}");
}

TEST(ExpositionTest, LabeledHistogramMergesLeIntoExistingLabels) {
  MetricsRegistry reg;
  Histogram* h =
      reg.histogram("lat_ms{backend=\"device\"}", {1.0}, "Latency by backend");
  h->Observe(0.5);
  std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("lat_ms_bucket{backend=\"device\",le=\"1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_ms_sum{backend=\"device\"} 0.5"), std::string::npos)
      << text;
}

TEST(ExpositionTest, JsonTextGolden) {
  MetricsRegistry reg;
  reg.counter("c_total")->Increment(7);
  reg.gauge("g_value")->Set(2.5);
  Histogram* h = reg.histogram("h_ms", {1.0});
  h->Observe(0.25);
  h->Observe(4.0);
  const char* expected =
      "{\"c_total\": 7, \"g_value\": 2.5, "
      "\"h_ms\": {\"buckets\": [{\"le\": \"1\", \"count\": 1}, "
      "{\"le\": \"inf\", \"count\": 2}], \"sum\": 4.25, \"count\": 2}}";
  EXPECT_EQ(reg.JsonText(), expected);
}

// Labeled metric names carry literal double quotes; as JSON keys they
// must be escaped or the whole document is invalid (this is the shape
// SolveService registers unconditionally, e.g.
// qmqo_service_requests_rejected_total{reason="invalid"}).
TEST(ExpositionTest, JsonTextEscapesLabeledNames) {
  MetricsRegistry reg;
  reg.counter("rq_rejected_total{reason=\"invalid\"}")->Increment(3);
  EXPECT_EQ(reg.JsonText(),
            "{\"rq_rejected_total{reason=\\\"invalid\\\"}\": 3}");
}

TEST(TraceTest, SpanTreeStructure) {
  SolveTrace trace;
  int root = trace.Open("root");
  trace.Tag("id", static_cast<int64_t>(7));
  int child = trace.Open("child");
  trace.AddModeled(2.5);
  int grandchild = trace.Open("grandchild");
  trace.Close(0.5);  // grandchild
  trace.Close(1.0);  // child
  trace.AddModeled(5.0);
  trace.Close(10.0);  // root
  EXPECT_FALSE(trace.has_open_span());

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(root)].parent, -1);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(root)].depth, 0);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(child)].parent, root);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(child)].depth, 1);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(grandchild)].parent, child);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(grandchild)].depth, 2);
  EXPECT_DOUBLE_EQ(trace.spans()[static_cast<size_t>(root)].modeled_ms, 5.0);
  EXPECT_DOUBLE_EQ(trace.spans()[static_cast<size_t>(child)].modeled_ms, 2.5);
  EXPECT_DOUBLE_EQ(trace.spans()[static_cast<size_t>(root)].wall_ms, 10.0);
}

TEST(TraceTest, JsonLineOmitsWallWhenAsked) {
  SolveTrace trace;
  trace.Open("root");
  trace.Tag("verdict", "completed");
  trace.AddModeled(5.0);
  trace.Close(123.456);
  EXPECT_EQ(trace.JsonLine(/*include_wall=*/false),
            "{\"spans\": [{\"name\": \"root\", \"parent\": -1, "
            "\"modeled_ms\": 5, \"tags\": {\"verdict\": \"completed\"}}]}");
  std::string with_wall = trace.JsonLine(/*include_wall=*/true);
  EXPECT_NE(with_wall.find("\"wall_ms\": 123.456"), std::string::npos)
      << with_wall;
}

// A wall tag follows the worker count, so like wall_ms it appears only in
// dumps that include wall time, after the span's deterministic tags.
TEST(TraceTest, WallTagsExportOnlyWithWall) {
  SolveTrace trace;
  int root = trace.Open("root");
  trace.Tag("reads", int64_t{30});
  trace.WallTagAt(root, "threads", 4);
  trace.Close(1.5);
  EXPECT_EQ(trace.JsonLine(/*include_wall=*/false),
            "{\"spans\": [{\"name\": \"root\", \"parent\": -1, "
            "\"modeled_ms\": 0, \"tags\": {\"reads\": \"30\"}}]}");
  EXPECT_EQ(trace.JsonLine(/*include_wall=*/true),
            "{\"spans\": [{\"name\": \"root\", \"parent\": -1, "
            "\"modeled_ms\": 0, \"wall_ms\": 1.5, \"tags\": "
            "{\"reads\": \"30\", \"threads\": \"4\"}}]}");
  EXPECT_EQ(trace.Pretty(/*include_wall=*/false),
            "root  modeled=0ms reads=30\n");
  EXPECT_EQ(trace.Pretty(/*include_wall=*/true),
            "root  modeled=0ms wall=1.5ms reads=30 threads=4\n");

  // A span with only wall tags has no "tags" object without wall time.
  SolveTrace bare;
  int only = bare.Open("bare");
  bare.WallTagAt(only, "threads", 2);
  bare.Close(0.0);
  EXPECT_EQ(bare.JsonLine(/*include_wall=*/false),
            "{\"spans\": [{\"name\": \"bare\", \"parent\": -1, "
            "\"modeled_ms\": 0}]}");
}

TEST(TraceTest, ModeledTotalsSumByName) {
  SolveTrace trace;
  trace.Open("a");
  trace.AddModeled(1.0);
  trace.Open("b");
  trace.AddModeled(2.0);
  trace.Close(0.0);
  trace.Close(0.0);
  trace.Open("b");
  trace.AddModeled(3.0);
  trace.Close(0.0);
  EXPECT_DOUBLE_EQ(trace.ModeledTotal("a"), 1.0);
  EXPECT_DOUBLE_EQ(trace.ModeledTotal("b"), 5.0);
  EXPECT_DOUBLE_EQ(trace.ModeledTotal("missing"), 0.0);
}

TEST(TraceTest, SpanScopeIsNullSafe) {
  SpanScope scope(nullptr, "never-recorded");
  scope.AddModeled(1.0);
  scope.Tag("k", "v");  // all no-ops; must not crash
}

TEST(TraceTest, SpanScopeRecordsOnDestruction) {
  SolveTrace trace;
  {
    SpanScope scope(&trace, "scoped");
    scope.AddModeled(2.0);
    scope.Tag("k", static_cast<int64_t>(1));
  }
  EXPECT_FALSE(trace.has_open_span());
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].name, "scoped");
  EXPECT_DOUBLE_EQ(trace.spans()[0].modeled_ms, 2.0);
  EXPECT_GE(trace.spans()[0].wall_ms, 0.0);
}

// The read-out runs unembed and merge interleaved across threads; its two
// spans must split the elapsed wall time, never sum thread busy time, so
// they fit inside the enclosing attempt and per-layer sums stay additive.
TEST(TraceTest, ReadOutWallsFitInsideTheAttempt) {
  chimera::ChimeraGraph graph(3, 3, 4);
  harness::PaperWorkloadOptions workload;
  workload.plans_per_query = 2;
  Rng rng(5);
  auto instance = harness::GeneratePaperInstance(graph, workload, &rng);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    SolveTrace trace;
    harness::QuantumMqoOptions options;
    options.device.num_reads = 80;
    options.device.num_gauges = 2;
    options.device.sa_sweeps = 32;
    options.device.num_threads = threads;
    options.trace = &trace;
    harness::SolveReport report =
        harness::ResilientSolver(harness::SolvePolicy())
            .Solve(instance->problem, instance->embedding, graph, options);
    ASSERT_TRUE(report.ok) << report.FailureChain();

    const std::vector<Span>& spans = trace.spans();
    int attempts_with_readout = 0;
    for (size_t a = 0; a < spans.size(); ++a) {
      if (spans[a].name != "solve.attempt") continue;
      double readout_wall_ms = 0.0;
      int readout_spans = 0;
      for (const Span& span : spans) {
        if (span.parent != static_cast<int>(a)) continue;
        if (span.name != "pipeline.unembed" && span.name != "pipeline.merge") {
          continue;
        }
        ++readout_spans;
        readout_wall_ms += span.wall_ms;
        std::string threads_tag;
        for (const auto& [key, value] : span.wall_tags) {
          if (key == "threads") threads_tag = value;
        }
        EXPECT_EQ(threads_tag, std::to_string(threads)) << span.name;
      }
      if (readout_spans == 0) continue;
      EXPECT_EQ(readout_spans, 2);
      EXPECT_LE(readout_wall_ms, spans[a].wall_ms);
      ++attempts_with_readout;
    }
    EXPECT_GT(attempts_with_readout, 0);
  }
}

// The device runs every gauge's reads in one fan-out, so a gauge span's
// wall time is its programming cycle plus its reads' share of the fan-out:
// the gauge spans add up to at most the anneal span, their read tags add
// up to the call's reads, and each gauge's modeled time is still its reads
// at 376 us each plus the latency injected into its cycle.
TEST(TraceTest, GaugeSpansAddUpInsideTheAnnealSpan) {
  chimera::ChimeraGraph graph(3, 3, 4);
  harness::PaperWorkloadOptions workload;
  workload.plans_per_query = 2;
  Rng rng(6);
  auto instance = harness::GeneratePaperInstance(graph, workload, &rng);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  util::FaultInjector faults(1);
  util::FaultSpec slow_first_cycle;
  slow_first_cycle.fail_first = 1;  // cycle key 0: gauge 0 of attempt 0
  slow_first_cycle.latency_ms = 5.0;
  faults.Arm("device.latency", slow_first_cycle);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    SolveTrace trace;
    harness::QuantumMqoOptions options;
    options.device.num_reads = 90;
    options.device.num_gauges = 4;  // 22, 22, 22 and 24 reads
    options.device.sa_sweeps = 32;
    options.device.num_threads = threads;
    options.faults = &faults;
    options.trace = &trace;
    auto result = harness::SolveQuantumMqo(instance->problem,
                                           instance->embedding, graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    const std::vector<Span>& spans = trace.spans();
    int anneal = -1;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "pipeline.anneal") anneal = static_cast<int>(i);
    }
    ASSERT_GE(anneal, 0);
    double gauge_wall_ms = 0.0;
    int64_t reads = 0;
    int gauges = 0;
    for (const Span& span : spans) {
      if (span.parent != anneal || span.name != "anneal.gauge") continue;
      int64_t gauge_reads = 0;
      for (const auto& [key, value] : span.tags) {
        if (key == "reads") gauge_reads = std::stoll(value);
      }
      const double latency_ms = gauges == 0 ? 5.0 : 0.0;
      EXPECT_DOUBLE_EQ(span.modeled_ms,
                       static_cast<double>(gauge_reads) * 376.0 / 1000.0 +
                           latency_ms)
          << "gauge " << gauges;
      EXPECT_GE(span.wall_ms, 0.0);
      gauge_wall_ms += span.wall_ms;
      reads += gauge_reads;
      ++gauges;
    }
    EXPECT_EQ(gauges, 4);
    EXPECT_EQ(reads, 90);
    EXPECT_LE(gauge_wall_ms, spans[static_cast<size_t>(anneal)].wall_ms);
  }
}

TEST(TracerTest, DumpsOneJsonLinePerTrace) {
  Tracer tracer;
  for (int i = 0; i < 3; ++i) {
    SolveTrace trace;
    trace.Open("request");
    trace.Tag("id", static_cast<int64_t>(i));
    trace.AddModeled(static_cast<double>(i));
    trace.Close(0.0);
    tracer.Commit(std::move(trace));
  }
  ASSERT_EQ(tracer.size(), 3u);
  std::string dump = tracer.DumpJsonLines(/*include_wall=*/false);
  int lines = 0;
  for (char c : dump) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3);
  EXPECT_DOUBLE_EQ(tracer.ModeledTotal("request"), 3.0);
}

}  // namespace
}  // namespace obs
}  // namespace qmqo
