#include "breakdown.h"

#include <cstdlib>
#include <vector>

namespace perfbench {

using qmqo::obs::Span;
using qmqo::obs::SolveTrace;

const char* const kLayerNames[] = {
    "mqo.parse_ms",          "workloads.parse_ms",
    "embedding.derive_ms",   "embedding.embed_ms",
    "anneal.device_ms",      "anneal.sampler_ms",
    "harness.solve_self_ms", "harness.attempt_self_ms",
    "harness.unembed_ms",    "harness.merge_ms",
    "service.submit_ms",     "service.round_ms",
    "service.request_self_ms", "loadgen.wait_ms",
};
const int kNumLayers = static_cast<int>(sizeof(kLayerNames) /
                                        sizeof(kLayerNames[0]));

namespace {

std::string TagValue(const Span& span, const std::string& key) {
  for (const auto& [k, v] : span.tags) {
    if (k == key) return v;
  }
  return "";
}

// The layer metric a span's self time belongs to; "" = unattributed.
const char* LayerOf(const Span& span) {
  const std::string& n = span.name;
  if (n == "mqo.parse") return "mqo.parse_ms";
  if (n == "embedding.derive") return "embedding.derive_ms";
  if (n == "harness.solve") return "harness.solve_self_ms";
  if (n == "service.request") return "service.request_self_ms";
  if (n == "pipeline.embed") return "embedding.embed_ms";
  if (n == "pipeline.anneal" || n == "anneal.gauge") return "anneal.device_ms";
  if (n == "pipeline.unembed") return "harness.unembed_ms";
  if (n == "pipeline.merge") return "harness.merge_ms";
  if (n == "solve.attempt") {
    const std::string backend = TagValue(span, "backend");
    return backend == "sqa" || backend == "sa" ? "anneal.sampler_ms"
                                               : "harness.attempt_self_ms";
  }
  return "";
}

}  // namespace

void AttributeTrace(const SolveTrace& trace, double scale, LayerMs* out) {
  const std::vector<Span>& spans = trace.spans();
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].wall_ms;
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.wall_ms;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const char* layer = LayerOf(spans[i]);
    if (*layer != '\0') (*out)[layer] += scale * self[i];
  }
}

int64_t TagInt(const SolveTrace& trace, int index, const std::string& key,
               int64_t fallback) {
  const std::string value =
      TagValue(trace.spans()[static_cast<size_t>(index)], key);
  return value.empty() ? fallback : std::strtoll(value.c_str(), nullptr, 10);
}

void CountTrace(const SolveTrace& trace, TraceCounts* counts) {
  const std::vector<Span>& spans = trace.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const int index = static_cast<int>(i);
    if (span.name == "anneal.gauge") {
      ++counts->gauges;
      counts->device_reads += TagInt(trace, index, "reads", 0);
    } else if (span.name == "pipeline.anneal") {
      counts->device_wall_ms += span.wall_ms;
    } else if (span.name == "pipeline.embed") {
      ++counts->embeds;
      counts->embed_cache_hits += TagInt(trace, index, "cache_hit", 0);
    } else if (span.name == "solve.attempt") {
      const int64_t attempt = TagInt(trace, index, "attempt", 0);
      if (attempt >= 1) ++counts->attempts;
      if (attempt >= 2) ++counts->retries;
    }
  }
}

}  // namespace perfbench
