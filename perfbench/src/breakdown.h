#ifndef PERFBENCH_BREAKDOWN_H_
#define PERFBENCH_BREAKDOWN_H_

// Per-layer wall-time attribution from `obs::SolveTrace` span trees.
//
// A span's self time is its wall time minus its direct children's. Each
// span name maps to one layer metric ("<module>.<metric>"); spans with no
// layer (the benchmark's own per-request root) add nothing, so their self
// time stays in `unattributed_ms`.

#include <cstdint>
#include <map>
#include <string>

#include "obs/trace.h"

namespace perfbench {

/// Wall milliseconds per layer metric name.
using LayerMs = std::map<std::string, double>;

/// Every layer a span can map to, plus the layers the benchmark times from
/// outside (submit, round, parse, derive, idle) — the full breakdown.
extern const char* const kLayerNames[];
extern const int kNumLayers;

/// Adds `scale` x the self time of every mapped span of `trace` to `out`.
void AttributeTrace(const qmqo::obs::SolveTrace& trace, double scale,
                    LayerMs* out);

/// Work counts read from span names and tags.
struct TraceCounts {
  int64_t gauges = 0;        ///< anneal.gauge spans (programming cycles)
  int64_t device_reads = 0;  ///< sum of anneal.gauge `reads` tags
  int64_t attempts = 0;      ///< solve.attempt spans that ran (attempt >= 1)
  int64_t retries = 0;       ///< attempts numbered 2 and up
  int64_t embeds = 0;        ///< pipeline.embed spans
  int64_t embed_cache_hits = 0;
  double device_wall_ms = 0.0;  ///< unscaled pipeline.anneal wall
};

void CountTrace(const qmqo::obs::SolveTrace& trace, TraceCounts* counts);

/// The integer value of tag `key` on span `index`, or `fallback`.
int64_t TagInt(const qmqo::obs::SolveTrace& trace, int index,
               const std::string& key, int64_t fallback);

}  // namespace perfbench

#endif  // PERFBENCH_BREAKDOWN_H_
