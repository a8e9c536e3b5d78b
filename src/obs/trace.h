#ifndef QMQO_OBS_TRACE_H_
#define QMQO_OBS_TRACE_H_

/// \file trace.h
/// Per-request solve traces: span trees recording where time goes inside a
/// solve — embed / anneal (per gauge) / unembed / merge in the pipeline,
/// one span per ladder attempt in the resilient solver, and queue-wait /
/// admission / round bookkeeping in the service.
///
/// Every span carries *two* durations:
///  * **modeled_ms** — the repo's deterministic modeled clock
///    (`util::Deadline` charges): pure in (seed, inputs), bit-identical at
///    any worker-thread count. This is what determinism tests compare.
///  * **wall_ms** — real elapsed time from `Stopwatch`, inherently
///    nondeterministic. Exporters take an `include_wall` flag so trace
///    dumps can be byte-compared with wall times stripped.
///
/// Concurrency follows the service's round discipline: each request's
/// `SolveTrace` is built by exactly one worker (per-index slot), then
/// committed to the shared `Tracer` serially in slot order. The Tracer
/// itself is therefore single-threaded by contract and unsynchronized.
///
/// Span taxonomy (stable names — tests and bench parse them):
///   service.request   root; tags: request id, verdict, round, queue-wait
///   solve.attempt     one per ladder attempt; tags: rung, backend,
///                     attempt, status, backoff_ms, faults
///   pipeline.embed    embedding (tag cache_hit=0/1)
///   pipeline.anneal   device/SQA sampling; children: anneal.gauge
///   anneal.gauge      one per gauge transform; tags: reads, dropped
///   pipeline.unembed  chain unembedding + repair over all reads
///   pipeline.merge    per-read swap descent and evaluation; with unembed
///                     it splits the read-out's elapsed wall time (wall
///                     tag threads = read-out chunks)

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace qmqo {
namespace obs {

/// Deterministic, locale-independent millisecond rendering quantized to
/// 1/1000 (the fixed-point resolution of the metrics layer): "12.345",
/// "0.5", "25". Every trace duration and millisecond tag value must go
/// through this — printf %f honors LC_NUMERIC, and an embedding app that
/// calls setlocale() must not be able to corrupt trace JSON.
std::string FormatMs(double ms);

/// One node of a span tree. Stored flat in SolveTrace::spans with parent
/// indices; children appear after their parent in depth-first order.
struct Span {
  std::string name;
  int parent = -1;  ///< index into SolveTrace::spans, -1 for the root
  int depth = 0;
  double modeled_ms = 0.0;  ///< deterministic modeled-clock duration
  double wall_ms = 0.0;     ///< nondeterministic wall-clock duration
  /// Ordered key=value annotations (ints/strings rendered by the caller);
  /// order is append order, deterministic for deterministic callers.
  std::vector<std::pair<std::string, std::string>> tags;
  /// Annotations that, like wall_ms, depend on how the work was split
  /// across threads (e.g. read-out chunks). Exported only with
  /// include_wall, after `tags`.
  std::vector<std::pair<std::string, std::string>> wall_tags;
};

/// A single request's span tree. Built by one thread; no synchronization.
class SolveTrace {
 public:
  /// Opens a child of the innermost open span (or the root). Returns the
  /// span index for use with Close/TagAt.
  int Open(const std::string& name);

  /// Closes the innermost open span, recording its wall duration.
  /// Modeled time is charged separately via AddModeled (the modeled clock
  /// has no "now" to subtract — callers know the charge exactly).
  void Close(double wall_ms);

  /// Adds modeled milliseconds to the innermost open span.
  void AddModeled(double modeled_ms);

  /// Appends a tag to the innermost open span.
  void Tag(const std::string& key, const std::string& value);
  void Tag(const std::string& key, int64_t value);

  /// Tag a specific span (open or closed) by index.
  void TagAt(int index, const std::string& key, const std::string& value);
  void TagAt(int index, const std::string& key, int64_t value);

  /// Appends a wall tag (see Span::wall_tags) to a specific span by index.
  void WallTagAt(int index, const std::string& key, int64_t value);

  /// Adds modeled milliseconds to a specific span by index.
  void AddModeledAt(int index, double modeled_ms);
  /// Sets the wall duration of a specific span by index.
  void SetWallAt(int index, double wall_ms);

  bool has_open_span() const { return !open_.empty(); }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& mutable_spans() { return spans_; }

  /// Sum of modeled_ms over spans with this exact name.
  double ModeledTotal(const std::string& name) const;
  /// Sum of wall_ms over spans with this exact name.
  double WallTotal(const std::string& name) const;

  /// One JSON object (single line): {"spans": [...]}. With
  /// include_wall=false, wall_ms fields and wall tags are omitted and the
  /// output is deterministic for deterministic inputs.
  std::string JsonLine(bool include_wall) const;

  /// Indented tree rendering for humans; modeled always shown, wall time
  /// and wall tags when include_wall. Fault/verdict tags render inline.
  std::string Pretty(bool include_wall) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of indices of open spans
};

/// RAII helper: opens a span on construction, closes it (with wall time)
/// on destruction. Null-safe — with trace == nullptr every method is a
/// no-op, so instrumented code costs nothing when tracing is off.
class SpanScope {
 public:
  SpanScope(SolveTrace* trace, const std::string& name);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope();

  void AddModeled(double modeled_ms) {
    if (trace_ != nullptr) trace_->AddModeled(modeled_ms);
  }
  void Tag(const std::string& key, const std::string& value) {
    if (trace_ != nullptr) trace_->Tag(key, value);
  }
  void Tag(const std::string& key, int64_t value) {
    if (trace_ != nullptr) trace_->Tag(key, value);
  }

 private:
  SolveTrace* trace_;
  int index_ = -1;
  Stopwatch stopwatch_;
};

/// Collects completed traces. Single-threaded by contract: the service
/// commits per-slot traces serially in slot order (the same discipline
/// that makes outcome callbacks deterministic), benches commit from their
/// driver loop.
class Tracer {
 public:
  /// Takes ownership of a finished trace.
  void Commit(SolveTrace trace);

  const std::vector<SolveTrace>& traces() const { return traces_; }
  size_t size() const { return traces_.size(); }
  void Clear() { traces_.clear(); }

  /// JSON-lines dump: one JSON object per committed trace, in commit
  /// order. Deterministic when include_wall=false.
  std::string DumpJsonLines(bool include_wall) const;

  /// Sum of modeled_ms over spans with `name` across all traces.
  double ModeledTotal(const std::string& name) const;
  /// Sum of wall_ms over spans with `name` across all traces.
  double WallTotal(const std::string& name) const;

 private:
  std::vector<SolveTrace> traces_;
};

}  // namespace obs
}  // namespace qmqo

#endif  // QMQO_OBS_TRACE_H_
