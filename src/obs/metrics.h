#ifndef QMQO_OBS_METRICS_H_
#define QMQO_OBS_METRICS_H_

/// \file metrics.h
/// The unified metrics surface: named counters, gauges, and fixed-bucket
/// histograms with one deterministic snapshot/exposition path.
///
/// Before this layer each subsystem kept its own ad-hoc counters (service
/// request counts, embedding-cache atomics, fault-site counts, breaker
/// windows). A `MetricsRegistry` replaces that with one surface, and for
/// the solve service it is the only counter store (no stats struct copies
/// it): components register metrics by name once (cheap pointer handles),
/// hot paths update them lock-free, and `Collect()` produces a snapshot
/// whose exposition (Prometheus text or JSON) is *deterministically
/// ordered* and — given deterministic inputs — byte-identical at any
/// thread count.
///
/// Determinism is a design constraint, not an accident:
///  * **Counters** accumulate int64 across a fixed number of shards
///    (cache-line padded atomics, shard picked per thread). Integer
///    addition is associative and commutative, so the summed snapshot
///    value is independent of which worker incremented which shard.
///  * **Histograms** keep per-shard int64 bucket counts and an int64
///    *fixed-point* sum (1/1000 units). No floating-point accumulation
///    means no dependence on observation order — the bit-identity
///    contract of the rest of the repo extends to the metrics layer.
///  * **Gauges** hold the raw bit pattern of a double (atomic int64).
///    Callers set them on serial paths (the service's admission/commit
///    path), so the last writer is deterministic.
///  * **Snapshots** are sorted by metric name, and all number formatting
///    is locale-independent (integer printf and std::to_chars, never
///    LC_NUMERIC-sensitive %g/%f) — equal bits in, equal bytes out.
///
/// Metric names follow Prometheus conventions (`qmqo_<area>_<what>_<unit>`)
/// and may carry a literal label suffix (`name{key="value"}`); the
/// exposition groups HELP/TYPE lines by base name. Registration is
/// get-or-create and thread-safe; re-registering a name with a different
/// kind returns nullptr (a programming error surfaced in tests, never a
/// crash in release paths — callers own their names).
///
/// Subsystems that keep private counters for layering reasons (embedding
/// cache, fault injector, circuit breakers) are mirrored onto the registry
/// through *collectors*: callbacks run at the start of every `Collect()`
/// on the snapshotting thread, so there is still exactly one snapshot
/// surface (see SolveService, which registers collectors for all three).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qmqo {
namespace obs {

/// Shards per metric: enough to keep 4-8 workers off each other's cache
/// lines without bloating snapshots (sharding changes contention, never
/// values).
inline constexpr int kMetricShards = 8;

namespace internal {
/// One cache line per shard so concurrent increments never false-share.
struct alignas(64) PaddedAtomic {
  std::atomic<int64_t> value{0};
};
/// Stable per-thread shard index in [0, kMetricShards).
int ThisThreadShard();
}  // namespace internal

/// Monotonically increasing int64, sharded for contention-free updates.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    shards_[internal::ThisThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Raises the counter to `absolute` (a no-op when it is already
  /// there). For collectors that mirror a monotonic source kept outside
  /// the registry (fault-injector firings, breaker admissions, cache
  /// hits): the mirror stays a *counter* in the exposition — TYPE gauge
  /// on an ever-increasing `_total` series breaks rate()/increase() on
  /// scrapers — while the collector still sets an absolute value. Only
  /// meaningful on a serial path (Collect() runs collectors serially);
  /// the source must never decrease.
  void SetToAbsolute(int64_t absolute) {
    int64_t delta = absolute - Value();
    if (delta > 0) Increment(delta);
  }

  /// Sum over all shards (exact: integer addition).
  int64_t Value() const {
    int64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  internal::PaddedAtomic shards_[kMetricShards];
};

/// A settable double (stored as raw bits, so reads round-trip exactly).
/// Set it on a serial path when the snapshot must be deterministic.
class Gauge {
 public:
  void Set(double value) {
    int64_t bits;
    static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
    __builtin_memcpy(&bits, &value, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }

  double Value() const {
    int64_t bits = bits_.load(std::memory_order_relaxed);
    double value;
    __builtin_memcpy(&value, &bits, sizeof(value));
    return value;
  }

 private:
  std::atomic<int64_t> bits_{0};
};

/// Fixed-bucket histogram. Bucket upper bounds are inclusive (Prometheus
/// `le` semantics); an implicit +Inf bucket catches the rest. The sum is
/// accumulated in fixed-point 1/1000 units (microseconds for millisecond
/// observations), so snapshots are bit-identical regardless of the order —
/// or thread — of observations.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  /// Observations so far (exact).
  int64_t Count() const;
  /// Sum of observed values, quantized to 1/1000 units.
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket `i` (bucket bounds_.size() = +Inf).
  int64_t BucketCount(size_t i) const;

 private:
  std::vector<double> bounds_;  // strictly increasing upper bounds
  /// shard-major: shard s, bucket b at [s * (bounds+1) + b]. Heap array
  /// rather than vector: atomics are neither copyable nor movable.
  std::unique_ptr<internal::PaddedAtomic[]> buckets_;
  internal::PaddedAtomic counts_[kMetricShards];
  internal::PaddedAtomic sum_thousandths_[kMetricShards];
};

/// One metric's state at snapshot time.
struct MetricPoint {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;  ///< full name, possibly with a {label} suffix
  std::string help;
  Kind kind = Kind::kCounter;
  int64_t counter_value = 0;
  double gauge_value = 0.0;
  /// Histogram payload: per-bucket non-cumulative counts, aligned with
  /// `bounds` plus one trailing +Inf bucket.
  std::vector<double> bounds;
  std::vector<int64_t> bucket_counts;
  int64_t count = 0;
  double sum = 0.0;
};

/// A deterministically ordered (name-sorted) snapshot with exposition.
struct MetricsSnapshot {
  std::vector<MetricPoint> points;

  /// Prometheus text exposition format (HELP/TYPE grouped by base name,
  /// histogram buckets as cumulative `_bucket{le="..."}` series).
  std::string PrometheusText() const;
  /// One flat JSON object: {"name": value, ...}; histograms expand to
  /// name.count / name.sum / name.bucket entries.
  std::string JsonText() const;
};

/// The registry. Registration is mutexed; returned handles are stable for
/// the registry's lifetime and update lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. Returns nullptr when `name` already exists as a
  /// different kind (and, for histograms, never re-buckets an existing
  /// one).
  Counter* counter(const std::string& name, const std::string& help = "");
  Gauge* gauge(const std::string& name, const std::string& help = "");
  Histogram* histogram(const std::string& name,
                       std::vector<double> upper_bounds,
                       const std::string& help = "");

  /// Registers a callback run (serially, on the calling thread) at the
  /// start of every Collect() — the bridge for subsystems that keep their
  /// own counters (cache stats, fault counts, breaker state).
  void AddCollector(std::function<void(MetricsRegistry*)> collector);

  /// Runs collectors, then snapshots every metric sorted by name.
  MetricsSnapshot Collect();

  /// Convenience: Collect() rendered as Prometheus text / JSON.
  std::string PrometheusText() { return Collect().PrometheusText(); }
  std::string JsonText() { return Collect().JsonText(); }

 private:
  struct Entry {
    MetricPoint::Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  /// std::map: node stability for handles + name-sorted iteration for
  /// deterministic snapshots.
  std::map<std::string, Entry> entries_;
  std::vector<std::function<void(MetricsRegistry*)>> collectors_;
};

/// Default latency buckets for modeled/wall millisecond histograms:
/// 0.1 ms to 10 s in a 1-2.5-5 progression.
std::vector<double> DefaultLatencyBucketsMs();

}  // namespace obs
}  // namespace qmqo

#endif  // QMQO_OBS_METRICS_H_
