#ifndef QMQO_ANNEAL_DWAVE_SIMULATOR_H_
#define QMQO_ANNEAL_DWAVE_SIMULATOR_H_

/// \file dwave_simulator.h
/// A software model of the D-Wave 2X device (the hardware substitution for
/// this reproduction; see DESIGN.md).
///
/// What the model reproduces about the real device:
///  * input format: a physical QUBO (already embedded onto the hardware
///    graph);
///  * weight ranges: problems are auto-scaled so |h| <= h_range and
///    |J| <= j_range, exactly like the SAPI auto-scale;
///  * imperfect control ("integrated control errors" / imperfect
///    shielding): per-programming Gaussian noise on h and J, which is the
///    reason annealing runs do not always return the optimum;
///  * gauge transformations: reads are split across `num_gauges` random
///    spin-reversal transforms (paper: 10 gauges x 100 reads);
///  * timing: each read is charged the paper's 129 us anneal + 247 us
///    read-out = 376 us of *modeled device time*; the simulator's own wall
///    clock is reported separately and never stands in for device time.
///
/// The sampling itself is performed by simulated annealing (default) or
/// simulated quantum annealing on the noisy, gauged Ising problem.
///
/// One call runs in two phases. A serial prologue makes, gauge by gauge,
/// the cycle's fault decisions and programs it (transform, auto-scale,
/// control error), keeping each programmed gauge as flat arrays laid over
/// the converted problem's CSR structure. Then every read of every gauge
/// runs in one self-scheduled fan-out (anneal/parallel.h), with no barrier
/// between gauges; on the SA backend of an AVX2 CPU a worker claims up to
/// `SweepGroupWidth()` reads of one gauge at a time (eight with AVX-512,
/// four with AVX2) and sweeps them in lockstep (anneal/sweep_kernel.h).
/// Read r of gauge g still forks the gauge's stream at its local index, so
/// results are those of programming and annealing the gauges one after the
/// other, bit for bit, at any thread count.

#include <cstdint>
#include <vector>

#include "anneal/packed.h"
#include "anneal/sample_set.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "qubo/qubo.h"
#include "util/status.h"

namespace qmqo {
namespace util {
class Executor;
class FaultInjector;
}  // namespace util

namespace anneal {

/// Backend used to draw samples from the device model.
enum class DeviceBackend {
  kSimulatedAnnealing,
  kSimulatedQuantumAnnealing,
};

/// Options for `DWaveSimulator`, defaults mirroring the paper's setup.
struct DWaveOptions {
  /// Total reads (paper: 1000).
  int num_reads = 1000;
  /// Random gauges; reads are split evenly (paper: 10).
  int num_gauges = 10;
  /// Modeled device timing per read, microseconds (paper Section 7.1).
  double anneal_time_us = 129.0;
  double readout_time_us = 247.0;
  /// Hardware weight ranges (D-Wave 2X: h in [-2,2], J in [-1,1]).
  double h_range = 2.0;
  double j_range = 1.0;
  /// Control-error stddev as a fraction of the full weight range, applied
  /// per programming cycle (per gauge). 0 disables noise. The default is
  /// calibrated so the first-read quality gap on the paper workload is a
  /// few percent, matching the paper's reported 1.5% run-1 vs run-1000 gap.
  double control_error = 0.01;
  /// Inner sampler.
  DeviceBackend backend = DeviceBackend::kSimulatedAnnealing;
  /// Sweeps per read for the SA backend. Bounded so the per-read quality
  /// models the hardware's imperfect (but good) convergence.
  int sa_sweeps = 256;
  /// Options for the SQA backend (its num_reads/seed fields are ignored).
  SqaOptions sqa;
  /// Keep every read in chronological order in `DeviceResult::raw_reads`
  /// (needed for best-after-k-runs curves; costs memory).
  bool record_reads = false;
  uint64_t seed = 7;
  /// Worker threads for the call's one read fan-out over all gauges:
  /// 1 = serial (default, keeps `wall_clock_ms` comparable across
  /// machines), 0 = hardware concurrency. A worker claims a group of up
  /// to W = `SweepGroupWidth()` reads of one gauge at a time (the SA
  /// sweep's lanes: W is 8 on an AVX-512 CPU, 4 with AVX2 only; one read
  /// otherwise and on the SQA backend), so a gauge of R reads keeps at
  /// most ceil(R/W) workers busy. Results are bit-identical for every
  /// thread count (see anneal/parallel.h).
  int num_threads = 1;
  /// Worker pool the read fan-out runs on (both backends); null = the
  /// process-wide `util::Executor::Shared()` pool. Either way the pool is
  /// created once and reused — a device call spawns zero threads. Never
  /// owned.
  util::Executor* executor = nullptr;
  /// Streaming top-k retention for `DeviceResult::samples` (0 = unlimited),
  /// applied per gauge and to the final union; `raw_reads` is unaffected.
  /// See SaOptions::max_samples.
  int max_samples = 0;
  /// Fault injection (never owned; null = no faults, one pointer test on
  /// the hot path). Sites queried by the device model:
  ///   "device.program"      per programming cycle (key: epoch x gauges +
  ///                         gauge) — the whole call fails with an error;
  ///   "device.latency"      per programming cycle (same key) — adds the
  ///                         spec's latency_ms to `injected_latency_ms`;
  ///   "device.read_dropout" per read (key: epoch << 32 | chronological
  ///                         read index) — the read is lost: absent from
  ///                         `samples` and `raw_reads`;
  ///   "device.stuck_qubit"  per physical variable (key: compact index;
  ///                         epoch-independent — dead qubits stay dead) —
  ///                         every read reports the stuck value there;
  ///   "device.chain_break"  per read (key as read_dropout) — `intensity`
  ///                         deterministically chosen spins are flipped
  ///                         after annealing, forcing broken chains.
  /// Decisions are pure in (injector seed, site, key): results stay
  /// bit-identical at any thread count with faults armed.
  const util::FaultInjector* faults = nullptr;
  /// Epoch mixed into per-cycle/per-read fault keys, so an orchestrator
  /// retrying a call (fresh gauges) draws fresh fault decisions. Keyed
  /// schedules ("fail the first N cycles") span epochs when the caller
  /// increments this by 1 per attempt.
  uint64_t fault_epoch = 0;
};

/// Per-gauge accounting, in gauge order, so observability layers can build
/// one span per gauge without threading a tracer through the device.
/// `wall_ms` is nondeterministic; everything else is pure in (options,
/// seed, faults).
struct GaugeTiming {
  int gauge = 0;
  int reads = 0;          ///< reads scheduled for this gauge
  int dropped_reads = 0;  ///< reads lost to injected dropout in this gauge
  /// The gauge's programming time plus its reads' share
  /// (`reads / total reads`) of the fan-out's wall time: the gauges' reads
  /// run interleaved, so the timings add up to the call's wall time, never
  /// to the busy time of all workers.
  double wall_ms = 0.0;
  double injected_latency_ms = 0.0;  ///< latency faults fired this cycle
};

/// Result of one device call.
struct DeviceResult {
  /// Samples over the physical variables, energies w.r.t. the *original*
  /// (unscaled, noise-free) physical QUBO.
  SampleSet samples;
  /// All reads in chronological order (only when
  /// `DWaveOptions::record_reads`), bit-packed at 64 qubits per word: the
  /// paper-scale 1000 reads x 1152 qubits cost ~144 KB of flat words
  /// instead of ~1.2 MB of per-read byte vectors. Iterate for
  /// `AssignmentRef` views or unpack per read (`raw_reads[i].ToBytes()`).
  PackedAssignments raw_reads;
  /// Modeled device time: num_reads * (anneal + readout), microseconds.
  double device_time_us = 0.0;
  /// Actual wall-clock simulation time, milliseconds.
  double wall_clock_ms = 0.0;
  /// Factor the weights were multiplied by to fit the hardware range.
  double scale_factor = 1.0;
  /// Faults fired inside this call (0 without an armed injector).
  int64_t faults_injected = 0;
  /// Reads lost to injected read dropout.
  int dropped_reads = 0;
  /// Modeled latency injected by "device.latency" faults, milliseconds
  /// (not included in `device_time_us`; callers charge it to deadlines).
  double injected_latency_ms = 0.0;
  /// One entry per executed programming cycle, in gauge order.
  std::vector<GaugeTiming> gauge_timings;
};

/// The device façade.
class DWaveSimulator {
 public:
  explicit DWaveSimulator(const DWaveOptions& options) : options_(options) {}

  /// Draws samples for a physical QUBO. Fails on invalid option
  /// combinations (no reads, no gauges).
  Result<DeviceResult> Sample(const qubo::QuboProblem& physical) const;

  /// Modeled device time for `num_reads` reads under these options, in
  /// microseconds (pure arithmetic; exposed for time-to-quality plots).
  double DeviceTimeForReads(int num_reads) const {
    return static_cast<double>(num_reads) *
           (options_.anneal_time_us + options_.readout_time_us);
  }

  const DWaveOptions& options() const { return options_; }

 private:
  DWaveOptions options_;
};

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_DWAVE_SIMULATOR_H_
