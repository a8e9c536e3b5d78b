#include "anneal/dwave_simulator.h"

#include <algorithm>
#include <cmath>

#include "anneal/gauge.h"
#include "anneal/parallel.h"
#include "util/fault.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace qmqo {
namespace anneal {
namespace {

// Fault sites of the device model (see DWaveOptions::faults for keys).
constexpr char kFaultProgram[] = "device.program";
constexpr char kFaultLatency[] = "device.latency";
constexpr char kFaultReadDropout[] = "device.read_dropout";
constexpr char kFaultStuckQubit[] = "device.stuck_qubit";
constexpr char kFaultChainBreak[] = "device.chain_break";

/// Per-read fault key: chronological read index within the call, shifted
/// into the epoch's band so retries (epoch + 1) draw fresh decisions while
/// epoch 0 keeps small keys for `fail_first` schedules.
uint64_t ReadFaultKey(uint64_t epoch, int read_index) {
  return (epoch << 32) | static_cast<uint64_t>(read_index);
}

/// Per-programming-cycle fault key: consecutive across epochs, so
/// "fail the first N programming cycles" spans retry attempts.
uint64_t CycleFaultKey(uint64_t epoch, int num_gauges, int gauge) {
  return epoch * static_cast<uint64_t>(num_gauges) +
         static_cast<uint64_t>(gauge);
}

/// Auto-scale factor fitting the Ising problem into the hardware range.
double ScaleFactor(const qubo::IsingProblem& ising, double h_range,
                   double j_range) {
  double max_h = ising.MaxAbsField();
  double max_j = ising.MaxAbsCoupling();
  double scale = 1.0;
  bool any = false;
  if (max_h > 0.0) {
    scale = h_range / max_h;
    any = true;
  }
  if (max_j > 0.0) {
    double j_scale = j_range / max_j;
    scale = any ? std::min(scale, j_scale) : j_scale;
    any = true;
  }
  return any ? scale : 1.0;
}

/// One programmed gauge, reduced to flat arrays so that every gauge of a
/// call stays programmed while the reads of all gauges run in one fan-out.
struct ProgrammedGauge {
  explicit ProgrammedGauge(GaugeTransform transform)
      : gauge(std::move(transform)) {}

  GaugeTransform gauge;
  /// Gauged, scaled, perturbed fields (index = spin).
  std::vector<double> fields;
  /// Gauged, scaled, perturbed couplings laid over the converted problem's
  /// CSR rows. A coupling that programs to exactly 0 is dropped, as a
  /// rebuilt problem would drop it: then `row_offsets`/`neighbor_ids` hold
  /// this gauge's own rows without it (both empty otherwise), so the
  /// sweeps see exactly the programmed adjacency.
  std::vector<double> weights;
  std::vector<int32_t> row_offsets;
  std::vector<qubo::VarId> neighbor_ids;
  /// The programmed problem as the sweeps read it.
  qubo::IsingView view{qubo::CsrView(), nullptr};
  Schedule beta{0.0, 0.0, ScheduleShape::kGeometric};
  /// Read r of this gauge anneals with `reads_rng.Fork(r)`.
  Rng reads_rng{0};
  int read_base = 0;
  int reads = 0;
};

/// Programs `out->gauge` onto `ising`: the spin-reversal transform, the
/// auto-scale by `scale`, and Gaussian control error on each h
/// (N(0, sigma*h_range)) and each J (N(0, sigma*j_range)) — the
/// per-programming "integrated control error" of the hardware. Values and
/// draws match, expression for expression and in the same order,
/// `GaugeTransform::Apply` followed by a scaled, perturbed rebuild of the
/// problem that keeps only nonzero weights; no `IsingProblem` is built.
void Program(const qubo::IsingProblem& ising, double scale,
             const DWaveOptions& options, Rng* rng, ProgrammedGauge* out) {
  const int n = ising.num_spins();
  const double sigma = options.control_error;
  const int8_t* sign = out->gauge.signs().data();
  out->fields.resize(static_cast<size_t>(n));
  for (qubo::VarId i = 0; i < n; ++i) {
    const double h = ising.field(i);
    double v = (h != 0.0 ? h * static_cast<double>(sign[i]) : 0.0) * scale;
    if (sigma > 0.0) v += rng->Gaussian(0.0, sigma * options.h_range);
    out->fields[static_cast<size_t>(i)] = v != 0.0 ? v : 0.0;
  }
  // Couplings in ascending (i, j) order: row i's entries past the
  // diagonal. Row j's copy of (i, j) is its next entry below the diagonal,
  // since those are visited in ascending i.
  const qubo::CsrGraph& csr = ising.csr();
  out->weights.resize(csr.weights.size());
  std::vector<int32_t> mirror(csr.row_offsets.begin(),
                              csr.row_offsets.end() - 1);
  bool any_dropped = false;
  for (qubo::VarId i = 0; i < n; ++i) {
    for (int32_t e = csr.row_offsets[static_cast<size_t>(i)];
         e < csr.row_offsets[static_cast<size_t>(i) + 1]; ++e) {
      const qubo::VarId j = csr.neighbor_ids[static_cast<size_t>(e)];
      if (j < i) continue;
      double v = (0.0 + csr.weights[static_cast<size_t>(e)] *
                            static_cast<double>(sign[i]) *
                            static_cast<double>(sign[j])) *
                 scale;
      if (sigma > 0.0) v += rng->Gaussian(0.0, sigma * options.j_range);
      out->weights[static_cast<size_t>(e)] = v;
      out->weights[static_cast<size_t>(mirror[static_cast<size_t>(j)]++)] = v;
      any_dropped = any_dropped || v == 0.0;
    }
  }
  const int32_t* rows = csr.row_offsets.data();
  const qubo::VarId* ids = csr.neighbor_ids.data();
  if (any_dropped) {
    std::vector<double> kept;
    out->row_offsets.assign(static_cast<size_t>(n) + 1, 0);
    for (qubo::VarId i = 0; i < n; ++i) {
      for (int32_t e = rows[i]; e < rows[i + 1]; ++e) {
        if (out->weights[static_cast<size_t>(e)] == 0.0) continue;
        out->neighbor_ids.push_back(ids[e]);
        kept.push_back(out->weights[static_cast<size_t>(e)]);
      }
      out->row_offsets[static_cast<size_t>(i) + 1] =
          static_cast<int32_t>(kept.size());
    }
    out->weights = std::move(kept);
    rows = out->row_offsets.data();
    ids = out->neighbor_ids.data();
  }
  out->view = qubo::IsingView(qubo::CsrView(n, rows, ids, out->weights.data()),
                              out->fields.data());
}

/// Read-level fault payloads, applied to the gauge-restored spins: stuck
/// qubits report their forced value on every read; a fired chain-break
/// flips `intensity` deterministically chosen spins (hash of the read key,
/// distinct per flip), corrupting chains downstream.
void ApplyReadFaults(const util::FaultInjector* faults,
                     const std::vector<int8_t>& stuck, bool any_stuck,
                     bool corrupt, uint64_t read_key,
                     std::vector<int8_t>* spins) {
  if (any_stuck) {
    for (size_t q = 0; q < spins->size(); ++q) {
      if (stuck[q] != 0) (*spins)[q] = stuck[q];
    }
  }
  if (corrupt) {
    const int n = static_cast<int>(spins->size());
    const int flips = std::max(1, faults->Intensity(kFaultChainBreak));
    for (int f = 0; f < flips; ++f) {
      uint64_t bits = faults->HashAt(
          kFaultChainBreak, read_key * 131 + static_cast<uint64_t>(f));
      int idx = static_cast<int>(bits % static_cast<uint64_t>(n));
      (*spins)[static_cast<size_t>(idx)] =
          static_cast<int8_t>(-(*spins)[static_cast<size_t>(idx)]);
    }
  }
}

}  // namespace

Result<DeviceResult> DWaveSimulator::Sample(
    const qubo::QuboProblem& physical) const {
  if (options_.num_reads <= 0) {
    return Status::InvalidArgument("num_reads must be positive");
  }
  if (options_.num_gauges <= 0) {
    return Status::InvalidArgument("num_gauges must be positive");
  }
  if (options_.h_range <= 0.0 || options_.j_range <= 0.0) {
    return Status::InvalidArgument("weight ranges must be positive");
  }
  Stopwatch wall;
  qubo::IsingWithOffset converted = qubo::QuboToIsing(physical);
  physical.Finalize();  // shared read-only across worker threads
  const int num_spins = converted.ising.num_spins();
  const double scale =
      ScaleFactor(converted.ising, options_.h_range, options_.j_range);

  // Disarmed injectors cost exactly this one test on the whole call.
  const util::FaultInjector* faults =
      options_.faults != nullptr && options_.faults->armed() ? options_.faults
                                                             : nullptr;
  const uint64_t epoch = options_.fault_epoch;
  const int64_t faults_before = faults != nullptr ? faults->faults_injected() : 0;

  // Stuck/dead qubits are a property of the chip, decided once per call and
  // keyed by the physical variable alone (epoch-independent: a dead qubit
  // stays dead across retries). The forced spin value derives from payload
  // hash bits.
  std::vector<int8_t> stuck;
  bool any_stuck = false;
  if (faults != nullptr) {
    stuck.assign(static_cast<size_t>(num_spins), 0);
    for (int q = 0; q < num_spins; ++q) {
      if (faults->ShouldFail(kFaultStuckQubit, static_cast<uint64_t>(q))) {
        stuck[static_cast<size_t>(q)] =
            (faults->HashAt(kFaultStuckQubit, static_cast<uint64_t>(q)) & 1u)
                ? int8_t{1}
                : int8_t{-1};
        any_stuck = true;
      }
    }
  }

  DeviceResult result;
  result.samples.set_max_samples(options_.max_samples);
  if (options_.record_reads) result.raw_reads.Reset(num_spins);
  Rng rng(options_.seed);
  const bool sa_backend =
      options_.backend == DeviceBackend::kSimulatedAnnealing;
  const int reads_per_gauge =
      std::max(1, options_.num_reads / options_.num_gauges);
  int reads_left = options_.num_reads;
  int read_base = 0;
  // Per-read fault masks over the call's chronological read indices,
  // decided serially up front so the fan-out only reads them.
  std::vector<uint8_t> drop_mask;
  std::vector<uint8_t> corrupt_mask;
  if (faults != nullptr) {
    drop_mask.assign(static_cast<size_t>(options_.num_reads), 0);
    corrupt_mask.assign(static_cast<size_t>(options_.num_reads), 0);
  }

  // Serial prologue: every gauge's fault decisions and programming cycle,
  // in gauge order, before any read runs.
  std::vector<ProgrammedGauge> gauges;
  gauges.reserve(static_cast<size_t>(options_.num_gauges));
  for (int g = 0; g < options_.num_gauges && reads_left > 0; ++g) {
    int reads = std::min(reads_per_gauge, reads_left);
    if (g + 1 == options_.num_gauges) reads = reads_left;
    reads_left -= reads;
    Stopwatch program_wall;
    GaugeTiming timing;
    timing.gauge = g;
    timing.reads = reads;

    if (faults != nullptr) {
      const uint64_t cycle_key = CycleFaultKey(epoch, options_.num_gauges, g);
      if (faults->ShouldFail(kFaultLatency, cycle_key)) {
        timing.injected_latency_ms = faults->LatencyMillis(kFaultLatency);
        result.injected_latency_ms += timing.injected_latency_ms;
      }
      if (faults->ShouldFail(kFaultProgram, cycle_key)) {
        return Status::Internal(StrFormat(
            "injected programming-cycle failure (gauge %d, epoch %llu)", g,
            static_cast<unsigned long long>(epoch)));
      }
      for (int read = read_base; read < read_base + reads; ++read) {
        const uint64_t key = ReadFaultKey(epoch, read);
        if (faults->ShouldFail(kFaultReadDropout, key)) {
          drop_mask[static_cast<size_t>(read)] = 1;
          ++timing.dropped_reads;
        } else if (faults->ShouldFail(kFaultChainBreak, key)) {
          corrupt_mask[static_cast<size_t>(read)] = 1;
        }
      }
      result.dropped_reads += timing.dropped_reads;
    }

    Rng gauge_rng = rng.Fork(static_cast<uint64_t>(g) * 2 + 1);
    ProgrammedGauge& gauge = gauges.emplace_back(
        GaugeTransform::Random(converted.ising.num_spins(), &gauge_rng));
    Program(converted.ising, scale, options_, &gauge_rng, &gauge);
    gauge.read_base = read_base;
    gauge.reads = reads;
    if (sa_backend) {
      auto [hot, cold] = SuggestBetaRange(gauge.view);
      gauge.beta.start = hot;
      gauge.beta.end = cold;
      gauge.reads_rng = gauge_rng;
    } else {
      gauge.reads_rng = Rng(gauge_rng.Next());
    }
    read_base += reads;
    timing.wall_ms = program_wall.ElapsedMillis();
    result.gauge_timings.push_back(timing);
  }

  // One fan-out over every read of every gauge. Chronological read `read`
  // is local read `read - read_base` of its gauge: every gauge before the
  // last holds `reads_per_gauge` reads, the last one the rest.
  const int total_reads = read_base;
  const int last_gauge = static_cast<int>(gauges.size()) - 1;
  auto gauge_of = [&](int read) -> const ProgrammedGauge& {
    return gauges[static_cast<size_t>(
        std::min(read / reads_per_gauge, last_gauge))];
  };
  // SA reads pack straight into `raw_reads`' per-read slots (sized up
  // front, so no append races them; dropped reads leave zero slots that
  // the serial compaction below removes). SQA reads land in per-read
  // slots of their own, expanded per gauge after the fan-out.
  const SimulatedQuantumAnnealer sqa(options_.sqa);
  PackedAssignments annealed(num_spins);
  std::vector<double> sqa_energy;
  if (!sa_backend) {
    annealed.Resize(total_reads);
    sqa_energy.resize(static_cast<size_t>(total_reads));
  } else if (options_.record_reads) {
    result.raw_reads.Resize(total_reads);
  }
  // SA reads run in groups of up to SweepGroupWidth() reads of one gauge
  // (the sweep's lanes); SQA reads one at a time.
  std::vector<int> gauge_reads;
  for (const ProgrammedGauge& gauge : gauges) gauge_reads.push_back(gauge.reads);
  const std::vector<ReadGroup> groups = SplitReadGroups(
      gauge_reads, sa_backend ? SweepGroupWidth() : 1);
  Stopwatch fan_out_wall;
  SampleSet sa_samples = RunReads(
      static_cast<int>(groups.size()), options_.num_threads,
      [&](int unit, SampleSet* local) {
        const ReadGroup group = groups[static_cast<size_t>(unit)];
        const ProgrammedGauge& gauge = gauge_of(group.first);
        auto read_rng = [&](int read) {
          return gauge.reads_rng.Fork(
              static_cast<uint64_t>(read - gauge.read_base));
        };
        if (!sa_backend) {
          Rng rng = read_rng(group.first);
          std::vector<int8_t> spins(static_cast<size_t>(num_spins));
          sqa_energy[static_cast<size_t>(group.first)] =
              sqa.AnnealRead(gauge.view, &rng, &spins);
          annealed.StoreSpins(group.first, spins);
          return;
        }
        // The group's reads that survive readout; a dropped read is never
        // annealed.
        std::vector<int> reads;
        std::vector<Rng> rngs;
        rngs.reserve(static_cast<size_t>(group.count));
        for (int read = group.first; read < group.first + group.count;
             ++read) {
          if (!drop_mask.empty() && drop_mask[static_cast<size_t>(read)]) {
            continue;  // read lost at the (simulated) readout stage
          }
          reads.push_back(read);
          rngs.push_back(read_rng(read));
        }
        std::vector<std::vector<int8_t>> spins(
            reads.size(), std::vector<int8_t>(static_cast<size_t>(num_spins)));
        for (size_t k = 0; k < reads.size(); ++k) {
          RandomSpins(&rngs[k], &spins[k]);
        }
        RunSweepGroup(gauge.view, gauge.beta, options_.sa_sweeps,
                      static_cast<int>(reads.size()), rngs.data(),
                      spins.data());
        for (size_t k = 0; k < reads.size(); ++k) {
          const int read = reads[k];
          std::vector<int8_t> restored = gauge.gauge.RestoreSpins(spins[k]);
          if (faults != nullptr) {
            ApplyReadFaults(faults, stuck, any_stuck,
                            corrupt_mask[static_cast<size_t>(read)] != 0,
                            ReadFaultKey(epoch, read), &restored);
          }
          // True energy on the customer's problem, not the noisy one.
          double energy = physical.EnergySpins(restored);
          if (options_.record_reads) {
            result.raw_reads.StoreSpins(read, restored);
          }
          local->AddSpins(restored, energy);
        }
      },
      options_.executor, options_.max_samples);
  if (sa_backend) {
    result.samples = std::move(sa_samples);
    if (options_.record_reads && !drop_mask.empty()) {
      result.raw_reads.EraseSlots(drop_mask);
    }
  } else {
    // Per gauge, the annealer's finalized (and capped) sample set is
    // expanded by occurrence into reads; dropout and chain-break masks
    // apply to that order, after the gauge is restored.
    std::vector<int8_t> spins;
    for (const ProgrammedGauge& gauge : gauges) {
      SampleSet gauge_samples;
      gauge_samples.set_max_samples(options_.max_samples);
      for (int read = gauge.read_base; read < gauge.read_base + gauge.reads;
           ++read) {
        annealed[read].CopySpinsTo(&spins);
        gauge_samples.AddSpins(spins, sqa_energy[static_cast<size_t>(read)]);
      }
      gauge_samples.Finalize();
      int read = gauge.read_base;
      for (const anneal::Sample& sample : gauge_samples.samples()) {
        sample.assignment.CopySpinsTo(&spins);
        const std::vector<int8_t> restored = gauge.gauge.RestoreSpins(spins);
        for (int k = 0; k < sample.num_occurrences; ++k, ++read) {
          if (!drop_mask.empty() && drop_mask[static_cast<size_t>(read)]) {
            continue;
          }
          std::vector<int8_t> faulted = restored;
          if (faults != nullptr) {
            ApplyReadFaults(faults, stuck, any_stuck,
                            corrupt_mask[static_cast<size_t>(read)] != 0,
                            ReadFaultKey(epoch, read), &faulted);
          }
          double energy = physical.EnergySpins(faulted);
          if (options_.record_reads) result.raw_reads.AppendSpins(faulted);
          result.samples.AddSpins(faulted, energy);
        }
      }
    }
  }
  // Each gauge's span: its programming time plus its reads' share of the
  // fan-out, so the spans add up to the call's wall time, not to the busy
  // time of every worker.
  const double fan_out_ms = fan_out_wall.ElapsedMillis();
  for (GaugeTiming& timing : result.gauge_timings) {
    timing.wall_ms += fan_out_ms * static_cast<double>(timing.reads) /
                      static_cast<double>(total_reads);
  }
  if (result.samples.samples().empty()) {
    // Every read dropped: nothing to report. Surfaced as a typed error so
    // orchestrators retry instead of consuming an empty result.
    return Status::ResourceExhausted(StrFormat(
        "device call lost all %d reads to injected dropout",
        options_.num_reads));
  }
  result.samples.Finalize();
  result.device_time_us = DeviceTimeForReads(options_.num_reads);
  result.wall_clock_ms = wall.ElapsedMillis();
  result.scale_factor = scale;
  if (faults != nullptr) {
    result.faults_injected = faults->faults_injected() - faults_before;
  }
  return result;
}

}  // namespace anneal
}  // namespace qmqo
