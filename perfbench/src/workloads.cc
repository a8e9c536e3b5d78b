#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

#include "baselines/greedy.h"
#include "chimera/topology.h"
#include "embedding/clustered.h"
#include "harness/paper_workload.h"
#include "harness/resilient_solver.h"
#include "mqo/serialization.h"
#include "mqo/solution.h"
#include "obs/trace.h"
#include "service/solve_service.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads/coloring.h"
#include "workloads/graph.h"
#include "workloads/max_clique.h"
#include "workloads/max_cut.h"
#include "workloads/serialization.h"

namespace perfbench {
namespace {

using namespace qmqo;

// mqo-paper: the paper's 2-plan class at chip capacity, 1000 reads over
// 10 gauges (Section 7.1). Smoke runs cut the reads. The defect chip is
// hardware, not input: one fixed draw of 55 broken qubits, the same for
// every workload seed. The seed draws the instances' costs and savings.
constexpr uint64_t kChipSeed = 20160901;
constexpr int kPaperPool = 3;
constexpr int kPaperReads = 1000;
constexpr int kPaperGauges = 10;
constexpr int kSmokePaperReads = 40;
constexpr int kSmokePaperGauges = 2;

// service-*: a 4x4x4 chip; 3 of every 4 payloads are 3-plan MQO instances
// of 12-19 queries (device rung at 10 reads x 1 gauge), the rest planted
// graph workloads (SQA rung). Sizes and kinds repeat in a fixed pattern, so
// the seed changes the instances and their order but not the mix.
constexpr int kServicePool = 96;
constexpr int kSmallQueueCapacity = 64;
constexpr int kServiceReads = 10;
constexpr int kServiceGauges = 1;

// service-overload: an open loop at about twice service-small's measured
// capacity (about 440 answers/s on a 4-core x86-64 container, Release
// build), a bounded queue, and the two request-keyed fault sites armed.
constexpr double kOverloadRatePerS = 900.0;
constexpr int kOverloadQueueCapacity = 32;
constexpr double kBrownoutProbability = 0.05;
constexpr double kWorkerCrashProbability = 0.01;

// Seed salts: every input and solver seed derives from Config::seed.
constexpr uint64_t kPoolSalt = 2;
constexpr uint64_t kPolicySalt = 3;
constexpr uint64_t kDeviceSalt = 4;
constexpr uint64_t kFaultSalt = 5;
constexpr uint64_t kPrioritySalt = 6;
constexpr uint64_t kGraphSalt = 1000;
constexpr uint64_t kRequestSalt = 1u << 20;

[[noreturn]] void SetupFailed(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: set-up failed: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return Rng(seed).Fork(salt).Next();
}

// The classical reference of an MQO answer: greedy construction followed
// by swap descent, computed at set-up.
double ReferenceCost(const mqo::MqoProblem& problem) {
  mqo::MqoSolution solution = baselines::GreedySolver::Construct(problem);
  mqo::SwapDescent(problem, &solution);
  return mqo::EvaluateCost(problem, solution);
}

// "" when `solution` is a valid plan selection whose evaluated cost equals
// the reported one; otherwise the reason.
std::string CheckMqoAnswer(const mqo::MqoProblem& problem,
                           const mqo::MqoSolution& solution, double cost) {
  Status valid = mqo::ValidateSolution(problem, solution);
  if (!valid.ok()) return valid.ToString();
  const double evaluated = mqo::EvaluateCost(problem, solution);
  if (std::fabs(evaluated - cost) > 1e-9 * std::max(1.0, std::fabs(cost))) {
    return StrFormat("reported cost %.17g but EvaluateCost gives %.17g", cost,
                     evaluated);
  }
  return "";
}

std::string Selections(const mqo::MqoSolution& solution) {
  std::string out;
  for (int q = 0; q < solution.num_queries(); ++q) {
    out += StrFormat("%d,", solution.selected(q));
  }
  return out;
}

void LogIncorrect(int64_t count, const std::string& why) {
  if (count <= 5) {
    std::fprintf(stderr, "perfbench: INCORRECT answer: %s\n", why.c_str());
  }
}

// ---------------------------------------------------------------------
// mqo-paper
// ---------------------------------------------------------------------

struct PaperItem {
  mqo::MqoProblem problem;
  std::string payload;
  double reference_cost = 0.0;
  int physical_qubits = 0;
};

class MqoPaperWorkload : public BenchWorkload {
 public:
  explicit MqoPaperWorkload(const Config& config)
      : config_(config), chip_(MakeChip()) {
    Rng rng(SubSeed(config.seed, kPoolSalt));
    for (int i = 0; i < (config.smoke ? 2 : kPaperPool); ++i) {
      harness::PaperWorkloadOptions options;  // 2 plans, chip capacity
      Result<harness::PaperInstance> instance =
          harness::GeneratePaperInstance(chip_, options, &rng);
      if (!instance.ok()) SetupFailed("paper instance", instance.status());
      PaperItem item;
      item.payload = mqo::ToText(instance->problem);
      item.reference_cost = ReferenceCost(instance->problem);
      item.physical_qubits = instance->embedding.TotalQubits();
      item.problem = std::move(instance->problem);
      pool_.push_back(std::move(item));
    }
  }

  std::unique_ptr<Lane> MakeLane(bool traced, int threads) const override;
  double warmup_ms() const override { return 0.0; }
  double block_ms() const override { return 0.0; }
  int prefix_blocks() const override { return 1; }

  const Config& config() const { return config_; }
  const chimera::ChimeraGraph& chip() const { return chip_; }
  const std::vector<PaperItem>& pool() const { return pool_; }

 private:
  static chimera::ChimeraGraph MakeChip() {
    Rng rng(kChipSeed);
    return chimera::ChimeraGraph::DWave2XWithDefects(&rng, 55);
  }

  Config config_;
  chimera::ChimeraGraph chip_;
  std::vector<PaperItem> pool_;
};

// One client, closed loop: payload -> mqo::FromText ->
// PairMatchingEmbedder::Embed -> ResilientSolver::Solve -> plan selection.
class MqoPaperLane : public Lane {
 public:
  MqoPaperLane(const MqoPaperWorkload& workload, bool traced, int threads)
      : workload_(workload), traced_(traced), threads_(threads) {
    policy_.seed = SubSeed(workload.config().seed, kPolicySalt);
  }

  void RunBlock(double budget_ms) override {
    const double start = NowMs();
    const double active_before = stats_.active_ms;
    const int64_t answered_before = stats_.answered;
    do {
      RunRequest();
    } while (NowMs() - start < budget_ms);
    stats_.block_rates.push_back(
        static_cast<double>(stats_.answered - answered_before) /
        ((stats_.active_ms - active_before) / 1000.0));
  }

 private:
  void RunRequest() {
    const uint64_t index = next_++;
    const PaperItem& item = workload_.pool()[index % workload_.pool().size()];
    const bool smoke = workload_.config().smoke;
    harness::QuantumMqoOptions options;
    options.device.num_reads = smoke ? kSmokePaperReads : kPaperReads;
    options.device.num_gauges = smoke ? kSmokePaperGauges : kPaperGauges;
    options.device.num_threads = threads_;
    options.device.seed =
        SubSeed(workload_.config().seed, kRequestSalt + index);
    obs::SolveTrace trace;
    obs::SolveTrace* span_trace = traced_ ? &trace : nullptr;
    options.trace = span_trace;

    harness::SolveReport report;
    Status error;
    const double start = NowMs();
    {
      obs::SpanScope request_span(span_trace, "bench.request");
      Result<mqo::MqoProblem> parsed = [&] {
        obs::SpanScope span(span_trace, "mqo.parse");
        return mqo::FromText(item.payload);
      }();
      if (!parsed.ok()) {
        error = parsed.status();
      } else {
        Result<embedding::Embedding> embedded = [&] {
          obs::SpanScope span(span_trace, "embedding.derive");
          return embedding::PairMatchingEmbedder::Embed(
              parsed->num_queries(), workload_.chip());
        }();
        if (!embedded.ok()) {
          error = embedded.status();
        } else {
          obs::SpanScope span(span_trace, "harness.solve");
          report = harness::ResilientSolver(policy_).Solve(
              *parsed, *embedded, workload_.chip(), options);
          if (!report.ok) error = report.final_status;
        }
      }
    }
    const double latency = NowMs() - start;
    stats_.active_ms += latency;

    // Off the clock: check the answer, then analyze the trace.
    ++stats_.attempted;
    ++stats_.settled;
    ++stats_.mqo_payloads;
    stats_.mqo_bytes += static_cast<int64_t>(item.payload.size());
    if (!error.ok()) {
      ++stats_.failed;
      std::fprintf(stderr, "perfbench: mqo-paper request %llu failed: %s\n",
                   static_cast<unsigned long long>(index),
                   error.ToString().c_str());
      return;
    }
    stats_.digest = Fnv1a(
        StrFormat("%llu|%d|%.17g|%s;", static_cast<unsigned long long>(index),
                  static_cast<int>(report.backend), report.cost,
                  Selections(report.solution).c_str()),
        stats_.digest);
    const std::string why =
        CheckMqoAnswer(item.problem, report.solution, report.cost);
    if (!why.empty()) {
      LogIncorrect(++stats_.incorrect, why);
      return;
    }
    ++stats_.answered;
    stats_.latency_ms.push_back(latency);
    stats_.quality_pct_sum += 100.0 * item.reference_cost / report.cost;
    stats_.gap_pct_sum +=
        100.0 * (report.cost - item.reference_cost) / item.reference_cost;
    ++stats_.answered_by[static_cast<int>(report.backend)];
    stats_.fallbacks += report.fallbacks;
    if (report.backend == harness::SolveBackend::kDevice &&
        !report.attempts.empty()) {
      stats_.broken_chain_sum += report.attempts.back().broken_chain_fraction;
      ++stats_.device_answers;
    }
    if (traced_) {
      AttributeTrace(trace, 1.0, &stats_.layers);
      const int64_t reads_before = stats_.counts.device_reads;
      CountTrace(trace, &stats_.counts);
      stats_.spin_updates +=
          static_cast<double>(stats_.counts.device_reads - reads_before) *
          options.device.sa_sweeps * item.physical_qubits;
      ++stats_.traces;
    }
  }

  const MqoPaperWorkload& workload_;
  const bool traced_;
  const int threads_;
  harness::SolvePolicy policy_;
  uint64_t next_ = 0;
};

std::unique_ptr<Lane> MqoPaperWorkload::MakeLane(bool traced,
                                                 int threads) const {
  return std::make_unique<MqoPaperLane>(*this, traced, threads);
}

// ---------------------------------------------------------------------
// service-small and service-overload
// ---------------------------------------------------------------------

struct ServiceItem {
  std::string payload;
  // MQO payloads.
  bool is_mqo = true;
  mqo::MqoProblem problem;
  double reference_cost = 0.0;
  int physical_qubits = 0;
  std::vector<int> cluster_sizes;
  // Graph payloads.
  std::shared_ptr<workloads::Workload> workload;
};

template <typename T>
std::shared_ptr<workloads::Workload> Unwrap(Result<std::shared_ptr<T>> made) {
  if (!made.ok()) SetupFailed("graph workload", made.status());
  return std::move(made).value();
}

// A planted max-clique (kind 0), max-cut (1) or coloring (2) instance.
// Colorings get one spare color: a planted 3-partite graph colored with 4.
// With exactly 3 colors SQA returned an improper coloring on rare
// instances (2 of 9000 solves), which would fail a run's answer checks.
std::shared_ptr<workloads::Workload> MakeGraphWorkload(int kind,
                                                       uint64_t seed) {
  switch (kind) {
    case 0:
      return Unwrap(
          workloads::MaxCliqueWorkload::MakePlanted(16, 5, 0.3, seed));
    case 1:
      return Unwrap(
          workloads::MaxCutWorkload::MakePlanted(16, 0.4, 3.0, seed));
    default: {
      Result<workloads::KColorableInstance> planted =
          workloads::KColorableGraph(12, 3, 0.35, seed);
      if (!planted.ok()) SetupFailed("graph workload", planted.status());
      return Unwrap(workloads::ColoringWorkload::Create(
          std::move(planted->graph), 4));
    }
  }
}

class ServiceWorkload : public BenchWorkload {
 public:
  ServiceWorkload(const Config& config, bool overload)
      : config_(config), overload_(overload), chip_(4, 4, 4) {
    Rng rng(SubSeed(config.seed, kPoolSalt));
    for (int i = 0; i < kServicePool; ++i) {
      ServiceItem item;
      if (i % 4 == 3) {
        item.is_mqo = false;
        // Overload sheds requests to the SA and greedy rungs, whose
        // colorings are often improper (infeasible), so its mix carries
        // only max-clique and max-cut, which every rung answers feasibly.
        const int kind = overload ? (i / 4) % 2 : (i / 4) % 3;
        item.workload =
            MakeGraphWorkload(kind, SubSeed(config.seed, kGraphSalt + i));
        item.payload = workloads::ToText(workloads::SpecOf(*item.workload));
      } else {
        harness::PaperWorkloadOptions options;
        options.plans_per_query = 3;
        options.num_queries = 12 + (i / 4) % 8;
        Result<harness::PaperInstance> instance =
            harness::GeneratePaperInstance(chip_, options, &rng);
        if (!instance.ok()) SetupFailed("service instance", instance.status());
        item.payload = mqo::ToText(instance->problem);
        item.reference_cost = ReferenceCost(instance->problem);
        item.physical_qubits = instance->embedding.TotalQubits();
        item.cluster_sizes.assign(
            static_cast<size_t>(instance->problem.num_queries()), 3);
        item.problem = std::move(instance->problem);
      }
      pool_.push_back(std::move(item));
    }
    rng.Shuffle(&pool_);
    if (overload_) {
      faults_ = std::make_unique<util::FaultInjector>(
          SubSeed(config.seed, kFaultSalt));
      util::FaultSpec brownout;
      brownout.probability = kBrownoutProbability;
      faults_->Arm("service.brownout", brownout);
      util::FaultSpec crash;
      crash.probability = kWorkerCrashProbability;
      faults_->Arm("service.worker_crash", crash);
    }
  }

  std::unique_ptr<Lane> MakeLane(bool traced, int threads) const override;
  double warmup_ms() const override { return config_.smoke ? 20.0 : 500.0; }
  double block_ms() const override { return config_.smoke ? 20.0 : 250.0; }
  int prefix_blocks() const override { return 4; }

  const Config& config() const { return config_; }
  bool overload() const { return overload_; }
  const chimera::ChimeraGraph& chip() const { return chip_; }
  const std::vector<ServiceItem>& pool() const { return pool_; }
  const util::FaultInjector* faults() const { return faults_.get(); }

 private:
  Config config_;
  bool overload_;
  chimera::ChimeraGraph chip_;
  std::vector<ServiceItem> pool_;
  std::unique_ptr<util::FaultInjector> faults_;
};

// One client loop over a SolveService: SubmitText then ProcessRound.
// Closed loop (service-small): keep round_width requests outstanding.
// Open loop (service-overload): fixed-rate arrivals, latency timed from
// each request's due time on the lane clock.
class ServiceLane : public Lane {
 public:
  ServiceLane(const ServiceWorkload& workload, bool traced, int threads)
      : workload_(workload),
        traced_(traced),
        priority_rng_(SubSeed(workload.config().seed, kPrioritySalt)) {
    service::ServiceOptions options;
    options.graph = &workload.chip();
    options.num_threads = threads;
    options.round_width = kRoundWidth;
    options.queue_capacity = workload.overload() ? kOverloadQueueCapacity
                                                 : kSmallQueueCapacity;
    options.pipeline.device.num_reads = kServiceReads;
    options.pipeline.device.num_gauges = kServiceGauges;
    options.pipeline.device.num_threads = 1;
    options.pipeline.device.seed =
        SubSeed(workload.config().seed, kDeviceSalt);
    options.policy.seed = SubSeed(workload.config().seed, kPolicySalt);
    options.faults = workload.faults();
    options.tracer = traced ? &tracer_ : nullptr;
    service_ = std::make_unique<service::SolveService>(options);
  }

  void RunBlock(double budget_ms) override {
    block_start_ms_ = NowMs();
    const double block_end = lane_ms_ + budget_ms;
    do {
      if (workload_.overload()) {
        OpenLoopStep(block_end);
      } else {
        for (int i = 0; i < kRoundWidth; ++i) Submit(LaneNow());
        Round();
      }
    } while (LaneNow() < block_end);
    const double elapsed = NowMs() - block_start_ms_;
    lane_ms_ += elapsed;
    stats_.active_ms += elapsed;
    const int64_t answered_before = stats_.answered;
    CheckBlock();
    stats_.block_rates.push_back(
        static_cast<double>(stats_.answered - answered_before) /
        (elapsed / 1000.0));
    if (traced_) AnalyzeBlock();
    settled_.clear();
    submitted_.clear();
    round_wall_ms_.clear();
    submit_wall_ms_ = 0.0;
  }

 private:
  struct Pending {
    size_t item = 0;
    double start_ms = 0.0;  // lane clock: submit (closed) or due (open)
  };
  struct Settled {
    size_t outcome = 0;
    size_t item = 0;
    double latency_ms = 0.0;
  };

  double LaneNow() const { return lane_ms_ + (NowMs() - block_start_ms_); }

  // Submits every arrival that is due, then serves one round, or sleeps
  // until the next arrival when the queue is empty.
  void OpenLoopStep(double block_end) {
    const double interval_ms = 1000.0 / kOverloadRatePerS;
    while (next_due_ms_ <= LaneNow()) {
      stats_.lag_ms.push_back(LaneNow() - next_due_ms_);
      Submit(next_due_ms_);
      next_due_ms_ += interval_ms;
    }
    if (!service_->queue().empty()) {
      Round();
      return;
    }
    const double until = std::min(next_due_ms_, block_end);
    const double start = NowMs();
    const double wait = until - LaneNow();
    if (wait > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait));
    }
    stats_.layers["loadgen.wait_ms"] += NowMs() - start;
  }

  void Submit(double start_ms) {
    const size_t item = next_item_++ % workload_.pool().size();
    const ServiceItem& payload = workload_.pool()[item];
    const service::RequestPriority priority =
        workload_.overload() && priority_rng_.Bernoulli(1.0 / 3.0)
            ? service::RequestPriority::kInteractive
            : service::RequestPriority::kBatch;
    const double start = NowMs();
    Result<uint64_t> id = service_->SubmitText(payload.payload, priority);
    submit_wall_ms_ += NowMs() - start;
    submitted_.push_back(item);
    if (payload.is_mqo) {
      ++stats_.mqo_payloads;
      stats_.mqo_bytes += static_cast<int64_t>(payload.payload.size());
    } else {
      ++stats_.workload_payloads;
      stats_.workload_bytes += static_cast<int64_t>(payload.payload.size());
    }
    if (id.ok()) {
      pending_[*id] = Pending{item, start_ms};
      return;
    }
    ++stats_.attempted;
    if (id.status().code() == StatusCode::kResourceExhausted) {
      ++stats_.rejected;
    } else {
      ++stats_.failed;
      std::fprintf(stderr, "perfbench: submit failed: %s\n",
                   id.status().ToString().c_str());
    }
  }

  void Round() {
    const double start = NowMs();
    service_->ProcessRound();
    round_wall_ms_[rounds_++] = NowMs() - start;
    ++stats_.rounds;
    const double now = LaneNow();
    const std::vector<service::SolveOutcome>& outcomes = service_->outcomes();
    for (; outcome_cursor_ < outcomes.size(); ++outcome_cursor_) {
      auto it = pending_.find(outcomes[outcome_cursor_].id);
      if (it == pending_.end()) continue;  // never: every id is pending
      settled_.push_back(Settled{outcome_cursor_, it->second.item,
                                 now - it->second.start_ms});
      pending_.erase(it);
    }
  }

  void CheckBlock() {
    const std::vector<service::SolveOutcome>& outcomes = service_->outcomes();
    for (const Settled& settled : settled_) {
      const service::SolveOutcome& outcome = outcomes[settled.outcome];
      const ServiceItem& item = workload_.pool()[settled.item];
      ++stats_.attempted;
      ++stats_.settled;
      stats_.shed += outcome.shed_degraded ? 1 : 0;
      stats_.breaker_skips += outcome.breaker_skips;
      std::string answer = item.is_mqo
                               ? Selections(outcome.solution)
                               : StrFormat("%g", outcome.workload_solution
                                                     .objective);
      stats_.digest = Fnv1a(
          StrFormat("%llu|%d|%d|%.17g|%s;",
                    static_cast<unsigned long long>(outcome.id),
                    static_cast<int>(outcome.status.code()),
                    static_cast<int>(outcome.backend), outcome.cost,
                    answer.c_str()),
          stats_.digest);
      if (!outcome.status.ok()) {
        // An injected worker crash settles before any solve attempt.
        if (outcome.attempts == 0 &&
            outcome.status.code() == StatusCode::kInternal) {
          ++stats_.crashed;
        } else {
          ++stats_.failed;
          std::fprintf(stderr, "perfbench: request %llu failed: %s\n",
                       static_cast<unsigned long long>(outcome.id),
                       outcome.status.ToString().c_str());
        }
        continue;
      }
      double quality = 0.0;
      double gap = 0.0;
      std::string why;
      if (item.is_mqo) {
        why = CheckMqoAnswer(item.problem, outcome.solution, outcome.cost);
        quality = 100.0 * item.reference_cost / outcome.cost;
        gap = 100.0 * (outcome.cost - item.reference_cost) /
              item.reference_cost;
      } else {
        const workloads::Workload& w = *item.workload;
        const workloads::WorkloadSolution& solution =
            outcome.workload_solution;
        Status feasible = w.ValidateFeasible(solution);
        if (!feasible.ok()) why = feasible.ToString();
        if (w.kind() == workloads::WorkloadKind::kGraphColoring) {
          // Proper colorings only (checked above): every edge is satisfied.
          quality = 100.0;
        } else {
          quality = 100.0 * solution.objective / w.known_optimum();
        }
        gap = 100.0 * w.OptimalityGap(solution) /
              std::max(1.0, w.known_optimum());
      }
      if (!why.empty()) {
        LogIncorrect(++stats_.incorrect, why);
        continue;
      }
      ++stats_.answered;
      stats_.latency_ms.push_back(settled.latency_ms);
      stats_.quality_pct_sum += quality;
      stats_.gap_pct_sum += gap;
      ++stats_.answered_by[static_cast<int>(outcome.backend)];
      // The default ladder lists the backends in enum order, so the
      // answering backend's index is the number of rungs fallen through.
      stats_.fallbacks += static_cast<int>(outcome.backend);
    }
  }

  // Splits the block's wall time over layers. Per round: the round's wall
  // minus its slowest request is service scheduling (serial admission,
  // fan-out, commit); the slowest request's wall is the parallel phase,
  // shared out to layers by their share of the round's summed span time.
  // Submit wall is split by re-timing the parse and embedding derivation
  // calls on the same payloads.
  void AnalyzeBlock() {
    std::unordered_map<uint64_t, size_t> item_of;
    for (const Settled& settled : settled_) {
      item_of[service_->outcomes()[settled.outcome].id] = settled.item;
    }
    std::map<int64_t, std::vector<const obs::SolveTrace*>> by_round;
    for (const obs::SolveTrace& trace : tracer_.traces()) {
      by_round[TagInt(trace, 0, "round", -1)].push_back(&trace);
    }
    for (const auto& [round, traces] : by_round) {
      double sum = 0.0;
      double slowest = 0.0;
      for (const obs::SolveTrace* trace : traces) {
        sum += trace->spans()[0].wall_ms;
        slowest = std::max(slowest, trace->spans()[0].wall_ms);
      }
      const double scale = sum > 0.0 ? slowest / sum : 0.0;
      for (const obs::SolveTrace* trace : traces) {
        AttributeTrace(*trace, scale, &stats_.layers);
        const int64_t reads_before = stats_.counts.device_reads;
        CountTrace(*trace, &stats_.counts);
        auto it = item_of.find(
            static_cast<uint64_t>(TagInt(*trace, 0, "id", 0)));
        if (it != item_of.end()) {
          stats_.spin_updates +=
              static_cast<double>(stats_.counts.device_reads - reads_before) *
              device_sweeps_ * workload_.pool()[it->second].physical_qubits;
        }
      }
      auto wall = round_wall_ms_.find(round);
      if (wall != round_wall_ms_.end()) {
        stats_.layers["service.round_ms"] += wall->second - slowest;
      }
    }
    stats_.traces += static_cast<int64_t>(tracer_.size());
    tracer_.Clear();

    double parse_mqo = 0.0;
    double parse_workloads = 0.0;
    double derive = 0.0;
    for (size_t index : submitted_) {
      const ServiceItem& item = workload_.pool()[index];
      double start = NowMs();
      if (item.is_mqo) {
        Result<mqo::MqoProblem> parsed = mqo::FromText(item.payload);
        parse_mqo += NowMs() - start;
        start = NowMs();
        Result<embedding::Embedding> embedded =
            embedding::ClusteredEmbedder::Embed(item.cluster_sizes,
                                                workload_.chip());
        derive += NowMs() - start;
      } else {
        Result<workloads::WorkloadSpec> spec =
            workloads::FromText(item.payload);
        parse_workloads += NowMs() - start;
      }
    }
    const double carved = parse_mqo + parse_workloads + derive;
    const double fit =
        carved > submit_wall_ms_ && carved > 0.0 ? submit_wall_ms_ / carved
                                                 : 1.0;
    stats_.layers["mqo.parse_ms"] += fit * parse_mqo;
    stats_.layers["workloads.parse_ms"] += fit * parse_workloads;
    stats_.layers["embedding.derive_ms"] += fit * derive;
    stats_.layers["service.submit_ms"] += submit_wall_ms_ - fit * carved;
  }

  const ServiceWorkload& workload_;
  const bool traced_;
  const int device_sweeps_ = anneal::DWaveOptions().sa_sweeps;
  Rng priority_rng_;
  // The tracer outlives the service that points at it.
  obs::Tracer tracer_;
  std::unique_ptr<service::SolveService> service_;

  double lane_ms_ = 0.0;
  double block_start_ms_ = 0.0;
  double next_due_ms_ = 0.0;
  size_t next_item_ = 0;
  int64_t rounds_ = 0;
  size_t outcome_cursor_ = 0;
  std::unordered_map<uint64_t, Pending> pending_;

  // Block records, consumed between blocks.
  std::vector<Settled> settled_;
  std::vector<size_t> submitted_;
  std::map<int64_t, double> round_wall_ms_;
  double submit_wall_ms_ = 0.0;
};

std::unique_ptr<Lane> ServiceWorkload::MakeLane(bool traced,
                                                int threads) const {
  return std::make_unique<ServiceLane>(*this, traced, threads);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"mqo-paper", "service-small",
                                                 "service-overload"};
  return names;
}

std::unique_ptr<BenchWorkload> MakeBenchWorkload(const std::string& name,
                                                 const Config& config) {
  if (name == "mqo-paper") return std::make_unique<MqoPaperWorkload>(config);
  if (name == "service-small") {
    return std::make_unique<ServiceWorkload>(config, /*overload=*/false);
  }
  if (name == "service-overload") {
    return std::make_unique<ServiceWorkload>(config, /*overload=*/true);
  }
  return nullptr;
}

double OverloadRatePerSecond() { return kOverloadRatePerS; }

}  // namespace perfbench
