// Table 1 of the paper: "Milliseconds until finding the optimal solution
// via integer linear programming (LIN-MQO)" — min / median / max per
// class. The paper reports 9261/25205.5/34570 ms for 537 queries down to
// 47/48/51 ms for 108 queries.
//
// Two readings are reproduced:
//  (a) the paper classes with *time-to-best-found* under a time cap (our
//      from-scratch branch-and-bound, the stand-in for the paper's CPLEX
//      ILP, finds the final incumbent quickly but cannot complete
//      CPLEX-grade optimality proofs at 500+ queries; see README,
//      "Substitutions and assumptions");
//  (b) a proof-time growth sweep over sub-chip sizes where proofs finish,
//      showing Table 1's actual message: optimization time grows steeply
//      with the query count.
//
// QMQO_BENCH_THREADS=N fans instances across the shared worker pool —
// useful for shaking out the sweep quickly, but instances then contend
// for cores, so keep the default 1 thread when the reported wall-clock
// times are the measurement.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "solver/mqo_bnb.h"
#include "util/executor.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

int main() {
  using namespace qmqo;
  using namespace qmqo::bench;

  Rng chip_rng(1);
  chimera::ChimeraGraph graph =
      chimera::ChimeraGraph::DWave2XWithDefects(&chip_rng);

  const int instances = FullScale() ? 20 : 3;
  const double cap_ms = FullScale() ? 30000.0 : 2000.0;
  const int threads = BenchThreads();

  std::printf("=== Table 1 (a): time until LIN-MQO finds its final solution ===\n");
  std::printf("(%d instances per class, search capped at %.0f ms, "
              "%d fan-out threads%s)\n\n",
              instances, cap_ms, threads,
              FullScale() ? "" : "; QMQO_BENCH_FULL=1 for paper scale");

  TablePrinter table({"# queries", "plans", "min ms", "median ms", "max ms",
                      "proven", "paper (min/med/max ms)"});
  const char* paper_rows[] = {"9261 / 25205.5 / 34570", "129 / 178.5 / 206",
                              "45 / 128 / 241", "47 / 48 / 51"};

  for (size_t class_index = 0; class_index < 4; ++class_index) {
    const PaperClass& cls = kPaperClasses[class_index];
    int num_queries = ClampQueries(graph, cls);
    // Instances are independent (explicit per-instance seeds), so fan them
    // across the shared pool; per-slot results are aggregated in instance
    // order afterwards, keeping the table deterministic.
    std::vector<double> times(static_cast<size_t>(instances), 0.0);
    std::vector<uint8_t> proven_flags(static_cast<size_t>(instances), 0);
    std::vector<Status> statuses(static_cast<size_t>(instances));
    util::Executor::Run(
        nullptr, instances, threads,
        [&](int begin, int end, int /*chunk*/) {
          for (int instance_id = begin; instance_id < end; ++instance_id) {
            harness::PaperWorkloadOptions workload;
            workload.plans_per_query = cls.plans_per_query;
            workload.num_queries = num_queries;
            Rng rng(1000 * (class_index + 1) +
                    static_cast<uint64_t>(instance_id));
            auto instance =
                harness::GeneratePaperInstance(graph, workload, &rng);
            if (!instance.ok()) {
              statuses[static_cast<size_t>(instance_id)] = instance.status();
              continue;
            }
            solver::MqoBnbOptions options;
            options.time_limit_ms = cap_ms;
            solver::MqoBranchAndBound bnb(options);
            auto result = bnb.Solve(instance->problem);
            if (!result.ok()) {
              statuses[static_cast<size_t>(instance_id)] = result.status();
              continue;
            }
            times[static_cast<size_t>(instance_id)] =
                result->proven_optimal ? result->total_time_ms
                                       : result->time_to_best_ms;
            proven_flags[static_cast<size_t>(instance_id)] =
                result->proven_optimal ? 1 : 0;
          }
        });
    SummaryStats best_times;
    int proven = 0;
    for (int instance_id = 0; instance_id < instances; ++instance_id) {
      if (!statuses[static_cast<size_t>(instance_id)].ok()) {
        std::printf("instance failed: %s\n",
                    statuses[static_cast<size_t>(instance_id)]
                        .ToString()
                        .c_str());
        return 1;
      }
      best_times.Add(times[static_cast<size_t>(instance_id)]);
      proven += proven_flags[static_cast<size_t>(instance_id)];
    }
    table.AddRow({StrFormat("%d", num_queries),
                  StrFormat("%d", cls.plans_per_query),
                  StrFormat("%.1f", best_times.Min()),
                  StrFormat("%.1f", best_times.Median()),
                  StrFormat("%.1f", best_times.Max()),
                  StrFormat("%d/%d", proven, instances),
                  paper_rows[class_index]});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("=== Table 1 (b): proof-time growth with the query count ===\n");
  std::printf("(2-plan instances on sub-chips; full optimality proofs)\n\n");
  TablePrinter growth({"# queries", "chip", "min ms", "median ms", "max ms",
                       "proven"});
  struct SubChip {
    int rows;
    int cols;
  };
  const SubChip chips[] = {{2, 2}, {2, 4}, {3, 4}, {4, 4}};
  for (const SubChip& sub : chips) {
    chimera::ChimeraGraph small(sub.rows, sub.cols, 4);
    int num_queries = embedding::MeasuredMaxQueries(small, 2);
    std::vector<double> proof_time(static_cast<size_t>(instances), -1.0);
    std::vector<uint8_t> proven_flags(static_cast<size_t>(instances), 0);
    util::Executor::Run(
        nullptr, instances, threads,
        [&](int begin, int end, int /*chunk*/) {
          for (int instance_id = begin; instance_id < end; ++instance_id) {
            harness::PaperWorkloadOptions workload;
            workload.plans_per_query = 2;
            workload.num_queries = num_queries;
            Rng rng(9000 + static_cast<uint64_t>(instance_id) +
                    static_cast<uint64_t>(sub.rows * 100 + sub.cols));
            auto instance =
                harness::GeneratePaperInstance(small, workload, &rng);
            if (!instance.ok()) continue;
            solver::MqoBnbOptions options;
            options.time_limit_ms = FullScale() ? 120000.0 : 20000.0;
            auto result =
                solver::MqoBranchAndBound(options).Solve(instance->problem);
            if (!result.ok()) continue;
            proof_time[static_cast<size_t>(instance_id)] =
                result->total_time_ms;
            proven_flags[static_cast<size_t>(instance_id)] =
                result->proven_optimal ? 1 : 0;
          }
        });
    SummaryStats proof_times;
    int proven = 0;
    for (int instance_id = 0; instance_id < instances; ++instance_id) {
      if (proof_time[static_cast<size_t>(instance_id)] < 0.0) continue;
      proof_times.Add(proof_time[static_cast<size_t>(instance_id)]);
      proven += proven_flags[static_cast<size_t>(instance_id)];
    }
    growth.AddRow({StrFormat("%d", num_queries),
                   StrFormat("%dx%d cells", sub.rows, sub.cols),
                   StrFormat("%.1f", proof_times.Min()),
                   StrFormat("%.1f", proof_times.Median()),
                   StrFormat("%.1f", proof_times.Max()),
                   StrFormat("%d/%d", proven, instances)});
  }
  std::printf("%s\n", growth.ToString().c_str());
  std::printf(
      "(shape check vs the paper: time-to-solution spans orders of\n"
      "magnitude as the query count grows — 537-query instances are ~3\n"
      "orders harder than 108-query ones in Table 1; our proof sweep shows\n"
      "the same explosion at smaller absolute sizes because the paper's\n"
      "commercial LP-based solver prunes far better than our from-scratch\n"
      "combinatorial branch-and-bound)\n");
  return 0;
}
