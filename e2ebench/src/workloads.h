// The benchmark's three workloads over the public library API:
//
//   fit      CSV ingest -> MineJoinTree -> AnalyzeAjd on a fresh session
//            (the cold one-shot fitting path; no catch-up, no disk);
//   stream   a closed append loop: AppendBatch -> CatchUp -> Observe per
//            batch, with one planted structure shift (one drift re-mine);
//   restart  fit with a disk tier attached, PersistAll, tear everything
//            down, reopen the store, reattach, append a 2% delta, re-fit.
//
// Each workload repeats its measured round until the run's time budget is
// spent and reports medians, so one descheduling cannot move a figure.
#ifndef AJD_E2EBENCH_WORKLOADS_H_
#define AJD_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace e2ebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< measured-phase budget
  bool trace = false;     ///< record spans on alternate rounds
  bool smoke = false;     ///< tiny sizes, for the benchmark's own tests
  std::string work_dir;   ///< scratch space for stores and trace files
};

struct RunOutput {
  Tally tally;
  /// Set-up times, headline time per round (kTask, or kTracedTask on a
  /// traced round) and the reference samples between them.
  Timeline timeline;
  /// The workload's own end-to-end figures (fit_s, batch_ms_p95, ...),
  /// printed by name; the JSON result carries the uniform set.
  Metrics reported;
  /// Per-layer figures the workload computed (the rest stay 0).
  Metrics per_layer;
};

/// The per-layer metric names and units every traced run reports, in order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Runs cfg.workload; false for an unknown workload name.
bool RunWorkload(const RunConfig& cfg, Tracer* tracer, RunOutput* out);

}  // namespace e2ebench

#endif  // AJD_E2EBENCH_WORKLOADS_H_
