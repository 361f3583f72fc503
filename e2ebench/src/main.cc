// ajd_e2e: the end-to-end schema-fitting benchmark program (see README.md).
//
//   ajd_e2e --workload fit|stream|restart --seed N --seconds S --trace 0|1
//           [--smoke] [--work-dir DIR]
//
// Prints the workload's own figures by name, one per line, then as the last
// line one JSON object: {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end set (setup_s, task_s,
// peak_rss_mb); with --trace 1, every per-layer metric. Exits 1 when any
// operation or correctness check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace e2ebench;

int Usage(const char* why) {
  std::fprintf(stderr,
               "ajd_e2e: %s\nusage: ajd_e2e --workload fit|stream|restart "
               "--seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunConfig* cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      cfg->smoke = true;
    } else if (arg == "--workload" && has_value) {
      cfg->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      cfg->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      cfg->work_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !cfg->workload.empty() && cfg->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.work_dir = ".bench_build/work";
  if (!ParseArgs(argc, argv, &cfg)) return Usage("bad arguments");
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) return Usage(("cannot create " + cfg.work_dir).c_str());

  const HostInfo host = CalibrateHost();
  Tracer tracer;
  RunOutput out;
  Timeline& timeline = out.timeline;
  timeline.SampleReference();
  if (!RunWorkload(cfg, &tracer, &out)) return Usage("unknown workload");
  timeline.SampleReference();
  const std::vector<double> setups = timeline.Values(Timeline::kSetup);
  const std::vector<double> tasks = timeline.Values(Timeline::kTask);
  const std::vector<double> traced_tasks =
      timeline.Values(Timeline::kTracedTask);
  const std::vector<double> references = timeline.Values(Timeline::kReference);

  // End-to-end: the uniform set every workload reports. The two times are
  // medians of wall seconds at the reference host speed (Timeline,
  // harness.h); the raw wall times are printed above the result.
  Metrics end_to_end;
  end_to_end["setup_s"] = {
      Median(timeline.AtReferenceSpeed(Timeline::kSetup)), "s"};
  end_to_end["task_s"] = {Median(timeline.AtReferenceSpeed(Timeline::kTask)),
                          "s"};
  end_to_end["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  out.tally.Check(!tasks.empty() && !setups.empty(), "no round completed");

  // Per-layer: counters and span figures from the workload, plus host
  // context, tracing overhead and per-layer self time per traced round.
  Metrics per_layer;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = out.per_layer.find(name);
    per_layer[name] = {it == out.per_layer.end() ? 0.0 : it->second.value,
                       unit};
  }
  per_layer["host.hw_threads"].value = host.hw_threads;
  per_layer["host.affinity_cpus"].value = host.affinity_cpus;
  per_layer["host.cpu_quota"].value = host.cpu_quota;
  per_layer["host.spin_threads"].value = host.spin_threads;
  per_layer["host.spin_ratio"].value = host.spin_ratio;
  per_layer["host.reference_ms"].value = Median(references) * 1e3;
  if (cfg.trace) {
    const double traced = Median(traced_tasks);
    const double untraced = Median(tasks);
    per_layer["trace.overhead_pct"].value =
        untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
    per_layer["trace.spans"].value = static_cast<double>(tracer.spans().size());
    const double rounds = static_cast<double>(traced_tasks.size());
    for (const auto& [layer, seconds] : LayerSelfSeconds(tracer.spans())) {
      auto it = per_layer.find(layer + ".self_s");
      if (it != per_layer.end() && rounds > 0) it->second.value = seconds / rounds;
    }
    const std::string path = cfg.work_dir + "/trace-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".jsonl";
    out.tally.CheckStatus(
        tracer.WriteJsonLines(
            path, "{\"workload\":\"" + cfg.workload + "\",\"seed\":" +
                      std::to_string(cfg.seed) + ",\"smoke\":" +
                      (cfg.smoke ? "true" : "false") + "}"),
        "writing the trace");
  }

  // Human-readable figures, by name with units.
  std::printf("workload %s seed %llu%s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.smoke ? " (smoke)" : "");
  out.reported["setup_s"] = {Median(setups), "s"};
  out.reported["setup_s@reference"] = end_to_end["setup_s"];
  out.reported["task_s@reference"] = end_to_end["task_s"];
  out.reported["reference_ms"] = {Median(references) * 1e3, "ms"};
  out.reported["peak_rss_mb"] = end_to_end["peak_rss_mb"];
  out.reported["error_rate"] = {
      out.tally.attempted() == 0
          ? 1.0
          : static_cast<double>(out.tally.failed()) /
                static_cast<double>(out.tally.attempted()),
      "ratio"};
  for (const auto& [name, m] : out.reported) {
    std::printf("  %-22s %14.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-22s %14.6f ratio (%.0f threads)\n", "host.spin_ratio",
              host.spin_ratio, host.spin_threads);
  auto print_list = [](const char* label, const std::vector<double>& values) {
    std::printf("  %s:", label);
    for (double v : values) std::printf(" %.4f", v);
    std::printf("\n");
  };
  print_list("setup_s per set-up", setups);
  print_list("task_s per untraced round", tasks);
  if (cfg.trace) print_list("task_s per traced round", traced_tasks);
  print_list("reference_s samples", references);

  const Metrics& metrics = cfg.trace ? per_layer : end_to_end;
  std::string json = "{\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    const bool finite = std::isfinite(m.value);
    out.tally.Check(finite, "metric " + name + " is not finite");
    json += (first ? "\"" : ",\"") + name + "\":{\"value\":" +
            JsonNumber(finite ? m.value : 0.0) + ",\"unit\":\"" + m.unit +
            "\"}";
    first = false;
  }
  const bool correct = out.tally.failed() == 0;
  json = "{\"correct\":" + std::string(correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(out.tally.attempted()) +
         ",\"failed\":" + std::to_string(out.tally.failed()) + "," +
         json.substr(1) + "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
