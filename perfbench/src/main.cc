// saged_perfbench: the repository benchmark's binary.
//
//   saged_perfbench --workload detect-mem|detect-stream|serve-kb
//                   --seed N --seconds S --trace 0|1
//
// Generates the workload's inputs from the seed, sets the program up, runs
// the measured phase for S seconds, checks every output, and prints as its
// last stdout line one JSON object: {"correct", "attempted", "failed",
// "metrics"}, the metrics being the end-to-end set (--trace 0) or the
// per-layer set (--trace 1). Generated files live in a scratch directory
// under ./.bench_run that is removed on exit.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

/// Hard ceiling on one run; a hung reply or stalled server ends the process
/// (SIGALRM) without a result line.
constexpr unsigned kWatchdogSeconds = 170;

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

void PrintResult(const Report& report, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const auto& specs = trace ? PerLayerMetrics() : EndToEndMetrics();
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = report.values.find(specs[i].name);
    double value = it == report.values.end() ? 0.0 : it->second;
    // JSON has no infinity; a latency made infinite by failures prints as
    // the largest double (the run is then also incorrect).
    if (!std::isfinite(value)) value = 1.7976931348623157e308;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"cells_per_s", "cells/s"},
      {"latency_p50_ms", "ms"},  {"latency_p90_ms", "ms"},
      {"goodput_rps", "1/s"},    {"rss_peak_mb", "MiB"},
      {"f1", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"common.parallelism", "ratio"},
      {"common.cpu_s_per_mcell", "s"},
      {"common.executor_steals_per_task", "ratio"},
      {"common.executor_queue_ms_p50", "ms"},
      {"data.csv_mb_per_s", "MB/s"},
      {"data.read_csv_ms", "ms"},
      {"text.w2v_train_ms", "ms"},
      {"text.w2v_share", "ratio"},
      {"features.featurize_ms", "ms"},
      {"features.stats_ms", "ms"},
      {"features.dict_cell_share", "ratio"},
      {"features.dict_hit_ratio", "ratio"},
      {"core.extract_ms", "ms"},
      {"core.match_ms", "ms"},
      {"core.models_per_column", "count"},
      {"core.meta_features_ms", "ms"},
      {"core.label_ms", "ms"},
      {"core.meta_train_ms", "ms"},
      {"core.classify_ms", "ms"},
      {"core.replay_accounted_pct", "%"},
      {"core.replay_matches_run", "bool"},
      {"ml.base_model_invocations", "count"},
      {"ml.base_fit_ms_p50", "ms"},
      {"kb.write_store_ms", "ms"},
      {"kb.open_ms", "ms"},
      {"kb.shard_loads_per_request", "count"},
      {"kb.evictions_per_request", "count"},
      {"kb.cache_hit_ratio", "ratio"},
      {"kb.candidates_per_query", "count"},
      {"serve.detect_ms_p50", "ms"},
      {"serve.outside_detect_ms_p50", "ms"},
      {"serve.queue_ms_p90", "ms"},
      {"serve.rejected", "count"},
      {"serve.requests_sent", "count"},
      {"serve.requests_ok", "count"},
      {"serve.requests_failed", "count"},
      {"process.rss_after_setup_mb", "MiB"},
      {"process.trace_overhead_pct", "%"},
  };
  return specs;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: saged_perfbench --workload detect-mem|detect-stream|"
                 "serve-kb --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  void (*run)(const Options&, Report*) = nullptr;
  if (options.workload == "detect-mem") run = RunDetectMem;
  if (options.workload == "detect-stream") run = RunDetectStream;
  if (options.workload == "serve-kb") run = RunServeKb;
  if (run == nullptr) {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }
  alarm(kWatchdogSeconds);
  options.work_dir =
      ".bench_run/" + options.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << options.work_dir << ": " << ec.message()
              << "\n";
    return 1;
  }
  Report report;
  Progress("start");
  run(options, &report);
  Progress("done");
  std::filesystem::remove_all(options.work_dir, ec);
  PrintResult(report, options.trace);
  return report.correct ? 0 : 1;
}
