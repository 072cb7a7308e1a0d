#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/telemetry.h"
#include "data/content_hash.h"
#include "datagen/datasets.h"
#include "replay.h"

namespace perfbench {

void Report::Fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: incorrect: " << why << "\n";
}

saged::core::SagedConfig EngineConfig() {
  saged::core::SagedConfig config;
  config.detect_threads = kPoolWorkers;
  config.extract_threads = kPoolWorkers;
  return config;
}

size_t BenchRows(const std::string& dataset) {
  auto spec = saged::datagen::GetDatasetSpec(dataset);
  size_t rows = spec.ok() ? spec->rows : 1000;
  size_t cap = 1500;
  if (dataset == "soccer" || dataset == "tax" || dataset == "restaurants") {
    cap = 4000;
  }
  if (dataset == "soil_moisture") cap = 400;
  return std::min(rows, cap);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  return static_cast<double>(saged::telemetry::PeakRssBytes()) /
         (1024.0 * 1024.0);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void SetSharedLayerMetrics(const StageTimes& stages, size_t replayed,
                           double run_ms, bool matches,
                           double traced_detections, Report* report) {
  auto& registry = saged::telemetry::TelemetryRegistry::Get();
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.CounterValue(name));
  };
  const double n = static_cast<double>(replayed);
  report->Set("common.executor_steals_per_task",
              Ratio(counter("executor.steals"), counter("executor.tasks")));
  report->Set("common.executor_queue_ms_p50",
              registry.HistogramSnapshot("executor.queue_ms").p50);
  report->Set("data.csv_mb_per_s",
              Ratio(stages.csv_bytes / 1e6, stages.csv / 1e3));
  report->Set("text.w2v_train_ms", stages.w2v_train / n);
  report->Set("text.w2v_share", Ratio(stages.w2v_train, stages.Total()));
  report->Set("features.featurize_ms", stages.featurize / n);
  report->Set("features.stats_ms", stages.stats / n);
  const double dict_cells = counter("featurize.dict_cells");
  report->Set("features.dict_cell_share",
              Ratio(dict_cells, counter("featurize.cells")));
  report->Set("features.dict_hit_ratio",
              Ratio(counter("featurize.dict_hits"), dict_cells));
  report->Set("core.match_ms", stages.match / n);
  report->Set("core.models_per_column",
              Ratio(counter("match.models_matched"), counter("match.calls")));
  report->Set("core.meta_features_ms", stages.meta_features / n);
  report->Set("core.label_ms", stages.label / n);
  report->Set("core.meta_train_ms", stages.meta_train / n);
  report->Set("core.classify_ms", stages.classify / n);
  report->Set("core.replay_accounted_pct",
              100.0 * Ratio(stages.Total(), run_ms));
  report->Set("core.replay_matches_run", matches ? 1.0 : 0.0);
  report->Set("ml.base_model_invocations",
              Ratio(counter("meta_features.base_model_invocations"),
                    traced_detections));
  Progress("replayed: Run " + std::to_string(run_ms) + " ms, replay " +
           std::to_string(stages.Total()) + " ms");
  if (!matches) report->Fail("a replay did not reproduce Run's mask");
}

void PrintDigest(const std::string& label, const saged::Table& table,
                 const saged::ErrorMask& mask) {
  saged::Fnv1a h;
  saged::HashTableContent(table, &h);
  saged::HashMaskContent(mask, &h);
  std::printf("digest %s %016llx\n", label.c_str(),
              static_cast<unsigned long long>(h.Digest()));
}

void ScoreSum::Add(const saged::DetectionScore& score) {
  tp += score.tp;
  fp += score.fp;
  fn += score.fn;
}

double ScoreSum::F1() const {
  saged::DetectionScore score;
  score.tp = tp;
  score.fp = fp;
  score.fn = fn;
  return score.F1();
}

void Progress(const std::string& what) {
  static const double start = NowSeconds();
  std::fprintf(stderr, "perfbench: [%7.2f s] %s\n", NowSeconds() - start,
               what.c_str());
}

void CheckOk(const saged::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::cerr << "perfbench: " << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

}  // namespace perfbench
