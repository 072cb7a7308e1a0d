// detect-mem and detect-stream: closed-loop detection with one caller on a
// resident knowledge base extracted from the paper's default history.
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/executor.h"
#include "common/telemetry.h"
#include "core/detector.h"
#include "data/csv.h"
#include "datagen/datasets.h"
#include "replay.h"

namespace perfbench {

namespace core = saged::core;
namespace datagen = saged::datagen;
namespace telemetry = saged::telemetry;

namespace {

/// Rows of the streamed tax table.
constexpr size_t kStreamRows = 100000;
/// Rows per streaming block.
constexpr size_t kStreamBlockRows = 10000;
/// Percentiles need at least ten samples beyond p90.
constexpr size_t kMinOpsForPercentiles = 100;

datagen::Dataset Generate(const std::string& name, size_t rows,
                          uint64_t seed) {
  datagen::MakeOptions options;
  options.seed = seed;
  options.rows = rows;
  auto ds = datagen::MakeDataset(name, options);
  CheckOk(ds.status(), "generating " + name);
  return std::move(ds).value();
}

/// One detection input and what Run must produce for it.
struct Input {
  std::string name;
  const saged::Table* table = nullptr;  // in-memory source, or
  std::string csv_path;                 // streamed CSV source
  const saged::ErrorMask* truth = nullptr;
  saged::ErrorMask reference;
  double reference_f1 = 0.0;
  size_t cells = 0;

  core::DetectionRequest Request() const {
    core::DetectionRequest request =
        table != nullptr
            ? core::DetectionRequest::ForTable(table, core::MaskOracle(*truth))
            : core::DetectionRequest::ForCsv(csv_path, core::MaskOracle(*truth),
                                             StreamOptions());
    request.set_oracle_shape(truth->rows(), truth->cols());
    return request;
  }
  static core::DetectionOptions StreamOptions() {
    core::DetectionOptions options;
    options.stream = true;
    options.block_rows = kStreamBlockRows;
    return options;
  }
};

/// The history extraction every detect workload sets up: adult + movies.
struct Engine {
  std::unique_ptr<saged::Executor> pool;
  std::unique_ptr<core::Saged> saged;
  std::vector<double> setup_s;  // one per repetition; all extraction
};

Engine SetUp(const std::vector<datagen::Dataset>& history) {
  Engine engine;
  engine.pool = std::make_unique<saged::Executor>(kPoolWorkers);
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    double start = NowSeconds();
    auto saged =
        std::make_unique<core::Saged>(EngineConfig(), engine.pool.get());
    for (const auto& ds : history) {
      CheckOk(saged->AddHistoricalDataset(ds.dirty, ds.mask),
              "extracting " + ds.spec.name);
    }
    engine.setup_s.push_back(NowSeconds() - start);
    engine.saged = std::move(saged);
  }
  return engine;
}

/// Runs one detection, checks it against the input's reference, and
/// returns its wall seconds (negative when it failed).
double DetectOnce(core::Saged* saged, const Input& input, ScoreSum* scores,
                  Report* report) {
  ++report->attempted;
  double start = NowSeconds();
  auto result = saged->Run(input.Request());
  double seconds = NowSeconds() - start;
  if (!result.ok()) {
    ++report->failed;
    report->Fail(input.name + ": " + result.status().ToString());
    return -1.0;
  }
  saged::DetectionScore score = input.truth->Score(result->mask);
  if (!(result->mask == input.reference) || score.F1() != input.reference_f1) {
    ++report->failed;
    report->Fail(input.name + ": mask differs from the reference");
    return -1.0;
  }
  scores->Add(score);
  return seconds;
}

/// Computes every input's reference mask (this is also the warm-up).
void ComputeReferences(core::Saged* saged, std::vector<Input>* inputs) {
  for (auto& input : *inputs) {
    auto result = saged->Run(input.Request());
    CheckOk(result.status(), "reference detection on " + input.name);
    input.reference = result->mask;
    input.reference_f1 = input.truth->Score(result->mask).F1();
    input.cells = result->mask.rows() * result->mask.cols();
  }
}

void ReportEndToEnd(const Engine& engine, const std::vector<Input>& inputs,
                    double seconds, Report* report) {
  ScoreSum scores;
  std::vector<double> latency_ms;
  double cells = 0.0;
  size_t good = 0;
  // Whole passes over the inputs only, so every run measures the same mix
  // of tables. A pass starts only while it is expected to end nearer the
  // deadline than the phase would without it, so the phase lasts `seconds`
  // on average instead of overrunning by up to a pass.
  double start = NowSeconds();
  double pass_s = 0.0;
  while (NowSeconds() - start + pass_s / 2 < seconds) {
    double pass_start = NowSeconds();
    for (const Input& input : inputs) {
      double s = DetectOnce(engine.saged.get(), input, &scores, report);
      if (s < 0) {
        latency_ms.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      latency_ms.push_back(s * 1e3);
      cells += static_cast<double>(input.cells);
      ++good;
    }
    pass_s = NowSeconds() - pass_start;
  }
  double wall = NowSeconds() - start;
  double p50 = 0.0;
  double p90 = 0.0;
  if (latency_ms.size() >= kMinOpsForPercentiles) {
    p50 = Percentile(latency_ms, 0.5);
    p90 = Percentile(latency_ms, 0.9);
  } else {
    // Too few detections for percentiles: both report the phase's mean
    // detection time.
    p50 = p90 = wall * 1e3 / static_cast<double>(latency_ms.size());
  }
  report->Set("setup_s", Median(engine.setup_s));
  report->Set("cells_per_s", cells / wall);
  report->Set("latency_p50_ms", p50);
  report->Set("latency_p90_ms", p90);
  report->Set("goodput_rps", static_cast<double>(good) / wall);
  report->Set("rss_peak_mb", PeakRssMb());
  report->Set("f1", scores.F1());
}

/// The traced mode: alternate traced and untraced passes over the inputs,
/// read the program's counters, then replay each input stage by stage.
void ReportPerLayer(Engine& engine, const std::vector<Input>& inputs,
                    bool streamed, double rss_after_setup_mb,
                    double base_fit_ms_p50, double seconds, Report* report) {
  auto& registry = telemetry::TelemetryRegistry::Get();
  registry.Reset();
  ScoreSum scores;
  double cells[2] = {0.0, 0.0};
  double wall[2] = {0.0, 0.0};
  double phase_start = NowSeconds();
  double cpu_start = CpuSeconds();
  for (size_t pass = 0; pass < 2 || NowSeconds() - phase_start < seconds;
       ++pass) {
    const int traced = static_cast<int>(pass % 2);
    telemetry::SetEnabled(traced == 1);
    for (const auto& input : inputs) {
      double s = DetectOnce(engine.saged.get(), input, &scores, report);
      if (s < 0) continue;
      cells[traced] += static_cast<double>(input.cells);
      wall[traced] += s;
    }
  }
  telemetry::SetEnabled(false);
  double phase_wall = NowSeconds() - phase_start;
  double cpu = CpuSeconds() - cpu_start;
  double all_cells = cells[0] + cells[1];
  double traced_runs =
      static_cast<double>(registry.CounterValue("detect.runs"));

  StageTimes stages;
  double run_ms = 0.0;
  bool matches = true;
  core::KnowledgeBase* kb = engine.saged->mutable_knowledge_base();
  const core::SagedConfig& config = engine.saged->config();
  // Each replay sits between two untraced Runs of the same input, whose
  // mean is its baseline, so that host-speed drift cancels.
  auto timed_run = [&](const Input& input) {
    double start = NowSeconds();
    auto run = engine.saged->Run(input.Request());
    run_ms += (NowSeconds() - start) * 1e3 / 2;
    return run.ok() && run->mask == input.reference;
  };
  for (const auto& input : inputs) {
    matches = timed_run(input) && matches;
    auto replay =
        streamed ? ReplayStreamed(config, kb, engine.pool.get(), input.csv_path,
                                  Input::StreamOptions(),
                                  core::MaskOracle(*input.truth))
                 : ReplayInMemory(config, kb, engine.pool.get(), *input.table,
                                  core::MaskOracle(*input.truth));
    matches = timed_run(input) && matches;
    if (!replay.ok() || !(replay->mask == input.reference)) {
      matches = false;
      continue;
    }
    stages += replay->ms;
  }

  report->Set("common.parallelism", Ratio(cpu, phase_wall));
  report->Set("common.cpu_s_per_mcell", Ratio(cpu, all_cells / 1e6));
  SetSharedLayerMetrics(stages, inputs.size(), run_ms, matches, traced_runs,
                        report);
  report->Set("core.extract_ms", Median(engine.setup_s) * 1e3);
  report->Set("ml.base_fit_ms_p50", base_fit_ms_p50);
  report->Set("process.rss_after_setup_mb", rss_after_setup_mb);
  double untraced_cps = Ratio(cells[0], wall[0]);
  double traced_cps = Ratio(cells[1], wall[1]);
  report->Set("process.trace_overhead_pct",
              100.0 * (Ratio(untraced_cps, traced_cps) - 1.0));
}

void RunDetect(const Options& options, bool streamed, Report* report) {
  std::vector<datagen::Dataset> history;
  for (const char* name : {"adult", "movies"}) {
    history.push_back(Generate(name, BenchRows(name), options.seed));
    PrintDigest(name, history.back().dirty, history.back().mask);
  }

  std::vector<datagen::Dataset> targets;
  std::vector<Input> inputs;
  if (streamed) {
    targets.push_back(Generate("tax", kStreamRows, options.seed));
    datagen::Dataset& tax = targets.back();
    PrintDigest("tax", tax.dirty, tax.mask);
    Input input;
    input.name = "tax";
    input.csv_path = options.work_dir + "/tax_dirty.csv";
    CheckOk(saged::WriteCsv(tax.dirty, input.csv_path), "writing tax");
    // Only the file and the oracle's mask stay: the streamed path never
    // holds the table, and neither does the benchmark.
    tax.dirty = saged::Table();
    tax.clean = saged::Table();
    input.truth = &tax.mask;
    inputs.push_back(std::move(input));
  } else {
    for (const auto& name : datagen::AllDatasetNames()) {
      if (name == "adult" || name == "movies") continue;
      targets.push_back(Generate(name, BenchRows(name), options.seed));
    }
    for (const auto& ds : targets) {
      PrintDigest(ds.spec.name, ds.dirty, ds.mask);
      Input input;
      input.name = ds.spec.name;
      input.table = &ds.dirty;
      input.truth = &ds.mask;
      inputs.push_back(std::move(input));
    }
  }

  Progress("inputs generated");
  if (options.trace) telemetry::SetEnabled(true);
  Engine engine = SetUp(history);
  double base_fit_ms_p50 = telemetry::TelemetryRegistry::Get()
                               .HistogramSnapshot("extract.base_model_fit_ms")
                               .p50;
  telemetry::SetEnabled(false);
  double rss_after_setup_mb = PeakRssMb();
  Progress("set up");
  ComputeReferences(engine.saged.get(), &inputs);
  Progress("references computed");

  if (options.trace) {
    ReportPerLayer(engine, inputs, streamed, rss_after_setup_mb,
                   base_fit_ms_p50, options.seconds, report);
  } else {
    ReportEndToEnd(engine, inputs, options.seconds, report);
  }
}

}  // namespace

void RunDetectMem(const Options& options, Report* report) {
  RunDetect(options, /*streamed=*/false, report);
}

void RunDetectStream(const Options& options, Report* report) {
  RunDetect(options, /*streamed=*/true, report);
}

}  // namespace perfbench
