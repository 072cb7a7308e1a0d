// Shared plumbing for the reproduction benchmarks: cached dataset
// generation, cached SAGED knowledge bases, and a paper-style report
// printed after google-benchmark's own output.
//
// Every bench binary runs each experimental cell exactly once (wall-clock
// detection time *is* the measured quantity, matching the paper's runtime
// metric) and accumulates rows for a final human-readable table.
//
// Output handling: every bench accepts the shared tool flags from
// core/config_flags.h — `--out-dir DIR` (artifacts land there instead of
// the CWD; created on demand, the run fails fast with a clear Status when
// it is unwritable), `--telemetry-out FILE`, `--trace-out FILE` (Chrome
// trace-event JSON), and `--runs-dir DIR` (run-ledger destination, default
// `<out-dir>/runs`, `none` disables). SAGED_TELEMETRY_OUT / SAGED_TRACE_OUT
// environment variables are fallbacks for the respective flags. Each run
// appends a provenance manifest (git SHA, config hash, dataset digests,
// wall/RSS, cell-latency percentiles) to the ledger — the input of
// tools/saged_report.

#ifndef SAGED_BENCH_BENCH_COMMON_H_
#define SAGED_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/contracts.h"
#include "common/run_manifest.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/config_flags.h"
#include "core/detector.h"
#include "data/content_hash.h"
#include "datagen/datasets.h"
#include "pipeline/evaluation.h"

namespace saged::bench {

/// The single bench timing helper: every ad-hoc wall-clock measurement in
/// bench code goes through here (instead of hand-multiplying
/// StopWatch::Seconds()). Returns elapsed milliseconds.
template <typename Fn>
inline double TimeMs(Fn&& fn) {
  StopWatch watch;
  fn();
  return watch.Millis();
}

// ---------------------------------------------------------------------------
// Tool flags and output paths.
// ---------------------------------------------------------------------------

/// Values of the shared tool flags, resolved once by InitBenchTooling.
struct BenchToolOptions {
  std::string out_dir = ".";
  std::string telemetry_out;  // resolved absolute-ish path
  std::string trace_out;      // empty = trace capture off
  std::string runs_dir;       // empty = ledger disabled
  std::string tool;           // argv[0] basename
  std::string command_line;   // argv joined
};

inline BenchToolOptions& ToolOptions() {
  static auto& options = *new BenchToolOptions;
  return options;
}

/// Directory every bench artifact is written into (see --out-dir).
inline const std::string& OutDir() { return ToolOptions().out_dir; }

/// `filename` resolved under OutDir().
inline std::string OutPath(const std::string& filename) {
  return OutDir() + "/" + filename;
}

inline std::string BenchHexHash(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Content digests of every dataset this run generated (key → hex digest),
/// recorded by GetDataset and friends for the run manifest.
inline std::map<std::string, std::string>& DatasetDigests() {
  static auto& digests = *new std::map<std::string, std::string>;
  return digests;
}

inline void RecordDatasetDigest(const std::string& key,
                                const datagen::Dataset& ds) {
  Fnv1a h;
  HashTableContent(ds.clean, &h);
  HashTableContent(ds.dirty, &h);
  HashMaskContent(ds.mask, &h);
  DatasetDigests()[key] = BenchHexHash(h.Digest());
}

/// Row cap applied to generated datasets so the full suite finishes in
/// minutes. Relative comparisons (who wins, how curves bend) survive the
/// scale-down; absolute times shrink accordingly.
inline size_t BenchRows(const std::string& dataset) {
  auto spec = datagen::GetDatasetSpec(dataset);
  size_t rows = spec.ok() ? spec->rows : 1000;
  size_t cap = 1500;
  if (dataset == "soccer" || dataset == "tax" || dataset == "restaurants") {
    cap = 4000;  // the scalability datasets keep a larger base
  }
  if (dataset == "soil_moisture") cap = 400;  // 129 columns
  return std::min(rows, cap);
}

/// Cached dataset generation (benches re-use the same inputs across cells).
inline const datagen::Dataset& GetDataset(const std::string& name,
                                          size_t rows = 0,
                                          double error_rate = -1.0,
                                          double outlier_degree = 4.0,
                                          uint64_t seed = 7) {
  static auto& cache = *new std::map<std::string, datagen::Dataset>;
  std::string key = name + "/" + std::to_string(rows) + "/" +
                    std::to_string(error_rate) + "/" +
                    std::to_string(outlier_degree) + "/" +
                    std::to_string(seed);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  datagen::MakeOptions opts;
  opts.rows = rows > 0 ? rows : BenchRows(name);
  opts.error_rate = error_rate;
  opts.outlier_degree = outlier_degree;
  opts.seed = seed;
  auto ds = datagen::MakeDataset(name, opts);
  SAGED_CHECK(ds.ok()) << name << ": " << ds.status().ToString();
  const auto& cached = cache.emplace(key, std::move(ds).value()).first->second;
  RecordDatasetDigest(key, cached);
  return cached;
}

/// Benchmark-friendly SAGED configuration (small embeddings, otherwise the
/// paper's chosen defaults: clustering matcher, random sampling, no
/// augmentation). Any knob registered in core/config_flags.h — the same
/// registry the CLI parses — can be overridden for a whole bench run via
/// SAGED_CONFIG_FLAGS="name=value,..." (e.g. "detect-threads=1,seed=7").
inline core::SagedConfig BenchConfig(size_t budget = 20) {
  core::SagedConfig config;
  config.labeling_budget = budget;
  config.w2v.dim = 6;
  config.w2v.epochs = 2;
  if (const char* overrides = std::getenv("SAGED_CONFIG_FLAGS")) {
    auto status = core::ApplySagedFlagList(overrides, &config);
    SAGED_CHECK(status.ok()) << status.ToString();
  }
  auto valid = config.Validate();
  SAGED_CHECK(valid.ok()) << valid.ToString();
  return config;
}

/// Cached SAGED instance loaded with the paper's default historical
/// inventory (Adult + Movies), keyed by a caller-supplied cache key.
inline core::Saged& SagedWithHistory(const std::string& cache_key,
                                     const core::SagedConfig& config,
                                     const std::vector<std::string>& history) {
  static auto& cache = *new std::map<std::string, std::unique_ptr<core::Saged>>;
  auto it = cache.find(cache_key);
  if (it != cache.end()) return *it->second;
  auto saged = std::make_unique<core::Saged>(config);
  for (const auto& name : history) {
    const auto& ds = GetDataset(name);
    SAGED_CHECK(saged->AddHistoricalDataset(ds.dirty, ds.mask).ok())
        << "extraction failed for " << name;
  }
  return *cache.emplace(cache_key, std::move(saged)).first->second;
}

inline core::Saged& DefaultSaged(size_t budget = 20) {
  return SagedWithHistory("default/" + std::to_string(budget),
                          BenchConfig(budget), {"adult", "movies"});
}

// ---------------------------------------------------------------------------
// Paper-style report accumulation.
// ---------------------------------------------------------------------------

inline std::map<std::string, std::string>& ReportRows() {
  static auto& rows = *new std::map<std::string, std::string>;
  return rows;
}

/// Records one formatted line under a sort key (re-runs overwrite).
inline void Record(const std::string& key, const std::string& line) {
  ReportRows()[key] = line;
}

/// Prints the accumulated table; call after RunSpecifiedBenchmarks.
inline void PrintReport(const char* title, const char* header) {
  std::printf("\n==== %s ====\n%s\n", title, header);
  for (const auto& [key, line] : ReportRows()) {
    std::printf("%s\n", line.c_str());
  }
  std::fflush(stdout);
}

/// Runs SAGED on a dataset and returns the scored row.
inline pipeline::EvalRow RunSagedCell(core::Saged& saged,
                                      const datagen::Dataset& ds) {
  Result<pipeline::EvalRow> row = Status::OK();
  double ms = TimeMs([&] { row = pipeline::RunSaged(saged, ds); });
  SAGED_CHECK(row.ok()) << row.status().ToString();
  SAGED_HISTOGRAM_OBSERVE("bench.cell_ms", ms);
  return *row;
}

/// Runs a baseline on a dataset and returns the scored row.
inline pipeline::EvalRow RunBaselineCell(const std::string& tool,
                                         const datagen::Dataset& ds,
                                         size_t budget) {
  Result<pipeline::EvalRow> row = Status::OK();
  double ms =
      TimeMs([&] { row = pipeline::RunBaseline(tool, ds, budget, /*seed=*/7); });
  SAGED_CHECK(row.ok()) << tool << ": " << row.status().ToString();
  SAGED_HISTOGRAM_OBSERVE("bench.cell_ms", ms);
  return *row;
}

// ---------------------------------------------------------------------------
// Bench main: flag stripping, output setup, telemetry / trace / manifest.
// ---------------------------------------------------------------------------

/// Resolved telemetry output destination (--telemetry-out flag, then
/// SAGED_TELEMETRY_OUT, then BENCH_telemetry.json under --out-dir).
inline std::string TelemetryOutPath() {
  if (!ToolOptions().telemetry_out.empty()) return ToolOptions().telemetry_out;
  const char* env = std::getenv("SAGED_TELEMETRY_OUT");
  return env != nullptr ? env : OutPath("BENCH_telemetry.json");
}

/// Consumes the shared tool flags (`--name value` / `--name=value`) from
/// argv before google-benchmark sees them; unknown flags pass through.
inline void StripToolFlags(int* argc, char** argv) {
  auto& options = ToolOptions();
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string a = argv[i];
    std::string name;
    std::string value;
    bool has_value = false;
    if (a.rfind("--", 0) == 0) {
      size_t eq = a.find('=');
      if (eq != std::string::npos) {
        name = a.substr(2, eq - 2);
        value = a.substr(eq + 1);
        has_value = true;
      } else {
        name = a.substr(2);
      }
    }
    if (!core::IsSagedToolFlag(name)) {
      argv[out++] = argv[i];
      continue;
    }
    if (!has_value) {
      SAGED_CHECK(i + 1 < *argc) << "flag --" << name << " needs a value";
      value = argv[++i];
    }
    if (name == "out-dir") {
      options.out_dir = value;
    } else if (name == "telemetry-out") {
      options.telemetry_out = value;
    } else if (name == "trace-out") {
      options.trace_out = value;
    } else if (name == "runs-dir") {
      options.runs_dir = value;
    }
  }
  *argc = out;
  argv[out] = nullptr;
}

/// Fails when `path` cannot be opened for writing (probed with "ab" so an
/// existing file is left untouched) — before any benchmark cell runs, so a
/// bad destination cannot waste a full bench run and then drop its timings
/// on the floor.
[[nodiscard]] inline Status CheckPathWritable(const std::string& path,
                                              const char* what) {
  std::FILE* probe = std::fopen(path.c_str(), "ab");
  if (probe == nullptr) {
    return Status::IoError(std::string(what) + " path '" + path +
                           "' is not writable");
  }
  std::fclose(probe);
  return Status::OK();
}

/// Parses the shared tool flags, creates --out-dir, resolves the trace /
/// telemetry / ledger destinations and probes them for writability.
[[nodiscard]] inline Status InitBenchTooling(int* argc, char** argv) {
  auto& options = ToolOptions();
  options.tool = "bench";
  if (*argc > 0) {
    std::string argv0 = argv[0];
    size_t slash = argv0.find_last_of('/');
    options.tool =
        slash == std::string::npos ? argv0 : argv0.substr(slash + 1);
  }
  for (int i = 0; i < *argc; ++i) {
    if (i) options.command_line += ' ';
    options.command_line += argv[i];
  }
  StripToolFlags(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    return Status::IoError("cannot create --out-dir '" + options.out_dir +
                           "': " + ec.message());
  }
  SAGED_RETURN_NOT_OK(
      CheckPathWritable(OutPath(".saged_bench_probe"), "--out-dir"));
  std::remove(OutPath(".saged_bench_probe").c_str());
  if (options.trace_out.empty()) {
    if (const char* env = std::getenv("SAGED_TRACE_OUT")) {
      options.trace_out = env;
    }
  }
  if (options.runs_dir.empty()) options.runs_dir = OutPath("runs");
  if (options.runs_dir == "none") options.runs_dir.clear();
  SAGED_RETURN_NOT_OK(CheckPathWritable(TelemetryOutPath(), "telemetry"));
  if (!options.trace_out.empty()) {
    SAGED_RETURN_NOT_OK(CheckPathWritable(options.trace_out, "trace"));
    telemetry::SetTraceEventsEnabled(true);
  }
  return Status::OK();
}

/// Writes the telemetry collected across the whole bench run. Every bench
/// binary built on SAGED_BENCH_MAIN emits this next to its table so perf
/// PRs can diff per-stage timings.
inline void DumpBenchTelemetry() {
  const std::string path = TelemetryOutPath();
  auto status = telemetry::TelemetryRegistry::Get().DumpJsonToFile(path);
  SAGED_CHECK(status.ok()) << "telemetry dump to '" << path
                           << "' failed: " << status.ToString();
  std::printf("telemetry written to %s\n", path.c_str());
  std::fflush(stdout);
}

/// Writes the Chrome trace-event file when --trace-out / SAGED_TRACE_OUT
/// asked for one.
inline void DumpBenchTrace() {
  const std::string& path = ToolOptions().trace_out;
  if (path.empty()) return;
  auto status = telemetry::WriteChromeTrace(path);
  SAGED_CHECK(status.ok()) << "trace dump to '" << path
                           << "' failed: " << status.ToString();
  std::printf("chrome trace written to %s\n", path.c_str());
  std::fflush(stdout);
}

/// Extra metrics a bench wants in its run manifest (requests/s, client
/// counts, ...). Merged into manifest.metrics by AppendBenchManifest.
inline std::map<std::string, double>& BenchMetrics() {
  static auto& metrics = *new std::map<std::string, double>;
  return metrics;
}

/// Telemetry histograms summarized into the run manifest (count / mean /
/// p50 / p90 / p99 / max under "<name>.<stat>"). Benches that time
/// something other than detection cells append their histogram here
/// (bench_serve adds serve.request_ms).
inline std::vector<std::string>& ManifestHistograms() {
  static auto& names = *new std::vector<std::string>{"bench.cell_ms"};
  return names;
}

/// Teardown hooks run by BenchMain after the benchmarks finish but before
/// the report / manifest flush — for benches that keep live machinery
/// (bench_serve's in-process server) across cells.
inline std::vector<std::function<void()>>& AtBenchExit() {
  static auto& hooks = *new std::vector<std::function<void()>>;
  return hooks;
}

/// Appends this run's provenance manifest to the ledger (see
/// common/run_manifest.h); the `<tool>-last.json` copy is what check-perf /
/// saged_report diff against a baseline.
[[nodiscard]] inline Status AppendBenchManifest(double wall_ms) {
  const auto& options = ToolOptions();
  if (options.runs_dir.empty()) return Status::OK();
  RunManifest manifest;
  manifest.tool = options.tool;
  manifest.command_line = options.command_line;
  core::SagedConfig config = BenchConfig();
  manifest.config_hash = BenchHexHash(core::ConfigContentHash(config));
  manifest.threads = static_cast<uint32_t>(config.detect_threads);
  for (const auto& [key, digest] : DatasetDigests()) {
    manifest.datasets.emplace_back(key, digest);
  }
  manifest.wall_ms = wall_ms;
  manifest.peak_rss_bytes = telemetry::PeakRssBytes();
  for (const auto& name : ManifestHistograms()) {
    auto stats = telemetry::TelemetryRegistry::Get().HistogramSnapshot(name);
    if (stats.count == 0) continue;
    manifest.metrics[name + ".count"] = static_cast<double>(stats.count);
    manifest.metrics[name + ".mean"] = stats.mean;
    manifest.metrics[name + ".p50"] = stats.p50;
    manifest.metrics[name + ".p90"] = stats.p90;
    manifest.metrics[name + ".p99"] = stats.p99;
    manifest.metrics[name + ".max"] = stats.max;
  }
  for (const auto& [name, value] : BenchMetrics()) {
    manifest.metrics[name] = value;
  }
  manifest.extra["telemetry_out"] = TelemetryOutPath();
  if (!options.trace_out.empty()) {
    manifest.extra["trace_out"] = options.trace_out;
  }
  SAGED_RETURN_NOT_OK(AppendRunManifest(options.runs_dir, manifest));
  std::printf("run manifest appended to %s/ledger.jsonl\n",
              options.runs_dir.c_str());
  std::fflush(stdout);
  return Status::OK();
}

/// Shared bench main: enable telemetry, honor the tool flags, run the
/// benchmarks, print the paper-style table, then flush telemetry, trace,
/// and the run-ledger manifest.
inline int BenchMain(int argc, char** argv, const char* title,
                     const char* header) {
  telemetry::SetEnabled(true);
  if (auto s = InitBenchTooling(&argc, argv); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  StopWatch watch;
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  for (const auto& hook : AtBenchExit()) hook();
  PrintReport(title, header);
  DumpBenchTelemetry();
  DumpBenchTrace();
  if (auto s = AppendBenchManifest(watch.Seconds() * 1000.0); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace saged::bench

/// Custom main: see saged::bench::BenchMain.
#define SAGED_BENCH_MAIN(title, header)                      \
  int main(int argc, char** argv) {                          \
    return ::saged::bench::BenchMain(argc, argv, title, header); \
  }

#endif  // SAGED_BENCH_BENCH_COMMON_H_
