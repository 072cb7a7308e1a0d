// Shared pieces of the SAGED repository benchmark: command-line options,
// the report every workload fills, timing/statistics helpers, and the
// engine configuration all workloads share.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "data/error_mask.h"
#include "data/table.h"

namespace perfbench {

/// Parsed command line: `--workload NAME --seed N --seconds S --trace 0|1`.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated files and the serve socket, relative
  /// to the working directory (created and removed by main).
  std::string work_dir;
};

/// One metric the benchmark prints: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric (printed by untraced runs) and every per-layer
/// metric (printed by traced runs), in print order. BENCHMARK.json lists
/// the same names and units; run.py checks that they agree.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// What a workload run produces: the operation tally, the correctness
/// verdict, and the metric values of the mode (end-to-end or per-layer).
/// A per-layer metric of a layer the workload does not exercise is left
/// unset and prints as 0.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;

  void Set(const std::string& name, double value) { values[name] = value; }
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

/// Workers of the dedicated pool every engine (and the serve-kb server)
/// runs on; detect_threads and extract_threads are set to match.
inline constexpr size_t kPoolWorkers = 2;

/// Set-up repetitions per run: setup_s is their median.
inline constexpr size_t kSetupReps = 3;

/// SagedConfig{} defaults with both thread caps pinned to the pool size.
saged::core::SagedConfig EngineConfig();

/// Row count of one Table-1 dataset in the detect workloads: the paper's
/// size capped at 1500 rows (4000 for the scalability datasets soccer, tax
/// and restaurants; 400 for the 129-column soil_moisture).
size_t BenchRows(const std::string& dataset);

/// Seconds since an arbitrary fixed point (steady clock).
double NowSeconds();
/// User + system CPU seconds of the whole process.
double CpuSeconds();
/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1] (0 for an empty vector).
double Percentile(std::vector<double> values, double q);
/// num / den, or 0 when den is not positive.
double Ratio(double num, double den);

/// Prints one input's FNV-1a content digest (table and mask folded into one
/// stream) as `digest <label> <hex>` on stdout, so two runs can show they
/// measured the same data.
void PrintDigest(const std::string& label, const saged::Table& table,
                 const saged::ErrorMask& mask);

/// Cell-level confusion counts summed over several detections.
struct ScoreSum {
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
  void Add(const saged::DetectionScore& score);
  double F1() const;
};

struct StageTimes;

/// Sets the per-layer metrics every workload measures the same way: the
/// replay's stage times per replayed detection and its validity (`run_ms`
/// is the summed wall time of the Run calls the replays are compared with),
/// plus the ratios of the counters and histograms recorded during the
/// `traced_detections` traced detections.
void SetSharedLayerMetrics(const StageTimes& stages, size_t replayed,
                           double run_ms, bool matches,
                           double traced_detections, Report* report);

/// Logs a phase boundary on stderr, with the seconds since the first call.
void Progress(const std::string& what);

/// Aborts the run (exit 1, no result line) on a set-up failure.
void CheckOk(const saged::Status& status, const std::string& what);

/// The three workloads. Each fills `report` with the metrics of the mode
/// selected by `options.trace`.
void RunDetectMem(const Options& options, Report* report);
void RunDetectStream(const Options& options, Report* report);
void RunServeKb(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
