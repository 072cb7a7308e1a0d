// Figure 15: scalability — detection time (and F1) across data fractions of
// the large datasets (Restaurants, Soccer, Flights, Tax). Expected shape:
// SAGED far cheaper than ED2 at every fraction with flat-ish growth; dBoost
// and Raha in between; SAGED's F1 stays high where ED2's degrades on the
// biggest inputs.

#include <cstring>

#include "bench/bench_common.h"
#include "common/contracts.h"
#include "common/strings.h"
#include "data/csv.h"
#include "features/char_space.h"
#include "features/featurizer.h"
#include "features/frozen_stats.h"
#include "features/kernels.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"

namespace saged::bench {
namespace {

const std::vector<std::string>& EvalSets() {
  static const auto& v = *new std::vector<std::string>{
      "restaurants", "soccer", "flights", "tax"};
  return v;
}

const std::vector<std::string>& Tools() {
  static const auto& v =
      *new std::vector<std::string>{"saged", "ed2", "raha", "dboost", "mink"};
  return v;
}

const datagen::Dataset& FractionDataset(const std::string& name,
                                        double fraction) {
  static auto& cache = *new std::map<std::string, datagen::Dataset>;
  std::string key = name + "/" + std::to_string(fraction);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  const auto& base = GetDataset(name);
  datagen::Dataset ds;
  ds.spec = base.spec;
  ds.dirty = base.dirty.HeadFraction(fraction);
  ds.clean = base.clean.HeadFraction(fraction);
  ds.mask = base.mask.HeadRows(ds.dirty.NumRows());
  ds.rules = base.rules;
  ds.domains = base.domains;
  return cache.emplace(key, std::move(ds)).first->second;
}

void BM_Fig15(benchmark::State& state) {
  const std::string tool = Tools()[static_cast<size_t>(state.range(0))];
  const double fraction = static_cast<double>(state.range(1)) / 100.0;
  const std::string dataset = EvalSets()[static_cast<size_t>(state.range(2))];
  const auto& ds = FractionDataset(dataset, fraction);

  pipeline::EvalRow row;
  for (auto _ : state) {
    if (tool == "saged") {
      row = RunSagedCell(DefaultSaged(20), ds);
    } else {
      row = RunBaselineCell(tool, ds, 20);
    }
  }
  state.counters["detect_s"] = row.seconds;
  state.counters["f1"] = row.f1;
  state.counters["rows"] = static_cast<double>(ds.dirty.NumRows());
  state.SetLabel(dataset + "/" + tool + "/frac=" + std::to_string(fraction));
  Record(StrFormat("%s/%s/%03ld", dataset.c_str(), tool.c_str(),
                   state.range(1)),
         StrFormat("%-12s %-8s frac=%.2f rows=%-6zu time=%.2fs  f1=%.3f",
                   dataset.c_str(), tool.c_str(), fraction,
                   ds.dirty.NumRows(), row.seconds, row.f1));
}

BENCHMARK(BM_Fig15)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {25, 50, 75, 100}, {0, 1, 2, 3}})
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

/// Streamed-rows companion sweep: the in-memory detector against the
/// out-of-core DetectStream path on the same generated dataset, reporting
/// rows/sec, per-cell peak RSS (VmHWM, rewound before each cell via
/// /proc/self/clear_refs where the kernel allows), F1, and — for the
/// streamed cells — whether the mask is byte-identical to the in-memory
/// cell of the same size, which google-benchmark's ascending argument order
/// guarantees ran first. Methodology in EXPERIMENTS.md §Streamed fig-15.
void BM_Fig15Streamed(benchmark::State& state) {
  const std::string stream_csv = OutPath("BENCH_fig15_stream_input.csv");
  static constexpr size_t kBlockRows = 10000;
  const bool streamed = state.range(0) == 1;
  const size_t rows = static_cast<size_t>(state.range(1));
  const auto& ds = GetDataset("soccer", rows);
  core::Saged& saged = DefaultSaged(20);
  if (streamed) {
    SAGED_CHECK(WriteCsv(ds.dirty, stream_csv).ok());
  }

  const bool rss_rewound = telemetry::TryResetPeakRss();
  const uint64_t rss_floor = telemetry::CurrentRssBytes();
  Result<core::DetectionResult> result = Status::OK();
  double ms = 0.0;
  for (auto _ : state) {
    ms = TimeMs([&] {
      if (streamed) {
        core::DetectionOptions options;
        options.block_rows = kBlockRows;
        result = saged.DetectStream(stream_csv, core::MaskOracle(ds.mask),
                                    options);
      } else {
        result = saged.Detect(ds.dirty, core::MaskOracle(ds.mask));
      }
    });
  }
  SAGED_CHECK(result.ok()) << result.status().ToString();
  const uint64_t peak = telemetry::PeakRssBytes();
  const double peak_mb = static_cast<double>(peak) / (1024.0 * 1024.0);
  // Growth above the cell's starting RSS: attributable to this cell even
  // when allocator retention from earlier cells inflates the absolute peak.
  const double delta_mb =
      static_cast<double>(peak > rss_floor ? peak - rss_floor : 0) /
      (1024.0 * 1024.0);
  auto score = ds.mask.Score(result->mask);

  // Byte-identity cross-check between the two paths at each size.
  static auto& inmem_masks = *new std::map<size_t, ErrorMask>;
  double identical = -1.0;  // -1 = not applicable (in-memory cell)
  if (!streamed) {
    inmem_masks[rows] = result->mask;
  } else if (auto it = inmem_masks.find(rows); it != inmem_masks.end()) {
    identical = it->second == result->mask ? 1.0 : 0.0;
    SAGED_CHECK(identical == 1.0)
        << "streamed mask diverged from in-memory at rows=" << rows;
  }

  const double rows_per_s = ms > 0.0 ? 1000.0 * static_cast<double>(rows) / ms : 0.0;
  state.counters["rows_per_s"] = rows_per_s;
  state.counters["peak_rss_mb"] = peak_mb;
  state.counters["rss_delta_mb"] = delta_mb;
  state.counters["f1"] = score.F1();
  state.counters["identical"] = identical;
  const char* path_name = streamed ? "stream" : "inmem";
  state.SetLabel(StrFormat("soccer/%s/rows=%zu", path_name, rows));
  Record(StrFormat("zz-stream/%07zu/%s", rows, path_name),
         StrFormat("streamed-sweep %-6s rows=%-7zu time=%8.1fms "
                   "rows/s=%9.0f peak_rss=%7.1fMB%s (+%.1fMB) f1=%.3f "
                   "identical=%s",
                   path_name, rows, ms, rows_per_s, peak_mb,
                   rss_rewound ? "" : "*", delta_mb, score.F1(),
                   identical < 0.0 ? "n/a" : (identical > 0.0 ? "yes" : "NO")));
}

BENCHMARK(BM_Fig15Streamed)
    ->ArgsProduct({{0, 1}, {10000, 50000}})
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

/// Offline-phase companion sweep: knowledge-extraction wall time against
/// `extract_threads` on the default historical inventory. Each cell builds a
/// fresh Saged (empty knowledge base) and ingests the same history; the
/// per-stage split (train_w2v / base_models) lands in BENCH_telemetry.json.
/// The knowledge base is bit-identical at every thread count, so the sweep
/// measures scheduling alone.
void BM_Fig15OfflineExtraction(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  core::SagedConfig config = BenchConfig(20);
  config.extract_threads = threads;
  const auto& adult = GetDataset("adult");
  const auto& soccer = GetDataset("soccer");

  double ms = 0.0;
  for (auto _ : state) {
    core::Saged saged(config);
    ms = TimeMs([&] {
      SAGED_CHECK(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
      SAGED_CHECK(saged.AddHistoricalDataset(soccer.dirty, soccer.mask).ok());
    });
  }

  // Speedup is relative to the threads=1 cell, which google-benchmark runs
  // first (ascending Arg order).
  static double sequential_ms = 0.0;
  if (threads == 1) sequential_ms = ms;
  double speedup = sequential_ms > 0.0 ? sequential_ms / ms : 1.0;
  state.counters["extract_ms"] = ms;
  state.counters["speedup"] = speedup;
  state.SetLabel("offline/threads=" + std::to_string(threads));
  Record(StrFormat("zzz-offline/%02zu", threads),
         StrFormat("offline-extract threads=%-2zu time=%8.1fms speedup=%.2fx",
                   threads, ms, speedup));
}

BENCHMARK(BM_Fig15OfflineExtraction)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ---------------------------------------------------------------------------
// Featurization-mode sweep: pure featurization throughput of the scalar,
// dictionary, and auto paths on the high-repetition corpus profile
// (CorpusOptions::value_pool, pinned by tests/datagen_golden_test.cc). The
// scalar cell runs first (ascending arg order) and keeps its matrices; every
// later mode is asserted byte-identical in-process before its throughput
// counts. The dict cell publishes `featurize.dict_speedup` into the run
// manifest — the perfsmoke_featurize floor (saged_report --floor) gates on
// it, so a regression that erodes the dictionary win fails ctest, not just
// a dashboard.
// ---------------------------------------------------------------------------

constexpr size_t kFeaturizeRows = 4096;
constexpr size_t kFeaturizePool = 16;  // distinct ratio ~ pool/rows ≈ 0.004
constexpr size_t kFeaturizeSweeps = 4;

/// Everything the mode cells share: the pooled corpus table, a trained
/// embedding, the registered char space, and per-column frozen stats. Built
/// once — the sweep measures featurization alone, not fitting.
struct FeaturizeFixture {
  datagen::Dataset ds;
  text::Word2Vec w2v{{.dim = 6, .epochs = 2}, 3};
  features::CharSpace space{64};
  std::vector<features::FrozenColumnStats> stats;
};

FeaturizeFixture& GetFeaturizeFixture() {
  static auto& fx = *new FeaturizeFixture;
  static bool built = false;
  if (built) return fx;
  built = true;
  datagen::CorpusOptions opts;
  opts.rows = kFeaturizeRows;
  opts.value_pool = kFeaturizePool;
  opts.seed = 7;
  auto ds = datagen::MakeCorpusDataset(0, opts);
  SAGED_CHECK(ds.ok()) << ds.status().ToString();
  fx.ds = std::move(ds).value();
  RecordDatasetDigest(StrFormat("%s/rows=%zu/pool=%zu",
                                datagen::CorpusDatasetName(0).c_str(),
                                kFeaturizeRows, kFeaturizePool),
                      fx.ds);
  std::vector<std::vector<std::string>> docs;
  docs.reserve(fx.ds.dirty.NumRows());
  for (size_t r = 0; r < fx.ds.dirty.NumRows(); ++r) {
    docs.push_back(text::TupleTokens(fx.ds.dirty.Row(r)));
  }
  SAGED_CHECK(fx.w2v.Train(docs).ok());
  for (const auto& column : fx.ds.dirty.columns()) {
    features::ColumnFeaturizer::RegisterChars(column, &fx.space);
  }
  for (const auto& column : fx.ds.dirty.columns()) {
    features::ColumnStatsBuilder builder;
    for (const auto& cell : column.values()) builder.Observe(cell);
    auto frozen = builder.Finalize();
    SAGED_CHECK(frozen.ok()) << column.name() << ": "
                             << frozen.status().ToString();
    fx.stats.push_back(std::move(frozen).value());
  }
  return fx;
}

void BM_Fig15FeaturizeMode(benchmark::State& state) {
  static constexpr const char* kModeNames[] = {"scalar", "dict", "auto"};
  const auto mode = static_cast<features::FeaturizeMode>(state.range(0));
  const char* mode_name = kModeNames[state.range(0)];
  auto& fx = GetFeaturizeFixture();
  features::kernels::SetSimdEnabled(true);
  features::FeaturizeOptions options;
  options.mode = mode;
  features::ColumnFeaturizer featurizer(&fx.w2v, &fx.space, options);

  const size_t cols = fx.ds.dirty.NumCols();
  std::vector<ml::Matrix> out(cols);
  std::vector<features::FeatureArena> arenas(cols);
  double ms = 0.0;
  for (auto _ : state) {
    ms = TimeMs([&] {
      for (size_t sweep = 0; sweep < kFeaturizeSweeps; ++sweep) {
        for (size_t j = 0; j < cols; ++j) {
          std::span<const Cell> cells(fx.ds.dirty.column(j).values());
          SAGED_CHECK(featurizer
                          .FeaturizeFrozenInto(fx.stats[j], cells, &out[j],
                                               &arenas[j])
                          .ok());
        }
      }
    });
  }

  // Byte-identity across modes, asserted in-process: the scalar cell runs
  // first and keeps its matrices; dict/auto must reproduce them exactly.
  static auto& scalar_out = *new std::vector<ml::Matrix>;
  static double scalar_ms = 0.0;
  const bool is_scalar = mode == features::FeaturizeMode::kScalar;
  if (is_scalar) {
    scalar_out = out;
    scalar_ms = ms;
  } else {
    SAGED_CHECK(scalar_out.size() == cols) << "scalar cell did not run first";
    for (size_t j = 0; j < cols; ++j) {
      SAGED_CHECK(out[j].rows() == scalar_out[j].rows() &&
                  out[j].cols() == scalar_out[j].cols() &&
                  std::memcmp(out[j].data().data(),
                              scalar_out[j].data().data(),
                              out[j].data().size() * sizeof(double)) == 0)
          << "mode=" << mode_name << " diverged from scalar on column " << j;
    }
  }

  const double swept_rows =
      static_cast<double>(kFeaturizeRows) * kFeaturizeSweeps;
  const double rows_per_s = ms > 0.0 ? 1000.0 * swept_rows / ms : 0.0;
  const double speedup = is_scalar || ms <= 0.0 ? 1.0 : scalar_ms / ms;
  state.counters["featurize_ms"] = ms;
  state.counters["rows_per_s"] = rows_per_s;
  state.counters["speedup"] = speedup;
  if (mode == features::FeaturizeMode::kDict) {
    BenchMetrics()["featurize.dict_speedup"] = speedup;
    BenchMetrics()["featurize.dict_rows_per_s"] = rows_per_s;
  }
  state.SetLabel(StrFormat("featurize/%s/rows=%zu/pool=%zu", mode_name,
                           kFeaturizeRows, kFeaturizePool));
  Record(StrFormat("zzzz-featurize/%d", static_cast<int>(state.range(0))),
         StrFormat("featurize-mode %-6s rows=%-5zu pool=%-3zu cols=%zu "
                   "time=%8.1fms rows/s=%9.0f speedup=%5.2fx identical=%s",
                   mode_name, kFeaturizeRows, kFeaturizePool, cols, ms,
                   rows_per_s, speedup, is_scalar ? "ref" : "yes"));
}

BENCHMARK(BM_Fig15FeaturizeMode)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace saged::bench

SAGED_BENCH_MAIN("Figure 15: scalability across data fractions",
                 "dataset      tool     fraction rows time f1")
