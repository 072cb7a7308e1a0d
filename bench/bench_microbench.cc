// Substrate microbenchmarks: throughput of the building blocks that
// dominate SAGED's detection time (featurization, base-model training and
// inference, Word2Vec, clustering, CSV parsing, cold store decodes). Unlike
// the figure/table benches these use real repeated iterations.

#include <unistd.h>

#include <filesystem>
#include <string>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/detector.h"
#include "core/knowledge_extractor.h"
#include "data/csv.h"
#include "datagen/datasets.h"
#include "features/char_space.h"
#include "features/dictionary.h"
#include "features/featurizer.h"
#include "features/frozen_stats.h"
#include "features/kernels.h"
#include "kb/kb_builder.h"
#include "kb/shard_store.h"
#include "ml/agglomerative.h"
#include "ml/random_forest.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"

namespace saged::bench {
namespace {

const datagen::Dataset& Beers() {
  static auto& ds = *new datagen::Dataset([] {
    datagen::MakeOptions opts;
    opts.rows = 2000;
    auto r = datagen::MakeDataset("beers", opts);
    return std::move(r).value();
  }());
  return ds;
}

void BM_FeaturizeColumn(benchmark::State& state) {
  const auto& ds = Beers();
  text::Word2Vec w2v;
  features::CharSpace space(64);
  const Column& col = ds.dirty.column(static_cast<size_t>(state.range(0)));
  features::ColumnFeaturizer::RegisterChars(col, &space);
  features::ColumnFeaturizer featurizer(&w2v, &space);
  for (auto _ : state) {
    auto m = featurizer.Featurize(col);
    benchmark::DoNotOptimize(m->rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(col.size()));
}
BENCHMARK(BM_FeaturizeColumn)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

/// High-repetition column for the dictionary-path cells: pooled corpus
/// values (the profile pinned by tests/datagen_golden_test.cc), so the
/// distinct ratio is pool/rows and the dictionary gather dominates.
const Column& PooledColumn() {
  static auto& col = *new Column([] {
    datagen::CorpusOptions opts;
    opts.rows = 4096;
    opts.value_pool = 16;
    auto ds = datagen::MakeCorpusDataset(0, opts);
    SAGED_CHECK(ds.ok()) << ds.status().ToString();
    return ds->dirty.column(0);
  }());
  return col;
}

/// Featurization on the pooled column under its frozen stats: range(0)
/// selects the per-cell reference (0, FeaturizeFrozenCellwiseInto) or the
/// production path (1, FeaturizeFrozenInto, which dictionary-encodes this
/// column). Same work per iteration, so the items/s ratio between the
/// cells IS the dictionary speedup.
void BM_FeaturizePaths(benchmark::State& state) {
  const Column& col = PooledColumn();
  text::Word2Vec w2v({.dim = 6, .epochs = 2}, 3);
  std::vector<std::vector<std::string>> docs;
  for (const auto& cell : col.values()) docs.push_back(text::WordTokens(cell));
  SAGED_CHECK(w2v.Train(docs).ok());
  features::CharSpace space(64);
  features::ColumnFeaturizer::RegisterChars(col, &space);
  features::ColumnStatsBuilder builder;
  for (const auto& cell : col.values()) builder.Observe(cell);
  auto stats = builder.Finalize();
  SAGED_CHECK(stats.ok()) << stats.status().ToString();
  const features::ColumnFeaturizer featurizer(&w2v, &space);
  const bool reference = state.range(0) == 0;
  features::kernels::SetSimdEnabled(true);
  ml::Matrix out;
  features::FeatureArena arena;
  for (auto _ : state) {
    const Status status =
        reference ? featurizer.FeaturizeFrozenCellwiseInto(*stats, col.values(),
                                                           &out, &arena)
                  : featurizer.FeaturizeFrozenInto(*stats, col.values(), &out,
                                                   &arena);
    SAGED_CHECK(status.ok()) << status.ToString();
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(col.size()));
}
BENCHMARK(BM_FeaturizePaths)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Dictionary encode alone (distinct-value interning + code vector) over
/// the pooled column — the fixed cost the gather path pays per block.
void BM_DictEncode(benchmark::State& state) {
  const Column& col = PooledColumn();
  features::ColumnDictionary dict;
  for (auto _ : state) {
    dict.Encode(std::span<const Cell>(col.values()));
    benchmark::DoNotOptimize(dict.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(col.size()));
}
BENCHMARK(BM_DictEncode)->Unit(benchmark::kMicrosecond);

/// Char-class counting kernel, dispatched vs scalar reference (range(0):
/// 0 scalar, 1 SIMD when the build has it). Bytes/s is the headline.
void BM_KernelCharClasses(benchmark::State& state) {
  const Column& col = PooledColumn();
  features::kernels::SetSimdEnabled(state.range(0) == 1);
  uint64_t total = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    for (const auto& cell : col.values()) {
      auto counts = features::kernels::CountCharClasses(cell);
      total += counts.alpha + counts.digit + counts.punct;
    }
  }
  for (const auto& cell : col.values()) {
    bytes += static_cast<int64_t>(cell.size());
  }
  benchmark::DoNotOptimize(total);
  features::kernels::SetSimdEnabled(true);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
  state.SetLabel(state.range(0) == 1 &&
                         features::kernels::SimdAvailable()
                     ? "simd"
                     : "scalar");
}
BENCHMARK(BM_KernelCharClasses)->Arg(0)->Arg(1);

/// Value-hash kernel (dictionary probe distribution), dispatched vs scalar.
void BM_KernelHash(benchmark::State& state) {
  const Column& col = PooledColumn();
  features::kernels::SetSimdEnabled(state.range(0) == 1);
  uint64_t total = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    for (const auto& cell : col.values()) {
      total ^= features::kernels::HashValue(cell);
    }
  }
  for (const auto& cell : col.values()) {
    bytes += static_cast<int64_t>(cell.size());
  }
  benchmark::DoNotOptimize(total);
  features::kernels::SetSimdEnabled(true);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_KernelHash)->Arg(0)->Arg(1);

void BM_ForestFit(benchmark::State& state) {
  Rng rng(3);
  ml::Matrix x;
  std::vector<int> y;
  const size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(16);
    for (auto& v : row) v = rng.Normal();
    x.AppendRow(row);
    y.push_back(rng.Bernoulli(0.2) ? 1 : 0);
  }
  for (auto _ : state) {
    ml::RandomForestClassifier forest({}, 7);
    benchmark::DoNotOptimize(forest.Fit(x, y).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ForestFit)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_ForestPredict(benchmark::State& state) {
  Rng rng(5);
  ml::Matrix x;
  std::vector<int> y;
  for (size_t i = 0; i < 2000; ++i) {
    std::vector<double> row(16);
    for (auto& v : row) v = rng.Normal();
    x.AppendRow(row);
    y.push_back(rng.Bernoulli(0.2) ? 1 : 0);
  }
  ml::RandomForestClassifier forest({}, 7);
  (void)forest.Fit(x, y);
  for (auto _ : state) {
    auto proba = forest.PredictProba(x);
    benchmark::DoNotOptimize(proba.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_ForestPredict)->Unit(benchmark::kMillisecond);

// Cold store decodes: AcquireModels over every entry of a lazily opened
// store whose cache holds one shard's models, so nearly every acquire reads
// its shard file and decodes records up to the model it names
// (ShardStore::LoadModels). The open is untimed.

/// A small store (adult, beers and movies extractions) written once per
/// process into a scratch directory that is removed at exit.
class ColdStore {
 public:
  ColdStore()
      : dir_((std::filesystem::temp_directory_path() /
              ("saged_bench_cold_store." + std::to_string(::getpid())))
                 .string()),
        written_(Write(dir_)) {}
  ~ColdStore() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ColdStore(const ColdStore&) = delete;
  ColdStore& operator=(const ColdStore&) = delete;

  const std::string& dir() const { return dir_; }
  bool ok() const { return written_.ok(); }

 private:
  /// Extracts every dataset and writes the store; any failure leaves the
  /// store unwritten, so the bench skips instead of timing a smaller one.
  static Status Write(const std::string& dir) {
    core::SagedConfig config;
    config.w2v.dim = 6;
    config.w2v.epochs = 1;
    core::KnowledgeBase kb(config.char_slots);
    core::KnowledgeExtractor extractor(config);
    datagen::MakeOptions gen;
    gen.rows = 200;
    for (const char* name : {"adult", "beers", "movies"}) {
      SAGED_ASSIGN_OR_RETURN(const datagen::Dataset ds,
                             datagen::MakeDataset(name, gen));
      SAGED_RETURN_NOT_OK(extractor.AddDataset(ds.dirty, ds.mask, &kb));
    }
    return kb::WriteShardedStore(kb, dir, {.n_buckets = 4});
  }

  std::string dir_;
  Status written_;
};

void BM_StoreColdAcquire(benchmark::State& state) {
  static const ColdStore cold;
  if (!cold.ok()) {
    state.SkipWithError("store extraction or write failed");
    return;
  }
  size_t models = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto store = kb::ShardStore::Open(cold.dir(), {.cache_shards = 1});
    Result<core::KnowledgeBase> lazy =
        store.ok() ? (*store)->MakeKnowledgeBase() : store.status();
    state.ResumeTiming();
    if (!lazy.ok()) {
      state.SkipWithError("store open failed");
      break;
    }
    for (size_t i = 0; i < lazy->size(); ++i) {
      auto lease = lazy->AcquireModels({i});
      benchmark::DoNotOptimize(lease.ok());
    }
    models += lazy->size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(models));
}
BENCHMARK(BM_StoreColdAcquire)->Unit(benchmark::kMillisecond);

void BM_Word2VecTrain(benchmark::State& state) {
  const auto& ds = Beers();
  std::vector<std::vector<std::string>> docs;
  for (size_t r = 0; r < ds.dirty.NumRows(); ++r) {
    docs.push_back(text::TupleTokens(ds.dirty.Row(r)));
  }
  for (auto _ : state) {
    text::Word2Vec w2v({.dim = 8, .epochs = 2}, 3);
    benchmark::DoNotOptimize(w2v.Train(docs).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(docs.size()));
}
BENCHMARK(BM_Word2VecTrain)->Unit(benchmark::kMillisecond);

void BM_Agglomerative(benchmark::State& state) {
  Rng rng(9);
  ml::Matrix x;
  const size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row = {rng.Normal(), rng.Normal(), rng.Normal()};
    x.AppendRow(row);
  }
  for (auto _ : state) {
    ml::Agglomerative agg;
    benchmark::DoNotOptimize(agg.Fit(x).ok());
  }
}
BENCHMARK(BM_Agglomerative)->Arg(100)->Arg(300)->Arg(600)
    ->Unit(benchmark::kMillisecond);

void BM_CsvParse(benchmark::State& state) {
  const auto& ds = Beers();
  std::string text = FormatCsv(ds.dirty);
  for (auto _ : state) {
    auto t = ParseCsv(text);
    benchmark::DoNotOptimize(t->NumRows());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_CsvParse)->Unit(benchmark::kMillisecond);

// Telemetry overhead: the cost of an instrumented call site in each mode.
// The disabled variants are the "instrumentation costs ~nothing" claim —
// compare against BM_TelemetryBaselineLoop (the same loop with no
// instrumentation at all; the target is < 1% delta on real stage bodies,
// which run microseconds to milliseconds per span).

void BM_TelemetryBaselineLoop(benchmark::State& state) {
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++x);
  }
}
BENCHMARK(BM_TelemetryBaselineLoop);

void BM_TelemetrySpanDisabled(benchmark::State& state) {
  telemetry::SetEnabled(false);
  uint64_t x = 0;
  for (auto _ : state) {
    SAGED_TRACE_SPAN("bench/overhead");
    benchmark::DoNotOptimize(++x);
  }
}
BENCHMARK(BM_TelemetrySpanDisabled);

void BM_TelemetrySpanEnabled(benchmark::State& state) {
  telemetry::SetEnabled(true);
  uint64_t x = 0;
  for (auto _ : state) {
    SAGED_TRACE_SPAN("bench/overhead");
    benchmark::DoNotOptimize(++x);
  }
  telemetry::SetEnabled(false);
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetryCounterDisabled(benchmark::State& state) {
  telemetry::SetEnabled(false);
  uint64_t x = 0;
  for (auto _ : state) {
    SAGED_COUNTER_INC("bench.overhead");
    benchmark::DoNotOptimize(++x);
  }
}
BENCHMARK(BM_TelemetryCounterDisabled);

void BM_TelemetryCounterEnabled(benchmark::State& state) {
  telemetry::SetEnabled(true);
  uint64_t x = 0;
  for (auto _ : state) {
    SAGED_COUNTER_INC("bench.overhead");
    benchmark::DoNotOptimize(++x);
  }
  telemetry::SetEnabled(false);
}
BENCHMARK(BM_TelemetryCounterEnabled);

void BM_TelemetryHistogramEnabled(benchmark::State& state) {
  telemetry::SetEnabled(true);
  double v = 0.0;
  for (auto _ : state) {
    SAGED_HISTOGRAM_OBSERVE("bench.overhead_ms", v);
    v += 0.001;
    benchmark::DoNotOptimize(v);
  }
  telemetry::SetEnabled(false);
}
BENCHMARK(BM_TelemetryHistogramEnabled);

void BM_EndToEndDetection(benchmark::State& state) {
  const auto& beers = Beers();
  datagen::MakeOptions opts;
  opts.rows = 1000;
  auto adult = datagen::MakeDataset("adult", opts);
  core::SagedConfig config;
  config.w2v.dim = 6;
  config.w2v.epochs = 2;
  static auto& saged = *new core::Saged(config);
  static bool loaded = false;
  if (!loaded) {
    (void)saged.AddHistoricalDataset(adult->dirty, adult->mask);
    loaded = true;
  }
  for (auto _ : state) {
    auto result = saged.Detect(beers.dirty, core::MaskOracle(beers.mask));
    benchmark::DoNotOptimize(result->mask.DirtyCount());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(beers.dirty.NumRows() * beers.dirty.NumCols()));
}
BENCHMARK(BM_EndToEndDetection)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace saged::bench

SAGED_BENCH_MAIN("Substrate microbenchmarks",
                 "(see google-benchmark output above)")
