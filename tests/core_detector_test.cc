#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "common/telemetry.h"
#include "common/trace.h"
#include "core/detector.h"
#include "data/csv.h"
#include "datagen/datasets.h"

namespace saged::core {
namespace {

/// Small but realistic fixture: knowledge from adult+movies, detection on a
/// third dataset — the paper's default setup, shrunk for test speed.
class SagedFixture : public ::testing::Test {
 protected:
  static SagedConfig FastConfig() {
    SagedConfig config;
    config.w2v.epochs = 1;
    config.w2v.dim = 6;
    config.labeling_budget = 20;
    return config;
  }

  static datagen::Dataset Gen(const std::string& name, size_t rows) {
    datagen::MakeOptions opts;
    opts.rows = rows;
    auto ds = datagen::MakeDataset(name, opts);
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    return std::move(ds).value();
  }

  static Saged MakeLoaded(const SagedConfig& config) {
    Saged saged(config);
    auto adult = Gen("adult", 300);
    auto movies = Gen("movies", 300);
    EXPECT_TRUE(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
    EXPECT_TRUE(saged.AddHistoricalDataset(movies.dirty, movies.mask).ok());
    return saged;
  }
};

TEST_F(SagedFixture, DetectsErrorsWellAboveChance) {
  Saged saged = MakeLoaded(FastConfig());
  auto beers = Gen("beers", 300);
  auto result = saged.Detect(beers.dirty, MaskOracle(beers.mask));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto score = beers.mask.Score(result->mask);
  // Precision and recall both clearly better than the ~16% base rate.
  EXPECT_GT(score.F1(), 0.5) << "P=" << score.Precision()
                             << " R=" << score.Recall();
  EXPECT_EQ(result->labeled_tuples, 20u);
  EXPECT_EQ(result->matched_models.size(), beers.dirty.NumCols());
  for (size_t n : result->matched_models) EXPECT_GT(n, 0u);
}

TEST_F(SagedFixture, RequiresKnowledgeBase) {
  Saged saged(FastConfig());
  auto beers = Gen("beers", 50);
  EXPECT_FALSE(saged.Detect(beers.dirty, MaskOracle(beers.mask)).ok());
}

TEST_F(SagedFixture, RejectsEmptyTable) {
  Saged saged = MakeLoaded(FastConfig());
  Table empty;
  ErrorMask mask;
  EXPECT_FALSE(saged.Detect(empty, MaskOracle(mask)).ok());
}

TEST_F(SagedFixture, CosineSimilarityAlsoWorks) {
  SagedConfig config = FastConfig();
  config.similarity = SimilarityMethod::kCosine;
  Saged saged = MakeLoaded(config);
  auto nasa = Gen("nasa", 250);
  auto result = saged.Detect(nasa.dirty, MaskOracle(nasa.mask));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // NASA at this fixture scale is the hardest case (all-numeric, history
  // from census/movie data); require clearly-above-chance, not peak, F1.
  EXPECT_GT(nasa.mask.Score(result->mask).F1(), 0.3);
}

TEST_F(SagedFixture, AugmentationPathRuns) {
  SagedConfig config = FastConfig();
  config.augmentation = AugmentationMethod::kIterativeRefinement;
  Saged saged = MakeLoaded(config);
  auto beers = Gen("beers", 200);
  auto result = saged.Detect(beers.dirty, MaskOracle(beers.mask));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(beers.mask.Score(result->mask).F1(), 0.3);
}

TEST_F(SagedFixture, ThreadCountDoesNotChangeResults) {
  auto beers = Gen("beers", 200);
  SagedConfig sequential = FastConfig();
  sequential.detect_threads = 1;
  SagedConfig parallel = FastConfig();
  parallel.detect_threads = 4;
  Saged a = MakeLoaded(sequential);
  Saged b = MakeLoaded(parallel);
  auto ra = a.Detect(beers.dirty, MaskOracle(beers.mask));
  auto rb = b.Detect(beers.dirty, MaskOracle(beers.mask));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ra->mask == rb->mask);
  EXPECT_EQ(ra->matched_models, rb->matched_models);
}

TEST_F(SagedFixture, DeterministicGivenSeed) {
  auto beers = Gen("beers", 150);
  SagedConfig config = FastConfig();
  Saged a = MakeLoaded(config);
  Saged b = MakeLoaded(config);
  auto ra = a.Detect(beers.dirty, MaskOracle(beers.mask));
  auto rb = b.Detect(beers.dirty, MaskOracle(beers.mask));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ra->mask == rb->mask);
}

TEST_F(SagedFixture, DiagnosticsExplainEveryColumn) {
  Saged saged = MakeLoaded(FastConfig());
  auto beers = Gen("beers", 200);
  auto result = saged.Detect(beers.dirty, MaskOracle(beers.mask));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->diagnostics.size(), beers.dirty.NumCols());
  size_t total_flagged = 0;
  for (size_t j = 0; j < result->diagnostics.size(); ++j) {
    const auto& diag = result->diagnostics[j];
    EXPECT_EQ(diag.column, beers.dirty.column(j).name());
    EXPECT_EQ(diag.matched_sources.size(), result->matched_models[j]);
    for (const auto& src : diag.matched_sources) {
      EXPECT_NE(src.find('.'), std::string::npos) << src;
    }
    EXPECT_GT(diag.threshold, 0.0);
    // A fallback column whose labeled-clean votes reach 1.0 may calibrate
    // its cut just past 1 (flagging nothing), hence the epsilon.
    EXPECT_LE(diag.threshold, 1.0 + 1e-6);
    total_flagged += diag.flagged_cells;
  }
  EXPECT_EQ(total_flagged, result->mask.DirtyCount());
}

TEST_F(SagedFixture, ReportsPositiveDetectionTime) {
  Saged saged = MakeLoaded(FastConfig());
  auto nasa = Gen("nasa", 100);
  auto result = saged.Detect(nasa.dirty, MaskOracle(nasa.mask));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Run(DetectionRequest): the unified entry point every caller funnels
// through. Dispatch must be equivalent to the convenience wrappers, and
// invalid requests must be typed errors before any work starts.
// ---------------------------------------------------------------------------

TEST_F(SagedFixture, RunOnTableMatchesDetectWrapper) {
  Saged saged = MakeLoaded(FastConfig());
  auto beers = Gen("beers", 200);
  auto via_wrapper = saged.Detect(beers.dirty, MaskOracle(beers.mask));
  ASSERT_TRUE(via_wrapper.ok());
  auto via_run = saged.Run(
      DetectionRequest::ForTable(&beers.dirty, MaskOracle(beers.mask)));
  ASSERT_TRUE(via_run.ok()) << via_run.status().ToString();
  EXPECT_TRUE(via_run->mask == via_wrapper->mask)
      << "Run and Detect must be the same computation";
  EXPECT_EQ(via_run->labeled_tuples, via_wrapper->labeled_tuples);
}

TEST_F(SagedFixture, RunOnCsvMatchesInMemoryRun) {
  Saged saged = MakeLoaded(FastConfig());
  auto beers = Gen("beers", 200);
  const std::string path = ::testing::TempDir() + "run_dispatch_beers.csv";
  ASSERT_TRUE(WriteCsv(beers.dirty, path).ok());
  auto in_memory = saged.Run(
      DetectionRequest::ForTable(&beers.dirty, MaskOracle(beers.mask)));
  ASSERT_TRUE(in_memory.ok());
  // A CSV source without --stream loads the file and takes the same
  // in-memory path.
  auto from_csv =
      saged.Run(DetectionRequest::ForCsv(path, MaskOracle(beers.mask)));
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  EXPECT_TRUE(from_csv->mask == in_memory->mask);
  std::remove(path.c_str());
}

/// Every span path of the "detect" tree in `spans`, names joined by " > ".
void CollectDetectPaths(const std::vector<telemetry::MergedSpan>& spans,
                        const std::string& prefix,
                        std::set<std::string>* paths) {
  for (const auto& span : spans) {
    if (prefix.empty() && span.name != "detect") continue;
    std::string path = prefix.empty() ? span.name : prefix + " > " + span.name;
    paths->insert(path);
    CollectDetectPaths(span.children, path, paths);
  }
}

// In-memory detection is the streamed driver over a single block, so both
// paths must report their stages under one span tree: per-stage numbers
// from the two are then directly comparable. Runs on the pool: a thread
// that help-drains while it waits re-enters the task's span path from the
// root, so a parallel run's tree does not vary run to run.
TEST_F(SagedFixture, InMemoryAndStreamedRunsRecordTheSameSpanTree) {
  SagedConfig config = FastConfig();
  config.detect_threads = 4;
  Saged saged = MakeLoaded(config);
  auto beers = Gen("beers", 200);
  const std::string path = ::testing::TempDir() + "span_tree_beers.csv";
  ASSERT_TRUE(WriteCsv(beers.dirty, path).ok());
  auto span_paths = [&](const DetectionRequest& request) {
    telemetry::TelemetryRegistry::Get().Reset();
    telemetry::SetEnabled(true);
    auto result = saged.Run(request);
    telemetry::SetEnabled(false);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::set<std::string> paths;
    CollectDetectPaths(telemetry::SnapshotSpans(), "", &paths);
    telemetry::TelemetryRegistry::Get().Reset();
    return paths;
  };
  std::set<std::string> in_memory = span_paths(
      DetectionRequest::ForTable(&beers.dirty, MaskOracle(beers.mask)));
  DetectionOptions streamed;
  streamed.stream = true;
  streamed.block_rows = 64;
  std::set<std::string> from_stream = span_paths(
      DetectionRequest::ForCsv(path, MaskOracle(beers.mask), streamed));
  EXPECT_EQ(in_memory, from_stream);
  EXPECT_TRUE(in_memory.count("detect > detect/scan_stats"));
  EXPECT_TRUE(in_memory.count("detect > detect/block_infer"));
  EXPECT_TRUE(in_memory.count("detect > detect/match"));
  std::remove(path.c_str());
}

TEST_F(SagedFixture, RunValidatesBeforeWorking) {
  Saged saged = MakeLoaded(FastConfig());
  auto beers = Gen("beers", 50);

  // Null oracle.
  auto no_oracle = saged.Run(DetectionRequest::ForTable(&beers.dirty, {}));
  EXPECT_EQ(no_oracle.status().code(), StatusCode::kInvalidArgument);

  // Empty CSV path.
  auto no_path = saged.Run(DetectionRequest::ForCsv("", MaskOracle(beers.mask)));
  EXPECT_EQ(no_path.status().code(), StatusCode::kInvalidArgument);

  // Streaming requires a CSV source.
  DetectionOptions streamed;
  streamed.stream = true;
  auto stream_table = saged.Run(DetectionRequest::ForTable(
      &beers.dirty, MaskOracle(beers.mask), streamed));
  EXPECT_EQ(stream_table.status().code(), StatusCode::kInvalidArgument);

  // Degenerate options.
  DetectionOptions zero_block;
  zero_block.block_rows = 0;
  auto bad_block = saged.Run(DetectionRequest::ForTable(
      &beers.dirty, MaskOracle(beers.mask), zero_block));
  EXPECT_EQ(bad_block.status().code(), StatusCode::kInvalidArgument);
}

// A declared oracle shape that disagrees with the data must be a typed
// error *before the first oracle call*, on every execution path — without
// it, a too-small ground-truth mask is read out of bounds during labeling.
TEST_F(SagedFixture, RunRejectsMismatchedOracleShape) {
  Saged saged = MakeLoaded(FastConfig());
  auto beers = Gen("beers", 60);
  ErrorMask small = beers.mask.HeadRows(30);

  // In-memory path.
  auto in_memory =
      DetectionRequest::ForTable(&beers.dirty, MaskOracle(small));
  in_memory.set_oracle_shape(small.rows(), small.cols());
  auto rejected = saged.Run(in_memory);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("oracle shape"),
            std::string::npos)
      << rejected.status().ToString();

  // Streaming path: the mismatch is only knowable after the first pass
  // fixes the data's shape, and must still beat any oracle query.
  const std::string path = ::testing::TempDir() + "oracle_shape_beers.csv";
  ASSERT_TRUE(WriteCsv(beers.dirty, path).ok());
  DetectionOptions streamed;
  streamed.stream = true;
  streamed.block_rows = 16;
  auto via_stream =
      DetectionRequest::ForCsv(path, MaskOracle(small), streamed);
  via_stream.set_oracle_shape(small.rows(), small.cols());
  auto stream_rejected = saged.Run(via_stream);
  EXPECT_EQ(stream_rejected.status().code(), StatusCode::kInvalidArgument);

  // A matching declared shape changes nothing.
  auto matching =
      DetectionRequest::ForTable(&beers.dirty, MaskOracle(beers.mask));
  matching.set_oracle_shape(beers.mask.rows(), beers.mask.cols());
  auto accepted = saged.Run(matching);
  EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
  std::remove(path.c_str());
}

TEST_F(SagedFixture, RunHonorsPerRequestConfigOverride) {
  Saged saged = MakeLoaded(FastConfig());
  auto beers = Gen("beers", 200);
  auto request =
      DetectionRequest::ForTable(&beers.dirty, MaskOracle(beers.mask));
  SagedConfig smaller = FastConfig();
  smaller.labeling_budget = 8;
  request.set_config(smaller);
  auto result = saged.Run(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->labeled_tuples, 8u);
  // The engine's own config is untouched.
  EXPECT_EQ(saged.config().labeling_budget, 20u);
}

/// Every labeling strategy must run end to end and beat chance.
class StrategySweep : public ::testing::TestWithParam<LabelingStrategy> {};

TEST_P(StrategySweep, EndToEnd) {
  SagedConfig config;
  config.w2v.epochs = 1;
  config.w2v.dim = 6;
  config.labeling = GetParam();
  config.labeling_budget = 20;
  datagen::MakeOptions opts;
  opts.rows = 250;
  auto adult = datagen::MakeDataset("adult", opts);
  auto flights = datagen::MakeDataset("flights", opts);
  ASSERT_TRUE(adult.ok());
  ASSERT_TRUE(flights.ok());
  Saged saged(config);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult->dirty, adult->mask).ok());
  auto result = saged.Detect(flights->dirty, MaskOracle(flights->mask));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(flights->mask.Score(result->mask).F1(), 0.35)
      << LabelingStrategyName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategySweep,
                         ::testing::Values(LabelingStrategy::kRandom,
                                           LabelingStrategy::kHeuristic,
                                           LabelingStrategy::kClustering,
                                           LabelingStrategy::kActiveLearning));

}  // namespace
}  // namespace saged::core
