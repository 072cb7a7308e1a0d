#include "core/knowledge_extractor.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/contracts.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "features/featurizer.h"
#include "features/frozen_stats.h"
#include "features/kernels.h"
#include "text/tokenizer.h"

namespace saged::core {

namespace {

/// Cell cap per base-model training set: historical columns can have
/// hundreds of thousands of cells, and the classifiers saturate well before.
constexpr size_t kBaseModelSampleCap = 20000;

/// Derives the column-local RNG seed. Mixing the column index through an
/// odd multiplier before folding it into the user seed keeps the streams
/// distinct per column while staying independent of execution order — the
/// root of the bit-identical-at-any-thread-count guarantee.
uint64_t ColumnSeed(uint64_t seed, size_t column) {
  return seed ^ 0x9e3779b97f4a7c15ULL ^
         (0xbf58476d1ce4e5b9ULL * (static_cast<uint64_t>(column) + 1));
}

}  // namespace

Status KnowledgeExtractor::AddDataset(const Table& data,
                                      const ErrorMask& labels,
                                      KnowledgeBase* kb) const {
  if (data.NumRows() == 0 || data.NumCols() == 0) {
    return Status::InvalidArgument("empty historical dataset");
  }
  if (labels.rows() != data.NumRows() || labels.cols() != data.NumCols()) {
    return Status::InvalidArgument(
        StrFormat("label mask shape (%zux%zu) != table shape (%zux%zu)",
                  labels.rows(), labels.cols(), data.NumRows(),
                  data.NumCols()));
  }
  SAGED_RETURN_NOT_OK(config_.Validate());

  SAGED_TRACE_SPAN("extract");

  SAGED_COUNTER_INC("extract.datasets");

  // 1. One scan per column freezes everything extraction needs from it:
  //    the metadata profile and TF-IDF corpus (featurization), the type and
  //    the signature (matching). Detection's scan builds the same stats.
  //    It runs on the calling thread: the value maps outlive Word2Vec
  //    training, and built on pool workers they fragmented the workers'
  //    malloc arenas (repeated extractions peaked up to a fifth higher).
  const size_t cols = data.NumCols();
  std::vector<features::FrozenColumnStats> stats(cols);
  {
    SAGED_TRACE_SPAN("extract/scan_stats");
    for (size_t j = 0; j < cols; ++j) {
      features::ColumnStatsBuilder builder;
      for (const Cell& cell : data.column(j).values()) builder.Observe(cell);
      SAGED_ASSIGN_OR_RETURN(stats[j], builder.Finalize());
    }
  }

  // 2. Register each column's characters (its first-seen TF-IDF
  //    vocabulary) into the shared char space, in column order, so the
  //    zero-padded TF-IDF slots cover this dataset's vocabulary.
  {
    SAGED_TRACE_SPAN("extract/register_chars");
    for (const auto& column_stats : stats) {
      kb->mutable_char_space()->Register(column_stats.tfidf.vocabulary());
    }
  }

  // 3. Train the dataset-level Word2Vec model (each tuple is a document).
  std::vector<std::vector<std::string>> documents;
  documents.reserve(data.NumRows());
  for (size_t r = 0; r < data.NumRows(); ++r) {
    documents.push_back(text::TupleTokens(data.Row(r)));
  }
  text::Word2Vec w2v(config_.w2v, config_.seed);
  {
    SAGED_TRACE_SPAN("extract/train_w2v");
    SAGED_RETURN_NOT_OK(w2v.Train(documents));
  }

  // 4. One base model per column, fanned out over the shared executor.
  //    Each column owns an RNG derived from (seed, column index) and writes
  //    into its own slot, then slots are appended in column order — the
  //    knowledge base comes out bit-identical at any thread count.
  SAGED_TRACE_SPAN("extract/base_models");
  features::kernels::SetSimdEnabled(config_.featurize_simd);
  features::ColumnFeaturizer featurizer(&w2v, &kb->char_space(),
                                        MakeFeaturizeOptions(config_));
  // The paper's knowledge-extraction contract: every column — historical or
  // dirty — featurizes into the same zero-padded width, or base models and
  // meta-features silently stop lining up (detection quality collapses
  // without an error). Enforced per column below.
  const size_t expected_width =
      features::ColumnFeaturizer::FeatureWidth(config_.w2v.dim,
                                               kb->char_space());
  std::vector<std::optional<BaseModelEntry>> slots(cols);
  std::vector<Status> column_status(cols);
  auto train_column = [&](size_t j) {
    const Column& column = data.column(j);
    Rng rng(ColumnSeed(config_.seed, j));
    ml::Matrix features;
    {
      SAGED_TRACE_SPAN("extract/featurize");
      column_status[j] = featurizer.FeaturizeFrozenInto(
          stats[j], column.values(), &features, nullptr);
    }
    // The stats are spent once the features exist: release them now, so
    // the scan's value maps do not all stay alive through training.
    std::vector<double> signature = std::move(stats[j].signature);
    stats[j] = {};
    if (!column_status[j].ok()) return;
    SAGED_CHECK_EQ(features.cols(), expected_width)
        << "featurization width drifted for " << data.name() << "."
        << column.name();
    SAGED_CHECK_EQ(features.rows(), column.values().size())
        << "featurizer must emit one row per cell of " << data.name() << "."
        << column.name();
    std::vector<int> y = labels.ColumnLabels(j);

    // Cap the training set; keep every dirty cell (they are the rare class
    // that carries the error-pattern knowledge) and subsample the clean
    // ones.
    if (features.rows() > kBaseModelSampleCap) {
      std::vector<size_t> dirty_rows;
      std::vector<size_t> clean_rows;
      for (size_t r = 0; r < y.size(); ++r) {
        (y[r] ? dirty_rows : clean_rows).push_back(r);
      }
      size_t clean_target =
          kBaseModelSampleCap > dirty_rows.size()
              ? kBaseModelSampleCap - dirty_rows.size()
              : kBaseModelSampleCap / 2;
      rng.Shuffle(clean_rows);
      clean_rows.resize(std::min(clean_rows.size(), clean_target));
      std::vector<size_t> keep = dirty_rows;
      keep.insert(keep.end(), clean_rows.begin(), clean_rows.end());
      std::sort(keep.begin(), keep.end());
      features = features.SelectRows(keep);
      std::vector<int> y_sub;
      y_sub.reserve(keep.size());
      for (size_t r : keep) y_sub.push_back(y[r]);
      y = std::move(y_sub);
    }

    // A column whose labels are single-class cannot train a discriminative
    // model; skip it (its knowledge is vacuous).
    bool has_dirty = std::find(y.begin(), y.end(), 1) != y.end();
    bool has_clean = std::find(y.begin(), y.end(), 0) != y.end();
    if (!has_dirty || !has_clean) {
      SAGED_LOG(Debug) << "skipping single-class historical column "
                       << data.name() << "." << column.name();
      SAGED_COUNTER_INC("extract.columns_skipped");
      return;
    }

    auto model = MakeModel(config_.base_model, rng.Next());
    if (!model.ok()) {
      column_status[j] = model.status();
      return;
    }
    StopWatch fit_watch;
    {
      SAGED_TRACE_SPAN("extract/fit");
      column_status[j] = (*model)->Fit(features, y);
    }
    if (!column_status[j].ok()) return;
    SAGED_HISTOGRAM_OBSERVE("extract.base_model_fit_ms", fit_watch.Millis());
    SAGED_COUNTER_INC("extract.base_models");

    BaseModelEntry entry;
    entry.dataset = data.name();
    entry.column = column.name();
    entry.signature = std::move(signature);
    entry.model = std::move(model).value();
    slots[j] = std::move(entry);
  };
  executor_->ParallelFor(cols, train_column, config_.extract_threads);
  for (const auto& status : column_status) {
    SAGED_RETURN_NOT_OK(status);
  }
  for (auto& slot : slots) {
    if (slot.has_value()) kb->AddEntry(std::move(slot).value());
  }
  return Status::OK();
}

}  // namespace saged::core
