#include "core/detector.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/augmentation.h"
#include "core/knowledge_extractor.h"
#include "core/matcher.h"
#include "core/meta_classifier.h"
#include "core/meta_features.h"
#include "data/csv.h"
#include "features/featurizer.h"
#include "features/frozen_stats.h"
#include "features/kernels.h"
#include "features/metadata_profiler.h"
#include "text/tokenizer.h"

namespace saged::core {

/// The online driver's input: the dirty data as blocks of consecutive rows,
/// in row order, each block one cell span per column. The driver reads the
/// source twice (scan, then inference), rewinding in between.
class BlockSource {
 public:
  struct Block {
    size_t first_row = 0;
    size_t rows = 0;
    std::vector<std::span<const Cell>> columns;
  };

  virtual ~BlockSource() = default;

  /// (Re)starts at the first row; column_names() is valid afterwards.
  virtual Status Rewind() = 0;
  /// Fills `block` with the next rows, or returns false at the end. The
  /// spans stay valid until the next call.
  virtual Result<bool> Next(Block* block) = 0;

  const std::vector<std::string>& column_names() const { return names_; }

 protected:
  std::vector<std::string> names_;
};

namespace {

/// Salt of the detection-phase RNG stream (decoupled from extraction).
constexpr uint64_t kDetectRngSalt = 0xD1B54A32D192ED03ULL;

/// Salt of the Word2Vec corpus reservoir. The driver builds the corpus
/// through a DocumentReservoir seeded with this, so the sampled documents
/// depend only on the row stream — never on blocking.
constexpr uint64_t kReservoirSalt = 0x9E3779B97F4A7C15ULL;

/// An in-memory table as exactly one block of spans over the table's own
/// column storage: no cell is ever copied.
class TableSource final : public BlockSource {
 public:
  explicit TableSource(const Table& table) : table_(table) {
    for (size_t j = 0; j < table.NumCols(); ++j) {
      names_.push_back(table.column(j).name());
    }
  }

  Status Rewind() override {
    done_ = false;
    return Status::OK();
  }
  Result<bool> Next(Block* block) override {
    if (done_) return false;
    done_ = true;
    block->first_row = 0;
    block->rows = table_.NumRows();
    block->columns.clear();
    for (size_t j = 0; j < table_.NumCols(); ++j) {
      block->columns.emplace_back(table_.column(j).values());
    }
    return true;
  }

 private:
  const Table& table_;
  bool done_ = false;
};

/// A CSV file streamed through CsvBlockReader, which holds one raw chunk
/// plus one decoded block. Every Rewind re-opens the file; a re-read must
/// see the header and row count of the pass before it, else IoError.
class CsvSource final : public BlockSource {
 public:
  CsvSource(std::string path, const DetectionOptions& options)
      : path_(std::move(path)), options_(options) {}

  Status Rewind() override {
    if (reader_.has_value()) expected_rows_ = reader_->rows_read();
    reader_.emplace(path_, options_.block_rows, CsvOptions{},
                    options_.chunk_bytes);
    SAGED_RETURN_NOT_OK(reader_->Open());
    if (expected_rows_.has_value() && reader_->column_names() != names_) {
      return Changed();
    }
    names_ = reader_->column_names();
    return Status::OK();
  }
  Result<bool> Next(Block* block) override {
    SAGED_ASSIGN_OR_RETURN(bool more, reader_->Next(&csv_block_));
    if (expected_rows_.has_value() &&
        (more ? csv_block_.first_row + csv_block_.rows() > *expected_rows_
              : reader_->rows_read() != *expected_rows_)) {
      return Changed();
    }
    if (!more) return false;
    block->first_row = csv_block_.first_row;
    block->rows = csv_block_.rows();
    block->columns.assign(csv_block_.columns.begin(),
                          csv_block_.columns.end());
    return true;
  }

 private:
  Status Changed() const {
    return Status::IoError("'" + path_ + "' changed between passes");
  }

  std::string path_;
  DetectionOptions options_;
  std::optional<CsvBlockReader> reader_;
  CsvBlock csv_block_;
  /// Rows the previous pass read; set from the second pass on.
  std::optional<size_t> expected_rows_;
};

}  // namespace

Saged::Saged(SagedConfig config, Executor* executor)
    : config_(std::move(config)),
      kb_(config_.char_slots),
      executor_(executor != nullptr ? executor : &Executor::Shared()) {}

Status Saged::AddHistoricalDataset(const Table& data, const ErrorMask& labels) {
  KnowledgeExtractor extractor(config_, executor_);
  return extractor.AddDataset(data, labels, &kb_);
}

OracleFn MaskOracle(const ErrorMask& truth) {
  return [&truth](size_t row, size_t col) {
    return truth.IsDirty(row, col) ? 1 : 0;
  };
}

Result<DetectionResult> Saged::Run(const DetectionRequest& request) {
  SAGED_RETURN_NOT_OK(request.Validate());
  const SagedConfig& config =
      request.config().has_value() ? *request.config() : config_;
  SAGED_RETURN_NOT_OK(config.Validate());
  if (kb_.empty()) {
    return Status::InvalidArgument(
        "knowledge base is empty; call AddHistoricalDataset first");
  }
  if (!request.has_csv()) {
    TableSource source(request.table());
    return DetectBlocks(config, request, source);
  }
  if (request.options().stream) {
    CsvSource source(request.csv_path(), request.options());
    return DetectBlocks(config, request, source);
  }
  SAGED_ASSIGN_OR_RETURN(Table table, ReadCsv(request.csv_path()));
  TableSource source(table);
  return DetectBlocks(config, request, source);
}

Status Saged::CheckOracleShape(const DetectionRequest& request, size_t rows,
                               size_t cols) {
  if (!request.oracle_shape().has_value()) return Status::OK();
  const auto& [oracle_rows, oracle_cols] = *request.oracle_shape();
  if (oracle_rows != rows || oracle_cols != cols) {
    return Status::InvalidArgument(
        "oracle shape " + std::to_string(oracle_rows) + "x" +
        std::to_string(oracle_cols) + " does not match the data's " +
        std::to_string(rows) + "x" + std::to_string(cols));
  }
  return Status::OK();
}

Result<DetectionResult> Saged::Detect(const Table& dirty,
                                      const OracleFn& oracle) {
  return Run(DetectionRequest::ForTable(&dirty, oracle));
}

Result<DetectionResult> Saged::DetectStream(const std::string& csv_path,
                                            const OracleFn& oracle,
                                            const DetectionOptions& options) {
  DetectionOptions streamed = options;
  streamed.stream = true;
  return Run(DetectionRequest::ForCsv(csv_path, oracle, streamed));
}

Result<DetectionResult> Saged::DetectBlocks(const SagedConfig& config,
                                            const DetectionRequest& request,
                                            BlockSource& source) {
  StopWatch watch;
  SAGED_TRACE_SPAN("detect");
  SAGED_COUNTER_INC("detect.runs");
  features::kernels::SetSimdEnabled(config.featurize_simd);
  Rng rng(config.seed ^ kDetectRngSalt);
  const size_t threads = config.detect_threads;

  // 1. Scan: freeze per-column statistics (metadata profile, TF-IDF corpus,
  //    type, matcher signature) and fill the Word2Vec corpus reservoir.
  //    Nothing but the accumulators outlives a block.
  SAGED_RETURN_NOT_OK(source.Rewind());
  const std::vector<std::string> names = source.column_names();
  const size_t cols = names.size();
  if (cols == 0) return Status::InvalidArgument("empty dirty table");
  std::vector<features::ColumnStatsBuilder> builders(cols);
  text::DocumentReservoir reservoir(config.w2v.max_documents,
                                    config.seed ^ kReservoirSalt);
  size_t rows = 0;
  {
    SAGED_TRACE_SPAN("detect/scan_stats");
    BlockSource::Block block;
    std::vector<Cell> row_cells(cols);
    while (true) {
      SAGED_ASSIGN_OR_RETURN(bool more, source.Next(&block));
      if (!more) break;
      // Task 0 feeds the reservoir in row order while each other task scans
      // one column into its own builder, so the fan-out is deterministic.
      auto scan = [&](size_t task) {
        if (task > 0) {
          for (const Cell& cell : block.columns[task - 1]) {
            builders[task - 1].Observe(cell);
          }
          return;
        }
        for (size_t i = 0; i < block.rows; ++i) {
          for (size_t j = 0; j < cols; ++j) row_cells[j] = block.columns[j][i];
          reservoir.Add(text::TupleTokens(row_cells));
        }
      };
      executor_->ParallelFor(cols + 1, scan, threads);
      rows += block.rows;
      SAGED_COUNTER_ADD("detect.blocks", 1);
      SAGED_GAUGE_SAMPLE_RSS("detect.rss_bytes");
    }
  }
  if (rows == 0) return Status::InvalidArgument("empty dirty table");
  // The scan fixed the data's shape; bounce a mismatched oracle now, before
  // the expensive second pass and before labeling ever queries it.
  SAGED_RETURN_NOT_OK(CheckOracleShape(request, rows, cols));
  SAGED_COUNTER_ADD("detect.cells", rows * cols);

  std::vector<features::FrozenColumnStats> stats(cols);
  std::vector<Status> column_status(cols);
  executor_->ParallelFor(
      cols,
      [&](size_t j) {
        Result<features::FrozenColumnStats> frozen = builders[j].Finalize();
        if (!frozen.ok()) {
          column_status[j] = frozen.status();
          return;
        }
        stats[j] = std::move(frozen).value();
      },
      threads);
  for (const auto& status : column_status) SAGED_RETURN_NOT_OK(status);
  builders.clear();

  // 2. Dataset-level Word2Vec for the dirty data's feature extraction.
  text::Word2Vec w2v(config.w2v, config.seed);
  {
    SAGED_TRACE_SPAN("detect/train_w2v");
    SAGED_RETURN_NOT_OK(w2v.Train(reservoir.Take()));
  }

  // 3. Match every column against the knowledge base (lines 1-4 of
  //    Figure 3) and size the resident per-column meta-feature matrices
  //    (rows x (|B_rel| + metadata)): the only full-table allocation.
  DetectionResult result{ErrorMask(rows, cols), 0.0, 0, {}, {}};
  result.diagnostics.resize(cols);
  const size_t metadata_cols = config.meta_include_cell_metadata
                                   ? features::MetadataProfiler::kWidth
                                   : 0;
  std::vector<std::vector<size_t>> models(cols);
  std::vector<ml::Matrix> meta(cols);
  std::vector<size_t> vote_cols(cols, 0);
  {
    SAGED_TRACE_SPAN("detect/match");
    SAGED_ASSIGN_OR_RETURN(auto matcher, [&] {
      SAGED_TRACE_SPAN("detect/match/build_matcher");
      return MakeMatcher(config, &kb_);
    }());
    executor_->ParallelFor(
        cols, [&](size_t j) { models[j] = matcher->Match(stats[j].signature); },
        threads);
    for (size_t j = 0; j < cols; ++j) {
      result.diagnostics[j].column = names[j];
      for (size_t m : models[j]) {
        result.diagnostics[j].matched_sources.push_back(
            kb_.entries()[m].dataset + "." + kb_.entries()[m].column);
      }
      vote_cols[j] = models[j].size();
      meta[j] = ml::Matrix(rows, models[j].size() + metadata_cols);
      result.matched_models.push_back(models[j].size());
    }
  }

  // 4. Block inference (lines 5-13): featurize each block under the frozen
  //    stats and run B_rel straight into the meta matrices at the block's
  //    rows. Rows are independent in both stages, so the filled matrices do
  //    not depend on the blocking.
  {
    SAGED_TRACE_SPAN("detect/block_infer");
    features::ColumnFeaturizer featurizer(&w2v, &kb_.char_space(),
                                          MakeFeaturizeOptions(config));
    // Featurization scratch (arena discipline) per task, not per column:
    // tasks claim columns one at a time, so at most `tasks` wide feature
    // matrices are alive at once, and each is reused block after block.
    const size_t tasks = std::min(
        cols, threads == 0 ? executor_->num_workers() + 1 : threads);
    std::vector<features::FeatureArena> arenas(tasks);
    std::vector<ml::Matrix> feature_scratch(tasks);
    // A column pins its matched base models from its first block through
    // its last (a lazily-backed knowledge base decodes missing models on
    // acquire; an in-memory one hands back a null lease), so inference
    // never sees an evicted model, yet a one-block run pins only the
    // columns in flight, not the union over all columns.
    std::vector<ModelLease> leases(cols);
    SAGED_RETURN_NOT_OK(source.Rewind());
    BlockSource::Block block;
    size_t block_index = 0;
    while (true) {
      SAGED_ASSIGN_OR_RETURN(bool more, source.Next(&block));
      if (!more) break;
      // The block index rides on the trace event (args.id), so block
      // overlap and stragglers are attributable in the Chrome trace.
      SAGED_TRACE_SPAN_ARG("detect/block", block_index++);
      const bool last_block = block.first_row + block.rows == rows;
      std::atomic<size_t> next_column{0};
      auto infer = [&](size_t t) {
        for (size_t j = next_column++; j < cols; j = next_column++) {
          column_status[j] = [&]() -> Status {
            if (block.first_row == 0) {
              SAGED_ASSIGN_OR_RETURN(leases[j], kb_.AcquireModels(models[j]));
            }
            {
              SAGED_TRACE_SPAN("detect/featurize");
              SAGED_RETURN_NOT_OK(featurizer.FeaturizeFrozenInto(
                  stats[j], block.columns[j], &feature_scratch[t],
                  &arenas[t]));
            }
            SAGED_TRACE_SPAN("detect/meta_features");
            // Nested fan-out: when fewer columns than workers are in
            // flight, the matched base models' inference overlaps too.
            return BuildMetaFeaturesInto(feature_scratch[t], kb_, models[j],
                                         metadata_cols, &meta[j],
                                         block.first_row, executor_, threads);
          }();
          if (last_block) leases[j].reset();
        }
      };
      executor_->ParallelFor(tasks, infer, threads);
      for (const auto& status : column_status) SAGED_RETURN_NOT_OK(status);
      SAGED_GAUGE_SAMPLE_RSS("detect.rss_bytes");
    }
  }

  // 5-7. Tuple selection, labeling, meta classifiers, predictions.
  SAGED_RETURN_NOT_OK(
      FinishDetection(config, meta, vote_cols, request.oracle(), rng, &result));
  result.seconds = watch.Seconds();
  return result;
}

Status Saged::FinishDetection(const SagedConfig& config,
                              const std::vector<ml::Matrix>& meta,
                              const std::vector<size_t>& vote_cols,
                              const OracleFn& oracle, Rng& rng,
                              DetectionResult* result) {
  const size_t rows = result->mask.rows();
  const size_t cols = result->mask.cols();

  // 5. Tuple selection for labeling (Section 4.1).
  std::vector<size_t> labeled_rows;
  {
    SAGED_TRACE_SPAN("detect/label");
    labeled_rows = SelectTuples(config, meta, vote_cols,
                                config.labeling_budget, oracle, rng);
  }
  if (labeled_rows.empty()) {
    return Status::InvalidArgument("labeling budget too small");
  }
  result->labeled_tuples = labeled_rows.size();

  // 6. Per-column oracle labels for the selected tuples.
  std::vector<std::vector<int>> labels(cols);
  {
    SAGED_TRACE_SPAN("detect/label/oracle");
    for (size_t j = 0; j < cols; ++j) {
      labels[j].reserve(labeled_rows.size());
      for (size_t r : labeled_rows) labels[j].push_back(oracle(r, j));
    }
    SAGED_COUNTER_ADD("detect.oracle_labels", labeled_rows.size() * cols);
  }

  // 7. Meta classifier per column, optional label augmentation (Section
  //    4.2), final cell predictions.
  for (size_t j = 0; j < cols; ++j) {
    MetaClassifier initial(config.meta_model, rng.Next(), vote_cols[j]);
    {
      SAGED_TRACE_SPAN("detect/meta_train");
      SAGED_RETURN_NOT_OK(initial.Fit(meta[j], labeled_rows, labels[j]));
    }

    std::vector<size_t> train_rows = labeled_rows;
    std::vector<int> train_y = labels[j];
    {
      // The span is opened even when augmentation is off so the timing
      // tree always carries a detect/augment row (at ~zero cost).
      SAGED_TRACE_SPAN("detect/augment");
      if (config.augmentation != AugmentationMethod::kNone) {
        auto proba = initial.PredictProba(meta[j]);
        auto pseudo = AugmentColumn(config.augmentation, meta[j],
                                    labeled_rows, labels[j], proba,
                                    config.augmentation_fraction, rng);
        for (const auto& [row, label] : pseudo) {
          train_rows.push_back(row);
          train_y.push_back(label);
        }
      }
    }

    MetaClassifier final_model(config.meta_model, rng.Next(), vote_cols[j]);
    const MetaClassifier* predictor = &initial;
    if (train_rows.size() != labeled_rows.size()) {
      SAGED_TRACE_SPAN("detect/meta_train");
      SAGED_RETURN_NOT_OK(final_model.Fit(meta[j], train_rows, train_y));
      predictor = &final_model;
    }
    SAGED_TRACE_SPAN("detect/classify");
    auto preds = predictor->Predict(meta[j]);
    size_t flagged = 0;
    for (size_t r = 0; r < rows; ++r) {
      if (preds[r]) {
        result->mask.Set(r, j);
        ++flagged;
      }
    }
    SAGED_COUNTER_ADD("detect.cells_flagged", flagged);
    result->diagnostics[j].used_fallback = predictor->IsFallback();
    result->diagnostics[j].threshold = predictor->threshold();
    result->diagnostics[j].flagged_cells = flagged;
  }
  return Status::OK();
}

}  // namespace saged::core
