#ifndef SAGED_CORE_DETECTOR_H_
#define SAGED_CORE_DETECTOR_H_

#include <string>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/config.h"
#include "core/knowledge_base.h"
#include "core/labeling.h"
#include "core/request.h"
#include "data/error_mask.h"
#include "data/table.h"
#include "ml/matrix.h"

namespace saged::core {

/// The online driver's input, a table or a CSV file as row blocks (defined
/// in detector.cc).
class BlockSource;

/// Post-hoc interpretability for one column (the paper's Discussion point 3:
/// "why was this cell flagged?"): which historical columns' models voted,
/// how the per-column classifier decided, and where its cut sits.
struct ColumnDiagnostics {
  std::string column;
  /// "dataset.column" provenance of each matched base model, most similar
  /// first.
  std::vector<std::string> matched_sources;
  /// True when too few label classes were available and the column degraded
  /// to calibrated base-model voting.
  bool used_fallback = false;
  /// The calibrated decision threshold actually applied.
  double threshold = 0.5;
  /// Dirty cells predicted in this column.
  size_t flagged_cells = 0;
};

/// Outcome of one online detection run.
struct DetectionResult {
  /// Predicted dirty cells.
  ErrorMask mask;
  /// Wall-clock seconds of the online phase (the paper's detection time).
  double seconds = 0.0;
  /// Tuples the oracle actually labeled.
  size_t labeled_tuples = 0;
  /// |B_rel| per dirty column (diagnostics for the similarity experiments).
  std::vector<size_t> matched_models;
  /// Per-column explanation of how the decision was made.
  std::vector<ColumnDiagnostics> diagnostics;
};

/// The SAGED tool (paper Figure 2): offline knowledge extraction via
/// AddHistoricalDataset, then online detection via Run.
///
///   core::Saged saged(config);
///   saged.AddHistoricalDataset(adult.dirty, adult.mask);
///   saged.AddHistoricalDataset(movies.dirty, movies.mask);
///   auto result = saged.Run(
///       core::DetectionRequest::ForTable(&beers.dirty,
///                                        MaskOracle(beers.mask)));
///
/// Run is the single online entry point: the in-memory and streaming paths,
/// the CLI, the benches, and the serve daemon all funnel through one
/// request-shaped signature (core/request.h) into one driver. Detect /
/// DetectStream remain as thin conveniences that build the request for you.
class Saged {
 public:
  /// `executor` = nullptr uses the process-wide Executor::Shared() pool;
  /// pass a dedicated pool to isolate this instance's work. Both phases
  /// (extraction and detection) run on the same executor; the
  /// `extract_threads` / `detect_threads` knobs cap each phase's
  /// parallelism without resizing the pool.
  ///
  /// Config validation is deferred to the entry points (constructors cannot
  /// return a Status): AddHistoricalDataset and Detect reject an invalid
  /// config via SagedConfig::Validate() before doing any work.
  explicit Saged(SagedConfig config = {}, Executor* executor = nullptr);

  const SagedConfig& config() const { return config_; }
  const KnowledgeBase& knowledge_base() const { return kb_; }
  /// Mutable access for callers that manage lazy model residency (e.g. the
  /// serve daemon pinning every model up front via AcquireModels).
  KnowledgeBase* mutable_knowledge_base() { return &kb_; }
  Executor& executor() const { return *executor_; }

  /// Replaces the knowledge base wholesale — e.g. with one opened from a
  /// store on disk (kb::ShardStore::MakeKnowledgeBase), skipping
  /// re-extraction.
  void SetKnowledgeBase(KnowledgeBase kb) { kb_ = std::move(kb); }

  /// Offline phase: ingest one pre-cleaned historical dataset (its data and
  /// the dirty/clean cell labels from the prior cleaning effort).
  Status AddHistoricalDataset(const Table& data, const ErrorMask& labels);

  /// Online phase, unified entry point: validates the request, resolves the
  /// effective config (the request's override or this instance's), and
  /// runs the one online driver over a block source built from the
  /// request —
  ///   table source                  -> the table as a single block
  ///   CSV source, options.stream    -> the file, streamed block by block
  ///   CSV source, !options.stream   -> the file loaded whole, single block
  ///
  /// Run never mutates the engine: concurrent Run calls on one instance are
  /// safe (and how the serve daemon amortizes one knowledge base across
  /// clients), provided no AddHistoricalDataset / SetKnowledgeBase runs
  /// concurrently.
  Result<DetectionResult> Run(const DetectionRequest& request);

  /// Convenience wrapper: in-memory detection on `dirty`, asking `oracle`
  /// for at most `config.labeling_budget` tuple labels.
  Result<DetectionResult> Detect(const Table& dirty, const OracleFn& oracle);

  /// Convenience wrapper for the out-of-core path: detects errors in the
  /// CSV file at `csv_path` without ever materializing the table
  /// (options.stream is implied). The driver reads the file twice: the
  /// first pass freezes per-column statistics and the Word2Vec corpus
  /// reservoir, the second featurizes and runs base-model inference one
  /// block at a time; only the narrow per-column meta-feature matrices
  /// (rows x (|B_rel| + metadata)) stay resident. Because in-memory
  /// detection is the same driver over a single block, the mask is
  /// byte-identical to Detect on the loaded table for any block_rows /
  /// chunk_bytes / detect_threads. Oracle row indices refer to the file's
  /// data rows in order.
  Result<DetectionResult> DetectStream(const std::string& csv_path,
                                       const OracleFn& oracle,
                                       const DetectionOptions& options = {});

 private:
  /// The online driver (spans under "detect"): scan the source for frozen
  /// column stats and the Word2Vec reservoir, train Word2Vec, match, re-read
  /// the source block by block into the meta-feature matrices (each column
  /// leasing its matched models from its first block through its last),
  /// then FinishDetection.
  Result<DetectionResult> DetectBlocks(const SagedConfig& config,
                                       const DetectionRequest& request,
                                       BlockSource& source);

  /// The request's declared oracle shape against the data's actual shape;
  /// checked once the scan has fixed the shape, before the first oracle
  /// query, so a mismatched ground-truth mask is a typed error instead of
  /// out-of-bounds labeling reads.
  static Status CheckOracleShape(const DetectionRequest& request, size_t rows,
                                 size_t cols);

  /// The driver's tail once the per-column meta-feature matrices exist:
  /// tuple selection, oracle labeling, meta classifier training, final cell
  /// predictions. Consumes `rng` in a fixed order, so the mask depends only
  /// on the meta matrices and the oracle.
  Status FinishDetection(const SagedConfig& config,
                         const std::vector<ml::Matrix>& meta,
                         const std::vector<size_t>& vote_cols,
                         const OracleFn& oracle, Rng& rng,
                         DetectionResult* result);

  SagedConfig config_;
  KnowledgeBase kb_;
  Executor* executor_;
};

/// Oracle backed by a ground-truth mask (the evaluation harness's simulated
/// user). The mask must outlive the returned function.
OracleFn MaskOracle(const ErrorMask& truth);

}  // namespace saged::core

#endif  // SAGED_CORE_DETECTOR_H_
