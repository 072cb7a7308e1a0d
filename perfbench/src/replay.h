// Traced replay of one detection through the library's public stage calls.
//
// Saged::Run runs its stages inside one fused per-column loop, so a
// benchmark cannot time them from outside. The replay re-executes the same
// detection stage by stage — matcher, Word2Vec corpus and training,
// featurization, base-model inference (meta-features), tuple selection,
// meta-classifier fit and predict, and on the streamed path the CSV block
// reader and the frozen-stats builder — with a timer around each call. It
// copies the detector's RNG salts and the order in which it draws from its
// RNG, so its mask must equal Run's mask on the same input; the benchmark
// checks that, which is what keeps the per-stage times honest.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>

#include "common/executor.h"
#include "common/status.h"
#include "core/config.h"
#include "core/knowledge_base.h"
#include "core/labeling.h"
#include "core/request.h"
#include "data/error_mask.h"
#include "data/table.h"

namespace perfbench {

/// Wall milliseconds spent in each stage of one replayed detection.
struct StageTimes {
  double match = 0.0;          // MakeMatcher + signatures + Matcher::Match
  double acquire = 0.0;        // KnowledgeBase::AcquireModels (streamed)
  double w2v_corpus = 0.0;     // DocumentReservoir fill (in-memory path)
  double w2v_train = 0.0;      // Word2Vec::Train
  double featurize = 0.0;      // Featurize / FeaturizeFrozenInto
  // BuildMetaFeatures (with the per-column AcquireModels) or the resident
  // matrices plus BuildMetaFeaturesInto.
  double meta_features = 0.0;
  double label = 0.0;          // SelectTuples + oracle labels
  double meta_train = 0.0;     // MetaClassifier::Fit
  double classify = 0.0;       // MetaClassifier::Predict
  double csv = 0.0;            // CsvBlockReader Open + Next, both passes
  double stats = 0.0;  // ColumnStatsBuilder Observe/Finalize + reservoir
  double csv_bytes = 0.0;      // bytes decoded by the block reader

  /// Sum of every timed stage.
  double Total() const;
  StageTimes& operator+=(const StageTimes& other);
};

struct ReplayOutcome {
  saged::ErrorMask mask;
  StageTimes ms;
};

/// Replays the in-memory path of Saged::Run on `dirty`.
saged::Result<ReplayOutcome> ReplayInMemory(
    const saged::core::SagedConfig& config, saged::core::KnowledgeBase* kb,
    saged::Executor* pool, const saged::Table& dirty,
    const saged::core::OracleFn& oracle);

/// Replays the streamed path of Saged::Run on the CSV file at `csv_path`.
saged::Result<ReplayOutcome> ReplayStreamed(
    const saged::core::SagedConfig& config, saged::core::KnowledgeBase* kb,
    saged::Executor* pool, const std::string& csv_path,
    const saged::core::DetectionOptions& options,
    const saged::core::OracleFn& oracle);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
