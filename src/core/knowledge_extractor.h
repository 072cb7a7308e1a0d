#ifndef SAGED_CORE_KNOWLEDGE_EXTRACTOR_H_
#define SAGED_CORE_KNOWLEDGE_EXTRACTOR_H_

#include "common/executor.h"
#include "common/status.h"
#include "core/config.h"
#include "core/knowledge_base.h"
#include "data/error_mask.h"
#include "data/table.h"

namespace saged::core {

/// The offline knowledge-extraction phase: for every column of a historical
/// dataset (whose cells carry dirty/clean labels from a prior cleaning
/// effort), featurize the cells, train one binary base classifier, compute
/// the column signature, and store everything in the KnowledgeBase.
///
/// The per-column featurize+train loop — embarrassingly parallel — runs on
/// the given executor, capped by `config.extract_threads`. Each column
/// derives its own RNG stream from (config.seed, column index), so the
/// extracted knowledge base is bit-identical at any thread count.
class KnowledgeExtractor {
 public:
  /// `executor` = nullptr uses the process-wide Executor::Shared() pool.
  explicit KnowledgeExtractor(const SagedConfig& config,
                              Executor* executor = nullptr)
      : config_(config),
        executor_(executor != nullptr ? executor : &Executor::Shared()) {}

  /// Ingests one historical dataset. `labels` marks which cells of `data`
  /// are dirty (from the prior cleaning). Registers the dataset's character
  /// vocabulary into the knowledge base's shared char space, trains a
  /// Word2Vec model on the dataset's tuples, then trains one base model per
  /// column.
  Status AddDataset(const Table& data, const ErrorMask& labels,
                    KnowledgeBase* kb) const;

 private:
  SagedConfig config_;
  Executor* executor_;
};

}  // namespace saged::core

#endif  // SAGED_CORE_KNOWLEDGE_EXTRACTOR_H_
