#ifndef SAGED_CORE_META_FEATURES_H_
#define SAGED_CORE_META_FEATURES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/executor.h"
#include "common/status.h"
#include "core/knowledge_base.h"
#include "ml/matrix.h"

namespace saged::core {

/// Runs the matched base models B_rel over one dirty column's padded
/// feature matrix, producing the meta-features F_meta: one prediction
/// column per matched model (rows x |B_rel|), optionally followed by the
/// cell's metadata block. Predictions are the base models' dirty-class
/// probabilities — the soft form of the paper's prediction vectors; the
/// heuristic labeling strategy's "count of positive values" becomes a sum
/// of probabilities, preserving its ranking.
///
/// `metadata_cols` appends that many leading columns of `features` (the
/// metadata profile) after the model predictions, implementing the paper's
/// "combination of the pre-trained models B_rel and the padded feature
/// vectors F_dirty": the meta classifier then sees both the experts' votes
/// and the cell's own statistics, which covers error types absent from the
/// historical inventory.
///
/// A non-null `executor` overlaps the matched models' inference (each model
/// fills its own prediction column, so the output is order-independent);
/// `max_parallelism` has ParallelFor semantics (0 = whole pool). Safe to
/// call from inside an executor task — the nested loop help-drains.
Result<ml::Matrix> BuildMetaFeatures(const ml::Matrix& features,
                                     const KnowledgeBase& kb,
                                     const std::vector<size_t>& model_indices,
                                     size_t metadata_cols = 0,
                                     Executor* executor = nullptr,
                                     size_t max_parallelism = 0);

/// Block form of BuildMetaFeatures for the streaming detector: writes the
/// meta-features of `features` (one block of a column's rows) into rows
/// [row_offset, row_offset + features.rows()) of the preallocated `out`
/// matrix, which spans the whole column. Base-model inference is per-row
/// independent, so filling `out` block by block produces a matrix
/// bit-identical to one whole-column BuildMetaFeatures call.
Status BuildMetaFeaturesInto(const ml::Matrix& features,
                             const KnowledgeBase& kb,
                             const std::vector<size_t>& model_indices,
                             size_t metadata_cols, ml::Matrix* out,
                             size_t row_offset, Executor* executor = nullptr,
                             size_t max_parallelism = 0);

/// Dictionary-space form (a features::FeatureView): cell i's feature row is
/// `rows.Row(codes[i])`, or `rows.Row(i)` when `codes` is empty. Each
/// matched model runs over `rows` once, and cell i's prediction and
/// metadata are scattered from its row, so rows [row_offset, row_offset +
/// cells) of `out` are byte-identical to the matrix overload on the
/// gathered per-cell features: base-model inference is a pure function of
/// one row.
Status BuildMetaFeaturesInto(const ml::Matrix& rows,
                             std::span<const uint32_t> codes,
                             const KnowledgeBase& kb,
                             const std::vector<size_t>& model_indices,
                             size_t metadata_cols, ml::Matrix* out,
                             size_t row_offset, Executor* executor = nullptr,
                             size_t max_parallelism = 0);

}  // namespace saged::core

#endif  // SAGED_CORE_META_FEATURES_H_
