#include "core/meta_features.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace saged::core {

Status BuildMetaFeaturesInto(const ml::Matrix& features,
                             const KnowledgeBase& kb,
                             const std::vector<size_t>& model_indices,
                             size_t metadata_cols, ml::Matrix* out,
                             size_t row_offset, Executor* executor,
                             size_t max_parallelism) {
  return BuildMetaFeaturesInto(features, {}, kb, model_indices, metadata_cols,
                               out, row_offset, executor, max_parallelism);
}

Status BuildMetaFeaturesInto(const ml::Matrix& rows,
                             std::span<const uint32_t> codes,
                             const KnowledgeBase& kb,
                             const std::vector<size_t>& model_indices,
                             size_t metadata_cols, ml::Matrix* out,
                             size_t row_offset, Executor* executor,
                             size_t max_parallelism) {
  if (model_indices.empty()) {
    return Status::InvalidArgument("no base models matched");
  }
  if (metadata_cols > rows.cols()) {
    return Status::InvalidArgument("metadata_cols exceeds feature width");
  }
  for (size_t idx : model_indices) {
    if (idx >= kb.size()) {
      return Status::OutOfRange("base model index out of range");
    }
  }
  const size_t n_models = model_indices.size();
  if (out->cols() != n_models + metadata_cols) {
    return Status::InvalidArgument("meta matrix width mismatch");
  }
  const size_t cells = codes.empty() ? rows.rows() : codes.size();
  if (row_offset + cells > out->rows()) {
    return Status::OutOfRange("meta block exceeds output rows");
  }
  // Cell i's feature row: through the codes, or itself.
  auto row_of = [&](size_t i) -> size_t {
    if (codes.empty()) return i;
    SAGED_DCHECK_LT(codes[i], rows.rows());
    return codes[i];
  };
  SAGED_TRACE_SPAN("meta_features/build");
  SAGED_COUNTER_ADD("meta_features.base_model_invocations", n_models);
  SAGED_COUNTER_ADD("meta_features.rows_inferred", n_models * rows.rows());
  auto run_model = [&](size_t m) {
    StopWatch watch;
    auto proba = kb.entries()[model_indices[m]].model->PredictProba(rows);
    SAGED_HISTOGRAM_OBSERVE("meta_features.inference_ms", watch.Millis());
    // A base model that emits the wrong number of scores would smear
    // another model's column; that is a broken classifier, not bad data.
    SAGED_CHECK_EQ(proba.size(), rows.rows())
        << "base model " << model_indices[m]
        << " returned a wrong-length probability vector";
    for (size_t i = 0; i < cells; ++i) {
      // Model m owns column m: no write overlap.
      out->At(row_offset + i, m) = proba[row_of(i)];
    }
  };
  if (executor != nullptr) {
    executor->ParallelFor(n_models, run_model, max_parallelism);
  } else {
    for (size_t m = 0; m < n_models; ++m) run_model(m);
  }
  if (metadata_cols > 0) {
    for (size_t i = 0; i < cells; ++i) {
      std::span<const double> src = rows.Row(row_of(i));
      std::copy(src.begin(), src.begin() + metadata_cols,
                out->Row(row_offset + i).begin() + n_models);
    }
  }
  return Status::OK();
}

Result<ml::Matrix> BuildMetaFeatures(const ml::Matrix& features,
                                     const KnowledgeBase& kb,
                                     const std::vector<size_t>& model_indices,
                                     size_t metadata_cols, Executor* executor,
                                     size_t max_parallelism) {
  ml::Matrix meta(features.rows(),
                  model_indices.empty() ? 0
                                        : model_indices.size() + metadata_cols);
  SAGED_RETURN_NOT_OK(BuildMetaFeaturesInto(features, kb, model_indices,
                                            metadata_cols, &meta, 0, executor,
                                            max_parallelism));
  SAGED_CHECK_EQ(meta.cols(), model_indices.size() + metadata_cols)
      << "meta-feature width must be |B_rel| plus the metadata block";
  return meta;
}

}  // namespace saged::core
