#include "features/featurizer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "features/kernels.h"
#include "features/metadata_profiler.h"

namespace saged::features {

size_t ColumnFeaturizer::FeatureWidth(size_t w2v_dim, const CharSpace& space) {
  return MetadataProfiler::kWidth + w2v_dim + space.capacity();
}

void ColumnFeaturizer::RegisterChars(const Column& column, CharSpace* space) {
  text::CharTfidf tfidf;
  if (!tfidf.Fit(column.values()).ok()) return;
  space->Register(tfidf.vocabulary());
}

ColumnFeaturizer::TfidfPlan ColumnFeaturizer::BuildTfidfPlan(
    const text::CharTfidf& tfidf, FeatureArena* arena) const {
  TfidfPlan plan;
  plan.tfidf = &tfidf;
  const auto& vocab = tfidf.vocabulary();
  arena->idf_.resize(vocab.size());
  arena->slots_.resize(vocab.size());
  for (size_t v = 0; v < vocab.size(); ++v) {
    // Exactly CharTfidf::TransformCell's idf expression, hoisted out of the
    // per-cell loop: same operands, same operation order, same double.
    arena->idf_[v] =
        std::log2(static_cast<double>(tfidf.NumDocs()) /
                  (static_cast<double>(tfidf.DocFrequency(vocab[v])) + 1.0));
    arena->slots_[v] = space_->SlotFor(vocab[v]);
  }
  plan.idf = arena->idf_;
  plan.slots = arena->slots_;
  return plan;
}

void ColumnFeaturizer::FeaturizeCell(const MetadataProfiler& profiler,
                                     const TfidfPlan& plan,
                                     std::string_view cell,
                                     std::span<double> row) const {
  const size_t meta_w = MetadataProfiler::kWidth;
  const size_t w2v_dim = w2v_->dim();

  if (toggles_.metadata) {
    profiler.CellFeaturesInto(cell, row.subspan(0, meta_w));
  }

  if (toggles_.word2vec) {
    w2v_->EmbedValueInto(cell, row.subspan(meta_w, w2v_dim));
  }

  if (toggles_.tfidf && !cell.empty() && plan.tfidf->NumDocs() > 0) {
    // TF-IDF into shared slots; unregistered characters accumulate in the
    // overflow slot (zero-padding of Figure 5 for everything else). One
    // batched histogram per cell replaces the per-vocab-char scans; the tf
    // and idf arithmetic matches CharTfidf::TransformCell term for term.
    uint32_t counts[256] = {0};
    kernels::ByteHistogram(cell, counts);
    const auto& vocab = plan.tfidf->vocabulary();
    const double inv_len = 1.0 / static_cast<double>(cell.size());
    double* tfidf_block = row.data() + meta_w + w2v_dim;
    for (size_t v = 0; v < vocab.size(); ++v) {
      uint32_t count = counts[vocab[v]];
      if (count == 0) continue;
      double tf = static_cast<double>(count) * inv_len;
      tfidf_block[plan.slots[v]] += tf * plan.idf[v];
    }
  }
}

Status ColumnFeaturizer::FeaturizeFrozenCellwiseInto(
    const FrozenColumnStats& stats, std::span<const Cell> cells,
    ml::Matrix* out, FeatureArena* arena) const {
  if (stats.rows() == 0) return Status::InvalidArgument("unfitted stats");
  FeatureArena local;
  if (arena == nullptr) arena = &local;
  const TfidfPlan plan = BuildTfidfPlan(stats.tfidf, arena);
  out->Reset(cells.size(), FeatureWidth(w2v_->dim(), *space_));
  for (size_t i = 0; i < cells.size(); ++i) {
    FeaturizeCell(stats.profiler, plan, cells[i], out->Row(i));
  }
  return Status::OK();
}

Result<FeatureView> ColumnFeaturizer::FeaturizeFrozenView(
    const FrozenColumnStats& stats, std::span<const Cell> cells,
    FeatureArena* arena) const {
  if (stats.rows() == 0) return Status::InvalidArgument("unfitted stats");
  if (arena == nullptr) return Status::InvalidArgument("a view needs an arena");
  SAGED_TRACE_SPAN("featurize/block");
  StopWatch watch;
  SAGED_COUNTER_ADD("featurize.cells", cells.size());

  ml::Matrix& rows = arena->rows_;
  FeatureView view{&rows, {}};
  if (stats.profiler.profile().distinct_ratio > kDictMaxDistinctRatio) {
    SAGED_RETURN_NOT_OK(FeaturizeFrozenCellwiseInto(stats, cells, &rows, arena));
  } else {
    // Dictionary: featurize each distinct value exactly once. Cell i's row
    // is rows.Row(codes[i]), byte-identical to the per-cell loop because
    // FeaturizeCell is a pure function of (cell bytes, frozen column stats).
    ColumnDictionary& dict = arena->dict_;
    {
      SAGED_TRACE_SPAN("featurize/encode");
      dict.Encode(cells);
    }
    SAGED_COUNTER_ADD("featurize.dict_cells", cells.size());
    SAGED_COUNTER_ADD("featurize.dict_hits", cells.size() - dict.size());
    SAGED_HISTOGRAM_OBSERVE("featurize.distinct_ratio", dict.distinct_ratio());

    SAGED_TRACE_SPAN("featurize/dict_profile");
    const TfidfPlan plan = BuildTfidfPlan(stats.tfidf, arena);
    rows.Reset(dict.size(), FeatureWidth(w2v_->dim(), *space_));
    for (size_t d = 0; d < dict.size(); ++d) {
      FeaturizeCell(stats.profiler, plan, dict.value(static_cast<uint32_t>(d)),
                    rows.Row(d));
    }
    view.codes = dict.codes();
  }
  SAGED_HISTOGRAM_OBSERVE("featurize.block_ms", watch.Millis());
  return view;
}

Status ColumnFeaturizer::FeaturizeFrozenInto(const FrozenColumnStats& stats,
                                             std::span<const Cell> cells,
                                             ml::Matrix* out,
                                             FeatureArena* arena) const {
  FeatureArena local;
  if (arena == nullptr) arena = &local;
  SAGED_ASSIGN_OR_RETURN(FeatureView view,
                         FeaturizeFrozenView(stats, cells, arena));
  if (view.codes.empty()) {
    // Already one row per cell: hand the rows over instead of copying them
    // (the arena keeps `out`'s old buffer for its next block).
    std::swap(*out, arena->rows_);
    return Status::OK();
  }
  SAGED_TRACE_SPAN("featurize/gather");
  out->Reset(cells.size(), view.rows->cols());
  for (size_t i = 0; i < cells.size(); ++i) {
    std::span<const double> src = view.rows->Row(view.codes[i]);
    std::copy(src.begin(), src.end(), out->Row(i).begin());
  }
  return Status::OK();
}

Result<ml::Matrix> ColumnFeaturizer::Featurize(const Column& column) const {
  if (column.empty()) return Status::InvalidArgument("empty column");
  SAGED_TRACE_SPAN("featurize/column");
  StopWatch watch;

  ColumnStatsBuilder builder;
  for (const auto& cell : column.values()) builder.Observe(cell);
  SAGED_ASSIGN_OR_RETURN(FrozenColumnStats stats, builder.Finalize());
  ml::Matrix out;
  SAGED_RETURN_NOT_OK(
      FeaturizeFrozenInto(stats, column.values(), &out, nullptr));
  SAGED_HISTOGRAM_OBSERVE("featurize.column_ms", watch.Millis());
  return out;
}

}  // namespace saged::features
