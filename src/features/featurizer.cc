#include "features/featurizer.h"

#include <algorithm>
#include <cmath>

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

  if (options_.toggles.metadata) {
    profiler.CellFeaturesInto(cell, row.subspan(0, meta_w));
  }

  if (options_.toggles.word2vec) {
    w2v_->EmbedValueInto(cell, row.subspan(meta_w, w2v_dim));
  }

  if (options_.toggles.tfidf && !cell.empty() && plan.tfidf->NumDocs() > 0) {
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

Status ColumnFeaturizer::FeaturizeCells(const MetadataProfiler& profiler,
                                        const text::CharTfidf& tfidf,
                                        std::span<const Cell> cells,
                                        double distinct_ratio, ml::Matrix* out,
                                        FeatureArena* arena) const {
  const size_t width = FeatureWidth(w2v_->dim(), *space_);
  out->Reset(cells.size(), width);
  SAGED_COUNTER_ADD("featurize.cells", cells.size());

  FeatureArena local;
  if (arena == nullptr) arena = &local;
  const TfidfPlan plan = BuildTfidfPlan(tfidf, arena);

  FeaturizeMode mode = options_.mode;
  if (mode == FeaturizeMode::kAuto) {
    // Decide from the column-level ratio (frozen before any block work), so
    // every block of a column takes the same path regardless of blocking.
    mode = distinct_ratio <= options_.dict_max_distinct_ratio
               ? FeaturizeMode::kDict
               : FeaturizeMode::kScalar;
  }

  if (mode == FeaturizeMode::kScalar) {
    for (size_t i = 0; i < cells.size(); ++i) {
      FeaturizeCell(profiler, plan, cells[i], out->Row(i));
    }
    return Status::OK();
  }

  // Dictionary path: profile each distinct value exactly once, then gather
  // rows through the code vector. Byte-identical to the scalar loop because
  // FeaturizeCell is a pure function of (cell bytes, frozen column stats).
  ColumnDictionary& dict = arena->dict_;
  {
    SAGED_TRACE_SPAN("featurize/encode");
    dict.Encode(cells);
  }
  SAGED_COUNTER_ADD("featurize.dict_cells", cells.size());
  SAGED_COUNTER_ADD("featurize.dict_hits", cells.size() - dict.size());
  SAGED_HISTOGRAM_OBSERVE("featurize.distinct_ratio", dict.distinct_ratio());

  ml::Matrix& dict_rows = arena->dict_rows_;
  {
    SAGED_TRACE_SPAN("featurize/dict_profile");
    dict_rows.Reset(dict.size(), width);
    for (size_t d = 0; d < dict.size(); ++d) {
      FeaturizeCell(profiler, plan, dict.value(static_cast<uint32_t>(d)),
                    dict_rows.Row(d));
    }
  }
  {
    SAGED_TRACE_SPAN("featurize/gather");
    const auto& codes = dict.codes();
    for (size_t i = 0; i < cells.size(); ++i) {
      std::span<const double> src = dict_rows.Row(codes[i]);
      std::copy(src.begin(), src.end(), out->Row(i).begin());
    }
  }
  return Status::OK();
}

Result<ml::Matrix> ColumnFeaturizer::Featurize(const Column& column) const {
  if (column.empty()) return Status::InvalidArgument("empty column");
  SAGED_TRACE_SPAN("featurize/column");
  StopWatch watch;

  MetadataProfiler profiler;
  SAGED_RETURN_NOT_OK(profiler.Fit(column));
  text::CharTfidf tfidf;
  SAGED_RETURN_NOT_OK(tfidf.Fit(column.values()));

  ml::Matrix out;
  SAGED_RETURN_NOT_OK(FeaturizeCells(profiler, tfidf, column.values(),
                                     profiler.profile().distinct_ratio, &out,
                                     nullptr));
  SAGED_HISTOGRAM_OBSERVE("featurize.column_ms", watch.Millis());
  return out;
}

Status ColumnFeaturizer::FeaturizeFrozenInto(const FrozenColumnStats& stats,
                                             std::span<const Cell> cells,
                                             ml::Matrix* out,
                                             FeatureArena* arena) const {
  if (stats.rows() == 0) return Status::InvalidArgument("unfitted stats");
  SAGED_TRACE_SPAN("featurize/block");
  StopWatch watch;

  SAGED_RETURN_NOT_OK(FeaturizeCells(stats.profiler, stats.tfidf, cells,
                                     stats.profiler.profile().distinct_ratio,
                                     out, arena));
  SAGED_HISTOGRAM_OBSERVE("featurize.block_ms", watch.Millis());
  return Status::OK();
}

}  // namespace saged::features
