#ifndef SAGED_FEATURES_FEATURIZER_H_
#define SAGED_FEATURES_FEATURIZER_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "data/column.h"
#include "features/char_space.h"
#include "features/dictionary.h"
#include "features/frozen_stats.h"
#include "ml/matrix.h"
#include "text/tfidf.h"
#include "text/word2vec.h"

namespace saged::features {

/// Ablation switches: a disabled family's block stays present but zeroed,
/// keeping the feature width (and therefore base-model compatibility)
/// constant.
struct FeatureToggles {
  bool metadata = true;
  bool word2vec = true;
  bool tfidf = true;
};

/// Which per-cell featurization path runs. All three are byte-identical in
/// output (the dictionary path computes each distinct value's row with the
/// same scalar arithmetic and gathers copies); they differ only in work:
///   kScalar  one full profile + TF-IDF + embedding per cell
///   kDict    one per *distinct* value, gathered through the code vector
///   kAuto    kDict when the column's distinct ratio is at most
///            `dict_max_distinct_ratio`, else kScalar
enum class FeaturizeMode {
  kScalar,
  kDict,
  kAuto,
};

/// Featurization knobs. The toggles come from SagedConfig
/// (core::MakeFeaturizeOptions); detection always runs the default mode and
/// cutoff, and the other selectors serve the parity tests and benches.
struct FeaturizeOptions {
  FeatureToggles toggles;
  FeaturizeMode mode = FeaturizeMode::kAuto;
  /// kAuto's dictionary cutoff: columns whose distinct ratio exceeds this
  /// take the scalar path (encoding all-distinct columns buys nothing).
  double dict_max_distinct_ratio = 0.5;
};

/// Reusable featurization scratch (arena discipline): the dictionary, the
/// feature rows, and the TF-IDF plan buffers keep their allocations across
/// calls, so the streaming path featurizes block after block with zero
/// steady-state allocation beyond matrix fills. The arena is NOT
/// thread-safe: concurrent callers each use their own.
class FeatureArena {
 private:
  friend class ColumnFeaturizer;
  ColumnDictionary dict_;
  ml::Matrix rows_;             // one row per distinct value (or per cell)
  std::vector<double> idf_;     // per-vocab-char TF-IDF idf term
  std::vector<size_t> slots_;   // per-vocab-char CharSpace slot
};

/// One featurized block without the per-cell gather: cell i's feature row
/// is `rows->Row(codes[i])`, or `rows->Row(i)` when `codes` is empty. A
/// dictionary column yields its distinct rows plus the dictionary's codes;
/// a scalar column yields one row per cell and no codes. Row-wise
/// consumers (base-model inference) run over `rows` once and scatter
/// through the codes, so each distinct value is computed once downstream
/// too.
struct FeatureView {
  const ml::Matrix* rows = nullptr;
  std::span<const uint32_t> codes;
};

/// The automatic featurization module: maps every cell of a column to the
/// concatenation [metadata | Word2Vec embedding | char TF-IDF], zero-padded
/// into the shared CharSpace so all columns (historical and dirty) share one
/// feature width.
class ColumnFeaturizer {
 public:
  ColumnFeaturizer(const text::Word2Vec* w2v, const CharSpace* space,
                   FeatureToggles toggles)
      : w2v_(w2v), space_(space) {
    options_.toggles = toggles;
  }

  explicit ColumnFeaturizer(const text::Word2Vec* w2v, const CharSpace* space,
                            FeaturizeOptions options = {})
      : w2v_(w2v), space_(space), options_(options) {}

  /// Total feature width for the given embedding dim and char space.
  static size_t FeatureWidth(size_t w2v_dim, const CharSpace& space);

  /// Featurizes a whole column: one row per cell. The TF-IDF statistics
  /// (document frequencies) are fitted on this column, per the paper's
  /// per-column corpus definition.
  Result<ml::Matrix> Featurize(const Column& column) const;

  /// Featurizes a contiguous slice of a column's cells under statistics
  /// frozen from a prior pass over the whole column. Row i of the result is
  /// bit-identical to row (slice offset + i) of Featurize on the full
  /// column, because both call the same per-cell kernel (or gather its
  /// output through a dictionary) and the frozen stats match a whole-column
  /// fit — this is the block independence the streaming detector relies on.
  ///
  /// Writes into `out` (resized in place, capacity retained) and keeps
  /// dictionary/plan scratch in `arena`. The detector calls this block
  /// after block, column after column, with one (matrix, arena) pair per
  /// task. `arena` may be null (scratch is then local).
  Status FeaturizeFrozenInto(const FrozenColumnStats& stats,
                             std::span<const Cell> cells, ml::Matrix* out,
                             FeatureArena* arena) const;

  /// FeaturizeFrozenInto without the gather: the same rows, as a view into
  /// `arena` (valid until the arena's next use). Gathering the view through
  /// its codes reproduces FeaturizeFrozenInto's matrix byte for byte.
  Result<FeatureView> FeaturizeFrozenView(const FrozenColumnStats& stats,
                                          std::span<const Cell> cells,
                                          FeatureArena* arena) const;

  /// Registers the column's characters into a (mutable) char space; called
  /// during knowledge extraction before any Featurize.
  static void RegisterChars(const Column& column, CharSpace* space);

 private:
  /// Per-column TF-IDF gather plan: vocab character -> (idf term, CharSpace
  /// slot), precomputed once per column so the per-cell loop is a histogram
  /// walk with no log2 / slot lookups.
  struct TfidfPlan {
    const text::CharTfidf* tfidf = nullptr;
    std::span<const double> idf;
    std::span<const size_t> slots;
  };

  TfidfPlan BuildTfidfPlan(const text::CharTfidf& tfidf,
                           FeatureArena* arena) const;

  /// The shared block kernel behind every entry point: picks the scalar or
  /// dictionary path (kAuto decides from `distinct_ratio`, the column-level
  /// ratio, so every block of a column takes the same path). The scalar
  /// path writes one row per cell into `cell_rows`; the dictionary path
  /// writes one row per distinct value into the arena and returns its
  /// codes.
  FeatureView FeaturizeCells(const MetadataProfiler& profiler,
                             const text::CharTfidf& tfidf,
                             std::span<const Cell> cells,
                             double distinct_ratio, ml::Matrix* cell_rows,
                             FeatureArena* arena) const;

  /// FeaturizeCells into `out`, one row per cell: a dictionary view is
  /// gathered through its codes.
  void FeaturizeCellsInto(const MetadataProfiler& profiler,
                          const text::CharTfidf& tfidf,
                          std::span<const Cell> cells, double distinct_ratio,
                          ml::Matrix* out, FeatureArena* arena) const;

  void FeaturizeCell(const MetadataProfiler& profiler, const TfidfPlan& plan,
                     std::string_view cell, std::span<double> row) const;

  const text::Word2Vec* w2v_;
  const CharSpace* space_;
  FeaturizeOptions options_;
};

}  // namespace saged::features

#endif  // SAGED_FEATURES_FEATURIZER_H_
