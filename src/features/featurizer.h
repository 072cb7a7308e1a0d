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
/// a column above the dictionary cutoff yields one row per cell and no
/// codes. Row-wise consumers (base-model inference) run over `rows` once
/// and scatter through the codes, so each distinct value is computed once
/// downstream too.
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
  /// A column whose frozen (column-level) distinct ratio is at most this is
  /// dictionary-encoded per block, each distinct value featurized once; any
  /// other runs the per-cell loop. Rows are byte-identical either way.
  static constexpr double kDictMaxDistinctRatio = 0.5;

  ColumnFeaturizer(const text::Word2Vec* w2v, const CharSpace* space,
                   FeatureToggles toggles = {})
      : w2v_(w2v), space_(space), toggles_(toggles) {}

  /// Total feature width for the given embedding dim and char space.
  static size_t FeatureWidth(size_t w2v_dim, const CharSpace& space);

  /// Featurizes a whole column: one row per cell. This is the one-block
  /// case of FeaturizeFrozenInto: a ColumnStatsBuilder pass over the column
  /// freezes its statistics (the TF-IDF document frequencies are fitted on
  /// this column, per the paper's per-column corpus definition).
  Result<ml::Matrix> Featurize(const Column& column) const;

  /// Featurizes a contiguous slice of a column's cells under statistics
  /// frozen from a pass over the whole column: FeaturizeFrozenView plus the
  /// gather through its codes, into `out`. Row i is bit-identical to row
  /// (slice offset + i) of Featurize on the full column — the block
  /// independence the streaming paths rely on. `arena` may be null.
  Status FeaturizeFrozenInto(const FrozenColumnStats& stats,
                             std::span<const Cell> cells, ml::Matrix* out,
                             FeatureArena* arena) const;

  /// The featurize kernel: the block's rows as a view into `arena` (valid
  /// until the arena's next use). Gathering the view through its codes
  /// gives FeaturizeFrozenInto's matrix.
  Result<FeatureView> FeaturizeFrozenView(const FrozenColumnStats& stats,
                                          std::span<const Cell> cells,
                                          FeatureArena* arena) const;

  /// The per-cell loop: one full profile + embedding + TF-IDF per cell, no
  /// dictionary. Columns above kDictMaxDistinctRatio run it inside
  /// FeaturizeFrozenView; tests and benches call it directly as the parity
  /// oracle every other entry point must match byte for byte.
  Status FeaturizeFrozenCellwiseInto(const FrozenColumnStats& stats,
                                     std::span<const Cell> cells,
                                     ml::Matrix* out,
                                     FeatureArena* arena = nullptr) const;

  /// Registers the column's characters into a (mutable) char space. The
  /// order is the column's first-seen TF-IDF vocabulary, the same order
  /// extraction registers each column's frozen vocabulary in.
  static void RegisterChars(const Column& column, CharSpace* space);

 private:
  /// Per-column TF-IDF gather plan: vocab character -> (idf term, CharSpace
  /// slot), precomputed once per block so the per-cell loop is a histogram
  /// walk with no log2 / slot lookups.
  struct TfidfPlan {
    const text::CharTfidf* tfidf = nullptr;
    std::span<const double> idf;
    std::span<const size_t> slots;
  };

  TfidfPlan BuildTfidfPlan(const text::CharTfidf& tfidf,
                           FeatureArena* arena) const;

  void FeaturizeCell(const MetadataProfiler& profiler, const TfidfPlan& plan,
                     std::string_view cell, std::span<double> row) const;

  const text::Word2Vec* w2v_;
  const CharSpace* space_;
  FeatureToggles toggles_;
};

}  // namespace saged::features

#endif  // SAGED_FEATURES_FEATURIZER_H_
