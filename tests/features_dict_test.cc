// The byte-identity parity wall for featurization. ColumnFeaturizer has
// one path: a column at most ColumnFeaturizer::kDictMaxDistinctRatio
// distinct is dictionary-encoded (each distinct value featurized once),
// any other column runs the per-cell loop. Every production entry point —
// Featurize, FeaturizeFrozenInto, FeaturizeFrozenView plus its gather — is
// compared here against FeaturizeFrozenCellwiseInto, the per-cell
// reference, on raw matrix bytes (memcmp, not EXPECT_DOUBLE_EQ), with the
// SIMD kernels on and off, at any block size and thread count. Base-model
// inference over a block's dictionary view (distinct rows + codes) must
// likewise equal inference over the gathered per-cell rows. Inputs
// deliberately include all-distinct and all-identical columns, empty
// strings, multi-byte UTF-8, NUL-free high bytes, and values that straddle
// SIMD chunk boundaries (lengths 15/16/17 around the 16-byte vector width).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/executor.h"
#include "core/config.h"
#include "core/knowledge_base.h"
#include "core/meta_features.h"
#include "data/column.h"
#include "datagen/datasets.h"
#include "features/char_space.h"
#include "features/dictionary.h"
#include "features/featurizer.h"
#include "features/frozen_stats.h"
#include "features/kernels.h"
#include "features/metadata_profiler.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"

namespace saged::features {
namespace {

/// Restores the process-wide SIMD dispatch flag on scope exit, so tests can
/// flip it without leaking state into the rest of the suite.
class SimdFlagGuard {
 public:
  explicit SimdFlagGuard(bool enabled) : saved_(kernels::SimdEnabled()) {
    kernels::SetSimdEnabled(enabled);
  }
  ~SimdFlagGuard() { kernels::SetSimdEnabled(saved_); }

 private:
  bool saved_;
};

/// True when two matrices are byte-identical (shape and every double bit).
bool SameBytes(const ml::Matrix& a, const ml::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

/// Frozen statistics of a whole column (one ColumnStatsBuilder pass).
FrozenColumnStats Freeze(const Column& column) {
  ColumnStatsBuilder builder;
  for (const auto& cell : column.values()) builder.Observe(cell);
  auto stats = builder.Finalize();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return stats.ok() ? std::move(stats).value() : FrozenColumnStats{};
}

/// A trained featurization context for one column: dataset-level Word2Vec
/// (trained on the column's tokens so embeddings are non-trivial) plus a
/// char space covering the column.
struct FeaturizeContext {
  explicit FeaturizeContext(const Column& column, size_t char_slots = 32)
      : space(char_slots) {
    text::Word2VecOptions opts;
    opts.dim = 4;
    opts.epochs = 1;
    w2v = text::Word2Vec(opts, 42);
    std::vector<std::vector<std::string>> docs;
    docs.reserve(column.size());
    for (const auto& cell : column.values()) {
      docs.push_back(text::WordTokens(cell));
    }
    Status trained = w2v.Train(docs);
    EXPECT_TRUE(trained.ok()) << trained.ToString();
    ColumnFeaturizer::RegisterChars(column, &space);
  }

  ColumnFeaturizer featurizer() const { return ColumnFeaturizer(&w2v, &space); }

  /// The per-cell reference over the whole column.
  ml::Matrix Reference(const Column& column) const {
    ml::Matrix out;
    Status s = featurizer().FeaturizeFrozenCellwiseInto(Freeze(column),
                                                        column.values(), &out);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  /// The production whole-column entry point.
  ml::Matrix Featurize(const Column& column) const {
    auto m = featurizer().Featurize(column);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? std::move(m).value() : ml::Matrix();
  }

  text::Word2Vec w2v;
  CharSpace space;
};

/// Featurizes `column` under frozen stats in blocks of `block_rows` cells,
/// reusing one arena across blocks (the streaming detector's discipline),
/// and returns the concatenated matrix. Each block goes through
/// FeaturizeFrozenInto, or with `through_view` through FeaturizeFrozenView
/// and a gather over its codes written here.
ml::Matrix FeaturizeBlocked(const FeaturizeContext& ctx, const Column& column,
                            size_t block_rows, bool through_view) {
  const FrozenColumnStats stats = Freeze(column);
  const ColumnFeaturizer featurizer = ctx.featurizer();
  const size_t width = ColumnFeaturizer::FeatureWidth(ctx.w2v.dim(), ctx.space);
  ml::Matrix out(column.size(), width);
  FeatureArena arena;
  ml::Matrix block;
  for (size_t start = 0; start < column.size(); start += block_rows) {
    size_t n = std::min(block_rows, column.size() - start);
    std::span<const Cell> cells(&column.values()[start], n);
    if (through_view) {
      auto view = featurizer.FeaturizeFrozenView(stats, cells, &arena);
      EXPECT_TRUE(view.ok()) << view.status().ToString();
      if (!view.ok()) return out;
      for (size_t i = 0; i < n; ++i) {
        auto src = view->rows->Row(view->codes.empty() ? i : view->codes[i]);
        std::copy(src.begin(), src.end(), out.Row(start + i).begin());
      }
      continue;
    }
    Status s = featurizer.FeaturizeFrozenInto(stats, cells, &block, &arena);
    EXPECT_TRUE(s.ok()) << s.ToString();
    for (size_t i = 0; i < n; ++i) {
      auto src = block.Row(i);
      std::copy(src.begin(), src.end(), out.Row(start + i).begin());
    }
  }
  return out;
}

/// Adversarial hand-built columns, straddling every edge the kernels have:
/// empty strings, missing tokens, multi-byte UTF-8, high bytes, and values
/// whose lengths bracket the 16-byte SIMD chunk boundary. Every column but
/// all_distinct is at most half distinct, so it takes the dictionary.
std::vector<Column> EdgeColumns() {
  std::vector<Column> columns;
  columns.emplace_back("all_identical",
                       std::vector<Cell>(64, "same-value-123"));
  {
    std::vector<Cell> distinct;
    for (int i = 0; i < 64; ++i) distinct.push_back("v" + std::to_string(i));
    columns.emplace_back("all_distinct", std::move(distinct));
  }
  // Each list twice: 6 distinct of 20 and 7 distinct of 20, so empty
  // strings and multi-byte UTF-8 run through the dictionary.
  auto twice = [](std::vector<Cell> cells) {
    const size_t n = cells.size();
    for (size_t i = 0; i < n; ++i) cells.push_back(cells[i]);
    return cells;
  };
  columns.emplace_back(
      "empties_and_missing",
      twice({"", "", "NULL", "na", "x", "", "?", "x", "-", ""}));
  columns.emplace_back(
      "utf8", twice({"München", "naïve", "naïve", "日本語", "héllo wörld",
                     "München", "ærøskøbing", "Zürich", "日本語", ""}));
  {
    // Lengths 14..18 bracket the 16-byte vector width; repeated so the
    // dictionary path actually kicks in.
    std::vector<Cell> straddle;
    for (size_t len = 14; len <= 18; ++len) {
      std::string v(len, 'a');
      v[len / 2] = '7';
      v[len - 1] = '!';
      for (int rep = 0; rep < 6; ++rep) straddle.push_back(v);
    }
    columns.emplace_back("chunk_straddle", std::move(straddle));
  }
  {
    std::vector<Cell> high;
    for (int i = 0; i < 32; ++i) {
      std::string v = "hb";
      v.push_back(static_cast<char>(0x80 + (i % 8)));
      v.push_back(static_cast<char>(0xF0 + (i % 4)));
      high.push_back(v);
    }
    columns.emplace_back("high_bytes", std::move(high));
  }
  return columns;
}

/// Columns of the parity sweep's datagen datasets: three Table-1 datasets,
/// dirty side (the side detection featurizes). They hold columns on both
/// sides of the dictionary cutoff.
std::vector<Column> DatagenColumns() {
  std::vector<Column> columns;
  for (const char* name : {"beers", "flights", "hospital"}) {
    datagen::MakeOptions opts;
    opts.rows = 120;
    auto ds = datagen::MakeDataset(name, opts);
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    if (!ds.ok()) continue;
    for (const auto& column : ds->dirty.columns()) columns.push_back(column);
  }
  return columns;
}

/// Featurize equals the per-cell reference with the SIMD kernels off, and
/// both stay unchanged with them on.
void ExpectProductionMatchesReference(const Column& column) {
  FeaturizeContext ctx(column);
  SimdFlagGuard simd_off(false);
  ml::Matrix reference = ctx.Reference(column);
  EXPECT_TRUE(SameBytes(reference, ctx.Featurize(column)))
      << column.name() << ": Featurize != reference";
  if (kernels::SimdAvailable()) {
    SimdFlagGuard simd_on(true);
    EXPECT_TRUE(SameBytes(reference, ctx.Reference(column)))
        << column.name() << ": simd reference != reference";
    EXPECT_TRUE(SameBytes(reference, ctx.Featurize(column)))
        << column.name() << ": simd Featurize != reference";
  }
}

// --- Whole-column parity: production vs reference, SIMD on and off ---------

TEST(FeaturizeDictParityTest, EdgeColumnsScalarDictSimdIdentical) {
  for (const auto& column : EdgeColumns()) {
    ExpectProductionMatchesReference(column);
    // The dictionary takes every edge column but the all-distinct one.
    FeaturizeContext ctx(column);
    const FrozenColumnStats stats = Freeze(column);
    FeatureArena arena;
    auto view =
        ctx.featurizer().FeaturizeFrozenView(stats, column.values(), &arena);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view->codes.empty(), column.name() == "all_distinct")
        << column.name();
  }
}

TEST(FeaturizeDictParityTest, DatagenColumnsScalarDictSimdIdentical) {
  size_t dictionary_columns = 0;
  const auto columns = DatagenColumns();
  for (const auto& column : columns) {
    ExpectProductionMatchesReference(column);
    if (Freeze(column).profiler.profile().distinct_ratio <=
        ColumnFeaturizer::kDictMaxDistinctRatio) {
      ++dictionary_columns;
    }
  }
  // Both sides of the cutoff are covered.
  EXPECT_GT(dictionary_columns, 0u);
  EXPECT_LT(dictionary_columns, columns.size());
}

// --- Block-size independence -------------------------------------------------

TEST(FeaturizeDictParityTest, BlockedFeaturizationIdenticalAtAnyBlockSize) {
  for (const auto& column : EdgeColumns()) {
    FeaturizeContext ctx(column);
    ml::Matrix reference = ctx.Reference(column);
    for (size_t block_rows : {1u, 3u, 7u, 16u, 1000u}) {
      for (bool through_view : {false, true}) {
        ml::Matrix blocked =
            FeaturizeBlocked(ctx, column, block_rows, through_view);
        EXPECT_TRUE(SameBytes(reference, blocked))
            << column.name() << " block_rows=" << block_rows
            << " view=" << through_view;
      }
    }
  }
}

TEST(FeaturizeDictParityTest, DatagenBlockedParityAcrossModes) {
  auto columns = DatagenColumns();
  for (size_t j = 0; j < columns.size(); j += 3) {  // every 3rd: keep it quick
    const auto& column = columns[j];
    FeaturizeContext ctx(column);
    ml::Matrix reference = ctx.Reference(column);
    for (size_t block_rows : {17u, 50u}) {
      for (bool through_view : {false, true}) {
        ml::Matrix blocked =
            FeaturizeBlocked(ctx, column, block_rows, through_view);
        EXPECT_TRUE(SameBytes(reference, blocked))
            << column.name() << " block_rows=" << block_rows
            << " view=" << through_view;
      }
    }
  }
}

// --- Thread-count independence ----------------------------------------------

TEST(FeaturizeDictParityTest, ParallelColumnsIdenticalAtAnyThreadCount) {
  // The streaming detector's layout: columns fan out across an executor,
  // each with its own arena and output slot. Results must equal the
  // per-cell reference at every max_parallelism.
  auto columns = DatagenColumns();
  ASSERT_FALSE(columns.empty());
  std::vector<FeaturizeContext> contexts;
  contexts.reserve(columns.size());
  for (const auto& column : columns) contexts.emplace_back(column);

  auto run = [&](size_t threads) {
    std::vector<ml::Matrix> out(columns.size());
    std::vector<FeatureArena> arenas(columns.size());
    Executor::Shared().ParallelFor(
        columns.size(),
        [&](size_t j) {
          Status s = contexts[j].featurizer().FeaturizeFrozenInto(
              Freeze(columns[j]), std::span<const Cell>(columns[j].values()),
              &out[j], &arenas[j]);
          ASSERT_TRUE(s.ok()) << s.ToString();
        },
        threads);
    return out;
  };

  for (size_t threads : {1u, 2u, 4u, 0u}) {  // 0 = full pool
    auto parallel = run(threads);
    ASSERT_EQ(parallel.size(), columns.size());
    for (size_t j = 0; j < columns.size(); ++j) {
      EXPECT_TRUE(SameBytes(contexts[j].Reference(columns[j]), parallel[j]))
          << columns[j].name() << " threads=" << threads;
    }
  }
}

// --- Dictionary-space inference ---------------------------------------------

/// One fitted base model per core::ModelType, trained on `column`'s
/// features (labels: every third cell dirty). Every FeaturizeContext has
/// the same feature width, so these models score any test column.
core::KnowledgeBase FitOneModelPerType(const Column& column) {
  FeaturizeContext ctx(column);
  ml::Matrix x = ctx.Reference(column);
  std::vector<int> y(x.rows());
  for (size_t i = 0; i < y.size(); ++i) y[i] = i % 3 == 0 ? 1 : 0;
  core::KnowledgeBase kb;
  for (core::ModelType type :
       {core::ModelType::kRandomForest, core::ModelType::kGradientBoosting,
        core::ModelType::kLogisticRegression, core::ModelType::kMlp}) {
    auto model = core::MakeModel(type, 7);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    if (!model.ok()) continue;
    Status fitted = (*model)->Fit(x, y);
    EXPECT_TRUE(fitted.ok()) << fitted.ToString();
    core::BaseModelEntry entry;
    entry.dataset = "fit";
    entry.column = core::ModelTypeName(type);
    entry.model = std::move(model).value();
    kb.AddEntry(std::move(entry));
  }
  return kb;
}

TEST(FeaturizeDictParityTest, DictionarySpaceInferenceMatchesGathered) {
  // The detector's inference: each block's FeatureView goes straight into
  // BuildMetaFeaturesInto, which runs the models over the distinct rows and
  // scatters through the codes. It must equal the matrix overload on the
  // gathered per-cell rows, byte for byte, for every model family, block
  // size, thread cap and metadata width.
  auto datagen_columns = DatagenColumns();
  ASSERT_FALSE(datagen_columns.empty());
  const core::KnowledgeBase kb = FitOneModelPerType(datagen_columns[1]);
  ASSERT_EQ(kb.size(), 4u);
  std::vector<std::vector<size_t>> model_sets = {{0}, {1}, {2}, {3},
                                                 {0, 1, 2, 3}};

  std::vector<Column> columns = EdgeColumns();
  for (size_t j = 0; j < datagen_columns.size(); j += 4) {
    columns.push_back(datagen_columns[j]);
  }
  for (const auto& column : columns) {
    FeaturizeContext ctx(column);
    const FrozenColumnStats stats = Freeze(column);
    const ColumnFeaturizer featurizer = ctx.featurizer();
    const size_t n = column.size();
    for (size_t block_rows : {size_t{1}, size_t{7}, size_t{1000}, n}) {
      for (size_t threads : {1u, 2u, 4u}) {
        for (size_t metadata_cols : {size_t{0}, MetadataProfiler::kWidth}) {
          for (const auto& models : model_sets) {
            const size_t width = models.size() + metadata_cols;
            ml::Matrix from_view(n, width);
            ml::Matrix from_gather(n, width);
            FeatureArena view_arena;
            FeatureArena gather_arena;
            ml::Matrix gathered;
            for (size_t start = 0; start < n; start += block_rows) {
              std::span<const Cell> cells(&column.values()[start],
                                          std::min(block_rows, n - start));
              auto view =
                  featurizer.FeaturizeFrozenView(stats, cells, &view_arena);
              ASSERT_TRUE(view.ok()) << view.status().ToString();
              if (column.name() == "all_distinct") {
                EXPECT_TRUE(view->codes.empty());  // above the cutoff
              }
              if (column.name() == "all_identical") {
                EXPECT_EQ(view->rows->rows(), 1u);
              }
              Status s = core::BuildMetaFeaturesInto(
                  *view->rows, view->codes, kb, models, metadata_cols,
                  &from_view, start, &Executor::Shared(), threads);
              ASSERT_TRUE(s.ok()) << s.ToString();
              s = featurizer.FeaturizeFrozenInto(stats, cells, &gathered,
                                                 &gather_arena);
              ASSERT_TRUE(s.ok()) << s.ToString();
              s = core::BuildMetaFeaturesInto(gathered, kb, models,
                                              metadata_cols, &from_gather,
                                              start, &Executor::Shared(),
                                              threads);
              ASSERT_TRUE(s.ok()) << s.ToString();
            }
            EXPECT_TRUE(SameBytes(from_view, from_gather))
                << column.name() << " block_rows=" << block_rows
                << " threads=" << threads << " metadata=" << metadata_cols
                << " models=" << models.size() << " first=" << models[0];
          }
        }
      }
    }
  }
}

// --- Dictionary encoder ------------------------------------------------------

TEST(ColumnDictionaryTest, EncodeRoundTripsEveryCell) {
  std::vector<Cell> cells{"a", "b", "a", "", "c", "b", "a", ""};
  ColumnDictionary dict;
  dict.Encode(cells);
  EXPECT_EQ(dict.size(), 4u);  // a, b, "", c in first-seen order
  EXPECT_EQ(dict.encoded_cells(), cells.size());
  ASSERT_EQ(dict.codes().size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(dict.value(dict.codes()[i]), cells[i]) << "cell " << i;
  }
  // First-seen code order is part of the determinism contract.
  EXPECT_EQ(dict.value(0), "a");
  EXPECT_EQ(dict.value(1), "b");
  EXPECT_EQ(dict.value(2), "");
  EXPECT_EQ(dict.value(3), "c");
  EXPECT_DOUBLE_EQ(dict.distinct_ratio(), 0.5);
}

TEST(ColumnDictionaryTest, ReusedEncoderMatchesFreshOne) {
  std::vector<Cell> first(100, "x");
  std::vector<Cell> second;
  for (int i = 0; i < 50; ++i) second.push_back("v" + std::to_string(i % 7));
  ColumnDictionary reused;
  reused.Encode(first);
  reused.Encode(second);  // arena reuse: rebuild in place
  ColumnDictionary fresh;
  fresh.Encode(second);
  ASSERT_EQ(reused.size(), fresh.size());
  EXPECT_EQ(reused.codes(), fresh.codes());
  for (size_t c = 0; c < fresh.size(); ++c) {
    EXPECT_EQ(reused.value(static_cast<uint32_t>(c)),
              fresh.value(static_cast<uint32_t>(c)));
  }
}

TEST(ColumnDictionaryTest, AllDistinctAndAllIdenticalExtremes) {
  std::vector<Cell> identical(257, "only");
  ColumnDictionary dict;
  dict.Encode(identical);
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_DOUBLE_EQ(dict.distinct_ratio(), 1.0 / 257.0);

  std::vector<Cell> distinct;
  for (int i = 0; i < 257; ++i) distinct.push_back(std::to_string(i));
  dict.Encode(distinct);
  EXPECT_EQ(dict.size(), distinct.size());
  EXPECT_DOUBLE_EQ(dict.distinct_ratio(), 1.0);

  dict.Encode({});
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_DOUBLE_EQ(dict.distinct_ratio(), 1.0);
}

// --- Kernels -----------------------------------------------------------------

TEST(KernelsTest, CharClassesAgreeOnAll256SingleBytes) {
  for (int b = 0; b < 256; ++b) {
    std::string s(1, static_cast<char>(b));
    auto ref = kernels::CountCharClassesScalar(s);
    {
      SimdFlagGuard off(false);
      EXPECT_EQ(kernels::CountCharClasses(s), ref) << "byte " << b;
    }
    if (kernels::SimdAvailable()) {
      SimdFlagGuard on(true);
      // Single bytes exercise the tail loop; pad to 16+ to hit the vector
      // body with the same byte in every lane.
      EXPECT_EQ(kernels::CountCharClasses(s), ref) << "byte " << b;
      std::string wide(33, static_cast<char>(b));
      auto wide_ref = kernels::CountCharClassesScalar(wide);
      EXPECT_EQ(kernels::CountCharClassesSimd(wide), wide_ref)
          << "wide byte " << b;
    }
  }
}

TEST(KernelsTest, SimdFlagDispatchesAndRestores) {
  EXPECT_EQ(kernels::SimdAvailable(),
#if defined(SAGED_FEATURES_HAVE_SIMD)
            true
#else
            false
#endif
  );
  bool before = kernels::SimdEnabled();
  {
    SimdFlagGuard off(false);
    EXPECT_FALSE(kernels::SimdEnabled());
    SimdFlagGuard on(true);
    EXPECT_TRUE(kernels::SimdEnabled());
  }
  EXPECT_EQ(kernels::SimdEnabled(), before);
}

TEST(KernelsTest, HistogramAndHashHandleNulAndHighBytes) {
  std::string nasty;
  for (int i = 0; i < 300; ++i) nasty.push_back(static_cast<char>(i * 7));
  nasty[5] = '\0';
  nasty[37] = '\0';

  uint32_t ref[256] = {0};
  uint32_t fast[256] = {0};
  kernels::ByteHistogramScalar(nasty, ref);
  kernels::ByteHistogram(nasty, fast);
  EXPECT_EQ(std::memcmp(ref, fast, sizeof(ref)), 0);

  EXPECT_EQ(kernels::HashValue(nasty), kernels::HashValueScalar(nasty));
  EXPECT_EQ(kernels::HashValue(""), kernels::HashValueScalar(""));
  // Hash must be length-aware: a NUL-extended string is a different value.
  std::string a("ab", 2), b("ab\0", 3);
  EXPECT_NE(kernels::HashValue(a), kernels::HashValue(b));
}

}  // namespace
}  // namespace saged::features
