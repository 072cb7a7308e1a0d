// Property-style sweeps over module invariants: things that must hold for
// every parameter combination, not just the happy path.

#include <set>

#include <cmath>

#include <gtest/gtest.h>

#include <span>

#include "common/rng.h"
#include "common/strings.h"
#include "data/csv.h"
#include "datagen/datasets.h"
#include "datagen/error_injector.h"
#include "datagen/synth.h"
#include "features/char_space.h"
#include "features/dictionary.h"
#include "features/featurizer.h"
#include "features/frozen_stats.h"
#include "features/kernels.h"
#include "ml/kmeans.h"
#include "ml/metrics.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"

namespace saged {
namespace {

// --- Error injector: one sweep per error type ---------------------------------

class InjectorTypeSweep : public ::testing::TestWithParam<datagen::ErrorType> {
 protected:
  static Table MixedTable(size_t rows) {
    Rng rng(99);
    std::vector<Cell> num;
    std::vector<Cell> text;
    std::vector<Cell> phone;
    for (size_t i = 0; i < rows; ++i) {
      num.push_back(datagen::SynthInt(rng, 50, 90));
      text.push_back(datagen::SynthFullName(rng));
      phone.push_back(datagen::SynthPhone(rng));
    }
    Table t("mixed");
    EXPECT_TRUE(t.AddColumn(Column("num", std::move(num))).ok());
    EXPECT_TRUE(t.AddColumn(Column("text", std::move(text))).ok());
    EXPECT_TRUE(t.AddColumn(Column("phone", std::move(phone))).ok());
    return t;
  }
};

TEST_P(InjectorTypeSweep, MaskExactlyMarksChangedCells) {
  Table clean = MixedTable(400);
  datagen::InjectionSpec spec;
  spec.error_rate = 0.12;
  spec.types = {GetParam()};
  datagen::ErrorInjector injector(spec, 31);
  auto out = injector.Inject(clean);
  ASSERT_TRUE(out.ok()) << ErrorTypeName(GetParam());
  size_t changed = 0;
  for (size_t r = 0; r < clean.NumRows(); ++r) {
    for (size_t c = 0; c < clean.NumCols(); ++c) {
      bool diff = clean.cell(r, c) != out->dirty.cell(r, c);
      EXPECT_EQ(diff, out->mask.IsDirty(r, c));
      changed += diff;
    }
  }
  // Hit the requested rate exactly (the injector samples without
  // replacement and guarantees every chosen cell changes).
  size_t target = static_cast<size_t>(0.12 * 400 * 3);
  EXPECT_EQ(changed, target) << ErrorTypeName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Types, InjectorTypeSweep,
    ::testing::Values(datagen::ErrorType::kMissingValue,
                      datagen::ErrorType::kTypo, datagen::ErrorType::kOutlier,
                      datagen::ErrorType::kFormatting,
                      datagen::ErrorType::kRuleViolation));

// --- CSV round trip under adversarial content ---------------------------------

class CsvRoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTripSweep, ArbitraryContentSurvives) {
  Rng rng(GetParam());
  static const char kNasty[] = ",\"\n\r;| '";
  Table t("fuzz");
  for (size_t j = 0; j < 4; ++j) {
    std::vector<Cell> values;
    for (size_t r = 0; r < 25; ++r) {
      std::string v;
      size_t len = rng.UniformInt(uint64_t{12});
      for (size_t k = 0; k < len; ++k) {
        if (rng.Bernoulli(0.3)) {
          v += kNasty[rng.UniformInt(sizeof(kNasty) - 1)];
        } else {
          v += static_cast<char>('a' + rng.UniformInt(uint64_t{26}));
        }
      }
      values.push_back(v);
    }
    ASSERT_TRUE(t.AddColumn(Column(StrFormat("c%zu", j), values)).ok());
  }
  auto back = ParseCsv(FormatCsv(t));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->NumRows(), t.NumRows());
  ASSERT_EQ(back->NumCols(), t.NumCols());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    for (size_t c = 0; c < t.NumCols(); ++c) {
      EXPECT_EQ(back->cell(r, c), t.cell(r, c)) << "(" << r << "," << c << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- Metric identities -----------------------------------------------------------

class MetricSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricSweep, ConfusionCountsPartitionAndBound) {
  Rng rng(GetParam());
  std::vector<int> truth(200);
  std::vector<int> pred(200);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.Bernoulli(0.3) ? 1 : 0;
    pred[i] = rng.Bernoulli(0.4) ? 1 : 0;
  }
  auto c = ml::Confusion(truth, pred);
  EXPECT_EQ(c.tp + c.fp + c.fn + c.tn, truth.size());
  // F1 is bounded by precision and recall extremes.
  double f1 = c.F1();
  EXPECT_GE(f1, 0.0);
  EXPECT_LE(f1, 1.0);
  EXPECT_LE(f1, std::max(c.Precision(), c.Recall()) + 1e-12);
  EXPECT_GE(f1 + 1e-12, std::min(c.Precision(), c.Recall()) *
                            std::min(c.Precision(), c.Recall()) /
                            std::max({c.Precision(), c.Recall(), 1e-12}));
  // Perfect prediction degenerates correctly.
  auto perfect = ml::Confusion(truth, truth);
  EXPECT_EQ(perfect.fp, 0u);
  EXPECT_EQ(perfect.fn, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricSweep, ::testing::Values(11, 22, 33, 44));

// --- ErrorMask score duality ------------------------------------------------------

TEST(ErrorMaskProperty, SwappingTruthAndPredictionSwapsPrecisionRecall) {
  Rng rng(7);
  ErrorMask a(40, 5);
  ErrorMask b(40, 5);
  for (size_t r = 0; r < 40; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      if (rng.Bernoulli(0.2)) a.Set(r, c);
      if (rng.Bernoulli(0.2)) b.Set(r, c);
    }
  }
  auto ab = a.Score(b);
  auto ba = b.Score(a);
  EXPECT_EQ(ab.tp, ba.tp);
  EXPECT_DOUBLE_EQ(ab.Precision(), ba.Recall());
  EXPECT_DOUBLE_EQ(ab.Recall(), ba.Precision());
  EXPECT_NEAR(ab.F1(), ba.F1(), 1e-12);
}

// --- Dataset determinism across components ---------------------------------------

class DatasetSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DatasetSeedSweep, DifferentSeedsDifferentData) {
  datagen::MakeOptions a;
  a.rows = 60;
  a.seed = GetParam();
  datagen::MakeOptions b = a;
  b.seed = GetParam() + 1000;
  auto da = datagen::MakeDataset("flights", a);
  auto db = datagen::MakeDataset("flights", b);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  bool any_diff = false;
  for (size_t r = 0; r < 60 && !any_diff; ++r) {
    any_diff = da->clean.Row(r) != db->clean.Row(r);
  }
  EXPECT_TRUE(any_diff);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatasetSeedSweep, ::testing::Values(1, 5, 9));

// --- KMeans invariants --------------------------------------------------------------

class KMeansKSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(KMeansKSweep, LabelsInRangeAndAllCentroidsFinite) {
  Rng rng(17);
  ml::Matrix x;
  for (int i = 0; i < 120; ++i) {
    std::vector<double> row = {rng.Normal(0, 5), rng.Normal(0, 5)};
    x.AppendRow(row);
  }
  ml::KMeans km(GetParam(), 50, 3);
  ASSERT_TRUE(km.Fit(x).ok());
  for (size_t label : km.labels()) EXPECT_LT(label, km.k());
  for (double v : km.centroids().data()) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GE(km.inertia(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansKSweep, ::testing::Values(1, 2, 5, 20, 200));

// --- Block featurization invariance (streaming path contract) --------------------

/// featurize(concat(blocks)) == concat(featurize(block_i)) under frozen
/// stats, for arbitrary block boundaries — exact double equality, since the
/// streaming detector's byte-identity guarantee rests on it.
class BlockFeaturizeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlockFeaturizeSweep, ChunkingNeverChangesTheMatrix) {
  Rng rng(GetParam());
  static const char kNasty[] = ",\"\n\r;| '";
  std::vector<Cell> cells;
  for (size_t r = 0; r < 150; ++r) {
    std::string v;
    size_t len = rng.UniformInt(uint64_t{10});
    for (size_t k = 0; k < len; ++k) {
      if (rng.Bernoulli(0.25)) {
        v += kNasty[rng.UniformInt(sizeof(kNasty) - 1)];
      } else {
        v += static_cast<char>('a' + rng.UniformInt(uint64_t{26}));
      }
    }
    cells.push_back(v);
  }
  Column column("fuzz", cells);

  text::Word2Vec w2v({.dim = 4, .epochs = 1}, /*seed=*/5);
  std::vector<std::vector<std::string>> docs;
  for (const auto& cell : cells) docs.push_back(text::TupleTokens({cell}));
  ASSERT_TRUE(w2v.Train(docs).ok());
  features::CharSpace space(32);
  features::ColumnFeaturizer::RegisterChars(column, &space);
  features::ColumnFeaturizer featurizer(&w2v, &space);

  // Reference: the whole-column fit-and-featurize the in-memory path runs.
  auto whole = featurizer.Featurize(column);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();

  // Frozen stats from a streaming scan over the same cells.
  features::ColumnStatsBuilder builder;
  for (const auto& cell : cells) builder.Observe(cell);
  auto stats = builder.Finalize();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Split at random boundaries (including size-1 blocks) and concatenate,
  // reusing one block matrix the way the detector does.
  std::span<const Cell> all(cells);
  ml::Matrix block;
  size_t offset = 0;
  while (offset < cells.size()) {
    size_t take = std::min<size_t>(1 + rng.UniformInt(uint64_t{40}),
                                   cells.size() - offset);
    Status status = featurizer.FeaturizeFrozenInto(
        *stats, all.subspan(offset, take), &block, nullptr);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(block.rows(), take);
    ASSERT_EQ(block.cols(), whole->cols());
    for (size_t i = 0; i < take; ++i) {
      for (size_t j = 0; j < whole->cols(); ++j) {
        // Exact equality: the per-cell kernel and the frozen stats must be
        // bit-identical to the whole-column path, not merely close.
        ASSERT_EQ(block.At(i, j), whole->At(offset + i, j))
            << "row " << offset + i << " col " << j;
      }
    }
    offset += take;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockFeaturizeSweep,
                         ::testing::Values(101, 202, 303));

// --- DocumentReservoir: the corpus depends on the stream, not the blocking -------

TEST(DocumentReservoirProperty, IdentityBelowCapacityAndStreamOrdered) {
  text::DocumentReservoir reservoir(100, /*seed=*/9);
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < 60; ++i) docs.push_back({"tok" + std::to_string(i)});
  for (const auto& doc : docs) reservoir.Add(doc);
  EXPECT_EQ(reservoir.seen(), docs.size());
  EXPECT_EQ(reservoir.Take(), docs);  // identity, original order
}

TEST(DocumentReservoirProperty, SubsampleDeterministicAndStreamOrdered) {
  auto run = [] {
    text::DocumentReservoir reservoir(25, /*seed=*/9);
    for (int i = 0; i < 500; ++i) {
      reservoir.Add({"tok" + std::to_string(i)});
    }
    return reservoir.Take();
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);  // same seed + same stream -> same sample
  ASSERT_EQ(a.size(), 25u);
  // Stream order is restored: token indices strictly increase.
  int prev = -1;
  for (const auto& doc : a) {
    int index = std::stoi(doc[0].substr(3));
    EXPECT_GT(index, prev);
    prev = index;
  }
}

// --- String edit distance properties -------------------------------------------------

TEST(EditDistanceProperty, SymmetryAndIdentity) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    std::string a;
    std::string b;
    for (size_t i = 0; i < rng.UniformInt(uint64_t{10}); ++i) {
      a += static_cast<char>('a' + rng.UniformInt(uint64_t{4}));
    }
    for (size_t i = 0; i < rng.UniformInt(uint64_t{10}); ++i) {
      b += static_cast<char>('a' + rng.UniformInt(uint64_t{4}));
    }
    EXPECT_EQ(EditDistance(a, b), EditDistance(b, a));
    EXPECT_EQ(EditDistance(a, a), 0u);
    // Bounded by the longer string's length.
    EXPECT_LE(EditDistance(a, b), std::max(a.size(), b.size()));
    // At least the length difference.
    EXPECT_GE(EditDistance(a, b),
              a.size() > b.size() ? a.size() - b.size() : b.size() - a.size());
  }
}

// --- Featurization kernels vs references ---------------------------------------

/// Random byte strings, NUL and high bytes included, at lengths sweeping
/// the SIMD chunk boundary.
std::vector<std::string> RandomByteStrings(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (size_t len : {0u, 1u, 7u, 15u, 16u, 17u, 31u, 32u, 33u, 100u, 257u}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::string s;
      s.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.UniformInt(uint64_t{256})));
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

TEST(KernelParityProperty, DispatchedKernelsEqualReferencesOnRandomBytes) {
  namespace kernels = features::kernels;
  for (const auto& s : RandomByteStrings(77)) {
    EXPECT_EQ(kernels::CountCharClasses(s), kernels::CountCharClassesScalar(s))
        << "len=" << s.size();
#if defined(SAGED_FEATURES_HAVE_SIMD)
    EXPECT_EQ(kernels::CountCharClassesSimd(s),
              kernels::CountCharClassesScalar(s))
        << "len=" << s.size();
#endif
    uint32_t ref[256] = {0};
    uint32_t fast[256] = {0};
    kernels::ByteHistogramScalar(s, ref);
    kernels::ByteHistogram(s, fast);
    EXPECT_TRUE(std::equal(ref, ref + 256, fast)) << "len=" << s.size();
    EXPECT_EQ(kernels::HashValue(s), kernels::HashValueScalar(s))
        << "len=" << s.size();
  }
}

TEST(KernelParityProperty, CharClassCountsMatchCctypeDefinition) {
  // The scalar reference IS <cctype>; the class table and SIMD ranges must
  // agree with it for every byte value, in the vector body and the tail.
  namespace kernels = features::kernels;
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  auto counts = kernels::CountCharClassesScalar(all);
  EXPECT_EQ(counts.alpha, 52u);
  EXPECT_EQ(counts.digit, 10u);
  EXPECT_EQ(counts.punct, 32u);
  EXPECT_EQ(kernels::CountCharClasses(all), counts);
#if defined(SAGED_FEATURES_HAVE_SIMD)
  EXPECT_EQ(kernels::CountCharClassesSimd(all), counts);
#endif
}

TEST(DictionaryProperty, EncodeDecodeRoundTripOnRandomBytes) {
  // Dictionary encode/decode is lossless for arbitrary cell bytes: gather
  // through the code vector reproduces every cell byte-for-byte, and codes
  // are dense in first-seen order.
  auto strings = RandomByteStrings(123);
  Rng rng(5);
  std::vector<Cell> cells;
  for (int i = 0; i < 500; ++i) {
    cells.push_back(strings[rng.UniformInt(uint64_t{strings.size()})]);
  }
  features::ColumnDictionary dict;
  dict.Encode(cells);
  ASSERT_EQ(dict.codes().size(), cells.size());
  std::set<uint32_t> used;
  for (size_t i = 0; i < cells.size(); ++i) {
    uint32_t code = dict.codes()[i];
    ASSERT_LT(code, dict.size());
    EXPECT_EQ(dict.value(code), cells[i]) << "cell " << i;
    used.insert(code);
  }
  EXPECT_EQ(used.size(), dict.size());  // every code reachable, none wasted
  std::set<std::string> distinct(cells.begin(), cells.end());
  EXPECT_EQ(dict.size(), distinct.size());
}

TEST(DictionaryProperty, GatherEqualsScalarPerCell) {
  // The dictionary path's core claim, stated per cell: featurizing
  // value(codes()[i]) is the same computation as featurizing cells[i],
  // because the gathered bytes are identical strings.
  auto strings = RandomByteStrings(321);
  Rng rng(9);
  std::vector<Cell> cells;
  for (int i = 0; i < 200; ++i) {
    cells.push_back(strings[rng.UniformInt(uint64_t{strings.size()})]);
  }
  features::ColumnDictionary dict;
  dict.Encode(cells);
  for (size_t i = 0; i < cells.size(); ++i) {
    std::string_view gathered = dict.value(dict.codes()[i]);
    EXPECT_EQ(features::kernels::HashValue(gathered),
              features::kernels::HashValue(cells[i]));
    EXPECT_EQ(features::kernels::CountCharClasses(gathered),
              features::kernels::CountCharClasses(cells[i]));
  }
}

}  // namespace
}  // namespace saged
