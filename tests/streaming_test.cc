// Test wall around the streaming out-of-core detection path:
//   1. CsvBlockReader parity with ParseCsv/ReadCsv under hostile chunk and
//      block geometries (quoted fields, CRLF pairs and embedded newlines
//      split across chunk boundaries, ragged rows, trailing delimiters).
//   2. Frozen-stats equivalence: the streaming stats builder freezes
//      statistics bit-identical to whole-column fits.
//   3. The determinism wall: DetectStream produces byte-identical masks,
//      diagnostics, and F1 to the in-memory Detect across block sizes and
//      thread counts on several synthetic datasets.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "data/csv.h"
#include "datagen/datasets.h"
#include "features/frozen_stats.h"
#include "features/signature.h"

namespace saged {
namespace {

/// A temp file name unique to the running test: ctest runs every case as
/// its own process, in parallel under -j, so a fixed name shared by two
/// cases would race.
std::string TempPath(const std::string& name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

/// Reads `path` fully through the block reader and reassembles a table, so
/// results can be compared cell-for-cell against the in-memory parser. Also
/// checks the block contract along the way: contiguous first_row indices and
/// equal-length columns.
Result<Table> ReadViaBlocks(const std::string& path, size_t block_rows,
                            size_t chunk_bytes, CsvOptions options = {}) {
  CsvBlockReader reader(path, block_rows, options, chunk_bytes);
  SAGED_RETURN_NOT_OK(reader.Open());
  std::vector<std::vector<Cell>> columns(reader.NumCols());
  CsvBlock block;
  size_t expected_first = 0;
  while (true) {
    SAGED_ASSIGN_OR_RETURN(bool more, reader.Next(&block));
    if (!more) break;
    EXPECT_EQ(block.first_row, expected_first);
    EXPECT_LE(block.rows(), block_rows);
    EXPECT_GT(block.rows(), 0u);
    EXPECT_EQ(block.columns.size(), reader.NumCols());
    for (size_t j = 0; j < block.columns.size(); ++j) {
      EXPECT_EQ(block.columns[j].size(), block.rows());
      for (auto& cell : block.columns[j]) columns[j].push_back(cell);
    }
    expected_first += block.rows();
  }
  EXPECT_EQ(reader.rows_read(), expected_first);
  Table table;
  for (size_t j = 0; j < reader.NumCols(); ++j) {
    SAGED_RETURN_NOT_OK(table.AddColumn(
        Column(reader.column_names()[j], std::move(columns[j]))));
  }
  return table;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.NumCols(), b.NumCols());
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (size_t j = 0; j < a.NumCols(); ++j) {
    EXPECT_EQ(a.column(j).name(), b.column(j).name());
    for (size_t r = 0; r < a.NumRows(); ++r) {
      ASSERT_EQ(a.cell(r, j), b.cell(r, j)) << "cell (" << r << "," << j << ")";
    }
  }
}

/// Chunk/block geometries that force every interesting boundary: 1-byte
/// chunks put a boundary after every character, primes land boundaries
/// mid-quote and mid-CRLF, large values exercise the fast path.
const size_t kChunkSweeps[] = {1, 2, 3, 7, 16, 4096};
const size_t kBlockSweeps[] = {1, 2, 3, 1000};

void ExpectParity(const std::string& text, CsvOptions options = {}) {
  auto expected = ParseCsv(text, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::string path = TempPath("parity.csv");
  WriteFile(path, text);
  for (size_t chunk : kChunkSweeps) {
    for (size_t block : kBlockSweeps) {
      auto got = ReadViaBlocks(path, block, chunk, options);
      ASSERT_TRUE(got.ok()) << "chunk=" << chunk << " block=" << block << ": "
                            << got.status().ToString();
      ExpectTablesEqual(*expected, *got);
    }
  }
}

TEST(CsvBlockReaderTest, PlainTable) {
  ExpectParity("a,b,c\n1,2,3\n4,5,6\n7,8,9\n");
}

TEST(CsvBlockReaderTest, QuotedFieldsAcrossChunkBoundaries) {
  // 1-byte chunks split every quoted field across a boundary.
  ExpectParity("name,desc\nalpha,\"a, quoted, field\"\nbeta,\"say \"\"hi\"\"\"\n");
}

TEST(CsvBlockReaderTest, EmbeddedNewlinesInsideQuotes) {
  ExpectParity("a,b\n\"line1\nline2\",x\n\"crlf\r\nline\",y\n");
}

TEST(CsvBlockReaderTest, CrlfTerminators) {
  // The \r\n pair is split across chunks whenever chunk size is odd.
  ExpectParity("a,b\r\n1,2\r\n3,4\r\n");
}

TEST(CsvBlockReaderTest, BareCarriageReturnTerminator) {
  ExpectParity("a,b\r1,2\r3,4\r");
}

TEST(CsvBlockReaderTest, TrailingDelimiterMakesEmptyLastField) {
  ExpectParity("a,b\n1,\n,\n");
}

TEST(CsvBlockReaderTest, NoTrailingNewline) {
  ExpectParity("a,b\n1,2\n3,4");
}

TEST(CsvBlockReaderTest, TrailingBlankLineIsSkipped) {
  ExpectParity("a,b\n1,2\n\n");
}

TEST(CsvBlockReaderTest, NewlineOnlyFile) { ExpectParity("\n"); }

TEST(CsvBlockReaderTest, EmptyFile) { ExpectParity(""); }

TEST(CsvBlockReaderTest, HeaderOnlyFile) { ExpectParity("a,b,c\n"); }

TEST(CsvBlockReaderTest, NoHeaderModeSynthesizesNamesAndKeepsFirstRecord) {
  CsvOptions options;
  options.has_header = false;
  ExpectParity("1,2\n3,4\n5,6\n", options);
}

TEST(CsvBlockReaderTest, RaggedRowFailsWithParseCsvError) {
  const std::string text = "a,b\n1,2\n1,2,3\n";
  auto expected = ParseCsv(text);
  ASSERT_FALSE(expected.ok());
  std::string path = TempPath("ragged.csv");
  WriteFile(path, text);
  for (size_t chunk : kChunkSweeps) {
    auto got = ReadViaBlocks(path, 2, chunk);
    ASSERT_FALSE(got.ok()) << "chunk=" << chunk;
    EXPECT_EQ(got.status().ToString(), expected.status().ToString());
  }
}

TEST(CsvBlockReaderTest, MissingFileFailsOnOpen) {
  CsvBlockReader reader(TempPath("does_not_exist.csv"));
  EXPECT_FALSE(reader.Open().ok());
}

TEST(CsvBlockReaderTest, RecordLongerThanChunkStillParses) {
  std::string big(10000, 'x');
  ExpectParity("a,b\n" + big + ",\"" + big + "\n" + big + "\"\n");
}

TEST(CsvBlockReaderTest, FuzzedNastyTablesRoundTrip) {
  // Random tables over the characters most likely to break a CSV state
  // machine, serialized by FormatCsv (which quotes as needed) and read back
  // through both parsers.
  const char kNasty[] = ",\"\n\r;| '";
  Rng rng(2026);
  for (int iter = 0; iter < 25; ++iter) {
    size_t cols = 1 + rng.UniformInt(4);
    size_t rows = 1 + rng.UniformInt(12);
    Table table;
    for (size_t j = 0; j < cols; ++j) {
      std::vector<Cell> cells;
      for (size_t r = 0; r < rows; ++r) {
        std::string cell;
        size_t len = rng.UniformInt(8);
        for (size_t k = 0; k < len; ++k) {
          cell += kNasty[rng.UniformInt(sizeof(kNasty) - 1)];
        }
        cells.push_back(cell);
      }
      // Non-nasty names: FormatCsv writes them on the header line, and a
      // name that parses as empty would not round-trip.
      ASSERT_TRUE(
          table.AddColumn(Column("col" + std::to_string(j), cells)).ok());
    }
    std::string text = FormatCsv(table);
    std::string path = TempPath("fuzz.csv");
    WriteFile(path, text);
    auto expected = ParseCsv(text);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    size_t chunk = 1 + rng.UniformInt(32);
    size_t block = 1 + rng.UniformInt(8);
    auto got = ReadViaBlocks(path, block, chunk);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectTablesEqual(*expected, *got);
  }
}

// ---------------------------------------------------------------------------
// Frozen stats = whole-column fits, bit for bit.
// ---------------------------------------------------------------------------

TEST(FrozenStatsTest, MatchesWholeColumnFitsBitForBit) {
  auto ds = datagen::MakeDataset("beers", {.seed = 11, .rows = 120});
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  for (size_t j = 0; j < ds->dirty.NumCols(); ++j) {
    const Column& column = ds->dirty.column(j);
    features::ColumnStatsBuilder builder;
    for (const auto& cell : column.values()) builder.Observe(cell);
    auto frozen = builder.Finalize();
    ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();

    features::MetadataProfiler profiler;
    ASSERT_TRUE(profiler.Fit(column).ok());
    text::CharTfidf tfidf;
    ASSERT_TRUE(tfidf.Fit(column.values()).ok());

    // Profiles compare exactly: the builder and Fit run the same Observe
    // sequence, so even the floating-point sums must agree to the last bit.
    const auto& a = frozen->profiler.profile();
    const auto& b = profiler.profile();
    EXPECT_EQ(a.missing_fraction, b.missing_fraction);
    EXPECT_EQ(a.distinct_ratio, b.distinct_ratio);
    EXPECT_EQ(a.numeric_fraction, b.numeric_fraction);
    EXPECT_EQ(a.mean_length, b.mean_length);
    EXPECT_EQ(a.std_length, b.std_length);
    EXPECT_EQ(a.mean_alpha, b.mean_alpha);
    EXPECT_EQ(a.mean_digit, b.mean_digit);
    EXPECT_EQ(a.mean_punct, b.mean_punct);
    EXPECT_EQ(a.numeric_mean, b.numeric_mean);
    EXPECT_EQ(a.numeric_std, b.numeric_std);

    EXPECT_EQ(frozen->tfidf.vocabulary(), tfidf.vocabulary());
    EXPECT_EQ(frozen->tfidf.NumDocs(), tfidf.NumDocs());
    EXPECT_EQ(frozen->type, column.InferType());
    EXPECT_EQ(frozen->signature, features::ColumnSignature(column));
  }
}

// ---------------------------------------------------------------------------
// The determinism wall: streamed == in-memory, byte for byte.
// ---------------------------------------------------------------------------

class StreamingDetectionWall : public ::testing::Test {
 protected:
  static core::SagedConfig FastConfig() {
    core::SagedConfig config;
    config.w2v.epochs = 1;
    config.w2v.dim = 6;
    config.labeling_budget = 20;
    return config;
  }

  static datagen::Dataset Gen(const std::string& name, size_t rows) {
    datagen::MakeOptions opts;
    opts.rows = rows;
    auto ds = datagen::MakeDataset(name, opts);
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    return std::move(ds).value();
  }

  static core::Saged MakeLoaded(const core::SagedConfig& config) {
    core::Saged saged(config);
    auto adult = Gen("adult", 250);
    auto movies = Gen("movies", 250);
    EXPECT_TRUE(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
    EXPECT_TRUE(saged.AddHistoricalDataset(movies.dirty, movies.mask).ok());
    return saged;
  }
};

TEST_F(StreamingDetectionWall, StreamedEqualsInMemoryAcrossDatasetsBlocksAndThreads) {
  // A CSV round-trip loses nothing the detector sees, so the reference mask
  // is computed on the re-parsed table: both paths then read exactly the
  // same cells and the masks must be byte-identical.
  const std::vector<std::string> datasets = {"beers", "bikes", "hospital"};
  const std::vector<size_t> block_sweeps = {37, 128, 100000};
  const std::vector<size_t> thread_sweeps = {1, 4};
  for (const auto& name : datasets) {
    auto ds = Gen(name, 220);
    std::string path = TempPath(name + "_stream.csv");
    ASSERT_TRUE(WriteCsv(ds.dirty, path).ok());
    auto reparsed = ReadCsv(path);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();

    core::SagedConfig config = FastConfig();
    core::Saged saged = MakeLoaded(config);
    auto reference = saged.Detect(*reparsed, core::MaskOracle(ds.mask));
    ASSERT_TRUE(reference.ok()) << name << ": "
                                << reference.status().ToString();
    const auto ref_score = ds.mask.Score(reference->mask);

    for (size_t block_rows : block_sweeps) {
      for (size_t threads : thread_sweeps) {
        core::SagedConfig sweep_config = FastConfig();
        sweep_config.detect_threads = threads;
        core::Saged sweep_saged = MakeLoaded(sweep_config);
        core::DetectionOptions options;
        options.block_rows = block_rows;
        auto streamed = sweep_saged.DetectStream(
            path, core::MaskOracle(ds.mask), options);
        ASSERT_TRUE(streamed.ok())
            << name << " block_rows=" << block_rows << " threads=" << threads
            << ": " << streamed.status().ToString();

        // Byte-identical predictions...
        EXPECT_TRUE(streamed->mask == reference->mask)
            << name << " block_rows=" << block_rows << " threads=" << threads;
        // ...identical F1...
        const auto score = ds.mask.Score(streamed->mask);
        EXPECT_EQ(score.F1(), ref_score.F1());
        // ...and identical run metadata.
        EXPECT_EQ(streamed->labeled_tuples, reference->labeled_tuples);
        EXPECT_EQ(streamed->matched_models, reference->matched_models);
        ASSERT_EQ(streamed->diagnostics.size(), reference->diagnostics.size());
        for (size_t j = 0; j < reference->diagnostics.size(); ++j) {
          EXPECT_EQ(streamed->diagnostics[j].column,
                    reference->diagnostics[j].column);
          EXPECT_EQ(streamed->diagnostics[j].matched_sources,
                    reference->diagnostics[j].matched_sources);
          EXPECT_EQ(streamed->diagnostics[j].used_fallback,
                    reference->diagnostics[j].used_fallback);
          EXPECT_EQ(streamed->diagnostics[j].threshold,
                    reference->diagnostics[j].threshold);
          EXPECT_EQ(streamed->diagnostics[j].flagged_cells,
                    reference->diagnostics[j].flagged_cells);
        }
      }
    }
  }
}

TEST_F(StreamingDetectionWall, SmallChunkBytesDoNotChangeTheMask) {
  auto ds = Gen("beers", 150);
  std::string path = TempPath("beers_chunks.csv");
  ASSERT_TRUE(WriteCsv(ds.dirty, path).ok());
  core::Saged saged = MakeLoaded(FastConfig());

  core::DetectionOptions baseline;
  baseline.block_rows = 64;
  auto reference = saged.DetectStream(path, core::MaskOracle(ds.mask), baseline);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  core::DetectionOptions tiny = baseline;
  tiny.chunk_bytes = 13;  // forces records across nearly every refill
  auto streamed = saged.DetectStream(path, core::MaskOracle(ds.mask), tiny);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_TRUE(streamed->mask == reference->mask);
}

TEST_F(StreamingDetectionWall, StreamRejectsEmptyFileAndMissingKb) {
  std::string path = TempPath("empty_stream.csv");
  WriteFile(path, "");
  core::Saged loaded = MakeLoaded(FastConfig());
  ErrorMask unused;
  EXPECT_FALSE(loaded.DetectStream(path, core::MaskOracle(unused)).ok());

  core::Saged empty_kb(FastConfig());
  EXPECT_FALSE(empty_kb.DetectStream(path, core::MaskOracle(unused)).ok());
}

}  // namespace
}  // namespace saged
