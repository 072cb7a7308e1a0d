#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/error_mask.h"
#include "data/mask_io.h"
#include "data/table.h"
#include "data/value.h"

namespace saged {
namespace {

// --- Value classification ---------------------------------------------------

TEST(ValueTest, ClassifyKinds) {
  EXPECT_EQ(ClassifyValue(""), ValueKind::kMissing);
  EXPECT_EQ(ClassifyValue("NULL"), ValueKind::kMissing);
  EXPECT_EQ(ClassifyValue("42"), ValueKind::kInteger);
  EXPECT_EQ(ClassifyValue("-3.14"), ValueKind::kReal);
  EXPECT_EQ(ClassifyValue("2021-06-14"), ValueKind::kDate);
  EXPECT_EQ(ClassifyValue("14/06/2021"), ValueKind::kDate);
  EXPECT_EQ(ClassifyValue("hello world"), ValueKind::kText);
}

TEST(ValueTest, CellAsNumber) {
  EXPECT_EQ(CellAsNumber("5").value(), 5.0);
  EXPECT_FALSE(CellAsNumber("NULL").has_value());
  EXPECT_FALSE(CellAsNumber("abc").has_value());
}

TEST(ValueTest, DateDetection) {
  EXPECT_TRUE(LooksLikeDate("1999-12-31"));
  EXPECT_TRUE(LooksLikeDate("12/31/1999"));
  EXPECT_FALSE(LooksLikeDate("1999"));
  EXPECT_FALSE(LooksLikeDate("12-31"));
  EXPECT_FALSE(LooksLikeDate("ab-cd-ef"));
}

// --- Column -----------------------------------------------------------------

Column NumericColumn() {
  return Column("n", {"1", "2", "3", "4", "100"});
}

TEST(ColumnTest, InferNumeric) {
  EXPECT_EQ(NumericColumn().InferType(), ColumnType::kNumeric);
}

TEST(ColumnTest, InferCategorical) {
  std::vector<Cell> values;
  for (int i = 0; i < 100; ++i) values.push_back(i % 2 ? "yes" : "no");
  EXPECT_EQ(Column("c", values).InferType(), ColumnType::kCategorical);
}

TEST(ColumnTest, InferDate) {
  Column c("d", {"2020-01-01", "2020-02-02", "2021-03-03"});
  EXPECT_EQ(c.InferType(), ColumnType::kDate);
}

TEST(ColumnTest, DistinctAndMissing) {
  Column c("x", {"a", "b", "a", "", "NULL"});
  EXPECT_EQ(c.DistinctCount(), 4u);
  EXPECT_DOUBLE_EQ(c.MissingFraction(), 0.4);
}

TEST(ColumnTest, AsNumbersAligned) {
  auto nums = NumericColumn().AsNumbers();
  ASSERT_EQ(nums.size(), 5u);
  EXPECT_EQ(nums[4].value(), 100.0);
}

TEST(ColumnTest, Truncate) {
  Column c = NumericColumn();
  c.Truncate(2);
  EXPECT_EQ(c.size(), 2u);
}

// --- Table ------------------------------------------------------------------

Table SmallTable() {
  Table t("demo");
  EXPECT_TRUE(t.AddColumn(Column("a", {"1", "2", "3"})).ok());
  EXPECT_TRUE(t.AddColumn(Column("b", {"x", "y", "z"})).ok());
  return t;
}

TEST(TableTest, Shape) {
  Table t = SmallTable();
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.NumCols(), 2u);
}

TEST(TableTest, RejectsMismatchedColumn) {
  Table t = SmallTable();
  EXPECT_FALSE(t.AddColumn(Column("c", {"only", "two"})).ok());
}

TEST(TableTest, ColumnIndex) {
  Table t = SmallTable();
  EXPECT_EQ(t.ColumnIndex("b").value(), 1u);
  EXPECT_FALSE(t.ColumnIndex("nope").ok());
}

TEST(TableTest, RowView) {
  Table t = SmallTable();
  auto row = t.Row(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "2");
  EXPECT_EQ(row[1], "y");
}

TEST(TableTest, CellMutation) {
  Table t = SmallTable();
  t.set_cell(0, 1, "updated");
  EXPECT_EQ(t.cell(0, 1), "updated");
}

TEST(TableTest, HeadFraction) {
  Table t = SmallTable();
  Table half = t.HeadFraction(0.67);
  EXPECT_EQ(half.NumRows(), 2u);
  EXPECT_EQ(half.NumCols(), 2u);
  // Always keeps at least one row.
  EXPECT_EQ(t.HeadFraction(0.0).NumRows(), 1u);
}

TEST(TableTest, SelectRows) {
  Table t = SmallTable();
  Table sel = t.SelectRows({2, 0});
  EXPECT_EQ(sel.NumRows(), 2u);
  EXPECT_EQ(sel.cell(0, 0), "3");
  EXPECT_EQ(sel.cell(1, 0), "1");
}

// --- ErrorMask --------------------------------------------------------------

TEST(ErrorMaskTest, SetAndQuery) {
  ErrorMask m(3, 2);
  EXPECT_FALSE(m.IsDirty(1, 1));
  m.Set(1, 1);
  EXPECT_TRUE(m.IsDirty(1, 1));
  EXPECT_EQ(m.DirtyCount(), 1u);
  EXPECT_DOUBLE_EQ(m.ErrorRate(), 1.0 / 6.0);
}

TEST(ErrorMaskTest, ColumnLabels) {
  ErrorMask m(3, 2);
  m.Set(0, 1);
  m.Set(2, 1);
  auto labels = m.ColumnLabels(1);
  EXPECT_EQ(labels, (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(m.ColumnLabels(0), (std::vector<int>{0, 0, 0}));
}

TEST(ErrorMaskTest, ScoreConfusion) {
  ErrorMask truth(2, 2);
  truth.Set(0, 0);
  truth.Set(1, 1);
  ErrorMask pred(2, 2);
  pred.Set(0, 0);  // tp
  pred.Set(0, 1);  // fp
  auto s = truth.Score(pred);
  EXPECT_EQ(s.tp, 1u);
  EXPECT_EQ(s.fp, 1u);
  EXPECT_EQ(s.fn, 1u);
  EXPECT_EQ(s.tn, 1u);
  EXPECT_DOUBLE_EQ(s.Precision(), 0.5);
  EXPECT_DOUBLE_EQ(s.Recall(), 0.5);
  EXPECT_DOUBLE_EQ(s.F1(), 0.5);
}

TEST(ErrorMaskTest, PerfectScore) {
  ErrorMask truth(4, 4);
  truth.Set(1, 2);
  auto s = truth.Score(truth);
  EXPECT_DOUBLE_EQ(s.F1(), 1.0);
}

TEST(ErrorMaskTest, MergeIsUnion) {
  ErrorMask a(2, 2);
  a.Set(0, 0);
  ErrorMask b(2, 2);
  b.Set(1, 1);
  a.Merge(b);
  EXPECT_TRUE(a.IsDirty(0, 0));
  EXPECT_TRUE(a.IsDirty(1, 1));
  EXPECT_EQ(a.DirtyCount(), 2u);
}

TEST(ErrorMaskTest, HeadRows) {
  ErrorMask m(4, 2);
  m.Set(0, 1);
  m.Set(3, 0);
  ErrorMask head = m.HeadRows(2);
  EXPECT_EQ(head.rows(), 2u);
  EXPECT_TRUE(head.IsDirty(0, 1));
  EXPECT_EQ(head.DirtyCount(), 1u);
}

TEST(ErrorMaskTest, RowHasError) {
  ErrorMask m(2, 3);
  m.Set(1, 2);
  EXPECT_FALSE(m.RowHasError(0));
  EXPECT_TRUE(m.RowHasError(1));
}

// --- Mask I/O ----------------------------------------------------------------

TEST(MaskIoTest, RoundTrip) {
  ErrorMask mask(3, 2);
  mask.Set(0, 1);
  mask.Set(2, 0);
  Table t = MaskToTable(mask, {"a", "b"});
  EXPECT_EQ(t.cell(0, 1), "1");
  EXPECT_EQ(t.cell(1, 0), "0");
  auto back = TableToMask(t);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == mask);
}

TEST(MaskIoTest, RejectsNonBinaryCells) {
  Table t("bad");
  ASSERT_TRUE(t.AddColumn(Column("a", {"1", "2"})).ok());
  EXPECT_FALSE(TableToMask(t).ok());
}

TEST(MaskIoTest, FileRoundTrip) {
  ErrorMask mask(4, 3);
  mask.Set(1, 2);
  std::string path = testing::TempDir() + "/saged_mask_io.csv";
  ASSERT_TRUE(WriteMaskCsv(mask, {"x", "y", "z"}, path).ok());
  auto back = ReadMaskCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == mask);
}

// --- CSV --------------------------------------------------------------------

TEST(CsvTest, ParseSimple) {
  auto t = ParseCsv("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 2u);
  EXPECT_EQ(t->NumCols(), 2u);
  EXPECT_EQ(t->cell(1, 1), "y");
  EXPECT_EQ(t->column(0).name(), "a");
}

TEST(CsvTest, ParseQuotedFields) {
  auto t = ParseCsv("a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->cell(0, 0), "hello, world");
  EXPECT_EQ(t->cell(0, 1), "say \"hi\"");
}

TEST(CsvTest, ParseCrLf) {
  auto t = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumRows(), 1u);
  EXPECT_EQ(t->cell(0, 1), "2");
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
}

TEST(CsvTest, RoundTrip) {
  Table t("rt");
  ASSERT_TRUE(t.AddColumn(Column("a", {"1", "two, three"})).ok());
  ASSERT_TRUE(t.AddColumn(Column("b\"q", {"x", ""})).ok());
  std::string text = FormatCsv(t);
  auto back = ParseCsv(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRows(), 2u);
  EXPECT_EQ(back->cell(1, 0), "two, three");
  EXPECT_EQ(back->cell(0, 1), "x");
  EXPECT_EQ(back->column(1).name(), "b\"q");
}

TEST(CsvTest, FileRoundTrip) {
  Table t("file");
  ASSERT_TRUE(t.AddColumn(Column("v", {"alpha", "beta"})).ok());
  std::string path = testing::TempDir() + "/saged_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cell(1, 0), "beta");
}

TEST(CsvTest, MissingFileIsIoError) {
  auto r = ReadCsv("/nonexistent/path.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace saged
