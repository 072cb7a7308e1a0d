// Golden detection masks: Saged::Run on three datagen tables against a small
// adult+movies knowledge base, in memory and streamed at several block sizes
// and thread caps, must reproduce pinned FNV-1a mask digests. The other
// determinism walls compare two paths of one binary against each other, so a
// change that moves every path the same way passes them; these digests were
// recorded before dictionary-space inference landed and catch exactly that.
//
// If a change to detection is *intentional* (it moves masks on purpose),
// rerun this suite and update kGoldens from the failure messages, which
// print the new digests, and record the mask change in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/detector.h"
#include "data/content_hash.h"
#include "data/csv.h"
#include "datagen/datasets.h"

namespace saged::core {
namespace {

struct Golden {
  const char* dataset;
  size_t rows;
  uint64_t digest;
};

// Pinned mask digests (HashMaskContent) at the FastConfig below.
constexpr Golden kGoldens[] = {
    {"hospital", 300, 0xc59cf996c0307d3b},
    {"tax", 2000, 0x5285eeb9c0c1ee17},
    {"beers", 300, 0xa159818a40ba0645},
};

/// How one case reaches Run: the table in memory (block_rows = 0) or the
/// table's CSV streamed in blocks of block_rows rows.
struct Case {
  const Golden* golden;
  size_t block_rows;
  size_t threads;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.golden->dataset << " block_rows=" << c.block_rows
      << " threads=" << c.threads;
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const Golden& golden : kGoldens) {
    for (size_t block_rows : {0u, 1u, 97u, 1000u}) {
      for (size_t threads : {1u, 4u}) {
        cases.push_back({&golden, block_rows, threads});
      }
    }
  }
  return cases;
}

SagedConfig FastConfig() {
  SagedConfig config;
  config.w2v.epochs = 1;
  config.w2v.dim = 6;
  config.labeling_budget = 20;
  return config;
}

datagen::Dataset Gen(const std::string& name, size_t rows) {
  datagen::MakeOptions opts;
  opts.rows = rows;
  auto ds = datagen::MakeDataset(name, opts);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

class DetectionGoldenTest : public ::testing::TestWithParam<Case> {
 protected:
  /// One engine and one generated table per dataset, shared by every case
  /// of the suite.
  static void SetUpTestSuite() {
    engine_ = new Saged(FastConfig());
    for (const char* history : {"adult", "movies"}) {
      auto ds = Gen(history, 300);
      Status added = engine_->AddHistoricalDataset(ds.dirty, ds.mask);
      ASSERT_TRUE(added.ok()) << added.ToString();
    }
    datasets_ = new std::map<std::string, datagen::Dataset>;
    for (const Golden& golden : kGoldens) {
      datasets_->emplace(golden.dataset, Gen(golden.dataset, golden.rows));
    }
  }

  static void TearDownTestSuite() {
    delete datasets_;
    delete engine_;
    datasets_ = nullptr;
    engine_ = nullptr;
  }

  /// A CSV path unique to the running case: ctest runs every case as its
  /// own process, in parallel under -j, so a shared name would race.
  static std::string CsvPath() {
    const auto* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = test->name();
    for (char& ch : name) {
      if (ch == '/') ch = '_';
    }
    return ::testing::TempDir() + "detection_golden_" + name + ".csv";
  }

  static Saged* engine_;
  static std::map<std::string, datagen::Dataset>* datasets_;
};

Saged* DetectionGoldenTest::engine_ = nullptr;
std::map<std::string, datagen::Dataset>* DetectionGoldenTest::datasets_ =
    nullptr;

TEST_P(DetectionGoldenTest, MaskDigestMatchesPinned) {
  const Case& c = GetParam();
  ASSERT_NE(engine_, nullptr);
  const datagen::Dataset& ds = datasets_->at(c.golden->dataset);
  SagedConfig config = FastConfig();
  config.detect_threads = c.threads;
  const std::string path = CsvPath();
  if (c.block_rows > 0) {
    Status written = WriteCsv(ds.dirty, path);
    ASSERT_TRUE(written.ok()) << written.ToString();
  }
  DetectionRequest request =
      c.block_rows == 0
          ? DetectionRequest::ForTable(&ds.dirty, MaskOracle(ds.mask))
          : DetectionRequest::ForCsv(
                path, MaskOracle(ds.mask),
                DetectionOptions{.stream = true, .block_rows = c.block_rows});
  request.set_config(config);
  auto result = engine_->Run(request);
  if (c.block_rows > 0) std::remove(path.c_str());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->mask.rows(), ds.mask.rows());
  ASSERT_EQ(result->mask.cols(), ds.mask.cols());
  char digest[24];
  std::snprintf(digest, sizeof(digest), "0x%016llx",
                static_cast<unsigned long long>(
                    MaskContentHash(result->mask)));
  char pinned[24];
  std::snprintf(pinned, sizeof(pinned), "0x%016llx",
                static_cast<unsigned long long>(c.golden->digest));
  EXPECT_STREQ(digest, pinned)
      << c.golden->dataset << " block_rows=" << c.block_rows
      << " threads=" << c.threads;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string path = c.block_rows == 0
                         ? std::string("mem")
                         : "stream" + std::to_string(c.block_rows);
  return std::string(c.golden->dataset) + "_" + path + "_t" +
         std::to_string(c.threads);
}

INSTANTIATE_TEST_SUITE_P(Cases, DetectionGoldenTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace saged::core
