// Tests for the run ledger (common/run_manifest.h): manifest JSON schema,
// minified vs pretty forms, append-only ledger.jsonl semantics, the
// predictable `<tool>-last.json` path with name sanitization, build
// provenance accessors, and IoError reporting on unwritable directories.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_manifest.h"

namespace saged {
namespace {

RunManifest SampleManifest() {
  RunManifest m;
  m.tool = "saged_cli detect";
  m.command_line = "saged_cli detect --config cfg.json";
  m.config_hash = "deadbeef01234567";
  m.datasets.push_back({"hospital", "0011223344556677"});
  m.datasets.push_back({"flights", "8899aabbccddeeff"});
  m.threads = 8;
  m.wall_ms = 123.5;
  m.peak_rss_bytes = 1048576;
  m.metrics["detect.f1"] = 0.91;
  m.metrics["detect.cell_ms.p99"] = 4.25;
  m.extra["note"] = "unit test";
  return m;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

class RunManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs each TEST_F as its own process, so
    // a shared directory would let one test delete another's ledger.
    runs_dir_ = ::testing::TempDir() + "/saged_runs_test_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(runs_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(runs_dir_); }

  std::string runs_dir_;
};

TEST_F(RunManifestTest, ManifestJsonCarriesAllProvenanceFields) {
  std::string json = ManifestJson(SampleManifest(), /*pretty=*/false);
  for (const char* field :
       {"\"schema_version\":1", "\"timestamp_utc\":", "\"tool\":",
        "\"command_line\":", "\"git_sha\":", "\"build_flags\":",
        "\"config_hash\":\"deadbeef01234567\"", "\"threads\":8",
        "\"wall_ms\":123.5", "\"peak_rss_bytes\":1048576", "\"datasets\":",
        "\"hospital\":\"0011223344556677\"",
        "\"flights\":\"8899aabbccddeeff\"", "\"metrics\":",
        "\"detect.cell_ms.p99\":4.25", "\"detect.f1\":0.91", "\"extra\":",
        "\"note\":\"unit test\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << "missing " << field;
  }
}

TEST_F(RunManifestTest, MinifiedManifestIsSingleLine) {
  std::string json = ManifestJson(SampleManifest(), /*pretty=*/false);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  // Pretty form differs only in whitespace; it must still contain the data.
  std::string pretty = ManifestJson(SampleManifest(), /*pretty=*/true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_NE(pretty.find("\"detect.f1\""), std::string::npos);
}

TEST_F(RunManifestTest, BuildProvenanceAccessorsAreNonEmpty) {
  EXPECT_FALSE(BuildGitSha().empty());
  EXPECT_FALSE(BuildFlags().empty());
}

TEST_F(RunManifestTest, Iso8601TimestampShape) {
  std::string ts = Iso8601UtcNow();
  // 2026-08-08T12:34:56Z
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts[19], 'Z');
  for (size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u, 11u, 12u, 14u, 15u, 17u,
                   18u}) {
    EXPECT_TRUE(ts[i] >= '0' && ts[i] <= '9') << "at index " << i;
  }
  // The container clock says 2026; accept a wide window so the test does
  // not rot.
  int year = std::stoi(ts.substr(0, 4));
  EXPECT_GE(year, 2024);
  EXPECT_LE(year, 2100);
}

TEST_F(RunManifestTest, AppendCreatesLedgerAndLastFile) {
  auto status = AppendRunManifest(runs_dir_, SampleManifest());
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto lines = ReadLines(runs_dir_ + "/ledger.jsonl");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"saged_cli detect\""), std::string::npos);
  // Tool name sanitized for the filename: space -> '_'.
  std::string last = ReadWholeFile(runs_dir_ + "/saged_cli_detect-last.json");
  EXPECT_NE(last.find("\"detect.cell_ms.p99\""), std::string::npos);
}

TEST_F(RunManifestTest, LedgerIsAppendOnlyAndLastIsOverwritten) {
  RunManifest first = SampleManifest();
  first.wall_ms = 100.0;
  RunManifest second = SampleManifest();
  second.wall_ms = 200.0;
  ASSERT_TRUE(AppendRunManifest(runs_dir_, first).ok());
  ASSERT_TRUE(AppendRunManifest(runs_dir_, second).ok());
  auto lines = ReadLines(runs_dir_ + "/ledger.jsonl");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"wall_ms\":100"), std::string::npos);
  EXPECT_NE(lines[1].find("\"wall_ms\":200"), std::string::npos);
  // `<tool>-last.json` holds only the latest run.
  std::string last = ReadWholeFile(runs_dir_ + "/saged_cli_detect-last.json");
  EXPECT_NE(last.find("200"), std::string::npos);
  EXPECT_EQ(last.find("\"wall_ms\": 100"), std::string::npos);
}

TEST_F(RunManifestTest, EmptyToolNameFallsBackToRun) {
  RunManifest m;
  m.tool = "";
  ASSERT_TRUE(AppendRunManifest(runs_dir_, m).ok());
  EXPECT_TRUE(std::filesystem::exists(runs_dir_ + "/run-last.json"));
}

TEST_F(RunManifestTest, UnwritableDirectoryReportsIoErrorWithPath) {
  // A path nested under a regular file can never become a directory.
  std::string blocker = ::testing::TempDir() + "/saged_runs_blocker";
  {
    std::ofstream out(blocker);
    out << "not a directory";
  }
  std::string bad_dir = blocker + "/runs";
  auto status = AppendRunManifest(bad_dir, SampleManifest());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find(bad_dir), std::string::npos);
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace saged
