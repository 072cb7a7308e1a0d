// In-process tests for the saged_lint engine: every rule gets at least one
// fixture that triggers it and one where a justified suppression silences
// it. Fixtures are in-memory SourceFiles with realistic repo-relative
// paths (rule scoping keys off the path). Violation tokens below live
// inside string literals, which the engine's stripper blanks — so linting
// this test file itself stays clean.
#include "tools/lint_engine.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace saged::lint {
namespace {

std::vector<Finding> ByRule(const LintResult& result, const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : result.findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

TEST(LintTest, RuleNamesCoverTheCatalogue) {
  const auto& rules = RuleNames();
  EXPECT_EQ(rules.size(), 11u);
  for (const char* expected :
       {"no-raw-random", "no-adhoc-thread", "no-unchecked-result",
        "no-iostream-in-core", "include-hygiene", "no-untimed-stage",
        "lock-discipline", "executor-capture-lifetime",
        "no-blocking-in-io-loop", "no-unverified-simd", "bad-suppression"}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), expected), rules.end())
        << expected;
  }
}

TEST(LintTest, CleanFixtureHasNoFindings) {
  LintResult r = RunLint({{"src/ml/clean.cc",
                           "namespace saged::ml {\n"
                           "int Add(int a, int b) { return a + b; }\n"
                           "}  // namespace saged::ml\n"}});
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.files_scanned, 1u);
  EXPECT_EQ(r.suppressed, 0u);
}

// --- no-raw-random ---------------------------------------------------------

TEST(LintTest, RawRandomFlagged) {
  LintResult r = RunLint({{"src/ml/sampler.cc",
                           "namespace saged::ml {\n"
                           "int Roll() { std::mt19937 gen(42); return 0; }\n"
                           "}\n"}});
  auto hits = ByRule(r, "no-raw-random");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 2u);
  EXPECT_NE(hits[0].message.find("common/rng.h"), std::string::npos);
}

TEST(LintTest, RawRandomCallAndHeaderFlagged) {
  LintResult r = RunLint({{"src/core/seed.cc",
                           "#include <random>\n"
                           "namespace saged {\n"
                           "int S() { return rand(); }\n"
                           "}\n"}});
  EXPECT_EQ(ByRule(r, "no-raw-random").size(), 2u);  // include + call
}

TEST(LintTest, RawRandomAllowedInRngHeaderAndOutsideSrc) {
  LintResult r = RunLint(
      {{"src/common/rng.h",
        "#ifndef SAGED_COMMON_RNG_H_\n#define SAGED_COMMON_RNG_H_\n"
        "namespace saged { using Engine = std::mt19937; }\n"
        "#endif  // SAGED_COMMON_RNG_H_\n"},
       {"tests/some_test.cc", "std::mt19937 gen(1);\n"}});
  EXPECT_TRUE(ByRule(r, "no-raw-random").empty());
}

TEST(LintTest, RawRandomSuppressed) {
  LintResult r = RunLint(
      {{"src/ml/sampler.cc",
        "namespace saged::ml {\n"
        "// saged-lint: allow(no-raw-random): fixture proves suppression\n"
        "int Roll() { std::mt19937 gen(42); return 0; }\n"
        "}\n"}});
  EXPECT_TRUE(ByRule(r, "no-raw-random").empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// --- no-adhoc-thread -------------------------------------------------------

TEST(LintTest, AdhocThreadFlagged) {
  LintResult r = RunLint({{"src/core/par.cc",
                           "namespace saged {\n"
                           "void Go() { std::thread t([] {}); t.join(); }\n"
                           "}\n"}});
  auto hits = ByRule(r, "no-adhoc-thread");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("Executor::Shared()"), std::string::npos);
}

TEST(LintTest, AdhocThreadAllowedInCommon) {
  LintResult r = RunLint({{"src/common/executor.cc",
                           "namespace saged {\n"
                           "void Spawn() { std::thread t([] {}); t.join(); }\n"
                           "}\n"}});
  EXPECT_TRUE(ByRule(r, "no-adhoc-thread").empty());
}

TEST(LintTest, AdhocThreadSuppressedWithTrailingComment) {
  LintResult r = RunLint(
      {{"src/core/par.cc",
        "namespace saged {\n"
        "void Go() { std::async(f); }  "
        "// saged-lint: allow(no-adhoc-thread): fixture\n"
        "}\n"}});
  EXPECT_TRUE(ByRule(r, "no-adhoc-thread").empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// --- no-unchecked-result ---------------------------------------------------

constexpr char kApiHeader[] =
    "#ifndef SAGED_CORE_API_H_\n"
    "#define SAGED_CORE_API_H_\n"
    "namespace saged {\n"
    "Status DoWork();\n"
    "Result<int> Compute(int x);\n"
    "void Mixed();\n"
    "Status Mixed(int overload);\n"
    "}\n"
    "#endif  // SAGED_CORE_API_H_\n";

TEST(LintTest, DiscardedStatusFlagged) {
  LintResult r = RunLint({{"src/core/api.h", kApiHeader},
                          {"src/core/use.cc",
                           "namespace saged {\n"
                           "void Caller() {\n"
                           "  DoWork();\n"
                           "  Compute(3);\n"
                           "}\n"
                           "}\n"}});
  auto hits = ByRule(r, "no-unchecked-result");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 3u);
  EXPECT_EQ(hits[1].line, 4u);
}

TEST(LintTest, ConsumedStatusNotFlagged) {
  LintResult r = RunLint({{"src/core/api.h", kApiHeader},
                          {"src/core/use.cc",
                           "namespace saged {\n"
                           "Status Caller() {\n"
                           "  auto s = DoWork();\n"
                           "  if (!s.ok()) return s;\n"
                           "  return DoWork();\n"
                           "}\n"
                           "}\n"}});
  EXPECT_TRUE(ByRule(r, "no-unchecked-result").empty());
}

TEST(LintTest, VoidOverloadMakesNameAmbiguousAndSkipped) {
  // Mixed() has both a void and a Status overload; the token-level scanner
  // cannot resolve which one a call hits, so it must stay silent.
  LintResult r = RunLint({{"src/core/api.h", kApiHeader},
                          {"src/core/use.cc",
                           "namespace saged {\n"
                           "void Caller() { Mixed(); }\n"
                           "}\n"}});
  EXPECT_TRUE(ByRule(r, "no-unchecked-result").empty());
}

TEST(LintTest, DiscardedStatusSuppressed) {
  LintResult r = RunLint(
      {{"src/core/api.h", kApiHeader},
       {"src/core/use.cc",
        "namespace saged {\n"
        "void Caller() {\n"
        "  DoWork();  // saged-lint: allow(no-unchecked-result): fixture\n"
        "}\n"
        "}\n"}});
  EXPECT_TRUE(ByRule(r, "no-unchecked-result").empty());
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintTest, StatusTypeMustBeNodiscard) {
  LintResult r = RunLint({{"src/common/status.h",
                           "#ifndef SAGED_COMMON_STATUS_H_\n"
                           "#define SAGED_COMMON_STATUS_H_\n"
                           "namespace saged {\n"
                           "class Status {};\n"
                           "template <typename T> class Result {};\n"
                           "}\n"
                           "#endif  // SAGED_COMMON_STATUS_H_\n"}});
  EXPECT_EQ(ByRule(r, "no-unchecked-result").size(), 2u);  // Status + Result
}

TEST(LintTest, NodiscardStatusPassesAudit) {
  LintResult r =
      RunLint({{"src/common/status.h",
                "#ifndef SAGED_COMMON_STATUS_H_\n"
                "#define SAGED_COMMON_STATUS_H_\n"
                "namespace saged {\n"
                "class [[nodiscard]] Status {};\n"
                "template <typename T> class [[nodiscard]] Result {};\n"
                "}\n"
                "#endif  // SAGED_COMMON_STATUS_H_\n"}});
  EXPECT_TRUE(ByRule(r, "no-unchecked-result").empty());
}

// --- no-iostream-in-core ---------------------------------------------------

TEST(LintTest, IostreamInCoreFlagged) {
  LintResult r = RunLint({{"src/data/dump.cc",
                           "namespace saged {\n"
                           "void Dump(int x) { std::cout << x; }\n"
                           "}\n"}});
  auto hits = ByRule(r, "no-iostream-in-core");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("SAGED_LOG"), std::string::npos);
}

TEST(LintTest, IostreamAllowedInLoggingAndOutsideSrc) {
  LintResult r =
      RunLint({{"src/common/logging.cc", "void W() { fprintf(stderr, x); }\n"},
               {"tools/saged_cli.cc", "int main() { std::cout << 1; }\n"}});
  EXPECT_TRUE(ByRule(r, "no-iostream-in-core").empty());
}

TEST(LintTest, IostreamSuppressed) {
  LintResult r = RunLint(
      {{"src/data/dump.cc",
        "namespace saged {\n"
        "// saged-lint: allow(no-iostream-in-core): fixture justification\n"
        "void Dump(int x) { std::cerr << x; }\n"
        "}\n"}});
  EXPECT_TRUE(ByRule(r, "no-iostream-in-core").empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// --- include-hygiene -------------------------------------------------------

constexpr char kPipelineHeader[] =
    "#ifndef SAGED_PIPELINE_STAGE_H_\n"
    "#define SAGED_PIPELINE_STAGE_H_\n"
    "namespace saged::pipeline {\n"
    "double RunStage(int x);\n"
    "}\n"
    "#endif  // SAGED_PIPELINE_STAGE_H_\n";

TEST(LintTest, WrongIncludeGuardFlagged) {
  LintResult r = RunLint({{"src/ml/bad.h",
                           "#ifndef WRONG_GUARD_H\n"
                           "#define WRONG_GUARD_H\n"
                           "#endif\n"}});
  auto hits = ByRule(r, "include-hygiene");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("SAGED_ML_BAD_H_"), std::string::npos);
}

TEST(LintTest, LayerInversionFlagged) {
  LintResult r = RunLint({{"src/pipeline/stage.h", kPipelineHeader},
                          {"src/ml/inv.cc",
                           "#include \"pipeline/stage.h\"\n"
                           "namespace saged::ml {}\n"}});
  auto hits = ByRule(r, "include-hygiene");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("layering inversion"), std::string::npos);
}

TEST(LintTest, DownwardIncludeAllowed) {
  LintResult r = RunLint(
      {{"src/common/status.h",
        "#ifndef SAGED_COMMON_STATUS_H_\n#define SAGED_COMMON_STATUS_H_\n"
        "namespace saged { class [[nodiscard]] Status {};\n"
        "template <typename T> class [[nodiscard]] Result {}; }\n"
        "#endif  // SAGED_COMMON_STATUS_H_\n"},
       {"src/ml/down.cc",
        "#include \"common/status.h\"\n"
        "namespace saged::ml {}\n"}});
  EXPECT_TRUE(ByRule(r, "include-hygiene").empty());
}

TEST(LintTest, UnresolvedQuotedIncludeFlagged) {
  LintResult r = RunLint({{"src/core/u.cc",
                           "#include \"core/missing.h\"\n"
                           "namespace saged {}\n"}});
  auto hits = ByRule(r, "include-hygiene");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("does not resolve"), std::string::npos);
}

TEST(LintTest, ServeMayIncludeCoreCommonData) {
  LintResult r = RunLint(
      {{"src/core/detector.h",
        "#ifndef SAGED_CORE_DETECTOR_H_\n#define SAGED_CORE_DETECTOR_H_\n"
        "namespace saged::core {}\n"
        "#endif  // SAGED_CORE_DETECTOR_H_\n"},
       {"src/data/table.h",
        "#ifndef SAGED_DATA_TABLE_H_\n#define SAGED_DATA_TABLE_H_\n"
        "namespace saged {}\n"
        "#endif  // SAGED_DATA_TABLE_H_\n"},
       {"src/serve/server.cc",
        "#include \"core/detector.h\"\n"
        "#include \"data/table.h\"\n"
        "namespace saged::serve {}\n"}});
  EXPECT_TRUE(ByRule(r, "include-hygiene").empty());
}

TEST(LintTest, ServeMustNotIncludePipeline) {
  // serve outranks pipeline, so the generic rank check passes — the
  // narrower serve allow-list is what catches it.
  LintResult r = RunLint({{"src/pipeline/stage.h", kPipelineHeader},
                          {"src/serve/server.cc",
                           "#include \"pipeline/stage.h\"\n"
                           "namespace saged::serve {}\n"}});
  auto hits = ByRule(r, "include-hygiene");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("thin transport"), std::string::npos);
}

TEST(LintTest, NothingInSrcMayIncludeServe) {
  LintResult r = RunLint(
      {{"src/serve/protocol.h",
        "#ifndef SAGED_SERVE_PROTOCOL_H_\n#define SAGED_SERVE_PROTOCOL_H_\n"
        "namespace saged::serve {}\n"
        "#endif  // SAGED_SERVE_PROTOCOL_H_\n"},
       {"src/pipeline/uses_serve.cc",
        "#include \"serve/protocol.h\"\n"
        "namespace saged::pipeline {}\n"}});
  auto hits = ByRule(r, "include-hygiene");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("layering inversion"), std::string::npos);
}

constexpr char kCoreHeader[] =
    "#ifndef SAGED_CORE_MATCHER_H_\n#define SAGED_CORE_MATCHER_H_\n"
    "namespace saged::core {}\n"
    "#endif  // SAGED_CORE_MATCHER_H_\n";

constexpr char kKbHeader[] =
    "#ifndef SAGED_KB_SHARD_STORE_H_\n#define SAGED_KB_SHARD_STORE_H_\n"
    "namespace saged::kb {}\n"
    "#endif  // SAGED_KB_SHARD_STORE_H_\n";

TEST(LintTest, KbMayIncludeCore) {
  LintResult r = RunLint({{"src/core/matcher.h", kCoreHeader},
                          {"src/kb/index.cc",
                           "#include \"core/matcher.h\"\n"
                           "namespace saged::kb {}\n"}});
  EXPECT_TRUE(ByRule(r, "include-hygiene").empty());
}

TEST(LintTest, KbMustNotIncludeBaselines) {
  // baselines is kb's rank peer: both the generic rank check (peers stay
  // mutually ignorant) and the narrower kb allow-list fire.
  LintResult r = RunLint(
      {{"src/baselines/raha.h",
        "#ifndef SAGED_BASELINES_RAHA_H_\n#define SAGED_BASELINES_RAHA_H_\n"
        "namespace saged::baselines {}\n"
        "#endif  // SAGED_BASELINES_RAHA_H_\n"},
       {"src/kb/index.cc",
        "#include \"baselines/raha.h\"\n"
        "namespace saged::kb {}\n"}});
  auto hits = ByRule(r, "include-hygiene");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].message.find("layering inversion"), std::string::npos);
  EXPECT_NE(hits[1].message.find("core engine's storage"), std::string::npos);
}

TEST(LintTest, BaselinesMustNotIncludeKb) {
  LintResult r = RunLint({{"src/kb/shard_store.h", kKbHeader},
                          {"src/baselines/uses_kb.cc",
                           "#include \"kb/shard_store.h\"\n"
                           "namespace saged::baselines {}\n"}});
  auto hits = ByRule(r, "include-hygiene");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("layering inversion"), std::string::npos);
}

TEST(LintTest, ServeMayIncludeKb) {
  LintResult r = RunLint({{"src/kb/shard_store.h", kKbHeader},
                          {"src/serve/server.cc",
                           "#include \"kb/shard_store.h\"\n"
                           "namespace saged::serve {}\n"}});
  EXPECT_TRUE(ByRule(r, "include-hygiene").empty());
}

TEST(LintTest, LayerInversionSuppressed) {
  LintResult r = RunLint(
      {{"src/pipeline/stage.h", kPipelineHeader},
       {"src/ml/inv.cc",
        "#include \"pipeline/stage.h\"  "
        "// saged-lint: allow(include-hygiene): fixture justification\n"
        "namespace saged::ml {}\n"}});
  EXPECT_TRUE(ByRule(r, "include-hygiene").empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// --- no-untimed-stage -------------------------------------------------------

TEST(LintTest, ExportedStageWithoutSpanFlagged) {
  LintResult r = RunLint({{"src/pipeline/stage.h", kPipelineHeader},
                          {"src/pipeline/stage.cc",
                           "#include \"pipeline/stage.h\"\n"
                           "namespace saged::pipeline {\n"
                           "double RunStage(int x) {\n"
                           "  return x * 2.0;\n"
                           "}\n"
                           "}  // namespace saged::pipeline\n"}});
  auto hits = ByRule(r, "no-untimed-stage");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3u);
  EXPECT_NE(hits[0].message.find("RunStage"), std::string::npos);
}

TEST(LintTest, StageWithSpanPasses) {
  LintResult r =
      RunLint({{"src/pipeline/stage.h", kPipelineHeader},
               {"src/pipeline/stage.cc",
                "#include \"pipeline/stage.h\"\n"
                "namespace saged::pipeline {\n"
                "double RunStage(int x) {\n"
                "  SAGED_TRACE_SPAN(\"pipeline/run_stage\");\n"
                "  return x * 2.0;\n"
                "}\n"
                "}  // namespace saged::pipeline\n"}});
  EXPECT_TRUE(ByRule(r, "no-untimed-stage").empty());
}

TEST(LintTest, AnonymousNamespaceHelperExempt) {
  LintResult r =
      RunLint({{"src/pipeline/stage.h", kPipelineHeader},
               {"src/pipeline/stage.cc",
                "#include \"pipeline/stage.h\"\n"
                "namespace saged::pipeline {\n"
                "namespace {\n"
                "double RunStage(int x) { return x; }  // shadowing helper\n"
                "}  // namespace\n"
                "double RunStage(int x) {\n"
                "  SAGED_TRACE_SPAN(\"pipeline/run_stage\");\n"
                "  return x * 2.0;\n"
                "}\n"
                "}  // namespace saged::pipeline\n"}});
  EXPECT_TRUE(ByRule(r, "no-untimed-stage").empty());
}

TEST(LintTest, MissingSpanSuppressed) {
  LintResult r = RunLint(
      {{"src/pipeline/stage.h", kPipelineHeader},
       {"src/pipeline/stage.cc",
        "#include \"pipeline/stage.h\"\n"
        "namespace saged::pipeline {\n"
        "// saged-lint: allow(no-untimed-stage): fixture justification\n"
        "double RunStage(int x) {\n"
        "  return x * 2.0;\n"
        "}\n"
        "}  // namespace saged::pipeline\n"}});
  EXPECT_TRUE(ByRule(r, "no-untimed-stage").empty());
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintTest, UntimedStageMethodFlagged) {
  LintResult r = RunLint(
      {{"src/core/fixture_detector.cc",
        "namespace saged::core {\n"
        "Result<DetectionResult> Saged::DetectBlocks(const SagedConfig& c,\n"
        "                                            const DetectionRequest& r,\n"
        "                                            BlockSource& s) {\n"
        "  return Impl(c, r, s);\n"
        "}\n"
        "}  // namespace saged::core\n"}});
  auto hits = ByRule(r, "no-untimed-stage");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("Saged::DetectBlocks"), std::string::npos);
}

TEST(LintTest, TimedStageMethodPasses) {
  LintResult r = RunLint(
      {{"src/core/fixture_detector.cc",
        "namespace saged::core {\n"
        "Result<DetectionResult> Saged::DetectBlocks(const SagedConfig& c,\n"
        "                                            const DetectionRequest& r,\n"
        "                                            BlockSource& s) {\n"
        "  SAGED_TRACE_SPAN(\"detect\");\n"
        "  return Impl(c, r, s);\n"
        "}\n"
        "}  // namespace saged::core\n"}});
  EXPECT_TRUE(ByRule(r, "no-untimed-stage").empty());
}

TEST(LintTest, NonStageMethodExempt) {
  // Only the named stage entry points are gated; other methods — even span-
  // free ones in src/core — are not stages.
  LintResult r = RunLint(
      {{"src/core/fixture_detector.cc",
        "namespace saged::core {\n"
        "size_t Saged::KnowledgeBaseSize() const {\n"
        "  return kb_.size();\n"
        "}\n"
        "}  // namespace saged::core\n"}});
  EXPECT_TRUE(ByRule(r, "no-untimed-stage").empty());
}

// --- bad-suppression -------------------------------------------------------

TEST(LintTest, SuppressionWithoutJustificationRejected) {
  LintResult r = RunLint(
      {{"src/data/dump.cc",
        "namespace saged {\n"
        "void D(int x) { std::cout << x; }  "
        "// saged-lint: allow(no-iostream-in-core)\n"
        "}\n"}});
  // The malformed suppression is reported AND does not silence the finding.
  EXPECT_EQ(ByRule(r, "bad-suppression").size(), 1u);
  EXPECT_EQ(ByRule(r, "no-iostream-in-core").size(), 1u);
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(LintTest, SuppressionNamingUnknownRuleRejected) {
  LintResult r = RunLint(
      {{"src/data/dump.cc",
        "namespace saged {\n"
        "// saged-lint: allow(no-such-rule): reasonable-sounding excuse\n"
        "void D() {}\n"
        "}\n"}});
  auto hits = ByRule(r, "bad-suppression");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("no-such-rule"), std::string::npos);
}

TEST(LintTest, ProseMentionOfLinterIsNotADirective) {
  LintResult r = RunLint(
      {{"src/data/dump.cc",
        "namespace saged {\n"
        "// This comment merely discusses saged-lint: allow(x) syntax.\n"
        "void D() {}\n"
        "}\n"}});
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintTest, ViolationTokensInStringLiteralsIgnored) {
  LintResult r = RunLint(
      {{"src/data/doc.cc",
        "namespace saged {\n"
        "const char* kDoc = \"never write std::cout or std::mt19937\";\n"
        "const char* kRaw = R\"(std::thread is banned)\";\n"
        "}\n"}});
  EXPECT_TRUE(r.findings.empty());
}

// --- lock-discipline -------------------------------------------------------

TEST(LintTest, GuardedMemberTouchedWithoutLockFlagged) {
  LintResult r = RunLint(
      {{"src/core/registry.cc",
        "namespace saged::core {\n"
        "class Registry {\n"
        " public:\n"
        "  void Add(int v) {\n"
        "    std::lock_guard<std::mutex> lock(mu_);\n"
        "    total_ += v;\n"
        "  }\n"
        "  int Peek() const {\n"
        "    return total_;\n"
        "  }\n"
        " private:\n"
        "  std::mutex mu_;\n"
        "  int total_ SAGED_GUARDED_BY(mu_) = 0;\n"
        "};\n"
        "}  // namespace saged::core\n"}});
  auto hits = ByRule(r, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);  // Add() holds the lock; only Peek() fires
  EXPECT_EQ(hits[0].line, 9u);
  EXPECT_NE(hits[0].message.find("SAGED_GUARDED_BY(mu_)"), std::string::npos);
}

TEST(LintTest, RequiresAnnotationSeedsTheCalleeAndGatesCallers) {
  LintResult r = RunLint(
      {{"src/core/registry.cc",
        "namespace saged::core {\n"
        "class Registry {\n"
        " public:\n"
        "  void AddLocked(int v) SAGED_REQUIRES(mu_) { total_ += v; }\n"
        "  void Unsafe() { AddLocked(1); }\n"
        "  void Safe() {\n"
        "    std::lock_guard<std::mutex> lock(mu_);\n"
        "    AddLocked(2);\n"
        "  }\n"
        " private:\n"
        "  std::mutex mu_;\n"
        "  int total_ SAGED_GUARDED_BY(mu_) = 0;\n"
        "};\n"
        "}  // namespace saged::core\n"}});
  auto hits = ByRule(r, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);  // the body of AddLocked and Safe() are clean
  EXPECT_EQ(hits[0].line, 5u);
  EXPECT_NE(hits[0].message.find("SAGED_REQUIRES(mu_)"), std::string::npos);
}

TEST(LintTest, ExcludesViolatedWhenCallerHoldsTheMutex) {
  LintResult r = RunLint(
      {{"src/serve/queue.cc",
        "namespace saged::serve {\n"
        "class Queue {\n"
        " public:\n"
        "  void Drain() SAGED_EXCLUDES(mu_) {\n"
        "    std::lock_guard<std::mutex> lock(mu_);\n"
        "    pending_ = 0;\n"
        "  }\n"
        "  void Flush() {\n"
        "    std::lock_guard<std::mutex> lock(mu_);\n"
        "    Drain();\n"
        "  }\n"
        " private:\n"
        "  std::mutex mu_;\n"
        "  int pending_ SAGED_GUARDED_BY(mu_) = 0;\n"
        "};\n"
        "}  // namespace saged::serve\n"}});
  auto hits = ByRule(r, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 10u);
  EXPECT_NE(hits[0].message.find("SAGED_EXCLUDES(mu_)"), std::string::npos);
}

TEST(LintTest, MutexWithoutAnyGuardedMemberFlagged) {
  LintResult r = RunLint({{"src/ml/cache.cc",
                           "namespace saged::ml {\n"
                           "class Cache {\n"
                           " private:\n"
                           "  std::mutex mu_;\n"
                           "  int hits_ = 0;\n"
                           "};\n"
                           "}  // namespace saged::ml\n"}});
  auto hits = ByRule(r, "lock-discipline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4u);
  EXPECT_NE(hits[0].message.find("SAGED_GUARDED_BY"), std::string::npos);
}

TEST(LintTest, LockDisciplineSuppressedOnAccess) {
  LintResult r = RunLint(
      {{"src/core/registry.cc",
        "namespace saged::core {\n"
        "class Registry {\n"
        " public:\n"
        "  int Peek() const {\n"
        "    // saged-lint: allow(lock-discipline): racy read is acceptable "
        "for this metrics probe\n"
        "    return total_;\n"
        "  }\n"
        " private:\n"
        "  std::mutex mu_;\n"
        "  int total_ SAGED_GUARDED_BY(mu_) = 0;\n"
        "};\n"
        "}  // namespace saged::core\n"}});
  EXPECT_TRUE(ByRule(r, "lock-discipline").empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// --- executor-capture-lifetime ---------------------------------------------

TEST(LintTest, SubmitWithReferenceCaptureFlagged) {
  LintResult r = RunLint({{"src/pipeline/fanout.cc",
                           "namespace saged::pipeline {\n"
                           "void Fan(Executor& pool, int x) {\n"
                           "  pool.Submit([&x] { Touch(x); });\n"
                           "}\n"
                           "}  // namespace saged::pipeline\n"}});
  auto hits = ByRule(r, "executor-capture-lifetime");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3u);
  EXPECT_NE(hits[0].message.find("captures by reference"), std::string::npos);
}

TEST(LintTest, ValueCaptureAndParallelForExempt) {
  LintResult r = RunLint(
      {{"src/pipeline/fanout.cc",
        "namespace saged::pipeline {\n"
        "void Fan(Executor& pool, std::vector<int>& v) {\n"
        "  pool.Submit([v] { Consume(v); });\n"
        "  pool.ParallelFor(0, v.size(), [&](size_t i) { v[i] = 1; });\n"
        "}\n"
        "}  // namespace saged::pipeline\n"}});
  EXPECT_TRUE(ByRule(r, "executor-capture-lifetime").empty());
}

TEST(LintTest, ReferenceCaptureInTestsExempt) {
  LintResult r = RunLint({{"tests/pool_test.cc",
                           "namespace saged {\n"
                           "void Drive(Executor& pool, int x) {\n"
                           "  pool.Submit([&x] { Touch(x); });\n"
                           "}\n"
                           "}\n"}});
  EXPECT_TRUE(ByRule(r, "executor-capture-lifetime").empty());
}

TEST(LintTest, ReferenceCaptureSuppressed) {
  LintResult r = RunLint(
      {{"src/pipeline/fanout.cc",
        "namespace saged::pipeline {\n"
        "void Fan(Executor& pool, int x) {\n"
        "  // saged-lint: allow(executor-capture-lifetime): future joined "
        "before x leaves scope\n"
        "  pool.Submit([&x] { Touch(x); });\n"
        "}\n"
        "}  // namespace saged::pipeline\n"}});
  EXPECT_TRUE(ByRule(r, "executor-capture-lifetime").empty());
  EXPECT_EQ(r.suppressed, 1u);
}

// --- no-blocking-in-io-loop ------------------------------------------------

TEST(LintTest, BlockingCallInAnchoredFunctionFlagged) {
  LintResult r = RunLint({{"src/serve/pump.cc",
                           "namespace saged::serve {\n"
                           "// saged-lint: io-loop\n"
                           "void Pump(int fd) {\n"
                           "  char buf[8];\n"
                           "  ::read(fd, buf, sizeof(buf));\n"
                           "}\n"
                           "}  // namespace saged::serve\n"}});
  auto hits = ByRule(r, "no-blocking-in-io-loop");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5u);
  EXPECT_NE(hits[0].message.find("'read()'"), std::string::npos);
}

TEST(LintTest, BlockingCallWithoutAnchorNotFlagged) {
  LintResult r = RunLint({{"src/serve/pump.cc",
                           "namespace saged::serve {\n"
                           "void Pump(int fd) {\n"
                           "  char buf[8];\n"
                           "  ::read(fd, buf, sizeof(buf));\n"
                           "}\n"
                           "}  // namespace saged::serve\n"}});
  EXPECT_TRUE(ByRule(r, "no-blocking-in-io-loop").empty());
}

TEST(LintTest, LambdaInsideAnchoredFunctionRunsElsewhereAndIsExempt) {
  LintResult r = RunLint(
      {{"src/serve/pump.cc",
        "namespace saged::serve {\n"
        "// saged-lint: io-loop\n"
        "void Pump(Executor& pool, Latch& latch) {\n"
        "  pool.Submit([latch] { latch.Wait(); });\n"
        "}\n"
        "}  // namespace saged::serve\n"}});
  EXPECT_TRUE(ByRule(r, "no-blocking-in-io-loop").empty());
}

TEST(LintTest, AnchoredFunctionWithOnlyPollIsClean) {
  // The anchor itself is a directive, not a violation: a function that
  // only uses the non-blocking primitives produces zero findings.
  LintResult r = RunLint({{"src/serve/pump.cc",
                           "namespace saged::serve {\n"
                           "// saged-lint: io-loop\n"
                           "void Pump() {\n"
                           "  ::poll(nullptr, 0, -1);\n"
                           "}\n"
                           "}  // namespace saged::serve\n"}});
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(LintTest, BlockingCallSuppressedWithJustification) {
  LintResult r = RunLint(
      {{"src/serve/pump.cc",
        "namespace saged::serve {\n"
        "// saged-lint: io-loop\n"
        "void Pump(int fd) {\n"
        "  char buf[8];\n"
        "  // saged-lint: allow(no-blocking-in-io-loop): fd is O_NONBLOCK, "
        "poll already reported it readable\n"
        "  ::read(fd, buf, sizeof(buf));\n"
        "}\n"
        "}  // namespace saged::serve\n"}});
  EXPECT_TRUE(ByRule(r, "no-blocking-in-io-loop").empty());
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintTest, UnjustifiedSuppressionOfNewRuleStillRejected) {
  // The bad-suppression machinery covers the concurrency rules too: a
  // justification-free allow() is reported and silences nothing.
  LintResult r = RunLint(
      {{"src/serve/pump.cc",
        "namespace saged::serve {\n"
        "// saged-lint: io-loop\n"
        "void Pump(int fd) {\n"
        "  char buf[8];\n"
        "  // saged-lint: allow(no-blocking-in-io-loop)\n"
        "  ::read(fd, buf, sizeof(buf));\n"
        "}\n"
        "}  // namespace saged::serve\n"}});
  EXPECT_EQ(ByRule(r, "bad-suppression").size(), 1u);
  EXPECT_EQ(ByRule(r, "no-blocking-in-io-loop").size(), 1u);
  EXPECT_EQ(r.suppressed, 0u);
}

// --- report formats --------------------------------------------------------

TEST(LintTest, GccFormatHasPathLineRuleAndSummary) {
  LintResult r = RunLint({{"src/data/dump.cc",
                           "namespace saged {\n"
                           "void D(int x) { std::cout << x; }\n"
                           "}\n"}});
  std::string report = FormatGcc(r);
  EXPECT_NE(report.find("src/data/dump.cc:2: error: [no-iostream-in-core]"),
            std::string::npos);
  EXPECT_NE(report.find("1 violation(s)"), std::string::npos);
}

TEST(LintTest, JsonFormatIsWellFormed) {
  LintResult r = RunLint({{"src/data/dump.cc",
                           "namespace saged {\n"
                           "void D(int x) { std::cout << x; }\n"
                           "}\n"}});
  std::string json = FormatJson(r);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"no-iostream-in-core\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 2"), std::string::npos);
}

TEST(LintTest, SarifFormatIsWellFormed) {
  LintResult r = RunLint({{"src/data/dump.cc",
                           "namespace saged {\n"
                           "void D(int x) { std::cout << x; }\n"
                           "}\n"}});
  std::string sarif = FormatSarif(r);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"saged_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"no-iostream-in-core\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/data/dump.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 2"), std::string::npos);
  // Every rule in the catalogue is declared in the driver's rule list.
  for (const std::string& rule : RuleNames()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + rule + "\"}"), std::string::npos)
        << rule;
  }
}

TEST(LintTest, SarifGoldenEnvelope) {
  // Exact-document pin for the clean-tree case; consumers key off this
  // envelope, so any change here is a (deliberate) format break.
  LintResult r = RunLint({{"src/ml/clean.cc", "namespace saged::ml {}\n"}});
  ASSERT_TRUE(r.findings.empty());
  const std::string expected =
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"saged_lint\",\n"
      "          \"rules\": [\n"
      "            {\"id\": \"no-raw-random\"},\n"
      "            {\"id\": \"no-adhoc-thread\"},\n"
      "            {\"id\": \"no-unchecked-result\"},\n"
      "            {\"id\": \"no-iostream-in-core\"},\n"
      "            {\"id\": \"include-hygiene\"},\n"
      "            {\"id\": \"no-untimed-stage\"},\n"
      "            {\"id\": \"lock-discipline\"},\n"
      "            {\"id\": \"executor-capture-lifetime\"},\n"
      "            {\"id\": \"no-blocking-in-io-loop\"},\n"
      "            {\"id\": \"no-unverified-simd\"},\n"
      "            {\"id\": \"bad-suppression\"}\n"
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": []\n"
      "    }\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(FormatSarif(r), expected);
}

TEST(LintTest, FindingsAreSortedDeterministically) {
  LintResult r = RunLint({{"src/data/b.cc", "void B() { std::cout << 1; }\n"},
                          {"src/data/a.cc", "void A() { std::cout << 1; }\n"}});
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].path, "src/data/a.cc");
  EXPECT_EQ(r.findings[1].path, "src/data/b.cc");
}

// --- no-unverified-simd ----------------------------------------------------

TEST(LintTest, SimdWithoutScalarSiblingFlagged) {
  LintResult r = RunLint({{"src/ml/fast_simd.cc",
                           "namespace saged::ml {\n"
                           "int SumLanesSimd(int x) { return x; }\n"
                           "}  // namespace saged::ml\n"}});
  auto hits = ByRule(r, "no-unverified-simd");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 2u);
  EXPECT_NE(hits[0].message.find("SumLanesScalar"), std::string::npos);
  EXPECT_NE(hits[0].message.find("scalar reference"), std::string::npos);
}

TEST(LintTest, SimdWithScalarSiblingButNoParityTestFlagged) {
  LintResult r = RunLint(
      {{"src/ml/fast_simd.cc",
        "namespace saged::ml {\n"
        "int SumLanesSimd(int x) { return x; }\n"
        "}  // namespace saged::ml\n"},
       {"src/ml/fast.cc",
        "namespace saged::ml {\n"
        "int SumLanesScalar(int x) { return x; }\n"
        "}  // namespace saged::ml\n"}});
  auto hits = ByRule(r, "no-unverified-simd");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("parity fixture"), std::string::npos);
}

TEST(LintTest, ParityTestedSimdPasses) {
  LintResult r = RunLint(
      {{"src/ml/fast_simd.cc",
        "namespace saged::ml {\n"
        "int SumLanesSimd(int x) { return x; }\n"
        "}  // namespace saged::ml\n"},
       {"src/ml/fast.cc",
        "namespace saged::ml {\n"
        "int SumLanesScalar(int x) { return x; }\n"
        "}  // namespace saged::ml\n"},
       {"tests/fast_test.cc",
        "namespace saged::ml {\n"
        "void Check() { int a = SumLanesSimd(1); int b = SumLanesScalar(1); "
        "(void)a; (void)b; }\n"
        "}  // namespace saged::ml\n"}});
  EXPECT_TRUE(ByRule(r, "no-unverified-simd").empty());
}

TEST(LintTest, ScalarMentionOnlyInsideSimdUnitDoesNotCount) {
  // The sibling must live OUTSIDE the *_simd unit — a stray token in the
  // SIMD file itself (say a forward declaration) is not a scalar reference.
  LintResult r = RunLint({{"src/ml/fast_simd.cc",
                           "namespace saged::ml {\n"
                           "int SumLanesScalar(int x);\n"
                           "int SumLanesSimd(int x) { return x; }\n"
                           "}  // namespace saged::ml\n"}});
  auto hits = ByRule(r, "no-unverified-simd");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("SumLanesScalar"), std::string::npos);
}

TEST(LintTest, MisnamedFunctionInSimdUnitFlagged) {
  LintResult r = RunLint({{"src/ml/fast_simd.cc",
                           "namespace saged::ml {\n"
                           "int Accumulate(int x) { return x; }\n"
                           "}  // namespace saged::ml\n"}});
  auto hits = ByRule(r, "no-unverified-simd");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("'<Base>Simd'"), std::string::npos);
}

TEST(LintTest, AnonymousNamespaceHelperInSimdUnitExempt) {
  LintResult r = RunLint(
      {{"src/ml/fast_simd.cc",
        "namespace saged::ml {\n"
        "namespace {\n"
        "int Tail(int x) { return x; }\n"
        "}  // namespace\n"
        "int SumLanesSimd(int x) { return Tail(x); }\n"
        "}  // namespace saged::ml\n"},
       {"src/ml/fast.cc",
        "namespace saged::ml {\n"
        "int SumLanesScalar(int x) { return x; }\n"
        "}  // namespace saged::ml\n"},
       {"tests/fast_test.cc",
        "namespace saged::ml {\n"
        "void Check() { (void)SumLanesSimd(1); (void)SumLanesScalar(1); }\n"
        "}  // namespace saged::ml\n"}});
  EXPECT_TRUE(ByRule(r, "no-unverified-simd").empty());
}

TEST(LintTest, NonSimdUnitExemptFromSimdRule) {
  // Same misnamed definition, but the file is not a *_simd unit.
  LintResult r = RunLint({{"src/ml/fast.cc",
                           "namespace saged::ml {\n"
                           "int Accumulate(int x) { return x; }\n"
                           "}  // namespace saged::ml\n"}});
  EXPECT_TRUE(ByRule(r, "no-unverified-simd").empty());
}

TEST(LintTest, UnverifiedSimdSuppressed) {
  LintResult r = RunLint(
      {{"src/ml/fast_simd.cc",
        "namespace saged::ml {\n"
        "// saged-lint: allow(no-unverified-simd): bootstrap, parity test\n"
        "// lands in the same PR as the first caller\n"
        "int SumLanesSimd(int x) { return x; }\n"
        "}  // namespace saged::ml\n"}});
  EXPECT_TRUE(ByRule(r, "no-unverified-simd").empty());
  EXPECT_EQ(r.suppressed, 1u);
}

}  // namespace
}  // namespace saged::lint
