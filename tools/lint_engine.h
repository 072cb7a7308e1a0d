#ifndef SAGED_TOOLS_LINT_ENGINE_H_
#define SAGED_TOOLS_LINT_ENGINE_H_

#include <cstddef>
#include <string>
#include <vector>

/// saged_lint: a dependency-free C++ source scanner that enforces the
/// project invariants the determinism, observability, and concurrency
/// guarantees rest on (see DESIGN.md §Correctness tooling). A shared
/// comment/string/raw-string-aware tokenizer feeds two tiers of analysis:
/// per-line token scans for the simple rules, and a brace-scope tracker
/// with per-class symbol tables for the concurrency rules — deliberately
/// not a compiler plugin, so it runs in milliseconds as a tier-1 CTest on
/// every build even when the library itself does not compile.
///
/// Rules (each suppressible per line with
/// `// saged-lint: allow(<rule>): <justification>`):
///
///   no-raw-random      only common/rng.h randomness in src/ (std::mt19937,
///                      rand(), std::random_device, time() seeding break
///                      bit-for-bit reproducibility)
///   no-adhoc-thread    only common/executor.h spawns threads outside
///                      src/common (std::thread/std::async/pthread_create)
///   no-unchecked-result calls returning Status/Result<> must be consumed;
///                      Status/Result themselves must be [[nodiscard]]
///   no-iostream-in-core src/ code logs through SAGED_LOG, never
///                      cout/cerr/printf (logging.cc is the one writer)
///   include-hygiene    include guards match the file path; cross-layer
///                      includes follow common -> data/ml/text ->
///                      features/datagen -> core -> baselines -> pipeline
///                      -> serve; quoted includes resolve inside the tree
///   no-untimed-stage   pipeline-stage entry points open a telemetry span:
///                      exported pipeline stages (src/pipeline/*.cc
///                      functions declared in a pipeline header) plus the
///                      named core/baseline stage methods (Saged::Detect,
///                      Saged::DetectStream, KnowledgeExtractor::AddDataset,
///                      ErrorDetector::Run) — untimed stages are invisible
///                      to the trace export and the run ledger
///   lock-discipline    members annotated SAGED_GUARDED_BY(mu) (see
///                      common/thread_annotations.h) are only touched
///                      inside a std::lock_guard/unique_lock/scoped_lock
///                      scope naming `mu` or in a function annotated
///                      SAGED_REQUIRES(mu); SAGED_REQUIRES functions are
///                      only called with the lock held, SAGED_EXCLUDES
///                      functions never with it held; every std::mutex
///                      member in src/ is referenced by at least one
///                      GUARDED_BY annotation
///   executor-capture-lifetime  lambdas passed to Executor::Submit must not
///                      capture by reference ([&], [&x]) — the task can
///                      outlive the frame; blocking ParallelFor bodies are
///                      exempt, everything else needs a justified
///                      suppression
///   no-blocking-in-io-loop  functions marked with a `// saged-lint:
///                      io-loop` anchor comment (the poll-loop methods of
///                      SagedServer) must not call blocking primitives
///                      (Wait, .get(), cv wait, sleep_for, raw send/recv/
///                      read/write); lambdas defined inside run elsewhere
///                      and are exempt
///   no-unverified-simd every function a src/ `*_simd.cc` compilation unit
///                      defines at named-namespace scope must be named
///                      `<Base>Simd`, keep a scalar reference sibling
///                      `<Base>Scalar` elsewhere in src/, and co-occur
///                      with that sibling in at least one tests/ file (the
///                      byte-identity parity fixture); anonymous-namespace
///                      helpers are exempt
///   config-hash-complete every data member of SagedConfig and of its
///                      nested Word2VecOptions is read (as `.member`) in
///                      the body of ConfigContentHash, so the run ledger's
///                      config hash covers every knob
///
/// A suppression without a justification (or naming an unknown rule) is
/// itself reported, as `bad-suppression`.
namespace saged::lint {

/// One input to the linter. `path` is repo-relative with forward slashes
/// (e.g. "src/core/detector.cc") — rule scoping keys off it, so in-process
/// fixtures must use realistic paths.
struct SourceFile {
  std::string path;
  std::string content;
};

struct Finding {
  std::string rule;
  std::string path;
  size_t line = 0;  // 1-based
  std::string message;
};

struct LintResult {
  std::vector<Finding> findings;  // violations that survived suppression
  size_t files_scanned = 0;
  size_t suppressed = 0;  // findings silenced by a valid allow()
};

/// Names of every rule, in reporting order (includes "bad-suppression").
const std::vector<std::string>& RuleNames();

/// Runs every rule over the given files.
LintResult RunLint(const std::vector<SourceFile>& files);

/// Loads all .h/.cc/.cpp files under root/{src,tools,bench,tests,examples},
/// paths stored root-relative, sorted for deterministic reports.
std::vector<SourceFile> LoadTree(const std::string& root);

/// GCC-style diagnostics ("path:line: error: [rule] message"), one per
/// line, plus a trailing summary line.
std::string FormatGcc(const LintResult& result);

/// Machine-readable report: {"findings": [...], "files_scanned": N,
/// "suppressed": M}.
std::string FormatJson(const LintResult& result);

/// SARIF 2.1.0 (minimal profile: runs/tool/rules/results with ruleId,
/// message, physicalLocation) so findings render as annotations in
/// standard CI viewers.
std::string FormatSarif(const LintResult& result);

}  // namespace saged::lint

#endif  // SAGED_TOOLS_LINT_ENGINE_H_
