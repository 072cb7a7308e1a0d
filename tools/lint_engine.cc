#include "tools/lint_engine.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/json.h"

namespace saged::lint {

namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Source preprocessing: one pass that blanks comments and string/char
// literals (preserving line structure, so offsets map to the original) and
// collects comment text for suppression parsing.
// ---------------------------------------------------------------------------

struct FileView {
  const SourceFile* file = nullptr;
  std::string code;  // same length as content; comments/literals blanked
  std::vector<std::pair<size_t, std::string>> comments;  // (1-based line, text)
  std::vector<std::string> code_lines;
  std::vector<std::string> raw_lines;
};

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  lines.push_back(std::move(current));
  return lines;
}

FileView BuildView(const SourceFile& file) {
  FileView view;
  view.file = &file;
  const std::string& in = file.content;
  std::string code = in;
  size_t line = 1;
  size_t i = 0;
  const size_t n = in.size();
  auto blank = [&](size_t pos) {
    if (code[pos] != '\n') code[pos] = ' ';
  };
  while (i < n) {
    char c = in[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && in[i + 1] == '/') {  // line comment
      size_t start = i;
      while (i < n && in[i] != '\n') {
        blank(i);
        ++i;
      }
      view.comments.emplace_back(line, in.substr(start, i - start));
      continue;
    }
    if (c == '/' && i + 1 < n && in[i + 1] == '*') {  // block comment
      size_t start = i;
      size_t start_line = line;
      blank(i);
      blank(i + 1);
      i += 2;
      while (i < n && !(in[i] == '*' && i + 1 < n && in[i + 1] == '/')) {
        if (in[i] == '\n') ++line;
        blank(i);
        ++i;
      }
      if (i < n) {
        blank(i);
        blank(i + 1);
        i += 2;
      }
      view.comments.emplace_back(start_line, in.substr(start, i - start));
      continue;
    }
    if (c == 'R' && i + 1 < n && in[i + 1] == '"' &&
        (i == 0 || !IsWordChar(in[i - 1]))) {  // raw string literal
      size_t d = i + 2;
      while (d < n && in[d] != '(' && in[d] != '\n') ++d;
      if (d < n && in[d] == '(') {
        std::string terminator =
            ")" + in.substr(i + 2, d - (i + 2)) + "\"";
        blank(i);
        size_t j = i + 1;
        while (j < n && in.compare(j, terminator.size(), terminator) != 0) {
          if (in[j] == '\n') ++line;
          blank(j);
          ++j;
        }
        for (size_t k = 0; k < terminator.size() && j < n; ++k, ++j) blank(j);
        i = j;
        continue;
      }
    }
    if (c == '"' || c == '\'') {  // string / char literal
      char quote = c;
      blank(i);
      ++i;
      while (i < n && in[i] != quote) {
        if (in[i] == '\\' && i + 1 < n) {
          blank(i);
          ++i;
        }
        if (in[i] == '\n') break;  // unterminated; bail at end of line
        blank(i);
        ++i;
      }
      if (i < n && in[i] == quote) {
        blank(i);
        ++i;
      }
      continue;
    }
    ++i;
  }
  view.code = std::move(code);
  view.code_lines = SplitLines(view.code);
  view.raw_lines = SplitLines(in);
  return view;
}

// ---------------------------------------------------------------------------
// Token search helpers over the blanked code view.
// ---------------------------------------------------------------------------

/// Finds `token` as a whole word (boundaries are non-identifier chars;
/// "::" counts as a boundary, so "rand" matches inside "std::rand" but not
/// "operand"). Returns 0-based columns of each occurrence in `line`.
std::vector<size_t> FindToken(const std::string& line,
                              const std::string& token) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
    size_t end = pos + token.size();
    bool right_ok = end >= line.size() || !IsWordChar(line[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = end;
  }
  return hits;
}

/// Like FindToken but additionally requires '(' (after optional spaces)
/// right after the token — for flagging calls like rand() / time(0).
std::vector<size_t> FindCall(const std::string& line,
                             const std::string& token) {
  std::vector<size_t> hits;
  for (size_t pos : FindToken(line, token)) {
    size_t j = pos + token.size();
    while (j < line.size() && line[j] == ' ') ++j;
    if (j < line.size() && line[j] == '(') hits.push_back(pos);
  }
  return hits;
}

/// Extracts quoted and angle includes from the raw lines:
/// (line, path, is_quoted).
struct Include {
  size_t line;
  std::string path;
  bool quoted;
};

std::vector<Include> ParseIncludes(const FileView& view) {
  std::vector<Include> out;
  for (size_t l = 0; l < view.raw_lines.size(); ++l) {
    const std::string& raw = view.raw_lines[l];
    size_t i = raw.find_first_not_of(" \t");
    if (i == std::string::npos || raw[i] != '#') continue;
    size_t inc = raw.find("include", i);
    if (inc == std::string::npos) continue;
    size_t open = raw.find_first_of("\"<", inc);
    if (open == std::string::npos) continue;
    char close = raw[open] == '"' ? '"' : '>';
    size_t end = raw.find(close, open + 1);
    if (end == std::string::npos) continue;
    out.push_back(
        {l + 1, raw.substr(open + 1, end - open - 1), raw[open] == '"'});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions: `// saged-lint: allow(rule[, rule]): justification` silences
// findings of those rules on the comment's line (or, for a comment standing
// alone on its line, the next line that has code). `allow-file(rule)` covers
// the whole file. The justification is mandatory.
// ---------------------------------------------------------------------------

struct Suppressions {
  std::map<std::string, std::set<size_t>> line_allows;  // rule -> lines
  std::set<std::string> file_allows;
  std::vector<Finding> bad;  // malformed suppressions
};

bool LineHasCode(const FileView& view, size_t line) {  // 1-based
  if (line == 0 || line > view.code_lines.size()) return false;
  return view.code_lines[line - 1].find_first_not_of(" \t\r") !=
         std::string::npos;
}

Suppressions ParseSuppressions(const FileView& view,
                               const std::set<std::string>& known_rules) {
  Suppressions out;
  for (const auto& [line, text] : view.comments) {
    // A directive must START the comment (after the // or /* prefix) —
    // "saged-lint:" mid-sentence is prose about the linter, not an
    // instruction to it.
    size_t lead = text.find_first_not_of("/*! \t");
    if (lead == std::string::npos) continue;
    if (text.compare(lead, 11, "saged-lint:") != 0) continue;
    size_t cursor = lead + std::string("saged-lint:").size();
    while (cursor < text.size() && text[cursor] == ' ') ++cursor;
    bool file_scope = false;
    if (text.compare(cursor, 7, "io-loop") == 0) {
      continue;  // an anchor for no-blocking-in-io-loop, not a suppression
    }
    if (text.compare(cursor, 11, "allow-file(") == 0) {
      file_scope = true;
      cursor += 11;
    } else if (text.compare(cursor, 6, "allow(") == 0) {
      cursor += 6;
    } else {
      out.bad.push_back({"bad-suppression", view.file->path, line,
                         "malformed saged-lint directive; expected "
                         "allow(<rule>): <justification>"});
      continue;
    }
    size_t close = text.find(')', cursor);
    if (close == std::string::npos) {
      out.bad.push_back({"bad-suppression", view.file->path, line,
                         "unterminated allow( directive"});
      continue;
    }
    // Split the rule list.
    std::vector<std::string> rules;
    std::string current;
    for (size_t i = cursor; i <= close; ++i) {
      char c = text[i];
      if (c == ',' || c == ')') {
        size_t b = current.find_first_not_of(' ');
        size_t e = current.find_last_not_of(' ');
        if (b != std::string::npos) {
          rules.push_back(current.substr(b, e - b + 1));
        }
        current.clear();
      } else {
        current.push_back(c);
      }
    }
    // The justification: any non-trivial text after the ')' (an optional
    // ':' or '-' separator does not count as justification by itself).
    std::string why = text.substr(close + 1);
    size_t b = why.find_first_not_of(" :-");
    bool justified = b != std::string::npos && why.size() - b >= 3;
    if (!justified) {
      out.bad.push_back({"bad-suppression", view.file->path, line,
                         "suppression needs a justification after the ')'"});
      continue;
    }
    for (const auto& rule : rules) {
      if (known_rules.count(rule) == 0) {
        out.bad.push_back({"bad-suppression", view.file->path, line,
                           "unknown rule '" + rule + "' in allow()"});
        continue;
      }
      if (file_scope) {
        out.file_allows.insert(rule);
      } else {
        size_t target = line;
        if (!LineHasCode(view, line)) {
          // Standalone comment: cover the next line that has code.
          target = line + 1;
          while (target <= view.code_lines.size() &&
                 !LineHasCode(view, target)) {
            ++target;
          }
        }
        out.line_allows[rule].insert(target);
        // A trailing comment also covers its own line when the directive
        // sits after code.
        out.line_allows[rule].insert(line);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule scoping.
// ---------------------------------------------------------------------------

/// Layer ranks for include-hygiene. An include may only point at the same
/// directory or a strictly lower rank — the dependency order the build has
/// today, now enforced.
int LayerRank(const std::string& layer) {
  if (layer == "common") return 0;
  if (layer == "data" || layer == "ml" || layer == "text") return 1;
  if (layer == "features" || layer == "datagen") return 2;
  if (layer == "core") return 3;
  // kb and baselines are peers atop core: the generic rank check keeps
  // them mutually ignorant of each other.
  if (layer == "baselines" || layer == "kb") return 4;
  if (layer == "pipeline") return 5;
  if (layer == "serve") return 6;
  return -1;  // not a src layer
}

/// The serve layer sits on top of the rank order but is deliberately
/// narrower than "anything below": the daemon is a thin transport over the
/// core engine, so it may depend only on these layers (and itself). Nothing
/// in src/ may depend on serve — its rank is the maximum, so the generic
/// rank check already enforces that direction.
bool ServeMayInclude(const std::string& target_layer) {
  return target_layer == "serve" || target_layer == "common" ||
         target_layer == "data" || target_layer == "core" ||
         target_layer == "kb";
}

/// kb (the sharded knowledge-base store) is likewise narrower than its
/// rank: it extends the core engine's storage and matching, so it may not
/// reach into baselines, pipeline, or the synthetic-data layers.
bool KbMayInclude(const std::string& target_layer) {
  return target_layer == "kb" || target_layer == "common" ||
         target_layer == "data" || target_layer == "ml" ||
         target_layer == "features" || target_layer == "core";
}

/// First path segment after "src/", or "" when not under src/.
std::string SrcLayer(const std::string& path) {
  if (!StartsWith(path, "src/")) return "";
  size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

// ---------------------------------------------------------------------------
// Individual rules.
// ---------------------------------------------------------------------------

void RuleNoRawRandom(const FileView& view, std::vector<Finding>* findings) {
  const std::string& path = view.file->path;
  if (!StartsWith(path, "src/")) return;
  if (StartsWith(path, "src/common/rng.")) return;  // the one sanctioned home
  static const std::vector<std::string> kTypes = {
      "std::mt19937",       "std::mt19937_64",         "std::minstd_rand",
      "std::random_device", "std::default_random_engine",
      "std::uniform_int_distribution", "std::uniform_real_distribution",
      "std::normal_distribution",      "std::bernoulli_distribution",
      "std::discrete_distribution"};
  static const std::vector<std::string> kCalls = {"rand", "srand", "rand_r",
                                                  "drand48", "time"};
  for (size_t l = 0; l < view.code_lines.size(); ++l) {
    const std::string& line = view.code_lines[l];
    for (const auto& tok : kTypes) {
      if (!FindToken(line, tok).empty()) {
        findings->push_back({"no-raw-random", path, l + 1,
                             "'" + tok +
                                 "' breaks seed-reproducibility; use "
                                 "saged::Rng from common/rng.h"});
      }
    }
    for (const auto& fn : kCalls) {
      if (!FindCall(line, fn).empty()) {
        findings->push_back({"no-raw-random", path, l + 1,
                             "'" + fn +
                                 "()' is a nondeterministic seed source; "
                                 "derive randomness from the config seed "
                                 "via common/rng.h"});
      }
    }
  }
  for (const auto& inc : ParseIncludes(view)) {
    if (!inc.quoted && inc.path == "random") {
      findings->push_back({"no-raw-random", path, inc.line,
                           "<random> must not be included outside "
                           "common/rng.h"});
    }
  }
}

void RuleNoAdhocThread(const FileView& view, std::vector<Finding>* findings) {
  const std::string& path = view.file->path;
  bool in_scope = (StartsWith(path, "src/") && !StartsWith(path, "src/common/")) ||
                  StartsWith(path, "tools/") || StartsWith(path, "bench/");
  if (!in_scope) return;
  static const std::vector<std::string> kSpawns = {
      "std::thread", "std::jthread", "std::async", "pthread_create"};
  for (size_t l = 0; l < view.code_lines.size(); ++l) {
    for (const auto& tok : kSpawns) {
      if (!FindToken(view.code_lines[l], tok).empty()) {
        findings->push_back({"no-adhoc-thread", path, l + 1,
                             "'" + tok +
                                 "' spawns ad-hoc parallelism; submit work "
                                 "to Executor::Shared() (common/executor.h) "
                                 "so span propagation and the determinism "
                                 "contract hold"});
      }
    }
  }
}

void RuleNoIostreamInCore(const FileView& view,
                          std::vector<Finding>* findings) {
  const std::string& path = view.file->path;
  if (!StartsWith(path, "src/")) return;
  if (path == "src/common/logging.cc") return;  // the one sanctioned writer
  static const std::vector<std::string> kStreams = {"std::cout", "std::cerr",
                                                    "std::clog"};
  static const std::vector<std::string> kStdio = {"printf", "fprintf", "puts",
                                                  "fputs", "putchar"};
  for (size_t l = 0; l < view.code_lines.size(); ++l) {
    const std::string& line = view.code_lines[l];
    for (const auto& tok : kStreams) {
      if (!FindToken(line, tok).empty()) {
        findings->push_back({"no-iostream-in-core", path, l + 1,
                             "'" + tok +
                                 "' bypasses the log sink; use SAGED_LOG "
                                 "(common/logging.h)"});
      }
    }
    for (const auto& fn : kStdio) {
      if (!FindCall(line, fn).empty()) {
        findings->push_back({"no-iostream-in-core", path, l + 1,
                             "'" + fn +
                                 "()' writes to the console directly; use "
                                 "SAGED_LOG (common/logging.h)"});
      }
    }
  }
  for (const auto& inc : ParseIncludes(view)) {
    if (!inc.quoted && inc.path == "iostream") {
      findings->push_back({"no-iostream-in-core", path, inc.line,
                           "<iostream> in library code drags in static "
                           "stream constructors; use SAGED_LOG"});
    }
  }
}

std::string ExpectedGuard(const std::string& path) {
  std::string guard = "SAGED_";
  std::string rest = StartsWith(path, "src/") ? path.substr(4) : path;
  for (char c : rest) {
    if (c == '/' || c == '.' || c == '-') {
      guard.push_back('_');
    } else {
      guard.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  guard.push_back('_');
  return guard;
}

void RuleIncludeHygiene(const FileView& view,
                        const std::set<std::string>& tree_paths,
                        std::vector<Finding>* findings) {
  const std::string& path = view.file->path;
  if (!StartsWith(path, "src/")) return;

  // (a) Headers carry the canonical include guard.
  if (EndsWith(path, ".h")) {
    std::string expected = ExpectedGuard(path);
    bool found = false;
    for (size_t l = 0; l < view.code_lines.size() && l < 10; ++l) {
      const std::string& line = view.code_lines[l];
      size_t pos = line.find("#ifndef");
      if (pos == std::string::npos) continue;
      found = !FindToken(line, expected).empty();
      if (!found) {
        findings->push_back({"include-hygiene", path, l + 1,
                             "include guard should be '" + expected + "'"});
      }
      break;
    }
    if (!found && view.code.find("#ifndef") == std::string::npos) {
      findings->push_back({"include-hygiene", path, 1,
                           "header lacks an include guard ('" +
                               ExpectedGuard(path) + "')"});
    }
  }

  // (b) Layering and (c) resolvable quoted includes.
  const std::string own_layer = SrcLayer(path);
  const int own_rank = LayerRank(own_layer);
  for (const auto& inc : ParseIncludes(view)) {
    if (!inc.quoted) continue;
    size_t slash = inc.path.find('/');
    std::string target_layer =
        slash == std::string::npos ? "" : inc.path.substr(0, slash);
    int target_rank = LayerRank(target_layer);
    if (target_rank < 0) {
      findings->push_back({"include-hygiene", path, inc.line,
                           "quoted include '" + inc.path +
                               "' does not name a src/ layer (common, data, "
                               "ml, text, features, datagen, core, "
                               "kb, baselines, pipeline, serve)"});
      continue;
    }
    if (own_rank >= 0 && target_layer != own_layer &&
        target_rank >= own_rank) {
      findings->push_back(
          {"include-hygiene", path, inc.line,
           "layering inversion: " + own_layer + " (rank " +
               std::to_string(own_rank) + ") must not include " +
               target_layer + " (rank " + std::to_string(target_rank) +
               "); allowed order is common < data/ml/text < "
               "features/datagen < core < kb/baselines < pipeline < serve"});
    }
    if (own_layer == "serve" && !ServeMayInclude(target_layer)) {
      findings->push_back(
          {"include-hygiene", path, inc.line,
           "serve is a thin transport over the engine: it may include only "
           "common, data, core, kb (and serve itself), not " + target_layer});
    }
    if (own_layer == "kb" && !KbMayInclude(target_layer)) {
      findings->push_back(
          {"include-hygiene", path, inc.line,
           "kb extends the core engine's storage: it may include only "
           "common, data, ml, features, core (and kb itself), not " +
               target_layer});
    }
    if (!tree_paths.empty() && tree_paths.count("src/" + inc.path) == 0) {
      findings->push_back({"include-hygiene", path, inc.line,
                           "quoted include '" + inc.path +
                               "' does not resolve to a file in the tree"});
    }
  }
}

// --- no-unchecked-result ---------------------------------------------------

/// Scans src/ headers for functions returning Status / Result<...> and
/// records their names. Token-level: finds the word "Status" (or "Result"
/// followed by balanced <...>) and expects `identifier (` next. Names that
/// ALSO appear with a void return anywhere (e.g. the scalers' Fit vs. the
/// models' Status Fit) go into *ambiguous — the rule skips them rather
/// than guess which overload a call site resolves to.
void CollectStatusReturning(const FileView& view,
                            std::set<std::string>* names,
                            std::set<std::string>* ambiguous) {
  const std::string& void_code = view.code;
  size_t vpos = 0;
  while ((vpos = void_code.find("void", vpos)) != std::string::npos) {
    size_t start = vpos;
    vpos += 4;
    bool left_ok = start == 0 || !IsWordChar(void_code[start - 1]);
    if (!left_ok || (vpos < void_code.size() && IsWordChar(void_code[vpos]))) {
      continue;
    }
    size_t j = vpos;
    while (j < void_code.size() &&
           std::isspace(static_cast<unsigned char>(void_code[j]))) {
      ++j;
    }
    size_t name_start = j;
    while (j < void_code.size() && IsWordChar(void_code[j])) ++j;
    if (j == name_start) continue;
    std::string name = void_code.substr(name_start, j - name_start);
    while (j < void_code.size() &&
           std::isspace(static_cast<unsigned char>(void_code[j]))) {
      ++j;
    }
    if (j < void_code.size() && void_code[j] == '(') ambiguous->insert(name);
  }
  const std::string& code = view.code;
  for (const char* type : {"Status", "Result"}) {
    const std::string needle = type;
    size_t pos = 0;
    while ((pos = code.find(needle, pos)) != std::string::npos) {
      size_t start = pos;
      pos += needle.size();
      bool left_ok = start == 0 || (!IsWordChar(code[start - 1]));
      if (!left_ok) continue;
      size_t j = pos;
      if (needle == "Result") {
        while (j < code.size() && std::isspace(static_cast<unsigned char>(
                                      code[j]))) {
          ++j;
        }
        if (j >= code.size() || code[j] != '<') continue;
        int depth = 0;
        while (j < code.size()) {
          if (code[j] == '<') ++depth;
          if (code[j] == '>') {
            --depth;
            if (depth == 0) {
              ++j;
              break;
            }
          }
          ++j;
        }
      } else if (j < code.size() && IsWordChar(code[j])) {
        continue;  // StatusCode etc.
      }
      while (j < code.size() &&
             std::isspace(static_cast<unsigned char>(code[j]))) {
        ++j;
      }
      size_t name_start = j;
      while (j < code.size() && IsWordChar(code[j])) ++j;
      if (j == name_start) continue;  // no identifier follows (e.g. "Status _s =")
      std::string name = code.substr(name_start, j - name_start);
      while (j < code.size() &&
             std::isspace(static_cast<unsigned char>(code[j]))) {
        ++j;
      }
      if (j < code.size() && code[j] == '(') names->insert(name);
    }
  }
}

/// Flags statements of the form `Foo(...);` / `obj.Foo(...);` where Foo is
/// a known Status/Result-returning function: the error is dropped on the
/// floor. Statement-level only (anything feeding an expression, a return,
/// or a macro is fine).
void RuleNoUncheckedResult(const FileView& view,
                           const std::set<std::string>& registry,
                           std::vector<Finding>* findings) {
  const std::string& code = view.code;
  const size_t n = code.size();
  auto line_of = [&](size_t offset) {
    return 1 + static_cast<size_t>(
                   std::count(code.begin(),
                              code.begin() + static_cast<long>(offset), '\n'));
  };
  size_t i = 0;
  bool at_boundary = true;  // file start counts as a statement boundary
  while (i < n) {
    char c = code[i];
    if (c == ';' || c == '{' || c == '}') {
      at_boundary = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (!at_boundary) {
      ++i;
      continue;
    }
    at_boundary = false;
    if (c == '#') {  // preprocessor directive: skip the line
      while (i < n && code[i] != '\n') ++i;
      at_boundary = true;
      continue;
    }
    if (!IsWordChar(c)) continue;
    // Parse an identifier chain: ident ((:: | . | ->) ident)*
    size_t j = i;
    std::string last_ident;
    while (true) {
      size_t ident_start = j;
      while (j < n && IsWordChar(code[j])) ++j;
      if (j == ident_start) break;
      last_ident = code.substr(ident_start, j - ident_start);
      if (j + 1 < n && code[j] == ':' && code[j + 1] == ':') {
        j += 2;
      } else if (j < n && code[j] == '.') {
        j += 1;
      } else if (j + 1 < n && code[j] == '-' && code[j + 1] == '>') {
        j += 2;
      } else {
        break;
      }
    }
    size_t chain_end = j;
    while (j < n && (code[j] == ' ' || code[j] == '\n')) ++j;
    if (j >= n || code[j] != '(' || chain_end == i) {
      i += 1;
      continue;
    }
    // Walk the balanced call parentheses, then require ';'.
    int depth = 0;
    size_t k = j;
    while (k < n) {
      if (code[k] == '(') ++depth;
      if (code[k] == ')') {
        --depth;
        if (depth == 0) {
          ++k;
          break;
        }
      }
      ++k;
    }
    size_t after = k;
    while (after < n &&
           std::isspace(static_cast<unsigned char>(code[after]))) {
      ++after;
    }
    if (after < n && code[after] == ';' && registry.count(last_ident) > 0) {
      findings->push_back(
          {"no-unchecked-result", view.file->path, line_of(i),
           "result of '" + last_ident +
               "(...)' (Status/Result) is discarded; check it, propagate "
               "it, or wrap it in SAGED_CHECK(...ok())"});
    }
    i = j;
  }
}

/// The [[nodiscard]] audit half of no-unchecked-result: the Status and
/// Result types themselves must be class-level [[nodiscard]] so the
/// compiler backs the lint up on every translation unit.
void AuditNodiscardTypes(const std::vector<FileView>& views,
                         std::vector<Finding>* findings) {
  const FileView* status_h = nullptr;
  for (const auto& view : views) {
    if (view.file->path == "src/common/status.h") status_h = &view;
  }
  if (status_h == nullptr) return;  // fixture runs without the real header
  for (const char* type : {"Status", "Result"}) {
    std::string marker = std::string("class [[nodiscard]] ") + type;
    if (status_h->code.find(marker) == std::string::npos) {
      findings->push_back(
          {"no-unchecked-result", "src/common/status.h", 1,
           std::string("class '") + type +
               "' must be declared [[nodiscard]] so dropped errors warn at "
               "compile time"});
    }
  }
}

// --- no-untimed-stage ------------------------------------------------------

/// Stage entry points that must open a telemetry span even though they are
/// class methods (so the pipeline-export scan cannot see them). Qualified
/// `Class::Method` as it appears at the definition site.
const std::set<std::string>& StageEntryPoints() {
  static const std::set<std::string> kStages = {
      "Saged::DetectBlocks", "KnowledgeExtractor::AddDataset",
      "ErrorDetector::Run", "SagedServer::RunDetection"};
  return kStages;
}

/// Pipeline-stage entry points must open a telemetry span — otherwise the
/// stage is invisible to the trace export and the run ledger. Two families:
/// function definitions at namespace scope in src/pipeline/*.cc whose name
/// is declared in a pipeline header (the exported stages), and the named
/// core/baseline stage methods in StageEntryPoints(). Anonymous-namespace
/// helpers and other class methods are exempt.
void RuleNoUntimedStage(const FileView& view,
                        const std::set<std::string>& pipeline_exports,
                        std::vector<Finding>* findings) {
  const std::string& path = view.file->path;
  if (!EndsWith(path, ".cc")) return;
  const bool pipeline_scope = StartsWith(path, "src/pipeline/");
  const bool stage_scope = StartsWith(path, "src/core/") ||
                           StartsWith(path, "src/baselines/") ||
                           StartsWith(path, "src/serve/");
  if (!pipeline_scope && !stage_scope) return;
  const std::string& code = view.code;
  const size_t n = code.size();
  auto line_of = [&](size_t offset) {
    return 1 + static_cast<size_t>(
                   std::count(code.begin(),
                              code.begin() + static_cast<long>(offset), '\n'));
  };
  // Brace stack; each entry flags whether the brace opened a namespace and
  // whether that namespace was anonymous.
  struct Brace {
    bool is_namespace = false;
    bool is_anon_namespace = false;
  };
  std::vector<Brace> stack;
  size_t head_start = 0;  // start of the text since the last ; { }
  size_t i = 0;
  while (i < n) {
    char c = code[i];
    if (c == ';' || c == '}') {
      if (c == '}' && !stack.empty()) stack.pop_back();
      head_start = i + 1;
      ++i;
      continue;
    }
    if (c != '{') {
      ++i;
      continue;
    }
    // Classify this brace from its head text.
    std::string head = code.substr(head_start, i - head_start);
    Brace brace;
    bool all_namespaces =
        std::all_of(stack.begin(), stack.end(),
                    [](const Brace& b) { return b.is_namespace; });
    bool in_anon = std::any_of(stack.begin(), stack.end(), [](const Brace& b) {
      return b.is_anon_namespace;
    });
    if (!FindToken(head, "namespace").empty() &&
        head.find('(') == std::string::npos) {
      brace.is_namespace = true;
      // Anonymous iff no identifier follows the (last) "namespace" token.
      size_t ns = head.rfind("namespace");
      std::string after = head.substr(ns + 9);
      brace.is_anon_namespace =
          after.find_first_not_of(" \n\t") == std::string::npos;
      stack.push_back(brace);
      head_start = i + 1;
      ++i;
      continue;
    }
    // A function definition head at namespace scope: `... Name ( ... )`
    // with an unqualified Name and no '=' at top level (initializers).
    bool is_function = false;
    bool is_stage_method = false;
    std::string name;
    std::string qualified_name;
    size_t name_offset = head_start;  // absolute, for the diagnostic line
    if (all_namespaces && !in_anon) {
      size_t open = head.find('(');
      if (open != std::string::npos) {
        size_t e = open;
        while (e > 0 && (head[e - 1] == ' ' || head[e - 1] == '\n')) --e;
        size_t s = e;
        while (s > 0 && IsWordChar(head[s - 1])) --s;
        name = head.substr(s, e - s);
        name_offset = head_start + s;
        bool qualified = s >= 2 && head[s - 1] == ':' && head[s - 2] == ':';
        bool has_assign = head.find('=') != std::string::npos &&
                          head.find('=') < open;
        static const std::set<std::string> kNotFunctions = {
            "if", "for", "while", "switch", "class", "struct", "enum",
            "union", "catch"};
        is_function = !name.empty() && !qualified && !has_assign &&
                      kNotFunctions.count(name) == 0;
        if (qualified && !has_assign && !name.empty()) {
          // Reconstruct `Class::Method` from the definition head.
          size_t ce = s - 2;
          size_t cs = ce;
          while (cs > 0 && IsWordChar(head[cs - 1])) --cs;
          qualified_name = head.substr(cs, ce - cs) + "::" + name;
          is_stage_method = true;
        }
      }
    }
    bool untimed_candidate =
        (pipeline_scope && is_function && pipeline_exports.count(name) > 0) ||
        (stage_scope && is_stage_method &&
         StageEntryPoints().count(qualified_name) > 0);
    if (untimed_candidate) {
      // Find the matching close brace; the body must open a span.
      int depth = 0;
      size_t k = i;
      while (k < n) {
        if (code[k] == '{') ++depth;
        if (code[k] == '}') {
          --depth;
          if (depth == 0) break;
        }
        ++k;
      }
      std::string body = code.substr(i, k - i);
      if (body.find("SAGED_TRACE_SPAN") == std::string::npos &&
          body.find("ScopedSpan") == std::string::npos) {
        const std::string& shown = is_function ? name : qualified_name;
        findings->push_back(
            {"no-untimed-stage", path, line_of(name_offset),
             "pipeline-stage entry point '" + shown +
                 "' opens no telemetry span; add SAGED_TRACE_SPAN(...) so "
                 "the trace export and run ledger cover it"});
      }
      // Skip past the body's closing brace: statements inside are not
      // namespace-scope heads, and the brace pair never touched the stack.
      i = k < n ? k + 1 : n;
      head_start = i;
      continue;
    }
    stack.push_back(brace);  // plain block/class/initializer brace
    head_start = i + 1;
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Concurrency passes: a shared tokenizer + brace-scope tracker + per-class
// symbol tables back three rules — lock-discipline (SAGED_GUARDED_BY /
// SAGED_REQUIRES / SAGED_EXCLUDES from common/thread_annotations.h),
// executor-capture-lifetime, and no-blocking-in-io-loop.
// ---------------------------------------------------------------------------

/// One lexical token of the blanked code view. Identifiers, numbers, and
/// keywords are `ident`; punctuation is one token per character except the
/// two-character "::" and "->".
struct Token {
  std::string text;
  size_t line = 0;  // 1-based
  bool ident = false;
};

/// Tokenizes the blanked code (comments and literals already spaces).
/// Preprocessor lines — including backslash continuations — are dropped
/// entirely: macro bodies are not code the scope tracker should walk.
std::vector<Token> Tokenize(const FileView& view) {
  std::vector<Token> tokens;
  const std::vector<std::string>& lines = view.code_lines;
  std::vector<bool> skip(lines.size(), false);
  for (size_t l = 0; l < lines.size(); ++l) {
    if (skip[l]) continue;
    size_t b = lines[l].find_first_not_of(" \t");
    if (b == std::string::npos || lines[l][b] != '#') continue;
    size_t m = l;
    skip[m] = true;
    while (m < lines.size()) {
      size_t e = lines[m].find_last_not_of(" \t\r");
      if (e == std::string::npos || lines[m][e] != '\\') break;
      ++m;
      if (m < lines.size()) skip[m] = true;
    }
  }
  for (size_t l = 0; l < lines.size(); ++l) {
    if (skip[l]) continue;
    const std::string& line = lines[l];
    size_t i = 0;
    while (i < line.size()) {
      char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      if (IsWordChar(c)) {
        size_t s = i;
        while (i < line.size() && IsWordChar(line[i])) ++i;
        tokens.push_back({line.substr(s, i - s), l + 1, true});
        continue;
      }
      if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        tokens.push_back({"::", l + 1, false});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < line.size() && line[i + 1] == '>') {
        tokens.push_back({"->", l + 1, false});
        i += 2;
        continue;
      }
      tokens.push_back({std::string(1, c), l + 1, false});
      ++i;
    }
  }
  return tokens;
}

/// Index of the token matching the opening delimiter for the closer at
/// `close` when scanning backward (")" -> "(", "]" -> "["). Returns npos
/// when unbalanced.
size_t MatchBackward(const std::vector<Token>& toks, size_t close,
                     const char* open_text, const char* close_text) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (toks[i].text == close_text) ++depth;
    if (toks[i].text == open_text) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

/// Index of the token closing the group opened at `open` ("(" -> ")" etc.).
size_t MatchForward(const std::vector<Token>& toks, size_t open,
                    const char* open_text, const char* close_text) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == open_text) ++depth;
    if (toks[i].text == close_text) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

/// Last identifier of each top-level comma-separated argument in the paren
/// group opening at `open` — `lock(own.mu)` yields {"mu"},
/// `SAGED_REQUIRES(LogMutex())` yields {"LogMutex"}: mutex identity is the
/// trailing name, so `x.mu` and a lock on `y.mu` match by design (the
/// analyzer is per-name, not per-object).
std::vector<std::string> ArgTailIdents(const std::vector<Token>& toks,
                                       size_t open) {
  std::vector<std::string> out;
  size_t close = MatchForward(toks, open, "(", ")");
  if (close == std::string::npos) return out;
  int depth = 0;
  std::string last;
  for (size_t i = open; i <= close; ++i) {
    const Token& t = toks[i];
    if (t.text == "(" || t.text == "[" || t.text == "<") ++depth;
    if (t.text == ")" || t.text == "]" || t.text == ">") --depth;
    if ((t.text == "," && depth == 1) || i == close) {
      if (!last.empty()) out.push_back(last);
      last.clear();
      continue;
    }
    if (t.ident && depth >= 1) last = t.text;
  }
  return out;
}

bool IsAnnotationMacro(const std::string& t) {
  return t == "SAGED_GUARDED_BY" || t == "SAGED_REQUIRES" ||
         t == "SAGED_EXCLUDES";
}

/// Per-class locking contract, collected from declarations.
struct ClassInfo {
  std::map<std::string, std::string> guarded;  // member -> guarding mutex
  std::vector<std::pair<std::string, size_t>> mutexes;  // (member, line)
};

/// Lock contract of one function (by qualified and bare name).
struct FnContract {
  std::set<std::string> requires_held;  // SAGED_REQUIRES
  std::set<std::string> excludes_held;  // SAGED_EXCLUDES
  bool Empty() const { return requires_held.empty() && excludes_held.empty(); }
};

/// Cross-file symbol tables for the lock-discipline pass: members are
/// declared in headers and used in .cc files, so the maps merge over every
/// src/ file before any body is checked.
struct ConcurrencyContext {
  std::map<std::string, ClassInfo> classes;  // by class name
  std::map<std::string, FnContract> fns;     // "Class::Name" and bare "Name"
  // member -> every mutex any class guards it with (for obj.member accesses
  // where the object's class is unknown).
  std::map<std::string, std::set<std::string>> guarded_any;
};

bool IsMutexTypeName(const std::string& t) {
  return t == "mutex" || t == "recursive_mutex" || t == "shared_mutex" ||
         t == "timed_mutex" || t == "shared_timed_mutex";
}

/// Registers SAGED_REQUIRES / SAGED_EXCLUDES found in a declaration or
/// definition head. The annotated function's name is recovered by walking
/// left from the macro over the parameter list.
void RegisterFnContracts(const std::vector<Token>& toks, size_t begin,
                         size_t end, const std::string& class_name,
                         ConcurrencyContext* ctx) {
  for (size_t i = begin; i < end; ++i) {
    if (!toks[i].ident ||
        (toks[i].text != "SAGED_REQUIRES" && toks[i].text != "SAGED_EXCLUDES")) {
      continue;
    }
    if (i + 1 >= end || toks[i + 1].text != "(") continue;
    std::vector<std::string> mutexes = ArgTailIdents(toks, i + 1);
    // Walk left over the parameter list (and any earlier annotation macro
    // or trailing qualifier) to the function name.
    size_t j = i;
    std::string name;
    while (j > begin) {
      const Token& t = toks[j - 1];
      if (t.ident && (t.text == "const" || t.text == "noexcept" ||
                      t.text == "override" || t.text == "final")) {
        --j;
        continue;
      }
      if (t.text == ")") {
        size_t open = MatchBackward(toks, j - 1, "(", ")");
        if (open == std::string::npos || open < begin) break;
        if (open > begin && toks[open - 1].ident) {
          if (IsAnnotationMacro(toks[open - 1].text)) {
            j = open - 1;  // an earlier annotation; keep walking
            continue;
          }
          name = toks[open - 1].text;
        }
        break;
      }
      break;
    }
    if (name.empty()) continue;
    FnContract* contracts[2] = {nullptr, nullptr};
    contracts[0] = &ctx->fns[name];
    if (!class_name.empty()) contracts[1] = &ctx->fns[class_name + "::" + name];
    for (FnContract* c : contracts) {
      if (c == nullptr) continue;
      for (const std::string& mu : mutexes) {
        if (toks[i].text == "SAGED_REQUIRES") {
          c->requires_held.insert(mu);
        } else {
          c->excludes_held.insert(mu);
        }
      }
    }
  }
}

/// Collection pass (src/ files only): walks class bodies, recording
/// SAGED_GUARDED_BY members, mutex members, and annotated method
/// declarations, and reports mutex members no GUARDED_BY references.
void CollectConcurrency(const FileView& view, const std::vector<Token>& toks,
                        ConcurrencyContext* ctx,
                        std::vector<Finding>* findings) {
  struct Scope {
    bool is_class = false;
    std::string class_name;
    ClassInfo local;  // members seen in THIS body (for the coverage check)
  };
  std::vector<Scope> stack;
  size_t stmt_begin = 0;  // token index of the current statement's start

  auto current_class = [&]() -> std::string {
    for (size_t i = stack.size(); i-- > 0;) {
      if (stack[i].is_class) return stack[i].class_name;
    }
    return "";
  };

  auto process_member_statement = [&](size_t begin, size_t end) {
    if (stack.empty() || !stack.back().is_class) return;
    const std::string& cls = stack.back().class_name;
    for (size_t i = begin; i < end; ++i) {
      const Token& t = toks[i];
      if (t.ident && t.text == "SAGED_GUARDED_BY" && i + 1 < end &&
          toks[i + 1].text == "(" && i > begin) {
        // Member name: nearest identifier to the left (skipping an array
        // extent if present).
        size_t j = i;
        if (toks[j - 1].text == "]") {
          size_t open = MatchBackward(toks, j - 1, "[", "]");
          if (open != std::string::npos && open > begin) j = open;
        }
        if (j > begin && toks[j - 1].ident) {
          std::vector<std::string> args = ArgTailIdents(toks, i + 1);
          if (!args.empty()) {
            const std::string& member = toks[j - 1].text;
            const std::string& mu = args.front();
            stack.back().local.guarded[member] = mu;
            if (!cls.empty()) ctx->classes[cls].guarded[member] = mu;
            ctx->guarded_any[member].insert(mu);
          }
        }
      }
      if (t.ident && IsMutexTypeName(t.text) && i > begin &&
          toks[i - 1].text == "::" && i + 1 < end && toks[i + 1].ident) {
        // `std::mutex name ;` — a `&`/`*` after the type (accessor
        // returning a reference, pointer member) is not an owning member.
        // The terminating ';' sits just past `end`, so a member declaration
        // ends the statement span right after its name.
        const Token& name = toks[i + 1];
        if (i + 2 == end ||
            (i + 2 < end && toks[i + 2].text == "SAGED_GUARDED_BY")) {
          stack.back().local.mutexes.emplace_back(name.text, name.line);
          if (!cls.empty()) {
            ctx->classes[cls].mutexes.emplace_back(name.text, name.line);
          }
        }
      }
    }
    RegisterFnContracts(toks, begin, end, cls, ctx);
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == ";") {
      process_member_statement(stmt_begin, i);
      stmt_begin = i + 1;
      continue;
    }
    if (t == "}") {
      if (!stack.empty()) {
        if (stack.back().is_class) {
          // Coverage: every mutex member must be referenced by at least
          // one GUARDED_BY in the same class body.
          for (const auto& [mu, line] : stack.back().local.mutexes) {
            bool referenced = false;
            for (const auto& [member, guard] : stack.back().local.guarded) {
              if (guard == mu) referenced = true;
            }
            if (!referenced) {
              findings->push_back(
                  {"lock-discipline", view.file->path, line,
                   "std::mutex member '" + mu +
                       "' has no SAGED_GUARDED_BY(" + mu +
                       ") annotation on the state it protects; declare the "
                       "contract (common/thread_annotations.h) or suppress "
                       "with a justification"});
            }
          }
        }
        stack.pop_back();
      }
      stmt_begin = i + 1;
      continue;
    }
    if (t != "{") continue;
    // Classify the brace from its head [stmt_begin, i).
    Scope scope;
    size_t class_kw = std::string::npos;
    bool has_enum = false;
    for (size_t j = stmt_begin; j < i; ++j) {
      if (!toks[j].ident) continue;
      if (toks[j].text == "enum") has_enum = true;
      if (toks[j].text == "class" || toks[j].text == "struct") class_kw = j;
    }
    if (class_kw != std::string::npos && !has_enum) {
      // Name: first identifier after the keyword, skipping attributes and
      // alignas(...) clauses; stop at a base-clause ':'.
      for (size_t j = class_kw + 1; j < i; ++j) {
        if (toks[j].text == "[") {
          size_t close = MatchForward(toks, j, "[", "]");
          if (close == std::string::npos || close >= i) break;
          j = close;
          continue;
        }
        if (toks[j].ident && toks[j].text == "alignas" && j + 1 < i &&
            toks[j + 1].text == "(") {
          size_t close = MatchForward(toks, j + 1, "(", ")");
          if (close == std::string::npos || close >= i) break;
          j = close;
          continue;
        }
        if (toks[j].ident && toks[j].text != "final") {
          scope.is_class = true;
          scope.class_name = toks[j].text;
          break;
        }
        if (toks[j].text == ":") break;
      }
    } else {
      // An inline method head carrying annotations registers here too
      // (`void Drain() SAGED_EXCLUDES(mu_) { ... }` inside a class body).
      RegisterFnContracts(toks, stmt_begin, i, current_class(), ctx);
    }
    stack.push_back(std::move(scope));
    stmt_begin = i + 1;
  }
}

/// Lock scopes, annotated-member accesses, REQUIRES/EXCLUDES call sites,
/// Submit capture lists, and io-loop bodies — one walk per file.
void RuleConcurrency(const FileView& view, const std::vector<Token>& toks,
                     const ConcurrencyContext& ctx,
                     std::vector<Finding>* findings) {
  const std::string& path = view.file->path;
  const bool lock_scope = StartsWith(path, "src/");
  const bool capture_scope = StartsWith(path, "src/") ||
                             StartsWith(path, "tools/") ||
                             StartsWith(path, "bench/") ||
                             StartsWith(path, "examples/");

  // io-loop anchors: `// saged-lint: io-loop` directly above (or trailing
  // on) a function head marks that function's body.
  std::set<size_t> anchors;
  for (const auto& [line, text] : view.comments) {
    size_t lead = text.find_first_not_of("/*! \t");
    if (lead == std::string::npos) continue;
    if (text.compare(lead, 11, "saged-lint:") != 0) continue;
    size_t cursor = lead + 11;
    while (cursor < text.size() && text[cursor] == ' ') ++cursor;
    if (text.compare(cursor, 7, "io-loop") == 0) anchors.insert(line);
  }

  static const std::set<std::string> kLockTypes = {
      "lock_guard", "scoped_lock", "unique_lock", "shared_lock"};
  static const std::set<std::string> kNotFunctionNames = {
      "if", "for", "while", "switch", "catch", "return", "do", "else"};
  static const std::set<std::string> kBlockingCalls = {
      "Wait",       "Drain",     "join",     "get",      "wait",
      "wait_for",   "wait_until", "sleep_for", "sleep_until", "sleep",
      "usleep",     "nanosleep", "send",     "sendto",   "sendmsg",
      "recv",       "recvfrom",  "recvmsg",  "read",     "readv",
      "write",      "writev",    "pread",    "pwrite",   "fsync",
      "fdatasync",  "select",    "flock",    "lockf",    "system"};

  struct Scope {
    enum Kind { kNamespace, kClass, kFunction, kBlock } kind = kBlock;
    std::string class_name;       // kClass / kFunction (method's class)
    std::set<std::string> held;   // locks acquired in this scope
    bool lock_barrier = false;    // deferred lambda: locks do not cross
    bool io_anchored = false;     // kFunction under an io-loop anchor
    bool io_exempt = false;       // lambda inside an anchored fn
    size_t paren_base = 0;        // paren depth when the scope opened
  };
  std::vector<Scope> stack;
  size_t paren_depth = 0;
  size_t stmt_begin = 0;

  auto in_function = [&]() {
    for (size_t i = stack.size(); i-- > 0;) {
      if (stack[i].kind == Scope::kFunction) return true;
      if (stack[i].kind == Scope::kClass ||
          stack[i].kind == Scope::kNamespace) {
        return false;
      }
    }
    return false;
  };
  auto current_class = [&]() -> std::string {
    for (size_t i = stack.size(); i-- > 0;) {
      if (stack[i].kind == Scope::kFunction && !stack[i].class_name.empty()) {
        return stack[i].class_name;
      }
      if (stack[i].kind == Scope::kClass) return stack[i].class_name;
    }
    return "";
  };
  auto held = [&](const std::string& mu) {
    for (size_t i = stack.size(); i-- > 0;) {
      if (stack[i].held.count(mu) > 0) return true;
      if (stack[i].lock_barrier) return false;
    }
    return false;
  };
  auto enclosing_class_at_push = [&]() -> std::string {
    for (size_t i = stack.size(); i-- > 0;) {
      if (stack[i].kind == Scope::kFunction) return stack[i].class_name;
      if (stack[i].kind == Scope::kClass) return stack[i].class_name;
    }
    return "";
  };
  auto enclosing_io = [&]() {
    for (size_t i = stack.size(); i-- > 0;) {
      if (stack[i].kind != Scope::kFunction) continue;
      return stack[i].io_anchored && !stack[i].io_exempt;
    }
    return false;
  };

  // Adds locks declared in statement [begin, end) to the innermost scope.
  auto process_lock_statement = [&](size_t begin, size_t end) {
    if (stack.empty() || (stack.back().kind != Scope::kFunction &&
                          stack.back().kind != Scope::kBlock)) {
      return;
    }
    for (size_t i = begin; i < end; ++i) {
      if (!toks[i].ident || kLockTypes.count(toks[i].text) == 0) continue;
      size_t j = i + 1;
      if (j < end && toks[j].text == "<") {
        size_t close = MatchForward(toks, j, "<", ">");
        if (close == std::string::npos || close >= end) continue;
        j = close + 1;
      }
      if (j >= end || !toks[j].ident) continue;  // needs a variable name
      if (j + 1 >= end || toks[j + 1].text != "(") continue;
      for (const std::string& mu : ArgTailIdents(toks, j + 1)) {
        stack.back().held.insert(mu);
      }
    }
  };

  // The innermost unfinished call in [begin, end): its callee name, or ""
  // — used to recognize cv-wait predicates, whose lambda DOES run under
  // the caller's lock.
  auto open_call = [&](size_t begin, size_t end) -> std::string {
    std::vector<std::string> callees;
    for (size_t i = begin; i < end; ++i) {
      if (toks[i].text == "(") {
        callees.push_back(i > begin && toks[i - 1].ident ? toks[i - 1].text
                                                         : "");
      } else if (toks[i].text == ")") {
        if (!callees.empty()) callees.pop_back();
      }
    }
    return callees.empty() ? "" : callees.back();
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    const std::string& t = tok.text;
    if (t == "(") ++paren_depth;
    if (t == ")" && paren_depth > 0) --paren_depth;

    // ---- per-token checks (function bodies only) ----
    if (tok.ident && in_function()) {
      const bool call = i + 1 < toks.size() && toks[i + 1].text == "(";
      const std::string prev = i > 0 ? toks[i - 1].text : "";

      if (lock_scope && !call && ctx.guarded_any.count(t) > 0 &&
          prev != "::") {
        const bool deref = prev == "." || prev == "->";
        const std::string cls = current_class();
        const ClassInfo* info = nullptr;
        if (!cls.empty()) {
          auto it = ctx.classes.find(cls);
          if (it != ctx.classes.end()) info = &it->second;
        }
        std::set<std::string> needed;
        if (info != nullptr && info->guarded.count(t) > 0) {
          needed.insert(info->guarded.at(t));
        } else if (deref) {
          needed = ctx.guarded_any.at(t);
        }
        if (!needed.empty()) {
          bool ok = false;
          for (const std::string& mu : needed) ok = ok || held(mu);
          if (!ok) {
            findings->push_back(
                {"lock-discipline", path, tok.line,
                 "'" + t + "' is SAGED_GUARDED_BY(" + *needed.begin() +
                     ") but is touched without the lock; take a "
                     "std::lock_guard on " + *needed.begin() +
                     " or annotate the enclosing function SAGED_REQUIRES(" +
                     *needed.begin() + ")"});
          }
        }
      }

      if (lock_scope && call && !IsAnnotationMacro(t)) {
        const FnContract* contract = nullptr;
        std::string shown = t;
        const std::string cls = current_class();
        if (prev == "::" && i >= 2 && toks[i - 2].ident) {
          auto it = ctx.fns.find(toks[i - 2].text + "::" + t);
          if (it != ctx.fns.end()) contract = &it->second;
        } else if (!cls.empty() && prev != "." && prev != "->") {
          auto it = ctx.fns.find(cls + "::" + t);
          if (it != ctx.fns.end()) contract = &it->second;
        }
        if (contract == nullptr) {
          auto it = ctx.fns.find(t);
          if (it != ctx.fns.end()) contract = &it->second;
        }
        if (contract != nullptr && !contract->Empty()) {
          for (const std::string& mu : contract->requires_held) {
            if (!held(mu)) {
              findings->push_back(
                  {"lock-discipline", path, tok.line,
                   "'" + shown + "()' is annotated SAGED_REQUIRES(" + mu +
                       ") but the caller does not hold " + mu});
            }
          }
          for (const std::string& mu : contract->excludes_held) {
            if (held(mu)) {
              findings->push_back(
                  {"lock-discipline", path, tok.line,
                   "'" + shown + "()' is annotated SAGED_EXCLUDES(" + mu +
                       ") — it takes " + mu +
                       " itself — but the caller already holds it"});
            }
          }
        }
      }

      if (capture_scope && t == "Submit" && call && i + 2 < toks.size() &&
          toks[i + 2].text == "[") {
        size_t close = MatchForward(toks, i + 2, "[", "]");
        if (close != std::string::npos) {
          for (size_t j = i + 3; j < close; ++j) {
            if (toks[j].text != "&") continue;
            const std::string& before = toks[j - 1].text;
            if (before == "[" || before == ",") {
              findings->push_back(
                  {"executor-capture-lifetime", path, toks[j].line,
                   "lambda submitted to the executor captures by reference; "
                   "the task can outlive the enclosing frame — capture by "
                   "value (or move), or suppress with a justification if "
                   "the future is joined before the frame exits"});
              break;
            }
          }
        }
      }

      if (enclosing_io() && call && kBlockingCalls.count(t) > 0) {
        findings->push_back(
            {"no-blocking-in-io-loop", path, tok.line,
             "'" + t + "()' can block, and this function is marked "
             "`saged-lint: io-loop`: one stalled call here wedges every "
             "connection; hand the work to the scheduler/executor or "
             "suppress with a justification for why it cannot stall"});
      }
    }

    // ---- scope bookkeeping ----
    const bool at_base =
        stack.empty() ? paren_depth == 0 : paren_depth == stack.back().paren_base;
    if (t == ";" && at_base) {
      process_lock_statement(stmt_begin, i);
      stmt_begin = i + 1;
      continue;
    }
    if (t == "}") {
      if (!stack.empty()) stack.pop_back();
      stmt_begin = i + 1;
      continue;
    }
    if (t != "{") continue;

    Scope scope;
    scope.paren_base = paren_depth;
    const size_t head_begin = stmt_begin;
    const size_t head_end = i;
    const size_t head_line =
        head_begin < head_end ? toks[head_begin].line : tok.line;

    // namespace?
    bool is_namespace = false;
    for (size_t j = head_begin; j < head_end; ++j) {
      if (toks[j].ident && toks[j].text == "namespace") is_namespace = true;
      if (toks[j].text == "(") is_namespace = false;
    }
    // class/struct?
    size_t class_kw = std::string::npos;
    bool has_enum = false;
    for (size_t j = head_begin; j < head_end; ++j) {
      if (!toks[j].ident) continue;
      if (toks[j].text == "enum") has_enum = true;
      if (toks[j].text == "class" || toks[j].text == "struct") class_kw = j;
    }

    if (is_namespace) {
      scope.kind = Scope::kNamespace;
    } else if (class_kw != std::string::npos && !has_enum) {
      scope.kind = Scope::kClass;
      for (size_t j = class_kw + 1; j < head_end; ++j) {
        if (toks[j].text == "[") {
          size_t close = MatchForward(toks, j, "[", "]");
          if (close == std::string::npos || close >= head_end) break;
          j = close;
          continue;
        }
        if (toks[j].ident && toks[j].text == "alignas" && j + 1 < head_end &&
            toks[j + 1].text == "(") {
          size_t close = MatchForward(toks, j + 1, "(", ")");
          if (close == std::string::npos || close >= head_end) break;
          j = close;
          continue;
        }
        if (toks[j].ident && toks[j].text != "final") {
          scope.class_name = toks[j].text;
          break;
        }
        if (toks[j].text == ":") break;
      }
    } else {
      // Lambda or function? Walk back over trailing qualifiers, annotation
      // macros, and a trailing return type to the parameter list.
      size_t j = head_end;
      bool saw_arrow = false;
      while (j > head_begin) {
        const Token& b = toks[j - 1];
        if (b.ident || b.text == "::" || b.text == "<" || b.text == ">" ||
            b.text == "*" || b.text == "&") {
          --j;
          continue;
        }
        if (b.text == "->" && !saw_arrow) {
          saw_arrow = true;
          --j;
          continue;
        }
        break;
      }
      bool classified = false;
      while (j > head_begin && !classified) {
        const Token& b = toks[j - 1];
        if (b.text == "]") {
          scope.kind = Scope::kFunction;
          scope.lock_barrier = true;  // a lambda body runs later/elsewhere
          scope.class_name = enclosing_class_at_push();
          // cv-wait predicates are the exception: wait(lock, [..]{...})
          // runs the lambda with the lock held.
          const std::string callee = open_call(head_begin, head_end);
          if (callee == "wait" || callee == "wait_for" ||
              callee == "wait_until") {
            scope.lock_barrier = false;
          }
          scope.io_exempt = true;
          classified = true;
          break;
        }
        if (b.text == ")") {
          size_t open = MatchBackward(toks, j - 1, "(", ")");
          if (open == std::string::npos || open <= head_begin) break;
          if (toks[open - 1].text == "]") {
            j = open;  // `[..](...)` — re-enter the loop at the capture list
            continue;
          }
          if (!toks[open - 1].ident) break;
          const std::string& name = toks[open - 1].text;
          if (IsAnnotationMacro(name)) {
            j = open - 1;  // skip the macro, keep walking left
            continue;
          }
          if (kNotFunctionNames.count(name) > 0) break;  // if/for/while/...
          scope.kind = Scope::kFunction;
          // Method? `Class::Name(` at the definition site, or an inline
          // body inside a class scope.
          if (open >= 3 && toks[open - 2].text == "::" &&
              toks[open - 3].ident) {
            scope.class_name = toks[open - 3].text;
          } else {
            scope.class_name = enclosing_class_at_push();
          }
          // Seed held locks from the function's SAGED_REQUIRES contract —
          // from the definition head itself and from the declaration.
          ConcurrencyContext head_ctx;
          RegisterFnContracts(toks, head_begin, head_end, scope.class_name,
                              &head_ctx);
          for (const auto& [fn, contract] : head_ctx.fns) {
            for (const std::string& mu : contract.requires_held) {
              scope.held.insert(mu);
            }
          }
          if (!scope.class_name.empty()) {
            auto it = ctx.fns.find(scope.class_name + "::" + name);
            if (it != ctx.fns.end()) {
              for (const std::string& mu : it->second.requires_held) {
                scope.held.insert(mu);
              }
            }
          }
          // io-loop anchor: a directive on the head's first line, the line
          // above it, or anywhere across a multi-line head.
          for (size_t a = head_line > 0 ? head_line - 1 : 0; a <= tok.line;
               ++a) {
            if (anchors.count(a) > 0) scope.io_anchored = true;
          }
          classified = true;
          break;
        }
        break;
      }
      if (!classified) scope.kind = Scope::kBlock;
    }
    stack.push_back(std::move(scope));
    stmt_begin = i + 1;
  }
}

/// Names declared in src/pipeline/*.h — the "exported stage" set.
std::set<std::string> CollectPipelineExports(
    const std::vector<FileView>& views) {
  std::set<std::string> names;
  for (const auto& view : views) {
    const std::string& path = view.file->path;
    if (!StartsWith(path, "src/pipeline/") || !EndsWith(path, ".h")) continue;
    const std::string& code = view.code;
    // Any `Identifier (` at the top level of the header is a declaration;
    // collect the identifiers (parameter names etc. never collide with the
    // pipeline stage names, and extra entries only matter if a same-named
    // definition exists in a pipeline .cc).
    size_t i = 0;
    while (i < code.size()) {
      if (!IsWordChar(code[i])) {
        ++i;
        continue;
      }
      size_t s = i;
      while (i < code.size() && IsWordChar(code[i])) ++i;
      size_t j = i;
      while (j < code.size() && (code[j] == ' ' || code[j] == '\n')) ++j;
      if (j < code.size() && code[j] == '(') {
        names.insert(code.substr(s, i - s));
      }
    }
  }
  return names;
}

// ---------------------------------------------------------------------------
// no-unverified-simd: every function a `*_simd` compilation unit defines at
// named-namespace scope must be named `<Base>Simd`, keep a scalar reference
// sibling `<Base>Scalar` somewhere else in src/, and co-occur with that
// sibling in at least one tests/ file (the parity fixture that proves the
// SIMD path byte-identical). Anonymous-namespace helpers are file-local
// tails of the kernels themselves and are exempt — the enclosing kernel's
// parity fixture covers them.
// ---------------------------------------------------------------------------

struct SimdDefinition {
  std::string name;
  size_t line = 0;  // 1-based line of the function name
};

/// Function definitions at (global or named-namespace) scope in the blanked
/// code: `Identifier ( ... ) [const|noexcept]* {`, skipping anything inside
/// an anonymous namespace or another brace scope (bodies, classes). A
/// heuristic, but a conservative one — a definition it misses (initializer
/// lists, trailing return types) produces no finding, never a false one.
std::vector<SimdDefinition> CollectNamespaceScopeDefinitions(
    const FileView& view) {
  const std::string& code = view.code;
  const size_t n = code.size();
  std::vector<SimdDefinition> defs;
  enum class NsScope { kNamed, kAnon, kOther };
  std::vector<NsScope> stack;
  static const std::set<std::string>& not_a_function =
      *new std::set<std::string>{"if",       "for",      "while",
                                 "switch",   "catch",    "return",
                                 "sizeof",   "alignas",  "alignof",
                                 "decltype", "defined",  "static_assert"};
  auto skip_ws = [&](size_t j) {
    while (j < n &&
           (code[j] == ' ' || code[j] == '\t' || code[j] == '\n')) {
      ++j;
    }
    return j;
  };
  // Classifies the '{' at `brace` from the statement chunk before it: a
  // namespace intro is the last `namespace` word followed only by an
  // (optional, possibly ::-qualified) name up to the brace.
  auto classify_brace = [&](size_t brace, size_t chunk_begin) {
    std::string chunk = code.substr(chunk_begin, brace - chunk_begin);
    size_t ns = chunk.rfind("namespace");
    if (ns == std::string::npos ||
        (ns > 0 && IsWordChar(chunk[ns - 1])) ||
        (ns + 9 < chunk.size() && IsWordChar(chunk[ns + 9]))) {
      return NsScope::kOther;
    }
    bool named = false;
    for (size_t j = ns + 9; j < chunk.size(); ++j) {
      char c = chunk[j];
      if (IsWordChar(c)) {
        named = true;
      } else if (c != ':' && c != ' ' && c != '\t' && c != '\n') {
        return NsScope::kOther;  // e.g. `using namespace x;` never gets here
      }
    }
    return named ? NsScope::kNamed : NsScope::kAnon;
  };
  size_t line = 1;
  size_t chunk_begin = 0;  // start of the current statement chunk
  size_t i = 0;
  while (i < n) {
    char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ';' || c == '}') {
      if (c == '}' && !stack.empty()) stack.pop_back();
      chunk_begin = i + 1;
      ++i;
      continue;
    }
    if (c == '{') {
      stack.push_back(classify_brace(i, chunk_begin));
      chunk_begin = i + 1;
      ++i;
      continue;
    }
    bool at_scope = true;
    for (NsScope s : stack) at_scope = at_scope && s == NsScope::kNamed;
    if (!at_scope || !IsWordChar(c) || (i > 0 && IsWordChar(code[i - 1]))) {
      ++i;
      continue;
    }
    size_t s = i;
    while (i < n && IsWordChar(code[i])) ++i;
    std::string word = code.substr(s, i - s);
    if (not_a_function.count(word) > 0) continue;
    size_t j = skip_ws(i);
    if (j >= n || code[j] != '(') continue;
    size_t depth = 0;
    while (j < n) {
      if (code[j] == '(') ++depth;
      if (code[j] == ')' && --depth == 0) break;
      ++j;
    }
    if (j >= n) break;
    j = skip_ws(j + 1);
    while (j < n && IsWordChar(code[j])) {  // const / noexcept / override
      size_t w = j;
      while (j < n && IsWordChar(code[j])) ++j;
      std::string tail = code.substr(w, j - w);
      if (tail != "const" && tail != "noexcept" && tail != "override" &&
          tail != "final") {
        j = n;  // a return type or declarator — not a definition head
        break;
      }
      j = skip_ws(j);
    }
    if (j < n && code[j] == '{') defs.push_back({std::move(word), line});
  }
  return defs;
}

void RuleNoUnverifiedSimd(const std::vector<FileView>& views,
                          std::vector<Finding>* findings) {
  for (const auto& view : views) {
    const std::string& path = view.file->path;
    if (!StartsWith(path, "src/")) continue;
    if (!EndsWith(path, "_simd.cc") && !EndsWith(path, "_simd.cpp")) continue;
    for (const auto& def : CollectNamespaceScopeDefinitions(view)) {
      if (!EndsWith(def.name, "Simd") || def.name == "Simd") {
        findings->push_back(
            {"no-unverified-simd", path, def.line,
             "function '" + def.name +
                 "' in a *_simd compilation unit must be named '<Base>Simd' "
                 "so its scalar reference sibling '<Base>Scalar' is "
                 "derivable (file-local helpers belong in an anonymous "
                 "namespace)"});
        continue;
      }
      const std::string base = def.name.substr(0, def.name.size() - 4);
      const std::string scalar = base + "Scalar";
      bool scalar_in_src = false;
      bool parity_tested = false;
      for (const auto& other : views) {
        const std::string& p = other.file->path;
        if (StartsWith(p, "src/") && p != path &&
            !FindToken(other.code, scalar).empty()) {
          scalar_in_src = true;
        }
        if (StartsWith(p, "tests/") &&
            !FindToken(other.code, scalar).empty() &&
            !FindToken(other.code, def.name).empty()) {
          parity_tested = true;
        }
      }
      if (!scalar_in_src) {
        findings->push_back(
            {"no-unverified-simd", path, def.line,
             "SIMD kernel '" + def.name +
                 "' has no scalar reference sibling '" + scalar +
                 "' in src/ — every *_simd function keeps a byte-identical "
                 "scalar reference (see features/kernels.h)"});
      } else if (!parity_tested) {
        findings->push_back(
            {"no-unverified-simd", path, def.line,
             "SIMD kernel '" + def.name +
                 "' and its scalar reference '" + scalar +
                 "' never co-occur in a tests/ file — add a parity fixture "
                 "asserting byte-identical results"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// config-hash-complete: ConfigContentHash claims to digest every knob, so
// the run ledger can tell two configurations apart. Every data member of
// SagedConfig, and of the Word2VecOptions it nests, must appear as a member
// access (`.name`) inside the body of the src/ definition of
// ConfigContentHash. Matching is by member name, which is enough to catch a
// knob added without its hash line.
// ---------------------------------------------------------------------------

struct MemberDecl {
  std::string name;
  size_t line = 0;  // 1-based
};

/// Instance data members of `struct <name> { ... };` in the token stream:
/// declarations at the struct's own brace depth, minus functions (a '('
/// before any initializer, or a body), static members, type aliases and
/// nested types. Empty when the struct is not defined here.
std::vector<MemberDecl> CollectStructMembers(const std::vector<Token>& toks,
                                             const std::string& name) {
  std::vector<MemberDecl> members;
  size_t open = std::string::npos;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text == "struct" && toks[i + 1].text == name &&
        toks[i + 2].text == "{") {
      open = i + 2;
      break;
    }
  }
  if (open == std::string::npos) return members;
  size_t close = MatchForward(toks, open, "{", "}");
  if (close == std::string::npos) return members;
  static const std::set<std::string>& skipped_leads =
      *new std::set<std::string>{"static", "using",  "typedef", "friend",
                                 "enum",   "struct", "class",   "template"};
  std::vector<const Token*> head;  // declarator tokens before any initializer
  bool in_init = false;
  bool is_function = false;
  auto finish = [&] {
    if (!is_function && !head.empty() &&
        skipped_leads.count(head.front()->text) == 0) {
      for (size_t k = head.size(); k-- > 0;) {
        if (head[k]->ident) {
          members.push_back({head[k]->text, head[k]->line});
          break;
        }
      }
    }
    head.clear();
    in_init = false;
    is_function = false;
  };
  for (size_t i = open + 1; i < close; ++i) {
    const Token& t = toks[i];
    if (t.text == ";") {
      finish();
      continue;
    }
    if (t.text == "{") {
      size_t end = MatchForward(toks, i, "{", "}");
      if (end == std::string::npos || end > close) break;
      const bool body = !head.empty() && !in_init &&
                        (head.back()->text == ")" ||
                         head.back()->text == "const" ||
                         head.back()->text == "override" ||
                         head.back()->text == "noexcept");
      i = end;
      if (body) {  // an inline function definition ends without ';'
        is_function = true;
        finish();
      } else {
        in_init = true;  // brace initializer or a nested type's body
      }
      continue;
    }
    if (in_init) continue;
    if (t.text == "[" && head.empty()) {  // a leading [[attribute]]
      size_t end = MatchForward(toks, i, "[", "]");
      if (end == std::string::npos || end > close) break;
      i = end;
      continue;
    }
    if (t.text == "=" || t.text == "[") {  // initializer or array extent
      in_init = true;
      continue;
    }
    if (t.text == "(") is_function = true;
    head.push_back(&t);
  }
  return members;
}

void RuleConfigHashComplete(const std::vector<FileView>& views,
                            const std::vector<std::vector<Token>>& tokens,
                            std::vector<Finding>* findings) {
  // Names accessed as `.name` inside the ConfigContentHash definition.
  std::set<std::string> hashed;
  bool defined = false;
  for (size_t v = 0; v < views.size(); ++v) {
    if (!StartsWith(views[v].file->path, "src/")) continue;
    const std::vector<Token>& toks = tokens[v];
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "ConfigContentHash" || toks[i + 1].text != "(") {
        continue;
      }
      size_t params_end = MatchForward(toks, i + 1, "(", ")");
      if (params_end == std::string::npos || params_end + 1 >= toks.size() ||
          toks[params_end + 1].text != "{") {
        continue;  // a declaration or a call
      }
      size_t body_end = MatchForward(toks, params_end + 1, "{", "}");
      if (body_end == std::string::npos) continue;
      defined = true;
      for (size_t k = params_end + 1; k + 1 < body_end; ++k) {
        if (toks[k].text == "." && toks[k + 1].ident) {
          hashed.insert(toks[k + 1].text);
        }
      }
    }
  }
  if (!defined) return;
  for (size_t v = 0; v < views.size(); ++v) {
    const std::string& path = views[v].file->path;
    if (!StartsWith(path, "src/") || !EndsWith(path, ".h")) continue;
    for (const char* owner : {"SagedConfig", "Word2VecOptions"}) {
      for (const auto& member : CollectStructMembers(tokens[v], owner)) {
        if (hashed.count(member.name) > 0) continue;
        findings->push_back(
            {"config-hash-complete", path, member.line,
             std::string(owner) + "::" + member.name +
                 " is not digested by ConfigContentHash — two runs that "
                 "differ only in it would share a config hash in the run "
                 "ledger; hash it next to the other knobs"});
      }
    }
  }
}

}  // namespace

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string> kRules = {
      "no-raw-random",       "no-adhoc-thread",    "no-unchecked-result",
      "no-iostream-in-core", "include-hygiene",    "no-untimed-stage",
      "lock-discipline",     "executor-capture-lifetime",
      "no-blocking-in-io-loop", "no-unverified-simd", "config-hash-complete",
      "bad-suppression"};
  return kRules;
}

LintResult RunLint(const std::vector<SourceFile>& files) {
  LintResult result;
  result.files_scanned = files.size();

  std::vector<FileView> views;
  views.reserve(files.size());
  std::set<std::string> tree_paths;
  for (const auto& file : files) {
    views.push_back(BuildView(file));
    tree_paths.insert(file.path);
  }

  // Cross-file context.
  std::set<std::string> status_registry;
  std::set<std::string> ambiguous_names;
  for (const auto& view : views) {
    if (StartsWith(view.file->path, "src/") &&
        EndsWith(view.file->path, ".h")) {
      CollectStatusReturning(view, &status_registry, &ambiguous_names);
    }
  }
  for (const auto& name : ambiguous_names) status_registry.erase(name);
  std::set<std::string> pipeline_exports = CollectPipelineExports(views);

  const std::set<std::string> known_rules(RuleNames().begin(),
                                          RuleNames().end());

  std::vector<Finding> raw;
  AuditNodiscardTypes(views, &raw);

  // Concurrency symbol tables: collect lock annotations from every src/
  // file first (members are declared in headers, used in .cc files), then
  // check bodies.
  std::vector<std::vector<Token>> tokens;
  tokens.reserve(views.size());
  for (const auto& view : views) tokens.push_back(Tokenize(view));
  ConcurrencyContext concurrency;
  for (size_t v = 0; v < views.size(); ++v) {
    if (StartsWith(views[v].file->path, "src/")) {
      CollectConcurrency(views[v], tokens[v], &concurrency, &raw);
    }
  }

  std::map<const FileView*, Suppressions> suppressions;
  for (size_t v = 0; v < views.size(); ++v) {
    const FileView& view = views[v];
    RuleNoRawRandom(view, &raw);
    RuleNoAdhocThread(view, &raw);
    RuleNoIostreamInCore(view, &raw);
    RuleIncludeHygiene(view, tree_paths, &raw);
    RuleNoUncheckedResult(view, status_registry, &raw);
    RuleNoUntimedStage(view, pipeline_exports, &raw);
    RuleConcurrency(view, tokens[v], concurrency, &raw);
    suppressions.emplace(&view, ParseSuppressions(view, known_rules));
  }
  RuleNoUnverifiedSimd(views, &raw);
  RuleConfigHashComplete(views, tokens, &raw);

  // Apply suppressions.
  std::map<std::string, const FileView*> by_path;
  for (const auto& view : views) by_path[view.file->path] = &view;
  for (auto& finding : raw) {
    const FileView* view = by_path.at(finding.path);
    const Suppressions& sup = suppressions.at(view);
    bool allowed = sup.file_allows.count(finding.rule) > 0;
    if (!allowed) {
      auto it = sup.line_allows.find(finding.rule);
      allowed = it != sup.line_allows.end() &&
                it->second.count(finding.line) > 0;
    }
    if (allowed) {
      ++result.suppressed;
    } else {
      result.findings.push_back(std::move(finding));
    }
  }
  for (auto& [view, sup] : suppressions) {
    for (auto& finding : sup.bad) result.findings.push_back(std::move(finding));
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return result;
}

std::vector<SourceFile> LoadTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  for (const char* dir : {"src", "tools", "bench", "tests", "examples"}) {
    fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream content;
      content << in.rdbuf();
      std::string rel =
          fs::relative(entry.path(), fs::path(root)).generic_string();
      files.push_back({std::move(rel), content.str()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return files;
}

std::string FormatGcc(const LintResult& result) {
  std::ostringstream out;
  for (const auto& finding : result.findings) {
    out << finding.path << ":" << finding.line << ": error: ["
        << finding.rule << "] " << finding.message << "\n";
  }
  out << "saged_lint: " << result.files_scanned << " files, "
      << result.findings.size() << " violation(s), " << result.suppressed
      << " suppressed\n";
  return out.str();
}

std::string FormatJson(const LintResult& result) {
  std::ostringstream out;
  out << "{\n  \"files_scanned\": " << result.files_scanned
      << ",\n  \"suppressed\": " << result.suppressed
      << ",\n  \"findings\": [";
  for (size_t i = 0; i < result.findings.size(); ++i) {
    const auto& f = result.findings[i];
    out << (i == 0 ? "" : ",") << "\n    {\"rule\": " << json::JsonEscaped(f.rule)
        << ", \"path\": " << json::JsonEscaped(f.path)
        << ", \"line\": " << f.line
        << ", \"message\": " << json::JsonEscaped(f.message) << "}";
  }
  out << (result.findings.empty() ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

std::string FormatSarif(const LintResult& result) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n    {\n"
      << "      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": \"saged_lint\",\n"
      << "          \"rules\": [";
  const std::vector<std::string>& rules = RuleNames();
  for (size_t i = 0; i < rules.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n            {\"id\": "
        << json::JsonEscaped(rules[i]) << "}";
  }
  out << "\n          ]\n        }\n      },\n"
      << "      \"results\": [";
  for (size_t i = 0; i < result.findings.size(); ++i) {
    const auto& f = result.findings[i];
    out << (i == 0 ? "" : ",") << "\n        {\n"
        << "          \"ruleId\": " << json::JsonEscaped(f.rule) << ",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": " << json::JsonEscaped(f.message)
        << "},\n"
        << "          \"locations\": [\n            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": "
        << json::JsonEscaped(f.path) << "},\n"
        << "                \"region\": {\"startLine\": " << f.line << "}\n"
        << "              }\n            }\n          ]\n        }";
  }
  out << (result.findings.empty() ? "" : "\n      ") << "]\n    }\n  ]\n}\n";
  return out.str();
}

}  // namespace saged::lint
