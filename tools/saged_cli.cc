// saged — command-line front end for the library.
//
//   saged list-datasets
//   saged generate <dataset> [--rows N] [--seed S] [--error-rate R]
//                  [--out-dir DIR]
//   saged generate --corpus N [--rows R] [--seed S] [--error-rate E]
//                  [--out-dir DIR]
//   saged kb build-index --kb STORE --out DIR [--index-buckets N]
//                        [--seed S]
//   saged kb stats --kb STORE
//   saged extract  --data a.csv --mask a_mask.csv
//                  [--data b.csv --mask b_mask.csv ...] --out STORE
//                  [--extract-threads N] [--index-buckets N] [--seed S]
//   saged detect   --kb STORE --data dirty.csv --oracle-mask truth.csv
//                  [--budget N] [--detect-threads N] [--out detections.csv]
//                  [--stream] [--block-rows N] [--chunk-bytes N]
//   saged pipeline [--history adult,movies] [--target beers] [--budget N]
//                  [--rows N] [--seed S] [--extract-threads N]
//                  [--detect-threads N]
//   saged help | --help
//   saged <command> --help
//
// `help` lists the commands; `<command> --help` prints that command's usage
// and every registry flag it accepts, with the registry's help text.
// `generate` writes <name>_dirty.csv, <name>_clean.csv and <name>_mask.csv
// (a 0/1 table marking the injected errors). With `--corpus N` it instead
// mass-produces N synthetic datasets ("corpus-000000"...), each a
// deterministic function of (index, seed), and prints one content hash per
// dataset — the raw material for thousand-dataset knowledge bases.
// `extract` builds a knowledge base from historical datasets whose dirty
// cells are labeled by a mask CSV and writes it as a store directory (the
// one knowledge-base format, see src/kb/kb_builder.h): a manifest with the
// K-Means signature index plus one shard file per index bucket
// (`--index-buckets`, default ~sqrt(models); `--seed`).
//
// `kb build-index` re-shards an existing store under a new bucket count or
// seed. `kb stats` prints a store's shape. `detect --kb` and
// `saged_serve --kb` open a store directory (or its manifest file), loading
// models lazily; with `--similarity indexed` matching probes the signature
// index instead of scanning every entry. `detect` opens the knowledge base,
// spends the labeling budget by asking the oracle mask, writes the detected
// cells as a 0/1 CSV, and — since the oracle mask doubles as ground truth —
// prints P/R/F1.
// `pipeline` runs both phases end-to-end on generated datasets (no files
// needed): extract from the comma-separated `--history` inventory, then
// detect on `--target`.
//
// `detect --stream` switches to the out-of-core path: the dirty CSV is
// never loaded whole; two streaming passes of `--block-rows` rows (default
// 50000), read in `--chunk-bytes` buffers (default 1 MiB), produce
// predictions byte-identical to the in-memory path with a bounded working
// set. All three knobs are DetectionOptions fields from the shared
// registry in core/config_flags.h — the same flags saged_serve accepts
// per request. Every detect invocation builds a core::DetectionRequest
// and funnels through Saged::Run, the single entry point the library,
// the streaming path, the benches and the saged_serve daemon share.
//
// `extract`, `detect` and `pipeline` all accept `--telemetry-out FILE`
// (or `--telemetry-out=FILE`): telemetry is switched on for the run and
// the per-stage timing tree, counters and histograms are written to FILE
// as JSON (schema in DESIGN.md §Observability). They likewise accept
// `--trace-out FILE` (per-span Chrome trace-event JSON, loadable in
// Perfetto / chrome://tracing) and `--runs-dir DIR` (run-ledger directory,
// default `runs`; pass `none` to skip the ledger). Every work command
// appends a run manifest — git SHA, build flags, config hash, dataset
// content digests, wall time, peak RSS, quality metrics — to
// `DIR/ledger.jsonl` (see DESIGN.md §Perf observability).
//
// Those three commands also accept every registered SAGED config knob as a
// flag — `--budget N`, `--seed S`, `--extract-threads N`,
// `--detect-threads N`, `--base-model random_forest`,
// ... — via the shared registry in core/config_flags.h (one place to add a
// knob for both the CLI and the benches). The assembled config is
// validated before any work runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/stopwatch.h"
#include "core/detector.h"
#include "data/content_hash.h"
#include "data/csv.h"
#include "data/mask_io.h"
#include "datagen/datasets.h"
#include "kb/kb_builder.h"
#include "kb/shard_store.h"
#include "pipeline/evaluation.h"

#include "cli_common.h"

namespace {

using namespace saged;
using cli::Args;
using cli::ConfigFromArgs;
using cli::Fail;
using cli::FlushObservability;
using cli::HexHash;
using cli::Observability;
using cli::ObsFromArgs;

/// Splits "adult,movies" into {"adult", "movies"}.
std::vector<std::string> SplitNames(const std::string& csv) {
  std::vector<std::string> out;
  std::string current;
  for (char c : csv) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

constexpr char kGenerateUsage[] =
    "saged generate <dataset> [--rows N] [--seed S] [--error-rate R] "
    "[--out-dir DIR]\n"
    "       saged generate --corpus N [--rows R] [--seed S] "
    "[--error-rate E] [--out-dir DIR]";
constexpr char kExtractUsage[] =
    "saged extract --data a.csv --mask a_mask.csv "
    "[--data ... --mask ...] --out STORE_DIR";
constexpr char kDetectUsage[] =
    "saged detect --kb STORE --data dirty.csv --oracle-mask truth.csv "
    "[--out detections.csv]";
constexpr char kPipelineUsage[] =
    "saged pipeline [--history adult,movies] [--target beers] [--rows N] "
    "[--seed S]";
constexpr char kKbUsage[] =
    "saged kb build-index --kb STORE --out DIR [--index-buckets N] "
    "[--seed S]\n"
    "       saged kb stats --kb STORE";

int UsageError(const char* usage) {
  std::fprintf(stderr, "usage: %s\n", usage);
  return 1;
}

int CmdListDatasets(const Args&) {
  std::printf("%-14s %8s %5s %6s  error types\n", "name", "rows", "cols",
              "rate");
  for (const auto& name : datagen::AllDatasetNames()) {
    auto spec = datagen::GetDatasetSpec(name);
    if (!spec.ok()) continue;
    std::string types;
    for (auto t : spec->error_types) {
      if (!types.empty()) types += ",";
      types += datagen::ErrorTypeName(t);
    }
    std::printf("%-14s %8zu %5zu %6.2f  %s\n", name.c_str(), spec->rows,
                spec->cols, spec->error_rate, types.c_str());
  }
  return 0;
}

int CmdGenerateCorpus(const Args& args, size_t count) {
  datagen::CorpusOptions opts;
  size_t rows = std::strtoull(args.Get("rows", "0").c_str(), nullptr, 10);
  if (rows > 0) opts.rows = rows;
  opts.seed = std::strtoull(args.Get("seed", "7").c_str(), nullptr, 10);
  double error_rate =
      std::strtod(args.Get("error-rate", "-1").c_str(), nullptr);
  if (error_rate >= 0.0) opts.error_rate = error_rate;
  std::string dir = args.Get("out-dir", ".");
  for (size_t i = 0; i < count; ++i) {
    auto ds = datagen::MakeCorpusDataset(i, opts);
    if (!ds.ok()) return Fail(ds.status());
    std::string base = dir + "/" + ds->spec.name;
    if (auto s = WriteCsv(ds->dirty, base + "_dirty.csv"); !s.ok()) {
      return Fail(s);
    }
    Table mask = MaskToTable(ds->mask, ds->dirty.ColumnNames());
    if (auto s = WriteCsv(mask, base + "_mask.csv"); !s.ok()) return Fail(s);
    Fnv1a h;
    HashTableContent(ds->dirty, &h);
    HashMaskContent(ds->mask, &h);
    std::printf("%s  %s  (%zu rows x %zu cols)\n", ds->spec.name.c_str(),
                HexHash(h.Digest()).c_str(), ds->dirty.NumRows(),
                ds->dirty.NumCols());
  }
  std::printf("wrote %zu corpus dataset(s) to %s\n", count, dir.c_str());
  return 0;
}

int CmdGenerate(const Args& args) {
  size_t corpus = std::strtoull(args.Get("corpus", "0").c_str(), nullptr, 10);
  if (corpus > 0) return CmdGenerateCorpus(args, corpus);
  if (args.positional.empty()) {
    return UsageError(kGenerateUsage);
  }
  datagen::MakeOptions opts;
  opts.rows = std::strtoull(args.Get("rows", "0").c_str(), nullptr, 10);
  opts.seed = std::strtoull(args.Get("seed", "7").c_str(), nullptr, 10);
  opts.error_rate = std::strtod(args.Get("error-rate", "-1").c_str(), nullptr);
  std::string dir = args.Get("out-dir", ".");
  const std::string& name = args.positional[0];
  auto ds = datagen::MakeDataset(name, opts);
  if (!ds.ok()) return Fail(ds.status());
  std::string base = dir + "/" + name;
  if (auto s = WriteCsv(ds->dirty, base + "_dirty.csv"); !s.ok()) return Fail(s);
  if (auto s = WriteCsv(ds->clean, base + "_clean.csv"); !s.ok()) return Fail(s);
  Table mask = MaskToTable(ds->mask, ds->dirty.ColumnNames());
  if (auto s = WriteCsv(mask, base + "_mask.csv"); !s.ok()) return Fail(s);
  std::printf("wrote %s_{dirty,clean,mask}.csv  (%zu rows x %zu cols, "
              "%.1f%% dirty)\n",
              base.c_str(), ds->dirty.NumRows(), ds->dirty.NumCols(),
              100.0 * ds->mask.ErrorRate());
  return 0;
}

int CmdExtract(const Args& args) {
  auto data_files = args.GetAll("data");
  auto mask_files = args.GetAll("mask");
  std::string out = args.Get("out");
  if (data_files.empty() || data_files.size() != mask_files.size() ||
      out.empty()) {
    return UsageError(kExtractUsage);
  }
  Observability obs = ObsFromArgs(args);
  auto config = ConfigFromArgs(args);
  if (!config.ok()) return Fail(config.status());
  StopWatch watch;
  RunManifest manifest;
  manifest.tool = "saged_cli extract";
  manifest.config_hash = HexHash(core::ConfigContentHash(*config));
  manifest.threads = static_cast<uint32_t>(config->extract_threads);
  core::Saged saged(*config);
  for (size_t i = 0; i < data_files.size(); ++i) {
    auto table = ReadCsv(data_files[i]);
    if (!table.ok()) return Fail(table.status());
    auto mask_table = ReadCsv(mask_files[i]);
    if (!mask_table.ok()) return Fail(mask_table.status());
    auto mask = TableToMask(*mask_table);
    if (!mask.ok()) return Fail(mask.status());
    manifest.datasets.emplace_back(data_files[i],
                                   HexHash(TableContentHash(*table)));
    manifest.datasets.emplace_back(mask_files[i],
                                   HexHash(MaskContentHash(*mask)));
    if (auto s = saged.AddHistoricalDataset(*table, *mask); !s.ok()) {
      return Fail(s);
    }
    std::printf("extracted knowledge from %s (%zu rows)\n",
                data_files[i].c_str(), table->NumRows());
  }
  kb::BuildOptions build{config->index_buckets, config->seed};
  if (auto s = kb::WriteShardedStore(saged.knowledge_base(), out, build);
      !s.ok()) {
    return Fail(s);
  }
  std::printf("saved %zu base models to %s\n", saged.knowledge_base().size(),
              out.c_str());
  manifest.metrics["base_models"] =
      static_cast<double>(saged.knowledge_base().size());
  manifest.wall_ms = watch.Seconds() * 1000.0;
  manifest.extra["kb_out"] = out;
  return FlushObservability(obs, std::move(manifest));
}

int CmdDetect(const Args& args) {
  std::string kb_path = args.Get("kb");
  std::string data_path = args.Get("data");
  std::string oracle_path = args.Get("oracle-mask");
  if (kb_path.empty() || data_path.empty() || oracle_path.empty()) {
    return UsageError(kDetectUsage);
  }
  auto oracle_table = ReadCsv(oracle_path);
  if (!oracle_table.ok()) return Fail(oracle_table.status());
  auto truth = TableToMask(*oracle_table);
  if (!truth.ok()) return Fail(truth.status());

  Observability obs = ObsFromArgs(args);
  auto config = ConfigFromArgs(args);
  if (!config.ok()) return Fail(config.status());
  RunManifest manifest;
  manifest.tool = "saged_cli detect";
  manifest.config_hash = HexHash(core::ConfigContentHash(*config));
  manifest.threads = static_cast<uint32_t>(config->detect_threads);
  manifest.datasets.emplace_back(oracle_path,
                                 HexHash(MaskContentHash(*truth)));
  // The store is declared first so it outlives the engine, whose
  // knowledge base hydrates its shards lazily through it.
  kb::ShardStore::OpenOptions open_options;
  open_options.cache_shards = config->kb_cache_shards;
  auto store = kb::ShardStore::Open(kb_path, open_options);
  if (!store.ok()) return Fail(store.status());
  auto kb = (*store)->MakeKnowledgeBase();
  if (!kb.ok()) return Fail(kb.status());
  core::Saged saged(*config);
  saged.SetKnowledgeBase(std::move(kb).value());

  // Both paths funnel through one DetectionRequest: the registered
  // detection flags (--stream / --block-rows / --chunk-bytes) become
  // DetectionOptions, and Run dispatches on them.
  auto options = cli::DetectionOptionsFromArgs(args);
  if (!options.ok()) return Fail(options.status());
  const bool stream = options->stream;
  auto result = [&]() -> Result<core::DetectionResult> {
    if (stream) {
      // The streaming path never holds the table, so the ledger records
      // the path instead of a content digest.
      manifest.extra["data_stream"] = data_path;
      auto request = core::DetectionRequest::ForCsv(
          data_path, core::MaskOracle(*truth), *options);
      // A truth mask that does not match the data is an InvalidArgument
      // from Run, not an out-of-bounds labeling read.
      request.set_oracle_shape(truth->rows(), truth->cols());
      return saged.Run(request);
    }
    SAGED_ASSIGN_OR_RETURN(Table table, ReadCsv(data_path));
    manifest.datasets.emplace_back(data_path,
                                   HexHash(TableContentHash(table)));
    auto request = core::DetectionRequest::ForTable(
        &table, core::MaskOracle(*truth), *options);
    request.set_oracle_shape(truth->rows(), truth->cols());
    return saged.Run(request);
  }();
  if (!result.ok()) return Fail(result.status());

  auto score = truth->Score(result->mask);
  std::printf("detected %zu dirty cells in %.2fs with %zu labels%s\n",
              result->mask.DirtyCount(), result->seconds,
              result->labeled_tuples, stream ? " (streamed)" : "");
  std::printf("precision=%.3f recall=%.3f f1=%.3f\n", score.Precision(),
              score.Recall(), score.F1());
  manifest.wall_ms = result->seconds * 1000.0;
  manifest.metrics["precision"] = score.Precision();
  manifest.metrics["recall"] = score.Recall();
  manifest.metrics["f1"] = score.F1();
  manifest.metrics["labeled_tuples"] =
      static_cast<double>(result->labeled_tuples);

  std::string out = args.Get("out");
  if (!out.empty()) {
    std::vector<std::string> names;
    names.reserve(result->diagnostics.size());
    for (const auto& diag : result->diagnostics) names.push_back(diag.column);
    Table detections = MaskToTable(result->mask, names);
    if (auto s = WriteCsv(detections, out); !s.ok()) return Fail(s);
    std::printf("wrote detections to %s\n", out.c_str());
  }
  return FlushObservability(obs, std::move(manifest));
}

int CmdPipeline(const Args& args) {
  Observability obs = ObsFromArgs(args);
  auto history = SplitNames(args.Get("history", "adult,movies"));
  std::string target = args.Get("target", "beers");
  if (history.empty()) {
    return UsageError(kPipelineUsage);
  }

  datagen::MakeOptions gen;
  gen.rows = std::strtoull(args.Get("rows", "0").c_str(), nullptr, 10);
  gen.seed = std::strtoull(args.Get("seed", "7").c_str(), nullptr, 10);

  auto config = ConfigFromArgs(args);
  if (!config.ok()) return Fail(config.status());
  StopWatch watch;
  RunManifest manifest;
  manifest.tool = "saged_cli pipeline";
  manifest.config_hash = HexHash(core::ConfigContentHash(*config));
  manifest.threads = static_cast<uint32_t>(config->detect_threads);

  // Offline phase: extract knowledge from the historical inventory.
  auto saged = pipeline::MakeSagedWithHistory(*config, history, gen);
  if (!saged.ok()) return Fail(saged.status());
  std::printf("extracted %zu base models from %zu historical dataset(s)\n",
              saged->knowledge_base().size(), history.size());

  // Online phase: detect on the target dataset, scored against the
  // injected ground truth.
  auto ds = datagen::MakeDataset(target, gen);
  if (!ds.ok()) return Fail(ds.status());
  {
    Fnv1a h;
    HashTableContent(ds->dirty, &h);
    HashMaskContent(ds->mask, &h);
    manifest.datasets.emplace_back(target, HexHash(h.Digest()));
  }
  auto row = pipeline::RunSaged(*saged, *ds);
  if (!row.ok()) return Fail(row.status());
  std::printf("%s: precision=%.3f recall=%.3f f1=%.3f time=%.2fs\n",
              target.c_str(), row->precision, row->recall, row->f1,
              row->seconds);
  manifest.wall_ms = watch.Seconds() * 1000.0;
  manifest.metrics["precision"] = row->precision;
  manifest.metrics["recall"] = row->recall;
  manifest.metrics["f1"] = row->f1;
  manifest.metrics["detect_seconds"] = row->seconds;
  return FlushObservability(obs, std::move(manifest));
}

int CmdKbBuildIndex(const Args& args) {
  std::string kb_path = args.Get("kb");
  std::string out_dir = args.Get("out");
  if (kb_path.empty() || out_dir.empty()) {
    return UsageError(kKbUsage);
  }
  auto config = ConfigFromArgs(args);
  if (!config.ok()) return Fail(config.status());
  StopWatch watch;
  kb::BuildOptions options{config->index_buckets, config->seed};
  auto kb = kb::LoadFullKnowledgeBase(kb_path, &Executor::Shared());
  if (!kb.ok()) return Fail(kb.status());
  if (auto s = kb::WriteShardedStore(*kb, out_dir, options); !s.ok()) {
    return Fail(s);
  }
  auto store = kb::ShardStore::Open(out_dir, kb::ShardStore::OpenOptions{});
  if (!store.ok()) return Fail(store.status());
  kb::StoreStats stats = (*store)->GetStats();
  std::printf("sharded %zu base models into %zu shard(s) under %s "
              "(%zu index buckets, %.2fs)\n",
              stats.n_entries, stats.n_shards, out_dir.c_str(),
              stats.n_buckets, watch.Seconds());
  return 0;
}

int CmdKbStats(const Args& args) {
  std::string kb_path = args.Get("kb");
  if (kb_path.empty()) {
    return UsageError(kKbUsage);
  }
  auto store = kb::ShardStore::Open(kb_path, kb::ShardStore::OpenOptions{});
  if (!store.ok()) return Fail(store.status());
  kb::StoreStats stats = (*store)->GetStats();
  std::printf("store:         %s (format v%u)\n", kb_path.c_str(),
              kb::kStoreVersion);
  std::printf("base models:   %zu\n", stats.n_entries);
  std::printf("index buckets: %zu\n", stats.n_buckets);
  std::printf("shards:        %zu\n", stats.n_shards);
  uint64_t largest = 0;
  for (uint64_t n : stats.shard_sizes) largest = std::max(largest, n);
  if (!stats.shard_sizes.empty()) {
    std::printf("models/shard:  %.1f avg, %llu max\n",
                static_cast<double>(stats.n_entries) /
                    static_cast<double>(stats.shard_sizes.size()),
                static_cast<unsigned long long>(largest));
  }
  return 0;
}

int CmdKb(const Args& args) {
  if (args.positional.empty()) {
    return UsageError(kKbUsage);
  }
  const std::string& sub = args.positional[0];
  if (sub == "build-index") return CmdKbBuildIndex(args);
  if (sub == "stats") return CmdKbStats(args);
  std::fprintf(stderr, "unknown kb subcommand '%s'\n", sub.c_str());
  return 1;
}

/// One subcommand: what it does, its own flags, and which groups of the
/// shared registry (core/config_flags.h) it reads.
struct Command {
  const char* name;
  const char* summary;
  const char* usage;
  bool config_flags;       // SagedConfigFlags, via ConfigFromArgs
  bool detection_flags;    // SagedDetectionFlags
  bool observability;      // --telemetry-out / --trace-out / --runs-dir
  int (*run)(const Args&);
};

constexpr Command kCommands[] = {
    {"list-datasets", "print the built-in datasets and their shapes",
     "saged list-datasets", false, false, false, CmdListDatasets},
    {"generate", "write a generated dataset's dirty, clean and mask CSVs",
     kGenerateUsage, false, false, false, CmdGenerate},
    {"extract", "build a knowledge-base store from labeled history",
     kExtractUsage, true, false, true, CmdExtract},
    {"detect", "detect the dirty cells of a CSV against a store",
     kDetectUsage, true, true, true, CmdDetect},
    {"pipeline", "extract and detect on generated datasets, end to end",
     kPipelineUsage, true, false, true, CmdPipeline},
    {"kb", "print a store's shape or re-shard it", kKbUsage, false, false,
     false, CmdKb},
};

void PrintCommands(std::FILE* out) {
  std::fprintf(out, "usage: saged <command> [flags]\n\ncommands:\n");
  for (const Command& command : kCommands) {
    std::fprintf(out, "  %-14s %s\n", command.name, command.summary);
  }
  std::fprintf(out, "\n`saged <command> --help` prints a command's flags.\n");
}

/// Prints `flags` with their registry help, leaving out the one named
/// `skip` (if any).
void PrintFlags(const char* title, const std::vector<core::ConfigFlag>& flags,
                const char* skip = nullptr) {
  std::printf("\n%s:\n", title);
  for (const core::ConfigFlag& flag : flags) {
    if (skip != nullptr && std::strcmp(flag.name, skip) == 0) continue;
    std::printf("  --%-22s %s\n", flag.name, flag.help);
  }
}

void PrintCommandHelp(const Command& command) {
  std::printf("%s\n\nusage: %s\n", command.summary, command.usage);
  if (command.config_flags) {
    PrintFlags("config flags", core::SagedConfigFlags());
  }
  if (command.detection_flags) {
    PrintFlags("detection flags", core::SagedDetectionFlags());
  }
  if (command.observability) {
    // --out-dir is the benches' artifact directory; the CLI's commands name
    // their outputs with their own flags.
    PrintFlags("output flags", core::SagedToolFlags(), "out-dir");
  }
}

const Command* FindCommand(const std::string& name) {
  for (const Command& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintCommands(stderr);
    return 1;
  }
  std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help") {
    PrintCommands(stdout);
    return 0;
  }
  const Command* command = FindCommand(cmd);
  if (command == nullptr) {
    std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
    PrintCommands(stderr);
    return 1;
  }
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      PrintCommandHelp(*command);
      return 0;
    }
  }
  cli::SetCommandLine(argc, argv);
  auto args = cli::ParseArgs(argc, argv, 2);
  if (!args.ok()) return Fail(args.status());
  return command->run(*args);
}
