// saged_serve — long-lived detection daemon and its client helper.
//
//   saged_serve start --socket /tmp/saged.sock --kb STORE
//                     [--max-queue N] [--max-inflight N] [--warm]
//                     [config knobs] [--telemetry-out F] [--trace-out F]
//                     [--runs-dir DIR]
//   saged_serve start --socket /tmp/saged.sock --history adult,movies
//                     [--rows N] [config knobs]
//   saged_serve request --socket /tmp/saged.sock --data dirty.csv
//                       --oracle-mask truth.csv [--stream] [--block-rows N]
//                       [--chunk-bytes N] [--out detections.csv]
//                       [--request-id N] [config knobs]
//   saged_serve ping --socket /tmp/saged.sock
//   saged_serve stop --socket /tmp/saged.sock
//   saged_serve smoke [--rows N] [--runs-dir DIR]
//
// `start` loads the knowledge base exactly once (from `--kb`, or trained
// in-process from the generated `--history` datasets), then serves
// DetectRequest frames on the local socket until SIGINT/SIGTERM or a
// client `stop`. Every detection request funnels through the same
// `Saged::Run(DetectionRequest)` entry point as `saged_cli detect`; config
// knobs given to `request` ride along as per-request overrides of the
// server's base config.
//
// `--kb` names a knowledge-base store (`saged extract` output): a store
// directory or its manifest file. The daemon starts after reading only the
// manifest and signature index — base models hydrate one by one on first
// use, bounded by `--kb-cache-shards`. Pass `--warm` to hydrate and
// pin every model up front instead, trading startup time for no
// request-time load latency.
//
// `smoke` is the self-contained health check wired into ctest: it
// generates datasets, trains an engine, starts a server on a temp socket,
// round-trips requests, asserts the masks are byte-identical to a direct
// in-process run and that the knowledge base was loaded exactly once
// (serve.kb_loads == 1), then shuts down cleanly.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/stopwatch.h"
#include "core/detector.h"
#include "data/csv.h"
#include "data/mask_io.h"
#include "datagen/datasets.h"
#include "kb/shard_store.h"
#include "serve/client.h"
#include "serve/server.h"

#include "cli_common.h"

namespace {

using namespace saged;
using cli::Args;
using cli::Fail;

serve::SagedServer* g_server = nullptr;

void HandleStopSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();  // async-signal-safe
}

/// Builds the `name=value,...` override list a request carries from the
/// registered config knobs present on the command line.
std::string ConfigFlagListFromArgs(const Args& args) {
  std::string list;
  for (const auto& [name, value] : args.flags) {
    if (!core::IsSagedConfigFlag(name)) continue;
    if (!list.empty()) list += ',';
    list += name + "=" + value;
  }
  return list;
}

/// Loads or trains the engine's knowledge base — the once-per-process step
/// the daemon exists to amortize. Counted so tests and telemetry can
/// verify it really happens exactly once. With --kb, *store_out receives the
/// opened store (which must outlive the engine) and the engine gets a
/// lazily-backed knowledge base.
Status LoadEngineKnowledge(const Args& args, core::Saged* engine,
                           std::unique_ptr<kb::ShardStore>* store_out) {
  SAGED_TRACE_SPAN("serve/load_kb");
  SAGED_COUNTER_INC("serve.kb_loads");
  std::string kb_path = args.Get("kb");
  if (!kb_path.empty()) {
    kb::ShardStore::OpenOptions open_options;
    open_options.cache_shards = engine->config().kb_cache_shards;
    SAGED_ASSIGN_OR_RETURN(*store_out,
                           kb::ShardStore::Open(kb_path, open_options));
    SAGED_ASSIGN_OR_RETURN(auto kb, (*store_out)->MakeKnowledgeBase());
    engine->SetKnowledgeBase(std::move(kb));
    return Status::OK();
  }
  std::string history = args.Get("history");
  if (history.empty()) {
    return Status::InvalidArgument(
        "start needs --kb STORE or --history name,name");
  }
  datagen::MakeOptions gen;
  gen.rows = std::strtoull(args.Get("rows", "0").c_str(), nullptr, 10);
  gen.seed = std::strtoull(args.Get("seed", "7").c_str(), nullptr, 10);
  size_t begin = 0;
  while (begin <= history.size()) {
    size_t comma = history.find(',', begin);
    std::string name = history.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (!name.empty()) {
      SAGED_ASSIGN_OR_RETURN(auto ds, datagen::MakeDataset(name, gen));
      SAGED_RETURN_NOT_OK(engine->AddHistoricalDataset(ds.dirty, ds.mask));
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return Status::OK();
}

/// Folds the serving telemetry into run-ledger metrics so saged_report can
/// gate a serving regression like any other number.
void ServeMetricsInto(RunManifest* manifest) {
  auto& registry = telemetry::TelemetryRegistry::Get();
  manifest->metrics["requests"] =
      static_cast<double>(registry.CounterValue("serve.requests"));
  manifest->metrics["rejected"] =
      static_cast<double>(registry.CounterValue("serve.rejected"));
  manifest->metrics["errors"] =
      static_cast<double>(registry.CounterValue("serve.errors"));
  manifest->metrics["connections"] =
      static_cast<double>(registry.CounterValue("serve.connections"));
  auto request_ms = registry.HistogramSnapshot("serve.request_ms");
  if (request_ms.count > 0) {
    manifest->metrics["request_p50_ms"] = request_ms.p50;
    manifest->metrics["request_p99_ms"] = request_ms.p99;
  }
  auto queue_ms = registry.HistogramSnapshot("serve.queue_ms");
  if (queue_ms.count > 0) {
    manifest->metrics["queue_p50_ms"] = queue_ms.p50;
    manifest->metrics["queue_p99_ms"] = queue_ms.p99;
  }
}

int CmdStart(const Args& args) {
  std::string socket_path = args.Get("socket");
  if (socket_path.empty()) {
    std::fprintf(stderr,
                 "usage: saged_serve start --socket PATH (--kb STORE | "
                 "--history a,b) [--max-queue N] [--max-inflight N]\n");
    return 1;
  }
  cli::Observability obs = cli::ObsFromArgs(args);
  // Serving metrics are counted even when no --telemetry-out was asked
  // for; the run manifest wants them either way.
  telemetry::SetEnabled(true);
  auto config = cli::ConfigFromArgs(args);
  if (!config.ok()) return Fail(config.status());

  StopWatch watch;
  // Declared before the engine: a lazily-backed knowledge base keeps a
  // provider pointing into the store, so the store must die last.
  std::unique_ptr<kb::ShardStore> store;
  core::Saged engine(*config);
  if (auto s = LoadEngineKnowledge(args, &engine, &store); !s.ok()) {
    return Fail(s);
  }
  if (store != nullptr) {
    kb::StoreStats stats = store->GetStats();
    std::printf("sharded store ready: %zu base models in %zu shard(s), "
                "%zu index bucket(s), cache %s\n",
                stats.n_entries, stats.n_shards, stats.n_buckets,
                stats.model_capacity == 0
                    ? "unbounded"
                    : (std::to_string(stats.model_capacity) + " model(s)")
                          .c_str());
  } else {
    std::printf("knowledge base ready: %zu base models\n",
                engine.knowledge_base().size());
  }

  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.max_queue =
      std::strtoull(args.Get("max-queue", "64").c_str(), nullptr, 10);
  options.max_inflight =
      std::strtoull(args.Get("max-inflight", "1").c_str(), nullptr, 10);
  options.pin_models = !args.Get(cli::kWarmFlag).empty();
  // A warm start decodes the store's shards in parallel first, so that
  // Start()'s lease over every model finds them all resident.
  core::ModelLease warm;
  if (options.pin_models && store != nullptr) {
    auto lease =
        store->AcquireAll(engine.mutable_knowledge_base(), &Executor::Shared());
    if (!lease.ok()) return Fail(lease.status());
    warm = std::move(*lease);
  }
  serve::SagedServer server(&engine, options);
  if (auto s = server.Start(); !s.ok()) return Fail(s);
  warm.reset();  // the server's own lease keeps every model pinned
  std::printf("serving on %s (max-queue %zu, max-inflight %zu); "
              "stop with SIGINT or `saged_serve stop`\n",
              socket_path.c_str(), options.max_queue, options.max_inflight);

  g_server = &server;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  server.Wait();
  g_server = nullptr;

  RunManifest manifest;
  manifest.tool = "saged_serve";
  manifest.config_hash = cli::HexHash(core::ConfigContentHash(*config));
  manifest.threads = static_cast<uint32_t>(config->detect_threads);
  manifest.wall_ms = watch.Seconds() * 1000.0;
  ServeMetricsInto(&manifest);
  std::printf("served %.0f request(s)\n", manifest.metrics["requests"]);
  return cli::FlushObservability(obs, std::move(manifest));
}

int CmdRequest(const Args& args) {
  std::string socket_path = args.Get("socket");
  std::string data_path = args.Get("data");
  std::string oracle_path = args.Get("oracle-mask");
  if (socket_path.empty() || data_path.empty() || oracle_path.empty()) {
    std::fprintf(stderr,
                 "usage: saged_serve request --socket PATH --data dirty.csv "
                 "--oracle-mask truth.csv [--stream] [--out out.csv]\n");
    return 1;
  }
  auto options = cli::DetectionOptionsFromArgs(args);
  if (!options.ok()) return Fail(options.status());

  serve::DetectRequestMsg msg;
  msg.request_id =
      std::strtoull(args.Get("request-id", "1").c_str(), nullptr, 10);
  msg.data_path = data_path;
  msg.oracle_mask_path = oracle_path;
  msg.config_flags = ConfigFlagListFromArgs(args);
  msg.options = *options;

  serve::SagedClient client;
  if (auto s = client.Connect(socket_path); !s.ok()) return Fail(s);
  auto reply = client.Detect(msg);
  if (!reply.ok()) return Fail(reply.status());
  if (!reply->ok()) {
    std::fprintf(stderr, "server error [%s]: %s\n",
                 serve::ServeErrorName(reply->error),
                 reply->error_message.c_str());
    return 1;
  }
  const auto& r = reply->response;
  std::printf("detected %zu dirty cells in %.2fs with %zu labels%s\n",
              r.mask.DirtyCount(), r.seconds,
              static_cast<size_t>(r.labeled_tuples),
              msg.options.stream ? " (streamed)" : "");
  std::printf("precision=%.3f recall=%.3f f1=%.3f\n", r.precision, r.recall,
              r.f1);
  std::string out = args.Get("out");
  if (!out.empty()) {
    Table detections = MaskToTable(r.mask, r.column_names);
    if (auto s = WriteCsv(detections, out); !s.ok()) return Fail(s);
    std::printf("wrote detections to %s\n", out.c_str());
  }
  return 0;
}

int CmdPing(const Args& args) {
  std::string socket_path = args.Get("socket");
  if (socket_path.empty()) {
    std::fprintf(stderr, "usage: saged_serve ping --socket PATH\n");
    return 1;
  }
  serve::SagedClient client;
  if (auto s = client.Connect(socket_path); !s.ok()) return Fail(s);
  if (auto s = client.Ping(); !s.ok()) return Fail(s);
  std::printf("pong\n");
  return 0;
}

int CmdStopServer(const Args& args) {
  std::string socket_path = args.Get("socket");
  if (socket_path.empty()) {
    std::fprintf(stderr, "usage: saged_serve stop --socket PATH\n");
    return 1;
  }
  serve::SagedClient client;
  if (auto s = client.Connect(socket_path); !s.ok()) return Fail(s);
  if (auto s = client.SendShutdown(); !s.ok()) return Fail(s);
  std::printf("server acknowledged shutdown\n");
  return 0;
}

/// Self-contained server health check (the `servesmoke` ctest): in-process
/// server on a temp socket, real wire round-trips, byte-identity against a
/// direct engine run, single KB load, clean shutdown.
int CmdSmoke(const Args& args) {
  telemetry::SetEnabled(true);
  cli::Observability obs = cli::ObsFromArgs(args);
  StopWatch watch;

  char tmpl[] = "/tmp/saged_smoke_XXXXXX";
  char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    return Fail(Status::IoError("mkdtemp failed"));
  }
  const std::string tmp(dir);

  // A small but non-trivial workload (1-core CI budget).
  datagen::MakeOptions gen;
  gen.rows = std::strtoull(args.Get("rows", "160").c_str(), nullptr, 10);
  gen.seed = 7;
  core::SagedConfig config;
  config.labeling_budget = 20;
  config.w2v.epochs = 1;
  config.w2v.dim = 6;
  auto target = datagen::MakeDataset("beers", gen);
  if (!target.ok()) return Fail(target.status());
  const std::string data_csv = tmp + "/beers_dirty.csv";
  const std::string mask_csv = tmp + "/beers_mask.csv";
  if (auto s = WriteCsv(target->dirty, data_csv); !s.ok()) return Fail(s);
  Table mask_table = MaskToTable(target->mask, target->dirty.ColumnNames());
  if (auto s = WriteCsv(mask_table, mask_csv); !s.ok()) return Fail(s);

  core::Saged engine(config);
  {
    SAGED_TRACE_SPAN("serve/load_kb");
    SAGED_COUNTER_INC("serve.kb_loads");
    for (const char* name : {"adult", "movies"}) {
      auto hist = datagen::MakeDataset(name, gen);
      if (!hist.ok()) return Fail(hist.status());
      if (auto s = engine.AddHistoricalDataset(hist->dirty, hist->mask);
          !s.ok()) {
        return Fail(s);
      }
    }
  }

  // The reference: a direct in-process run on the same files the server
  // will read.
  auto oracle_table = ReadCsv(mask_csv);
  if (!oracle_table.ok()) return Fail(oracle_table.status());
  auto truth = TableToMask(*oracle_table);
  if (!truth.ok()) return Fail(truth.status());
  auto direct = engine.Run(core::DetectionRequest::ForCsv(
      data_csv, core::MaskOracle(*truth)));
  if (!direct.ok()) return Fail(direct.status());

  serve::ServerOptions options;
  options.socket_path = tmp + "/serve.sock";
  serve::SagedServer server(&engine, options);
  if (auto s = server.Start(); !s.ok()) return Fail(s);

  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "smoke FAIL: %s\n", what);
      ++failures;
    }
  };

  {
    serve::SagedClient client;
    expect(client.Connect(options.socket_path).ok(), "connect");
    expect(client.Ping().ok(), "ping");
    for (uint64_t id = 1; id <= 3; ++id) {
      serve::DetectRequestMsg msg;
      msg.request_id = id;
      msg.data_path = data_csv;
      msg.oracle_mask_path = mask_csv;
      auto reply = client.Detect(msg);
      expect(reply.ok(), "detect round-trip");
      if (!reply.ok()) continue;
      expect(reply->ok(), "detect reply is a response, not an error");
      if (!reply->ok()) continue;
      expect(reply->request_id == id, "request id echoed");
      expect(reply->response.mask == direct->mask,
             "served mask byte-identical to the direct run");
    }
    // The whole point of the daemon: one KB load for many requests.
    expect(telemetry::TelemetryRegistry::Get().CounterValue(
               "serve.kb_loads") == 1,
           "knowledge base loaded exactly once");
    expect(client.SendShutdown().ok(), "clean shutdown handshake");
  }
  server.Wait();

  RunManifest manifest;
  manifest.tool = "saged_serve smoke";
  manifest.config_hash = cli::HexHash(core::ConfigContentHash(config));
  manifest.wall_ms = watch.Seconds() * 1000.0;
  ServeMetricsInto(&manifest);
  manifest.metrics["failures"] = failures;

  std::remove(data_csv.c_str());
  std::remove(mask_csv.c_str());
  ::rmdir(tmp.c_str());

  if (failures > 0) return 1;
  int flush = cli::FlushObservability(obs, std::move(manifest));
  if (flush != 0) return flush;
  std::printf("servesmoke OK: %zu requests, masks byte-identical, "
              "kb loaded once\n",
              static_cast<size_t>(telemetry::TelemetryRegistry::Get()
                                      .CounterValue("serve.requests")));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: saged_serve <start|request|ping|stop|smoke> ...\n");
    return 1;
  }
  std::string cmd = argv[1];
  cli::SetCommandLine(argc, argv);
  auto args = cli::ParseArgs(argc, argv, 2);
  if (!args.ok()) return Fail(args.status());
  if (cmd == "start") return CmdStart(*args);
  if (cmd == "request") return CmdRequest(*args);
  if (cmd == "ping") return CmdPing(*args);
  if (cmd == "stop") return CmdStopServer(*args);
  if (cmd == "smoke") return CmdSmoke(*args);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 1;
}
