// serve-kb: a closed loop of detection requests to an in-process SagedServer
// whose engine reads a 1000-dataset knowledge base lazily from a sharded
// store through a small shard cache.
#include <sched.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/executor.h"
#include "common/telemetry.h"
#include "core/detector.h"
#include "data/content_hash.h"
#include "data/csv.h"
#include "data/mask_io.h"
#include "datagen/datasets.h"
#include "kb/kb_builder.h"
#include "kb/shard_store.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

namespace core = saged::core;
namespace datagen = saged::datagen;
namespace fs = std::filesystem;
namespace serve = saged::serve;
namespace telemetry = saged::telemetry;

namespace {

/// Historical datasets extracted into the knowledge base.
constexpr size_t kCorpusDatasets = 1000;
/// Held-out query tables: corpus indices from kQueryBase on, kQueryRows rows.
constexpr size_t kQueries = 50;
constexpr size_t kQueryBase = 900000;
constexpr size_t kQueryRows = 200;
/// Sharded store layout and the engine's shard cache.
constexpr size_t kStoreShards = 64;
constexpr size_t kCacheShards = 8;
/// Latency limit a reply must meet to count towards goodput.
constexpr double kLatencyLimitMs = 250.0;

core::SagedConfig ServeConfig() {
  core::SagedConfig config = EngineConfig();
  config.similarity = core::SimilarityMethod::kIndexed;
  config.kb_cache_shards = kCacheShards;
  return config;
}

struct Query {
  std::string data_path;
  std::string mask_path;
  saged::ErrorMask truth;
  saged::ErrorMask reference;
  double reference_f1 = 0.0;
  size_t cells = 0;
};

/// The serving stack of one set-up. Members are destroyed in reverse order:
/// the server (which stops itself) before the engine before the store.
struct Stack {
  std::unique_ptr<saged::kb::ShardStore> store;
  std::unique_ptr<core::Saged> engine;
  std::unique_ptr<serve::SagedServer> server;
};

/// Set-up timings of one repetition, milliseconds.
struct SetupTimes {
  double total_s = 0.0;
  double extract_ms = 0.0;
  double write_ms = 0.0;
  double open_ms = 0.0;
};

std::unique_ptr<Stack> SetUpOnce(const std::vector<datagen::Dataset>& corpus,
                                 const Options& options, saged::Executor* pool,
                                 SetupTimes* times) {
  const std::string store_dir = options.work_dir + "/store";
  fs::remove_all(store_dir);
  auto stack = std::make_unique<Stack>();
  double start = NowSeconds();
  {
    core::Saged extractor(ServeConfig(), pool);
    for (const auto& ds : corpus) {
      CheckOk(extractor.AddHistoricalDataset(ds.dirty, ds.mask),
              "extracting " + ds.spec.name);
    }
    double extracted = NowSeconds();
    times->extract_ms = (extracted - start) * 1e3;
    saged::kb::BuildOptions build;
    build.n_buckets = kStoreShards;
    build.seed = extractor.config().seed;
    CheckOk(saged::kb::WriteShardedStore(extractor.knowledge_base(), store_dir,
                                         build),
            "writing the sharded store");
    times->write_ms = (NowSeconds() - extracted) * 1e3;
  }
  double open_start = NowSeconds();
  saged::kb::ShardStore::OpenOptions open;
  open.cache_shards = kCacheShards;
  auto store = saged::kb::ShardStore::Open(store_dir, open);
  CheckOk(store.status(), "opening the sharded store");
  stack->store = std::move(store).value();
  auto kb = stack->store->MakeKnowledgeBase();
  CheckOk(kb.status(), "building the lazy knowledge base");
  stack->engine = std::make_unique<core::Saged>(ServeConfig(), pool);
  stack->engine->SetKnowledgeBase(std::move(kb).value());
  times->open_ms = (NowSeconds() - open_start) * 1e3;
  serve::ServerOptions server_options;
  server_options.socket_path = options.work_dir + "/serve.sock";
  stack->server = std::make_unique<serve::SagedServer>(
      stack->engine.get(), server_options, pool);
  CheckOk(stack->server->Start(), "starting the server");
  times->total_s = NowSeconds() - start;
  return stack;
}

/// One closed-loop phase's raw observations.
struct Phase {
  std::vector<double> latency_ms;  // from send to reply read
  std::vector<double> detect_ms;   // the reply's reported detection time
  std::vector<double> outside_ms;  // latency minus detection time
  size_t sent = 0;
  size_t ok = 0;
  size_t failed = 0;
  size_t good = 0;  // ok, correct, and within the latency limit
  double cells = 0.0;
  ScoreSum scores;
  double wall_s = 0.0;  // first send to last reply
  double cpu_s = 0.0;
};

/// Restricts the process, and every thread it starts from here on, to as
/// many CPUs as the pool has workers. With the server busy back to back on
/// those CPUs they rarely go idle, so a request seldom waits for the host
/// to wake an idle virtual CPU, which on a busy shared host is what makes
/// request latency wander (see perfbench/NOTES.md).
void PinToPoolCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      static_cast<size_t>(CPU_COUNT(&allowed)) <= kPoolWorkers) {
    return;
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  size_t kept = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && kept < kPoolWorkers; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++kept;
    }
  }
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

/// Checks one reply against the reference of the query its request id
/// names; true when correct.
bool CheckReply(const serve::DetectReply& reply, const Query& query,
                Report* report) {
  const uint64_t id = reply.request_id;
  if (!reply.ok()) {
    report->Fail("request " + std::to_string(id) + ": " +
                 serve::ServeErrorName(reply.error) + " " +
                 reply.error_message);
    return false;
  }
  if (!(reply.response.mask == query.reference) ||
      reply.response.f1 != query.reference_f1) {
    report->Fail("request " + std::to_string(id) +
                 ": mask differs from the reference");
    return false;
  }
  return true;
}

/// Sends one request and reads its reply.
saged::Result<serve::DetectReply> Roundtrip(serve::SagedClient* client,
                                            const Query& query, uint64_t id) {
  serve::DetectRequestMsg msg;
  msg.request_id = id;
  msg.data_path = query.data_path;
  msg.oracle_mask_path = query.mask_path;
  SAGED_RETURN_NOT_OK(client->SendDetectRequest(msg));
  return client->ReadReply();
}

/// Sends the queries in turn on one connection, each as soon as the
/// previous reply has arrived, for `seconds`, and checks every reply,
/// adding the observations to `*phase`. Request ids start at `*next_id` and
/// advance.
void ClosedLoop(serve::SagedClient* client, const std::vector<Query>& queries,
                double seconds, uint64_t* next_id, Phase* phase,
                Report* report) {
  const double cpu_start = CpuSeconds();
  const double start = NowSeconds();
  for (size_t i = 0; NowSeconds() - start < seconds; ++i) {
    const Query& query = queries[i % queries.size()];
    const uint64_t id = (*next_id)++;
    ++phase->sent;
    ++report->attempted;
    const double sent = NowSeconds();
    auto reply = Roundtrip(client, query, id);
    const double latency = (NowSeconds() - sent) * 1e3;
    bool ok = true;
    if (!reply.ok()) {
      report->Fail("request " + std::to_string(id) + ": " +
                   reply.status().ToString());
      ok = false;
    } else if (reply->request_id != id) {
      report->Fail("request " + std::to_string(id) +
                   ": the reply names another request id");
      ok = false;
    } else {
      ok = CheckReply(*reply, query, report);
    }
    if (!ok) {
      ++phase->failed;
      ++report->failed;
      phase->latency_ms.push_back(std::numeric_limits<double>::infinity());
      // A broken connection or an out-of-order reply ends the phase.
      if (!reply.ok() || reply->request_id != id) break;
      continue;
    }
    ++phase->ok;
    const double detect_ms = reply->response.seconds * 1e3;
    phase->latency_ms.push_back(latency);
    phase->detect_ms.push_back(detect_ms);
    phase->outside_ms.push_back(latency - detect_ms);
    phase->cells += static_cast<double>(query.cells);
    phase->scores.Add(query.truth.Score(reply->response.mask));
    if (latency <= kLatencyLimitMs) ++phase->good;
  }
  phase->wall_s += NowSeconds() - start;
  phase->cpu_s += CpuSeconds() - cpu_start;
}

}  // namespace

void RunServeKb(const Options& options, Report* report) {
  // Inputs: the corpus the knowledge base is extracted from, and the
  // held-out query tables written as data + mask CSV files.
  std::vector<datagen::Dataset> corpus;
  saged::Fnv1a corpus_digest;
  for (size_t i = 0; i < kCorpusDatasets; ++i) {
    datagen::CorpusOptions corpus_options;
    corpus_options.seed = options.seed;
    auto ds = datagen::MakeCorpusDataset(i, corpus_options);
    CheckOk(ds.status(), "generating the corpus");
    saged::HashTableContent(ds->dirty, &corpus_digest);
    saged::HashMaskContent(ds->mask, &corpus_digest);
    corpus.push_back(std::move(ds).value());
  }
  std::printf("digest corpus %016llx\n",
              static_cast<unsigned long long>(corpus_digest.Digest()));
  std::vector<Query> queries(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    datagen::CorpusOptions query_options;
    query_options.seed = options.seed;
    query_options.rows = kQueryRows;
    auto ds = datagen::MakeCorpusDataset(kQueryBase + i, query_options);
    CheckOk(ds.status(), "generating a query table");
    PrintDigest(ds->spec.name, ds->dirty, ds->mask);
    Query& q = queries[i];
    q.data_path = options.work_dir + "/q" + std::to_string(i) + "_dirty.csv";
    q.mask_path = options.work_dir + "/q" + std::to_string(i) + "_mask.csv";
    CheckOk(saged::WriteCsv(ds->dirty, q.data_path), "writing a query");
    CheckOk(saged::WriteMaskCsv(ds->mask, ds->dirty.ColumnNames(), q.mask_path),
            "writing a query mask");
    q.truth = ds->mask;
  }

  Progress("inputs generated");
  PinToPoolCpus();
  saged::Executor pool(kPoolWorkers);
  if (options.trace) telemetry::SetEnabled(true);
  std::vector<SetupTimes> setups(kSetupReps);
  std::unique_ptr<Stack> stack;
  for (auto& times : setups) {
    stack.reset();
    stack = SetUpOnce(corpus, options, &pool, &times);
  }
  double base_fit_ms_p50 = telemetry::TelemetryRegistry::Get()
                               .HistogramSnapshot("extract.base_model_fit_ms")
                               .p50;
  telemetry::SetEnabled(false);
  corpus.clear();
  corpus.shrink_to_fit();
  double rss_after_setup_mb = PeakRssMb();

  Progress("set up");
  // References: each query detected in-process by the serving engine.
  for (auto& q : queries) {
    auto request = core::DetectionRequest::ForCsv(q.data_path,
                                                  core::MaskOracle(q.truth));
    request.set_oracle_shape(q.truth.rows(), q.truth.cols());
    auto result = stack->engine->Run(request);
    CheckOk(result.status(), "reference detection on " + q.data_path);
    q.reference = result->mask;
    q.reference_f1 = q.truth.Score(result->mask).F1();
    q.cells = q.truth.rows() * q.truth.cols();
  }

  Progress("references computed");
  serve::SagedClient client;
  CheckOk(client.Connect(options.work_dir + "/serve.sock"), "connecting");
  // Warm-up: every query once.
  uint64_t next_id = 1;
  for (const Query& q : queries) {
    auto reply = Roundtrip(&client, q, next_id++);
    CheckOk(reply.status(), "a warm-up request");
    CheckReply(*reply, q, report);
  }
  Progress("warmed up");

  if (!options.trace) {
    Phase phase;
    ClosedLoop(&client, queries, options.seconds, &next_id, &phase, report);
    std::vector<double> setup_s;
    for (const auto& t : setups) setup_s.push_back(t.total_s);
    report->Set("setup_s", Median(setup_s));
    report->Set("cells_per_s", Ratio(phase.cells, phase.wall_s));
    report->Set("latency_p50_ms", Percentile(phase.latency_ms, 0.5));
    report->Set("latency_p90_ms", Percentile(phase.latency_ms, 0.9));
    report->Set("goodput_rps",
                Ratio(static_cast<double>(phase.good), phase.wall_s));
    report->Set("rss_peak_mb", PeakRssMb());
    report->Set("f1", phase.scores.F1());
    return;
  }

  // Traced mode: four blocks, untraced and traced in turn so host-speed
  // drift cancels out of the overhead; counters and histograms record only
  // during the traced blocks and describe the serving layers.
  Phase untraced;
  Phase traced;
  auto& registry = telemetry::TelemetryRegistry::Get();
  registry.Reset();
  for (int block = 0; block < 4; ++block) {
    telemetry::SetEnabled(block % 2 == 1);
    ClosedLoop(&client, queries, options.seconds / 4, &next_id,
               block % 2 == 1 ? &traced : &untraced, report);
  }
  telemetry::SetEnabled(false);
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.CounterValue(name));
  };
  const double requests = counter("serve.requests");

  // Per-query CSV loads as the server does them. Then a pass of Run over
  // the queries, a pass of replays and another pass of Run, all in the same
  // order, so that each detection finds the shard cache as the previous
  // query of its own pass left it; the two Run passes' mean is the replays'
  // baseline, so host-speed drift cancels.
  std::vector<double> read_ms;
  std::vector<saged::Table> tables;
  for (const auto& q : queries) {
    double start = NowSeconds();
    auto data = saged::ReadCsv(q.data_path);
    auto mask_table = saged::ReadCsv(q.mask_path);
    CheckOk(data.status(), "reading " + q.data_path);
    CheckOk(mask_table.status(), "reading " + q.mask_path);
    auto mask = saged::TableToMask(*mask_table);
    CheckOk(mask.status(), "parsing " + q.mask_path);
    read_ms.push_back((NowSeconds() - start) * 1e3);
    tables.push_back(std::move(data).value());
  }
  double run_ms = 0.0;
  bool matches = true;
  auto run_pass = [&] {
    for (size_t i = 0; i < kQueries; ++i) {
      auto request = core::DetectionRequest::ForTable(
          &tables[i], core::MaskOracle(queries[i].truth));
      double start = NowSeconds();
      auto run = stack->engine->Run(request);
      run_ms += (NowSeconds() - start) * 1e3 / 2;
      matches = matches && run.ok() && run->mask == queries[i].reference;
    }
  };
  run_pass();
  StageTimes stages;
  for (size_t i = 0; i < kQueries; ++i) {
    auto replay = ReplayInMemory(stack->engine->config(),
                                 stack->engine->mutable_knowledge_base(), &pool,
                                 tables[i], core::MaskOracle(queries[i].truth));
    matches = matches && replay.ok() && replay->mask == queries[i].reference;
    if (replay.ok()) stages += replay->ms;
  }
  run_pass();
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& t : setups) v.push_back(t.*field);
    return Median(v);
  };

  report->Set("common.parallelism", Ratio(traced.cpu_s, traced.wall_s));
  report->Set("common.cpu_s_per_mcell",
              Ratio(traced.cpu_s, traced.cells / 1e6));
  SetSharedLayerMetrics(stages, kQueries, run_ms, matches, requests, report);
  report->Set("data.read_csv_ms", Median(read_ms));
  report->Set("core.extract_ms", setup_median(&SetupTimes::extract_ms));
  report->Set("ml.base_fit_ms_p50", base_fit_ms_p50);
  report->Set("kb.write_store_ms", setup_median(&SetupTimes::write_ms));
  report->Set("kb.open_ms", setup_median(&SetupTimes::open_ms));
  report->Set("kb.shard_loads_per_request",
              Ratio(counter("kb.shard_loads"), requests));
  report->Set("kb.evictions_per_request",
              Ratio(counter("kb.evictions"), requests));
  report->Set("kb.cache_hit_ratio",
              Ratio(counter("kb.cache_hits"),
                    counter("kb.cache_hits") + counter("kb.shard_loads")));
  report->Set("kb.candidates_per_query", Ratio(counter("kb.index_candidates"),
                                               counter("kb.index_queries")));
  report->Set("serve.detect_ms_p50", Percentile(traced.detect_ms, 0.5));
  report->Set("serve.outside_detect_ms_p50",
              Percentile(traced.outside_ms, 0.5));
  report->Set("serve.queue_ms_p90",
              registry.HistogramSnapshot("serve.queue_ms").p90);
  report->Set("serve.rejected", counter("serve.rejected"));
  report->Set("serve.requests_sent", static_cast<double>(traced.sent));
  report->Set("serve.requests_ok", static_cast<double>(traced.ok));
  report->Set("serve.requests_failed", static_cast<double>(traced.failed));
  report->Set("process.rss_after_setup_mb", rss_after_setup_mb);
  report->Set("process.trace_overhead_pct",
              100.0 * (Ratio(Percentile(traced.latency_ms, 0.5),
                             Percentile(untraced.latency_ms, 0.5)) -
                       1.0));
}

}  // namespace perfbench
