// Knowledge-base scale: exact cosine scan vs the signature index as the
// historical inventory grows from 100 to 10,000 corpus datasets (one entry
// per column, ~3.5x that in base-model entries). The quantities that matter:
//
//   * match latency — the indexed matcher must beat the exact scan by >=10x
//     at the 10k scale (the tentpole's reason to exist);
//   * recall@max_models — of the exact matcher's selection, the fraction
//     the index reproduces at AutoProbes. check-perf gates this at >= 0.95
//     through saged_report --floor metrics/kb.recall_at_max=0.95.
//
// Entries carry real signatures (features::ColumnSignature over
// datagen::MakeCorpusDataset columns) but no trained models: matching reads
// signatures only, and skipping model training is what makes a 10k-dataset
// sweep a bench instead of an overnight job.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/strings.h"
#include "core/knowledge_base.h"
#include "core/matcher.h"
#include "core/signature_index.h"
#include "datagen/datasets.h"
#include "features/signature.h"

namespace saged::bench {
namespace {

// Query datasets start far above every swept scale so queries are always
// held out from the inventory.
constexpr size_t kQueryBase = 900'000;
constexpr size_t kQueryDatasets = 40;
// Timed passes over the query set per cell, so the exact scan accumulates
// enough work to time reliably even at the 100-dataset scale.
constexpr size_t kTimedPasses = 3;

// Grows one shared knowledge base of corpus column signatures to
// `n_datasets` (cells reuse the smaller prefix: entry order is generation
// order, so a prefix of 10k *is* the 1k inventory).
const core::KnowledgeBase& CorpusKb(size_t n_datasets) {
  static auto& kb = *new core::KnowledgeBase;
  static size_t generated = 0;
  for (; generated < n_datasets; ++generated) {
    auto ds = datagen::MakeCorpusDataset(generated, {});
    SAGED_CHECK(ds.ok()) << ds.status().ToString();
    for (const auto& column : ds->dirty.columns()) {
      core::BaseModelEntry entry;
      entry.dataset = ds->dirty.name();
      entry.column = column.name();
      entry.signature = features::ColumnSignature(column);
      kb.AddEntry(std::move(entry));
    }
  }
  SAGED_CHECK(kb.size() >= n_datasets);
  return kb;
}

// Held-out query signatures, generated once.
const std::vector<std::vector<double>>& QuerySignatures() {
  static auto& queries = *new std::vector<std::vector<double>>;
  if (!queries.empty()) return queries;
  for (size_t i = 0; i < kQueryDatasets; ++i) {
    auto ds = datagen::MakeCorpusDataset(kQueryBase + i, {});
    SAGED_CHECK(ds.ok()) << ds.status().ToString();
    RecordDatasetDigest(ds->dirty.name(), *ds);
    for (const auto& column : ds->dirty.columns()) {
      queries.push_back(features::ColumnSignature(column));
    }
  }
  return queries;
}

// Fraction of `exact` reproduced in `approx`, 1.0 when exact is empty.
double Recall(const std::vector<size_t>& exact,
              const std::vector<size_t>& approx) {
  if (exact.empty()) return 1.0;
  size_t hit = 0;
  for (size_t e : exact) {
    if (std::find(approx.begin(), approx.end(), e) != approx.end()) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

void RecordMinMetric(const std::string& name, double value) {
  auto& metrics = BenchMetrics();
  auto it = metrics.find(name);
  metrics[name] = it == metrics.end() ? value : std::min(it->second, value);
}

void BM_KbScale(benchmark::State& state) {
  const size_t n_datasets = static_cast<size_t>(state.range(0));
  const core::KnowledgeBase& full = CorpusKb(n_datasets);
  // Matchers see only this scale's prefix of the shared inventory.
  core::KnowledgeBase inventory;
  size_t n_entries = 0;
  {
    size_t datasets_seen = 0;
    std::string last;
    for (const auto& entry : full.entries()) {
      if (entry.dataset != last) {
        last = entry.dataset;
        if (++datasets_seen > n_datasets) break;
      }
      core::BaseModelEntry copy;
      copy.dataset = entry.dataset;
      copy.column = entry.column;
      copy.signature = entry.signature;
      inventory.AddEntry(std::move(copy));
      ++n_entries;
    }
  }

  const core::SagedConfig config = BenchConfig();
  double build_ms = 0.0;
  Result<core::SignatureIndex> index = Status::OK();
  build_ms = TimeMs([&] {
    index = core::SignatureIndex::Build(inventory.SignatureMatrix(),
                                        config.index_buckets, config.seed);
  });
  SAGED_CHECK(index.ok()) << index.status().ToString();
  const size_t n_buckets = index->n_buckets();
  const size_t probes = config.index_probes > 0
                            ? config.index_probes
                            : core::SignatureIndex::AutoProbes(n_buckets);
  inventory.set_signature_index(
      std::make_shared<const core::SignatureIndex>(std::move(index).value()));

  core::SagedConfig exact_config = config;
  exact_config.similarity = core::SimilarityMethod::kCosine;
  core::SagedConfig indexed_config = config;
  indexed_config.similarity = core::SimilarityMethod::kIndexed;
  auto exact_matcher = core::MakeMatcher(exact_config, &inventory);
  auto fast_matcher = core::MakeMatcher(indexed_config, &inventory);
  SAGED_CHECK(exact_matcher.ok()) << exact_matcher.status().ToString();
  SAGED_CHECK(fast_matcher.ok()) << fast_matcher.status().ToString();
  const core::Matcher& exact = **exact_matcher;
  const core::Matcher& fast = **fast_matcher;
  const auto& queries = QuerySignatures();

  double recall_sum = 0.0;
  for (const auto& q : queries) {
    recall_sum += Recall(exact.Match(q), fast.Match(q));
  }
  const double recall = recall_sum / static_cast<double>(queries.size());

  double exact_ms = 0.0;
  double indexed_ms = 0.0;
  for (auto _ : state) {
    exact_ms = TimeMs([&] {
      for (size_t pass = 0; pass < kTimedPasses; ++pass) {
        for (const auto& q : queries) benchmark::DoNotOptimize(exact.Match(q));
      }
    });
    indexed_ms = TimeMs([&] {
      for (size_t pass = 0; pass < kTimedPasses; ++pass) {
        for (const auto& q : queries) benchmark::DoNotOptimize(fast.Match(q));
      }
    });
  }
  const double speedup = indexed_ms > 0.0 ? exact_ms / indexed_ms : 0.0;

  state.counters["entries"] = static_cast<double>(n_entries);
  state.counters["speedup"] = speedup;
  state.counters["recall"] = recall;
  state.SetLabel(StrFormat("datasets=%zu entries=%zu probes=%zu/%zu",
                           n_datasets, n_entries, probes, n_buckets));

  const std::string scale = StrFormat("n%zu", n_datasets);
  auto& metrics = BenchMetrics();
  metrics["kb.match_exact_ms." + scale] = exact_ms;
  metrics["kb.match_indexed_ms." + scale] = indexed_ms;
  metrics["kb.index_build_ms." + scale] = build_ms;
  metrics["kb.speedup." + scale] = speedup;
  // Cells run smallest to largest, so the unscoped speedup — the one the
  // acceptance bar reads — is the largest swept scale's.
  metrics["kb.speedup"] = speedup;
  // The floor gate reads the worst recall across every swept scale.
  RecordMinMetric("kb.recall_at_max", recall);

  Record(StrFormat("%08zu", n_datasets),
         StrFormat("%6zu datasets %6zu entries  buckets=%-4zu probes=%-3zu  "
                   "exact=%8.2fms indexed=%8.2fms  speedup=%5.1fx  "
                   "recall@%zu=%.3f",
                   n_datasets, n_entries, n_buckets, probes,
                   exact_ms, indexed_ms, speedup,
                   config.max_models_per_column, recall));
}

BENCHMARK(BM_KbScale)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace saged::bench

SAGED_BENCH_MAIN("Knowledge-base scale: exact scan vs signature index",
                 "datasets entries buckets/probes exact indexed speedup "
                 "recall")
