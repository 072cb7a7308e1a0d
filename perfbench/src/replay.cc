#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/matcher.h"
#include "core/meta_classifier.h"
#include "core/meta_features.h"
#include "data/csv.h"
#include "features/featurizer.h"
#include "features/frozen_stats.h"
#include "features/kernels.h"
#include "features/metadata_profiler.h"
#include "features/signature.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"

namespace perfbench {

namespace core = saged::core;
namespace features = saged::features;
using saged::Executor;
using saged::Result;
using saged::Status;
using saged::StopWatch;

namespace {

// The detector's RNG salts (src/core/detector.cc). The replay must draw the
// same streams in the same order to reproduce Run's masks.
constexpr uint64_t kDetectRngSalt = 0xD1B54A32D192ED03ULL;
constexpr uint64_t kReservoirSalt = 0x9E3779B97F4A7C15ULL;

/// Runs `fn` and adds its wall milliseconds to `*ms`.
template <typename Fn>
auto Timed(double* ms, Fn&& fn) {
  StopWatch watch;
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    *ms += watch.Millis();
  } else {
    auto out = fn();
    *ms += watch.Millis();
    return out;
  }
}

Status FirstError(const std::vector<Status>& statuses) {
  for (const auto& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status CheckSupported(const core::SagedConfig& config) {
  if (config.augmentation != core::AugmentationMethod::kNone) {
    return Status::NotImplemented("replay covers augmentation = none only");
  }
  return config.Validate();
}

/// Pins every model any column matched (the detector pins per column on
/// the in-memory path and all at once on the streamed path; residency never
/// changes results).
Result<core::ModelLease> AcquireAll(
    core::KnowledgeBase* kb, const std::vector<std::vector<size_t>>& models) {
  std::vector<size_t> all;
  for (const auto& m : models) all.insert(all.end(), m.begin(), m.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return kb->AcquireModels(all);
}

/// Saged::FinishDetection, stage by stage: tuple selection, oracle labels,
/// per-column meta classifier, predictions.
Status Finish(const core::SagedConfig& config,
              const std::vector<saged::ml::Matrix>& meta,
              const std::vector<size_t>& vote_cols,
              const core::OracleFn& oracle, saged::Rng& rng,
              saged::ErrorMask* mask, StageTimes* ms) {
  const size_t rows = mask->rows();
  const size_t cols = mask->cols();
  std::vector<size_t> labeled;
  std::vector<std::vector<int>> labels(cols);
  Timed(&ms->label, [&] {
    labeled = core::SelectTuples(config, meta, vote_cols,
                                 config.labeling_budget, oracle, rng);
    for (size_t j = 0; j < cols; ++j) {
      for (size_t r : labeled) labels[j].push_back(oracle(r, j));
    }
  });
  if (labeled.empty()) {
    return Status::InvalidArgument("labeling budget too small");
  }
  for (size_t j = 0; j < cols; ++j) {
    core::MetaClassifier model(config.meta_model, rng.Next(), vote_cols[j]);
    Status fit = Timed(&ms->meta_train,
                       [&] { return model.Fit(meta[j], labeled, labels[j]); });
    if (!fit.ok()) return fit;
    // The detector always draws the seed of its post-augmentation model,
    // even when augmentation is off and that model is never fitted.
    (void)rng.Next();
    auto preds = Timed(&ms->classify, [&] { return model.Predict(meta[j]); });
    for (size_t r = 0; r < rows; ++r) {
      if (preds[r]) mask->Set(r, j);
    }
  }
  return Status::OK();
}

size_t MetadataCols(const core::SagedConfig& config) {
  return config.meta_include_cell_metadata ? features::MetadataProfiler::kWidth
                                           : 0;
}

}  // namespace

double StageTimes::Total() const {
  return match + acquire + w2v_corpus + w2v_train + featurize + meta_features +
         label + meta_train + classify + csv + stats;
}

StageTimes& StageTimes::operator+=(const StageTimes& o) {
  match += o.match;
  acquire += o.acquire;
  w2v_corpus += o.w2v_corpus;
  w2v_train += o.w2v_train;
  featurize += o.featurize;
  meta_features += o.meta_features;
  label += o.label;
  meta_train += o.meta_train;
  classify += o.classify;
  csv += o.csv;
  stats += o.stats;
  csv_bytes += o.csv_bytes;
  return *this;
}

Result<ReplayOutcome> ReplayInMemory(const core::SagedConfig& config,
                                     core::KnowledgeBase* kb, Executor* pool,
                                     const saged::Table& dirty,
                                     const core::OracleFn& oracle) {
  SAGED_RETURN_NOT_OK(CheckSupported(config));
  features::kernels::SetSimdEnabled(config.featurize_simd);
  saged::Rng rng(config.seed ^ kDetectRngSalt);
  const size_t rows = dirty.NumRows();
  const size_t cols = dirty.NumCols();
  const size_t threads = config.detect_threads;
  ReplayOutcome out{saged::ErrorMask(rows, cols), {}};
  StageTimes& ms = out.ms;

  std::vector<std::vector<size_t>> models(cols);
  Status matched = Timed(&ms.match, [&]() -> Status {
    SAGED_ASSIGN_OR_RETURN(auto matcher, core::MakeMatcher(config, kb));
    pool->ParallelFor(
        cols,
        [&](size_t j) {
          models[j] =
              matcher->Match(features::ColumnSignature(dirty.column(j)));
        },
        threads);
    return Status::OK();
  });
  SAGED_RETURN_NOT_OK(matched);

  saged::text::DocumentReservoir reservoir(config.w2v.max_documents,
                                           config.seed ^ kReservoirSalt);
  Timed(&ms.w2v_corpus, [&] {
    for (size_t r = 0; r < rows; ++r) {
      reservoir.Add(saged::text::TupleTokens(dirty.Row(r)));
    }
  });
  saged::text::Word2Vec w2v(config.w2v, config.seed);
  SAGED_RETURN_NOT_OK(
      Timed(&ms.w2v_train, [&] { return w2v.Train(reservoir.Take()); }));

  features::ColumnFeaturizer featurizer(&w2v, &kb->char_space(),
                                        core::MakeFeaturizeOptions(config));
  std::vector<saged::ml::Matrix> feats(cols);
  std::vector<Status> status(cols);
  Timed(&ms.featurize, [&] {
    pool->ParallelFor(
        cols,
        [&](size_t j) {
          auto f = featurizer.Featurize(dirty.column(j));
          if (!f.ok()) {
            status[j] = f.status();
            return;
          }
          feats[j] = std::move(f).value();
        },
        threads);
  });
  SAGED_RETURN_NOT_OK(FirstError(status));

  std::vector<saged::ml::Matrix> meta(cols);
  std::vector<size_t> vote_cols(cols, 0);
  Timed(&ms.meta_features, [&] {
    pool->ParallelFor(
        cols,
        [&](size_t j) {
          // Pins (and on a lazily read knowledge base hydrates) this
          // column's models only while its inference runs, as the detector
          // does per column.
          auto lease = kb->AcquireModels(models[j]);
          if (!lease.ok()) {
            status[j] = lease.status();
            return;
          }
          auto m = core::BuildMetaFeatures(feats[j], *kb, models[j],
                                           MetadataCols(config), pool, threads);
          if (!m.ok()) {
            status[j] = m.status();
            return;
          }
          meta[j] = std::move(m).value();
          vote_cols[j] = models[j].size();
        },
        threads);
  });
  SAGED_RETURN_NOT_OK(FirstError(status));
  feats.clear();

  SAGED_RETURN_NOT_OK(
      Finish(config, meta, vote_cols, oracle, rng, &out.mask, &ms));
  return out;
}

Result<ReplayOutcome> ReplayStreamed(const core::SagedConfig& config,
                                     core::KnowledgeBase* kb, Executor* pool,
                                     const std::string& csv_path,
                                     const core::DetectionOptions& options,
                                     const core::OracleFn& oracle) {
  SAGED_RETURN_NOT_OK(CheckSupported(config));
  features::kernels::SetSimdEnabled(config.featurize_simd);
  saged::Rng rng(config.seed ^ kDetectRngSalt);
  const size_t threads = config.detect_threads;
  StageTimes ms;
  std::error_code ec;
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(csv_path, ec));
  if (ec) return Status::IoError("cannot stat '" + csv_path + "'");

  // Pass 1: frozen column statistics and the Word2Vec corpus reservoir.
  std::vector<features::ColumnStatsBuilder> builders;
  saged::text::DocumentReservoir reservoir(config.w2v.max_documents,
                                           config.seed ^ kReservoirSalt);
  std::vector<std::string> names;
  size_t rows = 0;
  {
    saged::CsvBlockReader reader(csv_path, options.block_rows, {},
                                 options.chunk_bytes);
    SAGED_RETURN_NOT_OK(Timed(&ms.csv, [&] { return reader.Open(); }));
    names = reader.column_names();
    builders.resize(names.size());
    saged::CsvBlock block;
    std::vector<saged::Cell> row_cells(names.size());
    while (true) {
      SAGED_ASSIGN_OR_RETURN(
          bool more, Timed(&ms.csv, [&] { return reader.Next(&block); }));
      if (!more) break;
      Timed(&ms.stats, [&] {
        for (size_t j = 0; j < names.size(); ++j) {
          for (const auto& cell : block.columns[j]) builders[j].Observe(cell);
        }
        for (size_t i = 0; i < block.rows(); ++i) {
          for (size_t j = 0; j < names.size(); ++j) {
            row_cells[j] = block.columns[j][i];
          }
          reservoir.Add(saged::text::TupleTokens(row_cells));
        }
      });
    }
    rows = reader.rows_read();
  }
  const size_t cols = names.size();
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument("empty dirty table");
  }
  ms.csv_bytes += file_bytes;
  std::vector<features::FrozenColumnStats> stats;
  Status frozen = Timed(&ms.stats, [&]() -> Status {
    for (auto& builder : builders) {
      SAGED_ASSIGN_OR_RETURN(auto s, builder.Finalize());
      stats.push_back(std::move(s));
    }
    return Status::OK();
  });
  SAGED_RETURN_NOT_OK(frozen);

  saged::text::Word2Vec w2v(config.w2v, config.seed);
  SAGED_RETURN_NOT_OK(
      Timed(&ms.w2v_train, [&] { return w2v.Train(reservoir.Take()); }));

  std::vector<std::vector<size_t>> models(cols);
  Status matched = Timed(&ms.match, [&]() -> Status {
    SAGED_ASSIGN_OR_RETURN(auto matcher, core::MakeMatcher(config, kb));
    for (size_t j = 0; j < cols; ++j) {
      models[j] = matcher->Match(stats[j].signature);
    }
    return Status::OK();
  });
  SAGED_RETURN_NOT_OK(matched);
  std::vector<saged::ml::Matrix> meta(cols);
  std::vector<size_t> vote_cols(cols);
  Timed(&ms.meta_features, [&] {
    for (size_t j = 0; j < cols; ++j) {
      vote_cols[j] = models[j].size();
      meta[j] =
          saged::ml::Matrix(rows, models[j].size() + MetadataCols(config));
    }
  });
  SAGED_ASSIGN_OR_RETURN(
      core::ModelLease lease,
      Timed(&ms.acquire, [&] { return AcquireAll(kb, models); }));

  // Pass 2: featurize each block under the frozen stats, then run the
  // matched base models into the resident meta matrices.
  {
    features::ColumnFeaturizer featurizer(&w2v, &kb->char_space(),
                                          core::MakeFeaturizeOptions(config));
    std::vector<features::FeatureArena> arenas(cols);
    std::vector<saged::ml::Matrix> scratch(cols);
    std::vector<Status> status(cols);
    saged::CsvBlockReader reader(csv_path, options.block_rows, {},
                                 options.chunk_bytes);
    SAGED_RETURN_NOT_OK(Timed(&ms.csv, [&] { return reader.Open(); }));
    saged::CsvBlock block;
    while (true) {
      SAGED_ASSIGN_OR_RETURN(
          bool more, Timed(&ms.csv, [&] { return reader.Next(&block); }));
      if (!more) break;
      if (block.first_row + block.rows() > rows) {
        return Status::IoError("'" + csv_path + "' changed between passes");
      }
      Timed(&ms.featurize, [&] {
        pool->ParallelFor(
            cols,
            [&](size_t j) {
              status[j] = featurizer.FeaturizeFrozenInto(
                  stats[j], std::span<const saged::Cell>(block.columns[j]),
                  &scratch[j], &arenas[j]);
            },
            threads);
      });
      SAGED_RETURN_NOT_OK(FirstError(status));
      Timed(&ms.meta_features, [&] {
        pool->ParallelFor(
            cols,
            [&](size_t j) {
              status[j] = core::BuildMetaFeaturesInto(
                  scratch[j], *kb, models[j], MetadataCols(config), &meta[j],
                  block.first_row, pool, threads);
            },
            threads);
      });
      SAGED_RETURN_NOT_OK(FirstError(status));
    }
    if (reader.rows_read() != rows) {
      return Status::IoError("'" + csv_path + "' changed between passes");
    }
    ms.csv_bytes += file_bytes;
  }

  ReplayOutcome out{saged::ErrorMask(rows, cols), ms};
  SAGED_RETURN_NOT_OK(
      Finish(config, meta, vote_cols, oracle, rng, &out.mask, &out.ms));
  return out;
}

}  // namespace perfbench
