#include "pipeline/evaluation.h"

#include "baselines/registry.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "pipeline/repair.h"
#include "pipeline/tuner.h"

namespace saged::pipeline {

Result<EvalRow> RunBaseline(const std::string& name,
                            const datagen::Dataset& dataset, size_t budget,
                            uint64_t seed) {
  SAGED_TRACE_SPAN("pipeline/run_baseline");
  SAGED_COUNTER_INC("pipeline.eval_rows");
  SAGED_ASSIGN_OR_RETURN(auto detector, baselines::MakeBaseline(name));
  baselines::DetectionContext ctx;
  ctx.dirty = &dataset.dirty;
  ctx.rules = &dataset.rules;
  ctx.domains = &dataset.domains;
  ctx.oracle = core::MaskOracle(dataset.mask);
  ctx.labeling_budget = budget;
  ctx.seed = seed;
  SAGED_ASSIGN_OR_RETURN(auto timed, detector->Run(ctx));
  auto score = dataset.mask.Score(timed.mask);
  return EvalRow{name,           dataset.spec.name, score.Precision(),
                 score.Recall(), score.F1(),        timed.seconds};
}

Result<EvalRow> RunSaged(core::Saged& saged, const datagen::Dataset& dataset) {
  SAGED_TRACE_SPAN("pipeline/run_saged");
  SAGED_COUNTER_INC("pipeline.eval_rows");
  SAGED_ASSIGN_OR_RETURN(
      auto result, saged.Run(core::DetectionRequest::ForTable(
                       &dataset.dirty, core::MaskOracle(dataset.mask))));
  auto score = dataset.mask.Score(result.mask);
  return EvalRow{"saged",        dataset.spec.name, score.Precision(),
                 score.Recall(), score.F1(),        result.seconds};
}

Result<core::Saged> MakeSagedWithHistory(
    const core::SagedConfig& config,
    const std::vector<std::string>& historical_names,
    const datagen::MakeOptions& gen_options) {
  SAGED_TRACE_SPAN("pipeline/make_saged_with_history");
  SAGED_RETURN_NOT_OK(config.Validate());
  core::Saged saged(config);
  for (const auto& name : historical_names) {
    SAGED_ASSIGN_OR_RETURN(auto hist, datagen::MakeDataset(name, gen_options));
    SAGED_RETURN_NOT_OK(saged.AddHistoricalDataset(hist.dirty, hist.mask));
  }
  return saged;
}

Result<double> DownstreamScoreVsClean(const Table& version,
                                      const Table& clean, size_t label_col,
                                      TaskType task, uint64_t seed,
                                      bool tune) {
  SAGED_TRACE_SPAN("pipeline/downstream_vs_clean");
  ml::MlpOptions options;
  options.epochs = 80;
  if (tune) {
    SAGED_ASSIGN_OR_RETURN(auto data,
                           PrepareForModel(clean, label_col, task));
    TunerOptions tuner;
    SAGED_ASSIGN_OR_RETURN(options, TuneMlp(data, tuner, seed));
  }
  return TrainOnVersionScoreOnClean(version, clean, label_col, task, options,
                                    seed);
}

Result<double> DownstreamScoreWithMask(const datagen::Dataset& dataset,
                                       const ErrorMask& detections,
                                       size_t label_col, TaskType task,
                                       uint64_t seed, bool tune) {
  SAGED_TRACE_SPAN("pipeline/downstream_with_mask");
  SAGED_ASSIGN_OR_RETURN(auto repaired,
                         RepairTable(dataset.dirty, detections, seed));
  return DownstreamScoreVsClean(repaired, dataset.clean, label_col, task,
                                seed, tune);
}

}  // namespace saged::pipeline
