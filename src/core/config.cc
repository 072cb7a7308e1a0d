#include "core/config.h"

#include "common/strings.h"
#include "data/content_hash.h"
#include "features/char_space.h"
#include "ml/gradient_boosting.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"

namespace saged::core {

const char* ModelTypeName(ModelType type) {
  switch (type) {
    case ModelType::kRandomForest:
      return "random_forest";
    case ModelType::kGradientBoosting:
      return "gradient_boosting";
    case ModelType::kLogisticRegression:
      return "logistic_regression";
    case ModelType::kMlp:
      return "mlp";
  }
  return "?";
}

const char* SimilarityMethodName(SimilarityMethod method) {
  switch (method) {
    case SimilarityMethod::kCosine:
      return "cosine";
    case SimilarityMethod::kClustering:
      return "clustering";
    case SimilarityMethod::kIndexed:
      return "indexed";
  }
  return "?";
}

const char* LabelingStrategyName(LabelingStrategy strategy) {
  switch (strategy) {
    case LabelingStrategy::kRandom:
      return "random";
    case LabelingStrategy::kHeuristic:
      return "heuristic";
    case LabelingStrategy::kClustering:
      return "clustering";
    case LabelingStrategy::kActiveLearning:
      return "active_learning";
  }
  return "?";
}

const char* AugmentationMethodName(AugmentationMethod method) {
  switch (method) {
    case AugmentationMethod::kNone:
      return "none";
    case AugmentationMethod::kRandom:
      return "random";
    case AugmentationMethod::kIterativeRefinement:
      return "iterative_refinement";
    case AugmentationMethod::kActiveLearning:
      return "active_learning";
    case AugmentationMethod::kKnnShapley:
      return "knn_shapley";
  }
  return "?";
}

Status SagedConfig::Validate() const {
  if (cosine_threshold < 0.0 || cosine_threshold > 1.0) {
    return Status::InvalidArgument(StrFormat(
        "cosine_threshold must be in [0, 1], got %g", cosine_threshold));
  }
  if (n_signature_clusters == 0) {
    return Status::InvalidArgument("n_signature_clusters must be > 0");
  }
  if (max_models_per_column == 0) {
    return Status::InvalidArgument("max_models_per_column must be > 0");
  }
  if (labeling_budget == 0) {
    return Status::InvalidArgument("labeling_budget must be > 0");
  }
  if (augmentation_fraction < 0.0 || augmentation_fraction > 1.0) {
    return Status::InvalidArgument(StrFormat(
        "augmentation_fraction must be in [0, 1], got %g",
        augmentation_fraction));
  }
  if (clustering_sample_cap == 0) {
    return Status::InvalidArgument("clustering_sample_cap must be > 0");
  }
  if (base_model_sample_cap == 0) {
    return Status::InvalidArgument("base_model_sample_cap must be > 0");
  }
  if (char_slots == 0 || char_slots > features::CharSpace::kMaxCapacity) {
    return Status::InvalidArgument(
        StrFormat("char_slots must be in [1, %zu], got %zu",
                  features::CharSpace::kMaxCapacity, char_slots));
  }
  if (w2v.dim == 0) {
    return Status::InvalidArgument("w2v.dim must be > 0");
  }
  return Status::OK();
}

uint64_t ConfigContentHash(const SagedConfig& config) {
  Fnv1a h;
  auto u64 = [&h](uint64_t v) { h.Update(v); };
  auto f64 = [&h](double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    h.Update(bits);
  };
  u64(static_cast<uint64_t>(config.similarity));
  f64(config.cosine_threshold);
  u64(config.n_signature_clusters);
  u64(config.max_models_per_column);
  u64(config.index_probes);
  u64(config.index_buckets);
  u64(config.kb_cache_shards);
  u64(static_cast<uint64_t>(config.labeling));
  u64(config.labeling_budget);
  u64(static_cast<uint64_t>(config.augmentation));
  f64(config.augmentation_fraction);
  u64(config.clustering_sample_cap);
  u64(static_cast<uint64_t>(config.base_model));
  u64(static_cast<uint64_t>(config.meta_model));
  u64(config.meta_include_cell_metadata);
  u64(config.base_model_sample_cap);
  u64(config.w2v.dim);
  u64(config.w2v.window);
  u64(config.w2v.negative);
  u64(config.w2v.epochs);
  f64(config.w2v.learning_rate);
  u64(config.w2v.min_count);
  u64(config.w2v.max_documents);
  u64(config.char_slots);
  u64(config.use_metadata_features);
  u64(config.use_w2v_features);
  u64(config.use_tfidf_features);
  u64(config.featurize_simd);
  u64(config.detect_threads);
  u64(config.extract_threads);
  u64(config.seed);
  return h.Digest();
}

features::FeatureToggles MakeFeaturizeOptions(const SagedConfig& config) {
  return {config.use_metadata_features, config.use_w2v_features,
          config.use_tfidf_features};
}

Result<std::unique_ptr<ml::BinaryClassifier>> MakeModel(ModelType type,
                                                        uint64_t seed) {
  switch (type) {
    case ModelType::kRandomForest: {
      ml::ForestOptions opts;
      opts.n_trees = 24;
      opts.tree.max_depth = 10;
      opts.max_samples = 4000;
      return std::unique_ptr<ml::BinaryClassifier>(
          std::make_unique<ml::RandomForestClassifier>(opts, seed));
    }
    case ModelType::kGradientBoosting: {
      ml::BoostingOptions opts;
      opts.n_rounds = 25;
      opts.learning_rate = 0.25;
      opts.tree.max_depth = 3;
      return std::unique_ptr<ml::BinaryClassifier>(
          std::make_unique<ml::GradientBoostingClassifier>(opts, seed));
    }
    case ModelType::kLogisticRegression:
      return std::unique_ptr<ml::BinaryClassifier>(
          std::make_unique<ml::LogisticRegression>());
    case ModelType::kMlp: {
      ml::MlpOptions opts;
      opts.hidden = {32};
      opts.epochs = 60;
      return std::unique_ptr<ml::BinaryClassifier>(
          std::make_unique<ml::MlpClassifier>(opts, seed));
    }
  }
  return Status::InvalidArgument("unknown model type");
}

}  // namespace saged::core
