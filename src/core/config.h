#ifndef SAGED_CORE_CONFIG_H_
#define SAGED_CORE_CONFIG_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "features/featurizer.h"
#include "ml/classifier.h"
#include "text/word2vec.h"

namespace saged::core {

/// Learner families the paper names for base and meta classifiers.
enum class ModelType {
  kRandomForest,
  kGradientBoosting,
  kLogisticRegression,
  kMlp,
};

/// Section 3.1's two similarity measures, plus the bucket-probing variant
/// of the cosine measure over a sharded store's signature index (identical
/// selection semantics, sub-linear candidate generation). Each is a probe
/// policy of the one core::Matcher.
enum class SimilarityMethod {
  kCosine,
  kClustering,
  kIndexed,
};

/// Section 4.1's tuple-selection strategies.
enum class LabelingStrategy {
  kRandom,
  kHeuristic,
  kClustering,
  kActiveLearning,
};

/// Section 4.2's label-augmentation methods (kNone = paper's chosen default).
enum class AugmentationMethod {
  kNone,
  kRandom,
  kIterativeRefinement,
  kActiveLearning,
  kKnnShapley,
};

/// One enum value and its spelling: the value a flag names to select it,
/// and what the *Name functions below return for it.
template <typename Enum>
struct EnumSpelling {
  Enum value;
  const char* name;
};

inline constexpr EnumSpelling<ModelType> kModelTypeSpellings[] = {
    {ModelType::kRandomForest, "random_forest"},
    {ModelType::kGradientBoosting, "gradient_boosting"},
    {ModelType::kLogisticRegression, "logistic_regression"},
    {ModelType::kMlp, "mlp"},
};
inline constexpr EnumSpelling<SimilarityMethod>
    kSimilarityMethodSpellings[] = {
        {SimilarityMethod::kCosine, "cosine"},
        {SimilarityMethod::kClustering, "clustering"},
        {SimilarityMethod::kIndexed, "indexed"},
};
inline constexpr EnumSpelling<LabelingStrategy>
    kLabelingStrategySpellings[] = {
        {LabelingStrategy::kRandom, "random"},
        {LabelingStrategy::kHeuristic, "heuristic"},
        {LabelingStrategy::kClustering, "clustering"},
        {LabelingStrategy::kActiveLearning, "active_learning"},
};
inline constexpr EnumSpelling<AugmentationMethod>
    kAugmentationMethodSpellings[] = {
        {AugmentationMethod::kNone, "none"},
        {AugmentationMethod::kRandom, "random"},
        {AugmentationMethod::kIterativeRefinement, "iterative_refinement"},
        {AugmentationMethod::kActiveLearning, "active_learning"},
        {AugmentationMethod::kKnnShapley, "knn_shapley"},
};

/// The value's spelling from the tables above; "?" for a value outside them.
const char* ModelTypeName(ModelType type);
const char* SimilarityMethodName(SimilarityMethod method);
const char* LabelingStrategyName(LabelingStrategy strategy);
const char* AugmentationMethodName(AugmentationMethod method);

/// Every knob of SAGED. Defaults follow the configuration the paper settles
/// on after its ablation study: clustering similarity, random sampling,
/// no augmentation, 20-tuple budget.
struct SagedConfig {
  // --- similarity / matching ---
  /// The matcher's probe policy (core/matcher.h): cosine scans every
  /// entry, clustering probes the nearest of n_signature_clusters raw-space
  /// K-Means buckets, indexed probes the store's signature index.
  SimilarityMethod similarity = SimilarityMethod::kClustering;
  /// Cosine and indexed policies: minimum signature similarity for a base
  /// model to join B_rel.
  double cosine_threshold = 0.85;
  /// Clustering policy: number of K-Means clusters over historical columns.
  size_t n_signature_clusters = 8;
  /// Upper bound on |B_rel| per dirty column (keeps meta-features narrow).
  size_t max_models_per_column = 8;

  // --- knowledge-base scale (src/kb: signature index + sharded store) ---
  /// Indexed policy: signature-index buckets probed per query. 0 = auto
  /// (SignatureIndex::AutoProbes); >= the index's bucket count is the exact
  /// scan (byte-identical to similarity=cosine).
  size_t index_probes = 0;
  /// Signature-index / shard bucket count used when building a store
  /// (kb_builder, `saged kb build-index`). 0 = auto (~sqrt(entries)).
  size_t index_buckets = 0;
  /// Model-cache capacity of a lazily-loaded sharded store, in shards: at
  /// most as many models as this many of the largest shards hold stay
  /// resident (models evict LRU-first once no detection pins them).
  /// 0 = unbounded.
  size_t kb_cache_shards = 0;

  // --- semi-supervised learning ---
  /// The paper settles on random sampling; on our synthetic substrate the
  /// same ablation (Figure 8 bench) favors clustering-based sampling at
  /// small budgets, so that is the default here. See EXPERIMENTS.md.
  LabelingStrategy labeling = LabelingStrategy::kClustering;
  /// Number of tuples the oracle labels.
  size_t labeling_budget = 20;
  AugmentationMethod augmentation = AugmentationMethod::kNone;
  /// Fraction of meta-classifier predictions folded back as pseudo-labels.
  double augmentation_fraction = 0.2;

  // --- learners ---
  ModelType base_model = ModelType::kRandomForest;
  ModelType meta_model = ModelType::kRandomForest;
  /// Append the cell's metadata block to the base-model predictions when
  /// forming meta-features (the paper's "combination of the pre-trained
  /// models and the padded feature vectors").
  bool meta_include_cell_metadata = true;

  // --- featurization ---
  text::Word2VecOptions w2v;
  /// TF-IDF slots in the shared zero-padded character space, at most
  /// CharSpace::kMaxCapacity (one per byte value plus the overflow slot).
  size_t char_slots = 64;
  /// Feature-family ablation switches (all on by default).
  bool use_metadata_features = true;
  bool use_w2v_features = true;
  bool use_tfidf_features = true;

  /// Use SSE/NEON kernels for the batched char-class counts when the build
  /// has them (parity-tested byte-identical to the scalar references).
  bool featurize_simd = true;

  /// Worker threads for the per-column detection stage (featurization +
  /// base-model inference dominate the online phase and are embarrassingly
  /// parallel across columns). 0 = one thread per hardware core, 1 =
  /// sequential. Results are bit-identical regardless of the setting.
  size_t detect_threads = 0;

  /// Worker threads for the offline per-column featurize+train loop of
  /// knowledge extraction. Same semantics as `detect_threads`: 0 = one per
  /// hardware core, 1 = sequential, and the extracted knowledge base is
  /// bit-identical regardless (per-column seed derivation).
  size_t extract_threads = 0;

  uint64_t seed = 42;

  /// Rejects out-of-range knobs with a descriptive InvalidArgument status.
  /// Every public entry point that consumes a config (Saged, the CLI, the
  /// benches' flag helper) funnels through this instead of re-checking
  /// individual knobs.
  [[nodiscard]] Status Validate() const;
};

/// The features-layer view of the featurization knobs: the family toggles.
/// Everything else about featurization is fixed (ColumnFeaturizer has one
/// path).
features::FeatureToggles MakeFeaturizeOptions(const SagedConfig& config);

/// Instantiates an untrained classifier of the given family; an enum value
/// outside the known families yields InvalidArgument (never nullptr).
[[nodiscard]] Result<std::unique_ptr<ml::BinaryClassifier>> MakeModel(
    ModelType type, uint64_t seed);

/// Stable FNV-1a digest over every knob of `config`, for run-ledger
/// provenance: two runs with equal hashes executed under identical
/// configuration. It includes the knobs that do not change results (thread
/// counts), because the ledger also explains *performance* differences.
uint64_t ConfigContentHash(const SagedConfig& config);

}  // namespace saged::core

#endif  // SAGED_CORE_CONFIG_H_
