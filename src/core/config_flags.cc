#include "core/config_flags.h"

#include <cerrno>
#include <cstdlib>

#include "common/strings.h"

namespace saged::core {

namespace {

Result<uint64_t> ParseCount(const std::string& name,
                            const std::string& value) {
  errno = 0;
  char* end = nullptr;
  uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("--%s expects a non-negative integer, got '%s'",
                  name.c_str(), value.c_str()));
  }
  return parsed;
}

Result<double> ParseReal(const std::string& name, const std::string& value) {
  auto parsed = ParseDouble(value);
  if (!parsed.has_value()) {
    return Status::InvalidArgument(StrFormat(
        "--%s expects a number, got '%s'", name.c_str(), value.c_str()));
  }
  return *parsed;
}

Result<bool> ParseBool(const std::string& name, const std::string& value) {
  std::string v = ToLower(value);
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  return Status::InvalidArgument(StrFormat(
      "--%s expects on/off, got '%s'", name.c_str(), value.c_str()));
}

Result<ModelType> ParseModelType(const std::string& name,
                                 const std::string& value) {
  for (ModelType type :
       {ModelType::kRandomForest, ModelType::kGradientBoosting,
        ModelType::kLogisticRegression, ModelType::kMlp}) {
    if (value == ModelTypeName(type)) return type;
  }
  return Status::InvalidArgument(StrFormat(
      "--%s: unknown model type '%s'", name.c_str(), value.c_str()));
}

}  // namespace

const std::vector<ConfigFlag>& SagedConfigFlags() {
  static const auto& flags = *new std::vector<ConfigFlag>{
      {"budget", "oracle labeling budget in tuples"},
      {"seed", "RNG seed for every phase"},
      {"extract-threads",
       "offline featurize+train parallelism (0 = hardware, 1 = sequential)"},
      {"detect-threads",
       "online per-column parallelism (0 = hardware, 1 = sequential)"},
      {"similarity", "matcher: cosine | clustering | indexed"},
      {"cosine-threshold", "cosine matcher similarity cutoff in [0, 1]"},
      {"signature-clusters", "clustering matcher K-Means cluster count"},
      {"max-models", "upper bound on matched base models per column"},
      {"index-probes",
       "indexed matcher: signature-index buckets probed per query (0 = auto)"},
      {"index-buckets",
       "signature-index / shard bucket count when building a store (0 = auto)"},
      {"kb-cache-shards",
       "lazily-loaded store: keep at most as many models resident as the N "
       "largest shards hold (0 = unbounded)"},
      {"labeling",
       "tuple selection: random | heuristic | clustering | active_learning"},
      {"augmentation",
       "label augmentation: none | random | iterative_refinement | "
       "active_learning | knn_shapley"},
      {"augmentation-fraction", "share of cells pseudo-labeled in [0, 1]"},
      {"base-model", "base classifier family (random_forest | ...)"},
      {"meta-model", "meta classifier family (random_forest | ...)"},
      {"char-slots", "TF-IDF slots in the shared char space"},
      {"w2v-dim", "Word2Vec embedding width"},
      {"w2v-epochs", "Word2Vec training epochs"},
      {"featurize-simd",
       "SSE/NEON char-class kernels on/off (parity-tested, identical output)"},
  };
  return flags;
}

bool IsSagedConfigFlag(const std::string& name) {
  for (const auto& flag : SagedConfigFlags()) {
    if (name == flag.name) return true;
  }
  return false;
}

Status ApplySagedFlag(const std::string& name, const std::string& value,
                      SagedConfig* config) {
  if (name == "budget") {
    SAGED_ASSIGN_OR_RETURN(config->labeling_budget, ParseCount(name, value));
  } else if (name == "seed") {
    SAGED_ASSIGN_OR_RETURN(config->seed, ParseCount(name, value));
  } else if (name == "extract-threads") {
    SAGED_ASSIGN_OR_RETURN(config->extract_threads, ParseCount(name, value));
  } else if (name == "detect-threads") {
    SAGED_ASSIGN_OR_RETURN(config->detect_threads, ParseCount(name, value));
  } else if (name == "similarity") {
    bool found = false;
    for (SimilarityMethod method :
         {SimilarityMethod::kCosine, SimilarityMethod::kClustering,
          SimilarityMethod::kIndexed}) {
      if (value == SimilarityMethodName(method)) {
        config->similarity = method;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          StrFormat("--similarity: unknown method '%s'", value.c_str()));
    }
  } else if (name == "cosine-threshold") {
    SAGED_ASSIGN_OR_RETURN(config->cosine_threshold, ParseReal(name, value));
  } else if (name == "signature-clusters") {
    SAGED_ASSIGN_OR_RETURN(config->n_signature_clusters,
                           ParseCount(name, value));
  } else if (name == "max-models") {
    SAGED_ASSIGN_OR_RETURN(config->max_models_per_column,
                           ParseCount(name, value));
  } else if (name == "index-probes") {
    SAGED_ASSIGN_OR_RETURN(config->index_probes, ParseCount(name, value));
  } else if (name == "index-buckets") {
    SAGED_ASSIGN_OR_RETURN(config->index_buckets, ParseCount(name, value));
  } else if (name == "kb-cache-shards") {
    SAGED_ASSIGN_OR_RETURN(config->kb_cache_shards, ParseCount(name, value));
  } else if (name == "labeling") {
    bool found = false;
    for (LabelingStrategy strategy :
         {LabelingStrategy::kRandom, LabelingStrategy::kHeuristic,
          LabelingStrategy::kClustering, LabelingStrategy::kActiveLearning}) {
      if (value == LabelingStrategyName(strategy)) {
        config->labeling = strategy;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          StrFormat("--labeling: unknown strategy '%s'", value.c_str()));
    }
  } else if (name == "augmentation") {
    bool found = false;
    for (AugmentationMethod method :
         {AugmentationMethod::kNone, AugmentationMethod::kRandom,
          AugmentationMethod::kIterativeRefinement,
          AugmentationMethod::kActiveLearning,
          AugmentationMethod::kKnnShapley}) {
      if (value == AugmentationMethodName(method)) {
        config->augmentation = method;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          StrFormat("--augmentation: unknown method '%s'", value.c_str()));
    }
  } else if (name == "augmentation-fraction") {
    SAGED_ASSIGN_OR_RETURN(config->augmentation_fraction,
                           ParseReal(name, value));
  } else if (name == "base-model") {
    SAGED_ASSIGN_OR_RETURN(config->base_model, ParseModelType(name, value));
  } else if (name == "meta-model") {
    SAGED_ASSIGN_OR_RETURN(config->meta_model, ParseModelType(name, value));
  } else if (name == "char-slots") {
    SAGED_ASSIGN_OR_RETURN(config->char_slots, ParseCount(name, value));
  } else if (name == "w2v-dim") {
    SAGED_ASSIGN_OR_RETURN(config->w2v.dim, ParseCount(name, value));
  } else if (name == "w2v-epochs") {
    SAGED_ASSIGN_OR_RETURN(config->w2v.epochs, ParseCount(name, value));
  } else if (name == "featurize-simd") {
    SAGED_ASSIGN_OR_RETURN(config->featurize_simd, ParseBool(name, value));
  } else {
    return Status::NotFound(
        StrFormat("unknown config flag '%s'", name.c_str()));
  }
  return Status::OK();
}

Status ApplySagedFlagList(const std::string& list, SagedConfig* config) {
  if (list.empty()) return Status::OK();
  for (const auto& item : Split(list, ',')) {
    if (Trim(item).empty()) continue;
    size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("flag list entry '%s' is not name=value", item.c_str()));
    }
    SAGED_RETURN_NOT_OK(ApplySagedFlag(std::string(Trim(item.substr(0, eq))),
                                       std::string(Trim(item.substr(eq + 1))),
                                       config));
  }
  return Status::OK();
}

const std::vector<ConfigFlag>& SagedDetectionFlags() {
  static const auto& flags = *new std::vector<ConfigFlag>{
      {"stream", "detect out-of-core from the CSV (two streaming passes)"},
      {"block-rows", "rows per streaming block (default 50000)"},
      {"chunk-bytes", "raw CSV read-buffer bytes of the streaming path"},
  };
  return flags;
}

bool IsSagedDetectionFlag(const std::string& name) {
  for (const auto& flag : SagedDetectionFlags()) {
    if (name == flag.name) return true;
  }
  return false;
}

bool IsSagedPresenceFlag(const std::string& name) {
  // "warm" is saged_serve's pin-all-models switch — not a config knob, but
  // the shared CLI parser needs to know it takes no value.
  return name == "stream" || name == "warm";
}

Status ApplySagedDetectionFlag(const std::string& name,
                               const std::string& value,
                               DetectionOptions* options) {
  if (name == "stream") {
    // Presence on a command line arrives as the empty string.
    if (value.empty()) {
      options->stream = true;
    } else {
      SAGED_ASSIGN_OR_RETURN(options->stream, ParseBool(name, value));
    }
  } else if (name == "block-rows") {
    SAGED_ASSIGN_OR_RETURN(options->block_rows, ParseCount(name, value));
  } else if (name == "chunk-bytes") {
    SAGED_ASSIGN_OR_RETURN(options->chunk_bytes, ParseCount(name, value));
  } else {
    return Status::NotFound(
        StrFormat("unknown detection flag '%s'", name.c_str()));
  }
  return Status::OK();
}

const std::vector<ConfigFlag>& SagedToolFlags() {
  static const auto& flags = *new std::vector<ConfigFlag>{
      {"out-dir", "directory for output artifacts (created if missing)"},
      {"telemetry-out", "write the telemetry JSON dump to this path"},
      {"trace-out", "write a Chrome trace-event JSON file to this path"},
      {"runs-dir", "run-ledger directory (default 'runs'; 'none' disables)"},
  };
  return flags;
}

bool IsSagedToolFlag(const std::string& name) {
  for (const auto& flag : SagedToolFlags()) {
    if (name == flag.name) return true;
  }
  return false;
}

}  // namespace saged::core
