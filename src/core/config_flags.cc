#include "core/config_flags.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iterator>

#include "common/strings.h"

namespace saged::core {

namespace {

// One parser per field type, so a knob only has to name its field.

Status ParseInto(const std::string& name, const std::string& value,
                 uint64_t* out) {
  // strtoull would skip leading whitespace and wrap a '-' sign around to
  // 2^64 - n, so the first character must already be a digit.
  errno = 0;
  char* end = nullptr;
  uint64_t parsed = 0;
  if (!value.empty() && std::isdigit(static_cast<unsigned char>(value[0]))) {
    parsed = std::strtoull(value.c_str(), &end, 10);
  }
  if (errno != 0 || end == nullptr || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("--%s expects a non-negative integer, got '%s'",
                  name.c_str(), value.c_str()));
  }
  *out = parsed;
  return Status::OK();
}

Status ParseInto(const std::string& name, const std::string& value,
                 double* out) {
  auto parsed = ParseDouble(value);
  if (!parsed.has_value()) {
    return Status::InvalidArgument(StrFormat(
        "--%s expects a number, got '%s'", name.c_str(), value.c_str()));
  }
  *out = *parsed;
  return Status::OK();
}

Status ParseInto(const std::string& name, const std::string& value,
                 bool* out) {
  std::string v = ToLower(value);
  if (v == "1" || v == "true" || v == "on" || v == "yes") {
    *out = true;
  } else if (v == "0" || v == "false" || v == "off" || v == "no") {
    *out = false;
  } else {
    return Status::InvalidArgument(StrFormat(
        "--%s expects on/off, got '%s'", name.c_str(), value.c_str()));
  }
  return Status::OK();
}

/// Looks `value` up in an enum's spelling table (core/config.h); `noun`
/// names what was not found in the error.
template <typename Enum, size_t N>
Status ParseEnum(const std::string& name, const std::string& value,
                 const char* noun, const EnumSpelling<Enum> (&spellings)[N],
                 Enum* out) {
  for (const auto& spelling : spellings) {
    if (value == spelling.name) {
      *out = spelling.value;
      return Status::OK();
    }
  }
  return Status::InvalidArgument(StrFormat(
      "--%s: unknown %s '%s'", name.c_str(), noun, value.c_str()));
}

Status ParseInto(const std::string& name, const std::string& value,
                 SimilarityMethod* out) {
  return ParseEnum(name, value, "method", kSimilarityMethodSpellings, out);
}

Status ParseInto(const std::string& name, const std::string& value,
                 LabelingStrategy* out) {
  return ParseEnum(name, value, "strategy", kLabelingStrategySpellings, out);
}

Status ParseInto(const std::string& name, const std::string& value,
                 AugmentationMethod* out) {
  return ParseEnum(name, value, "method", kAugmentationMethodSpellings, out);
}

Status ParseInto(const std::string& name, const std::string& value,
                 ModelType* out) {
  return ParseEnum(name, value, "model type", kModelTypeSpellings, out);
}

/// Parses `value` into the field of `target` that the member pointers
/// reach: one pointer for a direct field, two for a nested one.
template <auto First, auto... Rest, typename Target>
Status Set(const std::string& name, const std::string& value,
           Target* target) {
  if constexpr (sizeof...(Rest) == 0) {
    return ParseInto(name, value, &(target->*First));
  } else {
    return Set<Rest...>(name, value, &(target->*First));
  }
}

/// A registered knob: its spelling, its help line and the field it sets
/// on a `Target` (SagedConfig or DetectionOptions). A `presence` flag
/// takes no value on a command line; an empty value means on.
template <typename Target>
struct Knob {
  const char* name;
  const char* help;
  Status (*apply)(const std::string& name, const std::string& value,
                  Target* target);
  bool presence = false;
};

using C = SagedConfig;

const Knob<SagedConfig> kConfigKnobs[] = {
    {"budget", "oracle labeling budget in tuples", Set<&C::labeling_budget>},
    {"seed", "RNG seed for every phase", Set<&C::seed>},
    {"extract-threads",
     "offline featurize+train parallelism (0 = hardware, 1 = sequential)",
     Set<&C::extract_threads>},
    {"detect-threads",
     "online per-column parallelism (0 = hardware, 1 = sequential)",
     Set<&C::detect_threads>},
    {"similarity", "matcher: cosine | clustering | indexed",
     Set<&C::similarity>},
    {"cosine-threshold", "cosine matcher similarity cutoff in [0, 1]",
     Set<&C::cosine_threshold>},
    {"signature-clusters", "clustering matcher K-Means cluster count",
     Set<&C::n_signature_clusters>},
    {"max-models", "upper bound on matched base models per column",
     Set<&C::max_models_per_column>},
    {"index-probes",
     "indexed matcher: signature-index buckets probed per query (0 = auto)",
     Set<&C::index_probes>},
    {"index-buckets",
     "signature-index / shard bucket count when building a store (0 = auto)",
     Set<&C::index_buckets>},
    {"kb-cache-shards",
     "lazily-loaded store: keep at most as many models resident as the N "
     "largest shards hold (0 = unbounded)",
     Set<&C::kb_cache_shards>},
    {"labeling",
     "tuple selection: random | heuristic | clustering | active_learning",
     Set<&C::labeling>},
    {"augmentation",
     "label augmentation: none | random | iterative_refinement | "
     "active_learning | knn_shapley",
     Set<&C::augmentation>},
    {"augmentation-fraction", "share of cells pseudo-labeled in [0, 1]",
     Set<&C::augmentation_fraction>},
    {"base-model", "base classifier family (random_forest | ...)",
     Set<&C::base_model>},
    {"meta-model", "meta classifier family (random_forest | ...)",
     Set<&C::meta_model>},
    {"char-slots", "TF-IDF slots in the shared char space",
     Set<&C::char_slots>},
    {"w2v-dim", "Word2Vec embedding width",
     Set<&C::w2v, &text::Word2VecOptions::dim>},
    {"w2v-epochs", "Word2Vec training epochs",
     Set<&C::w2v, &text::Word2VecOptions::epochs>},
    {"featurize-simd",
     "SSE/NEON char-class kernels on/off (parity-tested, identical output)",
     Set<&C::featurize_simd>},
};

const Knob<DetectionOptions> kDetectionKnobs[] = {
    {"stream", "detect out-of-core from the CSV (two streaming passes)",
     Set<&DetectionOptions::stream>, /*presence=*/true},
    {"block-rows", "rows per streaming block (default 50000)",
     Set<&DetectionOptions::block_rows>},
    {"chunk-bytes", "raw CSV read-buffer bytes of the streaming path",
     Set<&DetectionOptions::chunk_bytes>},
};

/// The entry of `flags` spelled `name`, or nullptr.
template <typename Range>
auto Find(const Range& flags, const std::string& name)
    -> decltype(&*std::begin(flags)) {
  for (const auto& flag : flags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

/// The public {name, help} view of a knob table, built once and never
/// destroyed.
template <typename Target, size_t N>
const std::vector<ConfigFlag>* NewRegistry(const Knob<Target> (&knobs)[N]) {
  auto* flags = new std::vector<ConfigFlag>;
  for (const auto& knob : knobs) flags->push_back({knob.name, knob.help});
  return flags;
}

template <typename Target, size_t N>
Status Apply(const Knob<Target> (&knobs)[N], const char* kind,
             const std::string& name, const std::string& value,
             Target* target) {
  const auto* knob = Find(knobs, name);
  if (knob == nullptr) {
    return Status::NotFound(
        StrFormat("unknown %s flag '%s'", kind, name.c_str()));
  }
  // Presence on a command line arrives as the empty string.
  if (knob->presence && value.empty()) return knob->apply(name, "on", target);
  return knob->apply(name, value, target);
}

}  // namespace

const std::vector<ConfigFlag>& SagedConfigFlags() {
  static const auto& flags = *NewRegistry(kConfigKnobs);
  return flags;
}

bool IsSagedConfigFlag(const std::string& name) {
  return Find(kConfigKnobs, name) != nullptr;
}

Status ApplySagedFlag(const std::string& name, const std::string& value,
                      SagedConfig* config) {
  return Apply(kConfigKnobs, "config", name, value, config);
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
  static const auto& flags = *NewRegistry(kDetectionKnobs);
  return flags;
}

bool IsSagedDetectionFlag(const std::string& name) {
  return Find(kDetectionKnobs, name) != nullptr;
}

bool IsSagedPresenceFlag(const std::string& name) {
  const auto* knob = Find(kDetectionKnobs, name);
  return knob != nullptr && knob->presence;
}

Status ApplySagedDetectionFlag(const std::string& name,
                               const std::string& value,
                               DetectionOptions* options) {
  return Apply(kDetectionKnobs, "detection", name, value, options);
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
  return Find(SagedToolFlags(), name) != nullptr;
}

}  // namespace saged::core
