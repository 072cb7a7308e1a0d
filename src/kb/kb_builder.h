#ifndef SAGED_KB_KB_BUILDER_H_
#define SAGED_KB_KB_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/binary_io.h"
#include "common/status.h"
#include "core/knowledge_base.h"
#include "ml/classifier.h"

namespace saged {
class Executor;
}  // namespace saged

namespace saged::kb {

/// Knowledge-base store format (v4), the only format a knowledge base is
/// persisted in: the offline extraction phase writes it once (`saged
/// extract`), the online phase opens it lazily later. A store is a
/// directory:
///
///   manifest.sagk   magic "SAGK", version, char space, per-entry
///                   metadata {dataset, column, signature, shard id}, the
///                   signature index (centroids + assignments), and the
///                   shard table {filename, n_models}.
///   shard-NNNN.sags magic "SAGS", version, shard id, and that shard's
///                   models as {entry index, tag + payload} records
///                   (WriteBaseModel), in ascending entry order.
///
/// Shards are keyed by the signature index's bucket assignment: the models
/// a query probes together live in the same few files. A reader decodes a
/// shard's records in order and stops after the last model it needs.
inline constexpr uint32_t kManifestMagic = 0x5341474B;  // "SAGK"
inline constexpr uint32_t kShardMagic = 0x53414753;     // "SAGS"
inline constexpr uint32_t kStoreVersion = 4;
inline constexpr char kManifestFilename[] = "manifest.sagk";

/// "shard-0007.sags" — manifest-relative shard filename.
std::string ShardFilename(size_t shard);

struct BuildOptions {
  size_t n_buckets = 0;  // 0 = SignatureIndex::AutoBuckets(kb.size())
  uint64_t seed = 42;    // K-Means seed; fixed seed -> reproducible layout
};

/// Writes `kb` (fully resident: every entry must hold its model) as a v4
/// sharded store under `dir`, creating the directory if needed.
/// Deterministic for a given (kb, options).
[[nodiscard]] Status WriteShardedStore(const core::KnowledgeBase& kb,
                                       const std::string& dir,
                                       const BuildOptions& options = {});

/// Loads a store into a fully-hydrated, self-contained KnowledgeBase (no
/// store hooks, no leases; every model resident and owned by the returned
/// object, the signature index shared) — for callers that extend or
/// re-shard a knowledge base. Shards decode in parallel on `executor`
/// when one is given, else one after another on the calling thread.
[[nodiscard]] Result<core::KnowledgeBase> LoadFullKnowledgeBase(
    const std::string& path, Executor* executor = nullptr);

/// One shard-file model record's payload: a tag byte plus the model.
/// Supported families: random forest, gradient boosting, and logistic
/// regression; MLP base models are rejected with NotImplemented (retrain
/// them instead; they are cheap).
[[nodiscard]] Status WriteBaseModel(const ml::BinaryClassifier& model,
                                    BinaryWriter* writer);
[[nodiscard]] Result<std::unique_ptr<ml::BinaryClassifier>> ReadBaseModel(
    BinaryReader* reader);

}  // namespace saged::kb

#endif  // SAGED_KB_KB_BUILDER_H_
