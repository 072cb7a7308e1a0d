#include "kb/kb_builder.h"

#include <filesystem>
#include <fstream>

#include "core/signature_index.h"
#include "kb/shard_store.h"
#include "ml/gradient_boosting.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"

namespace saged::kb {

namespace {

enum ModelTag : uint8_t {
  kTagRandomForest = 1,
  kTagGradientBoosting = 2,
  kTagLogisticRegression = 3,
};

template <typename Model>
Result<std::unique_ptr<ml::BinaryClassifier>> LoadModel(BinaryReader* reader) {
  auto model = std::make_unique<Model>();
  SAGED_RETURN_NOT_OK(model->Load(reader));
  return std::unique_ptr<ml::BinaryClassifier>(std::move(model));
}

}  // namespace

std::string ShardFilename(size_t shard) {
  std::string digits = std::to_string(shard);
  while (digits.size() < 4) digits.insert(digits.begin(), '0');
  return "shard-" + digits + ".sags";
}

Status WriteShardedStore(const core::KnowledgeBase& kb, const std::string& dir,
                         const BuildOptions& options) {
  if (kb.empty()) {
    return Status::InvalidArgument("refusing to write an empty sharded store");
  }
  for (const core::BaseModelEntry& entry : kb.entries()) {
    if (entry.model == nullptr) {
      return Status::InvalidArgument(
          "knowledge base is not fully hydrated; acquire every model "
          "(kb::LoadFullKnowledgeBase) before sharding it");
    }
  }
  SAGED_ASSIGN_OR_RETURN(core::SignatureIndex index,
                         core::SignatureIndex::Build(kb.SignatureMatrix(),
                                                     options.n_buckets,
                                                     options.seed));

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create store directory '" + dir +
                           "': " + ec.message());
  }

  const size_t n_shards = index.n_buckets();
  for (size_t s = 0; s < n_shards; ++s) {
    const std::vector<size_t>& members = index.buckets()[s];
    std::string path = dir + "/" + ShardFilename(s);
    std::ofstream out(path, std::ios::binary);
    if (!out) return Status::IoError("cannot open '" + path + "' for writing");
    BinaryWriter writer(&out);
    writer.WriteU32(kShardMagic);
    writer.WriteU32(kStoreVersion);
    writer.WriteU32(static_cast<uint32_t>(s));
    writer.WriteU64(members.size());
    for (size_t e : members) {
      writer.WriteU64(e);
      SAGED_RETURN_NOT_OK(WriteBaseModel(*kb.entries()[e].model, &writer));
    }
    SAGED_RETURN_NOT_OK(writer.status());
    out.flush();
    if (!out) return Status::IoError("write to '" + path + "' failed");
  }

  std::string manifest_path = dir + "/" + kManifestFilename;
  std::ofstream out(manifest_path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open '" + manifest_path + "' for writing");
  }
  BinaryWriter writer(&out);
  writer.WriteU32(kManifestMagic);
  writer.WriteU32(kStoreVersion);
  kb.char_space().Save(&writer);
  writer.WriteU64(kb.size());
  const std::vector<uint32_t>& assignments = index.assignments();
  for (size_t e = 0; e < kb.size(); ++e) {
    const core::BaseModelEntry& entry = kb.entries()[e];
    writer.WriteString(entry.dataset);
    writer.WriteString(entry.column);
    writer.WriteF64Vector(entry.signature);
    writer.WriteU32(assignments[e]);
  }
  index.Save(&writer);
  writer.WriteU64(n_shards);
  for (size_t s = 0; s < n_shards; ++s) {
    writer.WriteString(ShardFilename(s));
    writer.WriteU64(index.buckets()[s].size());
  }
  SAGED_RETURN_NOT_OK(writer.status());
  out.flush();
  if (!out) return Status::IoError("write to '" + manifest_path + "' failed");
  return Status::OK();
}

Result<core::KnowledgeBase> LoadFullKnowledgeBase(const std::string& path,
                                                  Executor* executor) {
  SAGED_ASSIGN_OR_RETURN(std::unique_ptr<ShardStore> store,
                         ShardStore::Open(path, ShardStore::OpenOptions{}));
  SAGED_ASSIGN_OR_RETURN(core::KnowledgeBase kb, store->MakeKnowledgeBase());
  SAGED_ASSIGN_OR_RETURN(core::ModelLease lease,
                         store->AcquireAll(&kb, executor));
  // The cache is unbounded here, so releasing the lease evicts nothing:
  // the knowledge base keeps ownership of every hydrated model. Drop the
  // store hooks and it is fully self-contained.
  lease.reset();
  kb.SetModelProvider(core::ModelProvider());
  return kb;
}

Status WriteBaseModel(const ml::BinaryClassifier& model, BinaryWriter* writer) {
  if (const auto* forest =
          dynamic_cast<const ml::RandomForestClassifier*>(&model)) {
    writer->WriteU8(kTagRandomForest);
    forest->Save(writer);
    return writer->status();
  }
  if (const auto* booster =
          dynamic_cast<const ml::GradientBoostingClassifier*>(&model)) {
    writer->WriteU8(kTagGradientBoosting);
    booster->Save(writer);
    return writer->status();
  }
  if (const auto* logistic =
          dynamic_cast<const ml::LogisticRegression*>(&model)) {
    writer->WriteU8(kTagLogisticRegression);
    logistic->Save(writer);
    return writer->status();
  }
  return Status::NotImplemented(
      "only forest / boosting / logistic base models are serializable");
}

Result<std::unique_ptr<ml::BinaryClassifier>> ReadBaseModel(
    BinaryReader* reader) {
  SAGED_ASSIGN_OR_RETURN(uint8_t tag, reader->ReadU8());
  switch (tag) {
    case kTagRandomForest:
      return LoadModel<ml::RandomForestClassifier>(reader);
    case kTagGradientBoosting:
      return LoadModel<ml::GradientBoostingClassifier>(reader);
    case kTagLogisticRegression:
      return LoadModel<ml::LogisticRegression>(reader);
    default:
      return Status::IoError("unknown model tag in shard file");
  }
}

}  // namespace saged::kb
