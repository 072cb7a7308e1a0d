#include "core/knowledge_base.h"

#include <unordered_set>

namespace saged::core {

size_t KnowledgeBase::NumDatasets() const {
  std::unordered_set<std::string> names;
  for (const auto& e : entries_) names.insert(e.dataset);
  return names.size();
}

ml::Matrix KnowledgeBase::SignatureMatrix() const {
  ml::Matrix out;
  for (const auto& e : entries_) out.AppendRow(e.signature);
  return out;
}

Result<ModelLease> KnowledgeBase::AcquireModels(
    const std::vector<size_t>& indices) {
  if (model_provider_ == nullptr) return ModelLease();
  return model_provider_(this, indices);
}

}  // namespace saged::core
