#include "features/char_space.h"

#include <algorithm>

#include "common/logging.h"

namespace saged::features {

CharSpace::CharSpace(size_t capacity) : capacity_(std::max<size_t>(capacity, 2)) {
  slots_.fill(-1);
}

void CharSpace::Register(const std::vector<unsigned char>& chars) {
  for (unsigned char c : chars) {
    if (slots_[c] >= 0) continue;
    if (registered_ + 1 >= capacity_) return;  // keep the overflow slot free
    slots_[c] = static_cast<int>(registered_++);
  }
}

void CharSpace::Save(BinaryWriter* writer) const {
  writer->WriteU64(capacity_);
  writer->WriteU64(registered_);
  for (int slot : slots_) writer->WriteI32(slot);
}

Status CharSpace::Load(BinaryReader* reader) {
  SAGED_ASSIGN_OR_RETURN(capacity_, reader->ReadU64());
  SAGED_ASSIGN_OR_RETURN(registered_, reader->ReadU64());
  if (capacity_ < 2 || capacity_ > kMaxCapacity || registered_ >= capacity_) {
    return Status::IoError("corrupt char space header");
  }
  std::array<bool, kMaxCapacity> taken{};
  size_t assigned = 0;
  for (auto& slot : slots_) {
    SAGED_ASSIGN_OR_RETURN(slot, reader->ReadI32());
    if (slot < 0) {
      if (slot != -1) return Status::IoError("corrupt char space slot");
      continue;
    }
    const auto s = static_cast<size_t>(slot);
    if (s >= registered_ || taken[s]) {
      return Status::IoError("corrupt char space slot");
    }
    taken[s] = true;
    ++assigned;
  }
  if (assigned != registered_) {
    return Status::IoError("char space slot count does not match its header");
  }
  return Status::OK();
}

}  // namespace saged::features
