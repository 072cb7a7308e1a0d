#ifndef SAGED_FEATURES_CHAR_SPACE_H_
#define SAGED_FEATURES_CHAR_SPACE_H_

#include <array>
#include <cstddef>
#include <vector>

#include "common/binary_io.h"

namespace saged::features {

/// Shared character -> feature-slot registry implementing the paper's
/// zero-padding scheme (Figure 5): the TF-IDF feature space is the union of
/// the character sets of all historical columns, and a column simply leaves
/// absent characters at zero.
///
/// Slots are assigned first-come during knowledge extraction. Characters
/// first seen at detection time (absent from every historical dataset) fall
/// into a single reserved overflow slot so dirty-data feature vectors keep
/// the width the base models were trained with.
class CharSpace {
 public:
  /// Largest meaningful capacity: one slot per byte value plus the overflow
  /// slot. No slot past it can ever be assigned.
  static constexpr size_t kMaxCapacity = 257;

  /// `capacity` counts assignable slots plus the reserved overflow slot.
  explicit CharSpace(size_t capacity = 64);

  /// Registers every character of `chars`, in order, until slots run out.
  void Register(const std::vector<unsigned char>& chars);

  /// Total feature width contributed by TF-IDF (== capacity).
  size_t capacity() const { return capacity_; }

  /// Number of distinct registered characters.
  size_t NumRegistered() const { return registered_; }

  /// Slot of `c`, or the overflow slot when unregistered.
  size_t SlotFor(unsigned char c) const {
    int s = slots_[c];
    return s >= 0 ? static_cast<size_t>(s) : capacity_ - 1;
  }

  bool IsRegistered(unsigned char c) const { return slots_[c] >= 0; }

  /// Persists / restores the slot assignment (knowledge-base file format).
  /// Load rejects, as IoError, any assignment Register could not have
  /// produced: a capacity outside [2, kMaxCapacity] (it sizes every feature
  /// row), or slots that are not exactly 0 .. NumRegistered() - 1, each
  /// assigned once.
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  size_t capacity_;
  size_t registered_ = 0;
  std::array<int, 256> slots_;
};

}  // namespace saged::features

#endif  // SAGED_FEATURES_CHAR_SPACE_H_
