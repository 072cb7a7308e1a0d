#ifndef SAGED_COMMON_BINARY_IO_H_
#define SAGED_COMMON_BINARY_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace saged {

/// Little binary serialization layer used to persist trained models (the
/// knowledge base survives across offline / online runs). Fixed-width
/// little-endian primitives; strings and vectors are length-prefixed.
/// Writers collect into the stream; readers validate as they go and report
/// corruption through Status.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* out) : out_(out) {}

  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteF64Vector(const std::vector<double>& v);

  /// True when every write so far succeeded.
  bool ok() const { return out_->good(); }
  Status status() const {
    return ok() ? Status::OK() : Status::IoError("binary write failed");
  }

 private:
  std::ostream* out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream* in) : in_(in) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<double> ReadF64();
  Result<std::string> ReadString();
  Result<std::vector<double>> ReadF64Vector();
  /// `n` raw doubles (no length prefix), e.g. a matrix of known shape.
  Result<std::vector<double>> ReadF64s(uint64_t n);

  /// Guards length-prefixed reads against corrupted / truncated files.
  /// Buffers grow as their bytes arrive, in bounded chunks, so a hostile
  /// length prefix costs at most the bytes really in the stream.
  static constexpr uint64_t kMaxLength = 1ull << 32;

 private:
  Status ReadBytes(void* dst, size_t n);
  template <typename Buffer>
  Status ReadChunked(Buffer* out, uint64_t n);

  std::istream* in_;
};

}  // namespace saged

#endif  // SAGED_COMMON_BINARY_IO_H_
