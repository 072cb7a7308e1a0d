#include "common/binary_io.h"

#include <algorithm>
#include <cstring>

namespace saged {

namespace {

template <typename T>
void WriteRaw(std::ostream* out, T v) {
  // The build targets little-endian platforms; memcpy keeps this UB-free.
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->write(buf, sizeof(T));
}

/// Bytes a length-prefixed read allocates ahead of what it has read.
constexpr uint64_t kReadChunkBytes = uint64_t{1} << 16;

}  // namespace

void BinaryWriter::WriteU8(uint8_t v) { WriteRaw(out_, v); }
void BinaryWriter::WriteU32(uint32_t v) { WriteRaw(out_, v); }
void BinaryWriter::WriteU64(uint64_t v) { WriteRaw(out_, v); }
void BinaryWriter::WriteI32(int32_t v) { WriteRaw(out_, v); }
void BinaryWriter::WriteF64(double v) { WriteRaw(out_, v); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  out_->write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryWriter::WriteF64Vector(const std::vector<double>& v) {
  WriteU64(v.size());
  for (double x : v) WriteF64(x);
}

Status BinaryReader::ReadBytes(void* dst, size_t n) {
  in_->read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (!in_->good() && !(n == 0)) {
    return Status::IoError("unexpected end of binary stream");
  }
  return Status::OK();
}

Result<uint8_t> BinaryReader::ReadU8() {
  uint8_t v = 0;
  SAGED_RETURN_NOT_OK(ReadBytes(&v, sizeof(v)));
  return v;
}

Result<uint32_t> BinaryReader::ReadU32() {
  uint32_t v = 0;
  SAGED_RETURN_NOT_OK(ReadBytes(&v, sizeof(v)));
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  uint64_t v = 0;
  SAGED_RETURN_NOT_OK(ReadBytes(&v, sizeof(v)));
  return v;
}

Result<int32_t> BinaryReader::ReadI32() {
  int32_t v = 0;
  SAGED_RETURN_NOT_OK(ReadBytes(&v, sizeof(v)));
  return v;
}

Result<double> BinaryReader::ReadF64() {
  double v = 0;
  SAGED_RETURN_NOT_OK(ReadBytes(&v, sizeof(v)));
  return v;
}

template <typename Buffer>
Status BinaryReader::ReadChunked(Buffer* out, uint64_t n) {
  using Elem = typename Buffer::value_type;
  const uint64_t chunk = kReadChunkBytes / sizeof(Elem);
  out->clear();
  while (out->size() < n) {
    size_t at = out->size();
    size_t count = static_cast<size_t>(std::min(n - at, chunk));
    out->resize(at + count);
    SAGED_RETURN_NOT_OK(ReadBytes(out->data() + at, count * sizeof(Elem)));
  }
  return Status::OK();
}

Result<std::string> BinaryReader::ReadString() {
  SAGED_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n > kMaxLength) return Status::IoError("corrupt string length");
  std::string s;
  SAGED_RETURN_NOT_OK(ReadChunked(&s, n));
  return s;
}

Result<std::vector<double>> BinaryReader::ReadF64Vector() {
  SAGED_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n > kMaxLength) return Status::IoError("corrupt vector length");
  return ReadF64s(n);
}

Result<std::vector<double>> BinaryReader::ReadF64s(uint64_t n) {
  std::vector<double> v;
  SAGED_RETURN_NOT_OK(ReadChunked(&v, n));
  return v;
}

}  // namespace saged
