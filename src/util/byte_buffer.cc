#include "util/byte_buffer.h"

namespace dflow {

void ByteWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void ByteWriter::PutString(std::string_view s) {
  PutVarint(s.size());
  PutRaw(s);
}

void ByteWriter::PutRaw(const void* data, size_t len) {
  buf_.append(static_cast<const char*>(data), len);
}

template <typename T>
Result<T> ByteReader::GetFixed() {
  if (remaining() < sizeof(T)) {
    return Status::Corruption("byte reader underflow");
  }
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += sizeof(T);
  return v;
}

Result<uint8_t> ByteReader::GetU8() { return GetFixed<uint8_t>(); }
Result<uint16_t> ByteReader::GetU16() { return GetFixed<uint16_t>(); }
Result<uint32_t> ByteReader::GetU32() { return GetFixed<uint32_t>(); }
Result<uint64_t> ByteReader::GetU64() { return GetFixed<uint64_t>(); }

Result<int64_t> ByteReader::GetI64() {
  DFLOW_ASSIGN_OR_RETURN(uint64_t bits, GetFixed<uint64_t>());
  return static_cast<int64_t>(bits);
}

Result<double> ByteReader::GetDouble() {
  DFLOW_ASSIGN_OR_RETURN(uint64_t bits, GetFixed<uint64_t>());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<uint64_t> ByteReader::GetVarint() {
  const char* p = cursor();
  uint64_t v = 0;
  const char* error = DecodeVarint(&p, end(), &v);
  SkipTo(p);
  if (error != nullptr) {
    return Status::Corruption(error);
  }
  return v;
}

Result<std::string> ByteReader::GetString() {
  DFLOW_ASSIGN_OR_RETURN(uint64_t len, GetVarint());
  return GetRaw(static_cast<size_t>(len));
}

Result<std::string> ByteReader::GetRaw(size_t len) {
  if (remaining() < len) {
    return Status::Corruption("byte reader underflow reading raw bytes");
  }
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

}  // namespace dflow
