#ifndef DFLOW_UTIL_BYTE_BUFFER_H_
#define DFLOW_UTIL_BYTE_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace dflow {

/// Growable little-endian byte sink used by the on-disk formats in this
/// library (database pages, WAL records, ARC/DAT containers, EventStore
/// file headers). Fixed-width integers are stored little-endian; varints use
/// the LEB128-style 7-bit encoding.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed(bits);
  }

  /// Unsigned LEB128 varint.
  void PutVarint(uint64_t v);

  /// Signed varint: ZigZag-mapped (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...)
  /// then LEB128, so small-magnitude values of either sign stay short.
  void PutVarintSigned(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  /// Length-prefixed (varint) byte string.
  void PutString(std::string_view s);

  /// Raw bytes, no length prefix.
  void PutRaw(const void* data, size_t len);
  void PutRaw(std::string_view s) { PutRaw(s.data(), s.size()); }

  size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, for a writer reused per
  /// record.
  void Clear() { buf_.clear(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string buf_;
};

/// Decodes the unsigned LEB128 varint at `*p`, reading no byte at or past
/// `end`, and advances `*p` past the bytes it read. Returns nullptr and
/// stores the value in `*value`, or returns why the bytes are not a varint:
/// truncated, or wider than 64 bits. The one varint decoder:
/// ByteReader::GetVarint and WlzDecompress's token loop both call it.
inline const char* DecodeVarint(const char** p, const char* end,
                                uint64_t* value) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (*p == end) {
      return "truncated varint";
    }
    const uint8_t byte = static_cast<uint8_t>(*(*p)++);
    if (shift >= 63 && (byte >> (70 - shift)) != 0) {
      return "varint overflow";
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = v;
      return nullptr;
    }
    shift += 7;
    if (shift > 63) {
      return "varint too long";
    }
  }
}

/// Inverts ByteWriter::PutVarintSigned's ZigZag mapping.
inline int64_t ZigZagDecode(uint64_t z) {
  return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/// Bounds-checked reader over a byte string produced by ByteWriter.
/// All getters return Status/Result rather than asserting, because readers
/// parse data that may be corrupted (the fault-injection tests rely on
/// this surfacing as Status::Corruption, not a crash).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<uint64_t> GetVarint();
  Result<int64_t> GetVarintSigned() {
    DFLOW_ASSIGN_OR_RETURN(uint64_t z, GetVarint());
    return ZigZagDecode(z);
  }
  Result<std::string> GetString();
  /// Reads exactly `len` raw bytes.
  Result<std::string> GetRaw(size_t len);

  size_t remaining() const { return data_.size() - pos_; }
  /// The most items of at least one byte each that the unread bytes can
  /// hold, capped at `count`: what a decoder may reserve for a count it
  /// has read but not yet checked.
  size_t MaxItems(uint64_t count) const {
    return static_cast<size_t>(std::min<uint64_t>(count, remaining()));
  }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

  /// The unread bytes as [cursor(), end()), for a decoder that walks them
  /// with a pointer (DecodeVarint's shape) and then hands back how far it
  /// read through SkipTo().
  const char* cursor() const { return data_.data() + pos_; }
  const char* end() const { return data_.data() + data_.size(); }
  void SkipTo(const char* p) { pos_ = static_cast<size_t>(p - data_.data()); }

 private:
  template <typename T>
  Result<T> GetFixed();

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace dflow

#endif  // DFLOW_UTIL_BYTE_BUFFER_H_
