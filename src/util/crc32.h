#ifndef DFLOW_UTIL_CRC32_H_
#define DFLOW_UTIL_CRC32_H_

#include <cstdint>
#include <string_view>

namespace dflow {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant), table-driven
/// (slicing-by-8: eight input bytes per step).
/// Used for per-file integrity checks in the transport manifests: the paper
/// lists "assessment and maintenance of data integrity" as a main issue of
/// the Arecibo disk-shipment pipeline.
class Crc32 {
 public:
  Crc32() = default;

  /// Absorbs `data`; can be called repeatedly.
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  /// Current checksum of everything absorbed so far.
  uint32_t Value() const { return crc_ ^ 0xffffffffu; }

  /// Convenience: checksum of a single buffer.
  static uint32_t Of(std::string_view s);
  static uint32_t Of(const void* data, size_t len);

 private:
  uint32_t crc_ = 0xffffffffu;
};

}  // namespace dflow

#endif  // DFLOW_UTIL_CRC32_H_
