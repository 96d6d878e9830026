#include "util/crc32.h"

#include <array>

namespace dflow {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes into the register at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

// Little-endian load, whatever the host's byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc_;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
        kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
        kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = kTables[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  crc_ = c;
}

uint32_t Crc32::Of(std::string_view s) { return Of(s.data(), s.size()); }

uint32_t Crc32::Of(const void* data, size_t len) {
  Crc32 crc;
  crc.Update(data, len);
  return crc.Value();
}

}  // namespace dflow
