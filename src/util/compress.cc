#include "util/compress.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/byte_buffer.h"
#include "util/crc32.h"

namespace dflow {

namespace {

constexpr char kMagic[4] = {'W', 'L', 'Z', '1'};
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 16;
constexpr size_t kWindow = 1 << 16;
constexpr int kHashBits = 15;
constexpr int kMaxChainProbes = 32;

uint32_t HashAt(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void EmitLiterals(ByteWriter& w, const uint8_t* base, size_t start,
                  size_t end) {
  if (end <= start) {
    return;
  }
  w.PutU8(0x00);
  w.PutVarint(end - start);
  w.PutRaw(base + start, end - start);
}

}  // namespace

std::string WlzCompress(std::string_view input) {
  ByteWriter w;
  w.PutRaw(kMagic, sizeof(kMagic));
  w.PutVarint(input.size());
  w.PutU32(Crc32::Of(input));

  const uint8_t* data = reinterpret_cast<const uint8_t*>(input.data());
  const size_t n = input.size();

  // head[h]: most recent position with hash h; prev[i]: previous position
  // with the same hash as i (hash chains).
  std::vector<int64_t> head(size_t{1} << kHashBits, -1);
  std::vector<int64_t> prev(n, -1);

  size_t pos = 0;
  size_t literal_start = 0;
  while (pos + kMinMatch <= n) {
    uint32_t h = HashAt(data + pos);
    int64_t candidate = head[h];
    size_t best_len = 0;
    size_t best_dist = 0;
    int probes = 0;
    while (candidate >= 0 && probes < kMaxChainProbes &&
           pos - static_cast<size_t>(candidate) <= kWindow) {
      const uint8_t* a = data + candidate;
      const uint8_t* b = data + pos;
      size_t limit = std::min(n - pos, kMaxMatch);
      size_t len = 0;
      while (len < limit && a[len] == b[len]) {
        ++len;
      }
      if (len > best_len) {
        best_len = len;
        best_dist = pos - static_cast<size_t>(candidate);
        if (len >= 128) {
          break;  // Long enough; stop probing.
        }
      }
      candidate = prev[candidate];
      ++probes;
    }

    prev[pos] = head[h];
    head[h] = static_cast<int64_t>(pos);

    if (best_len >= kMinMatch) {
      EmitLiterals(w, data, literal_start, pos);
      w.PutU8(0x01);
      w.PutVarint(best_len);
      w.PutVarint(best_dist);
      // Insert hash entries for the matched region (sparsely, every other
      // byte, to bound compression cost).
      size_t insert_end = std::min(pos + best_len, n - kMinMatch + 1);
      for (size_t i = pos + 1; i < insert_end; i += 2) {
        uint32_t hi = HashAt(data + i);
        prev[i] = head[hi];
        head[hi] = static_cast<int64_t>(i);
      }
      pos += best_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  EmitLiterals(w, data, literal_start, n);
  return w.Take();
}

Result<std::string> WlzDecompress(std::string_view compressed) {
  ByteReader r(compressed);
  DFLOW_ASSIGN_OR_RETURN(std::string magic, r.GetRaw(4));
  if (std::memcmp(magic.data(), kMagic, 4) != 0) {
    return Status::Corruption("wlz: bad magic");
  }
  DFLOW_ASSIGN_OR_RETURN(uint64_t expected_size, r.GetVarint());
  DFLOW_ASSIGN_OR_RETURN(uint32_t expected_crc, r.GetU32());

  // One pass over the token stream. The size header is untrusted until the
  // trailing CRC passes: a flipped bit in the varint must not drive a giant
  // allocation. So the upfront reserve is capped, every token is
  // bounds-checked against the header before it is decoded, and `out`
  // doubles only as decoded tokens need it, never past the header.
  // out.size() >= produced throughout; the two are equal once produced
  // reaches expected_size.
  constexpr uint64_t kMaxUpfrontReserve = uint64_t{1} << 20;
  const char* p = compressed.data() + r.position();
  const char* const end = compressed.data() + compressed.size();
  std::string out;
  out.reserve(static_cast<size_t>(
      std::min<uint64_t>(expected_size, kMaxUpfrontReserve)));
  uint64_t produced = 0;
  auto make_room = [&](uint64_t len) {
    const uint64_t need = produced + len;
    if (need > out.size()) {
      out.resize(static_cast<size_t>(std::min<uint64_t>(
          expected_size, std::max<uint64_t>(need, 2 * out.size()))));
    }
  };
  while (p != end) {
    const uint8_t tag = static_cast<uint8_t>(*p++);
    if (tag != 0x00 && tag != 0x01) {
      return Status::Corruption("wlz: unknown token tag");
    }
    uint64_t len = 0;
    if (const char* error = DecodeVarint(&p, end, &len)) {
      return Status::Corruption(error);
    }
    if (tag == 0x00) {
      if (len > expected_size - produced) {
        return Status::Corruption("wlz: output overflow");
      }
      if (len > static_cast<uint64_t>(end - p)) {
        return Status::Corruption("wlz: truncated literal run");
      }
      make_room(len);
      std::memcpy(out.data() + produced, p, static_cast<size_t>(len));
      p += len;
    } else {
      uint64_t dist = 0;
      if (const char* error = DecodeVarint(&p, end, &dist)) {
        return Status::Corruption(error);
      }
      if (dist == 0 || dist > produced) {
        return Status::Corruption("wlz: invalid match distance");
      }
      if (len > expected_size - produced) {
        return Status::Corruption("wlz: output overflow");
      }
      make_room(len);
      char* dst = out.data() + produced;
      const char* src = dst - dist;
      if (dist >= len) {
        std::memcpy(dst, src, static_cast<size_t>(len));
      } else {
        // The match overlaps its own output (a run-length-style reference,
        // dist < len): each byte may be one this copy just wrote.
        for (uint64_t i = 0; i < len; ++i) {
          dst[i] = src[i];
        }
      }
    }
    produced += len;
  }
  if (produced != expected_size) {
    return Status::Corruption("wlz: size mismatch");
  }
  if (Crc32::Of(out) != expected_crc) {
    return Status::Corruption("wlz: checksum mismatch");
  }
  return out;
}

namespace {

constexpr char kChunkedMagic[4] = {'W', 'L', 'Z', 'C'};
constexpr uint8_t kFrameRaw = 0x00;
constexpr uint8_t kFrameWlz = 0x01;

}  // namespace

std::string WlzChunkedCompress(std::string_view input, size_t block_bytes,
                               WlzChunkedStats* stats) {
  if (block_bytes == 0) {
    block_bytes = 64 * 1024;
  }
  ByteWriter w;
  w.PutRaw(kChunkedMagic, sizeof(kChunkedMagic));
  w.PutVarint(block_bytes);
  w.PutVarint(input.size());
  WlzChunkedStats local;
  local.raw_bytes = static_cast<int64_t>(input.size());
  for (size_t off = 0; off < input.size(); off += block_bytes) {
    const std::string_view block =
        input.substr(off, std::min(block_bytes, input.size() - off));
    std::string packed = WlzCompress(block);
    ++local.blocks;
    if (packed.size() >= block.size()) {
      // Incompressible: store raw. Expansion is capped at this frame's
      // header, regardless of what the codec did.
      ++local.raw_blocks;
      w.PutU8(kFrameRaw);
      w.PutVarint(block.size());
      w.PutU32(Crc32::Of(block));
      w.PutRaw(block);
    } else {
      w.PutU8(kFrameWlz);
      w.PutVarint(packed.size());
      // CRC over the STORED (compressed) payload: corruption on the
      // medium is caught before any decode touches the frame.
      w.PutU32(Crc32::Of(packed));
      w.PutRaw(packed);
    }
  }
  std::string out = w.Take();
  local.stored_bytes = static_cast<int64_t>(out.size());
  if (stats != nullptr) {
    *stats = local;
  }
  return out;
}

Result<std::string> WlzChunkedDecompress(std::string_view compressed) {
  ByteReader r(compressed);
  DFLOW_ASSIGN_OR_RETURN(std::string magic, r.GetRaw(4));
  if (std::memcmp(magic.data(), kChunkedMagic, 4) != 0) {
    return Status::Corruption("wlzc: bad magic");
  }
  DFLOW_ASSIGN_OR_RETURN(uint64_t block_bytes, r.GetVarint());
  DFLOW_ASSIGN_OR_RETURN(uint64_t raw_size, r.GetVarint());
  if (block_bytes == 0) {
    return Status::Corruption("wlzc: zero block size");
  }
  std::string out;
  // Upfront reserve is capped: the size header is untrusted until the
  // frame CRCs pass (same policy as WlzDecompress).
  constexpr uint64_t kMaxUpfrontReserve = uint64_t{1} << 20;
  out.reserve(
      static_cast<size_t>(std::min<uint64_t>(raw_size, kMaxUpfrontReserve)));
  while (!r.AtEnd()) {
    if (out.size() >= raw_size) {
      return Status::Corruption("wlzc: trailing frames beyond raw size");
    }
    const uint64_t expected_block =
        std::min<uint64_t>(block_bytes, raw_size - out.size());
    DFLOW_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
    if (tag != kFrameRaw && tag != kFrameWlz) {
      return Status::Corruption("wlzc: unknown frame tag");
    }
    DFLOW_ASSIGN_OR_RETURN(uint64_t payload_len, r.GetVarint());
    DFLOW_ASSIGN_OR_RETURN(uint32_t expected_crc, r.GetU32());
    if (payload_len > r.remaining()) {
      return Status::Corruption("wlzc: truncated frame payload");
    }
    DFLOW_ASSIGN_OR_RETURN(std::string payload,
                           r.GetRaw(static_cast<size_t>(payload_len)));
    // The frame CRC gates everything else: a corrupted stored payload is
    // reported as Corruption without ever being decoded.
    if (Crc32::Of(payload) != expected_crc) {
      return Status::Corruption("wlzc: frame checksum mismatch");
    }
    if (tag == kFrameRaw) {
      if (payload.size() != expected_block) {
        return Status::Corruption("wlzc: raw frame size mismatch");
      }
      out += payload;
    } else {
      DFLOW_ASSIGN_OR_RETURN(std::string block, WlzDecompress(payload));
      if (block.size() != expected_block) {
        return Status::Corruption("wlzc: decoded block size mismatch");
      }
      out += block;
    }
  }
  if (out.size() != raw_size) {
    return Status::Corruption("wlzc: size mismatch");
  }
  return out;
}

}  // namespace dflow
