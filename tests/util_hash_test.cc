#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "util/crc32.h"
#include "util/md5.h"
#include "util/rng.h"

namespace dflow {
namespace {

// RFC 1321 appendix A.5 test suite.
TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(Md5::HexOf(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::HexOf("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::HexOf("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::HexOf("message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::HexOf("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(Md5::HexOf("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                       "0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(Md5::HexOf("1234567890123456789012345678901234567890123456789012"
                       "3456789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalUpdateMatchesOneShot) {
  Md5 incremental;
  incremental.Update("hello ");
  incremental.Update("world, ");
  incremental.Update("this crosses block boundaries when repeated long "
                     "enough to exceed sixty-four bytes of input data");
  std::string all =
      "hello world, this crosses block boundaries when repeated long "
      "enough to exceed sixty-four bytes of input data";
  EXPECT_EQ(incremental.HexDigest(), Md5::HexOf(all));
}

TEST(Md5Test, BlockBoundaryLengths) {
  // Lengths straddling the 56-byte padding threshold and 64-byte blocks.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    std::string input(len, 'x');
    Md5 one;
    one.Update(input);
    Md5 two;
    two.Update(input.substr(0, len / 2));
    two.Update(input.substr(len / 2));
    EXPECT_EQ(one.HexDigest(), two.HexDigest()) << "len=" << len;
  }
}

TEST(Md5Test, DifferentInputsDifferentDigests) {
  EXPECT_NE(Md5::HexOf("foo"), Md5::HexOf("fop"));
  EXPECT_NE(Md5::HexOf("foo"), Md5::HexOf("foo "));
}

// The zlib/gzip CRC-32 of "123456789" is the classic check value.
TEST(Crc32Test, KnownCheckValue) {
  EXPECT_EQ(Crc32::Of("123456789"), 0xcbf43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32::Of(""), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Crc32 crc;
  crc.Update("hello ");
  crc.Update("world");
  EXPECT_EQ(crc.Value(), Crc32::Of("hello world"));
}

TEST(Crc32Test, SensitiveToSingleBitFlip) {
  std::string data(1000, 'a');
  uint32_t base = Crc32::Of(data);
  data[500] = 'b';
  EXPECT_NE(Crc32::Of(data), base);
}

// Additional known-answer vectors (IEEE 802.3 / zlib polynomial), cross-
// checked against `cksum -o3`/zlib. These pin the table generator and the
// final XOR so a silent regression cannot pass as "self-consistent".
TEST(Crc32Test, KnownAnswerVectors) {
  EXPECT_EQ(Crc32::Of("a"), 0xe8b7be43u);
  EXPECT_EQ(Crc32::Of("abc"), 0x352441c2u);
  EXPECT_EQ(Crc32::Of("message digest"), 0x20159d7fu);
  EXPECT_EQ(Crc32::Of("abcdefghijklmnopqrstuvwxyz"), 0x4c2750bdu);
  EXPECT_EQ(Crc32::Of("The quick brown fox jumps over the lazy dog"),
            0x414fa339u);
  EXPECT_EQ(Crc32::Of(std::string(32, '\0')), 0x190a55adu);
  EXPECT_EQ(Crc32::Of(std::string(32, '\xff')), 0xff6cab0bu);
}

TEST(Crc32Test, IncrementalArbitrarySplitsMatchOneShot) {
  // Any partition of the input must give the same CRC as one shot — the
  // property TransferManifest relies on when payloads arrive in chunks.
  const std::string data =
      "CLEO II event store: 2.2 TB across 20,000 runs on 45 tapes";
  const uint32_t expected = Crc32::Of(data);
  for (size_t split1 = 0; split1 <= data.size(); split1 += 7) {
    for (size_t split2 = split1; split2 <= data.size(); split2 += 11) {
      Crc32 crc;
      crc.Update(data.substr(0, split1));
      crc.Update(data.substr(split1, split2 - split1));
      crc.Update(data.substr(split2));
      EXPECT_EQ(crc.Value(), expected)
          << "splits at " << split1 << "," << split2;
    }
  }
}

// The bytewise table-driven CRC-32 that Crc32::Update used before it became
// slicing-by-8: one table lookup per input byte. The reference model for the
// differential tests below.
uint32_t BytewiseCrc32Update(uint32_t crc, const uint8_t* p, size_t len) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

uint32_t BytewiseCrc32(const std::string& s, size_t offset, size_t len) {
  return BytewiseCrc32Update(
             0xffffffffu,
             reinterpret_cast<const uint8_t*>(s.data()) + offset, len) ^
         0xffffffffu;
}

std::string RandomBytes(Rng& rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>(rng.Uniform(0, 255));
  }
  return s;
}

// Every length up to past a kilobyte, at every start offset mod 8: the
// eight-byte steps and the bytewise tail meet at every alignment.
TEST(Crc32DifferentialTest, EveryLengthAtEveryOffsetMatchesBytewise) {
  Rng rng(0xc5c32001ull);
  const std::string buf = RandomBytes(rng, 1100 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(Crc32::Of(buf.data() + offset, len),
                BytewiseCrc32(buf, offset, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32DifferentialTest, RandomBuffersMatchBytewise) {
  Rng rng(0xc5c32002ull);
  for (int iter = 0; iter < 1000; ++iter) {
    const std::string buf =
        RandomBytes(rng, static_cast<size_t>(rng.Uniform(0, 64 * 1024)));
    ASSERT_EQ(Crc32::Of(buf), BytewiseCrc32(buf, 0, buf.size()))
        << "iter=" << iter << " size=" << buf.size();
  }
}

// Update in random pieces, most of them shorter than one eight-byte step,
// must give the one-shot value: the register carries across calls at any
// alignment.
TEST(Crc32DifferentialTest, RandomUpdateSplitsMatchBytewise) {
  Rng rng(0xc5c32003ull);
  for (int iter = 0; iter < 300; ++iter) {
    const std::string buf =
        RandomBytes(rng, static_cast<size_t>(rng.Uniform(0, 4096)));
    Crc32 crc;
    for (size_t pos = 0; pos < buf.size();) {
      const size_t max_chunk = rng.Bernoulli(0.8) ? 7 : 200;
      const size_t chunk = std::min(
          buf.size() - pos,
          static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(max_chunk))));
      crc.Update(buf.data() + pos, chunk);
      pos += chunk;
    }
    ASSERT_EQ(crc.Value(), BytewiseCrc32(buf, 0, buf.size()))
        << "iter=" << iter << " size=" << buf.size();
  }
}

// MD5 vectors beyond RFC 1321: the classic fox strings, which differ by a
// single trailing '.' and must produce unrelated digests.
TEST(Md5Test, KnownAnswerVectorsFox) {
  EXPECT_EQ(Md5::HexOf("The quick brown fox jumps over the lazy dog"),
            "9e107d9d372bb6826bd81d3542a419d6");
  EXPECT_EQ(Md5::HexOf("The quick brown fox jumps over the lazy dog."),
            "e4d909c290d0fb1ca068ffaddf22cbd0");
}

TEST(Md5Test, MillionCharacterInput) {
  // 10^6 'a's — the classic long-message vector; exercises many full
  // 64-byte blocks through the incremental path in odd-sized chunks.
  const std::string chunk(617, 'a');  // Deliberately not a divisor of 64.
  Md5 md5;
  size_t fed = 0;
  while (fed + chunk.size() <= 1000000) {
    md5.Update(chunk);
    fed += chunk.size();
  }
  md5.Update(std::string(1000000 - fed, 'a'));
  EXPECT_EQ(md5.HexDigest(), "7707d6ae4e027c70eea2a935c2296f21");
}

}  // namespace
}  // namespace dflow
