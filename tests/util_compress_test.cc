#include "util/compress.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/byte_buffer.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace dflow {
namespace {

TEST(WlzTest, EmptyRoundTrip) {
  std::string compressed = WlzCompress("");
  auto out = WlzDecompress(compressed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "");
}

TEST(WlzTest, ShortLiteralRoundTrip) {
  std::string input = "abc";
  auto out = WlzDecompress(WlzCompress(input));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(WlzTest, RepetitiveInputCompressesWell) {
  std::string input;
  for (int i = 0; i < 500; ++i) {
    input += "the quick brown fox jumps over the lazy dog ";
  }
  std::string compressed = WlzCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 5);
  auto out = WlzDecompress(compressed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(WlzTest, OverlappingMatchRunLength) {
  // "aaaa..." forces matches with distance < length.
  std::string input(10000, 'a');
  std::string compressed = WlzCompress(input);
  EXPECT_LT(compressed.size(), 200u);
  auto out = WlzDecompress(compressed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(WlzTest, IncompressibleInputSurvives) {
  Rng rng(99);
  std::string input;
  input.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    input.push_back(static_cast<char>(rng.Uniform(0, 255)));
  }
  auto out = WlzDecompress(WlzCompress(input));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(WlzTest, BadMagicRejected) {
  std::string compressed = WlzCompress("hello world");
  compressed[0] = 'X';
  EXPECT_TRUE(WlzDecompress(compressed).status().IsCorruption());
}

TEST(WlzTest, TruncationDetected) {
  std::string input(1000, 'q');
  std::string compressed = WlzCompress(input);
  compressed.resize(compressed.size() / 2);
  EXPECT_FALSE(WlzDecompress(compressed).ok());
}

TEST(WlzTest, PayloadCorruptionCaughtByChecksum) {
  std::string input = "some moderately long string with repeats repeats "
                      "repeats repeats to get matches going";
  std::string compressed = WlzCompress(input);
  // Flip a byte near the end (likely inside a literal run).
  compressed[compressed.size() - 3] ^= 0x01;
  EXPECT_FALSE(WlzDecompress(compressed).ok());
}

// Property sweep: random texts with tunable repetitiveness all round-trip.
class WlzPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WlzPropertyTest, RandomTextRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  // Build text from a small word pool (repetitive) mixed with noise.
  static const char* kWords[] = {"data", "flow", "pulsar", "event",
                                 "crawl", "grid", "tape",   "archive"};
  std::string input;
  int words = 200 + GetParam() * 137;
  for (int i = 0; i < words; ++i) {
    if (rng.Bernoulli(0.2)) {
      input.push_back(static_cast<char>(rng.Uniform(32, 126)));
    } else {
      input += kWords[rng.Uniform(0, 7)];
      input += ' ';
    }
  }
  std::string compressed = WlzCompress(input);
  auto out = WlzDecompress(compressed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WlzPropertyTest, ::testing::Range(0, 12));

// Fuzz-lite: 1000 random buffers spanning the regimes the payload stages
// actually see — tiny headers, runs, structured text, and incompressible
// noise — must all round-trip bit-exactly. Single fixed seed so a failure
// reproduces; the failing iteration is identified in the assert message.
TEST(WlzTest, RandomBufferRoundTripSweep) {
  Rng rng(0xD47AF10Bull);  // "dataflow b(ench)"
  for (int iter = 0; iter < 1000; ++iter) {
    const int regime = static_cast<int>(rng.Uniform(0, 3));
    const size_t size = static_cast<size_t>(rng.Uniform(0, 2000));
    std::string input;
    input.reserve(size);
    switch (regime) {
      case 0:  // Pure noise: exercises literal runs and escape paths.
        for (size_t i = 0; i < size; ++i) {
          input.push_back(static_cast<char>(rng.Uniform(0, 255)));
        }
        break;
      case 1: {  // Runs of runs: overlapping matches, distance < length.
        while (input.size() < size) {
          const char c = static_cast<char>(rng.Uniform(0, 255));
          const size_t run =
              static_cast<size_t>(rng.Uniform(1, 64));
          input.append(std::min(run, size - input.size()), c);
        }
        break;
      }
      case 2: {  // Low-entropy alphabet: realistic log/record text.
        for (size_t i = 0; i < size; ++i) {
          input.push_back(static_cast<char>('a' + rng.Uniform(0, 3)));
        }
        break;
      }
      default: {  // Self-similar: earlier slice re-appended (long matches).
        for (size_t i = 0; i < size / 2 + 1; ++i) {
          input.push_back(static_cast<char>(rng.Uniform(32, 126)));
        }
        input += input.substr(0, std::min(input.size(), size - input.size()));
        break;
      }
    }
    auto out = WlzDecompress(WlzCompress(input));
    ASSERT_TRUE(out.ok()) << "iter=" << iter << " regime=" << regime
                          << " size=" << input.size() << ": "
                          << out.status().ToString();
    ASSERT_EQ(*out, input) << "iter=" << iter << " regime=" << regime;
  }
}

// Corrupting any single byte of a compressed frame must never yield a
// *wrong* decompression: either the checksum/structure check fails, or —
// if the flip lands in a don't-care position — the output is unchanged.
TEST(WlzTest, SingleByteCorruptionNeverSilentlyWrong) {
  Rng rng(0xBADB10C5ull);
  std::string input;
  for (int i = 0; i < 80; ++i) {
    input += (rng.Bernoulli(0.5) ? "archive tape block " : "event store run ");
  }
  const std::string compressed = WlzCompress(input);
  for (int iter = 0; iter < 300; ++iter) {
    std::string damaged = compressed;
    const size_t pos =
        static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(damaged.size()) - 1));
    damaged[pos] ^= static_cast<char>(1 << rng.Uniform(0, 7));
    auto out = WlzDecompress(damaged);
    if (out.ok()) {
      EXPECT_EQ(*out, input) << "silent corruption at byte " << pos;
    }
  }
}

// --- One-pass decoder vs the token loop it replaced. ----------------------

constexpr uint64_t kMaxMatch = 1 << 16;  // The longest match WlzCompress emits.

// WlzDecompress as it was before the one-pass rewrite: a ByteReader token
// loop that copies literals through a temporary string and matches byte by
// byte with push_back. Its overflow check is written `len > expected_size -
// out.size()` so a forged length near 2^64 cannot wrap past it. The
// reference model for the differential tests.
Result<std::string> ReferenceWlzDecompress(std::string_view compressed) {
  ByteReader r(compressed);
  DFLOW_ASSIGN_OR_RETURN(std::string magic, r.GetRaw(4));
  if (magic != "WLZ1") {
    return Status::Corruption("wlz: bad magic");
  }
  DFLOW_ASSIGN_OR_RETURN(uint64_t expected_size, r.GetVarint());
  DFLOW_ASSIGN_OR_RETURN(uint32_t expected_crc, r.GetU32());
  std::string out;
  out.reserve(static_cast<size_t>(
      std::min<uint64_t>(expected_size, uint64_t{1} << 20)));
  while (!r.AtEnd()) {
    DFLOW_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
    if (tag == 0x00) {
      DFLOW_ASSIGN_OR_RETURN(uint64_t len, r.GetVarint());
      if (len > expected_size - out.size()) {
        return Status::Corruption("wlz: output overflow");
      }
      DFLOW_ASSIGN_OR_RETURN(std::string bytes,
                             r.GetRaw(static_cast<size_t>(len)));
      out += bytes;
    } else if (tag == 0x01) {
      DFLOW_ASSIGN_OR_RETURN(uint64_t len, r.GetVarint());
      DFLOW_ASSIGN_OR_RETURN(uint64_t dist, r.GetVarint());
      if (dist == 0 || dist > out.size()) {
        return Status::Corruption("wlz: invalid match distance");
      }
      if (len > expected_size - out.size()) {
        return Status::Corruption("wlz: output overflow");
      }
      size_t src = out.size() - static_cast<size_t>(dist);
      for (uint64_t i = 0; i < len; ++i) {
        out.push_back(out[src + i]);
      }
    } else {
      return Status::Corruption("wlz: unknown token tag");
    }
  }
  if (out.size() != expected_size) {
    return Status::Corruption("wlz: size mismatch");
  }
  if (Crc32::Of(out) != expected_crc) {
    return Status::Corruption("wlz: checksum mismatch");
  }
  return out;
}

// Both decoders agree: both fail with Corruption, or both succeed with the
// same bytes.
void ExpectDecodersAgree(std::string_view stream, const std::string& what) {
  auto got = WlzDecompress(stream);
  auto want = ReferenceWlzDecompress(stream);
  ASSERT_EQ(got.ok(), want.ok())
      << what << ": new " << got.status().ToString() << ", reference "
      << want.status().ToString();
  if (got.ok()) {
    ASSERT_EQ(*got, *want) << what;
  } else {
    ASSERT_TRUE(got.status().IsCorruption()) << what;
    ASSERT_TRUE(want.status().IsCorruption()) << what;
  }
}

// A wlz stream written token by token: a literal is tag 0x00, a varint
// length and the bytes; a match is tag 0x01, a varint length and a varint
// distance. The header carries `size` and `crc` as given.
std::string WlzHeader(uint64_t size, uint32_t crc) {
  ByteWriter w;
  w.PutRaw("WLZ1", 4);
  w.PutVarint(size);
  w.PutU32(crc);
  return w.Take();
}

// A literal "a" and then a match whose length, 2^64 - 1, makes `produced +
// len` wrap to 0: an overflow check written that way lets it through.
TEST(WlzTest, MatchLengthNearTwoToTheSixtyFourIsCorruption) {
  ByteWriter w;
  w.PutRaw(WlzHeader(10, 0));
  w.PutU8(0x00);
  w.PutVarint(1);
  w.PutRaw("a");
  w.PutU8(0x01);
  w.PutVarint(std::numeric_limits<uint64_t>::max());
  w.PutVarint(1);
  ASSERT_EQ(w.size(), 24u);
  EXPECT_TRUE(WlzDecompress(w.data()).status().IsCorruption());
}

TEST(WlzTest, LiteralLengthNearTwoToTheSixtyFourIsCorruption) {
  ByteWriter w;
  w.PutRaw(WlzHeader(10, 0));
  w.PutU8(0x00);
  w.PutVarint(1);
  w.PutRaw("a");
  w.PutU8(0x00);
  w.PutVarint(std::numeric_limits<uint64_t>::max());
  w.PutRaw("bcdefghij");
  EXPECT_TRUE(WlzDecompress(w.data()).status().IsCorruption());
}

// Seeded token streams built directly, so every kind of match occurs:
// overlapping ones (dist < len), dist 1 runs, and lengths up to kMaxMatch.
// The header's size and CRC are those of the output the tokens describe.
TEST(WlzDifferentialTest, RandomTokenStreamsMatchReference) {
  Rng rng(0x3a7c0001ull);
  for (int iter = 0; iter < 1000; ++iter) {
    std::string expected;
    ByteWriter tokens;
    const int num_tokens = static_cast<int>(rng.Uniform(1, 40));
    for (int t = 0; t < num_tokens; ++t) {
      if (expected.empty() || rng.Bernoulli(0.35)) {
        const size_t len = static_cast<size_t>(rng.Uniform(0, 300));
        std::string bytes(len, '\0');
        for (char& c : bytes) {
          c = static_cast<char>(rng.Uniform(0, 255));
        }
        tokens.PutU8(0x00);
        tokens.PutVarint(len);
        tokens.PutRaw(bytes);
        expected += bytes;
        continue;
      }
      uint64_t dist = 0;
      uint64_t len = 0;
      switch (rng.Uniform(0, 3)) {
        case 0:  // Run: dist 1, sometimes as long as a match gets.
          dist = 1;
          len = rng.Bernoulli(0.01)
                    ? kMaxMatch
                    : static_cast<uint64_t>(rng.Uniform(1, 600));
          break;
        case 1:  // Overlapping: dist < len.
          dist = static_cast<uint64_t>(rng.Uniform(
              1, std::min<int64_t>(16, static_cast<int64_t>(expected.size()))));
          len = dist + static_cast<uint64_t>(rng.Uniform(1, 200));
          break;
        default:  // Anywhere back in the output, overlapping or not.
          dist = static_cast<uint64_t>(
              rng.Uniform(1, static_cast<int64_t>(expected.size())));
          len = static_cast<uint64_t>(rng.Uniform(4, 400));
          break;
      }
      tokens.PutU8(0x01);
      tokens.PutVarint(len);
      tokens.PutVarint(dist);
      const size_t src = expected.size() - dist;
      for (uint64_t i = 0; i < len; ++i) {
        expected.push_back(expected[src + i]);
      }
    }
    const std::string stream =
        WlzHeader(expected.size(), Crc32::Of(expected)) + tokens.data();
    auto got = WlzDecompress(stream);
    ASSERT_TRUE(got.ok()) << "iter=" << iter << ": "
                          << got.status().ToString();
    ASSERT_EQ(*got, expected) << "iter=" << iter;
    ExpectDecodersAgree(stream, "iter=" + std::to_string(iter));
  }
}

// A 64 KB stream from the compressor, cut at every byte and damaged one
// byte at a time: the decoders fail together or agree on the bytes.
std::string SixtyFourKilobyteInput() {
  Rng rng(0x3a7c0002ull);
  static const char* kWords[] = {"pulsar ", "beam ", "dm=112.5 ", "tape ",
                                 "archive ", "crawl ", "event "};
  std::string input;
  while (input.size() < 64 * 1024) {
    if (rng.Bernoulli(0.05)) {
      input.append(static_cast<size_t>(rng.Uniform(1, 300)), 'z');
    } else if (rng.Bernoulli(0.1)) {
      input.push_back(static_cast<char>(rng.Uniform(0, 255)));
    } else {
      input += kWords[rng.Uniform(0, 6)];
    }
  }
  input.resize(64 * 1024);
  return input;
}

TEST(WlzDifferentialTest, TruncationAtEveryByteMatchesReference) {
  const std::string stream = WlzCompress(SixtyFourKilobyteInput());
  for (size_t len = 0; len < stream.size(); ++len) {
    const std::string_view cut(stream.data(), len);
    auto got = WlzDecompress(cut);
    ASSERT_FALSE(got.ok()) << "len=" << len;
    ASSERT_TRUE(got.status().IsCorruption()) << "len=" << len;
    ASSERT_FALSE(ReferenceWlzDecompress(cut).ok()) << "len=" << len;
  }
}

TEST(WlzDifferentialTest, SingleByteMutationsMatchReference) {
  const std::string input = SixtyFourKilobyteInput();
  const std::string stream = WlzCompress(input);
  Rng rng(0x3a7c0003ull);
  int rejected = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    std::string damaged = stream;
    const size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(damaged.size()) - 1));
    damaged[pos] = static_cast<char>(
        static_cast<uint8_t>(damaged[pos]) ^ rng.Uniform(1, 255));
    ExpectDecodersAgree(damaged, "iter=" + std::to_string(iter) +
                                     " pos=" + std::to_string(pos));
    auto got = WlzDecompress(damaged);
    if (got.ok()) {
      ASSERT_EQ(*got, input) << "silent corruption at byte " << pos;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 900);
}

// Compressor round trips over inputs that make it emit long runs and
// overlapping matches, decoded by both decoders.
TEST(WlzDifferentialTest, CompressorRoundTripsMatchReference) {
  Rng rng(0x3a7c0004ull);
  for (int iter = 0; iter < 200; ++iter) {
    std::string input;
    const size_t size = static_cast<size_t>(rng.Uniform(0, 8192));
    while (input.size() < size) {
      if (rng.Bernoulli(0.3)) {
        input.append(static_cast<size_t>(rng.Uniform(1, 500)),
                     static_cast<char>(rng.Uniform(0, 3)));
      } else if (rng.Bernoulli(0.5) && !input.empty()) {
        const size_t from = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(input.size()) - 1));
        input += input.substr(from, static_cast<size_t>(rng.Uniform(1, 100)));
      } else {
        input.push_back(static_cast<char>(rng.Uniform(0, 255)));
      }
    }
    if (iter % 50 == 0) {
      input.append(kMaxMatch + 10, 'r');  // A run past the longest match.
    }
    const std::string stream = WlzCompress(input);
    auto got = WlzDecompress(stream);
    ASSERT_TRUE(got.ok()) << "iter=" << iter;
    ASSERT_EQ(*got, input) << "iter=" << iter;
    ExpectDecodersAgree(stream, "iter=" + std::to_string(iter));
  }
}

// --- Chunked container (wlzc). ------------------------------------------

TEST(WlzChunkedTest, EmptyAndTinyRoundTrip) {
  for (const std::string& input : {std::string(), std::string("x"),
                                   std::string("abc")}) {
    WlzChunkedStats stats;
    std::string packed = WlzChunkedCompress(input, 64, &stats);
    EXPECT_EQ(stats.raw_bytes, static_cast<int64_t>(input.size()));
    auto out = WlzChunkedDecompress(packed);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, input);
  }
}

TEST(WlzChunkedTest, IncompressibleInputStoresRawWithBoundedExpansion) {
  // High-entropy input: every block must fall back to a stored-raw frame,
  // and total expansion is capped by the per-block frame header —
  // regardless of what the codec would have produced.
  Rng rng(77);
  std::string input;
  for (int i = 0; i < 64 * 1024; ++i) {
    input.push_back(static_cast<char>(rng.Uniform(0, 255)));
  }
  constexpr size_t kBlock = 4096;
  WlzChunkedStats stats;
  std::string packed = WlzChunkedCompress(input, kBlock, &stats);
  EXPECT_EQ(stats.raw_blocks, stats.blocks) << "random data compressed?";
  // Container magic+varints plus <= 11 bytes per frame (tag + 5-byte
  // varint worst case + CRC).
  const size_t max_overhead = 16 + static_cast<size_t>(stats.blocks) * 11;
  EXPECT_LE(packed.size(), input.size() + max_overhead);
  auto out = WlzChunkedDecompress(packed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(WlzChunkedTest, AlreadyCompressedInputRoundTripsWithoutExpansion) {
  // Compressing a wlzc container again (the double-compression accident):
  // output of the first pass is mostly incompressible, so the second pass
  // must stay within header overhead and round-trip exactly.
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "beam=7;dm=112.5;cand=42;";
  }
  std::string once = WlzChunkedCompress(text, 1024);
  WlzChunkedStats stats;
  std::string twice = WlzChunkedCompress(once, 1024, &stats);
  const size_t max_overhead = 16 + static_cast<size_t>(stats.blocks) * 11;
  EXPECT_LE(twice.size(), once.size() + max_overhead);
  auto unpacked_twice = WlzChunkedDecompress(twice);
  ASSERT_TRUE(unpacked_twice.ok());
  auto unpacked_once = WlzChunkedDecompress(*unpacked_twice);
  ASSERT_TRUE(unpacked_once.ok());
  EXPECT_EQ(*unpacked_once, text);
}

TEST(WlzChunkedTest, ExactRoundTripAtEveryChunkBoundary) {
  // Sizes straddling every block boundary: block-1, block, block+1, and
  // the same around multiples — the off-by-one territory of the framer.
  constexpr size_t kBlock = 256;
  Rng rng(78);
  for (size_t base : {kBlock, 2 * kBlock, 3 * kBlock}) {
    for (int64_t delta = -2; delta <= 2; ++delta) {
      const size_t size = base + static_cast<size_t>(delta);
      std::string input;
      input.reserve(size);
      for (size_t i = 0; i < size; ++i) {
        // Mildly compressible mix so both frame kinds occur.
        input.push_back(i % 3 == 0
                            ? 'a'
                            : static_cast<char>(rng.Uniform(0, 255)));
      }
      auto out = WlzChunkedDecompress(WlzChunkedCompress(input, kBlock));
      ASSERT_TRUE(out.ok()) << "size=" << size;
      EXPECT_EQ(*out, input) << "size=" << size;
    }
  }
}

TEST(WlzChunkedTest, RandomizedRoundTrips) {
  // 1k randomized round-trips across sizes and block sizes, mixed entropy.
  Rng rng(79);
  for (int trial = 0; trial < 1000; ++trial) {
    const size_t block =
        static_cast<size_t>(rng.Uniform(16, 512));
    const size_t size = static_cast<size_t>(rng.Uniform(0, 2048));
    const int entropy = static_cast<int>(rng.Uniform(1, 255));
    std::string input;
    input.reserve(size);
    for (size_t i = 0; i < size; ++i) {
      input.push_back(static_cast<char>(rng.Uniform(0, entropy)));
    }
    WlzChunkedStats stats;
    std::string packed = WlzChunkedCompress(input, block, &stats);
    EXPECT_EQ(stats.raw_bytes, static_cast<int64_t>(input.size()));
    EXPECT_EQ(stats.stored_bytes, static_cast<int64_t>(packed.size()));
    auto out = WlzChunkedDecompress(packed);
    ASSERT_TRUE(out.ok()) << "trial=" << trial << " block=" << block
                          << " size=" << size;
    ASSERT_EQ(*out, input) << "trial=" << trial;
  }
}

TEST(WlzChunkedTest, PerFrameCorruptionIsDetectedBeforeDecode) {
  std::string text;
  for (int i = 0; i < 4000; ++i) {
    text += "survey=palfa;beam=" + std::to_string(i % 7) + ";";
  }
  std::string packed = WlzChunkedCompress(text, 1024);
  Rng rng(80);
  int detected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string damaged = packed;
    // Flip one bit anywhere past the container header.
    const size_t pos = static_cast<size_t>(
        rng.Uniform(10, static_cast<int64_t>(damaged.size()) - 1));
    damaged[pos] ^= static_cast<char>(1 << rng.Uniform(0, 7));
    auto out = WlzChunkedDecompress(damaged);
    if (!out.ok()) {
      EXPECT_TRUE(out.status().IsCorruption()) << out.status().ToString();
      ++detected;
    } else {
      // The flip landed somewhere expendable only if output still exact.
      EXPECT_EQ(*out, text);
    }
  }
  EXPECT_GT(detected, 150) << "frame CRCs should catch nearly every flip";
}

TEST(WlzChunkedTest, TruncationAndBadMagicAreCorruption) {
  std::string packed = WlzChunkedCompress("hello chunked world", 8);
  EXPECT_TRUE(WlzChunkedDecompress(packed.substr(0, packed.size() - 3))
                  .status()
                  .IsCorruption());
  std::string bad_magic = packed;
  bad_magic[3] = 'X';
  EXPECT_TRUE(WlzChunkedDecompress(bad_magic).status().IsCorruption());
  EXPECT_TRUE(WlzChunkedDecompress("").status().IsCorruption());
}

}  // namespace
}  // namespace dflow
