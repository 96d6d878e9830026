#include "weblab/arc_format.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string_view>

#include "util/byte_buffer.h"
#include "util/compress.h"
#include "util/rng.h"
#include "weblab/crawler.h"

namespace dflow::weblab {
namespace {

std::vector<WebPage> SamplePages() {
  std::vector<WebPage> pages;
  for (int i = 0; i < 20; ++i) {
    WebPage page;
    page.url = "http://site" + std::to_string(i % 3) +
               ".example.org/page" + std::to_string(i) + ".html";
    page.ip = "10.0.0." + std::to_string(i);
    page.crawl_time = 850000000 + i;
    page.content = "the quick brown fox " + std::to_string(i) +
                   " jumps over the lazy dog and the lazy dog sleeps";
    page.links = {"http://site0.example.org/page0.html",
                  "http://site1.example.org/page1.html"};
    pages.push_back(std::move(page));
  }
  return pages;
}

TEST(ArcFormatTest, ArcRoundTrip) {
  std::vector<WebPage> pages = SamplePages();
  std::string blob = WriteArcFile(pages);
  auto decoded = ReadArcFile(blob);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ((*decoded)[i].url, pages[i].url);
    EXPECT_EQ((*decoded)[i].ip, pages[i].ip);
    EXPECT_EQ((*decoded)[i].crawl_time, pages[i].crawl_time);
    EXPECT_EQ((*decoded)[i].content, pages[i].content);
    EXPECT_EQ((*decoded)[i].links, pages[i].links);
  }
}

TEST(ArcFormatTest, DatRoundTripCarriesMetadataOnly) {
  std::vector<WebPage> pages = SamplePages();
  std::string blob = WriteDatFile(pages);
  auto decoded = ReadDatFile(blob);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ((*decoded)[i].url, pages[i].url);
    EXPECT_EQ((*decoded)[i].content_bytes,
              static_cast<int64_t>(pages[i].content.size()));
    EXPECT_EQ((*decoded)[i].links, pages[i].links);
  }
  // DAT is much smaller than ARC (the paper: 15 MB vs 100 MB).
  EXPECT_LT(blob.size(), WriteArcFile(pages).size());
}

TEST(ArcFormatTest, CompressionShrinksRedundantText) {
  std::vector<WebPage> pages = SamplePages();
  int64_t raw = 0;
  for (const WebPage& page : pages) {
    raw += static_cast<int64_t>(page.content.size());
  }
  std::string blob = WriteArcFile(pages);
  EXPECT_LT(static_cast<int64_t>(blob.size()), raw);
}

TEST(ArcFormatTest, WrongContainerTypeRejected) {
  std::vector<WebPage> pages = SamplePages();
  EXPECT_TRUE(ReadArcFile(WriteDatFile(pages)).status().IsCorruption());
  EXPECT_TRUE(ReadDatFile(WriteArcFile(pages)).status().IsCorruption());
}

TEST(ArcFormatTest, CorruptBlobRejected) {
  std::string blob = WriteArcFile(SamplePages());
  blob[blob.size() / 2] ^= 0x5a;
  EXPECT_FALSE(ReadArcFile(blob).ok());
  EXPECT_FALSE(ReadArcFile("garbage").ok());
}

// A CRC-valid blob whose record count is 2^58 and which holds no record:
// the count is untrusted, so the decoder must not reserve for it.
std::string ForgedCountBlob(const char* magic) {
  ByteWriter w;
  w.PutRaw(magic, 4);
  w.PutVarint(uint64_t{1} << 58);
  return WlzCompress(w.data());
}

TEST(ArcFormatTest, ForgedArcRecordCountIsCorruption) {
  const std::string blob = ForgedCountBlob("ARC2");
  EXPECT_EQ(blob.size(), 22u);
  EXPECT_TRUE(ReadArcFile(blob).status().IsCorruption());
}

TEST(ArcFormatTest, ForgedDatRecordCountIsCorruption) {
  EXPECT_TRUE(ReadDatFile(ForgedCountBlob("DAT2")).status().IsCorruption());
}

TEST(ArcFormatTest, EmptyFileRoundTrip) {
  std::string blob = WriteArcFile({});
  auto decoded = ReadArcFile(blob);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

// ---------------------------------------------------------------------------
// Randomized round-trips. The containers are length-prefixed binary, so any
// byte sequence must survive — including NULs, high bytes, and fields that
// happen to contain the container magics.

std::string RandomBytes(Rng& rng, size_t max_len) {
  const size_t len = static_cast<size_t>(
      rng.Uniform(0, static_cast<int64_t>(max_len)));
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.Uniform(0, 255)));
  }
  return out;
}

WebPage RandomPage(Rng& rng) {
  WebPage page;
  page.url = RandomBytes(rng, 120);
  page.ip = RandomBytes(rng, 16);
  // Full-range timestamps, including negative and the extremes.
  switch (rng.Uniform(0, 4)) {
    case 0: page.crawl_time = 0; break;
    case 1: page.crawl_time = std::numeric_limits<int64_t>::min(); break;
    case 2: page.crawl_time = std::numeric_limits<int64_t>::max(); break;
    default:
      page.crawl_time =
          rng.Uniform(-3000000000ll, 3000000000ll);
      break;
  }
  page.mime_type = rng.Bernoulli(0.3) ? "ARC2" : RandomBytes(rng, 24);
  page.content = RandomBytes(rng, 600);
  const int links = static_cast<int>(rng.Uniform(0, 8));
  for (int l = 0; l < links; ++l) {
    page.links.push_back(RandomBytes(rng, 80));
  }
  return page;
}

TEST(ArcFormatTest, RandomizedArcRoundTripSweep) {
  Rng rng(0xA2CF11Eull);  // "arc file"
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<WebPage> pages;
    const int count = static_cast<int>(rng.Uniform(0, 12));
    for (int i = 0; i < count; ++i) {
      pages.push_back(RandomPage(rng));
    }
    auto decoded = ReadArcFile(WriteArcFile(pages));
    ASSERT_TRUE(decoded.ok()) << "iter=" << iter << ": "
                              << decoded.status().ToString();
    ASSERT_EQ(decoded->size(), pages.size()) << "iter=" << iter;
    for (size_t i = 0; i < pages.size(); ++i) {
      ASSERT_EQ((*decoded)[i].url, pages[i].url) << "iter=" << iter;
      ASSERT_EQ((*decoded)[i].ip, pages[i].ip) << "iter=" << iter;
      ASSERT_EQ((*decoded)[i].crawl_time, pages[i].crawl_time)
          << "iter=" << iter;
      ASSERT_EQ((*decoded)[i].mime_type, pages[i].mime_type)
          << "iter=" << iter;
      ASSERT_EQ((*decoded)[i].content, pages[i].content) << "iter=" << iter;
      ASSERT_EQ((*decoded)[i].links, pages[i].links) << "iter=" << iter;
    }
  }
}

TEST(ArcFormatTest, RandomizedDatRoundTripSweep) {
  Rng rng(0xDA7F11Eull);  // "dat file"
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<WebPage> pages;
    const int count = static_cast<int>(rng.Uniform(0, 12));
    for (int i = 0; i < count; ++i) {
      pages.push_back(RandomPage(rng));
    }
    auto decoded = ReadDatFile(WriteDatFile(pages));
    ASSERT_TRUE(decoded.ok()) << "iter=" << iter << ": "
                              << decoded.status().ToString();
    ASSERT_EQ(decoded->size(), pages.size()) << "iter=" << iter;
    for (size_t i = 0; i < pages.size(); ++i) {
      ASSERT_EQ((*decoded)[i].url, pages[i].url) << "iter=" << iter;
      ASSERT_EQ((*decoded)[i].ip, pages[i].ip) << "iter=" << iter;
      ASSERT_EQ((*decoded)[i].crawl_time, pages[i].crawl_time)
          << "iter=" << iter;
      ASSERT_EQ((*decoded)[i].mime_type, pages[i].mime_type)
          << "iter=" << iter;
      ASSERT_EQ((*decoded)[i].content_bytes,
                static_cast<int64_t>(pages[i].content.size()))
          << "iter=" << iter;
      ASSERT_EQ((*decoded)[i].links, pages[i].links) << "iter=" << iter;
    }
  }
}

TEST(ArcFormatTest, RandomizedTruncationNeverSilentlyWrong) {
  // Truncating a compressed container at any point must fail cleanly, not
  // return a short page list that looks valid.
  Rng rng(0x7A11ull);
  std::vector<WebPage> pages;
  for (int i = 0; i < 6; ++i) pages.push_back(RandomPage(rng));
  const std::string blob = WriteArcFile(pages);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t keep = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(blob.size()) - 1));
    auto decoded = ReadArcFile(std::string_view(blob).substr(0, keep));
    EXPECT_FALSE(decoded.ok()) << "kept " << keep << " of " << blob.size();
  }
}

TEST(CrawlerTest, CrawlsGrowAndEvolve) {
  CrawlerConfig config;
  config.initial_pages = 300;
  config.new_pages_per_crawl = 50;
  SyntheticCrawler crawler(config);
  Crawl first = crawler.NextCrawl();
  Crawl second = crawler.NextCrawl();
  EXPECT_EQ(first.pages.size(), 300u);
  EXPECT_EQ(second.pages.size(), 350u);
  EXPECT_GT(second.crawl_time, first.crawl_time);
  // Some page changed content between crawls.
  int changed = 0;
  for (size_t i = 0; i < first.pages.size(); ++i) {
    if (second.pages[i].content != first.pages[i].content) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 30);  // ~25% change probability.
  EXPECT_LT(changed, 150);
}

TEST(CrawlerTest, PreferentialAttachmentSkewsInDegree) {
  CrawlerConfig config;
  config.initial_pages = 1500;
  SyntheticCrawler crawler(config);
  Crawl crawl = crawler.NextCrawl();
  // Count in-links.
  std::map<std::string, int> in_degree;
  for (const WebPage& page : crawl.pages) {
    for (const std::string& link : page.links) {
      ++in_degree[link];
    }
  }
  int max_in = 0;
  int64_t total = 0;
  for (const auto& [url, degree] : in_degree) {
    max_in = std::max(max_in, degree);
    total += degree;
  }
  double mean = static_cast<double>(total) /
                static_cast<double>(crawl.pages.size());
  // Scale-free-ish: the hub collects far more than the mean.
  EXPECT_GT(max_in, mean * 10);
}

TEST(CrawlerTest, DeterministicForSeed) {
  CrawlerConfig config;
  config.initial_pages = 100;
  SyntheticCrawler a(config), b(config);
  Crawl ca = a.NextCrawl(), cb = b.NextCrawl();
  ASSERT_EQ(ca.pages.size(), cb.pages.size());
  for (size_t i = 0; i < ca.pages.size(); ++i) {
    EXPECT_EQ(ca.pages[i].content, cb.pages[i].content);
  }
}

TEST(CrawlerTest, BurstWordOverrepresentedDuringBurst) {
  CrawlerConfig config;
  config.initial_pages = 400;
  config.burst_start_crawl = 2;
  config.burst_end_crawl = 3;
  config.burst_word = "election";
  SyntheticCrawler crawler(config);
  auto count_word = [&](const Crawl& crawl) {
    int64_t count = 0;
    for (const WebPage& page : crawl.pages) {
      for (size_t pos = page.content.find("election");
           pos != std::string::npos;
           pos = page.content.find("election", pos + 1)) {
        ++count;
      }
    }
    return count;
  };
  Crawl c1 = crawler.NextCrawl();
  Crawl c2 = crawler.NextCrawl();  // In burst.
  EXPECT_GT(count_word(c2), count_word(c1) * 3 + 10);
}

}  // namespace
}  // namespace dflow::weblab
