// E12: ARC/DAT container characteristics (google-benchmark).
// Paper (Section 4.1): "Each compressed ARC file is about 100 MB big ...
// there is a metadata file in the DAT file format, also compressed ...
// average about 15 MB"; the preload subsystem "uncompresses them, parses
// them to extract relevant information". Also times the full-text index
// built over the parsed pages and the tokenizer it shares with burst
// detection, and the wlz decode and CRC-32 under ReadArcFile.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "util/compress.h"
#include "util/crc32.h"
#include "util/units.h"
#include "weblab/analysis.h"
#include "weblab/arc_format.h"
#include "weblab/crawler.h"

namespace {

using namespace dflow;

std::vector<weblab::WebPage> SharedPages() {
  static const auto& pages = *new std::vector<weblab::WebPage>([] {
    weblab::CrawlerConfig config;
    config.initial_pages = 2000;
    weblab::SyntheticCrawler crawler(config);
    return crawler.NextCrawl().pages;
  }());
  return pages;
}

int64_t ContentBytes(const std::vector<weblab::WebPage>& pages) {
  int64_t bytes = 0;
  for (const auto& page : pages) {
    bytes += static_cast<int64_t>(page.content.size());
  }
  return bytes;
}

void BM_WriteArcFile(benchmark::State& state) {
  auto pages = SharedPages();
  const int64_t raw_bytes = ContentBytes(pages);
  int64_t compressed = 0;
  for (auto _ : state) {
    std::string blob = weblab::WriteArcFile(pages);
    compressed = static_cast<int64_t>(blob.size());
    benchmark::DoNotOptimize(blob);
  }
  state.SetBytesProcessed(state.iterations() * raw_bytes);
  state.counters["compression_ratio"] =
      static_cast<double>(raw_bytes) / static_cast<double>(compressed);
}
BENCHMARK(BM_WriteArcFile);

void BM_ReadArcFile(benchmark::State& state) {
  std::string blob = weblab::WriteArcFile(SharedPages());
  int64_t pages = 0;
  for (auto _ : state) {
    auto decoded = weblab::ReadArcFile(blob);
    pages = static_cast<int64_t>(decoded->size());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(blob.size()));
  state.counters["pages"] = static_cast<double>(pages);
}
BENCHMARK(BM_ReadArcFile);

void BM_WriteDatFile(benchmark::State& state) {
  auto pages = SharedPages();
  for (auto _ : state) {
    std::string blob = weblab::WriteDatFile(pages);
    benchmark::DoNotOptimize(blob);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pages.size()));
}
BENCHMARK(BM_WriteDatFile);

void BM_ReadDatFile(benchmark::State& state) {
  std::string blob = weblab::WriteDatFile(SharedPages());
  for (auto _ : state) {
    auto decoded = weblab::ReadDatFile(blob);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_ReadDatFile);

// The paper's ARC:DAT size ratio (~100 MB : ~15 MB, i.e. ~6.7:1).
void BM_ArcToDatSizeRatio(benchmark::State& state) {
  auto pages = SharedPages();
  double ratio = 0.0;
  for (auto _ : state) {
    std::string arc = weblab::WriteArcFile(pages);
    std::string dat = weblab::WriteDatFile(pages);
    ratio = static_cast<double>(arc.size()) /
            static_cast<double>(dat.size());
    benchmark::DoNotOptimize(ratio);
  }
  state.counters["arc_to_dat_ratio"] = ratio;
}
BENCHMARK(BM_ArcToDatSizeRatio);

// The preload's decode kernels on the ARC blob of the 2,000-page crawl:
// the whole wlz decode (token loop plus the CRC-32 over its output), and
// the CRC-32 alone over the decoded bytes.
void BM_WlzDecompress(benchmark::State& state) {
  const std::string blob = weblab::WriteArcFile(SharedPages());
  int64_t raw_bytes = 0;
  for (auto _ : state) {
    auto raw = WlzDecompress(blob);
    raw_bytes = static_cast<int64_t>(raw->size());
    benchmark::DoNotOptimize(raw);
  }
  state.SetBytesProcessed(state.iterations() * raw_bytes);
}
BENCHMARK(BM_WlzDecompress)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  const std::string raw = *WlzDecompress(weblab::WriteArcFile(SharedPages()));
  for (auto _ : state) {
    uint32_t crc = Crc32::Of(raw);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(raw.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMillisecond);

// The full-text index behind WebLab search (Section 4: "full text indexes
// are highly important"), built fresh over the crawl each iteration, as a
// serving node builds it when it loads.
void BM_InvertedIndexBuild(benchmark::State& state) {
  auto pages = SharedPages();
  int64_t postings = 0;
  for (auto _ : state) {
    weblab::InvertedIndex index;
    for (const auto& page : pages) {
      index.AddPage(page.url, page.content);
    }
    postings = index.num_postings();
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pages.size()));
  state.SetBytesProcessed(state.iterations() * ContentBytes(pages));
  state.counters["postings"] = static_cast<double>(postings);
}
BENCHMARK(BM_InvertedIndexBuild)->Unit(benchmark::kMillisecond);

void BM_Tokenize(benchmark::State& state) {
  auto pages = SharedPages();
  for (auto _ : state) {
    for (const auto& page : pages) {
      std::vector<std::string> tokens = weblab::Tokenize(page.content);
      benchmark::DoNotOptimize(tokens);
    }
  }
  state.SetBytesProcessed(state.iterations() * ContentBytes(pages));
}
BENCHMARK(BM_Tokenize)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
