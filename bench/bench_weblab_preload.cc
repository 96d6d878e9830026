// E11: WebLab preload throughput.
// Paper (Section 4.1): target of "downloading one complete crawl of the
// Web for each year since 1996 at an average speed of 250 GB/day"; "Each
// [processing component] has been tested at sustained rates of
// approximately 1 TB per day, when given sole use of the system.
// Experiments will be carried out ... to determine the best mix of jobs";
// "Extensive benchmarking is required to tune many parameters, such as
// batch size, file size, degree of parallelism, and the index management."

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/report.h"
#include "db/database.h"
#include "util/units.h"
#include "weblab/crawler.h"
#include "weblab/preload.h"

namespace {

using namespace dflow;

struct Workload {
  std::vector<std::string> arcs;
  std::vector<std::string> dats;
  int64_t compressed_bytes = 0;
};

Workload MakeWorkload(int pages, int pages_per_file) {
  weblab::CrawlerConfig config;
  config.initial_pages = pages;
  weblab::SyntheticCrawler crawler(config);
  weblab::Crawl crawl = crawler.NextCrawl();
  Workload workload;
  for (size_t start = 0; start < crawl.pages.size();
       start += static_cast<size_t>(pages_per_file)) {
    size_t end = std::min(start + static_cast<size_t>(pages_per_file),
                          crawl.pages.size());
    std::vector<weblab::WebPage> chunk(crawl.pages.begin() + start,
                                       crawl.pages.begin() + end);
    workload.arcs.push_back(weblab::WriteArcFile(chunk));
    workload.dats.push_back(weblab::WriteDatFile(chunk));
  }
  for (const std::string& blob : workload.arcs) {
    workload.compressed_bytes += static_cast<int64_t>(blob.size());
  }
  for (const std::string& blob : workload.dats) {
    workload.compressed_bytes += static_cast<int64_t>(blob.size());
  }
  return workload;
}

/// One preload of every ARC and DAT file into a fresh database and page
/// store.
struct LoadRun {
  weblab::PreloadStats arc;
  weblab::PreloadStats dat;
};

Result<LoadRun> LoadOnce(const Workload& workload, int parallelism,
                         int batch, bool indexes) {
  db::Database db;
  weblab::PageStore store;
  weblab::PreloadConfig config;
  config.parallelism = parallelism;
  config.batch_size = batch;
  config.build_indexes = indexes;
  weblab::PreloadSubsystem preload(config, &db, &store);
  LoadRun run;
  DFLOW_ASSIGN_OR_RETURN(run.arc, preload.LoadArcFiles(workload.arcs));
  DFLOW_ASSIGN_OR_RETURN(run.dat, preload.LoadDatFiles(workload.dats));
  return run;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace

int main() {
  bench::Header("E11 -- preload throughput vs batch size / parallelism / "
                "file size",
                "250 GB/day ingest target; ~1 TB/day per component "
                "standalone; tuning parameters matter");

  Workload workload = MakeWorkload(4000, 250);
  bench::Row("workload",
             std::to_string(workload.arcs.size()) + " ARC + " +
                 std::to_string(workload.dats.size()) + " DAT files, " +
                 FormatBytes(workload.compressed_bytes) + " compressed");

  std::printf("\n  %-14s %-12s %-10s %-14s %-16s %s\n", "parallelism",
              "batch size", "indexes", "ARC rate", "DAT rate",
              "scaled (TB/day)");
  double best_rate = 0.0;
  for (int parallelism : {1, 4}) {
    for (int batch : {64, 1024}) {
      for (bool indexes : {true, false}) {
        auto run = LoadOnce(workload, parallelism, batch, indexes);
        if (!run.ok()) {
          return 1;
        }
        double total_rate =
            (static_cast<double>(run->arc.compressed_bytes_in) +
             static_cast<double>(run->dat.compressed_bytes_in)) /
            (run->arc.wall_seconds + run->dat.wall_seconds);
        std::printf("  %-14d %-12d %-10s %-14s %-16s %.2f\n", parallelism,
                    batch, indexes ? "yes" : "no",
                    FormatRate(run->arc.BytesPerSecond()).c_str(),
                    FormatRate(run->dat.BytesPerSecond()).c_str(),
                    total_rate * kDay / kTB);
        best_rate = std::max(best_rate, total_rate);
      }
    }
  }

  // The index-management and content-path comparisons time the tuned
  // configuration (parallelism 4, batch 1024) as interleaved repeats,
  // alternating which load goes first, and compare medians: one load
  // slowed by a busy host cannot flip them.
  constexpr int kRepeats = 5;
  std::vector<double> arc_rates, dat_rates_indexed, dat_rates_bare;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    bool indexed_first = repeat % 2 == 0;
    for (bool indexes : {indexed_first, !indexed_first}) {
      auto run = LoadOnce(workload, 4, 1024, indexes);
      if (!run.ok()) {
        return 1;
      }
      arc_rates.push_back(run->arc.BytesPerSecond());
      (indexes ? dat_rates_indexed : dat_rates_bare)
          .push_back(run->dat.BytesPerSecond());
    }
  }
  double arc_rate = Median(arc_rates);
  double dat_rate_indexed = Median(dat_rates_indexed);
  double dat_rate_bare = Median(dat_rates_bare);

  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.2f TB/day", best_rate * kDay / kTB);
  bench::Row("best sustained rate (scaled)", buf);
  double target = 250.0 * kGB / kDay;
  bench::Row("250 GB/day target",
             best_rate > target ? "comfortably exceeded" : "NOT met");
  std::snprintf(buf, sizeof(buf),
                "%.1fx faster without inline indexing (medians, %d repeats)",
                dat_rate_bare / dat_rate_indexed, kRepeats);
  bench::Row("index-management effect on the DB load", buf);
  std::snprintf(buf, sizeof(buf),
                "%.0fx faster than the metadata load (medians, %d repeats)",
                arc_rate / dat_rate_indexed, kRepeats);
  bench::Row("content path vs metadata path", buf);
  bench::Note("the pipeline bottleneck is the serialized, index-managed "
              "database load -- exactly the 'batch size ... and the index "
              "management' tuning the paper says needs extensive "
              "benchmarking; the 'best mix of jobs' runs the fast content "
              "path concurrently with it");

  bool shape = best_rate > target && dat_rate_bare > dat_rate_indexed &&
               arc_rate > 3 * dat_rate_indexed;
  bench::Footer(shape);
  return shape ? 0 : 1;
}
