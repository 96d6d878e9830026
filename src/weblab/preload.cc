#include "weblab/preload.h"

#include <chrono>
#include <mutex>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace dflow::weblab {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PreloadSubsystem::PreloadSubsystem(PreloadConfig config,
                                   db::Database* database,
                                   PageStore* page_store)
    : config_(config), db_(database), page_store_(page_store) {
  DFLOW_CHECK(db_ != nullptr);
  DFLOW_CHECK(page_store_ != nullptr);
  DFLOW_CHECK(config_.parallelism > 0);
  DFLOW_CHECK(config_.batch_size > 0);
  DFLOW_CHECK_OK(EnsureSchema());
}

Status PreloadSubsystem::EnsureSchema() {
  DFLOW_RETURN_IF_ERROR(db_->EnsureTable(
      "pages", db::Schema({{"url", db::Type::kString, false},
                           {"crawl_ts", db::Type::kInt64, false},
                           {"ip", db::Type::kString, true},
                           {"mime", db::Type::kString, true},
                           {"bytes", db::Type::kInt64, false},
                           {"out_degree", db::Type::kInt64, false}})));
  DFLOW_RETURN_IF_ERROR(db_->EnsureTable(
      "links", db::Schema({{"src", db::Type::kString, false},
                           {"dst", db::Type::kString, false},
                           {"crawl_ts", db::Type::kInt64, false}})));
  if (!config_.build_indexes) {
    return Status::OK();
  }
  DFLOW_RETURN_IF_ERROR(db_->EnsureIndex("pages_by_url", "pages", "url"));
  DFLOW_RETURN_IF_ERROR(db_->EnsureIndex("pages_by_ts", "pages", "crawl_ts"));
  return db_->EnsureIndex("links_by_src", "links", "src");
}

Result<PreloadStats> PreloadSubsystem::LoadArcFiles(
    const std::vector<std::string>& compressed_blobs) {
  PreloadStats stats;
  const double start = NowSeconds();

  // Parallel uncompress + parse; single-threaded store insert (the page
  // store is the serialized tail of the pipeline, like the DB load).
  std::vector<Result<std::vector<WebPage>>> parsed(
      compressed_blobs.size(), Status::Internal("not parsed"));
  {
    ThreadPool pool(config_.parallelism);
    for (size_t i = 0; i < compressed_blobs.size(); ++i) {
      pool.Submit([&parsed, &compressed_blobs, i] {
        parsed[i] = ReadArcFile(compressed_blobs[i]);
      });
    }
    pool.Wait();
  }

  for (size_t i = 0; i < compressed_blobs.size(); ++i) {
    if (!parsed[i].ok()) {
      return parsed[i].status();
    }
    stats.arc_files += 1;
    stats.compressed_bytes_in +=
        static_cast<int64_t>(compressed_blobs[i].size());
    for (WebPage& page : *parsed[i]) {
      stats.uncompressed_bytes += static_cast<int64_t>(page.content.size());
      Status s = page_store_->Put(page.url, page.crawl_time,
                                  std::move(page.content));
      if (s.ok()) {
        stats.pages_loaded += 1;
      } else if (!s.IsAlreadyExists()) {
        return s;
      }
    }
  }
  stats.wall_seconds = NowSeconds() - start;
  return stats;
}

Result<PreloadStats> PreloadSubsystem::LoadDatFiles(
    const std::vector<std::string>& compressed_blobs) {
  PreloadStats stats;
  const double start = NowSeconds();

  std::vector<Result<std::vector<PageMetadata>>> parsed(
      compressed_blobs.size(), Status::Internal("not parsed"));
  {
    ThreadPool pool(config_.parallelism);
    for (size_t i = 0; i < compressed_blobs.size(); ++i) {
      pool.Submit([&parsed, &compressed_blobs, i] {
        parsed[i] = ReadDatFile(compressed_blobs[i]);
      });
    }
    pool.Wait();
  }

  std::vector<db::Row> page_batch;
  std::vector<db::Row> link_batch;
  auto flush = [&]() -> Status {
    if (!page_batch.empty()) {
      DFLOW_RETURN_IF_ERROR(db_->InsertMany("pages", std::move(page_batch)));
      page_batch.clear();
    }
    if (!link_batch.empty()) {
      DFLOW_RETURN_IF_ERROR(db_->InsertMany("links", std::move(link_batch)));
      link_batch.clear();
    }
    return Status::OK();
  };

  for (size_t i = 0; i < compressed_blobs.size(); ++i) {
    if (!parsed[i].ok()) {
      return parsed[i].status();
    }
    stats.dat_files += 1;
    stats.compressed_bytes_in +=
        static_cast<int64_t>(compressed_blobs[i].size());
    for (const PageMetadata& meta : *parsed[i]) {
      stats.uncompressed_bytes += meta.content_bytes;
      page_batch.push_back(db::Row{
          db::Value::String(meta.url), db::Value::Int(meta.crawl_time),
          db::Value::String(meta.ip), db::Value::String(meta.mime_type),
          db::Value::Int(meta.content_bytes),
          db::Value::Int(static_cast<int64_t>(meta.links.size()))});
      stats.pages_loaded += 1;
      for (const std::string& target : meta.links) {
        link_batch.push_back(db::Row{db::Value::String(meta.url),
                                     db::Value::String(target),
                                     db::Value::Int(meta.crawl_time)});
        stats.links_loaded += 1;
      }
      if (page_batch.size() >= static_cast<size_t>(config_.batch_size) ||
          link_batch.size() >= static_cast<size_t>(config_.batch_size)) {
        DFLOW_RETURN_IF_ERROR(flush());
      }
    }
  }
  DFLOW_RETURN_IF_ERROR(flush());
  stats.wall_seconds = NowSeconds() - start;
  return stats;
}

}  // namespace dflow::weblab
