#include "weblab/preload.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "weblab/crawler.h"
#include "weblab/retro_browser.h"

namespace dflow::weblab {
namespace {

class PreloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CrawlerConfig config;
    config.initial_pages = 200;
    config.new_pages_per_crawl = 40;
    crawler_ = std::make_unique<SyntheticCrawler>(config);
  }

  /// Packs a crawl into ARC/DAT blobs of `pages_per_file` pages.
  static std::pair<std::vector<std::string>, std::vector<std::string>>
  PackCrawl(const Crawl& crawl, size_t pages_per_file = 50) {
    std::vector<std::string> arcs, dats;
    for (size_t start = 0; start < crawl.pages.size();
         start += pages_per_file) {
      size_t end = std::min(start + pages_per_file, crawl.pages.size());
      std::vector<WebPage> chunk(crawl.pages.begin() + start,
                                 crawl.pages.begin() + end);
      arcs.push_back(WriteArcFile(chunk));
      dats.push_back(WriteDatFile(chunk));
    }
    return {arcs, dats};
  }

  std::unique_ptr<SyntheticCrawler> crawler_;
  db::Database db_;
  PageStore page_store_;
};

TEST_F(PreloadTest, LoadsMetadataAndContent) {
  Crawl crawl = crawler_->NextCrawl();
  auto [arcs, dats] = PackCrawl(crawl);

  PreloadSubsystem preload(PreloadConfig{}, &db_, &page_store_);
  auto arc_stats = preload.LoadArcFiles(arcs);
  ASSERT_TRUE(arc_stats.ok());
  EXPECT_EQ(arc_stats->pages_loaded, 200);
  EXPECT_EQ(arc_stats->arc_files, 4);
  EXPECT_GT(arc_stats->uncompressed_bytes, arc_stats->compressed_bytes_in);

  auto dat_stats = preload.LoadDatFiles(dats);
  ASSERT_TRUE(dat_stats.ok());
  EXPECT_EQ(dat_stats->pages_loaded, 200);
  EXPECT_GT(dat_stats->links_loaded, 0);

  // Metadata landed in the relational database.
  auto count = db_.Execute("SELECT COUNT(*) FROM pages");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 200);
  auto links = db_.Execute("SELECT COUNT(*) FROM links");
  EXPECT_EQ(links->rows[0][0].AsInt(), dat_stats->links_loaded);

  // Content landed in the page store.
  EXPECT_EQ(page_store_.NumPages(), 200);
  auto content = page_store_.Get(crawl.pages[0].url, crawl.crawl_time);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, crawl.pages[0].content);
}

TEST_F(PreloadTest, ArcAndDatProcessedIndependently) {
  Crawl crawl = crawler_->NextCrawl();
  auto [arcs, dats] = PackCrawl(crawl);
  PreloadSubsystem preload(PreloadConfig{}, &db_, &page_store_);
  // DAT-only load works without the ARC side (§4.1).
  ASSERT_TRUE(preload.LoadDatFiles(dats).ok());
  EXPECT_EQ(db_.Execute("SELECT COUNT(*) FROM pages")->rows[0][0].AsInt(),
            200);
  EXPECT_EQ(page_store_.NumPages(), 0);
}

TEST_F(PreloadTest, MultipleCrawlsAccumulateVersions) {
  PreloadSubsystem preload(PreloadConfig{}, &db_, &page_store_);
  Crawl first = crawler_->NextCrawl();
  Crawl second = crawler_->NextCrawl();
  for (const Crawl* crawl : {&first, &second}) {
    auto [arcs, dats] = PackCrawl(*crawl);
    ASSERT_TRUE(preload.LoadArcFiles(arcs).ok());
    ASSERT_TRUE(preload.LoadDatFiles(dats).ok());
  }
  // 200 pages in crawl 1, 240 in crawl 2 -> 440 versions, 240 urls.
  EXPECT_EQ(page_store_.NumVersions(), 440);
  EXPECT_EQ(page_store_.NumPages(), 240);
  EXPECT_EQ(db_.Execute("SELECT COUNT(*) FROM pages")->rows[0][0].AsInt(),
            440);

  // Time-sliced query: pages of the first crawl only.
  auto sliced = db_.Execute("SELECT COUNT(*) FROM pages WHERE crawl_ts = " +
                            std::to_string(first.crawl_time));
  EXPECT_EQ(sliced->rows[0][0].AsInt(), 200);
}

TEST_F(PreloadTest, ParallelismAndBatchSizeVariantsAgree) {
  Crawl crawl = crawler_->NextCrawl();
  auto [arcs, dats] = PackCrawl(crawl, 20);
  for (int parallelism : {1, 4}) {
    for (int batch : {16, 512}) {
      db::Database db;
      PageStore store;
      PreloadConfig config;
      config.parallelism = parallelism;
      config.batch_size = batch;
      PreloadSubsystem preload(config, &db, &store);
      ASSERT_TRUE(preload.LoadArcFiles(arcs).ok());
      auto stats = preload.LoadDatFiles(dats);
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->pages_loaded, 200);
      EXPECT_EQ(db.Execute("SELECT COUNT(*) FROM pages")->rows[0][0].AsInt(),
                200);
      EXPECT_EQ(store.NumPages(), 200);
    }
  }
}

TEST_F(PreloadTest, CorruptBlobSurfacesError) {
  Crawl crawl = crawler_->NextCrawl();
  auto [arcs, dats] = PackCrawl(crawl);
  arcs[1][20] ^= 0x42;
  PreloadSubsystem preload(PreloadConfig{}, &db_, &page_store_);
  EXPECT_FALSE(preload.LoadArcFiles(arcs).ok());
}

TEST(PageStoreTest, VersioningSemantics) {
  PageStore store;
  ASSERT_TRUE(store.Put("u", 100, "v1").ok());
  ASSERT_TRUE(store.Put("u", 300, "v3").ok());
  ASSERT_TRUE(store.Put("u", 200, "v2").ok());  // Out-of-order insert.
  EXPECT_TRUE(store.Put("u", 200, "dup").IsAlreadyExists());

  EXPECT_EQ(store.Versions("u"), (std::vector<int64_t>{100, 200, 300}));
  EXPECT_EQ(*store.Get("u", 200), "v2");
  EXPECT_TRUE(store.Get("u", 150).status().IsNotFound());
  EXPECT_EQ(*store.GetAsOf("u", 250), "v2");
  EXPECT_EQ(*store.GetAsOf("u", 99999), "v3");
  EXPECT_TRUE(store.GetAsOf("u", 50).status().IsNotFound());
  EXPECT_TRUE(store.GetAsOf("ghost", 200).status().IsNotFound());
  EXPECT_EQ(store.TotalBytes(), 6);  // "v1"+"v3"+"v2"; rejected dup excluded.
}

TEST_F(PreloadTest, RetroBrowserServesHistoricalVersions) {
  PreloadSubsystem preload(PreloadConfig{}, &db_, &page_store_);
  Crawl first = crawler_->NextCrawl();
  Crawl second = crawler_->NextCrawl();
  for (const Crawl* crawl : {&first, &second}) {
    auto [arcs, dats] = PackCrawl(*crawl);
    ASSERT_TRUE(preload.LoadArcFiles(arcs).ok());
    ASSERT_TRUE(preload.LoadDatFiles(dats).ok());
  }

  RetroBrowser browser(&page_store_, &db_);
  const std::string url = first.pages[0].url;

  // Browsing "as of" the first crawl returns the old content.
  auto old_page = browser.Browse(url, first.crawl_time + 1000);
  ASSERT_TRUE(old_page.ok());
  EXPECT_EQ(old_page->version_time, first.crawl_time);
  EXPECT_EQ(old_page->content, first.pages[0].content);

  // Browsing later returns the revised page.
  auto new_page = browser.Browse(url, second.crawl_time + 1000);
  ASSERT_TRUE(new_page.ok());
  EXPECT_EQ(new_page->version_time, second.crawl_time);
  EXPECT_EQ(new_page->content, second.pages[0].content);

  // Before the first crawl the page did not exist yet.
  EXPECT_TRUE(browser.Browse(url, first.crawl_time - 1).status().IsNotFound());

  // Navigation: follow a link, staying at the historical date.
  if (!old_page->links.empty()) {
    auto linked = browser.FollowLink(*old_page, 0, first.crawl_time + 1000);
    ASSERT_TRUE(linked.ok());
    EXPECT_EQ(linked->version_time, first.crawl_time);
  }
  EXPECT_TRUE(browser.FollowLink(*old_page, 999, first.crawl_time)
                  .status()
                  .IsOutOfRange());
}

TEST_F(PreloadTest, ReopenCreatesTheMissingSchema) {
  // A durable database killed after its first CREATE TABLE, or after its
  // first CREATE INDEX: the reopened one gains every missing table and
  // index, and the loads and the browser's outlink reads work.
  const std::string path =
      (std::filesystem::temp_directory_path() / "dflow_preload_partial.wal")
          .string();
  for (bool killed_after_first_index : {false, true}) {
    std::filesystem::remove(path);
    {
      auto db = db::Database::Open(path);
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE(
          (*db)->Execute("CREATE TABLE pages (url TEXT NOT NULL, crawl_ts INT "
                         "NOT NULL, ip TEXT, mime TEXT, bytes INT NOT NULL, "
                         "out_degree INT NOT NULL)")
              .ok());
      if (killed_after_first_index) {
        ASSERT_TRUE((*db)->Execute("CREATE TABLE links (src TEXT NOT NULL, "
                                   "dst TEXT NOT NULL, crawl_ts INT NOT NULL)")
                        .ok());
        ASSERT_TRUE(
            (*db)->Execute("CREATE INDEX pages_by_url ON pages (url)").ok());
      }
    }
    auto db = db::Database::Open(path);
    ASSERT_TRUE(db.ok());
    PageStore page_store;
    PreloadSubsystem preload(PreloadConfig{}, db->get(), &page_store);
    const db::Catalog& catalog = (*db)->catalog();
    ASSERT_NE(catalog.Find("links"), nullptr);
    EXPECT_NE(catalog.Find("pages")->FindIndexOnColumn("url"), nullptr);
    EXPECT_NE(catalog.Find("pages")->FindIndexOnColumn("crawl_ts"), nullptr);
    EXPECT_NE(catalog.Find("links")->FindIndexOnColumn("src"), nullptr);

    Crawl crawl = crawler_->NextCrawl();
    auto [arcs, dats] = PackCrawl(crawl);
    ASSERT_TRUE(preload.LoadArcFiles(arcs).ok());
    auto dat_stats = preload.LoadDatFiles(dats);
    ASSERT_TRUE(dat_stats.ok());
    EXPECT_GT(dat_stats->links_loaded, 0);
    RetroBrowser browser(&page_store, db->get());
    auto page = browser.Browse(crawl.pages[0].url, crawl.crawl_time);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->content, crawl.pages[0].content);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".pages");
}

TEST_F(PreloadTest, BrowserReadsOutlinksWithOrWithoutTheIndex) {
  // The outlinks come through the src index when there is one and through
  // the heap otherwise, in the same order.
  db::Database bare;
  PageStore bare_store;
  PreloadConfig no_indexes;
  no_indexes.build_indexes = false;
  PreloadSubsystem indexed_load(PreloadConfig{}, &db_, &page_store_);
  PreloadSubsystem bare_load(no_indexes, &bare, &bare_store);
  Crawl crawl = crawler_->NextCrawl();
  auto [arcs, dats] = PackCrawl(crawl);
  for (PreloadSubsystem* preload : {&indexed_load, &bare_load}) {
    ASSERT_TRUE(preload->LoadArcFiles(arcs).ok());
    ASSERT_TRUE(preload->LoadDatFiles(dats).ok());
  }
  ASSERT_EQ(bare.catalog().Find("links")->FindIndexOnColumn("src"), nullptr);
  RetroBrowser indexed(&page_store_, &db_);
  RetroBrowser heap(&bare_store, &bare);
  size_t links = 0;
  for (const WebPage& page : crawl.pages) {
    auto a = indexed.Browse(page.url, crawl.crawl_time);
    auto b = heap.Browse(page.url, crawl.crawl_time);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->links, b->links) << page.url;
    links += a->links.size();
  }
  EXPECT_GT(links, 0u);
}

}  // namespace
}  // namespace dflow::weblab
