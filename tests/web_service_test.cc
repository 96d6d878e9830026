// The Web-Services dissemination layer: the registry plus the three
// project services (the paper's Section-5 "next step": "extend the
// functionality of their dissemination Web Services to enable full access
// to data and analysis functionality").

#include <cstdint>

#include <gtest/gtest.h>

#include "arecibo/candidate_service.h"
#include "core/web_service.h"
#include "util/md5.h"
#include "util/rng.h"
#include "util/strings.h"
#include "eventstore/event_store.h"
#include "eventstore/eventstore_service.h"
#include "weblab/crawler.h"
#include "weblab/preload.h"
#include "weblab/weblab_service.h"

namespace dflow {
namespace {

using core::ServiceRegistry;
using core::ServiceRequest;

ServiceRequest Req(const std::string& path,
                   std::map<std::string, std::string> params = {}) {
  ServiceRequest request;
  request.path = path;
  request.params = std::move(params);
  return request;
}

/// Records the inner path each dispatch delivers, so routing tests can
/// observe exactly what the registry handed the service.
class RecordingService : public core::WebService {
 public:
  explicit RecordingService(std::string name) : name_(std::move(name)) {}
  Result<core::ServiceResponse> Handle(
      const core::ServiceRequest& request) override {
    last_path_ = request.path;
    core::ServiceResponse response;
    response.body = name_ + ":" + request.path;
    return response;
  }
  std::vector<std::string> Endpoints() const override { return {"any"}; }
  const std::string& name() const override { return name_; }
  const std::string& last_path() const { return last_path_; }

 private:
  std::string name_;
  std::string last_path_;
};

TEST(ServiceRegistryTest, RoutesByPrefix) {
  ServiceRegistry registry;
  db::Database db;
  auto service = arecibo::CandidateService::Create(&db);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(registry.Mount("arecibo", std::move(*service)).ok());
  EXPECT_TRUE(registry.Mount("arecibo", nullptr).IsInvalidArgument());

  auto ok = registry.Handle(Req("arecibo/count"));
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(registry.Handle(Req("nope/count")).status().IsNotFound());
  EXPECT_TRUE(
      registry.Handle(Req("arecibo/bogus")).status().IsNotFound());

  auto endpoints = registry.Endpoints();
  EXPECT_EQ(endpoints.size(), 4u);
  EXPECT_EQ(endpoints[0].substr(0, 8), "arecibo/");
}

TEST(ServiceRegistryTest, MountValidation) {
  ServiceRegistry registry;
  auto service = std::make_shared<RecordingService>("svc");
  EXPECT_TRUE(registry.Mount("", service).IsInvalidArgument());
  EXPECT_TRUE(registry.Mount("/abs", service).IsInvalidArgument());
  EXPECT_TRUE(registry.Mount("trail/", service).IsInvalidArgument());
  ASSERT_TRUE(registry.Mount("svc", service).ok());
  // Duplicate prefix (even with a different service) is AlreadyExists.
  EXPECT_TRUE(registry
                  .Mount("svc", std::make_shared<RecordingService>("other"))
                  .IsAlreadyExists());
  // Nested prefixes are allowed.
  EXPECT_TRUE(
      registry.Mount("svc/deep", std::make_shared<RecordingService>("deep"))
          .ok());
}

TEST(ServiceRegistryTest, EmptyPathAndExactPrefixPaths) {
  ServiceRegistry registry;
  auto service = std::make_shared<RecordingService>("svc");
  ASSERT_TRUE(registry.Mount("svc", service).ok());

  // Empty path never routes.
  EXPECT_TRUE(registry.Handle(Req("")).status().IsNotFound());

  // Path equal to the mount prefix dispatches with an empty inner path.
  auto exact = registry.Handle(Req("svc"));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(service->last_path(), "");

  // Prefix plus trailing slash behaves identically.
  auto trailing = registry.Handle(Req("svc/"));
  ASSERT_TRUE(trailing.ok());
  EXPECT_EQ(service->last_path(), "");

  // Normal dispatch strips exactly the prefix and one slash.
  auto nested = registry.Handle(Req("svc/a/b"));
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(service->last_path(), "a/b");

  // A leading slash is not a mounted prefix.
  EXPECT_TRUE(registry.Handle(Req("/svc/a")).status().IsNotFound());
}

TEST(ServiceRegistryTest, NestedPrefixesLongestMatchWins) {
  ServiceRegistry registry;
  auto outer = std::make_shared<RecordingService>("outer");
  auto inner = std::make_shared<RecordingService>("inner");
  ASSERT_TRUE(registry.Mount("cleo", outer).ok());
  ASSERT_TRUE(registry.Mount("cleo/es2", inner).ok());

  auto deep = registry.Handle(Req("cleo/es2/resolve"));
  ASSERT_TRUE(deep.ok());
  EXPECT_EQ(deep->body, "inner:resolve");

  auto shallow = registry.Handle(Req("cleo/grades"));
  ASSERT_TRUE(shallow.ok());
  EXPECT_EQ(shallow->body, "outer:grades");

  // Exactly the nested prefix -> inner service, empty path.
  auto exact_inner = registry.Handle(Req("cleo/es2"));
  ASSERT_TRUE(exact_inner.ok());
  EXPECT_EQ(inner->last_path(), "");

  // "cleo/es2extra" is NOT under "cleo/es2" (no '/' boundary): it is the
  // endpoint "es2extra" of the outer service.
  auto boundary = registry.Handle(Req("cleo/es2extra"));
  ASSERT_TRUE(boundary.ok());
  EXPECT_EQ(boundary->body, "outer:es2extra");

  // Registration order must not matter: mount outer after inner.
  ServiceRegistry reversed;
  ASSERT_TRUE(reversed.Mount("a/b", inner).ok());
  ASSERT_TRUE(reversed.Mount("a", outer).ok());
  auto routed = reversed.Handle(Req("a/b/c"));
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->body, "inner:c");
}

TEST(ServiceRequestTest, IntParamErrorPaths) {
  ServiceRequest request = Req(
      "x", {{"ok", "42"},
            {"neg", "-7"},
            {"empty", ""},
            {"alpha", "abc"},
            {"trailing", "12abc"},
            {"overflow", "9223372036854775808"},     // INT64_MAX + 1.
            {"underflow", "-9223372036854775809"},   // INT64_MIN - 1.
            {"huge", "99999999999999999999999999"},
            {"max", "9223372036854775807"},
            {"min", "-9223372036854775808"}});

  // Missing key -> fallback, not an error.
  auto missing = request.IntParam("nope", 123);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(*missing, 123);

  EXPECT_EQ(*request.IntParam("ok", 0), 42);
  EXPECT_EQ(*request.IntParam("neg", 0), -7);
  // Extremes parse exactly.
  EXPECT_EQ(*request.IntParam("max", 0), INT64_MAX);
  EXPECT_EQ(*request.IntParam("min", 0), INT64_MIN);

  // Error paths are InvalidArgument, never a silent fallback or clamp.
  EXPECT_TRUE(request.IntParam("empty", 0).status().IsInvalidArgument());
  EXPECT_TRUE(request.IntParam("alpha", 0).status().IsInvalidArgument());
  EXPECT_TRUE(request.IntParam("trailing", 0).status().IsInvalidArgument());
  EXPECT_TRUE(request.IntParam("overflow", 0).status().IsInvalidArgument());
  EXPECT_TRUE(request.IntParam("underflow", 0).status().IsInvalidArgument());
  EXPECT_TRUE(request.IntParam("huge", 0).status().IsInvalidArgument());
}

TEST(CandidateServiceTest, TopCountAndVoTable) {
  db::Database db;
  auto service_or = arecibo::CandidateService::Create(&db);
  ASSERT_TRUE(service_or.ok());
  arecibo::CandidateService& service = **service_or;

  std::vector<arecibo::Candidate> batch;
  for (int i = 0; i < 10; ++i) {
    arecibo::Candidate candidate;
    candidate.pointing = i / 5;
    candidate.beam = i % 7;
    candidate.freq_hz = 4.0 + i;
    candidate.dm = 60.0;
    candidate.snr = 10.0 + i;
    candidate.rfi_flag = (i % 3 == 0);
    batch.push_back(candidate);
  }
  ASSERT_TRUE(service.Load(batch).ok());

  auto top = service.Handle(Req("top", {{"limit", "3"}}));
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->content_type, "text/tab-separated-values");
  // Header + 3 rows, strongest (snr=19 has i=9, rfi) -- excluded; i=8
  // snr=18 leads.
  auto lines = Split(top->body, '\n');
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines[1].find("18"), std::string::npos);

  auto with_rfi =
      service.Handle(Req("top", {{"limit", "20"}, {"include_rfi", "1"}}));
  EXPECT_GT(with_rfi->body.size(), top->body.size());

  auto count = service.Handle(Req("count"));
  ASSERT_TRUE(count.ok());
  EXPECT_NE(count->body.find("rfi\t4"), std::string::npos);
  EXPECT_NE(count->body.find("astrophysical\t6"), std::string::npos);

  auto votable = service.Handle(Req("votable", {{"pointing", "0"}}));
  ASSERT_TRUE(votable.ok());
  EXPECT_EQ(votable->content_type, "text/xml");
  EXPECT_NE(votable->body.find("<VOTABLE"), std::string::npos);

  auto pointings = service.Handle(Req("pointings"));
  EXPECT_EQ(pointings->body, "0\n1\n");

  EXPECT_TRUE(service.Handle(Req("top", {{"limit", "abc"}}))
                  .status()
                  .IsInvalidArgument());
}

TEST(EventStoreServiceTest, ResolveGradesHistorySummary) {
  auto store_or = eventstore::EventStore::Create(
      eventstore::StoreScale::kCollaboration);
  ASSERT_TRUE(store_or.ok());
  eventstore::EventStore& store = **store_or;
  for (int64_t run = 1; run <= 3; ++run) {
    ASSERT_TRUE(store
                    .RegisterFile({run, "recon", "R1", 100, 1000,
                                   "/hsm/" + std::to_string(run), {}})
                    .ok());
  }
  ASSERT_TRUE(store.AssignGrade("physics", 200, {1, 3}, "recon", "R1").ok());

  eventstore::EventStoreService service(&store);
  auto resolve = service.Handle(
      Req("resolve", {{"grade", "physics"}, {"ts", "300"}}));
  ASSERT_TRUE(resolve.ok());
  auto lines = Split(resolve->body, '\n');
  EXPECT_EQ(lines.size(), 5u);  // Header + 3 files + trailing empty.
  EXPECT_NE(resolve->body.find("recon\tR1\t1000"), std::string::npos);

  EXPECT_EQ(service.Handle(Req("grades"))->body, "physics\n");
  auto history = service.Handle(Req("history", {{"grade", "physics"}}));
  EXPECT_NE(history->body.find("200\t1\t3\trecon\tR1"), std::string::npos);
  auto versions = service.Handle(
      Req("versions", {{"run", "2"}, {"data_type", "recon"}}));
  EXPECT_EQ(versions->body, "R1\n");
  auto summary = service.Handle(Req("summary"));
  EXPECT_NE(summary->body.find("recon\t3\t3000"), std::string::npos);

  EXPECT_TRUE(service.Handle(Req("resolve")).status().IsInvalidArgument());
  EXPECT_TRUE(service.Handle(Req("nothing")).status().IsNotFound());
}

TEST(WebLabServiceTest, RetroSearchPagesExtract) {
  weblab::CrawlerConfig config;
  config.initial_pages = 300;
  weblab::SyntheticCrawler crawler(config);
  weblab::Crawl crawl = crawler.NextCrawl();

  db::Database db;
  weblab::PageStore page_store;
  weblab::PreloadSubsystem preload(weblab::PreloadConfig{}, &db, &page_store);
  ASSERT_TRUE(
      preload.LoadArcFiles({weblab::WriteArcFile(crawl.pages)}).ok());
  ASSERT_TRUE(
      preload.LoadDatFiles({weblab::WriteDatFile(crawl.pages)}).ok());
  weblab::InvertedIndex index;
  for (const auto& page : crawl.pages) {
    index.AddPage(page.url, page.content);
  }

  weblab::WebLabService service(&page_store, &db, &index);

  const std::string url = crawl.pages[100].url;
  auto retro = service.Handle(
      Req("retro", {{"url", url},
                    {"date", std::to_string(crawl.crawl_time + 5)}}));
  ASSERT_TRUE(retro.ok());
  EXPECT_EQ(retro->body, crawl.pages[100].content);
  auto links = service.Handle(
      Req("links", {{"url", url},
                    {"date", std::to_string(crawl.crawl_time + 5)}}));
  ASSERT_TRUE(links.ok());
  EXPECT_EQ(Split(links->body, '\n').size() - 1,
            crawl.pages[100].links.size());

  // Full-text search: the Zipf rank-1 word matches many pages.
  auto search = service.Handle(Req("search", {{"q", "w1"}}));
  ASSERT_TRUE(search.ok());
  EXPECT_GT(Split(search->body, '\n').size(), 100u);

  auto pages = service.Handle(Req("pages", {{"limit", "10"}}));
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(Split(pages->body, '\n').size(), 12u);  // Header + 10 + tail.

  auto extract = service.Handle(Req(
      "extract",
      {{"name", "big"},
       {"sql", "SELECT url, bytes FROM pages WHERE bytes > 2000"}}));
  ASSERT_TRUE(extract.ok());
  EXPECT_TRUE(db.Execute("SELECT COUNT(*) FROM big").ok());

  // A federation registry spanning all three projects resolves paths.
  core::ServiceRegistry registry;
  auto candidates = arecibo::CandidateService::Create(&db);
  ASSERT_TRUE(registry
                  .Mount("weblab", std::make_shared<weblab::WebLabService>(
                                       &page_store, &db, &index))
                  .ok());
  ASSERT_TRUE(registry.Mount("arecibo", std::move(*candidates)).ok());
  EXPECT_TRUE(registry.Handle(Req("weblab/pages")).ok());
  EXPECT_TRUE(registry.Handle(Req("arecibo/count")).ok());
}

/// The three services mounted over one fixed, seeded dataset: Arecibo
/// candidates (with a few hand-picked doubles that change how "%g" writes
/// them), an EventStore with two versions of some runs, provenance on
/// some files and two evolving grades, and a 40-page WebLab crawl.
struct SeededServices {
  db::Database arecibo_db;
  std::unique_ptr<eventstore::EventStore> store;
  db::Database weblab_db;
  weblab::PageStore page_store;
  weblab::InvertedIndex index;
  weblab::Crawl crawl;
  ServiceRegistry registry;

  void SetUp() {
    Rng rng(42);
    std::vector<arecibo::Candidate> candidates;
    for (int pointing = 0; pointing < 6; ++pointing) {
      for (int i = 0; i < 25; ++i) {
        arecibo::Candidate candidate;
        candidate.pointing = pointing;
        candidate.beam = static_cast<int>(rng.Uniform(0, 6));
        candidate.freq_hz = rng.UniformReal(1.0, 700.0);
        candidate.dm = rng.UniformReal(10.0, 300.0);
        candidate.snr = rng.UniformReal(8.0, 40.0);
        candidate.rfi_flag = rng.Bernoulli(0.3);
        candidates.push_back(candidate);
      }
    }
    for (double freq : {1e-7, 0.000123456789, 1234567.5, 1e15, 0.0}) {
      arecibo::Candidate candidate;
      candidate.pointing = 6;
      candidate.freq_hz = freq;
      candidate.dm = freq * 3;
      candidate.snr = 100.0 + freq;
      candidates.push_back(candidate);
    }
    auto candidate_service = arecibo::CandidateService::Create(&arecibo_db);
    ASSERT_TRUE(candidate_service.ok());
    ASSERT_TRUE((*candidate_service)->Load(candidates).ok());
    ASSERT_TRUE(
        registry.Mount("arecibo", std::move(*candidate_service)).ok());

    auto created =
        eventstore::EventStore::Create(eventstore::StoreScale::kCollaboration);
    ASSERT_TRUE(created.ok());
    store = *std::move(created);
    prov::ProcessingStep step;
    step.module = "recon";
    step.version = prov::VersionTag{"Recon", "Feb13_04_P2", 1076630400};
    step.input_files = {"/raw/run"};
    for (int64_t run = 1; run <= 30; ++run) {
      for (const char* data_type : {"raw", "recon"}) {
        eventstore::FileEntry entry{run, data_type, "R1", 100 + run,
                                    100000 + 1000 * run,
                                    "/hsm/" + std::string(data_type) + "/" +
                                        std::to_string(run),
                                    {}};
        if (run % 3 == 0) {
          entry.provenance.AddStep(step);
        }
        ASSERT_TRUE(store->RegisterFile(entry).ok());
      }
      if (run % 4 == 0) {
        ASSERT_TRUE(store
                        ->RegisterFile({run, "recon", "R2", 400 + run,
                                        200000 + run, "/hsm/recon2", {}})
                        .ok());
      }
    }
    for (int k = 1; k <= 5; ++k) {
      ASSERT_TRUE(store
                      ->AssignGrade("physics", 100 * k, {1, 6 * k}, "recon",
                                    k >= 4 ? "R2" : "R1")
                      .ok());
    }
    ASSERT_TRUE(store->AssignGrade("prelim", 250, {5, 20}, "raw", "R1").ok());
    ASSERT_TRUE(registry
                    .Mount("cleo",
                           std::make_shared<eventstore::EventStoreService>(
                               store.get()))
                    .ok());

    weblab::CrawlerConfig config;
    config.initial_pages = 40;
    config.seed = 7;
    crawl = weblab::SyntheticCrawler(config).NextCrawl();
    weblab::PreloadSubsystem preload(weblab::PreloadConfig{}, &weblab_db,
                                     &page_store);
    ASSERT_TRUE(
        preload.LoadArcFiles({weblab::WriteArcFile(crawl.pages)}).ok());
    ASSERT_TRUE(
        preload.LoadDatFiles({weblab::WriteDatFile(crawl.pages)}).ok());
    for (const auto& page : crawl.pages) {
      index.AddPage(page.url, page.content);
    }
    ASSERT_TRUE(registry
                    .Mount("weblab", std::make_shared<weblab::WebLabService>(
                                         &page_store, &weblab_db, &index))
                    .ok());
  }

  int64_t Count(const std::string& table) {
    auto result = weblab_db.Execute("SELECT COUNT(*) FROM " + table);
    return result.ok() ? result->rows[0][0].AsInt() : -1;
  }
};

// Every byte each service serves, pinned: the MD5 over every endpoint's
// request, content type and body (all but extract, which writes). The
// constant was recorded from the std::ostringstream body writers, so a
// writer, row decoder or snapshot resolution that moves any served byte
// fails here.
TEST(ServedBytesTest, EveryEndpointBodyIsPinned) {
  SeededServices services;
  services.SetUp();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  std::vector<ServiceRequest> requests;
  requests.push_back(Req("arecibo/votable"));
  for (int pointing = 0; pointing <= 6; ++pointing) {
    requests.push_back(
        Req("arecibo/votable", {{"pointing", std::to_string(pointing)}}));
  }
  for (const char* limit : {"5", "200"}) {
    for (const char* rfi : {"0", "1"}) {
      requests.push_back(
          Req("arecibo/top", {{"limit", limit}, {"include_rfi", rfi}}));
    }
  }
  requests.push_back(Req("arecibo/count"));
  requests.push_back(Req("arecibo/pointings"));
  for (const char* grade : {"physics", "prelim"}) {
    for (int64_t ts : {50, 100, 150, 250, 399, 400, 450, 600}) {
      requests.push_back(
          Req("cleo/resolve", {{"grade", grade}, {"ts", std::to_string(ts)}}));
    }
  }
  requests.push_back(Req("cleo/resolve", {{"grade", "physics"}}));
  requests.push_back(Req("cleo/grades"));
  requests.push_back(Req("cleo/history", {{"grade", "physics"}}));
  requests.push_back(Req("cleo/history", {{"grade", "prelim"}}));
  for (int64_t run : {1, 4, 8, 30}) {
    requests.push_back(Req("cleo/versions", {{"run", std::to_string(run)},
                                             {"data_type", "recon"}}));
  }
  requests.push_back(Req("cleo/summary"));
  const std::string date = std::to_string(services.crawl.crawl_time + 5);
  for (size_t i = 0; i < services.crawl.pages.size(); i += 4) {
    for (const char* path : {"weblab/retro", "weblab/links"}) {
      requests.push_back(
          Req(path, {{"url", services.crawl.pages[i].url}, {"date", date}}));
    }
  }
  for (const char* q : {"w1", "w2 w3", "w7", "w40"}) {
    requests.push_back(Req("weblab/search", {{"q", q}}));
  }
  for (const char* limit : {"10", "100"}) {
    requests.push_back(Req("weblab/pages", {{"limit", limit}}));
  }
  requests.push_back(Req(
      "weblab/pages",
      {{"since", std::to_string(services.crawl.crawl_time)}, {"limit", "3"}}));

  Md5 md5;
  size_t body_bytes = 0;
  for (const ServiceRequest& request : requests) {
    auto response = services.registry.Handle(request);
    ASSERT_TRUE(response.ok())
        << request.path << ": " << response.status().ToString();
    md5.Update(request.path + "\n");
    for (const auto& [key, value] : request.params) {
      md5.Update(key + "=" + value + "\n");
    }
    md5.Update(response->content_type + "\n");
    md5.Update(std::to_string(response->body.size()) + "\n");
    md5.Update(response->body);
    body_bytes += response->body.size();
  }
  EXPECT_GT(body_bytes, 50000u);
  EXPECT_EQ(md5.HexDigest(), "13561ebf673253249c715669acd33d14");
}

// A served extract runs only a SELECT: a DELETE or DROP TABLE in ?sql=
// is refused before it can change the database.
TEST(WebLabServiceTest, ExtractRefusesStatementsThatAreNotSelects) {
  SeededServices services;
  services.SetUp();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const int64_t pages = services.Count("pages");
  const int64_t links = services.Count("links");
  ASSERT_GT(pages, 0);
  ASSERT_GT(links, 0);
  const std::vector<std::string> tables =
      services.weblab_db.catalog().TableNames();

  for (const char* sql : {"DELETE FROM links", "DROP TABLE pages"}) {
    auto response = services.registry.Handle(
        Req("weblab/extract", {{"name", "v1"}, {"sql", sql}}));
    EXPECT_TRUE(response.status().IsInvalidArgument()) << sql;
    EXPECT_EQ(services.Count("pages"), pages) << sql;
    EXPECT_EQ(services.Count("links"), links) << sql;
    EXPECT_EQ(services.weblab_db.catalog().TableNames(), tables) << sql;
  }
  auto extract = services.registry.Handle(Req(
      "weblab/extract", {{"name", "v1"}, {"sql", "SELECT url FROM pages"}}));
  ASSERT_TRUE(extract.ok()) << extract.status().ToString();
  EXPECT_EQ(services.Count("v1"), pages);
}

}  // namespace
}  // namespace dflow
