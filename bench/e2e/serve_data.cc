#include "serve_data.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "arecibo/candidate_service.h"
#include "e2e.h"
#include "eventstore/eventstore_service.h"
#include "serve/response_cache.h"
#include "util/rng.h"
#include "weblab/crawler.h"
#include "weblab/preload.h"
#include "weblab/weblab_service.h"

namespace e2e {

using dflow::Result;
using dflow::Status;
using dflow::core::ServiceRegistry;
using dflow::core::ServiceRequest;

namespace {

int Scaled(int base, double scale, int floor) {
  return std::max(floor, static_cast<int>(std::lround(base * scale)));
}

ServiceRequest Req(std::string path,
                   std::map<std::string, std::string> params = {}) {
  return ServiceRequest{std::move(path), std::move(params)};
}

}  // namespace

DataSpec HotSpec(double scale) {
  DataSpec spec;
  spec.pointings = Scaled(40, scale, 2);
  spec.runs = Scaled(60, scale, 4);
  spec.pages = Scaled(400, scale, 20);
  spec.retro_requests = Scaled(300, scale, 10);
  spec.links_requests = Scaled(100, scale, 5);
  spec.versions_requests = Scaled(20, scale, 2);
  return spec;
}

DataSpec ColdSpec(double scale) {
  DataSpec spec;
  spec.pointings = Scaled(400, scale, 4);
  spec.runs = Scaled(600, scale, 8);
  spec.grade_timestamps = Scaled(50, scale, 5);
  spec.pages = Scaled(2000, scale, 40);
  // The mix is the SQL-backed endpoints (VOTables, snapshot resolutions)
  // and a small sample of the page-store lookups, which spend 0.02 ms of a
  // 0.4 ms round trip in the backend, so most client time is backend time.
  // On 50k candidates a whole-table query takes 40-200 ms, and the tail
  // would count how many of the few landed in a phase; those stay in
  // serve_hot, whose cache absorbs them.
  spec.retro_requests = Scaled(100, scale, 10);
  spec.links_requests = Scaled(50, scale, 5);
  spec.versions_requests = Scaled(20, scale, 2);
  spec.resolve_step = 25;
  spec.table_scans = false;
  // At most a quarter of each capped database's table pages (about 240
  // Arecibo and 145 WebLab pages at full scale; checked at run time).
  spec.pool_frames = std::max<size_t>(1, static_cast<size_t>(32 * scale));
  // The survey reduces pointings in parallel and each job's candidates land
  // as it finishes, so one pointing's rows spread over the pages of its
  // batch (about 5 of them for 8 pointings) and a VOTable lookup reads
  // each of those pages through the capped pool.
  spec.load_batch = 8;
  return spec;
}

namespace {

/// 125 seeded candidates per pointing, in load order: within each batch of
/// `batch` pointings, row i of every pointing before row i + 1 of any.
std::vector<dflow::arecibo::Candidate> MakeCandidates(int pointings,
                                                      int batch,
                                                      uint64_t seed) {
  constexpr int kPerPointing = 125;
  dflow::Rng rng(seed);
  std::vector<dflow::arecibo::Candidate> candidates;
  candidates.reserve(static_cast<size_t>(pointings) * kPerPointing);
  for (int pointing = 0; pointing < pointings; ++pointing) {
    for (int i = 0; i < kPerPointing; ++i) {
      dflow::arecibo::Candidate candidate;
      candidate.pointing = pointing;
      candidate.beam = static_cast<int>(rng.Uniform(0, 6));
      candidate.freq_hz = rng.UniformReal(1.0, 700.0);
      candidate.dm = rng.UniformReal(10.0, 300.0);
      candidate.snr = rng.UniformReal(8.0, 40.0);
      candidate.rfi_flag = rng.Bernoulli(0.3);
      candidates.push_back(candidate);
    }
  }
  if (batch <= 1) {
    return candidates;
  }
  std::vector<dflow::arecibo::Candidate> interleaved;
  interleaved.reserve(candidates.size());
  for (int first = 0; first < pointings; first += batch) {
    const int last = std::min(pointings, first + batch);
    for (int i = 0; i < kPerPointing; ++i) {
      for (int pointing = first; pointing < last; ++pointing) {
        interleaved.push_back(
            candidates[static_cast<size_t>(pointing * kPerPointing + i)]);
      }
    }
  }
  return interleaved;
}

}  // namespace

Dataset MakeDataset(const DataSpec& spec, uint64_t seed) {
  Dataset data;
  data.spec = spec;
  data.candidates =
      MakeCandidates(spec.pointings, spec.load_batch, SubSeed(seed, 1));
  dflow::weblab::CrawlerConfig crawler_config;
  crawler_config.initial_pages = spec.pages;
  crawler_config.seed = SubSeed(seed, 2);
  dflow::weblab::SyntheticCrawler crawler(crawler_config);
  dflow::weblab::Crawl crawl = crawler.NextCrawl();
  data.crawl_time = crawl.crawl_time;
  data.arc_blob = dflow::weblab::WriteArcFile(crawl.pages);
  data.dat_blob = dflow::weblab::WriteDatFile(crawl.pages);
  data.pages = std::move(crawl.pages);
  return data;
}

Result<std::unique_ptr<Backends>> LoadBackends(const Dataset& data,
                                               bool traced,
                                               ServiceRegistry* registry) {
  auto backends = std::make_unique<Backends>();
  dflow::db::DatabaseOptions options;
  options.pool_frames = data.spec.pool_frames;
  auto mount = [&](const std::string& prefix,
                   std::shared_ptr<dflow::core::WebService> service) {
    return registry->Mount(prefix, traced ? TraceMount(prefix, service)
                                          : std::move(service));
  };

  // Arecibo candidate database.
  backends->arecibo_db = std::make_unique<dflow::db::Database>(options);
  DFLOW_ASSIGN_OR_RETURN(
      auto candidates,
      dflow::arecibo::CandidateService::Create(backends->arecibo_db.get()));
  DFLOW_RETURN_IF_ERROR(candidates->Load(data.candidates));
  DFLOW_RETURN_IF_ERROR(mount("arecibo", std::move(candidates)));

  // CLEO EventStore: {raw, recon} per run and one evolving physics grade.
  DFLOW_ASSIGN_OR_RETURN(
      backends->event_store,
      dflow::eventstore::EventStore::Create(
          dflow::eventstore::StoreScale::kCollaboration));
  for (int64_t run = 1; run <= data.spec.runs; ++run) {
    for (const char* data_type : {"raw", "recon"}) {
      DFLOW_RETURN_IF_ERROR(backends->event_store->RegisterFile(
          {run, data_type, "R1", 1000 + 10 * run, 100000 + 1000 * run,
           "/hsm/" + std::string(data_type) + "/" + std::to_string(run),
           {}}));
    }
  }
  for (int k = 1; k <= data.spec.grade_timestamps; ++k) {
    int64_t ts = 100 * k;
    int64_t last = std::min<int64_t>(data.spec.runs, ts / 10);
    DFLOW_RETURN_IF_ERROR(backends->event_store->AssignGrade(
        "physics", ts, {1, last}, "recon", "R1"));
  }
  DFLOW_RETURN_IF_ERROR(
      mount("cleo", std::make_shared<dflow::eventstore::EventStoreService>(
                        backends->event_store.get())));

  // WebLab: the crawl preloaded through the real ARC/DAT path.
  backends->weblab_db = std::make_unique<dflow::db::Database>(options);
  dflow::weblab::PreloadSubsystem preload(dflow::weblab::PreloadConfig{},
                                          backends->weblab_db.get(),
                                          &backends->page_store);
  DFLOW_RETURN_IF_ERROR(preload.LoadArcFiles({data.arc_blob}).status());
  DFLOW_RETURN_IF_ERROR(preload.LoadDatFiles({data.dat_blob}).status());
  for (const auto& page : data.pages) {
    backends->index.AddPage(page.url, page.content);
  }
  DFLOW_RETURN_IF_ERROR(
      mount("weblab", std::make_shared<dflow::weblab::WebLabService>(
                          &backends->page_store, backends->weblab_db.get(),
                          &backends->index)));
  return backends;
}

std::vector<ServiceRequest> BuildPopulation(const Dataset& data) {
  const DataSpec& spec = data.spec;
  std::vector<ServiceRequest> population;
  if (spec.table_scans) {
    for (int limit : {5, 10, 20, 50}) {
      for (const char* rfi : {"0", "1"}) {
        population.push_back(Req(
            "arecibo/top",
            {{"limit", std::to_string(limit)}, {"include_rfi", rfi}}));
      }
    }
  }
  for (int pointing = 0; pointing < spec.pointings; ++pointing) {
    population.push_back(
        Req("arecibo/votable", {{"pointing", std::to_string(pointing)}}));
  }
  if (spec.table_scans) {
    population.push_back(Req("arecibo/count"));
    population.push_back(Req("arecibo/pointings"));
  }
  // Snapshot resolutions at explicit timestamps, between and past every
  // grade assignment.
  for (int64_t ts = 150; ts <= 100 * spec.grade_timestamps + 50;
       ts += spec.resolve_step) {
    population.push_back(Req(
        "cleo/resolve", {{"grade", "physics"}, {"ts", std::to_string(ts)}}));
  }
  for (int64_t run = 1; run <= spec.versions_requests; ++run) {
    population.push_back(
        Req("cleo/versions",
            {{"run", std::to_string(run)}, {"data_type", "recon"}}));
  }
  population.push_back(Req("cleo/grades"));
  population.push_back(Req("cleo/history", {{"grade", "physics"}}));
  population.push_back(Req("cleo/summary"));
  const std::string date = std::to_string(data.crawl_time + 5);
  const size_t pages = data.pages.size();
  for (size_t i = 0; i < pages && i < static_cast<size_t>(spec.retro_requests);
       ++i) {
    population.push_back(
        Req("weblab/retro", {{"url", data.pages[i].url}, {"date", date}}));
  }
  for (size_t i = 0; i < pages && i < static_cast<size_t>(spec.links_requests);
       ++i) {
    population.push_back(
        Req("weblab/links", {{"url", data.pages[i].url}, {"date", date}}));
  }
  for (int limit : {10, 50, 100}) {
    population.push_back(
        Req("weblab/pages", {{"limit", std::to_string(limit)}}));
  }
  for (int w = 1; w <= 20; ++w) {
    std::string word = "w";
    word += std::to_string(w);
    population.push_back(Req("weblab/search", {{"q", word}}));
  }
  return population;
}

uint64_t BodyHash(const std::string& body) {
  return std::hash<std::string_view>{}(body);
}

Result<std::vector<Expected>> BuildReference(
    const Dataset& data, const std::vector<ServiceRequest>& population) {
  ServiceRegistry registry;
  DFLOW_ASSIGN_OR_RETURN(auto backends,
                         LoadBackends(data, /*traced=*/false, &registry));
  std::vector<Expected> reference;
  reference.reserve(population.size());
  for (const ServiceRequest& request : population) {
    auto response = registry.Handle(request);
    if (!response.ok()) {
      return Status::Internal("reference request " + request.path +
                              " failed: " + response.status().ToString());
    }
    Expected expected;
    expected.body_hash = BodyHash(response->body);
    expected.body_size = response->body.size();
    // bench_serve_tail's footprint estimate: key + body + content type +
    // a fixed per-entry overhead.
    expected.entry_bytes =
        dflow::serve::ShardedResponseCache::CanonicalKey(request).size() +
        response->body.size() + response->content_type.size() + 64;
    reference.push_back(expected);
  }
  return reference;
}

int64_t TablePages(const dflow::db::Database* db) {
  if (db == nullptr) {
    return 0;
  }
  int64_t pages = 0;
  for (const std::string& name : db->catalog().TableNames()) {
    pages += static_cast<int64_t>(db->catalog().Find(name)->heap->num_pages());
  }
  return pages;
}

}  // namespace e2e
