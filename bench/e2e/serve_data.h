// The dissemination data behind the serve and kv workloads: seeded inputs
// for the three case-study services, one backend set per cluster node, the
// endpoint population, and the serial reference answers.
#ifndef DFLOW_BENCH_E2E_SERVE_DATA_H_
#define DFLOW_BENCH_E2E_SERVE_DATA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arecibo/search.h"
#include "core/web_service.h"
#include "db/database.h"
#include "eventstore/event_store.h"
#include "util/result.h"
#include "weblab/analysis.h"
#include "weblab/arc_format.h"
#include "weblab/page_store.h"

namespace e2e {

struct DataSpec {
  int pointings = 40;             // x 125 Arecibo candidates each.
  int runs = 60;                  // CLEO runs, {raw, recon} each.
  int grade_timestamps = 5;       // "physics" grade assignments.
  int pages = 400;                // WebLab crawl size.
  int retro_requests = 300;       // Population caps per endpoint kind.
  int links_requests = 100;
  int versions_requests = 20;
  int resolve_step = 50;          // Snapshot timestamps every this many.
  /// Whole-table Arecibo queries (top, count, pointings) in the population.
  bool table_scans = true;
  size_t pool_frames = 0;         // Arecibo/WebLab buffer pools (0 = all).
  /// Pointings reduced together, whose candidates reach the database
  /// interleaved row by row (1 = one pointing after another).
  int load_batch = 1;
};

/// bench_serve_tail's data and ~505-request population.
DataSpec HotSpec(double scale);
/// Ten times the candidates and runs, five times the pages, candidates
/// loaded in interleaved batches, the Arecibo and WebLab pools capped.
DataSpec ColdSpec(double scale);

/// Generated inputs, shared read-only by every node's loader.
struct Dataset {
  DataSpec spec;
  std::vector<dflow::arecibo::Candidate> candidates;
  std::vector<dflow::weblab::WebPage> pages;
  std::string arc_blob;
  std::string dat_blob;
  int64_t crawl_time = 0;
};
Dataset MakeDataset(const DataSpec& spec, uint64_t seed);

/// One node's loaded backends. Borrowed by the services mounted in that
/// node's registry, so it must outlive the registry's users.
struct Backends {
  std::unique_ptr<dflow::db::Database> arecibo_db;
  std::unique_ptr<dflow::eventstore::EventStore> event_store;
  std::unique_ptr<dflow::db::Database> weblab_db;
  dflow::weblab::PageStore page_store;
  dflow::weblab::InvertedIndex index;
};

/// Loads `data` into fresh backends and mounts "arecibo", "cleo" and
/// "weblab" in `registry`, each behind TraceMount() when `traced`.
dflow::Result<std::unique_ptr<Backends>> LoadBackends(
    const Dataset& data, bool traced, dflow::core::ServiceRegistry* registry);

/// The endpoint population over all three mounts.
std::vector<dflow::core::ServiceRequest> BuildPopulation(const Dataset& data);

/// What a correct answer to one population request looks like.
struct Expected {
  uint64_t body_hash = 0;
  size_t body_size = 0;
  size_t entry_bytes = 0;  // Its response-cache footprint.
};
uint64_t BodyHash(const std::string& body);

/// Answers every population request serially through a private backend
/// set; fails if any request errors.
dflow::Result<std::vector<Expected>> BuildReference(
    const Dataset& data,
    const std::vector<dflow::core::ServiceRequest>& population);

/// Pages of every table in `db` (0 for null).
int64_t TablePages(const dflow::db::Database* db);

}  // namespace e2e

#endif  // DFLOW_BENCH_E2E_SERVE_DATA_H_
