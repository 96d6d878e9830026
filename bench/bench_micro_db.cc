// Benchmarks of the embedded relational engine (the dissemination
// substrate all three case studies share).
//
// Default mode: the buffer-pool sweep — point-query p50/p99 latency and
// hit rate at pool sizes from 8 frames to unlimited against a table ~10x
// larger than the biggest bounded pool, with a same-seed MD5 fingerprint
// gate (results AND eviction sequence must be byte-identical across
// repeat runs, and query results identical across pool sizes). Emits
// BENCH_db.json next to the binary.
//
// `--micro` mode: the original google-benchmark microbenchmarks (insert
// paths, B+Tree inserts, indexed vs sequential selection, aggregation, WAL
// overhead) and the two serving backends a serve_cold request pays most
// for (a VOTable body and an EventStore snapshot resolution); extra args
// pass through to the benchmark runner.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "arecibo/votable.h"
#include "bench/report.h"
#include "db/btree.h"
#include "db/database.h"
#include "eventstore/event_store.h"
#include "util/md5.h"
#include "util/rng.h"

namespace {

using namespace dflow;
using db::Database;
using db::Row;
using db::Schema;
using db::Type;
using db::Value;

Schema CandidateSchema() {
  return Schema({{"pointing", Type::kInt64, false},
                 {"beam", Type::kInt64, false},
                 {"freq", Type::kDouble, false},
                 {"snr", Type::kDouble, false}});
}

Row CandidateRow(int64_t i) {
  return Row{Value::Int(i % 400), Value::Int(i % 7),
             Value::Double(0.1 + static_cast<double>(i % 1000)),
             Value::Double(6.0 + static_cast<double>(i % 40))};
}

void BM_InsertAutocommit(benchmark::State& state) {
  Database db;
  (void)db.CreateTable("c", CandidateSchema());
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Insert("c", CandidateRow(i++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertAutocommit);

void BM_InsertBatched(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Database db;
  (void)db.CreateTable("c", CandidateSchema());
  int64_t i = 0;
  for (auto _ : state) {
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(batch));
    for (int64_t k = 0; k < batch; ++k) {
      rows.push_back(CandidateRow(i++));
    }
    benchmark::DoNotOptimize(db.InsertMany("c", std::move(rows)));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_InsertBatched)->Arg(64)->Arg(1024);

void BM_InsertWithIndex(benchmark::State& state) {
  Database db;
  (void)db.CreateTable("c", CandidateSchema());
  (void)db.CreateIndex("by_pointing", "c", "pointing");
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Insert("c", CandidateRow(i++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertWithIndex);

// The candidate index a serving node builds at set-up: 50k inserts keyed
// by pointing (400 pointings x 125 rows), loaded in batches of 8 pointings
// with row i of every pointing in the batch before row i + 1 of any, each
// under the RowId the heap hands out next. A fresh index each iteration.
void BM_BTreeInsert(benchmark::State& state) {
  constexpr int kPointings = 400;
  constexpr int kPerPointing = 125;
  constexpr int kBatch = 8;
  std::vector<int64_t> keys;
  keys.reserve(kPointings * kPerPointing);
  for (int first = 0; first < kPointings; first += kBatch) {
    for (int i = 0; i < kPerPointing; ++i) {
      for (int p = first; p < std::min(kPointings, first + kBatch); ++p) {
        keys.push_back(p);
      }
    }
  }
  for (auto _ : state) {
    db::BTreeIndex index;
    for (size_t i = 0; i < keys.size(); ++i) {
      index.Insert(Value::Int(keys[i]),
                   db::RowId{static_cast<uint32_t>(i / 64),
                             static_cast<uint16_t>(i % 64)});
    }
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_BTreeInsert)->Unit(benchmark::kMillisecond);

void PopulatedDb(Database& db, int64_t rows, bool with_index) {
  (void)db.CreateTable("c", CandidateSchema());
  if (with_index) {
    (void)db.CreateIndex("by_pointing", "c", "pointing");
  }
  std::vector<Row> batch;
  for (int64_t i = 0; i < rows; ++i) {
    batch.push_back(CandidateRow(i));
  }
  (void)db.InsertMany("c", std::move(batch));
}

void BM_SelectSeqScan(benchmark::State& state) {
  Database db;
  PopulatedDb(db, 20000, /*with_index=*/false);
  for (auto _ : state) {
    auto result = db.Execute("SELECT * FROM c WHERE pointing = 123");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SelectSeqScan);

void BM_SelectIndexScan(benchmark::State& state) {
  Database db;
  PopulatedDb(db, 20000, /*with_index=*/true);
  for (auto _ : state) {
    auto result = db.Execute("SELECT * FROM c WHERE pointing = 123");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SelectIndexScan);

void BM_GroupByAggregate(benchmark::State& state) {
  Database db;
  PopulatedDb(db, 20000, /*with_index=*/false);
  for (auto _ : state) {
    auto result = db.Execute(
        "SELECT beam, COUNT(*), AVG(snr) FROM c GROUP BY beam");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GroupByAggregate);

void BM_JoinNestedLoop(benchmark::State& state) {
  Database db;
  PopulatedDb(db, 5000, /*with_index=*/false);
  (void)db.CreateTable("p", Schema({{"id", Type::kInt64, false},
                                    {"ra", Type::kDouble, false}}));
  for (int64_t i = 0; i < 400; ++i) {
    (void)db.Insert("p", {Value::Int(i), Value::Double(i * 0.9)});
  }
  for (auto _ : state) {
    auto result = db.Execute(
        "SELECT id, snr FROM p JOIN c ON id = pointing WHERE snr > 40");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_JoinNestedLoop);

void BM_JoinIndexNestedLoop(benchmark::State& state) {
  Database db;
  PopulatedDb(db, 5000, /*with_index=*/true);  // Index on c.pointing.
  (void)db.CreateTable("p", Schema({{"id", Type::kInt64, false},
                                    {"ra", Type::kDouble, false}}));
  for (int64_t i = 0; i < 400; ++i) {
    (void)db.Insert("p", {Value::Int(i), Value::Double(i * 0.9)});
  }
  for (auto _ : state) {
    auto result = db.Execute(
        "SELECT id, snr FROM p JOIN c ON id = pointing WHERE snr > 40");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_JoinIndexNestedLoop);

void BM_WalDurableInsert(benchmark::State& state) {
  auto path = std::filesystem::temp_directory_path() / "dflow_bench_db.wal";
  std::filesystem::remove(path);
  auto db = Database::Open(path.string());
  (void)(*db)->CreateTable("c", CandidateSchema());
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*db)->Insert("c", CandidateRow(i++)));
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove(path);
}
BENCHMARK(BM_WalDurableInsert);

// One pointing's VOTable as serve_cold serves it: 125 seeded candidates,
// of which 87 are not RFI, written at precision 12.
void BM_CandidatesToVoTable(benchmark::State& state) {
  Rng rng(1);
  std::vector<arecibo::Candidate> candidates;
  for (int i = 0; i < 87; ++i) {
    arecibo::Candidate candidate;
    candidate.pointing = 217;
    candidate.beam = static_cast<int>(rng.Uniform(0, 6));
    candidate.freq_hz = rng.UniformReal(1.0, 700.0);
    candidate.period_sec = 1.0 / candidate.freq_hz;
    candidate.dm = rng.UniformReal(10.0, 300.0);
    candidate.snr = rng.UniformReal(8.0, 40.0);
    candidates.push_back(candidate);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        arecibo::CandidatesToVoTable(candidates, "PALFA"));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()));
}
BENCHMARK(BM_CandidatesToVoTable);

// serve_cold's EventStore: {raw, recon} of 600 runs and a physics grade
// assigned at 50 timestamps; every resolution returns the 600 recon files.
void BM_EventStoreResolve(benchmark::State& state) {
  auto store =
      eventstore::EventStore::Create(eventstore::StoreScale::kCollaboration);
  for (int64_t run = 1; run <= 600; ++run) {
    for (const char* data_type : {"raw", "recon"}) {
      (void)(*store)->RegisterFile(
          {run, data_type, "R1", 1000 + 10 * run, 100000 + 1000 * run,
           "/hsm/" + std::string(data_type) + "/" + std::to_string(run),
           {}});
    }
  }
  for (int64_t k = 1; k <= 50; ++k) {
    (void)(*store)->AssignGrade("physics", 100 * k,
                                {1, std::min<int64_t>(600, 10 * k)}, "recon",
                                "R1");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize((*store)->Resolve("physics", 2525));
  }
}
BENCHMARK(BM_EventStoreResolve)->Unit(benchmark::kMicrosecond);

// --- Buffer-pool sweep (default mode) -----------------------------------

constexpr int64_t kTableRows = 14000;  // ~350 pages at ~210 B/row.
constexpr int64_t kQueries = 4000;
constexpr uint64_t kSeed = 0xdb5eedULL;

struct SweepPoint {
  size_t frames = 0;
  double p50_us = 0;
  double p99_us = 0;
  double hit_rate = 0;
  int64_t evictions = 0;
  int64_t misses = 0;
  size_t table_pages = 0;
  std::string results_md5;  // Query answers only (pool-size invariant).
  std::string full_md5;     // Answers + eviction log (same-seed invariant).
};

SweepPoint RunPoint(size_t frames, uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  db::DatabaseOptions opts;
  opts.pool_frames = frames;
  Database db(opts);
  (void)db.Execute("CREATE TABLE kv (id INT, v INT, pad TEXT)");
  (void)db.Execute("CREATE INDEX idx_id ON kv (id)");

  dflow::Rng rng(seed);
  {
    std::vector<Row> batch;
    for (int64_t i = 0; i < kTableRows; ++i) {
      batch.push_back(Row{
          Value::Int(i), Value::Int(rng.Uniform(0, 999999)),
          Value::String(std::string(
              static_cast<size_t>(rng.Uniform(120, 240)),
              static_cast<char>('a' + i % 26)))});
      if (batch.size() == 1000) {
        (void)db.InsertMany("kv", std::move(batch));
        batch.clear();
      }
    }
    (void)db.InsertMany("kv", std::move(batch));
  }

  // Reset stats focus to the query phase: remember the populate-phase
  // baseline and subtract.
  const auto populate = db.pool()->stats();

  SweepPoint point;
  point.frames = frames;
  std::vector<double> lat_us;
  lat_us.reserve(static_cast<size_t>(kQueries));
  std::string answers;
  for (int64_t q = 0; q < kQueries; ++q) {
    int64_t id = rng.Uniform(0, kTableRows - 1);
    auto start = Clock::now();
    auto result =
        db.Execute("SELECT v FROM kv WHERE id = " + std::to_string(id));
    auto end = Clock::now();
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
    if (result.ok() && !result->rows.empty()) {
      answers += std::to_string(result->rows[0][0].AsInt());
      answers += ',';
    } else {
      answers += "MISS,";
    }
  }
  std::sort(lat_us.begin(), lat_us.end());
  point.p50_us = lat_us[lat_us.size() / 2];
  point.p99_us = lat_us[lat_us.size() * 99 / 100];

  const auto& stats = db.pool()->stats();
  const int64_t hits = stats.hits - populate.hits;
  const int64_t misses = stats.misses - populate.misses;
  point.misses = misses;
  point.evictions = stats.evictions - populate.evictions;
  point.hit_rate =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 1.0;
  point.table_pages = db.catalog().Find("kv")->heap->num_pages();
  point.results_md5 = Md5::HexOf(answers);
  std::string evictions;
  for (uint32_t pid : db.pool()->eviction_log()) {
    evictions += std::to_string(pid);
    evictions += ',';
  }
  point.full_md5 = Md5::HexOf(answers + "|" + evictions);
  return point;
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

int PoolSweepMain() {
  using dflow::bench::Footer;
  using dflow::bench::Header;
  using dflow::bench::Note;
  using dflow::bench::Row;

  Header("bench_micro_db: buffer-pool frames vs point-query latency",
         "metadata stores serve working sets larger than RAM; the pool "
         "must trade memory for tail latency smoothly, not fall over");

  const size_t kFrames[] = {8, 16, 32, 64, 128, 0};
  std::vector<SweepPoint> sweep;
  for (size_t frames : kFrames) {
    sweep.push_back(RunPoint(frames, kSeed));
    const auto& p = sweep.back();
    std::string label = frames == 0 ? "unlimited frames"
                                    : std::to_string(frames) + " frames";
    Row(label + " (" + std::to_string(p.table_pages) + "-page table)",
        "p50 " + Fmt("%7.1f", p.p50_us) + " us   p99 " +
            Fmt("%7.1f", p.p99_us) + " us   hit " +
            Fmt("%5.1f", p.hit_rate * 100) + "%   " +
            std::to_string(p.evictions) + " evictions");
  }

  // Gates — all deterministic (no timing thresholds):
  //  (1) query answers identical at every pool size;
  //  (2) a same-seed repeat run is byte-identical down to the eviction
  //      sequence;
  //  (3) hit rate is monotone in pool size.
  bool answers_identical = true;
  for (const auto& p : sweep) {
    answers_identical =
        answers_identical && p.results_md5 == sweep.front().results_md5;
  }
  SweepPoint repeat = RunPoint(8, kSeed);
  const bool deterministic = repeat.full_md5 == sweep.front().full_md5;
  bool hit_monotone = true;
  for (size_t i = 1; i < sweep.size(); ++i) {
    hit_monotone = hit_monotone &&
                   sweep[i].hit_rate >= sweep[i - 1].hit_rate - 1e-9;
  }
  Row("answers identical across pool sizes", answers_identical ? "yes" : "NO");
  Row("same-seed run byte-identical (8 frames)",
      deterministic ? "yes (" + repeat.full_md5.substr(0, 12) + "...)" : "NO");
  Row("hit rate monotone in pool size", hit_monotone ? "yes" : "NO");
  Note("latencies are advisory (host-dependent); the enforced gates are "
       "the three determinism/shape checks above");

  const bool shape_holds = answers_identical && deterministic && hit_monotone;
  Footer(shape_holds);

  {
    std::ofstream json("BENCH_db.json");
    json << "{\n";
    json << "  \"bench\": \"bench_micro_db\",\n";
    json << "  \"config\": {\"table_rows\": " << kTableRows
         << ", \"queries\": " << kQueries << ", \"seed\": " << kSeed
         << "},\n";
    json << "  \"determinism\": {\"byte_identical\": "
         << (deterministic ? "true" : "false") << ", \"fingerprint\": \""
         << sweep.front().full_md5 << "\"},\n";
    json << "  \"answers_identical\": "
         << (answers_identical ? "true" : "false") << ",\n";
    json << "  \"hit_rate_monotone\": " << (hit_monotone ? "true" : "false")
         << ",\n";
    json << "  \"sweep\": [";
    for (size_t i = 0; i < sweep.size(); ++i) {
      const auto& p = sweep[i];
      json << (i == 0 ? "\n" : ",\n");
      json << "    {\"frames\": " << p.frames
           << ", \"table_pages\": " << p.table_pages
           << ", \"p50_us\": " << Fmt("%.2f", p.p50_us)
           << ", \"p99_us\": " << Fmt("%.2f", p.p99_us)
           << ", \"hit_rate\": " << Fmt("%.4f", p.hit_rate)
           << ", \"evictions\": " << p.evictions
           << ", \"misses\": " << p.misses << "}";
    }
    json << "\n  ],\n";
    json << "  \"shape_holds\": " << (shape_holds ? "true" : "false")
         << "\n}\n";
  }
  Note("machine-readable results written to BENCH_db.json");
  return shape_holds ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--micro") == 0) {
      // Strip --micro and hand the rest to google-benchmark.
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      benchmark::Initialize(&argc, argv);
      benchmark::RunSpecifiedBenchmarks();
      benchmark::Shutdown();
      return 0;
    }
  }
  return PoolSweepMain();
}
