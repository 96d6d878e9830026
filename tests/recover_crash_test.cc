// Crash-chaos harness for the recovery tier: fork the process, SIGKILL it
// at seeded event offsets mid-flow, restart, ResumeFrom(journal), and
// hard-gate that the resumed run is byte-identical to an uninterrupted
// same-seed run — Report() (err/retry/dead columns included), sink
// outputs, provenance chains, and external-clock traces — with redo work
// bounded by the journal's sync_every granularity.

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "arecibo/flow.h"
#include "core/flow_graph.h"
#include "core/flow_runner.h"
#include "eventstore/flow.h"
#include "obs/trace.h"
#include "recover/journal.h"
#include "sim/simulation.h"
#include "util/md5.h"
#include "util/result.h"

namespace dflow::recover {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("dflow_recover_" + name + "_" + std::to_string(::getpid())))
      .string();
}

// ---------------------------------------------------------------------------
// CheckpointJournal unit coverage

StageEventRecord CompletedRecord(const std::string& stage,
                                 const std::string& input, int outputs) {
  StageEventRecord record;
  record.kind = StageEventRecord::Kind::kCompleted;
  record.stage = stage;
  record.input = input;
  record.injected_failures = {true, false};
  for (int i = 0; i < outputs; ++i) {
    JournaledProduct product;
    product.name = input + "/out" + std::to_string(i);
    product.bytes = 1000 + i;
    product.attributes = {{"kind", "test"}, {"rank", std::to_string(i)}};
    record.outputs.push_back(std::move(product));
  }
  return record;
}

TEST(CheckpointJournalTest, RecordRoundTrip) {
  StageEventRecord completed = CompletedRecord("stage_a", "in0", 2);
  Result<StageEventRecord> decoded =
      StageEventRecord::Decode(completed.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, StageEventRecord::Kind::kCompleted);
  EXPECT_EQ(decoded->stage, "stage_a");
  EXPECT_EQ(decoded->input, "in0");
  EXPECT_EQ(decoded->injected_failures, std::vector<bool>({true, false}));
  ASSERT_EQ(decoded->outputs.size(), 2u);
  EXPECT_EQ(decoded->outputs[1].name, "in0/out1");
  EXPECT_EQ(decoded->outputs[1].bytes, 1001);
  ASSERT_EQ(decoded->outputs[0].attributes.size(), 2u);
  EXPECT_EQ(decoded->outputs[0].attributes[0].first, "kind");

  StageEventRecord dead;
  dead.kind = StageEventRecord::Kind::kDeadLettered;
  dead.stage = "stage_b";
  dead.input = "in7";
  dead.injected_failures = {true};
  dead.error = "INTERNAL: injected transient error";
  Result<StageEventRecord> dead_decoded =
      StageEventRecord::Decode(dead.Encode());
  ASSERT_TRUE(dead_decoded.ok());
  EXPECT_EQ(dead_decoded->kind, StageEventRecord::Kind::kDeadLettered);
  EXPECT_EQ(dead_decoded->error, "INTERNAL: injected transient error");
  EXPECT_TRUE(dead_decoded->outputs.empty());

  // Truncated payloads are rejected, never half-parsed.
  std::string encoded = completed.Encode();
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(StageEventRecord::Decode(encoded.substr(0, cut)).ok())
        << "cut=" << cut;
  }
}

TEST(CheckpointJournalTest, SyncEveryBoundsDurabilityAfterAbandon) {
  std::string path = TempPath("sync_every");
  std::filesystem::remove(path);
  {
    CheckpointJournal::Options options;
    options.sync_every = 3;
    auto journal = CheckpointJournal::Open(path, options);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          (*journal)
              ->Append(CompletedRecord("s", "in" + std::to_string(i), 1))
              .ok());
    }
    EXPECT_EQ((*journal)->records_appended(), 5);
    EXPECT_EQ((*journal)->records_synced(), 3);
    // SIGKILL-equivalent: the two unsynced records evaporate.
    (*journal)->Abandon();
  }
  auto replay = JournalReplay::Load(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->size(), 3u);
  EXPECT_NE(replay->Find("s", "in2"), nullptr);
  EXPECT_EQ(replay->Find("s", "in3"), nullptr);
  std::filesystem::remove(path);
}

TEST(CheckpointJournalTest, DeadLettersAreForceSynced) {
  std::string path = TempPath("dead_sync");
  std::filesystem::remove(path);
  {
    CheckpointJournal::Options options;
    options.sync_every = 100;  // Completions would sit in memory forever.
    auto journal = CheckpointJournal::Open(path, options);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(CompletedRecord("s", "in0", 1)).ok());
    StageEventRecord dead;
    dead.kind = StageEventRecord::Kind::kDeadLettered;
    dead.stage = "s";
    dead.input = "in1";
    dead.error = "INTERNAL: boom";
    ASSERT_TRUE((*journal)->Append(dead).ok());
    // The dead letter dragged the buffered completion to disk with it.
    EXPECT_EQ((*journal)->records_synced(), 2);
    (*journal)->Abandon();
  }
  auto replay = JournalReplay::Load(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->size(), 2u);
  EXPECT_EQ(replay->dead_lettered(), 1);
  std::filesystem::remove(path);
}

TEST(CheckpointJournalTest, TornTailTruncationAtEveryByte) {
  std::string path = TempPath("torn");
  std::filesystem::remove(path);
  int64_t two_records_bytes = 0;
  {
    auto journal = CheckpointJournal::Open(path, {});
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(CompletedRecord("s", "a", 1)).ok());
    ASSERT_TRUE((*journal)->Append(CompletedRecord("s", "b", 2)).ok());
    two_records_bytes = (*journal)->bytes_written();
    ASSERT_TRUE((*journal)->Append(CompletedRecord("s", "c", 1)).ok());
  }
  int64_t full = static_cast<int64_t>(std::filesystem::file_size(path));
  std::string cut_path = path + ".cut";
  // Cut the FINAL record at every byte offset: the first two records must
  // survive intact, the torn third must vanish silently.
  for (int64_t cut = two_records_bytes; cut < full; ++cut) {
    std::filesystem::copy_file(
        path, cut_path, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(cut_path, static_cast<uintmax_t>(cut));
    auto replay = JournalReplay::Load(cut_path);
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    EXPECT_EQ(replay->size(), 2u) << "cut=" << cut;
    EXPECT_NE(replay->Find("s", "a"), nullptr);
    EXPECT_NE(replay->Find("s", "b"), nullptr);
    EXPECT_EQ(replay->Find("s", "c"), nullptr);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(cut_path);
}

TEST(CheckpointJournalTest, OnDiskBytesArePinned) {
  // The journal's file format is u32 length + u32 CRC-32 frames (the
  // db::WalWriter framing) around StageEventRecord::Encode() payloads.
  // Two sessions, at sync_every 1 then 2, each with a dead letter between
  // completions (force-synced) and a completion left pending until the
  // destructor syncs it: the file must keep exactly these bytes.
  std::string path = TempPath("pinned");
  std::filesystem::remove(path);
  for (int sync_every : {1, 2}) {
    CheckpointJournal::Options options;
    options.sync_every = sync_every;
    auto journal = CheckpointJournal::Open(path, options);
    ASSERT_TRUE(journal.ok());
    std::string tag = "s" + std::to_string(sync_every);
    ASSERT_TRUE(
        (*journal)->Append(CompletedRecord("stage_a", tag + "/in0", 2)).ok());
    StageEventRecord dead;
    dead.kind = StageEventRecord::Kind::kDeadLettered;
    dead.stage = "stage_b";
    dead.input = tag + "/in1";
    dead.injected_failures = {true, true, false};
    dead.error = "INTERNAL: injected transient error";
    ASSERT_TRUE((*journal)->Append(dead).ok());
    ASSERT_TRUE(
        (*journal)->Append(CompletedRecord("stage_c", tag + "/in2", 1)).ok());
    EXPECT_EQ((*journal)->records_synced(), sync_every == 1 ? 3 : 2);
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str().size(), 472u);
  EXPECT_EQ(Md5::HexOf(bytes.str()), "af3db4a9353378a26016d399461dd2df");
  auto replay = JournalReplay::Load(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->size(), 6u);
  EXPECT_EQ(replay->dead_lettered(), 2);
  std::filesystem::remove(path);
}

TEST(CheckpointJournalTest, MissingFileIsNotFound) {
  auto replay = JournalReplay::Load(TempPath("never_created"));
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointJournalTest, DuplicateRecordsKeepFirst) {
  std::string path = TempPath("dups");
  std::filesystem::remove(path);
  {
    auto journal = CheckpointJournal::Open(path, {});
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(CompletedRecord("s", "a", 1)).ok());
    ASSERT_TRUE((*journal)->Append(CompletedRecord("s", "a", 3)).ok());
  }
  auto replay = JournalReplay::Load(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->size(), 1u);
  EXPECT_EQ(replay->duplicates_ignored(), 1);
  ASSERT_NE(replay->Find("s", "a"), nullptr);
  EXPECT_EQ(replay->Find("s", "a")->outputs.size(), 1u);  // First wins.
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Flow harnesses: reduced-scale Figure 1 (Arecibo) and Figure 2 (CLEO)
// with retries (jittered backoff), injected transient errors, and
// dead-letter-producing faults — every recovery mechanism exercised.

struct Harness {
  sim::Simulation sim;
  core::FlowGraph graph;
  std::unique_ptr<core::FlowRunner> runner;
};

void SetupArecibo(Harness* h) {
  arecibo::SurveyConfig config;
  config.pointings_per_block = 24;  // Laptop-scale slice of the 400.
  ASSERT_TRUE(arecibo::BuildAreciboFlow(config, &h->graph).ok());
  h->runner =
      std::make_unique<core::FlowRunner>(&h->sim, &h->graph, /*seed=*/7);
  using S = arecibo::AreciboFlowStages;
  ASSERT_TRUE(h->runner->SetWorkers(S::kConsortium, 4).ok());
  ASSERT_TRUE(h->runner->SetWorkers(S::kTapeArchive, 2).ok());
  ASSERT_TRUE(arecibo::ConfigureAreciboSites(h->runner.get()).ok());
  core::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_initial_sec = 30.0;
  retry.jitter_fraction = 0.25;  // Draws from the seeded runner RNG.
  ASSERT_TRUE(h->runner->SetRetryPolicy(S::kConsortium, retry).ok());
  // Three consortium jobs fail once each and are retried; two pointings
  // die in QA (fail-fast policy) and land in the dead-letter sink.
  ASSERT_TRUE(h->runner->InjectTransientErrors(S::kConsortium, 3).ok());
  ASSERT_TRUE(h->runner->InjectTransientErrors(S::kLocalQa, 2).ok());
  ASSERT_TRUE(arecibo::InjectObservingBlock(config, h->runner.get()).ok());
}

void SetupCleo(Harness* h) {
  eventstore::CleoFlowConfig config;
  config.num_runs = 12;
  ASSERT_TRUE(eventstore::BuildCleoFlow(config, &h->graph).ok());
  h->runner =
      std::make_unique<core::FlowRunner>(&h->sim, &h->graph, /*seed=*/11);
  using S = eventstore::CleoFlowStages;
  ASSERT_TRUE(h->runner->SetWorkers(S::kReconstruction, 4).ok());
  ASSERT_TRUE(h->runner->SetWorkers(S::kMonteCarlo, 8).ok());
  core::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_initial_sec = 120.0;
  retry.jitter_fraction = 0.2;
  ASSERT_TRUE(h->runner->SetRetryPolicy(S::kReconstruction, retry).ok());
  ASSERT_TRUE(h->runner->InjectTransientErrors(S::kReconstruction, 4).ok());
  ASSERT_TRUE(h->runner->InjectTransientErrors(S::kPostRecon, 2).ok());
  ASSERT_TRUE(eventstore::InjectCleoDay(config, h->runner.get()).ok());
}

using SetupFn = void (*)(Harness*);

/// Everything observable about a finished run, digested: the per-stage
/// table (err/retry/dead included), the annotated DOT, every sink product
/// (name, bytes, attributes, provenance chain hash), and the dead-letter
/// ledger. Two runs with equal fingerprints are operationally identical.
std::string FingerprintRun(const Harness& h) {
  std::ostringstream os;
  os << h.runner->Report() << h.runner->AnnotatedDot();
  for (const std::string& name : h.graph.StageNames()) {
    for (const core::DataProduct& product : h.runner->SinkOutputs(name)) {
      os << name << '|' << product.name << '|' << product.bytes << '|'
         << product.provenance.SummaryHash();
      for (const auto& [key, value] : product.attributes) {
        os << '|' << key << '=' << value;
      }
      os << '\n';
    }
  }
  for (const core::DeadLetter& letter : h.runner->dead_letters()) {
    os << letter.stage << '|' << letter.product.name << '|' << letter.error
       << '|' << letter.time_sec << '\n';
  }
  return Md5::HexOf(os.str());
}

std::string GoldenFingerprint(SetupFn setup) {
  Harness h;
  setup(&h);
  EXPECT_TRUE(h.runner->Run().ok());
  return FingerprintRun(h);
}

int64_t CountTotalEvents(SetupFn setup) {
  Harness h;
  setup(&h);
  EXPECT_TRUE(h.runner->Start().ok());
  int64_t events = 0;
  while (h.sim.Step()) {
    ++events;
  }
  return events;
}

/// Terminal-event count after exactly `steps` simulation events — the
/// deterministic reference for "how much work the killed process had
/// completed", used to gate the redo bound.
int64_t TerminalEventsAfter(SetupFn setup, int64_t steps) {
  Harness h;
  setup(&h);
  EXPECT_TRUE(h.runner->Start().ok());
  for (int64_t i = 0; i < steps && h.sim.Step(); ++i) {
  }
  return h.runner->terminal_events();
}

/// Forks, runs the flow with a journal attached for `kill_after_events`
/// simulation events, then SIGKILLs the child mid-flight. The parent sees
/// whatever the journal's sync discipline made durable.
void RunChildAndKill(SetupFn setup, const std::string& journal_path,
                     int sync_every, int64_t kill_after_events) {
  pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    // Child: no gtest assertions, no stdio teardown — die by SIGKILL.
    Harness h;
    setup(&h);
    CheckpointJournal::Options options;
    options.sync_every = sync_every;
    auto journal = CheckpointJournal::Open(journal_path, options);
    if (!journal.ok()) {
      _exit(3);
    }
    if (!h.runner->SetCheckpointJournal(journal->get()).ok()) {
      _exit(4);
    }
    if (!h.runner->Start().ok()) {
      _exit(5);
    }
    for (int64_t i = 0; i < kill_after_events && h.sim.Step(); ++i) {
    }
    ::raise(SIGKILL);
    _exit(6);  // Unreachable.
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with "
                                   << WEXITSTATUS(status);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

void KillResumeSweep(SetupFn setup, const std::string& tag, int sync_every,
                     int num_kill_points) {
  const std::string golden = GoldenFingerprint(setup);
  const int64_t total_events = CountTotalEvents(setup);
  ASSERT_GT(total_events, num_kill_points);
  for (int point = 1; point <= num_kill_points; ++point) {
    const int64_t kill_at = std::max<int64_t>(
        1, total_events * point / (num_kill_points + 1));
    const std::string journal_path =
        TempPath(tag + "_k" + std::to_string(point));
    std::filesystem::remove(journal_path);
    ASSERT_NO_FATAL_FAILURE(
        RunChildAndKill(setup, journal_path, sync_every, kill_at));

    auto replay_or = JournalReplay::Load(journal_path);
    ASSERT_TRUE(replay_or.ok()) << replay_or.status().ToString();
    JournalReplay replay = std::move(*replay_or);

    // Redo bound: the killed process had completed `reference` terminal
    // events; everything but the unsynced tail must be durable.
    const int64_t reference = TerminalEventsAfter(setup, kill_at);
    const int64_t durable = static_cast<int64_t>(replay.size());
    EXPECT_LE(durable, reference) << "kill_at=" << kill_at;
    EXPECT_LE(reference - durable, sync_every - 1)
        << "kill_at=" << kill_at << ": redo work exceeds the checkpoint "
        << "granularity bound";

    // Restart + resume: byte-identical to the uninterrupted run.
    Harness resumed;
    setup(&resumed);
    ASSERT_TRUE(resumed.runner->ResumeFrom(&replay).ok());
    ASSERT_TRUE(resumed.runner->Run().ok());
    EXPECT_EQ(FingerprintRun(resumed), golden)
        << tag << ": resumed run diverged after kill at event " << kill_at;
    EXPECT_EQ(resumed.runner->replayed_events(), durable);
    EXPECT_EQ(resumed.runner->terminal_events(),
              resumed.runner->replayed_events() +
                  resumed.runner->live_events());
    std::filesystem::remove(journal_path);
  }
}

TEST(RecoverCrashTest, AreciboFig1KillResumeSweep) {
  KillResumeSweep(SetupArecibo, "fig1", /*sync_every=*/4,
                  /*num_kill_points=*/12);
}

TEST(RecoverCrashTest, CleoFig2KillResumeSweep) {
  KillResumeSweep(SetupCleo, "fig2", /*sync_every=*/1,
                  /*num_kill_points=*/10);
}

// A full journal replays every event: nothing is re-executed live, and
// the result is still identical.
TEST(RecoverCrashTest, FullJournalReplaysEverything) {
  const std::string path = TempPath("full_replay");
  std::filesystem::remove(path);
  std::string golden;
  int64_t terminal = 0;
  {
    Harness h;
    SetupCleo(&h);
    auto journal = CheckpointJournal::Open(path, {});
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(h.runner->SetCheckpointJournal(journal->get()).ok());
    ASSERT_TRUE(h.runner->Run().ok());
    golden = FingerprintRun(h);
    terminal = h.runner->terminal_events();
    EXPECT_EQ(h.runner->live_events(), terminal);
  }
  auto replay = JournalReplay::Load(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(static_cast<int64_t>(replay->size()), terminal);
  Harness resumed;
  SetupCleo(&resumed);
  ASSERT_TRUE(resumed.runner->ResumeFrom(&*replay).ok());
  ASSERT_TRUE(resumed.runner->Run().ok());
  EXPECT_EQ(FingerprintRun(resumed), golden);
  EXPECT_EQ(resumed.runner->live_events(), 0);
  EXPECT_EQ(resumed.runner->replayed_events(), terminal);
  std::filesystem::remove(path);
}

// The PR 3 determinism contract survives the kill/resume boundary: an
// external-clock trace of the resumed run is byte-identical to the trace
// of an uninterrupted run (replayed spans re-emit at identical virtual
// times with identical args).
TEST(RecoverCrashTest, GoldenTraceAcrossKillBoundary) {
  auto traced_fingerprint = [](const JournalReplay* replay) {
    Harness h;
    SetupCleo(&h);
    obs::TracerConfig config;
    config.clock = obs::TracerConfig::ClockMode::kExternal;
    config.external_now_sec = [&h] { return h.sim.Now(); };
    obs::Tracer tracer(config);
    EXPECT_TRUE(h.runner->SetTracer(&tracer).ok());
    if (replay != nullptr) {
      EXPECT_TRUE(h.runner->ResumeFrom(replay).ok());
    }
    EXPECT_TRUE(h.runner->Run().ok());
    return tracer.Fingerprint();
  };
  const std::string golden = traced_fingerprint(nullptr);

  const int64_t total_events = CountTotalEvents(SetupCleo);
  const std::string path = TempPath("trace_kill");
  std::filesystem::remove(path);
  ASSERT_NO_FATAL_FAILURE(RunChildAndKill(SetupCleo, path, /*sync_every=*/2,
                                          /*kill_after_events=*/
                                          total_events * 2 / 5));
  auto replay = JournalReplay::Load(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_GT(replay->size(), 0u);
  EXPECT_EQ(traced_fingerprint(&*replay), golden);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Dead-letter durability (the satellite fix): parked products survive the
// process that parked them, and the sink is queryable per stage with
// NotFound for typos.

TEST(RecoverCrashTest, DeadLettersSurviveKill) {
  using S = arecibo::AreciboFlowStages;
  const std::string path = TempPath("dead_survive");
  std::filesystem::remove(path);
  // Find an event offset by which both QA dead letters have happened.
  int64_t kill_at = -1;
  {
    Harness h;
    SetupArecibo(&h);
    ASSERT_TRUE(h.runner->Start().ok());
    int64_t events = 0;
    while (h.sim.Step()) {
      ++events;
      if (h.runner->dead_letters().size() >= 2) {
        kill_at = events + 1;
        break;
      }
    }
    ASSERT_GT(kill_at, 0) << "flow produced no dead letters";
  }
  // Kill with a huge sync_every: only the force-sync on dead letters can
  // have made them durable.
  ASSERT_NO_FATAL_FAILURE(
      RunChildAndKill(SetupArecibo, path, /*sync_every=*/1000000, kill_at));
  auto replay = JournalReplay::Load(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->dead_lettered(), 2);

  Harness resumed;
  SetupArecibo(&resumed);
  ASSERT_TRUE(resumed.runner->ResumeFrom(&*replay).ok());
  ASSERT_TRUE(resumed.runner->Run().ok());

  Result<std::vector<core::DeadLetter>> letters =
      resumed.runner->CheckedDeadLetters(S::kLocalQa);
  ASSERT_TRUE(letters.ok());
  EXPECT_EQ(letters->size(), 2u);
  for (const core::DeadLetter& letter : *letters) {
    EXPECT_EQ(letter.stage, S::kLocalQa);
    EXPECT_NE(letter.error.find("injected transient error"),
              std::string::npos);
  }
  // A stage with no dead letters: empty vector, OK status.
  Result<std::vector<core::DeadLetter>> clean =
      resumed.runner->CheckedDeadLetters(S::kNvo);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->empty());
  // A stage the graph never had: NotFound, not silence.
  Result<std::vector<core::DeadLetter>> typo =
      resumed.runner->CheckedDeadLetters("local_qualty_monitoring");
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kNotFound);
  std::filesystem::remove(path);
}

TEST(RecoverCrashTest, LifecyclePreconditions) {
  Harness h;
  SetupCleo(&h);
  ASSERT_TRUE(h.runner->Run().ok());
  // Everything that changes replay/journal wiring is rejected mid-run.
  EXPECT_EQ(h.runner->SetCheckpointJournal(nullptr).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.runner->ResumeFrom(nullptr).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.runner->Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.runner->Run().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dflow::recover
