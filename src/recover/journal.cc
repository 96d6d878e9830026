#include "recover/journal.h"

#include "util/byte_buffer.h"

namespace dflow::recover {

namespace {

constexpr uint8_t kFormatVersion = 1;

}  // namespace

std::string StageEventRecord::Encode() const {
  ByteWriter w;
  w.PutU8(kFormatVersion);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutString(stage);
  w.PutString(input);
  w.PutVarint(injected_failures.size());
  for (bool injected : injected_failures) {
    w.PutU8(injected ? 1 : 0);
  }
  if (kind == Kind::kCompleted) {
    w.PutVarint(outputs.size());
    for (const JournaledProduct& out : outputs) {
      w.PutString(out.name);
      w.PutI64(out.bytes);
      w.PutVarint(out.attributes.size());
      for (const auto& [key, value] : out.attributes) {
        w.PutString(key);
        w.PutString(value);
      }
    }
  } else {
    w.PutString(error);
  }
  return w.Take();
}

Result<StageEventRecord> StageEventRecord::Decode(std::string_view payload) {
  ByteReader r(payload);
  DFLOW_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kFormatVersion) {
    return Status::Corruption("journal record version " +
                              std::to_string(version) + " unsupported");
  }
  StageEventRecord record;
  DFLOW_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind != static_cast<uint8_t>(Kind::kCompleted) &&
      kind != static_cast<uint8_t>(Kind::kDeadLettered)) {
    return Status::Corruption("journal record kind " + std::to_string(kind) +
                              " unknown");
  }
  record.kind = static_cast<Kind>(kind);
  DFLOW_ASSIGN_OR_RETURN(record.stage, r.GetString());
  DFLOW_ASSIGN_OR_RETURN(record.input, r.GetString());
  DFLOW_ASSIGN_OR_RETURN(uint64_t num_failures, r.GetVarint());
  if (num_failures > (1u << 20)) {
    return Status::Corruption("implausible failure count in journal record");
  }
  record.injected_failures.reserve(num_failures);
  for (uint64_t i = 0; i < num_failures; ++i) {
    DFLOW_ASSIGN_OR_RETURN(uint8_t injected, r.GetU8());
    record.injected_failures.push_back(injected != 0);
  }
  if (record.kind == Kind::kCompleted) {
    DFLOW_ASSIGN_OR_RETURN(uint64_t num_outputs, r.GetVarint());
    if (num_outputs > (1u << 20)) {
      return Status::Corruption("implausible output count in journal record");
    }
    record.outputs.reserve(num_outputs);
    for (uint64_t i = 0; i < num_outputs; ++i) {
      JournaledProduct out;
      DFLOW_ASSIGN_OR_RETURN(out.name, r.GetString());
      DFLOW_ASSIGN_OR_RETURN(out.bytes, r.GetI64());
      DFLOW_ASSIGN_OR_RETURN(uint64_t num_attrs, r.GetVarint());
      if (num_attrs > (1u << 16)) {
        return Status::Corruption(
            "implausible attribute count in journal record");
      }
      out.attributes.reserve(num_attrs);
      for (uint64_t j = 0; j < num_attrs; ++j) {
        DFLOW_ASSIGN_OR_RETURN(std::string key, r.GetString());
        DFLOW_ASSIGN_OR_RETURN(std::string value, r.GetString());
        out.attributes.emplace_back(std::move(key), std::move(value));
      }
      record.outputs.push_back(std::move(out));
    }
  } else {
    DFLOW_ASSIGN_OR_RETURN(record.error, r.GetString());
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in journal record");
  }
  return record;
}

CheckpointJournal::~CheckpointJournal() {
  if (wal_ != nullptr) {
    // Best-effort final sync: normal destruction makes everything
    // appended durable; only Abandon() (and SIGKILL) drop the tail.
    (void)Sync();
  }
}

Result<std::unique_ptr<CheckpointJournal>> CheckpointJournal::Open(
    const std::string& path) {
  return Open(path, Options{});
}

Result<std::unique_ptr<CheckpointJournal>> CheckpointJournal::Open(
    const std::string& path, Options options) {
  if (options.sync_every < 1) {
    return Status::InvalidArgument("sync_every must be >= 1");
  }
  DFLOW_ASSIGN_OR_RETURN(std::unique_ptr<db::WalWriter> wal,
                         db::WalWriter::Open(path));
  return std::unique_ptr<CheckpointJournal>(
      new CheckpointJournal(std::move(wal), options));
}

Status CheckpointJournal::Append(const StageEventRecord& record) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("journal abandoned");
  }
  pending_.push_back(record.Encode());
  ++records_appended_;
  if (record.kind == StageEventRecord::Kind::kDeadLettered ||
      static_cast<int64_t>(pending_.size()) >= options_.sync_every) {
    return Sync();
  }
  return Status::OK();
}

Status CheckpointJournal::Sync() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("journal abandoned");
  }
  if (pending_.empty()) {
    return Status::OK();
  }
  for (const std::string& payload : pending_) {
    DFLOW_RETURN_IF_ERROR(wal_->Append(payload));
  }
  DFLOW_RETURN_IF_ERROR(wal_->Sync());
  records_synced_ += static_cast<int64_t>(pending_.size());
  pending_.clear();
  return Status::OK();
}

void CheckpointJournal::Abandon() {
  // Drop the unsynced tail on the floor — the SIGKILL view of the file.
  pending_.clear();
  wal_.reset();
}

Result<JournalReplay> JournalReplay::Load(const std::string& path) {
  DFLOW_ASSIGN_OR_RETURN(std::vector<std::string> frames,
                         db::WalReadAll(path));
  JournalReplay replay;
  for (const std::string& frame : frames) {
    DFLOW_ASSIGN_OR_RETURN(StageEventRecord record,
                           StageEventRecord::Decode(frame));
    auto key = std::make_pair(record.stage, record.input);
    bool is_dead = record.kind == StageEventRecord::Kind::kDeadLettered;
    auto [it, inserted] = replay.entries_.emplace(std::move(key),
                                                 std::move(record));
    (void)it;
    if (!inserted) {
      ++replay.duplicates_ignored_;
      continue;
    }
    if (is_dead) {
      ++replay.dead_lettered_;
    } else {
      ++replay.completed_;
    }
  }
  return replay;
}

const StageEventRecord* JournalReplay::Find(const std::string& stage,
                                            const std::string& input) const {
  auto it = entries_.find(std::make_pair(stage, input));
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace dflow::recover
