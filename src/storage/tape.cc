#include "storage/tape.h"

#include <optional>
#include <utility>

#include "util/compress.h"
#include "util/logging.h"
#include "util/units.h"

namespace dflow::storage {

TapeLibrary::TapeLibrary(sim::Simulation* simulation, std::string name,
                         TapeLibraryConfig config)
    : simulation_(simulation), name_(std::move(name)), config_(config),
      drives_(simulation, name_ + "/drives", config.num_drives) {}

double TapeLibrary::AccessTime(int64_t bytes) const {
  return config_.mount_seconds +
         static_cast<double>(bytes) / config_.stream_bytes_per_sec;
}

double TapeLibrary::CodecSeconds(const FileRecord& record,
                                 double bytes_per_sec) {
  if (!record.compressed || bytes_per_sec <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(record.raw_bytes) / bytes_per_sec;
}

Result<std::string> TapeLibrary::Decode(const FileRecord& record) {
  if (record.compressed) {
    // The wlzc per-frame CRC is the corruption detector here: a silently
    // flipped byte in the stored container fails the frame checksum and
    // surfaces as Corruption — no scrub pass needed for compressed
    // content.
    return WlzChunkedDecompress(record.stored);
  }
  // Uncompressed content has no frame CRCs: rotten bytes are returned
  // without complaint, exactly the failure mode the scrubber exists for.
  return record.stored;
}

Result<const TapeLibrary::FileRecord*> TapeLibrary::Find(
    const std::string& file, bool want_content) const {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return Status::NotFound(name_ + ": no archived file '" + file + "'");
  }
  if (want_content && !it->second.has_content) {
    return Status::NotFound(name_ + ": no archived content '" + file + "'");
  }
  return &it->second;
}

Status TapeLibrary::Write(const std::string& file, int64_t bytes,
                          std::function<void()> on_complete) {
  return Archive(file, bytes, std::nullopt,
                 [cb = std::move(on_complete)](int64_t /*stored*/) {
                   if (cb) {
                     cb();
                   }
                 });
}

Status TapeLibrary::WriteContent(const std::string& file, std::string content,
                                 std::function<void(int64_t)> on_complete) {
  return Archive(file, /*bytes=*/0, std::move(content),
                 std::move(on_complete));
}

Status TapeLibrary::Archive(const std::string& file, int64_t bytes,
                            std::optional<std::string> content,
                            std::function<void(int64_t)> on_complete) {
  if (files_.count(file) > 0) {
    return Status::AlreadyExists(name_ + ": file '" + file +
                                 "' already archived");
  }
  FileRecord record;
  record.stored_bytes = bytes;
  if (content.has_value()) {
    record.has_content = true;
    record.compressed = config_.compress_content;
    record.raw_bytes = static_cast<int64_t>(content->size());
    record.stored = record.compressed
                        ? WlzChunkedCompress(*content,
                                             config_.compress_block_bytes)
                        : std::move(*content);
    record.stored_bytes = static_cast<int64_t>(record.stored.size());
  }
  const int64_t stored = record.stored_bytes;
  if (used_ + stored > config_.capacity_bytes) {
    return Status::ResourceExhausted(name_ + ": tape library full (" +
                                     FormatBytes(used_) + " used)");
  }
  used_ += stored;
  if (record.has_content) {
    content_raw_bytes_ += record.raw_bytes;
    content_stored_bytes_ += stored;
  }
  ++mounts_;
  const double service =
      AccessTime(stored) +
      CodecSeconds(record, config_.compress_bytes_per_sec);
  files_.emplace(file, std::move(record));
  drives_.Submit(service, [stored, cb = std::move(on_complete)] {
    if (cb) {
      cb(stored);
    }
  });
  return Status::OK();
}

Status TapeLibrary::ReadChecked(
    const std::string& file,
    std::function<void(Result<int64_t>)> on_complete) {
  return Recall(file, /*want_content=*/false,
                [cb = std::move(on_complete)](Result<Recalled> got) {
                  if (!cb) {
                    return;
                  }
                  if (!got.ok()) {
                    cb(got.status());
                    return;
                  }
                  cb(got->stored_bytes);
                });
}

Status TapeLibrary::ReadContentChecked(
    const std::string& file,
    std::function<void(Result<std::string>)> done) {
  return Recall(file, /*want_content=*/true,
                [cb = std::move(done)](Result<Recalled> got) {
                  if (!cb) {
                    return;
                  }
                  if (!got.ok()) {
                    cb(got.status());
                    return;
                  }
                  cb(std::move(got->content));
                });
}

Status TapeLibrary::Recall(const std::string& file, bool want_content,
                           std::function<void(Result<Recalled>)> done) {
  DFLOW_ASSIGN_OR_RETURN(const FileRecord* record, Find(file, want_content));
  ++mounts_;
  double service = AccessTime(record->stored_bytes);
  if (want_content) {
    service += CodecSeconds(*record, config_.decompress_bytes_per_sec);
  }
  // Records are never erased, so `record` is still valid at completion.
  drives_.Submit(service, [this, file, record, want_content,
                           cb = std::move(done)] {
    // The drive time is spent either way: tape errors surface mid-stream.
    if (record->bad_block) {
      ++bad_block_reads_;
      cb(Status::IOError(name_ + ": bad block reading '" + file + "'"));
      return;
    }
    Recalled got;
    got.stored_bytes = record->stored_bytes;
    if (want_content) {
      Result<std::string> content = Decode(*record);
      if (!content.ok()) {
        cb(content.status());
        return;
      }
      got.content = std::move(*content);
    }
    cb(std::move(got));
  });
  return Status::OK();
}

bool TapeLibrary::HasContent(const std::string& file) const {
  auto it = files_.find(file);
  return it != files_.end() && it->second.has_content;
}

Result<int64_t> TapeLibrary::RawContentSize(const std::string& file) const {
  DFLOW_ASSIGN_OR_RETURN(const FileRecord* record,
                         Find(file, /*want_content=*/true));
  return record->raw_bytes;
}

Result<std::string> TapeLibrary::ContentSnapshot(
    const std::string& file) const {
  DFLOW_ASSIGN_OR_RETURN(const FileRecord* record,
                         Find(file, /*want_content=*/true));
  return Decode(*record);
}

void TapeLibrary::InjectDriveFailure(double repair_seconds) {
  if (repair_seconds <= 0.0) {
    return;
  }
  ++drive_failures_;
  repair_seconds_total_ += repair_seconds;
  DFLOW_LOG(Warning) << name_ << ": drive failure, " << repair_seconds
                     << "s of repair at t=" << simulation_->Now();
  // The repair ticket occupies the next free drive for the repair window,
  // shrinking effective parallelism for everything queued behind it.
  drives_.Submit(repair_seconds, nullptr);
}

void TapeLibrary::MarkBadBlock(const std::string& file) {
  auto it = files_.find(file);
  if (it != files_.end()) {
    it->second.bad_block = true;
  }
}

void TapeLibrary::RepairBadBlock(const std::string& file) {
  auto it = files_.find(file);
  if (it != files_.end()) {
    it->second.bad_block = false;
  }
}

bool TapeLibrary::HasBadBlock(const std::string& file) const {
  auto it = files_.find(file);
  return it != files_.end() && it->second.bad_block;
}

void TapeLibrary::CorruptSilently(const std::string& file) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return;
  }
  FileRecord& record = it->second;
  if (!record.silently_corrupt) {
    record.silently_corrupt = true;
    ++silent_corruptions_injected_;
  }
  if (record.has_content && !record.stored.empty() && !record.byte_flipped) {
    record.corrupt_offset = record.stored.size() / 2;
    record.original_byte = record.stored[record.corrupt_offset];
    record.stored[record.corrupt_offset] =
        static_cast<char>(record.original_byte ^ 0x5a);
    record.byte_flipped = true;
  }
}

void TapeLibrary::ClearSilentCorruption(const std::string& file) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return;
  }
  FileRecord& record = it->second;
  record.silently_corrupt = false;
  if (record.byte_flipped) {
    record.stored[record.corrupt_offset] = record.original_byte;
    record.byte_flipped = false;
  }
}

bool TapeLibrary::IsSilentlyCorrupt(const std::string& file) const {
  auto it = files_.find(file);
  return it != files_.end() && it->second.silently_corrupt;
}

bool TapeLibrary::Contains(const std::string& file) const {
  return files_.count(file) > 0;
}

std::vector<std::string> TapeLibrary::FileNames() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, record] : files_) {
    names.push_back(name);
  }
  return names;
}

Result<int64_t> TapeLibrary::FileSize(const std::string& file) const {
  DFLOW_ASSIGN_OR_RETURN(const FileRecord* record,
                         Find(file, /*want_content=*/false));
  return record->stored_bytes;
}

}  // namespace dflow::storage
