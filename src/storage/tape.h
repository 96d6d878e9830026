#ifndef DFLOW_STORAGE_TAPE_H_
#define DFLOW_STORAGE_TAPE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/resource.h"
#include "sim/simulation.h"
#include "util/result.h"

namespace dflow::storage {

/// Configuration of a robotic tape library (the CTC archive that Arecibo
/// raw-data disks are copied into, and CLEO's HSM backing store).
struct TapeLibraryConfig {
  int num_drives = 4;
  double mount_seconds = 90.0;          // Robot fetch + load + position.
  double stream_bytes_per_sec = 120.0e6; // LTO-class streaming rate.
  int64_t capacity_bytes = 2 * 1000LL * 1000 * 1000 * 1000 * 1000;  // 2 PB.

  /// Content-bearing writes (WriteContent/ReadContentChecked) are chunked
  /// and wlz-compressed on migrate: fewer stored bytes (capacity, and
  /// streaming time per recall scales with the STORED size) at the price
  /// of per-block compress/decompress CPU, modeled by the two rates below.
  /// Size-only Write()/ReadChecked() are unaffected.
  bool compress_content = true;
  size_t compress_block_bytes = 64 * 1024;
  double compress_bytes_per_sec = 250e6;    // Raw bytes in per second.
  double decompress_bytes_per_sec = 500e6;  // Raw bytes out per second.
};

/// Discrete-event model of a robotic tape archive. Files are stored by
/// name with exact byte accounting; reads and writes contend for a fixed
/// set of drives (a sim::Resource), and each access pays a robot mount
/// latency plus streaming time. This asymmetry (seconds on disk vs minutes
/// on tape) is what makes CLEO's hot/warm/cold placement matter.
///
/// Every file, size-only or content-bearing, is one record: both writes go
/// through one archive step and both reads through one recall step, so
/// capacity, mounts, drive time and faults are accounted once.
class TapeLibrary {
 public:
  TapeLibrary(sim::Simulation* simulation, std::string name,
              TapeLibraryConfig config);

  /// Archives `bytes` under `file`. The callback fires at completion
  /// (virtual time). Fails immediately if the library is out of capacity
  /// or the name already exists.
  Status Write(const std::string& file, int64_t bytes,
               std::function<void()> on_complete);

  /// Fault-aware recall: the callback receives either the stored byte
  /// count or, if the file has developed a bad block, an IOError after the
  /// drive time was already spent (tape errors surface mid-stream, not up
  /// front). Returns NotFound immediately for absent files.
  Status ReadChecked(const std::string& file,
                     std::function<void(Result<int64_t>)> on_complete);

  /// Content-bearing archive: stores `content` under `file`, chunked and
  /// wlz-compressed when `config.compress_content` is set (stored-raw
  /// frames cap expansion on incompressible data). The STORED size is what
  /// counts against capacity and what FileSize/FileNames report — so the
  /// scrubber and migration walk compressed files exactly like size-only
  /// ones. Drive time = AccessTime(stored) + raw/compress rate. The
  /// callback receives the stored byte count.
  Status WriteContent(const std::string& file, std::string content,
                      std::function<void(int64_t)> on_complete);

  /// Fault-aware content recall. Pays AccessTime(stored bytes) plus the
  /// decompress cost, then delivers:
  ///  - IOError, if the file has a bad block (same as ReadChecked);
  ///  - Corruption, if a compressed frame's CRC no longer matches — this
  ///    is how CorruptSilently on a COMPRESSED file surfaces: the per-frame
  ///    CRC in the wlzc container detects the flipped byte at recall time,
  ///    no scrubber needed;
  ///  - the raw content otherwise. Uncompressed content carries no frame
  ///    CRCs, so a silently corrupted uncompressed file returns its rotten
  ///    bytes without complaint (why archives scrub).
  /// NotFound immediately for absent files and size-only ones.
  Status ReadContentChecked(const std::string& file,
                            std::function<void(Result<std::string>)> done);

  bool HasContent(const std::string& file) const;

  /// Uncompressed size of a content-bearing file (NotFound if the file has
  /// no stored content).
  Result<int64_t> RawContentSize(const std::string& file) const;

  /// Instant (no virtual time, no drive) decode of a content-bearing file,
  /// for migration: the media-migration copy loop already pays its own
  /// read+write drive time, and re-compresses for the destination library.
  Result<std::string> ContentSnapshot(const std::string& file) const;

  int64_t content_raw_bytes() const { return content_raw_bytes_; }
  int64_t content_stored_bytes() const { return content_stored_bytes_; }

  /// Fault hook: one drive fails and is occupied by repair for
  /// `repair_seconds` — the next free drive goes into the shop, shrinking
  /// effective parallelism exactly the way CLEO's robotic library loses
  /// drives.
  void InjectDriveFailure(double repair_seconds);

  /// Fault hook: archived `file` develops an unreadable block; every
  /// recall fails with IOError until RepairBadBlock clears it.
  void MarkBadBlock(const std::string& file);

  /// Operator fixed the medium (re-tensioned, re-wrote from a sibling
  /// copy): subsequent reads succeed.
  void RepairBadBlock(const std::string& file);

  bool HasBadBlock(const std::string& file) const;

  /// Fault hook: silent corruption — the file still reads cleanly (no
  /// drive error), but its content no longer matches the stored checksum.
  /// Only an end-to-end verification (the recover::Scrubber) catches it;
  /// production recalls return the rotten bytes without complaint, which
  /// is exactly why archives scrub. A content-bearing file also gets one
  /// stored byte flipped, so compressed content trips the wlzc frame CRC
  /// at recall and uncompressed content reads back rotten.
  void CorruptSilently(const std::string& file);

  /// Restores the file's content/checksum agreement (a clean copy was
  /// rewritten over the rotten one).
  void ClearSilentCorruption(const std::string& file);

  bool IsSilentlyCorrupt(const std::string& file) const;

  int64_t silent_corruptions_injected() const {
    return silent_corruptions_injected_;
  }

  bool Contains(const std::string& file) const;
  Result<int64_t> FileSize(const std::string& file) const;
  /// All archived file names, sorted (the migration walk order).
  std::vector<std::string> FileNames() const;

  int64_t used_bytes() const { return used_; }
  int64_t capacity_bytes() const { return config_.capacity_bytes; }
  int64_t files_stored() const { return static_cast<int64_t>(files_.size()); }
  int64_t mounts() const { return mounts_; }
  int64_t drive_failures() const { return drive_failures_; }
  int64_t bad_block_reads() const { return bad_block_reads_; }
  double repair_seconds_total() const { return repair_seconds_total_; }
  const sim::Resource& drives() const { return drives_; }

  /// Service time for one access of `bytes` (mount + stream).
  double AccessTime(int64_t bytes) const;

 private:
  /// One archived file. A size-only file is just its byte count; a
  /// content-bearing one also carries its stored payload and the
  /// bookkeeping needed to flip (and later restore) one byte on
  /// CorruptSilently.
  struct FileRecord {
    int64_t stored_bytes = 0;  // Counts against capacity; FileSize().
    bool bad_block = false;
    bool silently_corrupt = false;
    bool has_content = false;
    bool compressed = false;
    int64_t raw_bytes = 0;
    std::string stored;  // wlzc container, or raw bytes if uncompressed.
    size_t corrupt_offset = 0;
    char original_byte = 0;
    bool byte_flipped = false;
  };

  /// The archive step behind Write and WriteContent: the name check, the
  /// encode of `content` (when given; otherwise `bytes` is the size), the
  /// capacity check, then one mount and AccessTime(stored) plus any
  /// compress time on a drive. `on_complete` gets the stored byte count
  /// once the copy is durable.
  Status Archive(const std::string& file, int64_t bytes,
                 std::optional<std::string> content,
                 std::function<void(int64_t)> on_complete);
  /// What a recall delivers: the stored size, plus the raw content when
  /// it was asked for.
  struct Recalled {
    int64_t stored_bytes = 0;
    std::string content;
  };

  /// The recall step behind ReadChecked and ReadContentChecked: NotFound up
  /// front (also for content asked of a size-only file), then one mount and
  /// AccessTime(stored), plus the decompress time when content is asked
  /// for, on a drive. `done` gets IOError on a bad block; otherwise the
  /// stored size, and the decoded content (or its Corruption) only when
  /// `want_content` is set.
  Status Recall(const std::string& file, bool want_content,
                std::function<void(Result<Recalled>)> done);
  /// Seconds of codec CPU to move `record`'s raw bytes at `bytes_per_sec`
  /// (0 for uncompressed and size-only files).
  static double CodecSeconds(const FileRecord& record, double bytes_per_sec);
  /// The raw content of a content-bearing record: Corruption if a
  /// compressed frame's CRC fails.
  static Result<std::string> Decode(const FileRecord& record);
  /// The record of `file` (which must carry content if `want_content`),
  /// or NotFound.
  Result<const FileRecord*> Find(const std::string& file,
                                 bool want_content) const;

  sim::Simulation* simulation_;
  std::string name_;
  TapeLibraryConfig config_;
  sim::Resource drives_;
  std::map<std::string, FileRecord> files_;
  int64_t content_raw_bytes_ = 0;
  int64_t content_stored_bytes_ = 0;
  int64_t silent_corruptions_injected_ = 0;
  int64_t used_ = 0;
  int64_t mounts_ = 0;
  int64_t drive_failures_ = 0;
  int64_t bad_block_reads_ = 0;
  double repair_seconds_total_ = 0.0;
};

}  // namespace dflow::storage

#endif  // DFLOW_STORAGE_TAPE_H_
