#include "db/wal.h"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/crc32.h"

namespace dflow::db {

namespace {

// The one reader of the frame format. Reads frames from the start of
// `file` until the first torn or corrupt one, appending each intact
// payload to `records` (if given), and returns the offset just past the
// last intact frame.
long ReadFrames(std::FILE* file, std::vector<std::string>* records) {
  long intact_end = 0;
  while (true) {
    uint32_t len = 0;
    uint32_t crc = 0;
    if (std::fread(&len, sizeof(len), 1, file) != 1) {
      break;  // Clean end of log.
    }
    if (std::fread(&crc, sizeof(crc), 1, file) != 1) {
      break;  // Torn header.
    }
    if (len > (64u << 20)) {
      break;  // Implausible length: corrupt tail.
    }
    std::string payload(len, '\0');
    if (len > 0 && std::fread(payload.data(), len, 1, file) != 1) {
      break;  // Torn payload.
    }
    if (Crc32::Of(payload) != crc) {
      break;  // Corrupt record.
    }
    intact_end += 8 + static_cast<long>(len);
    if (records != nullptr) {
      records->push_back(std::move(payload));
    }
  }
  return intact_end;
}

}  // namespace

WalWriter::~WalWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, std::vector<std::string>* records) {
  // "a+": reads from anywhere, every write appends, creates a missing file.
  std::FILE* file = std::fopen(path.c_str(), "a+b");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL '" + path +
                           "': " + std::strerror(errno));
  }
  auto writer = std::unique_ptr<WalWriter>(new WalWriter(file));
  std::rewind(file);
  const long intact_end = ReadFrames(file, records);
  if (std::fseek(file, 0, SEEK_END) != 0) {
    return Status::IOError("cannot seek WAL '" + path + "'");
  }
  if (std::ftell(file) > intact_end) {
    // Cut the torn tail off, so new records follow the intact ones instead
    // of sitting behind bytes every reader stops at.
    std::error_code ec;
    std::filesystem::resize_file(path, static_cast<uintmax_t>(intact_end),
                                 ec);
    if (ec) {
      return Status::IOError("cannot cut the torn tail of WAL '" + path +
                             "': " + ec.message());
    }
  }
  return writer;
}

Status WalWriter::Append(std::string_view payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32::Of(payload);
  if (std::fwrite(&len, sizeof(len), 1, file_) != 1 ||
      std::fwrite(&crc, sizeof(crc), 1, file_) != 1 ||
      (len > 0 && std::fwrite(payload.data(), len, 1, file_) != 1)) {
    return Status::IOError("WAL append failed: " +
                           std::string(std::strerror(errno)));
  }
  bytes_written_ += 8 + len;
  ++last_lsn_;
  return Status::OK();
}

Status WalWriter::Sync() {
  if (std::fflush(file_) != 0) {
    return Status::IOError("WAL flush failed");
  }
  durable_lsn_ = last_lsn_;
  return Status::OK();
}

Status WalWriter::EnsureDurable(uint64_t lsn) {
  if (lsn <= durable_lsn_) {
    return Status::OK();
  }
  return Sync();
}

Result<std::vector<std::string>> WalReadAll(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("no WAL at '" + path + "'");
  }
  std::vector<std::string> records;
  ReadFrames(file, &records);
  std::fclose(file);
  return records;
}

}  // namespace dflow::db
