#include "eve/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/str_util.h"
#include "eve/view_pool_io.h"
#include "federation/membership.h"
#include "mkb/serializer.h"
#include "mkb/version_store.h"

namespace eve {

namespace {

constexpr char kJournalMagic[] = "EVEJRNL1";
constexpr size_t kMagicSize = 8;
constexpr size_t kFrameHeaderSize = 8;  // u32 length + u32 crc
// Journal records are short texts; anything larger than this is framing
// corruption, not a record.
constexpr uint32_t kMaxRecordSize = 64u << 20;

constexpr char kCheckpointHeader[] = "-- EVE CHECKPOINT v1";
constexpr char kSectionMkb[] = "-- SECTION MKB";
constexpr char kSectionViews[] = "-- SECTION VIEWS";
constexpr char kSectionChangeLog[] = "-- SECTION CHANGELOG";
// Optional (absent in pre-federation checkpoints): membership rows.
constexpr char kSectionFederation[] = "-- SECTION FEDERATION";
// Optional (absent in pre-versioning checkpoints): the serialized MKB
// version chain (MkbVersionStore::Serialize).
constexpr char kSectionVersions[] = "-- SECTION VERSIONS";
constexpr char kSectionEnd[] = "-- SECTION END";

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

void PutU32(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>(value & 0xFF));
  out->push_back(static_cast<char>((value >> 8) & 0xFF));
  out->push_back(static_cast<char>((value >> 16) & 0xFF));
  out->push_back(static_cast<char>((value >> 24) & 0xFF));
}

uint32_t GetU32(std::string_view bytes, size_t offset) {
  return static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset])) |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 1]))
             << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 2]))
             << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 3]))
             << 24;
}

bool IsKnownRecordKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(JournalRecordKind::kExtendMkb) &&
         kind <= static_cast<uint8_t>(JournalRecordKind::kRegisterViewsBulk);
}

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("cannot append to", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<Journal> Journal::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Errno("cannot open journal", path);
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size == 0) {
    const Status status =
        WriteAll(fd, std::string_view(kJournalMagic, kMagicSize), path);
    if (!status.ok() || ::fsync(fd) != 0) {
      ::close(fd);
      return status.ok() ? Errno("cannot fsync journal", path) : status;
    }
  } else {
    // Validate the magic so we never append records to an arbitrary file.
    char magic[kMagicSize];
    const int read_fd = ::open(path.c_str(), O_RDONLY);
    const bool magic_ok =
        read_fd >= 0 &&
        ::read(read_fd, magic, kMagicSize) ==
            static_cast<ssize_t>(kMagicSize) &&
        std::memcmp(magic, kJournalMagic, kMagicSize) == 0;
    if (read_fd >= 0) ::close(read_fd);
    if (!magic_ok) {
      ::close(fd);
      return Status::ParseError("not a journal file: " + path);
    }
  }
  return Journal(path, fd);
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      observer_(std::move(other.observer_)) {
  other.fd_ = -1;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    observer_ = std::move(other.observer_);
    other.fd_ = -1;
  }
  return *this;
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

Status Journal::Append(JournalRecordKind kind, std::string_view body) {
  if (fd_ < 0) return Status::FailedPrecondition("journal is closed");
  EVE_FAILPOINT(fp::kJournalAppendBeforeWrite);
  std::string payload;
  payload.reserve(1 + body.size());
  payload.push_back(static_cast<char>(kind));
  payload.append(body);
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame.append(payload);
  // The frame is written in two halves with a failpoint between them: a
  // crash there leaves a torn final record for recovery to detect and drop.
  const off_t start = ::lseek(fd_, 0, SEEK_END);
  const size_t half = frame.size() / 2;
  const Status written = [&]() -> Status {
    EVE_RETURN_IF_ERROR(
        WriteAll(fd_, std::string_view(frame).substr(0, half), path_));
    EVE_FAILPOINT(fp::kJournalAppendPartialWrite);
    EVE_RETURN_IF_ERROR(
        WriteAll(fd_, std::string_view(frame).substr(half), path_));
    EVE_FAILPOINT(fp::kJournalAppendBeforeFsync);
    if (::fsync(fd_) != 0) return Errno("cannot fsync journal", path_);
    return Status::OK();
  }();
  if (!written.ok()) {
    // Reported failure (not a crash): drop whatever part of the frame made
    // it out, so a later append cannot bury a torn record mid-journal.
    if (start >= 0 && ::ftruncate(fd_, start) == 0) ::fsync(fd_);
    return written;
  }
  // The record is durable: let the replication tail ship it.
  if (observer_) observer_(kind, body);
  return Status::OK();
}

Status Journal::Reset() {
  if (fd_ < 0) return Status::FailedPrecondition("journal is closed");
  if (::ftruncate(fd_, static_cast<off_t>(kMagicSize)) != 0) {
    return Errno("cannot truncate journal", path_);
  }
  if (::fsync(fd_) != 0) return Errno("cannot fsync journal", path_);
  return Status::OK();
}

Result<JournalScan> ScanJournalBytes(std::string_view bytes) {
  if (bytes.size() < kMagicSize ||
      std::memcmp(bytes.data(), kJournalMagic, kMagicSize) != 0) {
    return Status::ParseError("missing journal magic");
  }
  JournalScan scan;
  size_t pos = kMagicSize;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeaderSize) {
      scan.torn_tail = true;  // torn frame header
      break;
    }
    const uint32_t length = GetU32(bytes, pos);
    const uint32_t crc = GetU32(bytes, pos + 4);
    if (length == 0 || length > kMaxRecordSize ||
        length > bytes.size() - pos - kFrameHeaderSize) {
      scan.torn_tail = true;  // torn or corrupt payload length
      break;
    }
    const std::string_view payload =
        bytes.substr(pos + kFrameHeaderSize, length);
    if (Crc32(payload) != crc ||
        !IsKnownRecordKind(static_cast<uint8_t>(payload[0]))) {
      scan.torn_tail = true;  // corrupted record: stop at the valid prefix
      break;
    }
    scan.records.push_back(
        JournalRecord{static_cast<JournalRecordKind>(payload[0]),
                      std::string(payload.substr(1))});
    pos += kFrameHeaderSize + length;
  }
  if (scan.torn_tail) scan.dropped_bytes = bytes.size() - pos;
  return scan;
}

Result<JournalScan> ReadJournal(const std::string& path) {
  const Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) return JournalScan{};
    return bytes.status();
  }
  return ScanJournalBytes(bytes.value());
}

std::string SaveFederation(const EveSystem& system) {
  std::ostringstream os;
  // std::map: name-sorted, so the section is deterministic.
  for (const auto& [source, membership] : system.source_membership()) {
    os << federation::SerializeMembership(source, membership) << "\n";
  }
  return os.str();
}

std::string RenderCheckpoint(const EveSystem& system) {
  std::ostringstream os;
  os << kCheckpointHeader << "\n";
  os << kSectionMkb << "\n" << SaveMkb(system.mkb());
  os << kSectionViews << "\n" << SaveViews(system);
  os << kSectionChangeLog << "\n";
  for (const ChangeReport& report : system.change_log()) {
    os << SerializeChange(report.change) << "\n";
  }
  os << kSectionFederation << "\n" << SaveFederation(system);
  os << kSectionVersions << "\n" << system.versions().Serialize();
  os << kSectionEnd << "\n";
  return os.str();
}

namespace {

// Finds marker line `marker` in `text` at a line start, returning the
// offset just past its newline, or npos.
size_t FindSection(std::string_view text, std::string_view marker,
                   size_t from, size_t* content_start) {
  size_t pos = from;
  while (pos <= text.size()) {
    const size_t hit = text.find(marker, pos);
    if (hit == std::string_view::npos) return std::string_view::npos;
    const bool at_line_start = hit == 0 || text[hit - 1] == '\n';
    const size_t line_end = text.find('\n', hit);
    if (at_line_start &&
        Trim(text.substr(hit, (line_end == std::string_view::npos
                                   ? text.size()
                                   : line_end) -
                                  hit)) == marker) {
      *content_start =
          line_end == std::string_view::npos ? text.size() : line_end + 1;
      return hit;
    }
    pos = hit + 1;
  }
  return std::string_view::npos;
}

}  // namespace

Result<EveSystem> LoadCheckpoint(std::string_view text) {
  EVE_FAILPOINT(fp::kCheckpointLoadValidate);
  if (Trim(text).empty()) return EveSystem(Mkb());  // bootstrap: no state yet
  if (!StartsWith(std::string(Trim(text.substr(0, text.find('\n')))),
                  kCheckpointHeader)) {
    return Status::ParseError("not an EVE checkpoint");
  }
  size_t mkb_start = 0, views_start = 0, log_start = 0, end_start = 0;
  const size_t mkb_at = FindSection(text, kSectionMkb, 0, &mkb_start);
  if (mkb_at == std::string_view::npos) {
    return Status::ParseError("checkpoint missing MKB section");
  }
  const size_t views_at =
      FindSection(text, kSectionViews, mkb_start, &views_start);
  if (views_at == std::string_view::npos) {
    return Status::ParseError("checkpoint missing VIEWS section");
  }
  const size_t log_at =
      FindSection(text, kSectionChangeLog, views_start, &log_start);
  if (log_at == std::string_view::npos) {
    return Status::ParseError("checkpoint missing CHANGELOG section");
  }
  // FEDERATION and VERSIONS are optional: older checkpoints go straight
  // from CHANGELOG to END.
  size_t federation_start = 0;
  const size_t federation_at =
      FindSection(text, kSectionFederation, log_start, &federation_start);
  const size_t versions_from =
      federation_at == std::string_view::npos ? log_start : federation_start;
  size_t versions_start = 0;
  const size_t versions_at =
      FindSection(text, kSectionVersions, versions_from, &versions_start);
  const size_t end_from =
      versions_at == std::string_view::npos ? versions_from : versions_start;
  const size_t end_at = FindSection(text, kSectionEnd, end_from, &end_start);
  if (end_at == std::string_view::npos) {
    return Status::ParseError(
        "checkpoint missing END section (torn checkpoint?)");
  }
  const size_t versions_end = end_at;
  const size_t federation_end =
      versions_at == std::string_view::npos ? end_at : versions_at;
  const size_t log_end =
      federation_at != std::string_view::npos
          ? federation_at
          : (versions_at != std::string_view::npos ? versions_at : end_at);

  EVE_ASSIGN_OR_RETURN(Mkb mkb,
                       LoadMkb(text.substr(mkb_start, views_at - mkb_start)));
  EveSystem system(std::move(mkb));
  EVE_RETURN_IF_ERROR(
      LoadViews(text.substr(views_start, log_at - views_start), &system));
  std::vector<ChangeReport> log;
  for (const std::string& line :
       Split(text.substr(log_start, log_end - log_start), '\n')) {
    if (Trim(line).empty()) continue;
    ChangeReport report;
    EVE_ASSIGN_OR_RETURN(report.change, ParseChange(line));
    log.push_back(std::move(report));
  }
  system.RestoreChangeLog(std::move(log));
  if (federation_at != std::string_view::npos) {
    std::map<std::string, federation::SourceMembership> table;
    for (const std::string& line :
         Split(text.substr(federation_start, federation_end - federation_start),
               '\n')) {
      if (Trim(line).empty()) continue;
      EVE_ASSIGN_OR_RETURN(const federation::NamedMembership named,
                           federation::ParseMembership(line));
      table[named.source] = named.membership;
    }
    system.RestoreSourceMembership(std::move(table));
  }
  if (versions_at != std::string_view::npos) {
    EVE_ASSIGN_OR_RETURN(
        MkbVersionStore store,
        MkbVersionStore::Deserialize(
            text.substr(versions_start, versions_end - versions_start)));
    EVE_RETURN_IF_ERROR(system.RestoreVersionStore(std::move(store)));
  }
  return system;
}

Status WriteCheckpoint(const EveSystem& system, const std::string& path) {
  return AtomicWriteFile(path, RenderCheckpoint(system));
}

void JournalReplayer::ApplyTolerant(EveSystem* system,
                                    const JournalRecord& record,
                                    RecoveryReport* report) {
  const Status status = system->ReplayRecord(record);
  if (report == nullptr) return;
  if (status.ok()) {
    ++report->replayed;
  } else {
    ++report->skipped;
    report->notes.push_back("skipped record: " + status.ToString());
  }
}

void JournalReplayer::Apply(EveSystem* system, const JournalRecord& record,
                            RecoveryReport* report) {
  switch (record.kind) {
    case JournalRecordKind::kBeginBatch:
      if (in_batch_) {
        if (report != nullptr) {
          report->discarded += batch_.size();
          report->notes.push_back("discarded unterminated batch");
        }
        batch_.clear();
      }
      in_batch_ = true;
      break;
    case JournalRecordKind::kCommitBatch:
      for (const JournalRecord& buffered : batch_) {
        ApplyTolerant(system, buffered, report);
      }
      batch_.clear();
      in_batch_ = false;
      break;
    case JournalRecordKind::kAbortBatch:
      if (report != nullptr) report->discarded += batch_.size();
      batch_.clear();
      in_batch_ = false;
      break;
    default:
      if (in_batch_) {
        batch_.push_back(record);
      } else {
        ApplyTolerant(system, record, report);
      }
      break;
  }
}

void JournalReplayer::Finish(RecoveryReport* report) {
  if (in_batch_) {
    // Crash (or stream loss) mid-batch: no commit marker, so the batch
    // never happened.
    if (report != nullptr) {
      report->discarded += batch_.size();
      report->notes.push_back("discarded uncommitted trailing batch");
    }
  }
  batch_.clear();
  in_batch_ = false;
}

Result<EveSystem> RecoverFromFiles(const std::string& checkpoint_path,
                                   const std::string& journal_path,
                                   RecoveryReport* report) {
  std::string checkpoint_text;
  const Result<std::string> read = ReadFileToString(checkpoint_path);
  if (read.ok()) {
    checkpoint_text = read.value();
  } else if (read.status().code() != StatusCode::kNotFound) {
    return read.status();
  }
  EVE_ASSIGN_OR_RETURN(const JournalScan scan, ReadJournal(journal_path));
  RecoveryReport local;
  RecoveryReport& out = report != nullptr ? *report : local;
  out.torn_tail = scan.torn_tail;
  out.torn_bytes = scan.dropped_bytes;
  return EveSystem::Recover(checkpoint_text, scan.records, &out);
}

}  // namespace eve
