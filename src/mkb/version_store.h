// Copy-on-write MKB version chain. Every committed capability change (and
// every view-pool mutation that rides along with one) produces a new
// immutable version v0..vN. A version is a list of CRC-checksummed text
// segments — the four MISD blocks of the MKB plus the serialized view pool
// — and versions that leave a block untouched share the previous version's
// segment by shared_ptr, so a 1k-version chain over a slowly-evolving MKB
// retains far fewer bytes than 1k full snapshots.
//
// Readers pin a version in O(1): `Tip()` / `Pin(id)` hand out a
// shared_ptr<const Mkb> plus the version node, and the pin stays valid (and
// byte-stable) across any number of concurrent commits — commits only
// append to the chain and swap the tip pointer under the store mutex.
//
// The chain is append-only even under rollback: RollbackToVersion commits
// the restored state as a NEW version, so history is never truncated and
// every version id ever handed out stays resolvable.

#ifndef EVE_MKB_VERSION_STORE_H_
#define EVE_MKB_VERSION_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "mkb/mkb.h"

namespace eve {

// One immutable, checksummed text segment. Shared (by shared_ptr) between
// adjacent versions whose renderings are byte-identical.
struct MkbVersionSegment {
  std::string name;  // RELATIONS, JOINS, FUNCTIONS, PCS, VIEWS
  std::string body;
  uint32_t crc = 0;  // Crc32(body)
};

// The number of segments every version carries, in order.
inline constexpr size_t kNumVersionSegments = 5;
extern const char* const kVersionSegmentNames[kNumVersionSegments];

// One immutable node in the version chain.
struct MkbVersion {
  uint64_t id = 0;
  uint64_t parent = 0;  // id - 1; v0 is its own parent
  std::string change;   // single-line description of the committing change
  std::vector<std::shared_ptr<const MkbVersionSegment>> segments;
  uint32_t crc = 0;  // covers id, parent, change and the segment crcs
};

// A pinned snapshot: the version node plus a parsed MKB. Holding the
// returned shared_ptrs keeps both alive across concurrent commits.
struct PinnedMkb {
  std::shared_ptr<const MkbVersion> version;
  std::shared_ptr<const Mkb> mkb;
  uint64_t id() const { return version ? version->id : 0; }
};

// Scrub result: counters plus a human-readable line per finding.
struct VersionScrubStats {
  uint64_t versions_checked = 0;
  uint64_t segments_checked = 0;
  uint64_t segments_shared = 0;  // reused verbatim from the parent version
  uint64_t corruptions = 0;
  std::vector<std::string> findings;

  std::string ToString() const;
};

// Retained (unique segment) vs logical (sum over versions) byte counts:
// logical / retained is the copy-on-write amplification.
struct VersionByteStats {
  uint64_t retained_bytes = 0;
  uint64_t logical_bytes = 0;
};

class MkbVersionStore {
 public:
  MkbVersionStore() = default;
  MkbVersionStore(const MkbVersionStore& other);
  MkbVersionStore& operator=(const MkbVersionStore& other);

  // Re-seeds the chain with a single version v0 holding `mkb` + the view
  // pool text. Used at system construction and checkpoint load.
  void Reset(std::shared_ptr<const Mkb> mkb, std::string views_text,
             std::string change);

  // Appends version NextId() rendering `mkb` + `views_text`. Segments that
  // are byte-identical to the current tip's are shared, not copied; when
  // `mkb` is pointer-identical to the tip's MKB the four MISD segments are
  // reused without re-rendering. Returns the new version id.
  uint64_t Commit(std::shared_ptr<const Mkb> mkb, std::string views_text,
                  std::string change);

  // Commit variant for callers that KNOW the view pool is unchanged since
  // the tip: shares the tip's VIEWS segment by pointer without rendering or
  // byte-comparing the pool — O(MKB), not O(views). Used by the sharded
  // serving core, where an MKB evolution is fanned out to shards whose view
  // partition the change does not touch.
  uint64_t CommitSharedViews(std::shared_ptr<const Mkb> mkb,
                             std::string change);

  uint64_t tip_id() const;
  // The id the next Commit will assign (== number of versions).
  uint64_t NextId() const;
  size_t NumVersions() const;
  bool HasVersion(uint64_t id) const;

  // O(1): shares the already-parsed tip MKB.
  PinnedMkb Tip() const;
  // Pins an arbitrary retained version; non-tip versions reparse the MISD
  // segments (the price of time travel, not of the hot path).
  Result<PinnedMkb> Pin(uint64_t id) const;
  // The serialized view pool frozen at version `id`.
  Result<std::string> ViewsAt(uint64_t id) const;
  // Snapshot of the chain (shared immutable nodes).
  std::vector<std::shared_ptr<const MkbVersion>> Versions() const;

  // Walks the whole chain verifying segment checksums, version checksums,
  // id sequencing and parent links. Never throws; corruption is counted
  // and described. Also consults the mkb.version_store.scrub failpoint so
  // tests can inject a detected finding.
  VersionScrubStats Scrub() const;

  VersionByteStats ByteStats() const;

  // One-line-per-version human summary (SHOW VERSIONS).
  std::string Render() const;

  // Serializes the chain for the checkpoint VERSIONS section and loads it
  // back, verifying every CRC and link; any flipped/missing byte fails.
  std::string Serialize() const;
  static Result<MkbVersionStore> Deserialize(std::string_view text);

  // Testing back door: deep-copies version `id` (and segment `segment`)
  // and flips one byte of the copy's body, so exactly one version is
  // corrupted and shared siblings stay intact. Returns false on bad args.
  bool CorruptSegmentForTesting(uint64_t id, size_t segment,
                                size_t byte_offset);

 private:
  static uint32_t VersionCrc(const MkbVersion& version);
  std::shared_ptr<const MkbVersion> NodeAt(uint64_t id) const;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const MkbVersion>> versions_;
  std::shared_ptr<const Mkb> tip_mkb_;  // parsed form of the tip version
};

}  // namespace eve

#endif  // EVE_MKB_VERSION_STORE_H_
