#ifndef MLFS_IO_BLOCK_FILE_H_
#define MLFS_IO_BLOCK_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mlfs {

class BlockFile;
using BlockFilePtr = std::shared_ptr<const BlockFile>;

/// Readahead counters of a spilled tier. The library does not read ahead,
/// so both always read 0. The struct stays only because the benchmark sums
/// OfflineStorageStats::readahead and EmbeddingTierStats::readahead into
/// its io.readahead.* counters (e2ebench/workloads.cc).
struct ReadaheadStats {
  uint64_t issued = 0;
  uint64_t wasted = 0;
};

/// The one envelope for every byte the store persists:
///
///   [u32 magic][u32 version][u64 body_len][body][u64 Checksum64(body)]
///
/// Segments ("MLSG"), embedding tier files ("MLET"), the six component
/// snapshots and the FeatureStore checkpoint file all differ only in the
/// body. Unseal checks a blob in place; a BlockFile holds a checked blob
/// in a resident buffer (FromBytes) or a read-only private file mapping
/// (Map / Spill).
///
/// Every envelope invariant — minimum length, magic, version, body length
/// arithmetic, body checksum — is validated before a body byte is handed
/// out, so a truncated or bit-flipped blob surfaces as Status::Corruption
/// and never as UB in a body parser. The version is checked before the
/// checksum, so a blob of an older format reads as "unsupported version".
/// The body checksum (common/hash.h Checksum64) covers every body byte
/// once, so formats carry no checksums of their own. Body-internal
/// structure remains the caller's job: a valid checksum does not make
/// crafted input well-formed.
///
/// Spill discipline: Spill() writes the blob with WriteFileAtomic
/// (temp + rename, no fsync) and re-opens it through Map, so a crash
/// mid-spill leaves no half-written file behind and the resident copy can
/// be dropped only once the mapping validated. Files opened with
/// `remove_file_on_destroy` are scratch: deleted when the last reference
/// drops.
///
/// Failpoint: "io.load" fires at the top of Map (and therefore inside
/// Spill's re-open) — the injected status propagates and the callers'
/// budget loops degrade to keeping data resident.
class BlockFile {
 public:
  /// magic + version + body_len.
  static constexpr size_t kPreludeBytes = 16;
  /// Checksum64(body).
  static constexpr size_t kTrailerBytes = 8;

  /// Wraps `body` in the envelope. The result round-trips through
  /// Unseal/FromBytes/Map with the same magic/version.
  static std::string Seal(uint32_t magic, uint32_t version,
                          std::string_view body);

  /// Seal over a body given as consecutive pieces, written straight into
  /// the blob: a format that builds its body in sections (a segment's
  /// header and column buffers) copies each byte once.
  static std::string Seal(uint32_t magic, uint32_t version,
                          std::span<const std::string_view> body_pieces);

  /// Checks `blob`'s envelope in place and returns a view of its body
  /// (valid as long as `blob` is). `what` names the format in error
  /// messages ("segment", "online-store snapshot", ...).
  static StatusOr<std::string_view> Unseal(uint32_t magic, uint32_t version,
                                           std::string_view blob,
                                           std::string_view what);

  /// Validates a blob held in RAM (the resident tier).
  static StatusOr<BlockFilePtr> FromBytes(uint32_t magic, uint32_t version,
                                          std::string bytes,
                                          std::string_view what);

  /// Memory-maps and validates a file (the spilled tier).
  static StatusOr<BlockFilePtr> Map(uint32_t magic, uint32_t version,
                                    std::string path,
                                    bool remove_file_on_destroy,
                                    std::string_view what);

  /// WriteFileAtomic(path, blob) followed by Map. On any failure after
  /// the write the file is removed, so a failed spill leaves no orphan.
  static StatusOr<BlockFilePtr> Spill(uint32_t magic, uint32_t version,
                                      std::string_view blob, std::string path,
                                      bool remove_file_on_destroy,
                                      std::string_view what);

  ~BlockFile();
  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  /// The full envelope (what a spill writes and a snapshot embeds).
  std::string_view data() const { return data_; }
  /// The payload between prelude and trailer.
  std::string_view body() const {
    return data_.substr(kPreludeBytes,
                        data_.size() - kPreludeBytes - kTrailerBytes);
  }
  bool mapped() const { return map_ != nullptr; }
  const std::string& path() const { return path_; }
  size_t size() const { return data_.size(); }

 private:
  BlockFile() = default;

  // Backing storage: exactly one of bytes_ (resident) or map_ (file
  // mapping) is active; data_ views whichever it is.
  std::string bytes_;
  void* map_ = nullptr;
  size_t map_len_ = 0;
  std::string path_;
  bool remove_file_on_destroy_ = false;
  std::string_view data_;
};

}  // namespace mlfs

#endif  // MLFS_IO_BLOCK_FILE_H_
