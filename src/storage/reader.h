#ifndef INCDB_STORAGE_READER_H_
#define INCDB_STORAGE_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/snapshot.h"
#include "storage/mmap_file.h"

namespace incdb {
namespace storage {

struct OpenOptions {
  /// Verify every section's CRC-32 (and the deep structure of borrowed WAH
  /// payloads) at open time. Costs one pass over the mapped bytes; turn it
  /// off for the pure-mmap fast path where open time is O(1) in the data
  /// size and pages fault in lazily on first query.
  ///
  /// The no-crash corruption guarantee is tied to this flag: an unverified
  /// open still rejects all metadata corruption (manifest, catalog,
  /// structural invariants) with a Status, but corruption in the bulk
  /// payload bytes — WAH code words, packed VA codes, column values — goes
  /// undetected and can produce wrong answers or undefined behavior at
  /// query time. Use the fast path only on stores whose integrity is
  /// assured elsewhere (e.g. verified once after transfer, then served
  /// from local disk).
  bool verify_checksums = true;
};

/// Identity of one opened segment file — what a later Save needs to reuse
/// the file instead of rewriting it (the writer's SegmentPersistCache is
/// seeded from these).
struct OpenedSegmentFile {
  uint64_t content_id = 0;
  std::string file_name;
  uint64_t file_size = 0;
  uint32_t crc32 = 0;
};

/// Everything OpenStore reconstructs from a store directory. The table's
/// columns and the bitmap / VA-file payloads are borrowed views into
/// `mapping` and `segment_mappings` (format v2 maps every segment file
/// independently); keep all pins alive for as long as any of them is
/// reachable (the Database stows them next to the table).
struct OpenedStore {
  std::shared_ptr<MappedFile> mapping;
  std::vector<std::shared_ptr<MappedFile>> segment_mappings;
  /// Reconstructed segment list (null when the store is not segmented);
  /// `segment_files` runs parallel to segments->segments.
  std::shared_ptr<const internal::SegmentList> segments;
  std::vector<OpenedSegmentFile> segment_files;
  std::shared_ptr<Table> table;
  uint64_t num_rows = 0;
  std::shared_ptr<const BitVector> deleted;  ///< null when nothing deleted
  uint64_t num_deleted = 0;
  std::vector<uint64_t> missing_counts;
  /// Deserialized indexes (mmap-borrowed where the format allows).
  std::vector<internal::SnapshotIndexEntry> indexes;
};

/// Opens a store directory written by WriteSnapshot. With checksum
/// verification on (the default), all corruption — missing or truncated
/// files, bad magic, a future format version, section checksum mismatches,
/// implausible metadata — surfaces as a Status error, never a crash. With
/// verify_checksums off, open time is independent of the data size but the
/// no-crash guarantee narrows to metadata; see OpenOptions.
Result<OpenedStore> OpenStore(const std::string& dir,
                              const OpenOptions& options = {});

}  // namespace storage
}  // namespace incdb

#endif  // INCDB_STORAGE_READER_H_
