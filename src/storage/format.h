#ifndef INCDB_STORAGE_FORMAT_H_
#define INCDB_STORAGE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace incdb {
namespace storage {

/// On-disk layout of a persisted database (see docs/STORAGE.md).
///
/// A store is a directory of three live files, plus — format v2, when the
/// database is segmented (docs/SEGMENTS.md) — one immutable file per
/// sealed segment:
///
///   MANIFEST           — format magic + version, the store generation, the
///                        section table (name, file, offset, length, CRC-32
///                        per section), and a trailing CRC-32 over the
///                        manifest itself.
///   catalog.<gen>.bin  — one BinaryWriter stream: schema, row/deletion
///                        state, per-attribute missing counts, and per-index
///                        metadata (everything small; bulk arrays live in
///                        the segment and are referenced by offset).
///   data.<gen>.seg     — 8-byte-aligned bulk arrays: column values, WAH
///                        code words, VA-file packed approximations. Opened
///                        with mmap and served zero-copy through borrowed
///                        views. In a segmented store the sealed rows live
///                        in their segment files, so this holds only the
///                        unsealed tail's columns (plus registry indexes).
///   seg-<id>[.g<gen>].dat — one sealed segment, addressed by its content
///                        id: the segment's column values, zone map, and
///                        its own index, with a trailing meta-block
///                        pointer. Content-immutable, so a Save reuses the
///                        files of every segment that did not change —
///                        save cost is bounded by the dirty set, not the
///                        store size — and each file is mmap'd
///                        independently at open. The catalog's segment
///                        table carries each file's size and whole-file
///                        CRC-32.
///
/// Payload files are immutable once written: every Save writes a fresh
/// generation (old payload files are never truncated or rewritten in
/// place), makes it durable with fsync, and then commits by atomically
/// renaming a new MANIFEST over the old one. A crash at any point leaves
/// either the previous complete store or the new one — never a mix — and
/// saving into the directory a snapshot was opened from is safe: the old
/// generation's mapping stays valid (the inode outlives the unlink) while
/// the new generation is written beside it.
///
/// Integrity: every section carries a CRC-32 in the manifest; the manifest
/// carries its own trailing CRC-32. A verified open rejects bad magic, a
/// future format version, a truncated file, or a checksum mismatch with a
/// Status error — never a crash.

/// First bytes of each file (BinaryWriter length-prefixed strings).
inline constexpr const char kManifestMagic[] = "INCDB-MANIFEST";
inline constexpr const char kCatalogMagic[] = "INCDB-CATALOG";
/// Raw 8-byte prefix of data.seg (keeps blob offsets 8-aligned from 0).
inline constexpr const char kSegmentMagic[8] = {'I', 'N', 'C', 'D',
                                               'B', 'S', 'E', 'G'};

/// Bumped on any incompatible layout change. A reader refuses versions it
/// does not know (forward compatibility is explicit, not accidental).
/// v1: monolithic catalog + data segment. v2: adds the optional segment
/// table (and per-segment files) to the catalog; v1 stores open unchanged.
/// v3: adds composite bitmap index blobs (multi-component / hierarchical —
/// per-attribute axis groups instead of one flat bitmap list); v1/v2
/// stores open unchanged.
///
/// Retiring the MOSAIC (tag 7) and bitstring-augmented (tag 8) index kinds
/// did not bump the version: no served kind changed its tag or layout, so
/// every store holding only served kinds still opens unchanged, and a
/// catalog naming tag 7 or 8 fails to open with an error that names the
/// retired kind (IndexKindFromTag).
inline constexpr uint32_t kFormatVersion = 3;

/// First bytes of a seg-<id>.dat segment file (raw 8-byte prefix, keeping
/// blob offsets 8-aligned from 0) and of its meta block.
inline constexpr char kSegmentFileMagic[8] = {'I', 'N', 'C', 'D',
                                              'B', 'S', 'G', 'F'};
inline constexpr const char kSegmentMetaMagic[] = "INCDB-SEGMETA";

/// File names inside the store directory. The manifest has a fixed name —
/// it is the commit pointer — while payload files carry the generation of
/// the Save that produced them.
inline constexpr const char kManifestFile[] = "MANIFEST";
inline constexpr const char kManifestTmpFile[] = "MANIFEST.tmp";

inline std::string CatalogFileName(uint64_t generation) {
  return "catalog." + std::to_string(generation) + ".bin";
}

inline std::string SegmentFileName(uint64_t generation) {
  return "data." + std::to_string(generation) + ".seg";
}

/// Canonical name of a sealed segment's file. When the canonical name is
/// already taken by a file this writer cannot vouch for (debris from a
/// different database saved into the same directory), the writer falls
/// back to a generation-qualified alternate.
inline std::string SegmentDataFileName(uint64_t content_id) {
  return "seg-" + std::to_string(content_id) + ".dat";
}

inline std::string SegmentDataFileAltName(uint64_t content_id,
                                          uint64_t generation) {
  return "seg-" + std::to_string(content_id) + ".g" +
         std::to_string(generation) + ".dat";
}

/// True for any segment-file name (canonical or alternate) — the GC sweep
/// uses this to find candidate files, then spares the referenced set.
inline bool IsSegmentDataFileName(const std::string& name) {
  const std::string_view v(name);
  return v.starts_with("seg-") && v.ends_with(".dat");
}

/// If `name` is a generation-suffixed payload file (either kind), extracts
/// its generation. Used by the writer to pick the next free generation and
/// to garbage-collect superseded ones.
inline bool ParsePayloadFileName(const std::string& name,
                                 uint64_t* generation) {
  std::string_view v(name);
  if (v.starts_with("data.") && v.ends_with(".seg")) {
    v.remove_prefix(5);
    v.remove_suffix(4);
  } else if (v.starts_with("catalog.") && v.ends_with(".bin")) {
    v.remove_prefix(8);
    v.remove_suffix(4);
  } else {
    return false;
  }
  if (v.empty() || v.size() > 19) return false;
  uint64_t gen = 0;
  for (char c : v) {
    if (c < '0' || c > '9') return false;
    gen = gen * 10 + static_cast<uint64_t>(c - '0');
  }
  *generation = gen;
  return true;
}

/// Which physical file a section lives in.
enum class SectionFile : uint8_t {
  kCatalog = 0,
  kSegment = 1,
};

/// Every blob in data.seg starts on an 8-byte boundary so mmap'd views of
/// uint64_t arrays are naturally aligned (mmap bases are page-aligned).
inline constexpr uint64_t kSegmentAlignment = 8;

/// One entry of the manifest's section table. Sections tile the meaningful
/// bytes of catalog.bin and data.seg; the corruption tests iterate them.
struct SectionEntry {
  std::string name;   ///< "catalog", "column/<attr>", "index/<n>/<kind>"
  SectionFile file = SectionFile::kSegment;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc32 = 0;
};

/// Parsed MANIFEST.
struct Manifest {
  uint32_t format_version = kFormatVersion;
  uint64_t generation = 0;    ///< which catalog.<gen>.bin / data.<gen>.seg
  uint64_t catalog_size = 0;  ///< exact byte size of the catalog file
  uint64_t segment_size = 0;  ///< exact byte size of the segment file
  std::vector<SectionEntry> sections;
};

}  // namespace storage
}  // namespace incdb

#endif  // INCDB_STORAGE_FORMAT_H_
