#include "storage/writer.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "bitmap/bitmap_index.h"
#include "bitmap/composite_index.h"
#include "common/io.h"
#include "storage/checksum.h"
#include "storage/format.h"
#include "vafile/va_file.h"

namespace incdb {
namespace storage {

namespace {

/// Appends 8-aligned blobs to a bulk file (data.seg or one seg-<id>.dat),
/// tracking one open section (a named, checksummed byte range of the file)
/// at a time.
class SegmentWriter {
 public:
  explicit SegmentWriter(std::ostream& out,
                         const char (&magic)[8] = kSegmentMagic)
      : out_(out) {
    out_.write(magic, sizeof(magic));
    offset_ = sizeof(magic);
  }

  void BeginSection(std::string name) {
    section_ = SectionEntry{};
    section_.name = std::move(name);
    section_.file = SectionFile::kSegment;
    section_.offset = offset_;
    crc_.Reset();
  }

  /// Writes `size` raw bytes padded up to the segment alignment; returns
  /// the blob's file offset.
  uint64_t AppendBlob(const void* data, size_t size) {
    const uint64_t blob_offset = offset_;
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    crc_.Update(data, size);
    offset_ += size;
    const uint64_t rem = offset_ % kSegmentAlignment;
    if (rem != 0) {
      static constexpr char kZeros[kSegmentAlignment] = {};
      const uint64_t pad = kSegmentAlignment - rem;
      out_.write(kZeros, static_cast<std::streamsize>(pad));
      crc_.Update(kZeros, pad);
      offset_ += pad;
    }
    return blob_offset;
  }

  SectionEntry EndSection() {
    section_.length = offset_ - section_.offset;
    section_.crc32 = crc_.crc();
    return section_;
  }

  uint64_t offset() const { return offset_; }
  bool ok() const { return out_.good(); }

 private:
  std::ostream& out_;
  uint64_t offset_ = 0;
  SectionEntry section_;
  Crc32Accumulator crc_;
};

/// Writes one WAH bitvector: code words to the segment, wire metadata
/// (size, active word/bits, word count, segment offset) to the catalog.
void WriteWahBitvector(const WahBitVector& vec, SegmentWriter& seg,
                       BinaryWriter& catalog) {
  const std::span<const uint32_t> words = vec.code_words();
  const uint64_t offset =
      seg.AppendBlob(words.data(), words.size() * sizeof(uint32_t));
  catalog.WriteU64(vec.size());
  catalog.WriteU32(vec.active_word());
  catalog.WriteU32(static_cast<uint32_t>(vec.active_bits()));
  catalog.WriteU64(words.size());
  catalog.WriteU64(offset);
}

void WriteBitmapIndex(const BitmapIndex& index, SegmentWriter& seg,
                      BinaryWriter& catalog) {
  catalog.WriteU8(static_cast<uint8_t>(index.encoding()));
  catalog.WriteU8(static_cast<uint8_t>(index.missing_strategy()));
  catalog.WriteU64(index.num_rows());
  catalog.WriteU64(index.attributes().size());
  for (const BitmapIndex::AttributeBitmaps& ab : index.attributes()) {
    catalog.WriteU32(ab.cardinality);
    catalog.WriteU8(ab.has_missing ? 1 : 0);
    if (ab.has_missing) WriteWahBitvector(*ab.missing, seg, catalog);
    catalog.WriteU64(ab.values.size());
    for (const WahBitVector& vec : ab.values) {
      WriteWahBitvector(vec, seg, catalog);
    }
  }
}

/// v3 composite blob record: scheme byte, then per attribute the shared
/// missing bitvector (if any) and the per-axis bitmap groups. Bulk WAH
/// words go to the segment file; only wire metadata lands in the catalog,
/// so an open borrows every bitvector zero-copy from the mapping.
void WriteCompositeIndex(const CompositeBitmapIndex& index, SegmentWriter& seg,
                         BinaryWriter& catalog) {
  catalog.WriteU8(static_cast<uint8_t>(index.scheme()));
  catalog.WriteU64(index.num_rows());
  catalog.WriteU64(index.attributes().size());
  for (const CompositeBitmapIndex::AttributeAxes& aa : index.attributes()) {
    catalog.WriteU32(aa.cardinality);
    catalog.WriteU8(aa.has_missing ? 1 : 0);
    if (aa.has_missing) WriteWahBitvector(*aa.missing, seg, catalog);
    catalog.WriteU64(aa.axes.size());
    for (const std::vector<WahBitVector>& axis : aa.axes) {
      catalog.WriteU64(axis.size());
      for (const WahBitVector& vec : axis) {
        WriteWahBitvector(vec, seg, catalog);
      }
    }
  }
}

void WriteVaFile(const VaFile& index, SegmentWriter& seg,
                 BinaryWriter& catalog) {
  catalog.WriteU8(static_cast<uint8_t>(index.options().quantization));
  catalog.WriteU32(static_cast<uint32_t>(index.options().bits_override));
  catalog.WriteU64(index.num_rows());
  catalog.WriteU32(index.RowStrideBits());
  catalog.WriteU64(index.attributes().size());
  for (const VaFile::AttributeQuantizer& quantizer : index.attributes()) {
    catalog.WriteU32(static_cast<uint32_t>(quantizer.bits));
    catalog.WriteU32(quantizer.num_bins);
    catalog.WriteU32(quantizer.cardinality);
    catalog.WriteU32(quantizer.bit_offset);
    catalog.WriteU32Vector(quantizer.code_of_value);
    for (size_t i = 0; i < quantizer.bin_lo.size(); ++i) {
      catalog.WriteI32(quantizer.bin_lo[i]);
      catalog.WriteI32(quantizer.bin_hi[i]);
    }
  }
  const std::span<const uint64_t> packed = index.packed_view();
  const uint64_t offset =
      seg.AppendBlob(packed.data(), packed.size() * sizeof(uint64_t));
  catalog.WriteU64(packed.size());
  catalog.WriteU64(offset);
}

/// Serializes one sealed segment into its self-contained file image:
///
///   magic | column blobs (local rows, one per attribute) | WAH blobs |
///   meta block | u64 meta_offset | u64 meta_size
///
/// Everything 8-aligned; the meta block (a BinaryWriter stream) carries the
/// segment's identity, zone map, column offsets and its index's wire
/// metadata, and is found via the fixed-size tail. The image depends only
/// on the segment's content (never on begin_row, which compaction shifts),
/// so the file is reusable for as long as the content id lives.
Result<std::string> StageSegmentFile(const Table& table,
                                     const internal::Segment& segment) {
  std::ostringstream file_stream;
  SegmentWriter seg(file_stream, kSegmentFileMagic);

  const size_t num_attrs = table.num_attributes();
  std::vector<uint64_t> column_offsets;
  column_offsets.reserve(num_attrs);
  {
    std::vector<Value> staging(segment.num_rows);
    for (size_t a = 0; a < num_attrs; ++a) {
      const Column& column = table.column(a);
      for (uint64_t r = 0; r < segment.num_rows; ++r) {
        staging[r] = column.Get(segment.begin_row + r);
      }
      column_offsets.push_back(
          seg.AppendBlob(staging.data(), staging.size() * sizeof(Value)));
    }
  }

  std::ostringstream meta_stream;
  BinaryWriter meta(meta_stream);
  meta.WriteString(kSegmentMetaMagic);
  meta.WriteU64(segment.content_id);
  meta.WriteU64(segment.num_rows);
  meta.WriteU64(num_attrs);
  meta.WriteU8(static_cast<uint8_t>(segment.index_kind));
  for (const internal::ZoneEntry& zone : segment.zones) {
    meta.WriteI32(zone.min_value);
    meta.WriteI32(zone.max_value);
    meta.WriteU64(zone.missing);
  }
  for (const uint64_t offset : column_offsets) meta.WriteU64(offset);
  switch (segment.index_kind) {
    case IndexKind::kBitmapEquality:
    case IndexKind::kBitmapRange:
    case IndexKind::kBitmapInterval:
    case IndexKind::kBitmapBitSliced:
      WriteBitmapIndex(static_cast<const BitmapIndex&>(*segment.index), seg,
                       meta);
      break;
    case IndexKind::kBitmapMultiComponent:
    case IndexKind::kBitmapHierarchical:
      WriteCompositeIndex(
          static_cast<const CompositeBitmapIndex&>(*segment.index), seg, meta);
      break;
    default:
      return Status::Internal(
          "segment index kind has no per-segment wire form");
  }
  if (!meta.status().ok()) return meta.status();

  const std::string meta_bytes = meta_stream.str();
  const uint64_t tail[2] = {
      seg.AppendBlob(meta_bytes.data(), meta_bytes.size()),
      meta_bytes.size()};
  seg.AppendBlob(tail, sizeof(tail));
  if (!seg.ok()) return Status::Internal("segment file staging failed");
  return file_stream.str();
}

Status EnsureDirectory(const std::string& dir) {
  struct stat st;
  if (::stat(dir.c_str(), &st) == 0) {
    if (!S_ISDIR(st.st_mode)) {
      return Status::IOError("'" + dir + "' exists and is not a directory");
    }
    return Status::OK();
  }
  if (::mkdir(dir.c_str(), 0755) != 0) {
    return Status::IOError("cannot create directory '" + dir +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

/// fsync of a file (or, with O_DIRECTORY, of a directory's entry table).
/// Durability is part of the Save contract: a store is only "saved" once
/// it survives power loss.
Status SyncPath(const std::string& path, bool is_directory) {
  const int flags = is_directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for fsync: " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync of '" + path +
                           "' failed: " + std::strerror(saved_errno));
  }
  return Status::OK();
}

Status WriteFileDurably(const std::string& path, const std::string& data) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open '" + path + "' for writing");
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out.good()) return Status::IOError("write to '" + path + "' failed");
  }
  return SyncPath(path, /*is_directory=*/false);
}

/// Highest generation among payload files present in `dir` (0 when none).
/// Scanning the directory — rather than trusting an existing MANIFEST —
/// also steps past leftovers of a crashed save and files referenced by a
/// corrupt manifest, so a new generation never rewrites a file that some
/// open snapshot may have mmap'd.
uint64_t MaxExistingGeneration(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  uint64_t max_gen = 0;
  while (struct dirent* entry = ::readdir(d)) {
    uint64_t gen = 0;
    if (ParsePayloadFileName(entry->d_name, &gen)) {
      max_gen = std::max(max_gen, gen);
    }
  }
  ::closedir(d);
  return max_gen;
}

/// Best-effort garbage collection after a successful commit: payload files
/// of any other generation (superseded stores, debris of crashed saves),
/// segment files the committed catalog does not reference (dropped by
/// compaction, or debris of a crashed save), and a stray manifest temp
/// file. Failures are ignored — the store is already durable, and stale
/// files are invisible to the reader. Unlinking the previous generation
/// does not disturb open snapshots: their mmap pins the inode.
void RemoveStaleFiles(const std::string& dir, uint64_t keep_generation,
                      const std::unordered_set<std::string>& keep_segments) {
  std::vector<std::string> stale;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* entry = ::readdir(d)) {
    uint64_t gen = 0;
    if (ParsePayloadFileName(entry->d_name, &gen) && gen != keep_generation) {
      stale.push_back(entry->d_name);
    } else if (IsSegmentDataFileName(entry->d_name) &&
               keep_segments.find(entry->d_name) == keep_segments.end()) {
      stale.push_back(entry->d_name);
    }
  }
  ::closedir(d);
  for (const std::string& name : stale) {
    std::remove((dir + "/" + name).c_str());
  }
  std::remove((dir + "/" + kManifestTmpFile).c_str());
}

}  // namespace

Status WriteSnapshot(const internal::SnapshotState& state,
                     const std::string& dir, SegmentPersistCache* cache) {
  if (state.table == nullptr) {
    return Status::InvalidArgument("cannot persist a null snapshot");
  }
  INCDB_RETURN_IF_ERROR(EnsureDirectory(dir));
  const Table& table = *state.table;
  const uint64_t num_rows = state.num_rows;

  // Every save writes a fresh generation next to whatever is already
  // there. Nothing an existing MANIFEST points at — and in particular
  // nothing this very snapshot may be serving through an mmap, when `dir`
  // is the directory it was opened from — is ever truncated or rewritten.
  const uint64_t generation = MaxExistingGeneration(dir) + 1;

  // -- seg-<id>.dat, one per sealed segment. Content-immutable, so a
  // cached file that is still on disk at its recorded size is reused
  // without a byte of I/O; only new or compaction-rewritten segments are
  // staged and written. Files land (durably) before the manifest commit —
  // a crash leaves at worst orphans for the next save's GC.
  const internal::SegmentList* segments = state.segments.get();
  std::vector<CachedSegmentFile> segment_files;
  std::unordered_set<std::string> referenced_segment_files;
  if (segments != nullptr) {
    segment_files.reserve(segments->segments.size());
    for (const std::shared_ptr<const internal::Segment>& segment :
         segments->segments) {
      CachedSegmentFile cached;
      bool reuse = false;
      if (cache != nullptr) {
        const MutexLock cache_lock(&cache->mu);
        if (cache->dir != dir) {
          cache->files.clear();
          cache->dir = dir;
        }
        const auto it = cache->files.find(segment->content_id);
        if (it != cache->files.end()) {
          struct stat st;
          if (::stat((dir + "/" + it->second.file_name).c_str(), &st) == 0 &&
              S_ISREG(st.st_mode) &&
              static_cast<uint64_t>(st.st_size) == it->second.file_size) {
            cached = it->second;
            reuse = true;
          } else {
            // The file went away or changed size behind our back; fall
            // through to a fresh write under this generation.
            cache->files.erase(it);
          }
        }
      }
      if (!reuse) {
        INCDB_ASSIGN_OR_RETURN(const std::string bytes,
                               StageSegmentFile(table, *segment));
        cached.file_name = SegmentDataFileName(segment->content_id);
        struct stat st;
        if (::stat((dir + "/" + cached.file_name).c_str(), &st) == 0) {
          // Canonical name taken by a file this writer cannot vouch for
          // (another database's debris): never overwrite, take the
          // generation-qualified alternate instead.
          cached.file_name =
              SegmentDataFileAltName(segment->content_id, generation);
        }
        cached.file_size = bytes.size();
        cached.crc32 = Crc32(bytes.data(), bytes.size());
        INCDB_RETURN_IF_ERROR(
            WriteFileDurably(dir + "/" + cached.file_name, bytes));
        if (cache != nullptr) {
          const MutexLock cache_lock(&cache->mu);
          cache->files[segment->content_id] = cached;
        }
      }
      referenced_segment_files.insert(cached.file_name);
      segment_files.push_back(std::move(cached));
    }
  }
  // Rows the segment files already carry; data.seg holds only the rest.
  const uint64_t first_tail_row =
      segments != nullptr ? segments->sealed_rows : 0;

  // -- data.<gen>.seg: bulk arrays, one checksummed section per column /
  // index.
  const std::string segment_path = dir + "/" + SegmentFileName(generation);
  std::ofstream seg_out(segment_path, std::ios::binary | std::ios::trunc);
  if (!seg_out) {
    return Status::IOError("cannot open '" + segment_path + "' for writing");
  }
  SegmentWriter seg(seg_out);
  std::vector<SectionEntry> sections;

  // Columns: the visible rows the segment files do not carry — everything
  // for an unsegmented store, only the unsealed tail for a segmented one —
  // materialized contiguously (the in-memory column is block-structured;
  // the wire form is a flat Value array the reader can borrow directly).
  const uint64_t tail_rows = num_rows - first_tail_row;
  std::vector<uint64_t> column_offsets;
  column_offsets.reserve(table.num_attributes());
  {
    std::vector<Value> staging;
    for (size_t a = 0; a < table.num_attributes(); ++a) {
      staging.resize(tail_rows);
      const Column& column = table.column(a);
      for (uint64_t r = 0; r < tail_rows; ++r) {
        staging[r] = column.Get(first_tail_row + r);
      }
      seg.BeginSection("column/" + table.schema().attribute(a).name);
      column_offsets.push_back(
          seg.AppendBlob(staging.data(), staging.size() * sizeof(Value)));
      sections.push_back(seg.EndSection());
    }
  }

  // Indexes: bulk arrays to the segment, everything else to the catalog.
  // The catalog body is staged in memory because it interleaves with
  // segment offsets that are only known as blobs are appended.
  std::ostringstream catalog_stream;
  BinaryWriter catalog(catalog_stream);
  catalog.WriteString(kCatalogMagic);
  catalog.WriteU64(num_rows);
  catalog.WriteU64(state.num_deleted);
  catalog.WriteU64(table.num_attributes());
  for (const AttributeSpec& attr : table.schema().attributes()) {
    catalog.WriteString(attr.name);
    catalog.WriteU32(attr.cardinality);
  }
  catalog.WriteU64Vector(state.missing_counts);
  if (state.deleted != nullptr) {
    catalog.WriteU8(1);
    catalog.WriteU64(state.deleted->size());
    catalog.WriteU64Vector(state.deleted->words());
  } else {
    catalog.WriteU8(0);
  }
  // v2 segment table: options (so reopening keeps segmentation enabled
  // even before the first seal), the sealed watermark, and one entry per
  // segment file. begin_row lives here, not in the segment file —
  // compaction shifts it without touching the file's content.
  if (segments != nullptr) {
    catalog.WriteU8(1);
    catalog.WriteU64(segments->options.segment_rows);
    catalog.WriteU8(static_cast<uint8_t>(segments->options.index_kind));
    catalog.WriteU64(segments->sealed_rows);
    catalog.WriteU64(segments->segments.size());
    for (size_t s = 0; s < segments->segments.size(); ++s) {
      const internal::Segment& segment = *segments->segments[s];
      const CachedSegmentFile& file = segment_files[s];
      catalog.WriteU64(segment.content_id);
      catalog.WriteU64(segment.begin_row);
      catalog.WriteU64(segment.num_rows);
      catalog.WriteU8(static_cast<uint8_t>(segment.index_kind));
      catalog.WriteString(file.file_name);
      catalog.WriteU64(file.file_size);
      catalog.WriteU32(file.crc32);
    }
  } else {
    catalog.WriteU8(0);
  }
  for (uint64_t offset : column_offsets) catalog.WriteU64(offset);

  static const std::vector<internal::SnapshotIndexEntry> kNoIndexes;
  const std::vector<internal::SnapshotIndexEntry>& indexes =
      state.indexes != nullptr ? *state.indexes : kNoIndexes;
  catalog.WriteU64(indexes.size());
  for (size_t i = 0; i < indexes.size(); ++i) {
    const internal::SnapshotIndexEntry& entry = indexes[i];
    catalog.WriteU8(static_cast<uint8_t>(entry.kind));
    catalog.WriteU64(entry.covered_rows);
    seg.BeginSection("index/" + std::to_string(i) + "/" +
                     std::to_string(static_cast<int>(entry.kind)));
    switch (entry.kind) {
      case IndexKind::kBitmapEquality:
      case IndexKind::kBitmapRange:
      case IndexKind::kBitmapInterval:
      case IndexKind::kBitmapBitSliced:
        WriteBitmapIndex(static_cast<const BitmapIndex&>(*entry.index), seg,
                         catalog);
        break;
      case IndexKind::kBitmapMultiComponent:
      case IndexKind::kBitmapHierarchical:
        WriteCompositeIndex(
            static_cast<const CompositeBitmapIndex&>(*entry.index), seg,
            catalog);
        break;
      case IndexKind::kVaFile:
      case IndexKind::kVaPlusFile:
        WriteVaFile(static_cast<const VaFile&>(*entry.index), seg, catalog);
        break;
      case IndexKind::kSequentialScan:
        return Status::Internal(
            "sequential scan must not appear in the index registry");
    }
    sections.push_back(seg.EndSection());
  }

  seg_out.flush();
  if (!seg.ok()) {
    return Status::IOError("write to '" + segment_path + "' failed");
  }
  seg_out.close();
  if (!seg_out.good()) {
    return Status::IOError("close of '" + segment_path + "' failed");
  }
  INCDB_RETURN_IF_ERROR(SyncPath(segment_path, /*is_directory=*/false));
  const uint64_t segment_size = seg.offset();

  // -- catalog.<gen>.bin (one section spanning the whole file).
  if (!catalog.status().ok()) return catalog.status();
  const std::string catalog_bytes = catalog_stream.str();
  SectionEntry catalog_section;
  catalog_section.name = "catalog";
  catalog_section.file = SectionFile::kCatalog;
  catalog_section.offset = 0;
  catalog_section.length = catalog_bytes.size();
  catalog_section.crc32 = Crc32(catalog_bytes.data(), catalog_bytes.size());
  sections.insert(sections.begin(), catalog_section);
  INCDB_RETURN_IF_ERROR(
      WriteFileDurably(dir + "/" + CatalogFileName(generation),
                       catalog_bytes));

  // -- MANIFEST: the commit point. Both payload files are durable by now,
  // so renaming the self-checksummed manifest over the old one atomically
  // switches the store from the previous generation to this one; a crash
  // on either side of the rename leaves a complete, openable store.
  std::ostringstream manifest_stream;
  BinaryWriter manifest(manifest_stream);
  manifest.WriteString(kManifestMagic);
  manifest.WriteU32(kFormatVersion);
  manifest.WriteU64(generation);
  manifest.WriteU64(catalog_bytes.size());
  manifest.WriteU64(segment_size);
  manifest.WriteU64(sections.size());
  for (const SectionEntry& section : sections) {
    manifest.WriteString(section.name);
    manifest.WriteU8(static_cast<uint8_t>(section.file));
    manifest.WriteU64(section.offset);
    manifest.WriteU64(section.length);
    manifest.WriteU32(section.crc32);
  }
  if (!manifest.status().ok()) return manifest.status();
  std::string manifest_bytes = manifest_stream.str();
  const uint32_t manifest_crc =
      Crc32(manifest_bytes.data(), manifest_bytes.size());
  for (int b = 0; b < 4; ++b) {
    manifest_bytes.push_back(
        static_cast<char>((manifest_crc >> (8 * b)) & 0xFF));
  }
  const std::string manifest_tmp = dir + "/" + kManifestTmpFile;
  const std::string manifest_path = dir + "/" + kManifestFile;
  INCDB_RETURN_IF_ERROR(WriteFileDurably(manifest_tmp, manifest_bytes));
  if (::rename(manifest_tmp.c_str(), manifest_path.c_str()) != 0) {
    return Status::IOError("cannot commit '" + manifest_path +
                           "': " + std::strerror(errno));
  }
  // Make the rename (and the new payload files' directory entries)
  // durable before declaring success or deleting the old generation.
  INCDB_RETURN_IF_ERROR(SyncPath(dir, /*is_directory=*/true));
  RemoveStaleFiles(dir, generation, referenced_segment_files);
  if (cache != nullptr) {
    // Shrink the cache to exactly the committed set so dropped segments
    // (compaction) do not pin stale entries forever.
    const MutexLock cache_lock(&cache->mu);
    if (cache->dir == dir) {
      std::erase_if(cache->files, [&](const auto& entry) {
        return referenced_segment_files.find(entry.second.file_name) ==
               referenced_segment_files.end();
      });
    }
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace incdb
