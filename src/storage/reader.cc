#include "storage/reader.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "bitmap/bitmap_index.h"
#include "bitmap/composite_index.h"
#include "common/io.h"
#include "storage/checksum.h"
#include "storage/format.h"
#include "vafile/va_file.h"

namespace incdb {
namespace storage {

namespace {

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read of '" + path + "' failed");
  return buffer.str();
}

Result<Manifest> ReadManifest(const std::string& path) {
  INCDB_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(path));
  if (bytes.size() < sizeof(uint32_t)) {
    return Status::IOError("'" + path + "': truncated manifest");
  }
  // The trailing 4 bytes are a little-endian CRC-32 over everything before
  // them; verify before trusting any field.
  const size_t body_size = bytes.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  for (int b = 3; b >= 0; --b) {
    stored_crc = (stored_crc << 8) |
                 static_cast<uint8_t>(bytes[body_size + static_cast<size_t>(b)]);
  }
  if (stored_crc != Crc32(bytes.data(), body_size)) {
    return Status::IOError("'" + path + "': manifest checksum mismatch");
  }
  std::istringstream in(bytes);
  BinaryReader reader(in);
  INCDB_ASSIGN_OR_RETURN(std::string magic, reader.ReadString(64));
  if (magic != kManifestMagic) {
    return Status::IOError("'" + path + "' is not an incdb store manifest");
  }
  Manifest manifest;
  INCDB_ASSIGN_OR_RETURN(manifest.format_version, reader.ReadU32());
  if (manifest.format_version > kFormatVersion) {
    return Status::IOError(
        "'" + path + "': format version " +
        std::to_string(manifest.format_version) +
        " is newer than this build understands (max " +
        std::to_string(kFormatVersion) + ")");
  }
  INCDB_ASSIGN_OR_RETURN(manifest.generation, reader.ReadU64());
  if (manifest.generation == 0) {
    return Status::IOError("'" + path + "': corrupted store generation");
  }
  INCDB_ASSIGN_OR_RETURN(manifest.catalog_size, reader.ReadU64());
  INCDB_ASSIGN_OR_RETURN(manifest.segment_size, reader.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint64_t num_sections, reader.ReadU64());
  if (num_sections > (1u << 20)) {
    return Status::IOError("'" + path + "': implausible section count");
  }
  manifest.sections.reserve(num_sections);
  for (uint64_t s = 0; s < num_sections; ++s) {
    SectionEntry section;
    INCDB_ASSIGN_OR_RETURN(section.name, reader.ReadString(1 << 16));
    INCDB_ASSIGN_OR_RETURN(uint8_t file, reader.ReadU8());
    if (file > static_cast<uint8_t>(SectionFile::kSegment)) {
      return Status::IOError("'" + path + "': corrupted section table");
    }
    section.file = static_cast<SectionFile>(file);
    INCDB_ASSIGN_OR_RETURN(section.offset, reader.ReadU64());
    INCDB_ASSIGN_OR_RETURN(section.length, reader.ReadU64());
    INCDB_ASSIGN_OR_RETURN(section.crc32, reader.ReadU32());
    manifest.sections.push_back(std::move(section));
  }
  return manifest;
}

/// A bounds- and alignment-checked view of `count` elements of T at a byte
/// offset of the mapped segment.
template <typename T>
Result<const T*> SliceArray(const MappedFile& map, uint64_t offset,
                            uint64_t count) {
  if (offset % alignof(T) != 0) {
    return Status::IOError("store segment: misaligned array at offset " +
                           std::to_string(offset));
  }
  if (count > map.size() / sizeof(T)) {
    return Status::IOError("store segment: truncated array at offset " +
                           std::to_string(offset));
  }
  const uint8_t* bytes = map.Slice(offset, count * sizeof(T));
  if (bytes == nullptr) {
    return Status::IOError("store segment: truncated array at offset " +
                           std::to_string(offset));
  }
  return reinterpret_cast<const T*>(bytes);
}

Result<WahBitVector> ReadWahBitvector(BinaryReader& catalog,
                                      const MappedFile& map,
                                      bool verify) {
  INCDB_ASSIGN_OR_RETURN(uint64_t size, catalog.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint32_t active_word, catalog.ReadU32());
  INCDB_ASSIGN_OR_RETURN(uint32_t active_bits, catalog.ReadU32());
  INCDB_ASSIGN_OR_RETURN(uint64_t word_count, catalog.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint64_t offset, catalog.ReadU64());
  INCDB_ASSIGN_OR_RETURN(const uint32_t* words,
                         SliceArray<uint32_t>(map, offset, word_count));
  INCDB_ASSIGN_OR_RETURN(
      WahBitVector vec,
      WahBitVector::FromBorrowed(std::span<const uint32_t>(words, word_count),
                                 active_word, static_cast<int>(active_bits),
                                 size));
  if (verify) INCDB_RETURN_IF_ERROR(vec.ValidateStructure());
  return vec;
}

Result<std::shared_ptr<const IncompleteIndex>> ReadBitmapIndex(
    BinaryReader& catalog, const MappedFile& map, IndexKind kind,
    size_t num_attributes, bool verify) {
  BitmapIndex::Options options;
  INCDB_ASSIGN_OR_RETURN(uint8_t encoding, catalog.ReadU8());
  INCDB_ASSIGN_OR_RETURN(uint8_t strategy, catalog.ReadU8());
  if (encoding > static_cast<uint8_t>(BitmapEncoding::kBitSliced) ||
      strategy > static_cast<uint8_t>(MissingStrategy::kAllZeros)) {
    return Status::IOError("store catalog: corrupted bitmap options");
  }
  options.encoding = static_cast<BitmapEncoding>(encoding);
  options.missing_strategy = static_cast<MissingStrategy>(strategy);
  const BitmapEncoding expected =
      kind == IndexKind::kBitmapEquality     ? BitmapEncoding::kEquality
      : kind == IndexKind::kBitmapRange      ? BitmapEncoding::kRange
      : kind == IndexKind::kBitmapInterval   ? BitmapEncoding::kInterval
                                             : BitmapEncoding::kBitSliced;
  if (options.encoding != expected) {
    return Status::IOError(
        "store catalog: bitmap encoding does not match its registry kind");
  }
  INCDB_ASSIGN_OR_RETURN(uint64_t num_rows, catalog.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint64_t num_attrs, catalog.ReadU64());
  if (num_attrs != num_attributes) {
    return Status::IOError(
        "store catalog: bitmap attribute count does not match the table");
  }
  std::vector<BitmapIndex::AttributeBitmaps> attributes;
  attributes.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    BitmapIndex::AttributeBitmaps ab;
    INCDB_ASSIGN_OR_RETURN(ab.cardinality, catalog.ReadU32());
    INCDB_ASSIGN_OR_RETURN(uint8_t has_missing, catalog.ReadU8());
    if (has_missing > 1) {
      return Status::IOError("store catalog: corrupted bitmap flags");
    }
    if (has_missing != 0) {
      INCDB_ASSIGN_OR_RETURN(WahBitVector missing,
                             ReadWahBitvector(catalog, map, verify));
      ab.missing = std::move(missing);
      ab.has_missing = true;
    }
    INCDB_ASSIGN_OR_RETURN(uint64_t num_values, catalog.ReadU64());
    if (num_values > (1u << 26)) {
      return Status::IOError("store catalog: implausible bitmap count");
    }
    ab.values.reserve(num_values);
    for (uint64_t j = 0; j < num_values; ++j) {
      INCDB_ASSIGN_OR_RETURN(WahBitVector vec,
                             ReadWahBitvector(catalog, map, verify));
      ab.values.push_back(std::move(vec));
    }
    attributes.push_back(std::move(ab));
  }
  INCDB_ASSIGN_OR_RETURN(
      BitmapIndex index,
      BitmapIndex::FromParts(options, num_rows, std::move(attributes)));
  return std::shared_ptr<const IncompleteIndex>(
      std::make_shared<BitmapIndex>(std::move(index)));
}

Result<std::shared_ptr<const IncompleteIndex>> ReadVaFile(
    BinaryReader& catalog, const MappedFile& map, IndexKind kind,
    const Table& table) {
  VaFile::Options options;
  INCDB_ASSIGN_OR_RETURN(uint8_t quantization, catalog.ReadU8());
  if (quantization > static_cast<uint8_t>(VaQuantization::kEquiDepth)) {
    return Status::IOError("store catalog: corrupted VA-file options");
  }
  options.quantization = static_cast<VaQuantization>(quantization);
  const VaQuantization expected = kind == IndexKind::kVaFile
                                      ? VaQuantization::kUniform
                                      : VaQuantization::kEquiDepth;
  if (options.quantization != expected) {
    return Status::IOError(
        "store catalog: VA-file quantization does not match its registry "
        "kind");
  }
  INCDB_ASSIGN_OR_RETURN(uint32_t bits_override, catalog.ReadU32());
  options.bits_override = static_cast<int>(bits_override);
  INCDB_ASSIGN_OR_RETURN(uint64_t num_rows, catalog.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint32_t stride, catalog.ReadU32());
  INCDB_ASSIGN_OR_RETURN(uint64_t num_attrs, catalog.ReadU64());
  if (num_attrs != table.num_attributes()) {
    return Status::IOError(
        "store catalog: VA-file attribute count does not match the table");
  }
  std::vector<VaFile::AttributeQuantizer> attributes;
  attributes.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    VaFile::AttributeQuantizer quantizer;
    INCDB_ASSIGN_OR_RETURN(uint32_t bits, catalog.ReadU32());
    quantizer.bits = static_cast<int>(bits);
    INCDB_ASSIGN_OR_RETURN(quantizer.num_bins, catalog.ReadU32());
    INCDB_ASSIGN_OR_RETURN(quantizer.cardinality, catalog.ReadU32());
    INCDB_ASSIGN_OR_RETURN(quantizer.bit_offset, catalog.ReadU32());
    INCDB_ASSIGN_OR_RETURN(quantizer.code_of_value, catalog.ReadU32Vector());
    if (quantizer.num_bins > (1u << 30)) {
      return Status::IOError("store catalog: implausible VA-file bin count");
    }
    quantizer.bin_lo.resize(quantizer.num_bins);
    quantizer.bin_hi.resize(quantizer.num_bins);
    for (uint32_t i = 0; i < quantizer.num_bins; ++i) {
      INCDB_ASSIGN_OR_RETURN(quantizer.bin_lo[i], catalog.ReadI32());
      INCDB_ASSIGN_OR_RETURN(quantizer.bin_hi[i], catalog.ReadI32());
    }
    attributes.push_back(std::move(quantizer));
  }
  INCDB_ASSIGN_OR_RETURN(uint64_t word_count, catalog.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint64_t offset, catalog.ReadU64());
  INCDB_ASSIGN_OR_RETURN(const uint64_t* packed,
                         SliceArray<uint64_t>(map, offset, word_count));
  INCDB_ASSIGN_OR_RETURN(
      VaFile file,
      VaFile::FromParts(&table, options, std::move(attributes), stride,
                        num_rows,
                        std::span<const uint64_t>(packed, word_count)));
  return std::shared_ptr<const IncompleteIndex>(
      std::make_shared<VaFile>(std::move(file)));
}

/// Inverse of WriteCompositeIndex (v3 blob record): wire metadata from the
/// catalog stream, WAH code words borrowed zero-copy from the mapping.
/// FromParts re-derives the slicer geometry from (scheme, cardinality) and
/// validates every axis shape against it.
Result<std::shared_ptr<const IncompleteIndex>> ReadCompositeIndex(
    BinaryReader& catalog, const MappedFile& map, IndexKind kind,
    size_t num_attributes, bool verify) {
  CompositeBitmapIndex::Options options;
  INCDB_ASSIGN_OR_RETURN(uint8_t scheme, catalog.ReadU8());
  if (scheme > static_cast<uint8_t>(SlotScheme::kHierarchical)) {
    return Status::IOError("store catalog: corrupted composite scheme");
  }
  options.scheme = static_cast<SlotScheme>(scheme);
  const SlotScheme expected = kind == IndexKind::kBitmapMultiComponent
                                  ? SlotScheme::kMultiComponent
                                  : SlotScheme::kHierarchical;
  if (options.scheme != expected) {
    return Status::IOError(
        "store catalog: composite scheme does not match its registry kind");
  }
  INCDB_ASSIGN_OR_RETURN(uint64_t num_rows, catalog.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint64_t num_attrs, catalog.ReadU64());
  if (num_attrs != num_attributes) {
    return Status::IOError(
        "store catalog: composite attribute count does not match the table");
  }
  std::vector<CompositeBitmapIndex::AttributeAxes> attributes;
  attributes.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    CompositeBitmapIndex::AttributeAxes aa;
    INCDB_ASSIGN_OR_RETURN(aa.cardinality, catalog.ReadU32());
    INCDB_ASSIGN_OR_RETURN(uint8_t has_missing, catalog.ReadU8());
    if (has_missing > 1) {
      return Status::IOError("store catalog: corrupted composite flags");
    }
    if (has_missing != 0) {
      INCDB_ASSIGN_OR_RETURN(WahBitVector missing,
                             ReadWahBitvector(catalog, map, verify));
      aa.missing = std::move(missing);
      aa.has_missing = true;
    }
    INCDB_ASSIGN_OR_RETURN(uint64_t num_axes, catalog.ReadU64());
    if (num_axes > 64) {
      return Status::IOError("store catalog: implausible axis count");
    }
    aa.axes.reserve(num_axes);
    for (uint64_t x = 0; x < num_axes; ++x) {
      INCDB_ASSIGN_OR_RETURN(uint64_t num_bitmaps, catalog.ReadU64());
      if (num_bitmaps > (1u << 26)) {
        return Status::IOError("store catalog: implausible bitmap count");
      }
      std::vector<WahBitVector> axis;
      axis.reserve(num_bitmaps);
      for (uint64_t j = 0; j < num_bitmaps; ++j) {
        INCDB_ASSIGN_OR_RETURN(WahBitVector vec,
                               ReadWahBitvector(catalog, map, verify));
        axis.push_back(std::move(vec));
      }
      aa.axes.push_back(std::move(axis));
    }
    attributes.push_back(std::move(aa));
  }
  INCDB_ASSIGN_OR_RETURN(
      CompositeBitmapIndex index,
      CompositeBitmapIndex::FromParts(options, num_rows,
                                      std::move(attributes)));
  return std::shared_ptr<const IncompleteIndex>(
      std::make_shared<CompositeBitmapIndex>(std::move(index)));
}

/// One row of the catalog's v2 segment table.
struct SegmentCatalogEntry {
  uint64_t content_id = 0;
  uint64_t begin_row = 0;
  uint64_t num_rows = 0;
  IndexKind kind = IndexKind::kBitmapEquality;
  std::string file_name;
  uint64_t file_size = 0;
  uint32_t crc32 = 0;
};

struct LoadedSegment {
  std::shared_ptr<MappedFile> mapping;
  std::shared_ptr<const internal::Segment> segment;
  /// Per-attribute borrowed value arrays (num_rows each) into `mapping`.
  std::vector<const Value*> columns;
};

/// Maps one seg-<id>.dat independently and reconstructs the segment from
/// its trailing meta block, cross-checking every identity field against
/// the catalog entry. All corruption surfaces as a Status.
Result<LoadedSegment> OpenSegmentFile(const std::string& dir,
                                      const SegmentCatalogEntry& entry,
                                      uint64_t num_attrs, bool verify) {
  const std::string path = dir + "/" + entry.file_name;
  LoadedSegment loaded;
  INCDB_ASSIGN_OR_RETURN(loaded.mapping, MappedFile::Open(path));
  const MappedFile& map = *loaded.mapping;
  if (map.size() != entry.file_size) {
    return Status::IOError("'" + path + "': truncated segment file (" +
                           std::to_string(map.size()) + " bytes, catalog " +
                           "says " + std::to_string(entry.file_size) + ")");
  }
  constexpr uint64_t kTailBytes = 2 * sizeof(uint64_t);
  if (map.size() < sizeof(kSegmentFileMagic) + kTailBytes ||
      std::memcmp(map.data(), kSegmentFileMagic,
                  sizeof(kSegmentFileMagic)) != 0) {
    return Status::IOError("'" + path + "' is not an incdb segment file");
  }
  if (verify && Crc32(map.data(), map.size()) != entry.crc32) {
    return Status::IOError("'" + path + "': segment file checksum mismatch");
  }
  uint64_t tail[2];
  std::memcpy(tail, map.data() + map.size() - kTailBytes, kTailBytes);
  const uint64_t meta_offset = tail[0];
  const uint64_t meta_size = tail[1];
  if (meta_offset < sizeof(kSegmentFileMagic) ||
      meta_offset > map.size() - kTailBytes ||
      meta_size > map.size() - kTailBytes - meta_offset) {
    return Status::IOError("'" + path + "': corrupted meta-block pointer");
  }
  std::istringstream meta_in(
      std::string(reinterpret_cast<const char*>(map.data()) + meta_offset,
                  meta_size));
  BinaryReader meta(meta_in);
  INCDB_ASSIGN_OR_RETURN(std::string magic, meta.ReadString(64));
  if (magic != kSegmentMetaMagic) {
    return Status::IOError("'" + path + "': corrupted segment meta block");
  }
  INCDB_ASSIGN_OR_RETURN(uint64_t content_id, meta.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint64_t num_rows, meta.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint64_t meta_attrs, meta.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint8_t kind_byte, meta.ReadU8());
  if (content_id != entry.content_id || num_rows != entry.num_rows ||
      meta_attrs != num_attrs ||
      kind_byte != static_cast<uint8_t>(entry.kind)) {
    return Status::IOError(
        "'" + path + "': segment identity does not match the catalog");
  }
  std::vector<internal::ZoneEntry> zones;
  zones.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    internal::ZoneEntry zone;
    INCDB_ASSIGN_OR_RETURN(zone.min_value, meta.ReadI32());
    INCDB_ASSIGN_OR_RETURN(zone.max_value, meta.ReadI32());
    INCDB_ASSIGN_OR_RETURN(zone.missing, meta.ReadU64());
    if (zone.missing > num_rows) {
      return Status::IOError("'" + path + "': corrupted zone map");
    }
    zones.push_back(zone);
  }
  loaded.columns.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    INCDB_ASSIGN_OR_RETURN(uint64_t offset, meta.ReadU64());
    INCDB_ASSIGN_OR_RETURN(const Value* values,
                           SliceArray<Value>(map, offset, num_rows));
    loaded.columns.push_back(values);
  }
  std::shared_ptr<const IncompleteIndex> index;
  if (entry.kind == IndexKind::kBitmapMultiComponent ||
      entry.kind == IndexKind::kBitmapHierarchical) {
    INCDB_ASSIGN_OR_RETURN(
        index, ReadCompositeIndex(meta, map, entry.kind, num_attrs, verify));
  } else {
    INCDB_ASSIGN_OR_RETURN(
        index, ReadBitmapIndex(meta, map, entry.kind, num_attrs, verify));
  }
  auto segment = std::make_shared<internal::Segment>();
  segment->content_id = entry.content_id;
  segment->begin_row = entry.begin_row;
  segment->num_rows = entry.num_rows;
  segment->index_kind = entry.kind;
  segment->index = std::move(index);
  segment->zones = std::move(zones);
  loaded.segment = std::move(segment);
  return loaded;
}

}  // namespace

Result<OpenedStore> OpenStore(const std::string& dir,
                              const OpenOptions& options) {
  INCDB_ASSIGN_OR_RETURN(Manifest manifest,
                         ReadManifest(dir + "/" + kManifestFile));

  // -- catalog.<gen>.bin: small, read eagerly; verified against its
  // section CRC.
  const std::string catalog_path =
      dir + "/" + CatalogFileName(manifest.generation);
  INCDB_ASSIGN_OR_RETURN(std::string catalog_bytes,
                         ReadWholeFile(catalog_path));
  if (catalog_bytes.size() != manifest.catalog_size) {
    return Status::IOError("'" + catalog_path + "': truncated catalog (" +
                           std::to_string(catalog_bytes.size()) + " bytes, " +
                           "manifest says " +
                           std::to_string(manifest.catalog_size) + ")");
  }

  // -- data.<gen>.seg: mmap'd; never copied.
  const std::string segment_path =
      dir + "/" + SegmentFileName(manifest.generation);
  INCDB_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> mapping,
                         MappedFile::Open(segment_path));
  if (mapping->size() != manifest.segment_size) {
    return Status::IOError("'" + segment_path + "': truncated segment (" +
                           std::to_string(mapping->size()) + " bytes, " +
                           "manifest says " +
                           std::to_string(manifest.segment_size) + ")");
  }
  if (mapping->size() < sizeof(kSegmentMagic) ||
      std::memcmp(mapping->data(), kSegmentMagic, sizeof(kSegmentMagic)) !=
          0) {
    return Status::IOError("'" + segment_path +
                           "' is not an incdb store segment");
  }

  if (options.verify_checksums) {
    for (const SectionEntry& section : manifest.sections) {
      if (section.file == SectionFile::kCatalog) {
        if (section.offset > catalog_bytes.size() ||
            section.length > catalog_bytes.size() - section.offset) {
          return Status::IOError("'" + catalog_path +
                                 "': section '" + section.name +
                                 "' extends past the file");
        }
        if (Crc32(catalog_bytes.data() + section.offset, section.length) !=
            section.crc32) {
          return Status::IOError("'" + catalog_path +
                                 "': checksum mismatch in section '" +
                                 section.name + "'");
        }
      } else {
        const uint8_t* bytes = mapping->Slice(section.offset, section.length);
        if (bytes == nullptr) {
          return Status::IOError("'" + segment_path +
                                 "': section '" + section.name +
                                 "' extends past the file");
        }
        if (Crc32(bytes, section.length) != section.crc32) {
          return Status::IOError("'" + segment_path +
                                 "': checksum mismatch in section '" +
                                 section.name + "'");
        }
      }
    }
  }

  // -- Parse the catalog into an OpenedStore.
  std::istringstream catalog_in(catalog_bytes);
  BinaryReader catalog(catalog_in);
  INCDB_ASSIGN_OR_RETURN(std::string magic, catalog.ReadString(64));
  if (magic != kCatalogMagic) {
    return Status::IOError("'" + catalog_path +
                           "' is not an incdb store catalog");
  }
  OpenedStore store;
  store.mapping = mapping;
  INCDB_ASSIGN_OR_RETURN(store.num_rows, catalog.ReadU64());
  INCDB_ASSIGN_OR_RETURN(store.num_deleted, catalog.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint64_t num_attrs, catalog.ReadU64());
  if (num_attrs > (1u << 20)) {
    return Status::IOError("'" + catalog_path +
                           "': implausible attribute count");
  }
  std::vector<AttributeSpec> specs;
  specs.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    AttributeSpec spec;
    INCDB_ASSIGN_OR_RETURN(spec.name, catalog.ReadString(1 << 16));
    INCDB_ASSIGN_OR_RETURN(spec.cardinality, catalog.ReadU32());
    specs.push_back(std::move(spec));
  }
  Schema schema(std::move(specs));
  INCDB_RETURN_IF_ERROR(schema.Validate());
  INCDB_ASSIGN_OR_RETURN(store.missing_counts, catalog.ReadU64Vector());
  if (store.missing_counts.size() != num_attrs) {
    return Status::IOError("'" + catalog_path +
                           "': missing-count table size mismatch");
  }
  INCDB_ASSIGN_OR_RETURN(uint8_t has_deleted, catalog.ReadU8());
  if (has_deleted > 1) {
    return Status::IOError("'" + catalog_path + "': corrupted deletion mask");
  }
  if (has_deleted != 0) {
    INCDB_ASSIGN_OR_RETURN(uint64_t deleted_size, catalog.ReadU64());
    INCDB_ASSIGN_OR_RETURN(std::vector<uint64_t> words,
                           catalog.ReadU64Vector());
    if (deleted_size > store.num_rows) {
      return Status::IOError("'" + catalog_path +
                             "': deletion mask longer than the table");
    }
    INCDB_ASSIGN_OR_RETURN(BitVector deleted,
                           BitVector::FromWords(deleted_size,
                                                std::move(words)));
    if (deleted.Count() != store.num_deleted) {
      return Status::IOError("'" + catalog_path +
                             "': deletion mask population mismatch");
    }
    store.deleted = std::make_shared<const BitVector>(std::move(deleted));
  } else if (store.num_deleted != 0) {
    return Status::IOError("'" + catalog_path +
                           "': deleted rows recorded without a mask");
  }

  // v2 segment table: options + sealed watermark + per-file entries. A v1
  // store (or an unsegmented v2 one) skips straight to the columns.
  bool has_segments = false;
  SegmentOptions seg_options;
  uint64_t sealed_rows = 0;
  std::vector<SegmentCatalogEntry> segment_entries;
  if (manifest.format_version >= 2) {
    INCDB_ASSIGN_OR_RETURN(uint8_t seg_flag, catalog.ReadU8());
    if (seg_flag > 1) {
      return Status::IOError("'" + catalog_path +
                             "': corrupted segment table");
    }
    if (seg_flag != 0) {
      has_segments = true;
      INCDB_ASSIGN_OR_RETURN(seg_options.segment_rows, catalog.ReadU64());
      INCDB_ASSIGN_OR_RETURN(uint8_t options_kind, catalog.ReadU8());
      if (seg_options.segment_rows == 0 ||
          !IsSegmentIndexKind(static_cast<IndexKind>(options_kind))) {
        return Status::IOError("'" + catalog_path +
                               "': corrupted segment options");
      }
      seg_options.index_kind = static_cast<IndexKind>(options_kind);
      INCDB_ASSIGN_OR_RETURN(sealed_rows, catalog.ReadU64());
      if (sealed_rows > store.num_rows) {
        return Status::IOError(
            "'" + catalog_path +
            "': sealed watermark exceeds the visible rows");
      }
      INCDB_ASSIGN_OR_RETURN(uint64_t num_segments, catalog.ReadU64());
      if (num_segments > (1u << 22)) {
        return Status::IOError("'" + catalog_path +
                               "': implausible segment count");
      }
      segment_entries.reserve(num_segments);
      uint64_t next_begin = 0;
      for (uint64_t s = 0; s < num_segments; ++s) {
        SegmentCatalogEntry entry;
        INCDB_ASSIGN_OR_RETURN(entry.content_id, catalog.ReadU64());
        INCDB_ASSIGN_OR_RETURN(entry.begin_row, catalog.ReadU64());
        INCDB_ASSIGN_OR_RETURN(entry.num_rows, catalog.ReadU64());
        INCDB_ASSIGN_OR_RETURN(uint8_t kind_byte, catalog.ReadU8());
        if (!IsSegmentIndexKind(static_cast<IndexKind>(kind_byte))) {
          return Status::IOError("'" + catalog_path +
                                 "': corrupted segment index kind");
        }
        entry.kind = static_cast<IndexKind>(kind_byte);
        INCDB_ASSIGN_OR_RETURN(entry.file_name, catalog.ReadString(1 << 12));
        if (!IsSegmentDataFileName(entry.file_name) ||
            entry.file_name.find('/') != std::string::npos) {
          return Status::IOError("'" + catalog_path +
                                 "': implausible segment file name");
        }
        INCDB_ASSIGN_OR_RETURN(entry.file_size, catalog.ReadU64());
        INCDB_ASSIGN_OR_RETURN(entry.crc32, catalog.ReadU32());
        if (entry.begin_row != next_begin || entry.num_rows == 0) {
          return Status::IOError("'" + catalog_path +
                                 "': non-contiguous segment table");
        }
        next_begin += entry.num_rows;
        segment_entries.push_back(std::move(entry));
      }
      if (next_begin != sealed_rows) {
        return Status::IOError(
            "'" + catalog_path +
            "': segment rows do not sum to the sealed watermark");
      }
    }
  }

  // Columns in the data segment: everything for an unsegmented store, only
  // the unsealed tail for a segmented one (sealed rows live in the segment
  // files, opened below).
  const uint64_t tail_rows = store.num_rows - sealed_rows;
  std::vector<const Value*> tail_columns;
  tail_columns.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    INCDB_ASSIGN_OR_RETURN(uint64_t offset, catalog.ReadU64());
    INCDB_ASSIGN_OR_RETURN(const Value* values,
                           SliceArray<Value>(*mapping, offset, tail_rows));
    tail_columns.push_back(values);
  }

  // Segment files: each mapped independently and verified on its own, so
  // open cost scales with the segment count, not the data bytes.
  std::vector<std::shared_ptr<const internal::Segment>> loaded_segments;
  std::vector<std::vector<const Value*>> segment_columns;
  loaded_segments.reserve(segment_entries.size());
  segment_columns.reserve(segment_entries.size());
  for (const SegmentCatalogEntry& entry : segment_entries) {
    INCDB_ASSIGN_OR_RETURN(
        LoadedSegment loaded,
        OpenSegmentFile(dir, entry, num_attrs, options.verify_checksums));
    store.segment_mappings.push_back(std::move(loaded.mapping));
    store.segment_files.push_back(OpenedSegmentFile{
        entry.content_id, entry.file_name, entry.file_size, entry.crc32});
    loaded_segments.push_back(std::move(loaded.segment));
    segment_columns.push_back(std::move(loaded.columns));
  }

  // Stitch each attribute's column from the segment extents plus the tail.
  std::vector<Column> columns;
  columns.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    std::vector<Column::BorrowedExtent> extents;
    extents.reserve(loaded_segments.size() + 1);
    for (size_t s = 0; s < loaded_segments.size(); ++s) {
      extents.push_back(Column::BorrowedExtent{
          segment_columns[s][a], loaded_segments[s]->num_rows});
    }
    extents.push_back(Column::BorrowedExtent{tail_columns[a], tail_rows});
    columns.push_back(
        Column::BorrowedExtents(schema.attribute(a).cardinality,
                                std::move(extents)));
  }
  INCDB_ASSIGN_OR_RETURN(
      Table table,
      Table::FromColumns(std::move(schema), std::move(columns),
                         store.num_rows));
  store.table = std::make_shared<Table>(std::move(table));
  if (has_segments) {
    auto list = std::make_shared<internal::SegmentList>();
    list->options = seg_options;
    list->sealed_rows = sealed_rows;
    list->segments = std::move(loaded_segments);
    store.segments = std::move(list);
  }

  // Indexes.
  INCDB_ASSIGN_OR_RETURN(uint64_t num_indexes, catalog.ReadU64());
  if (num_indexes > 4096) {
    return Status::IOError("'" + catalog_path + "': implausible index count");
  }
  for (uint64_t i = 0; i < num_indexes; ++i) {
    INCDB_ASSIGN_OR_RETURN(uint8_t kind_byte, catalog.ReadU8());
    const Result<IndexKind> tagged = IndexKindFromTag(kind_byte);
    if (!tagged.ok()) {
      return Status::IOError("'" + catalog_path + "': " +
                             tagged.status().message());
    }
    const IndexKind kind = tagged.value();
    internal::SnapshotIndexEntry entry;
    entry.kind = kind;
    INCDB_ASSIGN_OR_RETURN(entry.covered_rows, catalog.ReadU64());
    if (entry.covered_rows > store.num_rows) {
      return Status::IOError("'" + catalog_path +
                             "': index covers more rows than the table");
    }
    switch (kind) {
      case IndexKind::kBitmapEquality:
      case IndexKind::kBitmapRange:
      case IndexKind::kBitmapInterval:
      case IndexKind::kBitmapBitSliced: {
        INCDB_ASSIGN_OR_RETURN(
            entry.index,
            ReadBitmapIndex(catalog, *mapping, kind, num_attrs,
                            options.verify_checksums));
        break;
      }
      case IndexKind::kBitmapMultiComponent:
      case IndexKind::kBitmapHierarchical: {
        INCDB_ASSIGN_OR_RETURN(
            entry.index,
            ReadCompositeIndex(catalog, *mapping, kind, num_attrs,
                               options.verify_checksums));
        break;
      }
      case IndexKind::kVaFile:
      case IndexKind::kVaPlusFile: {
        INCDB_ASSIGN_OR_RETURN(
            entry.index, ReadVaFile(catalog, *mapping, kind, *store.table));
        break;
      }
      case IndexKind::kSequentialScan:
        return Status::IOError("'" + catalog_path +
                               "': corrupted index kind tag");
    }
    store.indexes.push_back(std::move(entry));
  }
  return store;
}

}  // namespace storage
}  // namespace incdb
