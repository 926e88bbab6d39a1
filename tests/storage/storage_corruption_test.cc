// Corruption-injection tests: flipping any byte of any store file,
// truncating any file, deleting a file, or presenting a future format
// version must surface as a Status error from Database::Open — never a
// crash, never a silently wrong database.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "storage/checksum.h"
#include "storage/format.h"
#include "table/generator.h"

namespace incdb {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A store with data and a couple of zero-copy indexes, small enough to
/// corrupt byte by byte.
class StorageCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetSpec spec;
    spec.seed = 42;
    spec.num_rows = 120;
    spec.attributes.push_back({"a", 5, 0.2, 0.0});
    spec.attributes.push_back({"b", 9, 0.0, 0.0});
    Table table = GenerateTable(spec).value();
    Database db = std::move(Database::FromTable(std::move(table)).value());
    ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
    ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
    // The v3 composite blob records (multi-component + hierarchical) must
    // be walked by the byte-flip loops too: every byte of their wire
    // metadata and WAH words lives inside some checksummed section.
    ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapMultiComponent).ok());
    ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapHierarchical).ok());
    // ctest runs each case as its own process in a shared working
    // directory; the pid keeps parallel cases off each other's files. Every
    // case starts from an empty directory (and TearDown removes it), so
    // cases run in one process each save generation 1 too.
    dir_ = "storage_corrupt_" + std::to_string(getpid()) + ".incdb";
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(db.Save(dir_).ok());
    // A fresh directory always commits generation 1.
    files_ = {storage::kManifestFile, storage::CatalogFileName(1),
              storage::SegmentFileName(1)};
    for (const std::string& file : files_) {
      pristine_[file] = ReadFile(dir_ + "/" + file);
    }
    // Sanity: the pristine store opens.
    ASSERT_TRUE(Database::Open(dir_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void Restore(const std::string& file) {
    WriteFile(dir_ + "/" + file, pristine_[file]);
  }

  /// Writes `manifest` with its trailing CRC recomputed, so only the
  /// semantic checks of Open can object to an edit.
  void WriteSignedManifest(std::string manifest) {
    const size_t body = manifest.size() - 4;
    PutCrc(storage::Crc32(manifest.data(), body), &manifest[body]);
    WriteFile(dir_ + "/" + storage::kManifestFile, manifest);
  }

  /// Writes `catalog` and re-signs it: its section CRC in the manifest
  /// (found by the pristine value), then the manifest itself.
  void WriteSignedCatalog(const std::string& catalog) {
    const std::string& pristine = pristine_[storage::CatalogFileName(1)];
    std::string old_crc(4, '\0');
    PutCrc(storage::Crc32(pristine.data(), pristine.size()), old_crc.data());
    std::string manifest = pristine_[storage::kManifestFile];
    const size_t at = manifest.find(old_crc);
    ASSERT_NE(at, std::string::npos);
    PutCrc(storage::Crc32(catalog.data(), catalog.size()), &manifest[at]);
    WriteFile(dir_ + "/" + storage::CatalogFileName(1), catalog);
    WriteSignedManifest(manifest);
  }

  static void PutCrc(uint32_t crc, char* out) {
    for (int b = 0; b < 4; ++b) out[b] = static_cast<char>(crc >> (8 * b));
  }

  std::string dir_;
  std::vector<std::string> files_;
  std::map<std::string, std::string> pristine_;
};

TEST_F(StorageCorruptionTest, EveryFlippedByteIsDetected) {
  // Every byte of every file participates in some integrity check: the
  // manifest in its trailing CRC, catalog.bin and data.seg in a section
  // CRC (or, for the segment magic, the magic comparison). Flip each in
  // turn and expect a clean Status failure.
  for (const std::string& file : files_) {
    const std::string& pristine = pristine_[file];
    for (size_t pos = 0; pos < pristine.size(); ++pos) {
      std::string corrupted = pristine;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x2A);
      WriteFile(dir_ + "/" + file, corrupted);
      const auto result = Database::Open(dir_);
      EXPECT_FALSE(result.ok())
          << file << ": flipped byte " << pos << " went undetected";
    }
    Restore(file);
  }
}

TEST_F(StorageCorruptionTest, TruncationIsDetected) {
  for (const std::string& file : files_) {
    const std::string& pristine = pristine_[file];
    for (size_t keep :
         {size_t{0}, size_t{4}, pristine.size() / 2, pristine.size() - 1}) {
      WriteFile(dir_ + "/" + file, pristine.substr(0, keep));
      const auto result = Database::Open(dir_);
      EXPECT_FALSE(result.ok())
          << file << " truncated to " << keep << " bytes went undetected";
    }
    Restore(file);
  }
}

TEST_F(StorageCorruptionTest, MissingFileIsDetected) {
  for (const std::string& file : files_) {
    ASSERT_EQ(std::remove((dir_ + "/" + file).c_str()), 0);
    const auto result = Database::Open(dir_);
    EXPECT_FALSE(result.ok()) << "missing " << file << " went undetected";
    Restore(file);
  }
}

TEST_F(StorageCorruptionTest, FutureFormatVersionIsRefused) {
  // The version field is the u32 right after the length-prefixed magic
  // string; patch it and re-sign the manifest so only the version check
  // can object.
  std::string manifest = pristine_[storage::kManifestFile];
  const size_t version_offset =
      sizeof(uint64_t) + std::string(storage::kManifestMagic).size();
  ASSERT_LT(version_offset + 4, manifest.size());
  manifest[version_offset] =
      static_cast<char>(storage::kFormatVersion + 1);
  WriteSignedManifest(manifest);
  const auto result = Database::Open(dir_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("version"), std::string::npos)
      << result.status().ToString();
}

TEST_F(StorageCorruptionTest, RetiredIndexKindTagsAreRefusedByName) {
  // The VA-file registry record is its kind tag (5) followed by its
  // covered row count (120, u64 little-endian). Rewrite the tag to each
  // retired kind's and re-sign, so only the tag check can object.
  std::string record = "\x05\x78";
  record.append(7, '\0');
  const std::string& pristine = pristine_[storage::CatalogFileName(1)];
  const size_t at = pristine.find(record);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(pristine.find(record, at + 1), std::string::npos);
  for (const auto& [tag, name] :
       {std::pair<char, std::string>{7, "MOSAIC"},
        std::pair<char, std::string>{8, "bitstring-augmented"}}) {
    std::string catalog = pristine;
    catalog[at] = tag;
    WriteSignedCatalog(catalog);
    const auto result = Database::Open(dir_);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_NE(result.status().ToString().find(name), std::string::npos)
        << result.status().ToString();
  }
  // The untouched record still opens once re-signed the same way.
  WriteSignedCatalog(pristine);
  EXPECT_TRUE(Database::Open(dir_).ok());
}

TEST_F(StorageCorruptionTest, WrongMagicIsRefused) {
  for (const std::string& file : files_) {
    std::string corrupted = pristine_[file];
    // Clobber the first 12 bytes (covers both length-prefixed string
    // magics and the raw segment magic).
    for (size_t i = 0; i < 12 && i < corrupted.size(); ++i) {
      corrupted[i] = 'X';
    }
    WriteFile(dir_ + "/" + file, corrupted);
    EXPECT_FALSE(Database::Open(dir_).ok()) << file;
    Restore(file);
  }
}

TEST_F(StorageCorruptionTest, SegmentCorruptionNeedsChecksumPass) {
  // With verification off, open itself is O(1) and must still succeed on a
  // pristine store; this documents (rather than guarantees) that the
  // fast path is the caller's trade-off, not a hidden verify.
  ASSERT_TRUE(Database::Open(dir_, /*verify_checksums=*/false).ok());
}

}  // namespace
}  // namespace incdb
