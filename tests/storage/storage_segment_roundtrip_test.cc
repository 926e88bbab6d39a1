// Format-v2 segmented store tests: save/open round-trips (including a
// partially compacted store), the dirty-segment save contract (clean
// segment files are reused byte-for-byte, not rewritten), zone-map pruning
// surviving a reopen, and byte-flip corruption injection over every
// per-segment file.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/segments.h"
#include "storage/format.h"
#include "store_dir.h"
#include "table/generator.h"

namespace incdb {
namespace {

constexpr uint64_t kSegmentRows = 32;

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

std::vector<std::string> SegmentFilesIn(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  EXPECT_NE(d, nullptr) << dir;
  if (d == nullptr) return names;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (storage::IsSegmentDataFileName(name)) names.push_back(name);
  }
  closedir(d);
  return names;
}

// Clustered first attribute (zone maps separate segments) + a noisy second
// with missing cells.
Database MakeSegmentedDb(uint64_t num_rows,
                         IndexKind index_kind = IndexKind::kBitmapEquality) {
  std::vector<AttributeSpec> specs = {{"a0", 8}, {"a1", 5}};
  Table table = Table::Create(Schema(specs)).value();
  for (uint64_t r = 0; r < num_rows; ++r) {
    const Value clustered = static_cast<Value>(1 + (r / kSegmentRows) % 8);
    const Value noisy =
        r % 9 == 0 ? kMissingValue : static_cast<Value>(1 + (r * 7) % 5);
    EXPECT_TRUE(table.AppendRow({clustered, noisy}).ok());
  }
  Database db = Database::FromTable(std::move(table)).value();
  SegmentOptions options;
  options.segment_rows = kSegmentRows;
  options.index_kind = index_kind;
  EXPECT_TRUE(db.EnableSegments(options).ok());
  return db;
}

using StorageSegmentRoundtripTest = StoreDirTest<>;

void ExpectSameAnswers(const Database& a, const Database& b) {
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    for (const std::string& text :
         {std::string("a0 = 3"), std::string("a0 IN [2,5]"),
          std::string("a1 = 2"), std::string("a0 IN [6,8] AND a1 IN [1,3]"),
          std::string("NOT a0 = 4"), std::string("a0 = 1 OR a1 = 5")}) {
      const auto ra = a.Run(QueryRequest::Text(text, semantics));
      const auto rb = b.Run(QueryRequest::Text(text, semantics));
      ASSERT_TRUE(ra.ok()) << text << ": " << ra.status().ToString();
      ASSERT_TRUE(rb.ok()) << text << ": " << rb.status().ToString();
      EXPECT_EQ(ra->row_ids, rb->row_ids) << text;
    }
  }
}

TEST_F(StorageSegmentRoundtripTest, SegmentedStoreRoundTrips) {
  Database db = MakeSegmentedDb(5 * kSegmentRows + 11);  // 5 segments + tail
  const std::string dir = StoreDir("seg_basic");
  ASSERT_TRUE(db.Save(dir).ok());

  // One file per sealed segment landed next to the catalog/data pair.
  EXPECT_EQ(SegmentFilesIn(dir).size(), 5u);

  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_rows(), db.num_rows());
  EXPECT_TRUE(reopened->segments_enabled());
  EXPECT_EQ(reopened->num_segments(), 5u);
  EXPECT_EQ(reopened->sealed_rows(), 5 * kSegmentRows);
  ExpectSameAnswers(db, *reopened);

  // Zone pruning must survive the round-trip: the reloaded zone maps are
  // parsed from the segment files, not recomputed.
  const auto pruned = reopened->Run(
      QueryRequest::Text("a0 = 2", MissingSemantics::kNoMatch));
  ASSERT_TRUE(pruned.ok());
  EXPECT_GT(pruned->stats.segments_pruned, 0u);

  // The reopened store keeps working as a live database: appends seal new
  // segments, deletes and compaction behave.
  for (uint64_t i = 0; i < kSegmentRows; ++i) {
    ASSERT_TRUE(reopened->Insert({4, 1}).ok());
  }
  EXPECT_EQ(reopened->num_segments(), 6u);
}

TEST_F(StorageSegmentRoundtripTest, UnsegmentedV2StoreStillRoundTrips) {
  // A database without segments writes v2 with an empty segment table;
  // the reader must treat it exactly like v1.
  Database db = Database::FromTable(
                    GenerateTable(UniformSpec(200, 6, 0.2, 3, 811)).value())
                    .value();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  const std::string dir = StoreDir("seg_plain");
  ASSERT_TRUE(db.Save(dir).ok());
  EXPECT_TRUE(SegmentFilesIn(dir).empty());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened->segments_enabled());
  EXPECT_EQ(reopened->num_rows(), 200u);
}

TEST_F(StorageSegmentRoundtripTest, DirtySaveRewritesOnlyNewSegments) {
  Database db = MakeSegmentedDb(4 * kSegmentRows);
  const std::string dir = StoreDir("seg_dirty");
  ASSERT_TRUE(db.Save(dir).ok());

  // Capture every segment file's bytes and mtime after the first save.
  std::map<std::string, std::string> bytes_before;
  std::map<std::string, timespec> mtime_before;
  for (const std::string& name : SegmentFilesIn(dir)) {
    bytes_before[name] = ReadFile(dir + "/" + name);
    struct stat st{};
    ASSERT_EQ(::stat((dir + "/" + name).c_str(), &st), 0);
    mtime_before[name] = st.st_mtim;
  }
  ASSERT_EQ(bytes_before.size(), 4u);

  // Grow by two more segments and save again into the same directory.
  for (uint64_t i = 0; i < 2 * kSegmentRows; ++i) {
    ASSERT_TRUE(
        db.Insert({static_cast<Value>(1 + i % 8),
                   static_cast<Value>(1 + i % 5)}).ok());
  }
  ASSERT_EQ(db.num_segments(), 6u);
  ASSERT_TRUE(db.Save(dir).ok());

  const std::vector<std::string> after = SegmentFilesIn(dir);
  EXPECT_EQ(after.size(), 6u);
  // The four clean segments were not rewritten: identical bytes AND an
  // untouched mtime (content-equality alone would pass a wasteful rewrite).
  for (const auto& [name, bytes] : bytes_before) {
    EXPECT_EQ(ReadFile(dir + "/" + name), bytes) << name;
    struct stat st{};
    ASSERT_EQ(::stat((dir + "/" + name).c_str(), &st), 0) << name;
    EXPECT_EQ(st.st_mtim.tv_sec, mtime_before[name].tv_sec) << name;
    EXPECT_EQ(st.st_mtim.tv_nsec, mtime_before[name].tv_nsec) << name;
  }

  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_segments(), 6u);
  ExpectSameAnswers(db, *reopened);
}

TEST_F(StorageSegmentRoundtripTest, CompactionDropsStaleSegmentFilesOnSave) {
  Database db = MakeSegmentedDb(4 * kSegmentRows);
  const std::string dir = StoreDir("seg_compact");
  ASSERT_TRUE(db.Save(dir).ok());
  const size_t files_before = SegmentFilesIn(dir).size();
  ASSERT_EQ(files_before, 4u);

  // Hollow out segment 1, compact (its file identity dies with it), save.
  for (uint32_t r = kSegmentRows; r < 2 * kSegmentRows; r += 2) {
    ASSERT_TRUE(db.Delete(r).ok());
  }
  ASSERT_TRUE(db.CompactNow().ok());
  ASSERT_TRUE(db.Save(dir).ok());

  // The store reopens to the compacted row count; the dropped segment's
  // file was garbage-collected rather than left as debris.
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_rows(), db.num_rows());
  EXPECT_EQ(reopened->num_segments(), db.num_segments());
  EXPECT_EQ(SegmentFilesIn(dir).size(), db.num_segments());
  ExpectSameAnswers(db, *reopened);

  // And the partially compacted store keeps compacting after reopen.
  for (uint32_t r = 0; r < 10; ++r) {
    ASSERT_TRUE(reopened->Delete(r).ok());
  }
  ASSERT_TRUE(reopened->CompactNow().ok());
  EXPECT_EQ(reopened->num_deleted_rows(), 0u);
}

TEST_F(StorageSegmentRoundtripTest, EverySegmentFileByteFlipIsDetected) {
  Database db = MakeSegmentedDb(3 * kSegmentRows);
  const std::string dir = StoreDir("seg_flip");
  ASSERT_TRUE(db.Save(dir).ok());
  const std::vector<std::string> files = SegmentFilesIn(dir);
  ASSERT_EQ(files.size(), 3u);
  ASSERT_TRUE(Database::Open(dir).ok());

  for (const std::string& name : files) {
    const std::string pristine = ReadFile(dir + "/" + name);
    ASSERT_FALSE(pristine.empty());
    for (size_t pos = 0; pos < pristine.size(); ++pos) {
      std::string corrupted = pristine;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x2A);
      WriteFile(dir + "/" + name, corrupted);
      const auto result = Database::Open(dir);
      EXPECT_FALSE(result.ok())
          << name << ": flipped byte " << pos << " went undetected";
    }
    WriteFile(dir + "/" + name, pristine);
  }
  // Truncation and removal of a segment file are refused too.
  const std::string victim = dir + "/" + files[0];
  const std::string pristine = ReadFile(victim);
  WriteFile(victim, pristine.substr(0, pristine.size() / 2));
  EXPECT_FALSE(Database::Open(dir).ok());
  ASSERT_EQ(std::remove(victim.c_str()), 0);
  EXPECT_FALSE(Database::Open(dir).ok());
  WriteFile(victim, pristine);
  EXPECT_TRUE(Database::Open(dir).ok());
}

TEST_F(StorageSegmentRoundtripTest, CompositeSegmentKindsRoundTrip) {
  // Segments carrying the v3 composite index kinds: the per-segment files
  // must serialize, reopen through the mmap borrowed-view path, keep zone
  // pruning, and answer every shape identically — including byte-flip
  // detection over the composite blob records.
  for (IndexKind kind : {IndexKind::kBitmapMultiComponent,
                         IndexKind::kBitmapHierarchical}) {
    Database db = MakeSegmentedDb(3 * kSegmentRows + 7, kind);
    const bool mc = kind == IndexKind::kBitmapMultiComponent;
    const std::string dir = StoreDir(mc ? "seg_mc" : "seg_hier");
    ASSERT_TRUE(db.Save(dir).ok());
    ASSERT_EQ(SegmentFilesIn(dir).size(), 3u);

    auto reopened = Database::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->num_segments(), 3u);
    ExpectSameAnswers(db, *reopened);

    // New seals on the reopened side keep the composite kind.
    for (uint64_t i = 0; i < kSegmentRows; ++i) {
      ASSERT_TRUE(reopened->Insert({static_cast<Value>(1 + i % 8),
                                    static_cast<Value>(1 + i % 5)}).ok());
    }
    EXPECT_EQ(reopened->num_segments(), 4u);
    const std::string dir2 = StoreDir(mc ? "seg_mc2" : "seg_hier2");
    ASSERT_TRUE(reopened->Save(dir2).ok());
    auto again = Database::Open(dir2);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectSameAnswers(*reopened, *again);

    // Single-byte corruption anywhere in a composite segment file is
    // caught by the whole-file CRC.
    const std::vector<std::string> files = SegmentFilesIn(dir);
    const std::string victim = dir + "/" + files[0];
    const std::string pristine = ReadFile(victim);
    for (size_t pos = 0; pos < pristine.size();
         pos += 1 + pos / 16) {  // sampled: full sweep lives in the
                                 // equality-kind test above
      std::string corrupted = pristine;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x2A);
      WriteFile(victim, corrupted);
      EXPECT_FALSE(Database::Open(dir).ok())
          << files[0] << ": flipped byte " << pos << " went undetected";
    }
    WriteFile(victim, pristine);
    EXPECT_TRUE(Database::Open(dir).ok());
  }
}

TEST_F(StorageSegmentRoundtripTest, SaveAfterOpenReusesOpenedSegmentFiles) {
  // Open seeds the persist cache from the catalog, so a save back into the
  // same directory rewrites no segment file even without a prior Save in
  // this process.
  Database original = MakeSegmentedDb(3 * kSegmentRows + 5);
  const std::string dir = StoreDir("seg_reopen");
  ASSERT_TRUE(original.Save(dir).ok());

  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  std::map<std::string, timespec> mtime_before;
  for (const std::string& name : SegmentFilesIn(dir)) {
    struct stat st{};
    ASSERT_EQ(::stat((dir + "/" + name).c_str(), &st), 0);
    mtime_before[name] = st.st_mtim;
  }
  ASSERT_TRUE(db->Insert({2, 2}).ok());  // dirty the tail, not the segments
  ASSERT_TRUE(db->Save(dir).ok());
  for (const auto& [name, before] : mtime_before) {
    struct stat st{};
    ASSERT_EQ(::stat((dir + "/" + name).c_str(), &st), 0) << name;
    EXPECT_EQ(st.st_mtim.tv_sec, before.tv_sec) << name;
    EXPECT_EQ(st.st_mtim.tv_nsec, before.tv_nsec) << name;
  }
  auto again = Database::Open(dir);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_rows(), db->num_rows());
}

}  // namespace
}  // namespace incdb
