// Save → Open round-trip property tests: a persisted database must answer
// every query shape byte-identically to the database it was saved from —
// for every index kind, both missing semantics, with deletions, and after
// further appends on the opened side. Exercises the mmap zero-copy path
// end to end (tests run with verify_checksums both on and off).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "query/workload.h"
#include "storage/format.h"
#include "store_dir.h"
#include "table/generator.h"

namespace incdb {
namespace {

DatasetSpec SmallSpec(uint64_t seed) {
  DatasetSpec spec;
  spec.seed = seed;
  spec.num_rows = 400;
  const char* names[] = {"alpha", "beta", "gamma", "delta"};
  const uint32_t cardinalities[] = {7, 16, 3, 101};
  const double missing[] = {0.0, 0.15, 0.5, 0.05};
  for (int a = 0; a < 4; ++a) {
    GeneratedAttribute attr;
    attr.name = names[a];
    attr.cardinality = cardinalities[a];
    attr.missing_rate = missing[a];
    attr.zipf_theta = a == 3 ? 1.2 : 0.0;
    spec.attributes.push_back(attr);
  }
  return spec;
}

Database MakeDatabase(uint64_t seed) {
  Table table = GenerateTable(SmallSpec(seed)).value();
  return std::move(Database::FromTable(std::move(table)).value());
}

/// The query shapes the acceptance criteria call out: equality, interval
/// (both semantics), boolean expression, count-only.
std::vector<QueryRequest> CanonicalRequests() {
  std::vector<QueryRequest> requests;
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    requests.push_back(QueryRequest::Terms({{"alpha", 3, 3}}, semantics));
    requests.push_back(QueryRequest::Terms({{"beta", 4, 11}}, semantics));
    requests.push_back(
        QueryRequest::Terms({{"alpha", 2, 6}, {"delta", 10, 60}}, semantics));
    requests.push_back(QueryRequest::Text(
        "alpha IN [2,5] AND NOT beta = 7", semantics));
    requests.push_back(QueryRequest::Text(
        "gamma = 1 OR delta IN [90,101]", semantics));
    requests.push_back(
        QueryRequest::Terms({{"beta", 1, 16}}, semantics).CountOnly());
    requests.push_back(
        QueryRequest::Text("alpha IN [1,4] AND gamma IN [1,2]", semantics)
            .CountOnly());
  }
  return requests;
}

void ExpectSameAnswers(const Database& original, const Database& reopened) {
  for (const QueryRequest& request : CanonicalRequests()) {
    const auto expected = original.Run(request);
    const auto actual = reopened.Run(request);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(expected->count, actual->count);
    EXPECT_EQ(expected->row_ids, actual->row_ids);
  }
}

class StorageRoundTripTest
    : public StoreDirTest<::testing::TestWithParam<IndexKind>> {};

using StorageRoundTrip = StoreDirTest<>;

TEST_P(StorageRoundTripTest, EveryQueryShapeSurvivesSaveOpen) {
  Database db = MakeDatabase(/*seed=*/7);
  ASSERT_TRUE(db.BuildIndex(GetParam()).ok());
  const std::string dir = StoreDir("rt_kind");
  ASSERT_TRUE(db.Save(dir).ok());

  for (bool verify : {true, false}) {
    auto reopened = Database::Open(dir, verify);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(db.num_rows(), reopened->num_rows());
    EXPECT_TRUE(reopened->HasIndex(GetParam()));
    ExpectSameAnswers(db, reopened.value());
  }
}

TEST_P(StorageRoundTripTest, IndexSizeInBytesSurvivesSaveOpen) {
  // SizeInBytes() is the paper's index-size metric; an index served
  // zero-copy from the store must report the same figure it was built with.
  Database db = MakeDatabase(/*seed=*/13);
  ASSERT_TRUE(db.BuildIndex(GetParam()).ok());
  const uint64_t built_bytes = db.IndexSizeInBytes();
  ASSERT_GT(built_bytes, 0u);
  const std::string dir = StoreDir("rt_size");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->IndexSizeInBytes(), built_bytes);
}

TEST_P(StorageRoundTripTest, GeneratedWorkloadMatchesScanAfterOpen) {
  // Random multi-dimensional range queries over the reopened index must
  // agree with a sequential scan of the same rows, under both semantics.
  Database db = MakeDatabase(/*seed=*/17);
  ASSERT_TRUE(db.BuildIndex(GetParam()).ok());
  const std::string dir = StoreDir("rt_workload");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Database scan = MakeDatabase(/*seed=*/17);
  const Schema& schema = scan.table().schema();

  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    WorkloadParams params;
    params.num_queries = 15;
    params.dims = 2;
    params.global_selectivity = 0.05;
    params.semantics = semantics;
    const auto queries = GenerateWorkload(scan.table(), params);
    ASSERT_TRUE(queries.ok()) << queries.status().ToString();
    for (const RangeQuery& query : queries.value()) {
      std::vector<NamedTerm> terms;
      for (const QueryTerm& term : query.terms) {
        terms.push_back({schema.attribute(term.attribute).name,
                         term.interval.lo, term.interval.hi});
      }
      const QueryRequest request = QueryRequest::Terms(terms, semantics);
      const auto expected = scan.Run(request);
      const auto actual = reopened->Run(request);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(expected->row_ids, actual->row_ids) << query.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, StorageRoundTripTest,
    ::testing::Values(IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
                      IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
                      IndexKind::kBitmapMultiComponent,
                      IndexKind::kBitmapHierarchical,
                      IndexKind::kVaFile, IndexKind::kVaPlusFile));

TEST_F(StorageRoundTrip, AllIndexesAtOnce) {
  Database db = MakeDatabase(/*seed=*/11);
  for (IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapMultiComponent, IndexKind::kBitmapHierarchical,
        IndexKind::kVaFile}) {
    ASSERT_TRUE(db.BuildIndex(kind).ok());
  }
  const std::string dir = StoreDir("rt_all");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(db.Indexes(), reopened->Indexes());
  ExpectSameAnswers(db, reopened.value());
}

TEST_F(StorageRoundTrip, NoIndexes) {
  Database db = MakeDatabase(/*seed=*/13);
  const std::string dir = StoreDir("rt_plain");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened->Indexes().empty());
  ExpectSameAnswers(db, reopened.value());
}

TEST_F(StorageRoundTrip, DeletionsSurvive) {
  Database db = MakeDatabase(/*seed=*/17);
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.Delete(i * 7).ok());
  }
  const std::string dir = StoreDir("rt_deleted");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(db.num_deleted_rows(), reopened->num_deleted_rows());
  EXPECT_EQ(db.num_live_rows(), reopened->num_live_rows());
  ExpectSameAnswers(db, reopened.value());
}

TEST_F(StorageRoundTrip, OpenedDatabaseAcceptsWrites) {
  Database db = MakeDatabase(/*seed=*/23);
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapRange).ok());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  const std::string dir = StoreDir("rt_writes");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  // Mirror a mutation sequence on both sides; answers must stay identical
  // (the opened side serves appended rows via the delta scan over its
  // borrowed-prefix columns).
  Rng rng(5);
  for (int i = 0; i < 150; ++i) {
    std::vector<Value> row;
    for (const AttributeSpec& attr : db.table().schema().attributes()) {
      row.push_back(rng.Bernoulli(0.2)
                        ? kMissingValue
                        : static_cast<Value>(rng.UniformInt(
                              1, static_cast<int64_t>(attr.cardinality))));
    }
    ASSERT_TRUE(db.Insert(row).ok());
    ASSERT_TRUE(reopened->Insert(row).ok());
  }
  ASSERT_TRUE(db.Delete(10).ok());
  ASSERT_TRUE(reopened->Delete(10).ok());
  ExpectSameAnswers(db, reopened.value());

  // A rebuild on the opened database re-covers the appended tail.
  ASSERT_TRUE(reopened->BuildIndex(IndexKind::kBitmapRange).ok());
  ExpectSameAnswers(db, reopened.value());
}

TEST_F(StorageRoundTrip, SecondGenerationSaveOpen) {
  Database db = MakeDatabase(/*seed=*/29);
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapInterval).ok());
  const std::string dir1 = StoreDir("rt_gen1");
  ASSERT_TRUE(db.Save(dir1).ok());
  auto gen1 = Database::Open(dir1);
  ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();

  // Mutate the opened database, save it again, and reopen: borrowed
  // (mmap-backed) columns and bitvectors must serialize correctly too.
  ASSERT_TRUE(gen1->Insert({1, 2, 3, 4}).ok());
  ASSERT_TRUE(gen1->Delete(3).ok());
  const std::string dir2 = StoreDir("rt_gen2");
  ASSERT_TRUE(gen1->Save(dir2).ok());
  auto gen2 = Database::Open(dir2);
  ASSERT_TRUE(gen2.ok()) << gen2.status().ToString();
  EXPECT_EQ(gen1->num_rows(), gen2->num_rows());
  ExpectSameAnswers(gen1.value(), gen2.value());
}

bool FileExists(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0;
}

TEST_F(StorageRoundTrip, SaveBackIntoOpenedDirectory) {
  // The scenario the generation scheme exists for: Save into the very
  // directory the database was opened from. The writer must never
  // truncate the payload files the snapshot is serving through its mmap
  // (that would fault mid-save and destroy the store); it writes a fresh
  // generation beside them and commits by swapping the manifest.
  Database db = MakeDatabase(/*seed=*/37);
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  const std::string dir = StoreDir("rt_inplace");
  ASSERT_TRUE(db.Save(dir).ok());

  auto opened = Database::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened->Insert({5, 6, 1, 40}).ok());
  ASSERT_TRUE(opened->Delete(2).ok());
  ASSERT_TRUE(db.Insert({5, 6, 1, 40}).ok());
  ASSERT_TRUE(db.Delete(2).ok());
  ASSERT_TRUE(opened->Save(dir).ok());

  // The opened database keeps serving from its (now unlinked)
  // generation-1 mapping after the save replaced the store.
  ExpectSameAnswers(db, opened.value());

  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(opened->num_rows(), reopened->num_rows());
  EXPECT_EQ(opened->num_deleted_rows(), reopened->num_deleted_rows());
  ExpectSameAnswers(opened.value(), reopened.value());
}

TEST_F(StorageRoundTrip, InPlaceSaveCommitsAtomicallyAndCollectsGarbage) {
  Database db = MakeDatabase(/*seed=*/41);
  const std::string dir = StoreDir("rt_gc");
  ASSERT_TRUE(db.Save(dir).ok());
  ASSERT_TRUE(FileExists(dir + "/" + storage::SegmentFileName(1)));

  // Plant the debris a crashed save could leave behind: an abandoned
  // manifest temp file and a half-written future generation. Open must
  // ignore both — the committed MANIFEST is the only source of truth.
  { std::ofstream(dir + "/" + storage::kManifestTmpFile) << "garbage"; }
  { std::ofstream(dir + "/" + storage::SegmentFileName(9)) << "partial"; }
  auto opened = Database::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  // The next save steps past the debris generation (never reusing a file
  // name that might be mapped or half-written), commits, and collects
  // everything it superseded.
  ASSERT_TRUE(db.Save(dir).ok());
  EXPECT_TRUE(FileExists(dir + "/" + storage::kManifestFile));
  EXPECT_TRUE(FileExists(dir + "/" + storage::SegmentFileName(10)));
  EXPECT_TRUE(FileExists(dir + "/" + storage::CatalogFileName(10)));
  EXPECT_FALSE(FileExists(dir + "/" + storage::kManifestTmpFile));
  EXPECT_FALSE(FileExists(dir + "/" + storage::SegmentFileName(1)));
  EXPECT_FALSE(FileExists(dir + "/" + storage::CatalogFileName(1)));
  EXPECT_FALSE(FileExists(dir + "/" + storage::SegmentFileName(9)));
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSameAnswers(db, reopened.value());
}

TEST_F(StorageRoundTrip, OpenRejectsMissingAndGarbageStores) {
  EXPECT_FALSE(Database::Open(StoreDir("rt_absent")).ok());
  const std::string dir = StoreDir("rt_garbage");
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  EXPECT_FALSE(Database::Open(dir).ok());
  std::ofstream(dir + "/" + storage::kManifestFile, std::ios::binary)
      << "this is not a store";
  EXPECT_FALSE(Database::Open(dir).ok());
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

TEST_F(StorageRoundTrip, IndexBytesOnDiskTrackSizeInBytes) {
  // The paper's index-size metric is "the size of the requisite index files
  // on disk" (DESIGN.md section 8). The store adds a BEE index as its WAH
  // payload plus per-bitmap headers, so the bytes it adds to a store
  // directory must cover SizeInBytes() with only small overhead.
  const DatasetSpec spec = UniformSpec(5000, 30, 0.2, 3, 203);
  Database plain =
      std::move(Database::FromTable(GenerateTable(spec).value()).value());
  Database indexed =
      std::move(Database::FromTable(GenerateTable(spec).value()).value());
  ASSERT_TRUE(indexed.BuildIndex(IndexKind::kBitmapEquality).ok());
  const uint64_t index_bytes = indexed.IndexSizeInBytes();
  ASSERT_GT(index_bytes, 0u);

  const std::string plain_dir = StoreDir("rt_size_plain");
  const std::string indexed_dir = StoreDir("rt_size_bee");
  ASSERT_TRUE(plain.Save(plain_dir).ok());
  ASSERT_TRUE(indexed.Save(indexed_dir).ok());
  const uint64_t plain_bytes = DirectoryBytes(plain_dir);
  const uint64_t indexed_bytes = DirectoryBytes(indexed_dir);
  ASSERT_GT(indexed_bytes, plain_bytes);
  const uint64_t on_disk = indexed_bytes - plain_bytes;
  EXPECT_GE(on_disk, index_bytes);
  EXPECT_LT(on_disk, index_bytes + index_bytes / 2 + 4096);
}

TEST_F(StorageRoundTrip, MissingRatesComeFromCatalogNotRescan) {
  Database db = MakeDatabase(/*seed=*/31);
  const std::string dir = StoreDir("rt_rates");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Snapshot before = db.GetSnapshot();
  const Snapshot after = reopened->GetSnapshot();
  for (size_t a = 0; a < db.table().num_attributes(); ++a) {
    EXPECT_DOUBLE_EQ(before.MissingRate(a), after.MissingRate(a)) << a;
  }
}

}  // namespace
}  // namespace incdb
