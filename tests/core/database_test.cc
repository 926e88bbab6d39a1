#include "core/database.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "table/csv.h"
#include "table/generator.h"

namespace incdb {
namespace {

Database MakeSmallDb() {
  auto db = Database::Create(Schema({{"rating", 5}, {"price", 10}})).value();
  EXPECT_TRUE(db.Insert({5, 7}).ok());
  EXPECT_TRUE(db.Insert({3, kMissingValue}).ok());
  EXPECT_TRUE(db.Insert({kMissingValue, 2}).ok());
  EXPECT_TRUE(db.Insert({4, 9}).ok());
  return db;
}

TEST(DatabaseTest, QueryWithoutIndexesFallsBackToScan) {
  const Database db = MakeSmallDb();
  const auto result = db.Run(QueryRequest::Terms(
      {{"rating", 3, 5}, {"price", 1, 8}}, MissingSemantics::kMatch));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->row_ids, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(result->chosen_index, "SeqScan");
}

TEST(DatabaseTest, QueryRejectsUnknownAttributeAndBadInterval) {
  const Database db = MakeSmallDb();
  const auto run = [&db](const char* attribute, Value lo, Value hi) {
    return db
        .Run(QueryRequest::Terms({{attribute, lo, hi}},
                                 MissingSemantics::kMatch))
        .status()
        .code();
  };
  EXPECT_EQ(run("nope", 1, 1), StatusCode::kNotFound);
  EXPECT_EQ(run("rating", 1, 9), StatusCode::kInvalidArgument);
  EXPECT_EQ(run("rating", 4, 2), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, RoutingPrefersBeeForPointsAndBreForRanges) {
  Database db = MakeSmallDb();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapRange).ok());
  const auto point = db.Run(QueryRequest::Terms({{"rating", 3, 3}}));
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->chosen_index, "BEE-WAH");  // point query → equality
  const auto range = db.Run(QueryRequest::Terms({{"rating", 2, 4}}));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->chosen_index, "BRE-WAH");  // range query → range encoding
}

TEST(DatabaseTest, RoutingFallsDownThePreferenceList) {
  Database db = MakeSmallDb();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  const auto via_va = db.Run(QueryRequest::Terms({{"rating", 2, 4}}));
  ASSERT_TRUE(via_va.ok());
  EXPECT_EQ(via_va->chosen_index, "VA-File");
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapInterval).ok());
  const auto via_bie = db.Run(QueryRequest::Terms({{"rating", 2, 4}}));
  ASSERT_TRUE(via_bie.ok());
  EXPECT_EQ(via_bie->chosen_index, "BIE-WAH");
}

TEST(DatabaseTest, InsertKeepsIndexesInSync) {
  Database db = MakeSmallDb();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kVaFile).ok());
  ASSERT_TRUE(db.Insert({2, 2}).ok());
  ASSERT_TRUE(db.Insert({kMissingValue, kMissingValue}).ok());
  EXPECT_EQ(db.num_rows(), 6u);
  // All routes agree with the scan after inserts: verify the routed answer
  // against a scan-only twin.
  const QueryRequest request = QueryRequest::Terms(
      {{"rating", 2, 3}, {"price", 1, 5}}, MissingSemantics::kMatch);
  const auto expected = db.Run(request);
  ASSERT_TRUE(expected.ok());
  Database scan_only = MakeSmallDb();
  ASSERT_TRUE(scan_only.Insert({2, 2}).ok());
  ASSERT_TRUE(scan_only.Insert({kMissingValue, kMissingValue}).ok());
  const auto via_scan = scan_only.Run(request);
  ASSERT_TRUE(via_scan.ok());
  EXPECT_EQ(expected->row_ids, via_scan->row_ids);
}

TEST(DatabaseTest, BuildIndexValidation) {
  auto empty = Database::Create(Schema({{"x", 3}})).value();
  EXPECT_FALSE(empty.BuildIndex(IndexKind::kBitmapEquality).ok());
  EXPECT_FALSE(empty.BuildIndex(IndexKind::kSequentialScan).ok());

  Database db = MakeSmallDb();
  EXPECT_FALSE(db.HasIndex(IndexKind::kBitmapRange));
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapRange).ok());
  EXPECT_TRUE(db.HasIndex(IndexKind::kBitmapRange));
  EXPECT_GT(db.IndexSizeInBytes(), 0u);
  EXPECT_TRUE(db.DropIndex(IndexKind::kBitmapRange).ok());
  EXPECT_EQ(db.DropIndex(IndexKind::kBitmapRange).code(),
            StatusCode::kNotFound);
}

TEST(DatabaseTest, QueryExpressionRoutesAndAnswers) {
  Database db = MakeSmallDb();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapRange).ok());
  // rating in [3,5] AND NOT price in [8,10]
  const QueryExpr expr = QueryExpr::MakeAnd(
      {QueryExpr::MakeTerm(0, {3, 5}),
       QueryExpr::MakeNot(QueryExpr::MakeTerm(1, {8, 10}))});
  const auto possible =
      db.Run(QueryRequest::Expression(expr, MissingSemantics::kMatch));
  ASSERT_TRUE(possible.ok());
  EXPECT_EQ(possible->chosen_index, "BRE-WAH");
  // rows: 0 (5,7 → T∧T), 1 (3,? → T∧U=U → possible), 2 (?,2 → U∧T=U).
  EXPECT_EQ(possible->row_ids, (std::vector<uint32_t>{0, 1, 2}));
  const auto certain =
      db.Run(QueryRequest::Expression(expr, MissingSemantics::kNoMatch));
  ASSERT_TRUE(certain.ok());
  EXPECT_EQ(certain->row_ids, (std::vector<uint32_t>{0}));
}

TEST(DatabaseTest, FromCsvRoundTrip) {
  const Table table = GenerateTable(UniformSpec(100, 6, 0.2, 3, 701)).value();
  const std::string path = ::testing::TempDir() + "/db_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(table, path).ok());
  auto db = Database::FromCsv(path);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_rows(), 100u);
  ASSERT_TRUE(db->BuildIndex(IndexKind::kBitmapEquality).ok());
  const auto rows = db->Run(
      QueryRequest::Terms({{"a0", 1, 3}}, MissingSemantics::kNoMatch));
  EXPECT_TRUE(rows.ok());
  std::remove(path.c_str());
}

TEST(DatabaseTest, LargeRandomizedConsistencyAcrossRouting) {
  const Table table = GenerateTable(UniformSpec(2000, 9, 0.25, 4, 703)).value();
  Database db = Database::FromTable(std::move(table)).value();
  for (IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapInterval, IndexKind::kVaFile}) {
    ASSERT_TRUE(db.BuildIndex(kind).ok());
  }
  // Insert extra rows through the facade, then compare routed answers with
  // a scan-only twin.
  Database twin = Database::FromTable(
                      GenerateTable(UniformSpec(2000, 9, 0.25, 4, 703)).value())
                      .value();
  for (int i = 0; i < 50; ++i) {
    const std::vector<Value> row = {
        static_cast<Value>(1 + i % 9), kMissingValue,
        static_cast<Value>(1 + (i * 5) % 9), static_cast<Value>(1 + i % 3)};
    ASSERT_TRUE(db.Insert(row).ok());
    ASSERT_TRUE(twin.Insert(row).ok());
  }
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    const QueryRequest request =
        QueryRequest::Terms({{"a0", 2, 6}, {"a2", 1, 4}}, semantics);
    const auto routed = db.Run(request);
    const auto scanned = twin.Run(request);
    ASSERT_TRUE(routed.ok());
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(routed->row_ids, scanned->row_ids);
  }
}

}  // namespace
}  // namespace incdb
