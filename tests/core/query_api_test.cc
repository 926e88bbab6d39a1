#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/query_api.h"
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

TEST(QueryApiTest, RunAnswersTermsWithRoutingAndSnapshotIdentity) {
  const Database db = MakeSmallDb();
  const auto result = db.Run(QueryRequest::Terms(
      {{"rating", 3, 5}, {"price", 1, 8}}, MissingSemantics::kMatch));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->row_ids, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(result->count, 3u);
  EXPECT_EQ(result->chosen_index, "SeqScan");
  EXPECT_EQ(result->routing.index_kind, IndexKind::kSequentialScan);
  EXPECT_FALSE(result->routing.is_point_query);
  EXPECT_GT(result->routing.estimated_cost, 0.0);
  EXPECT_GT(result->routing.estimated_selectivity, 0.0);
  EXPECT_LE(result->routing.estimated_selectivity, 1.0);
  // Four inserts after epoch 0.
  EXPECT_EQ(result->epoch, 4u);
  EXPECT_EQ(result->visible_rows, 4u);
}

TEST(QueryApiTest, RunRecordsRoutingDecisionPerQueryShape) {
  Database db = MakeSmallDb();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapRange).ok());

  const auto point = db.Run(QueryRequest::Terms({{"rating", 3, 3}}));
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->routing.index_kind, IndexKind::kBitmapEquality);
  EXPECT_TRUE(point->routing.is_point_query);

  const auto range = db.Run(QueryRequest::Terms({{"rating", 2, 4}}));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->routing.index_kind, IndexKind::kBitmapRange);
  EXPECT_FALSE(range->routing.is_point_query);
  // BRE reads fewer bitvectors than BEE would for this range: its predicted
  // cost must undercut the point plan's per-width cost model.
  EXPECT_GT(range->routing.estimated_cost, 0.0);
}

TEST(QueryApiTest, RunSurfacesQueryStatsFromTheServingIndex) {
  // Big enough that the WAH bitvectors hold finalized code words (below 31
  // rows everything sits in the tail word and words_touched is genuinely 0).
  Database db =
      Database::FromTable(GenerateTable(UniformSpec(200, 5, 0.2, 2, 311))
                              .value())
          .value();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  // A range over BEE runs the fused multi-operand kernel path, which fills
  // all three bitmap counters.
  const auto result = db.Run(QueryRequest::Terms({{"a0", 2, 4}}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->chosen_index, "BEE-WAH");
  // The legacy API dropped these on the floor; Run must surface them.
  EXPECT_GE(result->stats.bitvectors_accessed, 2u);
  EXPECT_GT(result->stats.bitvector_ops, 0u);
  EXPECT_GT(result->stats.words_touched, 0u);
}

TEST(QueryApiTest, CountOnlySkipsRowIdMaterialization) {
  Database db = MakeSmallDb();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  const auto counted =
      db.Run(QueryRequest::Terms({{"rating", 3, 3}}).CountOnly());
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->count, 2u);  // rows 1 (=3) and 2 (missing).
  EXPECT_TRUE(counted->row_ids.empty());
  const auto full = db.Run(QueryRequest::Terms({{"rating", 3, 3}}));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->count, counted->count);
  EXPECT_EQ(full->row_ids.size(), full->count);
}

TEST(QueryApiTest, CountOnlyAgreesWithMaterializedCountUnderDeltaAndDeletes) {
  Database db = MakeSmallDb();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  ASSERT_TRUE(db.Insert({3, 1}).ok());    // beyond index coverage
  ASSERT_TRUE(db.Delete(1).ok());         // rating=3 row
  const QueryRequest request = QueryRequest::Terms({{"rating", 3, 3}});
  const auto counted = db.Run(QueryRequest(request).CountOnly());
  const auto full = db.Run(request);
  ASSERT_TRUE(counted.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(counted->count, full->count);
  EXPECT_EQ(full->count, 2u);  // rows 2 (missing) and 4 (delta insert).
}

TEST(QueryApiTest, ValidateAcceptsEveryWellFormedShape) {
  EXPECT_TRUE(QueryRequest::Terms({{"rating", 2, 4}}).Validate().ok());
  EXPECT_TRUE(QueryRequest::Expression(QueryExpr::MakeTerm(0, {1, 3}))
                  .Validate()
                  .ok());
  EXPECT_TRUE(QueryRequest::Text("rating >= 3").Validate().ok());
  EXPECT_TRUE(QueryRequest::Terms({{"rating", 2, 4}})
                  .CountOnly()
                  .DeadlineMillis(50)
                  .Validate()
                  .ok());
  EXPECT_TRUE(QueryRequest::Terms({{"rating", 2, 4}}).Limit(3).Validate().ok());
}

TEST(QueryApiTest, ValidateRejectsMalformedRequests) {
  // Empty predicate per shape.
  EXPECT_EQ(QueryRequest::Terms({}).Validate().code(),
            StatusCode::kInvalidArgument);
  QueryRequest no_expr;
  no_expr.shape = QueryRequest::Shape::kExpression;
  EXPECT_EQ(no_expr.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryRequest::Text("").Validate().code(),
            StatusCode::kInvalidArgument);
  // Structural term defects.
  EXPECT_EQ(QueryRequest::Terms({{"", 1, 1}}).Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryRequest::Terms({{"rating", 4, 2}}).Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryRequest::Expression(QueryExpr::MakeTerm(0, {5, 2}))
                .Validate()
                .code(),
            StatusCode::kInvalidArgument);
  // Conflicting count/materialize flags.
  EXPECT_EQ(QueryRequest::Terms({{"rating", 1, 2}})
                .CountOnly()
                .Limit(10)
                .Validate()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryApiTest, RunRejectsWhatValidateRejects) {
  // The planner calls Validate() itself, so a malformed request fails
  // before resolution no matter which entry point it came through.
  const Database db = MakeSmallDb();
  EXPECT_EQ(db.Run(QueryRequest::Terms({})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Run(QueryRequest::Terms({{"rating", 1, 1}})
                       .CountOnly()
                       .Limit(1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryApiTest, LimitTruncatesRowIdsButNotTheCount) {
  Database db = MakeSmallDb();
  const auto all = db.Run(QueryRequest::Terms({{"rating", 1, 5}}));
  ASSERT_TRUE(all.ok());
  ASSERT_GE(all->count, 3u);
  const auto limited = db.Run(QueryRequest::Terms({{"rating", 1, 5}}).Limit(2));
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->count, all->count);
  ASSERT_EQ(limited->row_ids.size(), 2u);
  EXPECT_EQ(limited->row_ids[0], all->row_ids[0]);
  EXPECT_EQ(limited->row_ids[1], all->row_ids[1]);
}

TEST(QueryApiTest, LimitedAnswerIsThePrefixOfTheUnlimitedOne) {
  // An index over the first rows plus a delta-scanned tail with a delete,
  // so the limited ids come from the merged, delete-stripped result.
  Database db = Database::FromTable(
                    GenerateTable(UniformSpec(3000, 6, 0.2, 2, 41)).value())
                    .value();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());
  for (uint64_t r = 0; r < 700; ++r) {
    ASSERT_TRUE(db.Insert({static_cast<Value>(1 + r % 6),
                           r % 5 == 0 ? kMissingValue
                                      : static_cast<Value>(1 + r % 4)})
                    .ok());
  }
  ASSERT_TRUE(db.Delete(5).ok());
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    for (const std::string text : {"a0 IN [2,5]", "NOT a1 = 3 OR a0 = 1"}) {
      const auto all = db.Run(QueryRequest::Text(text, semantics));
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      ASSERT_GT(all->count, 100u);
      ASSERT_EQ(all->row_ids.size(), all->count);
      for (uint64_t limit : {uint64_t{1}, uint64_t{63}, uint64_t{64},
                             uint64_t{65}, all->count - 1, all->count,
                             all->count + 9}) {
        const auto limited =
            db.Run(QueryRequest::Text(text, semantics).Limit(limit));
        ASSERT_TRUE(limited.ok()) << limited.status().ToString();
        EXPECT_EQ(limited->count, all->count);
        const std::vector<uint32_t> prefix(
            all->row_ids.begin(),
            all->row_ids.begin() +
                static_cast<std::ptrdiff_t>(std::min(limit, all->count)));
        EXPECT_EQ(limited->row_ids, prefix) << text << " limit " << limit;
      }
    }
  }
}

TEST(QueryApiTest, RunRejectsBadRequests) {
  const Database db = MakeSmallDb();
  EXPECT_EQ(db.Run(QueryRequest::Terms({{"nope", 1, 1}})).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.Run(QueryRequest::Terms({{"rating", 4, 2}})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Run(QueryRequest::Text("rating ><>< 3")).status().code(),
            StatusCode::kInvalidArgument);
  QueryRequest no_expr;
  no_expr.shape = QueryRequest::Shape::kExpression;
  EXPECT_FALSE(db.Run(no_expr).ok());
}

TEST(QueryApiTest, RunBatchPreservesRequestOrderAndAggregatesStats) {
  Database db = MakeSmallDb();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapEquality).ok());

  std::vector<QueryRequest> requests;
  requests.push_back(QueryRequest::Terms({{"rating", 3, 3}}));
  requests.push_back(QueryRequest::Terms({{"nope", 1, 1}}));  // fails
  requests.push_back(QueryRequest::Text("price <= 7"));
  requests.push_back(
      QueryRequest::Terms({{"rating", 5, 5}}, MissingSemantics::kNoMatch)
          .CountOnly());

  const BatchResult batch = db.RunBatch(requests, 3);
  ASSERT_EQ(batch.results.size(), requests.size());
  EXPECT_EQ(batch.num_threads, 3u);

  ASSERT_TRUE(batch.results[0].ok());
  EXPECT_EQ(batch.results[0].value().row_ids, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(batch.results[1].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(batch.results[2].ok());
  ASSERT_TRUE(batch.results[3].ok());
  EXPECT_EQ(batch.results[3].value().count, 1u);

  uint64_t expected_matches = 0;
  QueryStats expected_stats;
  for (const auto& result : batch.results) {
    if (!result.ok()) continue;
    expected_matches += result.value().count;
    expected_stats.MergeFrom(result.value().stats);
  }
  EXPECT_EQ(batch.total_matches, expected_matches);
  EXPECT_EQ(batch.stats.bitvectors_accessed,
            expected_stats.bitvectors_accessed);
  EXPECT_EQ(batch.stats.words_touched, expected_stats.words_touched);
  // All four requests were served by the same pinned epoch.
  for (const auto& result : batch.results) {
    if (!result.ok()) continue;
    EXPECT_EQ(result.value().epoch, batch.results[0].value().epoch);
  }
}

TEST(QueryApiTest, RunBatchMatchesSequentialRunOnALargerWorkload) {
  Database db =
      Database::FromTable(GenerateTable(UniformSpec(800, 7, 0.2, 4, 907))
                              .value())
          .value();
  ASSERT_TRUE(db.BuildIndex(IndexKind::kBitmapRange).ok());
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 40; ++i) {
    const Value lo = static_cast<Value>(1 + i % 5);
    const Value hi = static_cast<Value>(lo + 2);
    requests.push_back(QueryRequest::Terms(
        {{"a" + std::to_string(i % 4), lo, hi}},
        i % 2 == 0 ? MissingSemantics::kMatch : MissingSemantics::kNoMatch));
  }
  const BatchResult batch = db.RunBatch(requests, 4);
  ASSERT_EQ(batch.results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto sequential = db.Run(requests[i]);
    ASSERT_TRUE(sequential.ok());
    ASSERT_TRUE(batch.results[i].ok());
    EXPECT_EQ(batch.results[i].value().row_ids, sequential->row_ids) << i;
  }
}

TEST(QueryApiTest, RunBatchOnEmptyRequestListIsANoOp) {
  const Database db = MakeSmallDb();
  const BatchResult batch = db.RunBatch({}, 8);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.total_matches, 0u);
}

}  // namespace
}  // namespace incdb
