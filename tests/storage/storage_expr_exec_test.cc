// Boolean expression execution against an mmap-opened store. The loaded
// bitmap payloads are zero-copy views borrowed from the mapped segment, so
// this suite proves the expression path — including NOT, which flips the
// Kleene component and complements borrowed WAH bitvectors — behaves
// identically over mmap'd indexes as over freshly built ones.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "core/expr_executor.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "query/expr.h"
#include "store_dir.h"
#include "table/generator.h"

namespace incdb {
namespace {

Database MakeDatabase() {
  Table table = GenerateTable(UniformSpec(450, 7, 0.25, 3, 1103)).value();
  return std::move(Database::FromTable(std::move(table)).value());
}

// Expression fixtures with NOT at every depth — the shapes that exercise
// complement over the loaded (borrowed) bitvector payloads.
std::vector<QueryExpr> Fixtures() {
  const QueryExpr t0 = QueryExpr::MakeTerm(0, {2, 5});
  const QueryExpr t1 = QueryExpr::MakeTerm(1, {3, 3});
  const QueryExpr t2 = QueryExpr::MakeTerm(2, {1, 4});
  return {
      t0,
      QueryExpr::MakeNot(t0),
      QueryExpr::MakeAnd({t0, QueryExpr::MakeNot(t1)}),
      QueryExpr::MakeOr({QueryExpr::MakeNot(t0), t2}),
      QueryExpr::MakeNot(QueryExpr::MakeAnd({t0, t1, t2})),
      QueryExpr::MakeNot(
          QueryExpr::MakeOr({t1, QueryExpr::MakeNot(QueryExpr::MakeAnd(
                                     {t0, QueryExpr::MakeNot(t2)}))})),
  };
}

std::vector<uint32_t> Oracle(const Table& table, const QueryExpr& expr,
                             MissingSemantics semantics) {
  std::vector<uint32_t> rows;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (ExprMatches(table, r, expr, semantics)) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

class StorageExprExecTest
    : public StoreDirTest<::testing::TestWithParam<IndexKind>> {};

TEST_P(StorageExprExecTest, ExpressionsOverOpenedStoreMatchOracle) {
  Database db = MakeDatabase();
  ASSERT_TRUE(db.BuildIndex(GetParam()).ok());
  const std::string dir = StoreDir("expr_oracle");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    for (const QueryExpr& expr : Fixtures()) {
      const auto expected = Oracle(reopened->table(), expr, semantics);
      // End to end through the planner over the mmap-backed snapshot.
      const auto via_run =
          reopened->Run(QueryRequest::Expression(expr, semantics));
      ASSERT_TRUE(via_run.ok()) << via_run.status().ToString();
      EXPECT_EQ(via_run->row_ids, expected)
          << IndexKindToString(GetParam()) << " "
          << MissingSemanticsToString(semantics) << " " << expr.ToString();

      // Directly against the loaded index object: ExecuteExpr lowers onto
      // the borrowed payloads without the sink/delta machinery.
      const Snapshot snapshot = reopened->GetSnapshot();
      for (const auto& entry : *snapshot.state().indexes) {
        if (entry.kind != GetParam()) continue;
        auto direct = ExecuteExpr(*entry.index, expr, semantics);
        ASSERT_TRUE(direct.ok()) << direct.status().ToString();
        EXPECT_EQ(direct->ToIndices(), expected)
            << entry.index->Name() << " direct";
      }
    }
  }
}

TEST_P(StorageExprExecTest, NegationAfterAppendsAndDeletesOnTheOpenedSide) {
  Database db = MakeDatabase();
  ASSERT_TRUE(db.BuildIndex(GetParam()).ok());
  const std::string dir = StoreDir("expr_mutate");
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  // Mutate the opened database: the loaded index now undercovers, so the
  // expression path must stitch a delta scan onto the mmap'd probes.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(reopened
                    ->Insert({static_cast<Value>(1 + i % 7), kMissingValue,
                              static_cast<Value>(1 + i % 5)})
                    .ok());
  }
  ASSERT_TRUE(reopened->Delete(17).ok());
  ASSERT_TRUE(reopened->Delete(455).ok());

  const QueryExpr expr = QueryExpr::MakeAnd(
      {QueryExpr::MakeTerm(0, {2, 6}),
       QueryExpr::MakeNot(QueryExpr::MakeTerm(2, {2, 3}))});
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    std::vector<uint32_t> expected;
    for (uint64_t r = 0; r < reopened->num_rows(); ++r) {
      if (!reopened->IsDeleted(static_cast<uint32_t>(r)) &&
          ExprMatches(reopened->table(), r, expr, semantics)) {
        expected.push_back(static_cast<uint32_t>(r));
      }
    }
    const auto result =
        reopened->Run(QueryRequest::Expression(expr, semantics));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->row_ids, expected)
        << MissingSemanticsToString(semantics);
    const auto parallel =
        reopened->Run(QueryRequest::Expression(expr, semantics).Parallel(4));
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->row_ids, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, StorageExprExecTest,
    ::testing::Values(IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
                      IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
                      IndexKind::kVaFile, IndexKind::kVaPlusFile));

}  // namespace
}  // namespace incdb
