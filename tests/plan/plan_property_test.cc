// Plan-vs-oracle property suite: every query shape lowered by the planner
// must agree exactly with the row-level oracle (RowMatches / ExprMatches)
// across all ten buildable index kinds and both missing-data semantics —
// bare-index plans first, then full snapshot plans with appended tails,
// deletions, count-only and parallel execution layered on.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/index_factory.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "query/expr.h"
#include "table/generator.h"

namespace incdb {
namespace plan {
namespace {

constexpr IndexKind kBuildableKinds[] = {
    IndexKind::kBitmapEquality,       IndexKind::kBitmapRange,
    IndexKind::kBitmapInterval,       IndexKind::kBitmapBitSliced,
    IndexKind::kBitmapMultiComponent, IndexKind::kBitmapHierarchical,
    IndexKind::kVaFile,               IndexKind::kVaPlusFile,
};

// Conjunctive fixtures over three attributes with cardinality 6: point,
// one-dimensional range, multi-dimensional, full-domain, three-dimensional.
std::vector<std::vector<QueryTerm>> TermFixtures() {
  return {
      {{0, {3, 3}}},
      {{1, {2, 5}}},
      {{0, {2, 4}}, {2, {1, 3}}},
      {{0, {1, 6}}},
      {{0, {4, 4}}, {1, {1, 2}}, {2, {5, 6}}},
  };
}

// Boolean fixtures exercising every operator plus nesting (NOT under OR,
// NOT over AND, repeated attributes).
std::vector<QueryExpr> ExprFixtures() {
  const QueryExpr t0 = QueryExpr::MakeTerm(0, {2, 4});
  const QueryExpr t1 = QueryExpr::MakeTerm(1, {3, 6});
  const QueryExpr t2 = QueryExpr::MakeTerm(2, {1, 2});
  return {
      t0,
      QueryExpr::MakeAnd({t0, t1}),
      QueryExpr::MakeOr({t0, t2}),
      QueryExpr::MakeNot(t0),
      QueryExpr::MakeAnd({t0, QueryExpr::MakeNot(t1)}),
      QueryExpr::MakeNot(QueryExpr::MakeOr({t0, QueryExpr::MakeAnd({t1, t2})})),
      QueryExpr::MakeOr({QueryExpr::MakeAnd({t0, t1}),
                         QueryExpr::MakeNot(QueryExpr::MakeAnd({t1, t2}))}),
  };
}

std::vector<uint32_t> OracleTerms(const Table& table, const RangeQuery& query) {
  std::vector<uint32_t> rows;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (RowMatches(table, r, query)) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

std::vector<uint32_t> OracleExpr(const Table& table, const QueryExpr& expr,
                                 MissingSemantics semantics) {
  std::vector<uint32_t> rows;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (ExprMatches(table, r, expr, semantics)) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

class PlanPropertyTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(PlanPropertyTest, BareRangePlansAgreeWithOracle) {
  const Table table = GenerateTable(UniformSpec(400, 6, 0.25, 3, 611)).value();
  const auto index = CreateIndex(GetParam(), table).value();
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    for (const std::vector<QueryTerm>& terms : TermFixtures()) {
      RangeQuery query;
      query.terms = terms;
      query.semantics = semantics;
      auto plan = PlanRangeOverIndex(*index, query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      QueryStats stats;
      auto answer = ExecutePlanToBitVector(&plan.value(), &stats);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->ToIndices(), OracleTerms(table, query))
          << index->Name() << " on " << query.ToString();
    }
  }
}

TEST_P(PlanPropertyTest, BareExpressionPlansAgreeWithOracle) {
  const Table table = GenerateTable(UniformSpec(400, 6, 0.25, 3, 613)).value();
  const auto index = CreateIndex(GetParam(), table).value();
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    for (const QueryExpr& expr : ExprFixtures()) {
      auto plan = PlanExprOverIndex(*index, expr, semantics);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      auto answer = ExecutePlanToBitVector(&plan.value());
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->ToIndices(), OracleExpr(table, expr, semantics))
          << index->Name() << " [" << MissingSemanticsToString(semantics)
          << "] on " << expr.ToString();
    }
  }
}

// End-to-end through Database::Run: index + appended tail (delta scan) +
// deletions, under serial, parallel, and count-only execution.
TEST_P(PlanPropertyTest, SnapshotPlansAgreeWithOracleUnderDeltaAndDeletes) {
  Database db =
      Database::FromTable(GenerateTable(UniformSpec(300, 6, 0.25, 3, 617))
                              .value())
          .value();
  ASSERT_TRUE(db.BuildIndex(GetParam()).ok());
  // Appended tail the index does not cover, with missing cells in it.
  for (int i = 0; i < 25; ++i) {
    const std::vector<Value> row = {
        static_cast<Value>(1 + i % 6),
        i % 3 == 0 ? kMissingValue : static_cast<Value>(1 + (i * 5) % 6),
        static_cast<Value>(1 + i % 2)};
    ASSERT_TRUE(db.Insert(row).ok());
  }
  // Deletions on both sides of the coverage boundary.
  ASSERT_TRUE(db.Delete(3).ok());
  ASSERT_TRUE(db.Delete(108).ok());
  ASSERT_TRUE(db.Delete(310).ok());

  const auto oracle = [&db](auto matches) {
    std::vector<uint32_t> rows;
    for (uint64_t r = 0; r < db.num_rows(); ++r) {
      if (!db.IsDeleted(static_cast<uint32_t>(r)) && matches(r)) {
        rows.push_back(static_cast<uint32_t>(r));
      }
    }
    return rows;
  };

  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    for (const std::vector<QueryTerm>& terms : TermFixtures()) {
      RangeQuery query;
      query.terms = terms;
      query.semantics = semantics;
      std::vector<NamedTerm> named;
      for (const QueryTerm& term : terms) {
        named.push_back({"a" + std::to_string(term.attribute),
                         term.interval.lo, term.interval.hi});
      }
      const auto expected = oracle(
          [&](uint64_t r) { return RowMatches(db.table(), r, query); });

      const auto serial = db.Run(QueryRequest::Terms(named, semantics));
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      EXPECT_EQ(serial->row_ids, expected) << query.ToString();

      const auto parallel =
          db.Run(QueryRequest::Terms(named, semantics).Parallel(4));
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->row_ids, expected) << query.ToString();

      const auto counted =
          db.Run(QueryRequest::Terms(named, semantics).CountOnly());
      ASSERT_TRUE(counted.ok());
      EXPECT_EQ(counted->count, expected.size()) << query.ToString();
      EXPECT_TRUE(counted->row_ids.empty());
    }

    for (const QueryExpr& expr : ExprFixtures()) {
      const auto expected = oracle([&](uint64_t r) {
        return ExprMatches(db.table(), r, expr, semantics);
      });
      const auto serial = db.Run(QueryRequest::Expression(expr, semantics));
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      EXPECT_EQ(serial->row_ids, expected) << expr.ToString();
      const auto parallel =
          db.Run(QueryRequest::Expression(expr, semantics).Parallel(4));
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->row_ids, expected) << expr.ToString();
    }

    // Text lowers through the same expression path.
    const QueryExpr text_equivalent = QueryExpr::MakeAnd(
        {QueryExpr::MakeTerm(0, {2, 4}),
         QueryExpr::MakeNot(QueryExpr::MakeTerm(1, {3, 3}))});
    const auto expected = oracle([&](uint64_t r) {
      return ExprMatches(db.table(), r, text_equivalent, semantics);
    });
    const auto text =
        db.Run(QueryRequest::Text("a0 IN [2,4] AND NOT a1 = 3", semantics));
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_EQ(text->row_ids, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PlanPropertyTest, ::testing::ValuesIn(kBuildableKinds),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      std::string name(IndexKindToString(info.param));
      for (char& c : name) {
        if (c == '-' || c == '+' || c == ' ') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace plan
}  // namespace incdb
