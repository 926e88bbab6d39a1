// Boolean-expression execution against every index family, verified on
// randomly generated AND/OR/NOT trees against the row-level Kleene oracle.

#include "core/expr_executor.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/index_factory.h"
#include "table/generator.h"

namespace incdb {
namespace {

QueryExpr RandomExpr(Rng& rng, const Table& table, int depth) {
  const size_t attr = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(table.num_attributes()) - 1));
  const Value cardinality =
      static_cast<Value>(table.schema().attribute(attr).cardinality);
  if (depth == 0 || rng.Bernoulli(0.35)) {
    const Value lo = static_cast<Value>(rng.UniformInt(1, cardinality));
    const Value hi = static_cast<Value>(rng.UniformInt(lo, cardinality));
    return QueryExpr::MakeTerm(attr, {lo, hi});
  }
  const int pick = static_cast<int>(rng.UniformInt(0, 2));
  if (pick == 2) return QueryExpr::MakeNot(RandomExpr(rng, table, depth - 1));
  std::vector<QueryExpr> children;
  const int64_t arity = rng.UniformInt(2, 3);
  for (int64_t i = 0; i < arity; ++i) {
    children.push_back(RandomExpr(rng, table, depth - 1));
  }
  return pick == 0 ? QueryExpr::MakeAnd(std::move(children))
                   : QueryExpr::MakeOr(std::move(children));
}

class ExprExecutorTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(ExprExecutorTest, RandomTreesAgreeWithKleeneOracle) {
  const IndexKind kind = GetParam();
  const Table table = GenerateTable(UniformSpec(800, 8, 0.3, 5, 601)).value();
  const auto index = CreateIndex(kind, table).value();
  Rng rng(601);
  for (int trial = 0; trial < 30; ++trial) {
    const QueryExpr expr = RandomExpr(rng, table, 3);
    ASSERT_TRUE(expr.Validate(table).ok());
    for (MissingSemantics semantics :
         {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
      const auto via_index = ExecuteExpr(*index, expr, semantics);
      const auto via_scan = ExecuteExprScan(table, expr, semantics);
      ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
      ASSERT_TRUE(via_scan.ok());
      EXPECT_TRUE(via_index.value() == via_scan.value())
          << IndexKindToString(kind) << " on " << expr.ToString() << " ["
          << MissingSemanticsToString(semantics) << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ExprExecutorTest,
    ::testing::Values(IndexKind::kSequentialScan, IndexKind::kBitmapEquality,
                      IndexKind::kBitmapRange, IndexKind::kBitmapInterval,
                      IndexKind::kVaFile));

TEST(ExprExecutorBasicsTest, PossibleIsSupersetOfCertain) {
  const Table table = GenerateTable(UniformSpec(500, 6, 0.4, 4, 603)).value();
  const auto index = CreateIndex(IndexKind::kBitmapRange, table).value();
  Rng rng(603);
  for (int trial = 0; trial < 20; ++trial) {
    const QueryExpr expr = RandomExpr(rng, table, 3);
    const BitVector possible =
        ExecuteExpr(*index, expr, MissingSemantics::kMatch).value();
    const BitVector certain =
        ExecuteExpr(*index, expr, MissingSemantics::kNoMatch).value();
    EXPECT_TRUE(Or(possible, certain) == possible);  // certain ⊆ possible
  }
}

TEST(ExprExecutorBasicsTest, NegationSwapsPossibleAndCertain) {
  // possible(NOT e) = NOT certain(e); certain(NOT e) = NOT possible(e).
  const Table table = GenerateTable(UniformSpec(400, 7, 0.3, 3, 605)).value();
  const auto index = CreateIndex(IndexKind::kBitmapEquality, table).value();
  const QueryExpr expr = QueryExpr::MakeAnd(
      {QueryExpr::MakeTerm(0, {2, 5}), QueryExpr::MakeTerm(1, {1, 3})});
  const QueryExpr negated = QueryExpr::MakeNot(expr);
  const BitVector certain =
      ExecuteExpr(*index, expr, MissingSemantics::kNoMatch).value();
  const BitVector possible_of_not =
      ExecuteExpr(*index, negated, MissingSemantics::kMatch).value();
  EXPECT_TRUE(possible_of_not == Not(certain));
}

TEST(ExprExecutorBasicsTest, ConjunctionMatchesNativeRangeQuery) {
  const Table table = GenerateTable(UniformSpec(600, 10, 0.2, 4, 607)).value();
  const auto index = CreateIndex(IndexKind::kBitmapRange, table).value();
  RangeQuery query;
  query.terms = {{0, {2, 7}}, {2, {1, 5}}, {3, {4, 9}}};
  const QueryExpr expr = QueryExpr::FromRangeQuery(query);
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    query.semantics = semantics;
    EXPECT_TRUE(ExecuteExpr(*index, expr, semantics).value() ==
                index->Execute(query).value());
  }
}

TEST(ExprExecutorBasicsTest, SurvivesDeepNesting) {
  const Table table = GenerateTable(UniformSpec(200, 5, 0.2, 2, 609)).value();
  const auto index = CreateIndex(IndexKind::kBitmapEquality, table).value();
  QueryExpr expr = QueryExpr::MakeTerm(0, {1, 3});
  for (int i = 0; i < 50; ++i) expr = QueryExpr::MakeNot(expr);
  const auto via_index = ExecuteExpr(*index, expr, MissingSemantics::kMatch);
  const auto via_scan =
      ExecuteExprScan(table, expr, MissingSemantics::kMatch);
  ASSERT_TRUE(via_index.ok());
  EXPECT_TRUE(via_index.value() == via_scan.value());
}

}  // namespace
}  // namespace incdb
