// DESIGN.md invariant 6, stated constructively and checked across every
// index family: the missing-is-match result equals the missing-not-match
// result plus exactly the rows that (a) are missing at least one search-key
// attribute and (b) satisfy every search-key attribute they do have.

#include <gtest/gtest.h>

#include "core/index_factory.h"
#include "query/workload.h"
#include "table/generator.h"

namespace incdb {
namespace {

BitVector ExpectedExtraRows(const Table& table, const RangeQuery& query) {
  BitVector extra(table.num_rows());
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    bool any_missing = false;
    bool present_all_match = true;
    for (const QueryTerm& term : query.terms) {
      const Value v = table.Get(r, term.attribute);
      if (IsMissing(v)) {
        any_missing = true;
      } else if (!term.interval.Contains(v)) {
        present_all_match = false;
        break;
      }
    }
    if (any_missing && present_all_match) extra.Set(r);
  }
  return extra;
}

class SemanticsAlgebraTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(SemanticsAlgebraTest, MatchEqualsNoMatchPlusMissingMatches) {
  const IndexKind kind = GetParam();
  const Table table = GenerateTable(UniformSpec(1000, 9, 0.35, 5, 977)).value();
  const auto index = CreateIndex(kind, table).value();
  WorkloadParams params;
  params.num_queries = 20;
  params.dims = 3;
  params.global_selectivity = 0.05;
  params.seed = 23;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  for (RangeQuery q : queries.value()) {
    q.semantics = MissingSemantics::kMatch;
    const BitVector with = index->Execute(q).value();
    q.semantics = MissingSemantics::kNoMatch;
    const BitVector without = index->Execute(q).value();
    const BitVector extra = ExpectedExtraRows(table, q);
    // Disjoint union: extra ∩ without = ∅ and with = without ∪ extra.
    EXPECT_EQ(And(extra, without).Count(), 0u) << index->Name();
    EXPECT_TRUE(Or(without, extra) == with) << index->Name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SemanticsAlgebraTest,
    ::testing::Values(IndexKind::kSequentialScan, IndexKind::kBitmapEquality,
                      IndexKind::kBitmapRange, IndexKind::kBitmapInterval,
                      IndexKind::kBitmapBitSliced, IndexKind::kVaFile,
                      IndexKind::kVaPlusFile));

}  // namespace
}  // namespace incdb
