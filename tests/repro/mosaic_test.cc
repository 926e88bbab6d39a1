#include "repro/mosaic.h"

#include <gtest/gtest.h>

#include "core/executor.h"
#include "query/workload.h"
#include "table/generator.h"

namespace incdb {
namespace {

TEST(MosaicTest, RejectsEmptyTable) {
  auto table = Table::Create(Schema({{"x", 5}})).value();
  EXPECT_FALSE(MosaicIndex::Build(table).ok());
}

TEST(MosaicTest, SmallExample) {
  auto table = Table::Create(Schema({{"a", 10}, {"b", 5}})).value();
  ASSERT_TRUE(table.AppendRow({3, 2}).ok());
  ASSERT_TRUE(table.AppendRow({kMissingValue, 2}).ok());
  ASSERT_TRUE(table.AppendRow({7, kMissingValue}).ok());
  ASSERT_TRUE(table.AppendRow({kMissingValue, kMissingValue}).ok());
  const MosaicIndex index = MosaicIndex::Build(table).value();
  RangeQuery q;
  q.terms = {{0, {2, 4}}, {1, {1, 2}}};
  q.semantics = MissingSemantics::kMatch;
  EXPECT_EQ(index.Execute(q).value().ToIndices(),
            (std::vector<uint32_t>{0, 1, 3}));
  q.semantics = MissingSemantics::kNoMatch;
  EXPECT_EQ(index.Execute(q).value().ToIndices(),
            (std::vector<uint32_t>{0}));
}

TEST(MosaicTest, AgreesWithOracleBothSemantics) {
  const Table table = GenerateTable(UniformSpec(2000, 12, 0.25, 6, 61)).value();
  const MosaicIndex index = MosaicIndex::Build(table).value();
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    WorkloadParams params;
    params.num_queries = 30;
    params.dims = 4;
    params.global_selectivity = 0.03;
    params.semantics = semantics;
    const auto queries = GenerateWorkload(table, params);
    ASSERT_TRUE(queries.ok());
    EXPECT_TRUE(VerifyAgainstOracle(index, table, queries.value()).ok());
  }
}

TEST(MosaicTest, SubqueryCountIs2kUnderMatchSemantics) {
  // The related-work claim: a k-attribute query becomes 2k subqueries
  // (range + missing lookup per attribute).
  const Table table = GenerateTable(UniformSpec(200, 10, 0.2, 8, 63)).value();
  const MosaicIndex index = MosaicIndex::Build(table).value();
  RangeQuery q;
  q.semantics = MissingSemantics::kMatch;
  for (size_t a = 0; a < 5; ++a) q.terms.push_back({a, {2, 4}});
  QueryStats stats;
  ASSERT_TRUE(index.Execute(q, &stats).ok());
  EXPECT_EQ(stats.subqueries, 10u);
  EXPECT_GT(stats.nodes_accessed, 0u);

  q.semantics = MissingSemantics::kNoMatch;
  stats.Reset();
  ASSERT_TRUE(index.Execute(q, &stats).ok());
  EXPECT_EQ(stats.subqueries, 5u);  // no missing lookups needed
}

TEST(MosaicTest, RejectsEmptyQueryAndBadAttribute) {
  const Table table = GenerateTable(UniformSpec(50, 5, 0.1, 2, 65)).value();
  const MosaicIndex index = MosaicIndex::Build(table).value();
  EXPECT_FALSE(index.Execute(RangeQuery{}).ok());
  RangeQuery q;
  q.terms = {{7, {1, 1}}};
  EXPECT_EQ(index.Execute(q).status().code(), StatusCode::kOutOfRange);
}

TEST(MosaicTest, SizeReflectsAllTrees) {
  const Table narrow = GenerateTable(UniformSpec(1000, 10, 0.1, 2, 67)).value();
  const Table wide = GenerateTable(UniformSpec(1000, 10, 0.1, 8, 67)).value();
  EXPECT_GT(MosaicIndex::Build(wide).value().SizeInBytes(),
            MosaicIndex::Build(narrow).value().SizeInBytes());
}

}  // namespace
}  // namespace incdb
