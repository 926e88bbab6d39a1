#include "repro/bitstring_augmented.h"

#include <gtest/gtest.h>

#include "core/executor.h"
#include "query/workload.h"
#include "table/generator.h"

namespace incdb {
namespace {

TEST(BitstringAugmentedTest, RejectsEmptyTable) {
  auto table = Table::Create(Schema({{"x", 5}})).value();
  EXPECT_FALSE(BitstringAugmentedIndex::Build(table).ok());
}

TEST(BitstringAugmentedTest, SmallExample) {
  auto table = Table::Create(Schema({{"a", 10}, {"b", 5}})).value();
  ASSERT_TRUE(table.AppendRow({3, 2}).ok());
  ASSERT_TRUE(table.AppendRow({kMissingValue, 2}).ok());
  ASSERT_TRUE(table.AppendRow({7, kMissingValue}).ok());
  ASSERT_TRUE(table.AppendRow({kMissingValue, kMissingValue}).ok());
  const auto index = BitstringAugmentedIndex::Build(table).value();
  RangeQuery q;
  q.terms = {{0, {2, 4}}, {1, {1, 2}}};
  q.semantics = MissingSemantics::kMatch;
  EXPECT_EQ(index.Execute(q).value().ToIndices(),
            (std::vector<uint32_t>{0, 1, 3}));
  q.semantics = MissingSemantics::kNoMatch;
  EXPECT_EQ(index.Execute(q).value().ToIndices(),
            (std::vector<uint32_t>{0}));
}

TEST(BitstringAugmentedTest, AgreesWithOracleBothSemantics) {
  // Low-dimensional table: the R-tree substrate is only viable there.
  const Table table = GenerateTable(UniformSpec(1500, 15, 0.25, 4, 71)).value();
  const auto index = BitstringAugmentedIndex::Build(table).value();
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    WorkloadParams params;
    params.num_queries = 25;
    params.dims = 3;
    params.global_selectivity = 0.05;
    params.semantics = semantics;
    const auto queries = GenerateWorkload(table, params);
    ASSERT_TRUE(queries.ok());
    EXPECT_TRUE(VerifyAgainstOracle(index, table, queries.value()).ok());
  }
}

TEST(BitstringAugmentedTest, SubqueryCountIsExponentialInK) {
  const Table table = GenerateTable(UniformSpec(300, 10, 0.2, 6, 73)).value();
  const auto index = BitstringAugmentedIndex::Build(table).value();
  for (size_t k = 1; k <= 5; ++k) {
    RangeQuery q;
    q.semantics = MissingSemantics::kMatch;
    for (size_t a = 0; a < k; ++a) q.terms.push_back({a, {2, 5}});
    QueryStats stats;
    ASSERT_TRUE(index.Execute(q, &stats).ok());
    EXPECT_EQ(stats.subqueries, uint64_t{1} << k);
  }
}

TEST(BitstringAugmentedTest, SingleSubqueryUnderNoMatch) {
  const Table table = GenerateTable(UniformSpec(300, 10, 0.2, 4, 75)).value();
  const auto index = BitstringAugmentedIndex::Build(table).value();
  RangeQuery q;
  q.semantics = MissingSemantics::kNoMatch;
  q.terms = {{0, {2, 5}}, {1, {1, 3}}, {2, {4, 8}}};
  QueryStats stats;
  ASSERT_TRUE(index.Execute(q, &stats).ok());
  EXPECT_EQ(stats.subqueries, 1u);
}

TEST(BitstringAugmentedTest, RefusesHugeQueryDimensionality) {
  const Table table = GenerateTable(UniformSpec(50, 3, 0.1, 21, 77)).value();
  const auto index = BitstringAugmentedIndex::Build(table).value();
  RangeQuery q;
  q.semantics = MissingSemantics::kMatch;
  for (size_t a = 0; a < 21; ++a) q.terms.push_back({a, {1, 2}});
  EXPECT_EQ(index.Execute(q).status().code(), StatusCode::kNotSupported);
}

TEST(BitstringAugmentedTest, RejectsEmptyQueryAndBadAttribute) {
  const Table table = GenerateTable(UniformSpec(50, 5, 0.1, 2, 79)).value();
  const auto index = BitstringAugmentedIndex::Build(table).value();
  EXPECT_FALSE(index.Execute(RangeQuery{}).ok());
  RangeQuery q;
  q.terms = {{7, {1, 1}}};
  EXPECT_EQ(index.Execute(q).status().code(), StatusCode::kOutOfRange);
}

TEST(BitstringAugmentedTest, AllMissingAttributeStillWorks) {
  auto table = Table::Create(Schema({{"a", 5}, {"b", 5}})).value();
  ASSERT_TRUE(table.AppendRow({kMissingValue, 1}).ok());
  ASSERT_TRUE(table.AppendRow({kMissingValue, 3}).ok());
  const auto index = BitstringAugmentedIndex::Build(table).value();
  RangeQuery q;
  q.semantics = MissingSemantics::kMatch;
  q.terms = {{0, {1, 2}}};
  EXPECT_EQ(index.Execute(q).value().Count(), 2u);
  q.semantics = MissingSemantics::kNoMatch;
  EXPECT_EQ(index.Execute(q).value().Count(), 0u);
}

}  // namespace
}  // namespace incdb
