// Cross-module integration: every index kind, over datasets spanning the
// paper's parameter space (including a census-like skewed slice), must
// produce byte-identical results to the sequential-scan oracle under both
// query semantics — the system-level statement of DESIGN.md invariant 1.

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/index_factory.h"
#include "query/workload.h"
#include "table/generator.h"

namespace incdb {
namespace {

struct IntegrationCase {
  IndexKind kind;
  MissingSemantics semantics;
};

class AllIndexesOracleTest : public ::testing::TestWithParam<IntegrationCase> {
};

TEST_P(AllIndexesOracleTest, UniformDataset) {
  const auto& [kind, semantics] = GetParam();
  const Table table = GenerateTable(UniformSpec(1200, 12, 0.3, 5, 101)).value();
  const auto index = CreateIndex(kind, table).value();
  WorkloadParams params;
  params.num_queries = 20;
  params.dims = 3;
  params.global_selectivity = 0.03;
  params.semantics = semantics;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  EXPECT_TRUE(VerifyAgainstOracle(*index, table, queries.value()).ok());
}

TEST_P(AllIndexesOracleTest, MixedCardinalitiesAndMissingRates) {
  const auto& [kind, semantics] = GetParam();
  DatasetSpec spec;
  spec.num_rows = 800;
  spec.seed = 103;
  spec.attributes = {
      {"binary", 2, 0.0, 0.0},  {"tiny", 3, 0.5, 0.0},
      {"mid", 17, 0.2, 0.0},    {"skewed", 40, 0.3, 1.2},
      {"wide", 101, 0.1, 0.0},  {"mostly_missing", 9, 0.9, 0.0},
  };
  const Table table = GenerateTable(spec).value();
  const auto index = CreateIndex(kind, table).value();
  WorkloadParams params;
  params.num_queries = 25;
  params.dims = 4;
  params.global_selectivity = 0.05;
  params.semantics = semantics;
  params.seed = 11;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  EXPECT_TRUE(VerifyAgainstOracle(*index, table, queries.value()).ok());
}

std::vector<IntegrationCase> AllCases() {
  std::vector<IntegrationCase> cases;
  for (IndexKind kind :
       {IndexKind::kSequentialScan, IndexKind::kBitmapEquality,
        IndexKind::kBitmapRange, IndexKind::kBitmapInterval,
        IndexKind::kBitmapBitSliced, IndexKind::kVaFile,
        IndexKind::kVaPlusFile}) {
    for (MissingSemantics semantics :
         {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
      cases.push_back({kind, semantics});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AllIndexesOracleTest,
                         ::testing::ValuesIn(AllCases()));

// The scalable index families (no R-tree substrate) on a census-like slice:
// heavier rows, skew, extreme missing rates.
TEST(CensusLikeIntegrationTest, ScalableIndexesAgreeWithOracle) {
  const Table table = GenerateTable(CensusLikeSpec(3000, 107)).value();
  for (IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
        IndexKind::kVaFile, IndexKind::kVaPlusFile}) {
    const auto index = CreateIndex(kind, table).value();
    for (MissingSemantics semantics :
         {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
      WorkloadParams params;
      params.num_queries = 15;
      params.dims = 6;
      params.attribute_selectivity = 0.2;  // the paper's census workload
      params.semantics = semantics;
      params.seed = 13;
      const auto queries = GenerateWorkload(table, params);
      ASSERT_TRUE(queries.ok());
      EXPECT_TRUE(VerifyAgainstOracle(*index, table, queries.value()).ok())
          << IndexKindToString(kind);
    }
  }
}

// High-dimensional search keys: the paper's scalability claim. 20-dim
// queries must stay exact for bitmaps and VA-files.
TEST(HighDimensionalIntegrationTest, TwentyDimensionalQueries) {
  const Table table = GenerateTable(UniformSpec(600, 6, 0.25, 24, 109)).value();
  for (IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
        IndexKind::kVaFile}) {
    const auto index = CreateIndex(kind, table).value();
    WorkloadParams params;
    params.num_queries = 10;
    params.dims = 20;
    params.global_selectivity = 0.10;
    const auto queries = GenerateWorkload(table, params);
    ASSERT_TRUE(queries.ok());
    EXPECT_TRUE(VerifyAgainstOracle(*index, table, queries.value()).ok())
        << IndexKindToString(kind);
  }
}

// End-to-end agreement on the paper's worked example between ALL families.
TEST(WorkedExampleIntegrationTest, AllFamiliesAgree) {
  auto table = Table::Create(Schema({{"A1", 5}, {"A2", 3}})).value();
  const Value rows[][2] = {{5, 1}, {2, kMissingValue}, {3, 2},
                           {kMissingValue, 3}, {4, 1}, {5, kMissingValue},
                           {1, 2}, {3, 3}, {kMissingValue, 1}, {2, 2}};
  for (const auto& row : rows) {
    ASSERT_TRUE(table.AppendRow({row[0], row[1]}).ok());
  }
  RangeQuery q;
  q.terms = {{0, {2, 4}}, {1, {1, 2}}};
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    q.semantics = semantics;
    std::vector<uint32_t> reference;
    bool first = true;
    for (IndexKind kind :
         {IndexKind::kSequentialScan, IndexKind::kBitmapEquality,
          IndexKind::kBitmapRange, IndexKind::kBitmapInterval,
          IndexKind::kVaFile, IndexKind::kVaPlusFile}) {
      const auto index = CreateIndex(kind, table).value();
      const auto result = index->Execute(q);
      ASSERT_TRUE(result.ok()) << index->Name();
      if (first) {
        reference = result.value().ToIndices();
        first = false;
      } else {
        EXPECT_EQ(result.value().ToIndices(), reference) << index->Name();
      }
    }
  }
}

}  // namespace
}  // namespace incdb
