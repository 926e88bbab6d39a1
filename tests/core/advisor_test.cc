// Index advisor: predicted sizes must track the real indexes, and the
// recommendations must reproduce the paper's guidance (BEE for points,
// BRE for ranges, small indexes under tight memory budgets).

#include "core/advisor.h"

#include <gtest/gtest.h>

#include "core/executor.h"
#include "query/workload.h"
#include "table/generator.h"

namespace incdb {
namespace {

TEST(AdvisorTest, SizePredictionsTrackRealSizesOnUniformData) {
  const Table table = GenerateTable(UniformSpec(20000, 20, 0.2, 6, 921)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  for (IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
        IndexKind::kVaFile}) {
    const double predicted = advisor.Estimate(kind, profile).size_bytes;
    const double actual = static_cast<double>(
        CreateIndex(kind, table).value()->SizeInBytes());
    EXPECT_NEAR(predicted / actual, 1.0, 0.45) << IndexKindToString(kind);
  }
}

TEST(AdvisorTest, SizePredictionsTrackRealSizesOnSkewedData) {
  DatasetSpec spec = UniformSpec(20000, 50, 0.3, 4, 923);
  for (auto& attr : spec.attributes) attr.zipf_theta = 1.2;
  const Table table = GenerateTable(spec).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  // The histogram-driven model must see the skew: equality bitmaps of rare
  // values compress, so predicted BEE size must drop well below verbatim.
  const double predicted_bee =
      advisor.Estimate(IndexKind::kBitmapEquality, profile).size_bytes;
  const double actual_bee = static_cast<double>(
      CreateIndex(IndexKind::kBitmapEquality, table).value()->SizeInBytes());
  EXPECT_NEAR(predicted_bee / actual_bee, 1.0, 0.5);
}

TEST(AdvisorTest, ScanAlwaysQualifiesAndHasZeroSize) {
  const Table table = GenerateTable(UniformSpec(500, 10, 0.1, 3, 925)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  const auto ranked = advisor.Rank(profile, /*memory_budget_bytes=*/0.0);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked.front().kind, IndexKind::kSequentialScan);
  EXPECT_DOUBLE_EQ(ranked.front().size_bytes, 0.0);
}

TEST(AdvisorTest, RecommendsBitmapOverScanAtScale) {
  const Table table = GenerateTable(UniformSpec(50000, 10, 0.2, 8, 927)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  profile.dims = 4;
  profile.attribute_selectivity = 0.2;
  const IndexKind pick = advisor.Recommend(profile);
  EXPECT_TRUE(pick == IndexKind::kBitmapRange ||
              pick == IndexKind::kBitmapInterval ||
              pick == IndexKind::kBitmapEquality)
      << IndexKindToString(pick);
}

TEST(AdvisorTest, RangeQueriesPreferRangeFamilyOverEquality) {
  // Paper §5.3/§6: BRE (and BIE) beat BEE for wide ranges on
  // mid-cardinality attributes.
  const Table table = GenerateTable(UniformSpec(50000, 50, 0.1, 6, 929)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile range_profile;
  range_profile.attribute_selectivity = 0.4;
  range_profile.dims = 4;
  const double bee =
      advisor.Estimate(IndexKind::kBitmapEquality, range_profile).query_cost;
  const double bre =
      advisor.Estimate(IndexKind::kBitmapRange, range_profile).query_cost;
  const double bie =
      advisor.Estimate(IndexKind::kBitmapInterval, range_profile).query_cost;
  EXPECT_LT(bre, bee);
  EXPECT_LT(bie, bee);
}

TEST(AdvisorTest, PointQueriesRateEqualityWell) {
  const Table table = GenerateTable(UniformSpec(50000, 50, 0.1, 6, 931)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile point_profile;
  point_profile.point_queries = true;
  point_profile.dims = 4;
  const double bee =
      advisor.Estimate(IndexKind::kBitmapEquality, point_profile).query_cost;
  const double bsl =
      advisor.Estimate(IndexKind::kBitmapBitSliced, point_profile).query_cost;
  const double va =
      advisor.Estimate(IndexKind::kVaFile, point_profile).query_cost;
  EXPECT_LT(bee, bsl);
  EXPECT_LT(bee, va);
}

TEST(AdvisorTest, TightMemoryBudgetFallsBackToSmallIndexes) {
  const Table table =
      GenerateTable(UniformSpec(50000, 100, 0.1, 6, 933)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  profile.attribute_selectivity = 0.2;
  // Budget below the bitmap sizes but above BSL/VA.
  const double bsl_size =
      advisor.Estimate(IndexKind::kBitmapBitSliced, profile).size_bytes;
  const double va_size =
      advisor.Estimate(IndexKind::kVaFile, profile).size_bytes;
  const double budget = std::max(bsl_size, va_size) * 1.1;
  const IndexKind pick = advisor.Recommend(profile, budget);
  EXPECT_TRUE(pick == IndexKind::kBitmapBitSliced ||
              pick == IndexKind::kVaFile)
      << IndexKindToString(pick);
  for (const IndexCostEstimate& estimate : advisor.Rank(profile, budget)) {
    EXPECT_LE(estimate.size_bytes, budget);
  }
}

// End-to-end sanity: for a range-heavy workload the advisor's top bitmap
// pick must actually beat the scan, measured.
TEST(AdvisorTest, RecommendationBeatsScanInPractice) {
  const Table table = GenerateTable(UniformSpec(30000, 20, 0.2, 6, 937)).value();
  const IndexAdvisor advisor(table);
  WorkloadProfile profile;
  profile.dims = 4;
  profile.attribute_selectivity = 0.15;
  const IndexKind pick = advisor.Recommend(profile);
  ASSERT_NE(pick, IndexKind::kSequentialScan);

  WorkloadParams params;
  params.num_queries = 30;
  params.dims = 4;
  params.attribute_selectivity = 0.15;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  const auto picked = CreateIndex(pick, table).value();
  const auto scan = CreateIndex(IndexKind::kSequentialScan, table).value();
  const double picked_ms =
      RunWorkload(*picked, queries.value(), table.num_rows())->total_millis;
  const double scan_ms =
      RunWorkload(*scan, queries.value(), table.num_rows())->total_millis;
  EXPECT_LT(picked_ms, scan_ms);
}

}  // namespace
}  // namespace incdb
