// Incremental AppendRow for the bitmap index. The strongest property: an
// incrementally-built index is bit-identical to a batch-built one.
// Persistence goes through the store (tests/storage/).

#include <gtest/gtest.h>

#include "bitmap/bitmap_index.h"
#include "core/executor.h"
#include "query/workload.h"
#include "table/generator.h"

namespace incdb {
namespace {

struct AppendCase {
  BitmapEncoding encoding;
  MissingStrategy strategy;
};

class BitmapAppendTest : public ::testing::TestWithParam<AppendCase> {};

TEST_P(BitmapAppendTest, IncrementalEqualsBatch) {
  const auto& [encoding, strategy] = GetParam();
  const Table table = GenerateTable(UniformSpec(800, 9, 0.3, 4, 207)).value();

  // Build on the first half, append the second half row by row.
  auto half = Table::Create(table.schema()).value();
  std::vector<Value> row(table.num_attributes());
  for (uint64_t r = 0; r < 400; ++r) {
    for (size_t a = 0; a < row.size(); ++a) row[a] = table.Get(r, a);
    ASSERT_TRUE(half.AppendRow(row).ok());
  }
  BitmapIndex incremental =
      BitmapIndex::Build(half, {encoding, strategy}).value();
  for (uint64_t r = 400; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < row.size(); ++a) row[a] = table.Get(r, a);
    ASSERT_TRUE(incremental.AppendRow(row).ok());
  }

  const BitmapIndex batch =
      BitmapIndex::Build(table, {encoding, strategy}).value();
  ASSERT_EQ(incremental.num_rows(), batch.num_rows());
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    ASSERT_EQ(incremental.NumBitmaps(a), batch.NumBitmaps(a));
    const size_t num_values = incremental.NumBitmaps(a) -
                              (incremental.missing_bitmap(a) != nullptr);
    for (size_t j = 1; j <= num_values; ++j) {
      EXPECT_TRUE(incremental.value_bitmap(a, j) == batch.value_bitmap(a, j))
          << "attr " << a << " bitmap " << j;
    }
    if (batch.missing_bitmap(a) != nullptr) {
      ASSERT_NE(incremental.missing_bitmap(a), nullptr);
      EXPECT_TRUE(*incremental.missing_bitmap(a) == *batch.missing_bitmap(a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, BitmapAppendTest,
    ::testing::Values(
        AppendCase{BitmapEncoding::kEquality, MissingStrategy::kExtraBitmap},
        AppendCase{BitmapEncoding::kRange, MissingStrategy::kExtraBitmap},
        AppendCase{BitmapEncoding::kInterval, MissingStrategy::kExtraBitmap},
        AppendCase{BitmapEncoding::kBitSliced, MissingStrategy::kExtraBitmap},
        AppendCase{BitmapEncoding::kEquality, MissingStrategy::kAllOnes},
        AppendCase{BitmapEncoding::kEquality, MissingStrategy::kAllZeros}));

TEST(BitmapAppendValidationTest, RejectsBadRows) {
  const Table table = GenerateTable(UniformSpec(100, 5, 0.1, 2, 209)).value();
  BitmapIndex index = BitmapIndex::Build(table, {}).value();
  EXPECT_FALSE(index.AppendRow({1}).ok());           // wrong arity
  EXPECT_FALSE(index.AppendRow({1, 9}).ok());        // out of domain
  EXPECT_EQ(index.num_rows(), 100u);                 // unchanged
  EXPECT_TRUE(index.AppendRow({kMissingValue, 3}).ok());
  EXPECT_EQ(index.num_rows(), 101u);
}

TEST(BitmapAppendValidationTest, FirstMissingValueCreatesMissingBitmap) {
  const Table table = GenerateTable(UniformSpec(50, 5, 0.0, 1, 211)).value();
  BitmapIndex index = BitmapIndex::Build(table, {}).value();
  EXPECT_EQ(index.missing_bitmap(0), nullptr);
  ASSERT_TRUE(index.AppendRow({kMissingValue}).ok());
  ASSERT_NE(index.missing_bitmap(0), nullptr);
  EXPECT_EQ(index.missing_bitmap(0)->size(), 51u);
  EXPECT_EQ(index.missing_bitmap(0)->Count(), 1u);
  EXPECT_TRUE(index.missing_bitmap(0)->Get(50));
}

TEST(BitmapAppendValidationTest, AppendedIndexAnswersQueries) {
  const Table full = GenerateTable(UniformSpec(500, 8, 0.25, 3, 213)).value();
  auto growing = Table::Create(full.schema()).value();
  BitmapIndex index = BitmapIndex::Build(full, {}).value();
  // Rebuild "growing" to match full, then extend both with appends.
  std::vector<Value> row(3);
  for (uint64_t r = 0; r < full.num_rows(); ++r) {
    for (size_t a = 0; a < 3; ++a) row[a] = full.Get(r, a);
    ASSERT_TRUE(growing.AppendRow(row).ok());
  }
  for (int i = 0; i < 100; ++i) {
    row = {static_cast<Value>(1 + i % 8), kMissingValue,
           static_cast<Value>(1 + (i * 3) % 8)};
    ASSERT_TRUE(growing.AppendRow(row).ok());
    ASSERT_TRUE(index.AppendRow(row).ok());
  }
  WorkloadParams params;
  params.num_queries = 15;
  params.dims = 2;
  params.global_selectivity = 0.05;
  const auto queries = GenerateWorkload(growing, params);
  ASSERT_TRUE(queries.ok());
  EXPECT_TRUE(VerifyAgainstOracle(index, growing, queries.value()).ok());
}

}  // namespace
}  // namespace incdb
