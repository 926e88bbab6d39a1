#include "table/column.h"

#include <gtest/gtest.h>

#include <vector>

namespace incdb {
namespace {

TEST(ColumnTest, AppendAndGet) {
  Column col(5);
  EXPECT_TRUE(col.Append(1).ok());
  EXPECT_TRUE(col.Append(5).ok());
  EXPECT_TRUE(col.Append(kMissingValue).ok());
  EXPECT_EQ(col.num_rows(), 3u);
  EXPECT_EQ(col.Get(0), 1);
  EXPECT_EQ(col.Get(1), 5);
  EXPECT_TRUE(col.IsMissingAt(2));
  EXPECT_FALSE(col.IsMissingAt(0));
}

TEST(ColumnTest, RejectsOutOfDomain) {
  Column col(5);
  EXPECT_EQ(col.Append(6).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(col.Append(-1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(col.num_rows(), 0u);  // failed appends do not mutate
}

TEST(ColumnTest, MissingStats) {
  Column col(3);
  ASSERT_TRUE(col.Append(1).ok());
  ASSERT_TRUE(col.Append(kMissingValue).ok());
  ASSERT_TRUE(col.Append(kMissingValue).ok());
  ASSERT_TRUE(col.Append(2).ok());
  EXPECT_EQ(col.MissingCount(), 2u);
  EXPECT_DOUBLE_EQ(col.MissingRate(), 0.5);
}

TEST(ColumnTest, MissingRateOfEmptyColumnIsZero) {
  Column col(3);
  EXPECT_DOUBLE_EQ(col.MissingRate(), 0.0);
}

TEST(ColumnTest, Histogram) {
  Column col(3);
  for (Value v : {1, 1, 2, kMissingValue, 3, 3, 3}) {
    ASSERT_TRUE(col.Append(v).ok());
  }
  const std::vector<uint64_t> hist = col.Histogram();
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_EQ(hist[0], 1u);  // missing
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(hist[2], 1u);
  EXPECT_EQ(hist[3], 3u);
}

TEST(ColumnTest, DistinctCount) {
  Column col(10);
  for (Value v : {1, 1, 5, kMissingValue, 5}) {
    ASSERT_TRUE(col.Append(v).ok());
  }
  EXPECT_EQ(col.DistinctCount(), 2u);
}

TEST(ColumnTest, NonMissingMean) {
  Column col(10);
  for (Value v : {2, 4, kMissingValue, 6}) {
    ASSERT_TRUE(col.Append(v).ok());
  }
  EXPECT_DOUBLE_EQ(col.NonMissingMean(), 4.0);
}

TEST(ColumnTest, NonMissingMeanAllMissing) {
  Column col(10);
  ASSERT_TRUE(col.Append(kMissingValue).ok());
  EXPECT_DOUBLE_EQ(col.NonMissingMean(), 0.0);
}

// Collects the runs ForEachSpan hands out over [begin, end) and checks
// they tile the range exactly and in order, with every cell agreeing with
// Get(). Returns the row each run starts at.
std::vector<uint64_t> ExpectSpansTile(const Column& col, uint64_t begin,
                                      uint64_t end) {
  std::vector<uint64_t> starts;
  uint64_t next = begin;
  col.ForEachSpan(begin, end,
                  [&](uint64_t row, const Value* values, uint64_t count) {
                    EXPECT_EQ(row, next);
                    EXPECT_GT(count, 0u);
                    for (uint64_t i = 0; i < count; ++i) {
                      EXPECT_EQ(values[i], col.Get(row + i)) << row + i;
                    }
                    starts.push_back(row);
                    next = row + count;
                  });
  EXPECT_EQ(next, end);
  return starts;
}

Column HeapColumn(uint64_t rows) {
  Column col(7);
  for (uint64_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(col.Append(static_cast<Value>(r % 8)).ok());
  }
  return col;
}

TEST(ColumnSpanTest, HeapSpansBreakAtBlockEdges) {
  // Blocks hold rows [0,1024), [1024,3072), [3072,7168), ...
  const Column col = HeapColumn(9000);
  EXPECT_EQ(ExpectSpansTile(col, 0, 9000),
            (std::vector<uint64_t>{0, 1024, 3072, 7168}));
  EXPECT_EQ(ExpectSpansTile(col, 1023, 1025),
            (std::vector<uint64_t>{1023, 1024}));
  EXPECT_EQ(ExpectSpansTile(col, 1024, 3072), (std::vector<uint64_t>{1024}));
  EXPECT_EQ(ExpectSpansTile(col, 3071, 3072), (std::vector<uint64_t>{3071}));
  EXPECT_EQ(ExpectSpansTile(col, 100, 7169),
            (std::vector<uint64_t>{100, 1024, 3072, 7168}));
  const Column::Span span = col.SpanAt(2000, 9000);
  EXPECT_EQ(span.count, 3072u - 2000u);
  EXPECT_EQ(span.values[0], col.Get(2000));
}

TEST(ColumnSpanTest, BorrowedPrefixThenHeapBlocks) {
  std::vector<Value> prefix(1500);
  for (size_t i = 0; i < prefix.size(); ++i) {
    prefix[i] = static_cast<Value>(1 + i % 7);
  }
  Column col = Column::Borrowed(7, prefix.data(), prefix.size());
  for (uint64_t r = 0; r < 2000; ++r) {
    ASSERT_TRUE(col.Append(static_cast<Value>(r % 8)).ok());
  }
  // Heap blocks are relative to the prefix: [1500,2524), [2524,4548), ...
  EXPECT_EQ(ExpectSpansTile(col, 0, 3500),
            (std::vector<uint64_t>{0, 1500, 2524}));
  EXPECT_EQ(ExpectSpansTile(col, 1499, 1501),
            (std::vector<uint64_t>{1499, 1500}));
  EXPECT_EQ(col.SpanAt(10, 20).values, prefix.data() + 10);
  EXPECT_EQ(col.SpanAt(10, 20).count, 10u);
}

TEST(ColumnSpanTest, MultiExtentPrefixBreaksAtExtentEdges) {
  std::vector<Value> a(100, 1), b(37, 2), c(64, 3);
  Column col = Column::BorrowedExtents(
      3, {{a.data(), a.size()}, {nullptr, 0}, {b.data(), b.size()},
          {c.data(), c.size()}});
  ASSERT_EQ(col.borrowed_rows(), 201u);
  for (uint64_t r = 0; r < 1100; ++r) {
    ASSERT_TRUE(col.Append(static_cast<Value>(r % 4)).ok());
  }
  EXPECT_EQ(ExpectSpansTile(col, 0, col.num_rows()),
            (std::vector<uint64_t>{0, 100, 137, 201, 1225}));
  EXPECT_EQ(ExpectSpansTile(col, 99, 138),
            (std::vector<uint64_t>{99, 100, 137}));
  EXPECT_EQ(ExpectSpansTile(col, 136, 137), (std::vector<uint64_t>{136}));
  EXPECT_EQ(ExpectSpansTile(col, 150, 250), (std::vector<uint64_t>{150, 201}));
  EXPECT_EQ(col.SpanAt(120, 130).values, b.data() + 20);
  EXPECT_EQ(col.SpanAt(120, 130).count, 10u);
}

TEST(ColumnSpanTest, EveryRangeOfASmallColumnTiles) {
  std::vector<Value> a(5, 1), b(3, 2);
  Column col = Column::BorrowedExtents(3, {{a.data(), a.size()},
                                           {b.data(), b.size()}});
  for (uint64_t r = 0; r < 1040; ++r) {
    ASSERT_TRUE(col.Append(static_cast<Value>(r % 4)).ok());
  }
  for (uint64_t begin = 0; begin < 16; ++begin) {
    for (uint64_t end : {begin + 1, uint64_t{9}, uint64_t{1031},
                         uint64_t{1032}, uint64_t{1033}, col.num_rows()}) {
      if (end <= begin) continue;
      ExpectSpansTile(col, begin, end);
    }
  }
}

}  // namespace
}  // namespace incdb
