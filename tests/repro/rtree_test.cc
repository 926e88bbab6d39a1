#include "repro/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace incdb {
namespace {

TEST(RectTest, IntersectsAndContains) {
  const Rect a{{0, 0}, {10, 10}};
  const Rect b{{5, 5}, {15, 15}};
  const Rect c{{11, 0}, {20, 10}};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Contains(Rect{{1, 1}, {9, 9}}));
  EXPECT_FALSE(a.Contains(b));
}

TEST(RectTest, EnlargeAndVolume) {
  Rect a{{0, 0}, {1, 1}};
  EXPECT_DOUBLE_EQ(a.Volume(), 4.0);  // extents counted inclusively
  a.Enlarge(Rect{{3, 3}, {3, 3}});
  EXPECT_EQ(a.hi[0], 3);
  EXPECT_DOUBLE_EQ(a.Volume(), 16.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(Rect{{0, 0}, {3, 3}}), 0.0);
}

TEST(RTreeTest, EmptyTree) {
  RTree tree(2);
  std::vector<uint32_t> out;
  EXPECT_EQ(tree.RangeSearch(Rect{{0, 0}, {10, 10}}, &out), 1u);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTreeTest, InsertAndExactSearch) {
  RTree tree(2);
  tree.Insert({5, 5}, 1);
  tree.Insert({7, 3}, 2);
  std::vector<uint32_t> out;
  tree.RangeSearch(Rect{{5, 5}, {5, 5}}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1}));
}

TEST(RTreeTest, RandomizedAgainstLinearScan) {
  Rng rng(11);
  for (size_t dims : {2u, 3u, 5u}) {
    RTree tree(dims, 8);
    std::vector<std::vector<int32_t>> points;
    for (uint32_t r = 0; r < 2000; ++r) {
      std::vector<int32_t> p(dims);
      for (auto& x : p) x = static_cast<int32_t>(rng.UniformInt(0, 100));
      tree.Insert(p, r);
      points.push_back(p);
    }
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "dims " << dims;
    EXPECT_EQ(tree.size(), 2000u);
    for (int trial = 0; trial < 25; ++trial) {
      Rect box;
      box.lo.resize(dims);
      box.hi.resize(dims);
      for (size_t d = 0; d < dims; ++d) {
        box.lo[d] = static_cast<int32_t>(rng.UniformInt(0, 80));
        box.hi[d] = box.lo[d] + static_cast<int32_t>(rng.UniformInt(0, 40));
      }
      std::vector<uint32_t> got;
      tree.RangeSearch(box, &got);
      std::vector<uint32_t> expected;
      for (uint32_t r = 0; r < points.size(); ++r) {
        bool inside = true;
        for (size_t d = 0; d < dims; ++d) {
          if (points[r][d] < box.lo[d] || points[r][d] > box.hi[d]) {
            inside = false;
            break;
          }
        }
        if (inside) expected.push_back(r);
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(RTreeTest, DuplicatePointsSupported) {
  // The missing-data sentinel mapping creates many identical points; the
  // tree must absorb them (this is what degrades it in Fig. 1).
  RTree tree(2, 8);
  for (uint32_t r = 0; r < 500; ++r) tree.Insert({-1, -1}, r);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<uint32_t> out;
  tree.RangeSearch(Rect{{-1, -1}, {-1, -1}}, &out);
  EXPECT_EQ(out.size(), 500u);
}

TEST(RTreeTest, HeightGrowsAndStaysBalanced) {
  Rng rng(13);
  RTree tree(2, 8);
  for (uint32_t r = 0; r < 5000; ++r) {
    tree.Insert({static_cast<int32_t>(rng.UniformInt(0, 1000)),
                 static_cast<int32_t>(rng.UniformInt(0, 1000))},
                r);
  }
  EXPECT_GT(tree.height(), 2);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTreeTest, MissingDataSentinelInflatesQueryCost) {
  // The motivating effect behind Fig. 1: with missing values mapped to a
  // sentinel coordinate, answering a missing-is-match query correctly needs
  // an extra subquery per missing-capable dimension (the sentinel strip),
  // and the sentinel strip is dense — so the same logical query costs more
  // node accesses than on a complete dataset.
  Rng rng(17);
  RTree clean(2, 8);
  RTree polluted(2, 8);
  for (uint32_t r = 0; r < 4000; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(100, 1000));
    const int32_t y = static_cast<int32_t>(rng.UniformInt(100, 1000));
    clean.Insert({x, y}, r);
    // 30% of records have a "missing" first coordinate → sentinel -1.
    polluted.Insert({rng.Bernoulli(0.3) ? -1 : x, y}, r);
  }
  uint64_t clean_accesses = 0;
  uint64_t polluted_accesses = 0;
  std::vector<uint32_t> out;
  for (int trial = 0; trial < 50; ++trial) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(100, 800));
    const int32_t y = static_cast<int32_t>(rng.UniformInt(100, 800));
    const Rect box{{x, y}, {x + 200, y + 200}};
    out.clear();
    clean_accesses += clean.RangeSearch(box, &out);
    // Missing-is-match on the polluted tree: the value box plus the
    // sentinel-strip subquery (records whose x is missing, any y in range).
    out.clear();
    polluted_accesses += polluted.RangeSearch(box, &out);
    out.clear();
    polluted_accesses +=
        polluted.RangeSearch(Rect{{-1, y}, {-1, y + 200}}, &out);
  }
  EXPECT_GT(polluted_accesses, clean_accesses);
}

TEST(RTreeTest, SizeInBytesGrows) {
  RTree small(2);
  small.Insert({1, 1}, 0);
  Rng rng(19);
  RTree large(2);
  for (uint32_t r = 0; r < 3000; ++r) {
    large.Insert({static_cast<int32_t>(rng.UniformInt(0, 100)),
                  static_cast<int32_t>(rng.UniformInt(0, 100))},
                 r);
  }
  EXPECT_GT(large.SizeInBytes(), small.SizeInBytes());
}

TEST(RTreeTest, MoveConstructible) {
  RTree tree(2);
  tree.Insert({1, 2}, 7);
  RTree moved = std::move(tree);
  std::vector<uint32_t> out;
  moved.RangeSearch(Rect{{1, 2}, {1, 2}}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{7}));
}

}  // namespace
}  // namespace incdb
