#include "repro/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"

namespace incdb {
namespace {

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree tree;
  std::vector<uint32_t> out;
  EXPECT_GT(tree.RangeScan(0, 100, &out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, InsertAndLookup) {
  BPlusTree tree(8);
  tree.Insert(5, 100);
  tree.Insert(3, 200);
  tree.Insert(7, 300);
  std::vector<uint32_t> out;
  tree.Lookup(3, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{200}));
  out.clear();
  tree.Lookup(99, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BPlusTreeTest, DuplicateKeys) {
  BPlusTree tree(8);
  for (uint32_t r = 0; r < 50; ++r) tree.Insert(42, r);
  std::vector<uint32_t> out;
  tree.Lookup(42, &out);
  EXPECT_EQ(out.size(), 50u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BPlusTreeTest, RangeScanReturnsKeyOrderedResults) {
  BPlusTree tree(6);
  Rng rng(3);
  std::multimap<int32_t, uint32_t> reference;
  for (uint32_t r = 0; r < 1000; ++r) {
    const int32_t key = static_cast<int32_t>(rng.UniformInt(0, 200));
    tree.Insert(key, r);
    reference.emplace(key, r);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (auto [lo, hi] : std::vector<std::pair<int32_t, int32_t>>{
           {0, 200}, {50, 60}, {0, 0}, {199, 200}, {201, 500}, {60, 50}}) {
    std::vector<uint32_t> got;
    tree.RangeScan(lo, hi, &got);
    std::vector<uint32_t> expected;
    for (auto it = reference.lower_bound(lo);
         it != reference.end() && it->first <= hi; ++it) {
      expected.push_back(it->second);
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "range [" << lo << "," << hi << "]";
  }
}

TEST(BPlusTreeTest, GrowsInHeightAndStaysBalanced) {
  BPlusTree tree(4);  // tiny fanout forces splits
  for (int i = 0; i < 10000; ++i) tree.Insert(i, static_cast<uint32_t>(i));
  EXPECT_GT(tree.height(), 3);
  EXPECT_EQ(tree.size(), 10000u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  std::vector<uint32_t> out;
  tree.RangeScan(0, 9999, &out);
  EXPECT_EQ(out.size(), 10000u);
}

TEST(BPlusTreeTest, DescendingInsertions) {
  BPlusTree tree(5);
  for (int i = 9999; i >= 0; --i) tree.Insert(i, static_cast<uint32_t>(i));
  EXPECT_TRUE(tree.CheckInvariants().ok());
  std::vector<uint32_t> out;
  tree.RangeScan(100, 102, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{100, 101, 102}));
}

TEST(BPlusTreeTest, RandomizedAgainstMultimap) {
  Rng rng(7);
  for (int fanout : {4, 16, 64}) {
    BPlusTree tree(fanout);
    std::multimap<int32_t, uint32_t> reference;
    for (uint32_t r = 0; r < 3000; ++r) {
      const int32_t key = static_cast<int32_t>(rng.UniformInt(-50, 50));
      tree.Insert(key, r);
      reference.emplace(key, r);
    }
    ASSERT_TRUE(tree.CheckInvariants().ok()) << "fanout " << fanout;
    for (int trial = 0; trial < 50; ++trial) {
      const int32_t lo = static_cast<int32_t>(rng.UniformInt(-60, 60));
      const int32_t hi = lo + static_cast<int32_t>(rng.UniformInt(0, 30));
      std::vector<uint32_t> got;
      tree.RangeScan(lo, hi, &got);
      size_t expected = 0;
      for (auto it = reference.lower_bound(lo);
           it != reference.end() && it->first <= hi; ++it) {
        ++expected;
      }
      EXPECT_EQ(got.size(), expected);
    }
  }
}

TEST(BPlusTreeTest, NodeAccessCountGrowsWithRange) {
  BPlusTree tree(8);
  for (int i = 0; i < 20000; ++i) tree.Insert(i, static_cast<uint32_t>(i));
  std::vector<uint32_t> out;
  const uint64_t narrow = tree.RangeScan(500, 510, &out);
  out.clear();
  const uint64_t wide = tree.RangeScan(0, 19999, &out);
  EXPECT_LT(narrow, wide);
}

TEST(BPlusTreeTest, SizeInBytesPositiveAndGrows) {
  BPlusTree small(16);
  small.Insert(1, 1);
  BPlusTree large(16);
  for (int i = 0; i < 10000; ++i) large.Insert(i, static_cast<uint32_t>(i));
  EXPECT_GT(large.SizeInBytes(), small.SizeInBytes());
}

TEST(BPlusTreeTest, MoveConstructible) {
  BPlusTree tree(8);
  tree.Insert(1, 10);
  BPlusTree moved = std::move(tree);
  std::vector<uint32_t> out;
  moved.Lookup(1, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{10}));
}

TEST(BPlusTreeTest, NegativeAndZeroKeys) {
  // MOSAIC maps missing to key 0; make sure 0 and negatives behave.
  BPlusTree tree(8);
  tree.Insert(0, 1);
  tree.Insert(-5, 2);
  tree.Insert(3, 3);
  std::vector<uint32_t> out;
  tree.Lookup(0, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1}));
  out.clear();
  tree.RangeScan(-10, 0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2}));
}

}  // namespace
}  // namespace incdb
