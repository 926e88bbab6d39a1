#include "bitvector/bitvector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace incdb {
namespace {

TEST(BitVectorTest, EmptyByDefault) {
  BitVector bv;
  EXPECT_EQ(bv.size(), 0u);
  EXPECT_TRUE(bv.empty());
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVectorTest, SizedConstructorAllZero) {
  BitVector bv(100);
  EXPECT_EQ(bv.size(), 100u);
  EXPECT_EQ(bv.Count(), 0u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_FALSE(bv.Get(i));
}

TEST(BitVectorTest, FilledConstructor) {
  BitVector bv(70, true);
  EXPECT_EQ(bv.Count(), 70u);
  // The trailing bits of the last word must stay zero (invariant).
  EXPECT_EQ(bv.words().back() >> (70 % 64), 0u);
}

TEST(BitVectorTest, SetAndGet) {
  BitVector bv(130);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(63));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(129));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.Count(), 4u);
  bv.Set(63, false);
  EXPECT_FALSE(bv.Get(63));
  EXPECT_EQ(bv.Count(), 3u);
}

TEST(BitVectorTest, PushBack) {
  BitVector bv;
  for (int i = 0; i < 100; ++i) bv.PushBack(i % 3 == 0);
  EXPECT_EQ(bv.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(bv.Get(i), i % 3 == 0);
}

TEST(BitVectorTest, ResizeGrowsWithZeros) {
  BitVector bv(10, true);
  bv.Resize(100);
  EXPECT_EQ(bv.size(), 100u);
  EXPECT_EQ(bv.Count(), 10u);
}

TEST(BitVectorTest, ResizeShrinkClearsTail) {
  BitVector bv(100, true);
  bv.Resize(10);
  EXPECT_EQ(bv.Count(), 10u);
  bv.Resize(100);
  EXPECT_EQ(bv.Count(), 10u);  // regrown bits are zero
}

TEST(BitVectorTest, FromBoolsAndToString) {
  const BitVector bv = BitVector::FromBools({false, true, true, false, true});
  EXPECT_EQ(bv.ToString(), "01101");
}

TEST(BitVectorTest, FromStringRoundTrip) {
  const auto result = BitVector::FromString("0001000010");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().ToString(), "0001000010");
  EXPECT_EQ(result.value().Count(), 2u);
}

TEST(BitVectorTest, FromStringRejectsJunk) {
  EXPECT_FALSE(BitVector::FromString("0102").ok());
}

TEST(BitVectorTest, LogicalOps) {
  const BitVector a = BitVector::FromString("1100").value();
  const BitVector b = BitVector::FromString("1010").value();
  EXPECT_EQ(And(a, b).ToString(), "1000");
  EXPECT_EQ(Or(a, b).ToString(), "1110");
  EXPECT_EQ(Xor(a, b).ToString(), "0110");
  EXPECT_EQ(Not(a).ToString(), "0011");
}

TEST(BitVectorTest, NotPreservesTrailingZeroInvariant) {
  BitVector bv(70);
  bv.Flip();
  EXPECT_EQ(bv.Count(), 70u);
  EXPECT_EQ(bv.words().back() >> (70 % 64), 0u);
}

TEST(BitVectorTest, SetAllThenClearAll) {
  BitVector bv(100);
  bv.SetAll();
  EXPECT_EQ(bv.Count(), 100u);
  bv.ClearAll();
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVectorTest, Density) {
  BitVector bv(100);
  for (int i = 0; i < 25; ++i) bv.Set(i);
  EXPECT_DOUBLE_EQ(bv.Density(), 0.25);
  EXPECT_DOUBLE_EQ(BitVector().Density(), 0.0);
}

TEST(BitVectorTest, ForEachSetBitInOrder) {
  BitVector bv(200);
  bv.Set(3);
  bv.Set(64);
  bv.Set(199);
  std::vector<uint64_t> seen;
  bv.ForEachSetBit([&](uint64_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{3, 64, 199}));
}

TEST(BitVectorTest, ToIndices) {
  BitVector bv(10);
  bv.Set(1);
  bv.Set(9);
  EXPECT_EQ(bv.ToIndices(), (std::vector<uint32_t>{1, 9}));
}

TEST(BitVectorTest, FirstIndicesIsThePrefixOfToIndices) {
  Rng rng(7);
  BitVector bv(1000);
  for (uint64_t i = 0; i < bv.size(); ++i) {
    if (rng.Bernoulli(0.05)) bv.Set(i);
  }
  const std::vector<uint32_t> all = bv.ToIndices();
  ASSERT_GT(all.size(), 10u);
  for (uint64_t limit : {uint64_t{1}, uint64_t{2}, uint64_t{10},
                         uint64_t{all.size() - 1}, uint64_t{all.size()},
                         uint64_t{all.size() + 1}, uint64_t{1} << 40}) {
    const std::vector<uint32_t> first = bv.FirstIndices(limit);
    ASSERT_EQ(first.size(), std::min<uint64_t>(limit, all.size())) << limit;
    EXPECT_TRUE(std::equal(first.begin(), first.end(), all.begin())) << limit;
  }
  EXPECT_TRUE(bv.FirstIndices(0).empty());
  EXPECT_TRUE(BitVector(0).FirstIndices(5).empty());
}

TEST(BitVectorTest, OrWordSetsWholeWords) {
  BitVector bv(130);
  bv.Set(3);
  bv.OrWord(0, uint64_t{1} << 63 | 1);
  bv.OrWord(2, 0x3);  // bits 128, 129: the last word's only valid bits
  EXPECT_EQ(bv.ToIndices(), (std::vector<uint32_t>{0, 3, 63, 128, 129}));
}

TEST(BitVectorTest, Equality) {
  BitVector a(10);
  BitVector b(10);
  EXPECT_TRUE(a == b);
  a.Set(5);
  EXPECT_FALSE(a == b);
  b.Set(5);
  EXPECT_TRUE(a == b);
}

TEST(BitVectorTest, DeMorganRandomized) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t n = 1 + rng.UniformInt(0, 300);
    BitVector a(n);
    BitVector b(n);
    for (uint64_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.4)) a.Set(i);
      if (rng.Bernoulli(0.4)) b.Set(i);
    }
    EXPECT_TRUE(Not(And(a, b)) == Or(Not(a), Not(b)));
    EXPECT_TRUE(Not(Or(a, b)) == And(Not(a), Not(b)));
    EXPECT_TRUE(Xor(a, b) == Or(And(a, Not(b)), And(Not(a), b)));
  }
}

TEST(BitVectorTest, SizeInBytes) {
  EXPECT_EQ(BitVector(0).SizeInBytes(), 0u);
  EXPECT_EQ(BitVector(1).SizeInBytes(), 8u);
  EXPECT_EQ(BitVector(64).SizeInBytes(), 8u);
  EXPECT_EQ(BitVector(65).SizeInBytes(), 16u);
}

}  // namespace
}  // namespace incdb
