#include "compression/wah_bitvector.h"

#include <gtest/gtest.h>

namespace incdb {
namespace {

TEST(WahBitVectorTest, EmptyByDefault) {
  WahBitVector wah;
  EXPECT_EQ(wah.size(), 0u);
  EXPECT_TRUE(wah.empty());
  EXPECT_EQ(wah.Count(), 0u);
  EXPECT_EQ(wah.SizeInBytes(), 0u);
}

TEST(WahBitVectorTest, AppendBitRoundTrip) {
  WahBitVector wah;
  for (int i = 0; i < 100; ++i) wah.AppendBit(i % 7 == 0);
  EXPECT_EQ(wah.size(), 100u);
  const BitVector dense = wah.Decompress();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dense.Get(i), i % 7 == 0) << i;
}

TEST(WahBitVectorTest, FillFactory) {
  const WahBitVector zeros = WahBitVector::Fill(1000, false);
  EXPECT_EQ(zeros.size(), 1000u);
  EXPECT_EQ(zeros.Count(), 0u);
  const WahBitVector ones = WahBitVector::Fill(1000, true);
  EXPECT_EQ(ones.Count(), 1000u);
  // A long fill should compress to very few words.
  EXPECT_LE(ones.SizeInBytes(), 8u);
}

TEST(WahBitVectorTest, AppendRunMergesFills) {
  WahBitVector wah;
  wah.AppendRun(false, 31 * 10);
  wah.AppendRun(false, 31 * 5);
  EXPECT_EQ(wah.size(), 31u * 15);
  EXPECT_EQ(wah.NumWords(), 1u);  // one merged fill word
}

TEST(WahBitVectorTest, GroupsAre31Bits) {
  // 32-bit code words: one flag bit, 31 payload bits per literal group.
  EXPECT_EQ(WahBitVector::kGroupBits, 31);
  const WahBitVector literal =
      WahBitVector::Compress(BitVector::FromString("1010").value());
  EXPECT_EQ(literal.active_bits(), 4);
  EXPECT_EQ(WahBitVector::Fill(62, true).NumWords(), 1u);
  EXPECT_EQ(WahBitVector::Fill(62, true).active_bits(), 0);
}

TEST(WahBitVectorTest, CompressDecompressIdentitySmall) {
  const BitVector dense = BitVector::FromString("0001000010").value();
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_TRUE(wah.Decompress() == dense);
  EXPECT_EQ(wah.Count(), 2u);
}

TEST(WahBitVectorTest, CompressExactly31Bits) {
  BitVector dense(31);
  dense.Set(0);
  dense.Set(30);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_EQ(wah.size(), 31u);
  EXPECT_TRUE(wah.Decompress() == dense);
}

TEST(WahBitVectorTest, CompressAllZerosIsTiny) {
  BitVector dense(31 * 1000);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_EQ(wah.SizeInBytes(), 4u);  // a single fill word
  EXPECT_EQ(wah.Count(), 0u);
}

TEST(WahBitVectorTest, CompressAllOnesIsTiny) {
  BitVector dense(31 * 1000, true);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_EQ(wah.SizeInBytes(), 4u);
  EXPECT_EQ(wah.Count(), 31u * 1000);
}

TEST(WahBitVectorTest, GetMatchesDecompress) {
  WahBitVector wah;
  wah.AppendRun(false, 100);
  wah.AppendRun(true, 50);
  wah.AppendBit(false);
  wah.AppendBit(true);
  const BitVector dense = wah.Decompress();
  for (uint64_t i = 0; i < wah.size(); ++i) {
    EXPECT_EQ(wah.Get(i), dense.Get(i)) << i;
  }
}

TEST(WahBitVectorTest, CountOverMixedContent) {
  WahBitVector wah;
  wah.AppendRun(true, 62);    // two 1-fill groups
  wah.AppendBit(true);
  wah.AppendBit(false);
  wah.AppendRun(false, 93);   // fills + partial
  EXPECT_EQ(wah.Count(), 63u);
}

TEST(WahBitVectorTest, AndBasic) {
  WahBitVector a;
  WahBitVector b;
  for (int i = 0; i < 200; ++i) {
    a.AppendBit(i % 2 == 0);
    b.AppendBit(i % 3 == 0);
  }
  const WahBitVector c = a.And(b);
  EXPECT_EQ(c.size(), 200u);
  const BitVector dense = c.Decompress();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(dense.Get(i), i % 6 == 0) << i;
  }
}

TEST(WahBitVectorTest, OrOfComplementaryFills) {
  WahBitVector a;
  a.AppendRun(true, 310);
  a.AppendRun(false, 310);
  WahBitVector b;
  b.AppendRun(false, 310);
  b.AppendRun(true, 310);
  const WahBitVector c = a.Or(b);
  EXPECT_EQ(c.Count(), 620u);
  EXPECT_LE(c.SizeInBytes(), 8u);  // merges back into one fill
}

TEST(WahBitVectorTest, XorSelfIsZero) {
  WahBitVector a;
  for (int i = 0; i < 500; ++i) a.AppendBit(i % 5 == 0);
  const WahBitVector z = a.Xor(a);
  EXPECT_EQ(z.Count(), 0u);
  EXPECT_EQ(z.size(), 500u);
}

TEST(WahBitVectorTest, AndNot) {
  WahBitVector a = WahBitVector::Fill(100, true);
  WahBitVector b;
  for (int i = 0; i < 100; ++i) b.AppendBit(i < 40);
  const WahBitVector c = a.AndNot(b);
  EXPECT_EQ(c.Count(), 60u);
  EXPECT_FALSE(c.Get(0));
  EXPECT_TRUE(c.Get(99));
}

TEST(WahBitVectorTest, NotInvolution) {
  WahBitVector a;
  for (int i = 0; i < 137; ++i) a.AppendBit(i % 11 == 0);
  EXPECT_TRUE(a.Not().Not() == a);
  EXPECT_EQ(a.Not().Count(), 137u - a.Count());
}

TEST(WahBitVectorTest, NotOnFills) {
  const WahBitVector zeros = WahBitVector::Fill(310, false);
  const WahBitVector inverted = zeros.Not();
  EXPECT_EQ(inverted.Count(), 310u);
  EXPECT_LE(inverted.SizeInBytes(), 4u);
}

TEST(WahBitVectorTest, CompressionRatioOfSparseVector) {
  // Paper §4.2: a 1,000,000-bit column with ~1% density compresses to
  // roughly 0.47 of its verbatim size under WAH.
  BitVector dense(1000000);
  for (uint64_t i = 0; i < 1000000; i += 100) dense.Set(i);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_TRUE(wah.Decompress() == dense);
  EXPECT_GT(wah.CompressionRatio(), 0.3);
  EXPECT_LT(wah.CompressionRatio(), 0.7);
}

TEST(WahBitVectorTest, CompressionRatioOfRandomVectorNearOne) {
  // Incompressible content costs 32/31 of verbatim (~1.03), matching the
  // paper's observation that BRE bitmaps "do not compress at all".
  BitVector dense(31 * 1000);
  for (uint64_t i = 0; i < dense.size(); i += 2) dense.Set(i);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_NEAR(wah.CompressionRatio(), 32.0 / 31.0, 0.01);
}

TEST(WahBitVectorTest, EqualityOperator) {
  WahBitVector a;
  WahBitVector b;
  for (int i = 0; i < 100; ++i) {
    a.AppendBit(i % 2 == 0);
    b.AppendBit(i % 2 == 0);
  }
  EXPECT_TRUE(a == b);
  b.AppendBit(true);
  EXPECT_FALSE(a == b);
}

TEST(WahBitVectorTest, OpsOnNonAlignedSizes) {
  // Sizes that are not multiples of 31 exercise the active-word path.
  for (uint64_t n : {1u, 30u, 32u, 62u, 63u, 100u}) {
    WahBitVector a;
    WahBitVector b;
    for (uint64_t i = 0; i < n; ++i) {
      a.AppendBit(i % 2 == 0);
      b.AppendBit(i % 3 == 0);
    }
    const BitVector expected = And(a.Decompress(), b.Decompress());
    EXPECT_TRUE(a.And(b).Decompress() == expected) << "n=" << n;
  }
}

TEST(WahBitVectorTest, VeryLongFillRuns) {
  // Exceeds one fill word's 2^30-group capacity handling path in EmitFill.
  WahBitVector wah;
  const uint64_t big = (uint64_t{1} << 31) * 31 / 16;  // ~4.1e9 bits
  wah.AppendRun(false, big);
  EXPECT_EQ(wah.size(), big);
  EXPECT_EQ(wah.Count(), 0u);
}

TEST(WahBitVectorTest, DebugStringShapes) {
  WahBitVector wah;
  wah.AppendRun(false, 62);
  wah.AppendBit(true);
  const std::string debug = wah.DebugString();
  EXPECT_NE(debug.find("F0x2"), std::string::npos);
  EXPECT_NE(debug.find("A:"), std::string::npos);
}

}  // namespace
}  // namespace incdb
