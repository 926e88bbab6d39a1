#include "repro/bbc_bitvector.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compression/wah_bitvector.h"

namespace incdb {
namespace {

BitVector RandomRuns(Rng& rng, uint64_t n, double density) {
  BitVector bits(n);
  uint64_t i = 0;
  while (i < n) {
    const bool bit = rng.Bernoulli(density);
    const uint64_t run = 1 + static_cast<uint64_t>(rng.UniformInt(0, 120));
    for (uint64_t j = 0; j < run && i < n; ++j, ++i) {
      if (bit) bits.Set(i);
    }
  }
  return bits;
}

TEST(BbcBitVectorTest, EmptyRoundTrip) {
  const BbcBitVector bbc = BbcBitVector::Compress(BitVector());
  EXPECT_EQ(bbc.size(), 0u);
  EXPECT_TRUE(bbc.Decompress() == BitVector());
}

TEST(BbcBitVectorTest, SmallRoundTrip) {
  const BitVector dense = BitVector::FromString("0001000010").value();
  const BbcBitVector bbc = BbcBitVector::Compress(dense);
  EXPECT_TRUE(bbc.Decompress() == dense);
}

TEST(BbcBitVectorTest, AllZerosCompressesToAlmostNothing) {
  BitVector dense(1000000);
  const BbcBitVector bbc = BbcBitVector::Compress(dense);
  EXPECT_TRUE(bbc.Decompress() == dense);
  EXPECT_LT(bbc.SizeInBytes(), 16u);
}

TEST(BbcBitVectorTest, AllOnesCompressesToAlmostNothing) {
  BitVector dense(1000000, true);
  const BbcBitVector bbc = BbcBitVector::Compress(dense);
  EXPECT_TRUE(bbc.Decompress() == dense);
  EXPECT_LT(bbc.SizeInBytes(), 16u);
}

TEST(BbcBitVectorTest, RoundTripRandomSizes) {
  Rng rng(5);
  for (uint64_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u, 10001u}) {
    for (double density : {0.01, 0.5, 0.99}) {
      BitVector dense(n);
      for (uint64_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(density)) dense.Set(i);
      }
      const BbcBitVector bbc = BbcBitVector::Compress(dense);
      EXPECT_TRUE(bbc.Decompress() == dense) << "n=" << n << " d=" << density;
      EXPECT_EQ(bbc.size(), n);
    }
  }
}

TEST(BbcBitVectorTest, LogicalOpsMatchVerbatim) {
  Rng rng(17);
  for (uint64_t n : {1u, 7u, 8u, 9u, 100u, 5000u}) {
    for (auto [da, db] : {std::pair{0.2, 0.8}, std::pair{0.01, 0.99},
                          std::pair{0.5, 0.5}}) {
      const BitVector a = RandomRuns(rng, n, da);
      const BitVector b = RandomRuns(rng, n, db);
      const BbcBitVector ba = BbcBitVector::Compress(a);
      const BbcBitVector bb = BbcBitVector::Compress(b);
      EXPECT_TRUE(ba.And(bb).Decompress() == And(a, b)) << n;
      EXPECT_TRUE(ba.Or(bb).Decompress() == Or(a, b)) << n;
      EXPECT_TRUE(ba.Xor(bb).Decompress() == Xor(a, b)) << n;
    }
  }
}

TEST(BbcBitVectorTest, OpResultsAreCanonicallyCompressed) {
  // The run-merging ops must produce output no larger than re-compressing
  // their decompressed result from scratch.
  Rng rng(19);
  const uint64_t n = 20000;
  const BitVector a = RandomRuns(rng, n, 0.1);
  const BitVector b = RandomRuns(rng, n, 0.9);
  const BbcBitVector result =
      BbcBitVector::Compress(a).Or(BbcBitVector::Compress(b));
  const BbcBitVector recompressed = BbcBitVector::Compress(result.Decompress());
  EXPECT_LE(result.SizeInBytes(), recompressed.SizeInBytes() + 8);
}

TEST(BbcBitVectorTest, CompressesSparseRunsBetterThanWah) {
  // The paper picked WAH over BBC *despite* BBC's better compression; byte
  // granularity beats 31-bit granularity on short scattered runs.
  Rng rng(23);
  BitVector dense(31 * 10000);
  for (uint64_t i = 0; i < dense.size(); i += 97) dense.Set(i);
  const BbcBitVector bbc = BbcBitVector::Compress(dense);
  const WahBitVector wah = WahBitVector::Compress(dense);
  EXPECT_LT(bbc.SizeInBytes(), wah.SizeInBytes());
}

TEST(BbcBitVectorTest, LongLiteralStretchSplitsBlocks) {
  // More than 7 consecutive literal bytes forces multiple blocks.
  BitVector dense(8 * 20);
  for (uint64_t i = 0; i < dense.size(); i += 2) dense.Set(i);
  const BbcBitVector bbc = BbcBitVector::Compress(dense);
  EXPECT_TRUE(bbc.Decompress() == dense);
}

TEST(BbcBitVectorTest, ExtendedFillLength) {
  // A fill longer than 14 bytes uses the varint extension path.
  BitVector dense(8 * 1000);
  dense.Set(dense.size() - 1);
  const BbcBitVector bbc = BbcBitVector::Compress(dense);
  EXPECT_TRUE(bbc.Decompress() == dense);
}

}  // namespace
}  // namespace incdb
