// Property tests for the fused multi-operand WAH kernels: OrMany / AndMany
// and the count-only variants must be bit-identical to the pairwise fold
// they replace and to the verbatim BitVector oracle, for every operand
// count and density mix (DESIGN.md invariant 2 extended to the k-way
// kernels).

#include <gtest/gtest.h>

#include <vector>

#include "bitvector/bitvector.h"
#include "common/rng.h"
#include "compression/wah_bitvector.h"

namespace incdb {
namespace {

BitVector RandomBits(Rng& rng, uint64_t n, double density) {
  BitVector bits(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) bits.Set(i);
  }
  return bits;
}

// Clustered bitmaps exercise the fill fast paths.
BitVector RandomRuns(Rng& rng, uint64_t n, double density) {
  BitVector bits(n);
  uint64_t i = 0;
  bool bit = rng.Bernoulli(density);
  while (i < n) {
    const uint64_t run = 1 + static_cast<uint64_t>(rng.UniformInt(0, 80));
    for (uint64_t j = 0; j < run && i < n; ++j, ++i) {
      if (bit) bits.Set(i);
    }
    bit = rng.Bernoulli(density);
  }
  return bits;
}

// One mixed-density operand set: alternating uniform/clustered, with a few
// extreme densities thrown in so some operands are pure fills.
std::vector<BitVector> MakeOperands(Rng& rng, size_t k, uint64_t n) {
  const double densities[] = {0.001, 0.5, 0.02, 0.999, 0.1, 0.0, 1.0, 0.25};
  std::vector<BitVector> plain;
  plain.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    const double d = densities[i % (sizeof(densities) / sizeof(double))];
    plain.push_back(i % 2 == 0 ? RandomRuns(rng, n, d)
                               : RandomBits(rng, n, d));
  }
  return plain;
}

TEST(WahMultiwayTest, MatchesPairwiseFoldAndOracle) {
  for (uint64_t n : {1u, 31u, 63u, 64u, 100u, 977u, 10000u}) {
    for (size_t k : {1u, 2u, 3u, 5u, 8u, 16u}) {
      Rng rng(n * 131 + k);
      const std::vector<BitVector> plain = MakeOperands(rng, k, n);
      std::vector<WahBitVector> compressed;
      std::vector<const WahBitVector*> ptrs;
      for (const BitVector& b : plain) {
        compressed.push_back(WahBitVector::Compress(b));
      }
      for (const WahBitVector& v : compressed) ptrs.push_back(&v);
      const std::span<const WahBitVector* const> ops(ptrs.data(), ptrs.size());

      BitVector or_oracle = plain[0];
      BitVector and_oracle = plain[0];
      WahBitVector or_fold = compressed[0];
      WahBitVector and_fold = compressed[0];
      for (size_t i = 1; i < k; ++i) {
        or_oracle.OrWith(plain[i]);
        and_oracle.AndWith(plain[i]);
        or_fold = or_fold.Or(compressed[i]);
        and_fold = and_fold.And(compressed[i]);
      }

      const WahBitVector or_many = WahBitVector::OrMany(ops);
      const WahBitVector and_many = WahBitVector::AndMany(ops);
      EXPECT_TRUE(or_many.Decompress() == or_oracle) << "n=" << n << " k=" << k;
      EXPECT_TRUE(and_many.Decompress() == and_oracle)
          << "n=" << n << " k=" << k;
      // Identical canonical compressed form, not just identical bits.
      EXPECT_EQ(or_many.SizeInBytes(), or_fold.SizeInBytes());
      EXPECT_EQ(and_many.SizeInBytes(), and_fold.SizeInBytes());

      EXPECT_EQ(WahBitVector::OrManyCount(ops), or_oracle.Count());
      EXPECT_EQ(WahBitVector::AndManyCount(ops), and_oracle.Count());
      EXPECT_EQ(WahBitVector::AndCount(compressed[0], compressed[k - 1]),
                And(plain[0], plain[k - 1]).Count());
    }
  }
}

TEST(WahMultiwayTest, NegatedOperandsMatchExplicitNot) {
  for (uint64_t n : {31u, 100u, 4096u}) {
    Rng rng(n + 7);
    const std::vector<BitVector> plain = MakeOperands(rng, 5, n);
    std::vector<WahBitVector> compressed;
    for (const BitVector& b : plain) {
      compressed.push_back(WahBitVector::Compress(b));
    }

    std::vector<WahBitVector::Operand> ops;
    BitVector oracle(n, true);
    for (size_t i = 0; i < plain.size(); ++i) {
      const bool negate = i % 2 == 1;
      ops.push_back({&compressed[i], negate});
      oracle.AndWith(negate ? Not(plain[i]) : plain[i]);
    }
    const std::span<const WahBitVector::Operand> span(ops.data(), ops.size());
    EXPECT_TRUE(WahBitVector::AndMany(span).Decompress() == oracle)
        << "n=" << n;
    EXPECT_EQ(WahBitVector::AndManyCount(span), oracle.Count());
  }
}

TEST(WahMultiwayTest, PureFillOperands) {
  const uint64_t n = 1000;
  const WahBitVector zeros = WahBitVector::Fill(n, false);
  const WahBitVector ones = WahBitVector::Fill(n, true);
  const std::vector<const WahBitVector*> mixed = {&zeros, &ones, &zeros};
  const std::span<const WahBitVector* const> ops(mixed.data(), mixed.size());
  EXPECT_EQ(WahBitVector::OrMany(ops).Count(), n);
  EXPECT_EQ(WahBitVector::AndMany(ops).Count(), 0u);
  EXPECT_EQ(WahBitVector::OrManyCount(ops), n);
  EXPECT_EQ(WahBitVector::AndManyCount(ops), 0u);

  const std::vector<const WahBitVector*> all_zero = {&zeros, &zeros};
  const std::span<const WahBitVector* const> zero_ops(all_zero.data(),
                                                      all_zero.size());
  EXPECT_EQ(WahBitVector::OrMany(zero_ops).Count(), 0u);
}

TEST(WahMultiwayTest, SingleOperandIsACopy) {
  Rng rng(99);
  const BitVector bits = RandomRuns(rng, 500, 0.1);
  const WahBitVector v = WahBitVector::Compress(bits);
  const std::vector<const WahBitVector*> one = {&v};
  const std::span<const WahBitVector* const> ops(one.data(), one.size());
  EXPECT_TRUE(WahBitVector::OrMany(ops).Decompress() == bits);
  EXPECT_TRUE(WahBitVector::AndMany(ops).Decompress() == bits);
  EXPECT_EQ(WahBitVector::OrManyCount(ops), bits.Count());
}

using WahMultiwayDeathTest = ::testing::Test;

TEST(WahMultiwayDeathTest, EmptyOperandListAborts) {
  const std::vector<const WahBitVector*> none;
  const std::span<const WahBitVector* const> ops(none.data(), none.size());
  EXPECT_DEATH(WahBitVector::OrMany(ops), "INCDB_CHECK failed");
  EXPECT_DEATH(WahBitVector::AndManyCount(ops), "INCDB_CHECK failed");
}

TEST(WahMultiwayDeathTest, SizeMismatchAborts) {
  const WahBitVector a = WahBitVector::Fill(100, false);
  const WahBitVector b = WahBitVector::Fill(101, false);
  const std::vector<const WahBitVector*> mismatched = {&a, &b, &a};
  const std::span<const WahBitVector* const> ops(mismatched.data(),
                                                 mismatched.size());
  EXPECT_DEATH(WahBitVector::OrMany(ops), "INCDB_CHECK failed");
  EXPECT_DEATH(WahBitVector::AndMany(ops), "INCDB_CHECK failed");
  EXPECT_DEATH(WahBitVector::OrManyCount(ops), "INCDB_CHECK failed");
  EXPECT_DEATH(WahBitVector::AndCount(a, b), "INCDB_CHECK failed");
}

TEST(WahMultiwayTest, ForEachSetBitVisitsEverySetBitInOrder) {
  for (uint64_t n : {0u, 1u, 63u, 977u, 20000u}) {
    Rng rng(n + 3);
    const BitVector bits = RandomRuns(rng, n, 0.05);
    const WahBitVector v = WahBitVector::Compress(bits);
    std::vector<uint32_t> visited;
    v.ForEachSetBit(
        [&](uint64_t i) { visited.push_back(static_cast<uint32_t>(i)); });
    EXPECT_EQ(visited, bits.ToIndices()) << "n=" << n;
  }
}

}  // namespace
}  // namespace incdb
