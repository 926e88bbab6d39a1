// SIMD-vs-scalar bit-identity for the windowed hybrid fusion engine: the
// fused WAH kernels must produce identical bits AND the identical canonical
// compressed form under every dispatch level the CPU supports and every
// dense-block threshold — always-dense (0.0), the production default, and
// never-dense (>1, the pure compressed-form engine) — across negated
// operands and density mixes. Also pins down WahOpStats accounting.

#include <gtest/gtest.h>

#include <vector>

#include "bitvector/bitvector.h"
#include "common/rng.h"
#include "compression/wah_bitvector.h"
#include "simd/simd.h"

namespace incdb {
namespace {

// Restores dispatch level and dense threshold on scope exit so test order
// cannot leak configuration.
class ConfigGuard {
 public:
  ConfigGuard()
      : level_(simd::ActiveLevel()),
        threshold_(wah_internal::DenseBlockThreshold()) {}
  ~ConfigGuard() {
    simd::ForceLevelForTesting(level_);
    wah_internal::SetDenseBlockThresholdForTesting(threshold_);
  }

 private:
  simd::Level level_;
  double threshold_;
};

std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::DetectedLevel() >= simd::Level::kSse2) {
    levels.push_back(simd::Level::kSse2);
  }
  if (simd::DetectedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

BitVector RandomBits(Rng& rng, uint64_t n, double density) {
  BitVector bits(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) bits.Set(i);
  }
  return bits;
}

BitVector RandomRuns(Rng& rng, uint64_t n, double density) {
  BitVector bits(n);
  uint64_t i = 0;
  bool bit = rng.Bernoulli(density);
  while (i < n) {
    const uint64_t run = 1 + static_cast<uint64_t>(rng.UniformInt(0, 300));
    for (uint64_t j = 0; j < run && i < n; ++j, ++i) {
      if (bit) bits.Set(i);
    }
    bit = rng.Bernoulli(density);
  }
  return bits;
}

// Mixed operand set: dense uniform words (literal-heavy), clustered runs
// (fill-heavy) and extremes, so a single fusion crosses dense and sparse
// windows in one walk.
std::vector<BitVector> MakeOperands(Rng& rng, size_t k, uint64_t n) {
  const double densities[] = {0.5, 0.001, 0.35, 0.999, 0.02, 0.0, 1.0, 0.6};
  std::vector<BitVector> plain;
  plain.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    const double d = densities[i % (sizeof(densities) / sizeof(double))];
    plain.push_back(i % 2 == 0 ? RandomBits(rng, n, d)
                               : RandomRuns(rng, n, d));
  }
  return plain;
}

// The engine configurations under test: never-dense is the pure
// compressed-form engine, always-dense pushes every window through the
// SIMD decode path, and the default exercises the mixed regime.
const double kThresholds[] = {2.0, 0.0, -1.0};  // -1 sentinel: default

TEST(WahSimdTest, HybridEngineIsBitIdenticalAcrossLevelsAndThresholds) {
  ConfigGuard guard;
  const double default_threshold = wah_internal::DenseBlockThreshold();
  for (uint64_t n : {63u, 977u, 70000u, 200001u}) {
    for (size_t k : {3u, 5u, 9u}) {
      Rng rng(n * 17 + k);
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
      for (size_t i = 1; i < k; ++i) {
        or_oracle.OrWith(plain[i]);
        and_oracle.AndWith(plain[i]);
      }

      // Reference run: pure compressed-form engine, scalar kernels.
      simd::ForceLevelForTesting(simd::Level::kScalar);
      wah_internal::SetDenseBlockThresholdForTesting(2.0);
      const WahBitVector or_ref = WahBitVector::OrMany(ops);
      const WahBitVector and_ref = WahBitVector::AndMany(ops);
      ASSERT_TRUE(or_ref.Decompress() == or_oracle) << "n=" << n << " k=" << k;
      ASSERT_TRUE(and_ref.Decompress() == and_oracle)
          << "n=" << n << " k=" << k;

      for (simd::Level level : AvailableLevels()) {
        for (double threshold : kThresholds) {
          simd::ForceLevelForTesting(level);
          wah_internal::SetDenseBlockThresholdForTesting(
              threshold < 0 ? default_threshold : threshold);
          const WahBitVector or_many = WahBitVector::OrMany(ops);
          const WahBitVector and_many = WahBitVector::AndMany(ops);
          // Identical bits AND identical canonical compressed form.
          EXPECT_TRUE(or_many.Decompress() == or_oracle)
              << "n=" << n << " k=" << k << " t=" << threshold
              << " level=" << simd::LevelToString(level);
          EXPECT_TRUE(and_many.Decompress() == and_oracle)
              << "n=" << n << " k=" << k << " t=" << threshold
              << " level=" << simd::LevelToString(level);
          EXPECT_EQ(or_many.SizeInBytes(), or_ref.SizeInBytes());
          EXPECT_EQ(and_many.SizeInBytes(), and_ref.SizeInBytes());
          EXPECT_EQ(WahBitVector::OrManyCount(ops), or_oracle.Count());
          EXPECT_EQ(WahBitVector::AndManyCount(ops), and_oracle.Count());
        }
      }
    }
  }
}

TEST(WahSimdTest, NegatedOperandsAcrossLevelsAndThresholds) {
  ConfigGuard guard;
  for (uint64_t n : {977u, 70000u}) {
    Rng rng(n + 3);
    const std::vector<BitVector> plain = MakeOperands(rng, 6, n);
    std::vector<WahBitVector> compressed;
    for (const BitVector& b : plain) {
      compressed.push_back(WahBitVector::Compress(b));
    }

    std::vector<WahBitVector::Operand> ops;
    BitVector and_oracle(n, true);
    for (size_t i = 0; i < plain.size(); ++i) {
      const bool negate = i % 2 == 1;
      ops.push_back({&compressed[i], negate});
      and_oracle.AndWith(negate ? Not(plain[i]) : plain[i]);
    }
    const std::span<const WahBitVector::Operand> span(ops.data(), ops.size());

    for (simd::Level level : AvailableLevels()) {
      for (double threshold : {2.0, 0.0}) {
        simd::ForceLevelForTesting(level);
        wah_internal::SetDenseBlockThresholdForTesting(threshold);
        EXPECT_TRUE(WahBitVector::AndMany(span).Decompress() == and_oracle)
            << "n=" << n << " t=" << threshold
            << " level=" << simd::LevelToString(level);
        EXPECT_EQ(WahBitVector::AndManyCount(span), and_oracle.Count());
      }
    }
  }
}

TEST(WahSimdTest, AllNegatedOperands) {
  // No non-negated lead operand: the dense path must seed the accumulator
  // with the op identity and fold every operand through the NOT kernels.
  ConfigGuard guard;
  const uint64_t n = 70000;
  Rng rng(11);
  const std::vector<BitVector> plain = MakeOperands(rng, 4, n);
  std::vector<WahBitVector> compressed;
  for (const BitVector& b : plain) {
    compressed.push_back(WahBitVector::Compress(b));
  }
  std::vector<WahBitVector::Operand> ops;
  BitVector oracle(n, true);
  for (size_t i = 0; i < plain.size(); ++i) {
    ops.push_back({&compressed[i], true});
    oracle.AndWith(Not(plain[i]));
  }
  const std::span<const WahBitVector::Operand> span(ops.data(), ops.size());
  for (double threshold : {2.0, 0.0}) {
    wah_internal::SetDenseBlockThresholdForTesting(threshold);
    EXPECT_TRUE(WahBitVector::AndMany(span).Decompress() == oracle)
        << threshold;
    EXPECT_EQ(WahBitVector::AndManyCount(span), oracle.Count()) << threshold;
  }
}

TEST(WahSimdTest, OpStatsCountDenseWindows) {
  ConfigGuard guard;
  const double default_threshold = wah_internal::DenseBlockThreshold();
  const uint64_t n = 200000;
  const size_t k = 4;
  Rng rng(5);
  std::vector<WahBitVector> compressed;
  std::vector<const WahBitVector*> ptrs;
  for (size_t i = 0; i < k; ++i) {
    compressed.push_back(WahBitVector::Compress(RandomBits(rng, n, 0.5)));
  }
  for (const WahBitVector& v : compressed) ptrs.push_back(&v);
  const std::span<const WahBitVector* const> ops(ptrs.data(), ptrs.size());

  // Never-dense: zero dense windows, nothing decoded.
  wah_internal::SetDenseBlockThresholdForTesting(2.0);
  WahOpStats sparse_stats;
  WahBitVector::OrManyCount(ops, &sparse_stats);
  EXPECT_EQ(sparse_stats.dense_windows, 0u);
  EXPECT_EQ(sparse_stats.words_decoded, 0u);

  // 50%-density uniform operands are literal-saturated: under the default
  // threshold every window of every fused kernel goes dense, and decode
  // traffic is exactly k words per group.
  ASSERT_GT(default_threshold, 0.0);
  ASSERT_LT(default_threshold, 1.0);  // the production default enables it
  wah_internal::SetDenseBlockThresholdForTesting(default_threshold);
  WahOpStats dense_stats;
  const uint64_t count = WahBitVector::OrManyCount(ops, &dense_stats);
  EXPECT_GT(dense_stats.dense_windows, 0u);
  const uint64_t group_bits = WahBitVector::kGroupBits;
  EXPECT_EQ(dense_stats.words_decoded, (n / group_bits) * k);

  // Stats merge and aggregate across kernels.
  WahOpStats merged = sparse_stats;
  merged.MergeFrom(dense_stats);
  EXPECT_EQ(merged.dense_windows, dense_stats.dense_windows);
  WahBitVector::AndMany(ops, &merged);
  EXPECT_GT(merged.dense_windows, dense_stats.dense_windows);

  // And the counters never change results.
  EXPECT_EQ(count, WahBitVector::OrManyCount(ops));
}

}  // namespace
}  // namespace incdb
