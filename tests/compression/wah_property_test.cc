// Property tests: the WAH-compressed operations must agree exactly with the
// verbatim BitVector operations for every density/size combination
// (DESIGN.md invariant 2).

#include <gtest/gtest.h>

#include "bitvector/bitvector.h"
#include "common/rng.h"
#include "compression/wah_bitvector.h"

namespace incdb {
namespace {

struct WahPropertyCase {
  uint64_t size;
  double density_a;
  double density_b;
};

class WahPropertyTest : public ::testing::TestWithParam<WahPropertyCase> {};

BitVector RandomBits(Rng& rng, uint64_t n, double density) {
  BitVector bits(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) bits.Set(i);
  }
  return bits;
}

// Clustered bitmaps exercise long fills interleaved with literals.
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

TEST_P(WahPropertyTest, RoundTripIdentity) {
  const WahPropertyCase& param = GetParam();
  Rng rng(param.size * 31 + 1);
  for (int trial = 0; trial < 3; ++trial) {
    const BitVector dense = RandomBits(rng, param.size, param.density_a);
    EXPECT_TRUE(WahBitVector::Compress(dense).Decompress() == dense);
    const BitVector runs = RandomRuns(rng, param.size, param.density_a);
    EXPECT_TRUE(WahBitVector::Compress(runs).Decompress() == runs);
  }
}

TEST_P(WahPropertyTest, OpsMatchVerbatim) {
  const WahPropertyCase& param = GetParam();
  Rng rng(param.size * 7 + 13);
  for (int trial = 0; trial < 3; ++trial) {
    const BitVector a = trial % 2 == 0
                            ? RandomBits(rng, param.size, param.density_a)
                            : RandomRuns(rng, param.size, param.density_a);
    const BitVector b = trial % 2 == 0
                            ? RandomRuns(rng, param.size, param.density_b)
                            : RandomBits(rng, param.size, param.density_b);
    const WahBitVector wa = WahBitVector::Compress(a);
    const WahBitVector wb = WahBitVector::Compress(b);
    EXPECT_TRUE(wa.And(wb).Decompress() == And(a, b));
    EXPECT_TRUE(wa.Or(wb).Decompress() == Or(a, b));
    EXPECT_TRUE(wa.Xor(wb).Decompress() == Xor(a, b));
    EXPECT_TRUE(wa.AndNot(wb).Decompress() == And(a, Not(b)));
    EXPECT_TRUE(wa.Not().Decompress() == Not(a));
  }
}

TEST_P(WahPropertyTest, CountMatchesVerbatim) {
  const WahPropertyCase& param = GetParam();
  Rng rng(param.size + 1000003);
  const BitVector a = RandomRuns(rng, param.size, param.density_a);
  EXPECT_EQ(WahBitVector::Compress(a).Count(), a.Count());
}

TEST_P(WahPropertyTest, OpsPreserveCompression) {
  // The result of a compressed op must itself be canonically compressed:
  // re-compressing its decompressed form may not be smaller.
  const WahPropertyCase& param = GetParam();
  Rng rng(param.size + 77);
  const BitVector a = RandomRuns(rng, param.size, param.density_a);
  const BitVector b = RandomRuns(rng, param.size, param.density_b);
  const WahBitVector result =
      WahBitVector::Compress(a).Or(WahBitVector::Compress(b));
  const WahBitVector recompressed = WahBitVector::Compress(result.Decompress());
  EXPECT_EQ(result.SizeInBytes(), recompressed.SizeInBytes());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WahPropertyTest,
    ::testing::Values(
        WahPropertyCase{1, 0.5, 0.5}, WahPropertyCase{30, 0.1, 0.9},
        WahPropertyCase{31, 0.5, 0.5}, WahPropertyCase{32, 0.0, 1.0},
        WahPropertyCase{62, 0.01, 0.99}, WahPropertyCase{63, 0.3, 0.7},
        WahPropertyCase{100, 0.05, 0.5}, WahPropertyCase{961, 0.001, 0.999},
        WahPropertyCase{1000, 0.02, 0.02}, WahPropertyCase{4096, 0.5, 0.5},
        WahPropertyCase{10000, 0.001, 0.01},
        WahPropertyCase{100000, 0.1, 0.0}, WahPropertyCase{0, 1.0, 0.0},
        WahPropertyCase{64, 1.0, 0.005}, WahPropertyCase{127, 0.005, 1.0},
        WahPropertyCase{50000, 0.005, 0.5}));

}  // namespace
}  // namespace incdb
