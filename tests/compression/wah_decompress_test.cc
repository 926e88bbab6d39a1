// Word-level Decompress property test: for owned and borrowed (mmap-style)
// vectors and sizes around every group and 64-bit word boundary, Decompress
// must agree bit for bit with ForEachSetBit and Get — including the all-zeros / all-ones fills it writes as word ranges
// and the partial trailing group.

#include <gtest/gtest.h>

#include <vector>

#include "bitvector/bitvector.h"
#include "common/rng.h"
#include "compression/wah_bitvector.h"

namespace incdb {
namespace {

// Runs of random length and bit, each run either constant (fill material)
// or bits drawn at `density` (literal material).
BitVector MixedRuns(Rng& rng, uint64_t n, double density) {
  BitVector bits(n);
  uint64_t i = 0;
  while (i < n) {
    const uint64_t run = 1 + static_cast<uint64_t>(rng.UniformInt(0, 400));
    const int kind = static_cast<int>(rng.UniformInt(0, 2));
    for (uint64_t j = 0; j < run && i < n; ++j, ++i) {
      const bool bit = kind == 0 ? false
                       : kind == 1 ? true
                                   : rng.Bernoulli(density);
      if (bit) bits.Set(i);
    }
  }
  return bits;
}

void ExpectDecompressAgrees(const WahBitVector& wah, const BitVector& source,
                            Rng& rng) {
  const BitVector out = wah.Decompress();
  ASSERT_EQ(out.size(), wah.size());
  EXPECT_EQ(out, source);

  std::vector<uint64_t> from_iteration;
  wah.ForEachSetBit([&](uint64_t i) { from_iteration.push_back(i); });
  std::vector<uint64_t> from_decompress;
  out.ForEachSetBit([&](uint64_t i) { from_decompress.push_back(i); });
  EXPECT_EQ(from_decompress, from_iteration);

  // Get is O(words) per call: probe every position of small vectors, the
  // group / word boundaries and a random sample of large ones.
  std::vector<uint64_t> probes;
  if (wah.size() <= 256) {
    for (uint64_t i = 0; i < wah.size(); ++i) probes.push_back(i);
  } else {
    for (uint64_t i : {uint64_t{0}, uint64_t{30}, uint64_t{31}, uint64_t{62},
                       uint64_t{63}, uint64_t{64}, wah.size() - 1}) {
      probes.push_back(i);
    }
    for (int k = 0; k < 64; ++k) {
      probes.push_back(static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(wah.size()) - 1)));
    }
  }
  for (uint64_t i : probes) {
    EXPECT_EQ(out.Get(i), wah.Get(i)) << "bit " << i;
  }
}

TEST(WahDecompressTest, MatchesForEachSetBitAndGet) {
  Rng rng(17);
  const uint64_t sizes[] = {0, 1, 30, 31, 32, 62, 63, 64, 2000000 + 7};
  for (uint64_t n : sizes) {
    std::vector<BitVector> sources = {BitVector(n, false), BitVector(n, true),
                                      MixedRuns(rng, n, 0.5),
                                      MixedRuns(rng, n, 0.02)};
    for (const BitVector& source : sources) {
      SCOPED_TRACE("size " + std::to_string(n));
      const WahBitVector owned = WahBitVector::Compress(source);
      ExpectDecompressAgrees(owned, source, rng);

      // The same code words viewed in place, as the storage engine's mmap
      // open path hands them out.
      const auto borrowed =
          WahBitVector::FromBorrowed(owned.code_words(), owned.active_word(),
                            owned.active_bits(), owned.size());
      ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
      // (Vectors shorter than one group have no code words to borrow.)
      if (n >= static_cast<uint64_t>(WahBitVector::kGroupBits)) {
        ASSERT_TRUE(borrowed->borrowed());
      }
      ExpectDecompressAgrees(borrowed.value(), source, rng);
    }
  }
}

}  // namespace
}  // namespace incdb
