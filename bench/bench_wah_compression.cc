// Reproduces the paper's §4.2 compression claims and the WAH-vs-BBC
// trade-off that motivated choosing WAH (§4.4):
//   * a 1,000,000-bit missing bitmap at ~1% density compresses to ≈ 0.47
//     of its verbatim size under WAH;
//   * BBC compresses better than WAH, but WAH logical operations are much
//     faster (the paper cites 2-20x from [16]).
//
// Output: compression ratios across bit densities for WAH and BBC, then
// AND-operation timings over the compressed forms.

#include <cstdio>

#include "bench/bench_common.h"
#include "bitvector/bitvector.h"
#include "common/rng.h"
#include "common/timer.h"
#include "compression/wah_bitvector.h"
#include "repro/bbc_bitvector.h"

namespace incdb {
namespace {

BitVector RandomBits(Rng& rng, uint64_t n, double density) {
  BitVector bits(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) bits.Set(i);
  }
  return bits;
}

int Main() {
  const uint64_t bits = bench::BenchRows(1000000);
  Rng rng(42);

  std::printf("# WAH vs BBC compression ratio by bit density "
              "(%llu-bit bitmaps; paper §4.2: ~0.47 for WAH at 1%%)\n",
              static_cast<unsigned long long>(bits));
  bench::PrintHeader({"density_pct", "wah_ratio", "bbc_ratio",
                      "wah_bytes", "bbc_bytes"});
  for (double density : {0.0001, 0.001, 0.01, 0.05, 0.1, 0.3, 0.5}) {
    const BitVector dense = RandomBits(rng, bits, density);
    const WahBitVector wah = WahBitVector::Compress(dense);
    const BbcBitVector bbc = BbcBitVector::Compress(dense);
    bench::PrintRow({bench::FormatDouble(density * 100.0, 2),
                     bench::FormatDouble(wah.CompressionRatio(), 3),
                     bench::FormatDouble(bbc.CompressionRatio(), 3),
                     std::to_string(wah.SizeInBytes()),
                     std::to_string(bbc.SizeInBytes())});
  }

  std::printf("\n# Logical AND over the compressed form, 100 ops "
              "(paper §4.4: WAH ops 2-20x faster than BBC)\n");
  bench::PrintHeader({"density_pct", "wah_ms", "bbc_ms", "bbc_over_wah"});
  for (double density : {0.001, 0.01, 0.1}) {
    const BitVector a = RandomBits(rng, bits, density);
    const BitVector b = RandomBits(rng, bits, density);
    const WahBitVector wah_a = WahBitVector::Compress(a);
    const WahBitVector wah_b = WahBitVector::Compress(b);
    const BbcBitVector bbc_a = BbcBitVector::Compress(a);
    const BbcBitVector bbc_b = BbcBitVector::Compress(b);

    Timer wah_timer;
    uint64_t checksum = 0;
    for (int i = 0; i < 100; ++i) checksum += wah_a.And(wah_b).Count();
    const double wah_ms = wah_timer.ElapsedMillis();

    Timer bbc_timer;
    for (int i = 0; i < 100; ++i) checksum += bbc_a.And(bbc_b).SizeInBytes();
    const double bbc_ms = bbc_timer.ElapsedMillis();

    bench::PrintRow({bench::FormatDouble(density * 100.0, 2),
                     bench::FormatDouble(wah_ms, 2),
                     bench::FormatDouble(bbc_ms, 2),
                     bench::FormatDouble(bbc_ms / wah_ms, 1)});
    if (checksum == 0xDEAD) std::printf("#\n");  // defeat dead-code elim
  }
  return 0;
}

}  // namespace
}  // namespace incdb

int main() { return incdb::Main(); }
