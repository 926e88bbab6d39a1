// Compares the fused k-way WAH kernels (OrMany/AndMany and their count
// variants) against the classic pairwise fold they replace in the query
// hot path, across operand counts and bit densities.
//
// Expected shape: at 2 operands fused and pairwise are the same algorithm
// (one merge pass), so times match; as k grows the pairwise fold pays
// k-1 materializations of intermediate compressed vectors while the fused
// kernel re-compresses once and can skip whole absorbing fill runs, so the
// gap widens — on sparse clustered inputs (the regime bitmap indexes live
// in) the fused OR is well over the 1.5x acceptance bar by k = 16.
//
// Usage: bench_wah_multiway [--json <path>]
// With --json, per-configuration timings are also written as the
// machine-readable BENCH_wah_multiway.json trajectory file.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bitvector/bitvector.h"
#include "common/rng.h"
#include "common/timer.h"
#include "compression/wah_bitvector.h"

namespace incdb {
namespace {

// Accumulated so the optimizer cannot discard the timed work.
uint64_t g_sink = 0;

struct DensityConfig {
  const char* name;
  double density;    // fraction of set bits
  uint64_t run_len;  // average length of a run of set bits (1 = uniform)
};

// The sparse clustered config is the regime bitmap-index operands live in
// (sorted/low-cardinality columns: few set bits, arriving in runs).
constexpr DensityConfig kDensities[] = {
    {"clustered1pct", 0.01, 64},
    {"uniform5pct", 0.05, 1},
    {"dense50pct", 0.50, 1},
};

constexpr size_t kOperandCounts[] = {2, 4, 8, 16, 32, 64};

// Set bits arrive in geometric runs of mean `run_len`, spaced so the
// overall density is `density` — the way bits look in a bitmap over a
// clustered attribute, which is what makes WAH fills worth skipping.
BitVector ClusteredBits(uint64_t n, double density, uint64_t run_len,
                        Rng& rng) {
  BitVector bits(n);
  if (density <= 0.0) return bits;
  if (run_len <= 1) {  // uniform: independent bits
    for (uint64_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(density)) bits.Set(i);
    }
    return bits;
  }
  // P(start a run at a zero position) chosen so runs * run_len = density*n.
  const double start_p = density / (static_cast<double>(run_len) *
                                    std::max(1e-9, 1.0 - density));
  uint64_t i = 0;
  while (i < n) {
    if (rng.Bernoulli(start_p)) {
      uint64_t len = 1;
      while (len < 4 * run_len && rng.Bernoulli(1.0 - 1.0 / run_len)) ++len;
      for (uint64_t j = 0; j < len && i < n; ++j, ++i) bits.Set(i);
    } else {
      ++i;
    }
  }
  return bits;
}

template <typename Fn>
double BestMillis(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

void RunSuite(uint64_t num_bits, int reps) {
  for (const DensityConfig& dc : kDensities) {
    for (size_t k : kOperandCounts) {
      Rng rng(0x9e3779b9u ^ (k * 131) ^
              static_cast<uint64_t>(dc.density * 1e6));
      std::vector<WahBitVector> operands;
      operands.reserve(k);
      uint64_t bytes = 0;
      for (size_t i = 0; i < k; ++i) {
        operands.push_back(WahBitVector::Compress(
            ClusteredBits(num_bits, dc.density, dc.run_len, rng)));
        bytes += operands.back().SizeInBytes();
      }
      std::vector<const WahBitVector*> ptrs;
      for (const WahBitVector& v : operands) ptrs.push_back(&v);
      const std::span<const WahBitVector* const> span(ptrs.data(), ptrs.size());

      // Sanity: fused kernels must agree with the folds they replace.
      {
        WahBitVector or_fold = operands[0];
        WahBitVector and_fold = operands[0];
        for (size_t i = 1; i < k; ++i) {
          or_fold = or_fold.Or(operands[i]);
          and_fold = and_fold.And(operands[i]);
        }
        if (WahBitVector::OrMany(span).Count() != or_fold.Count() ||
            WahBitVector::AndMany(span).Count() != and_fold.Count() ||
            WahBitVector::OrManyCount(span) != or_fold.Count() ||
            WahBitVector::AndManyCount(span) != and_fold.Count()) {
          std::fprintf(stderr, "FUSED/PAIRWISE MISMATCH (%s k=%zu)\n",
                       dc.name, k);
          std::exit(1);
        }
      }

      const double or_fold_ms = BestMillis(reps, [&] {
        WahBitVector acc = operands[0];
        for (size_t i = 1; i < k; ++i) acc = acc.Or(operands[i]);
        g_sink += acc.NumWords();
      });
      const double or_many_ms = BestMillis(reps, [&] {
        g_sink += WahBitVector::OrMany(span).NumWords();
      });
      const double and_fold_ms = BestMillis(reps, [&] {
        WahBitVector acc = operands[0];
        for (size_t i = 1; i < k; ++i) acc = acc.And(operands[i]);
        g_sink += acc.NumWords();
      });
      const double and_many_ms = BestMillis(reps, [&] {
        g_sink += WahBitVector::AndMany(span).NumWords();
      });
      const double or_count_ms = BestMillis(reps, [&] {
        g_sink += WahBitVector::OrManyCount(span);
      });
      const double and_count_ms = BestMillis(reps, [&] {
        g_sink += WahBitVector::AndManyCount(span);
      });

      // "w32/" names the 32-bit code words; the committed baselines key on
      // it.
      const std::string config =
          std::string("w32/") + dc.name + "/k" + std::to_string(k);
      bench::PrintRow({config, std::to_string(k),
                       bench::FormatDouble(or_fold_ms, 4),
                       bench::FormatDouble(or_many_ms, 4),
                       bench::FormatDouble(or_fold_ms / or_many_ms, 2),
                       bench::FormatDouble(and_fold_ms, 4),
                       bench::FormatDouble(and_many_ms, 4),
                       bench::FormatDouble(and_fold_ms / and_many_ms, 2),
                       bench::FormatDouble(or_count_ms, 4),
                       bench::FormatDouble(and_count_ms, 4)});
      bench::RecordResult("or_fold", config, or_fold_ms, bytes);
      bench::RecordResult("or_many", config, or_many_ms, bytes);
      bench::RecordResult("and_fold", config, and_fold_ms, bytes);
      bench::RecordResult("and_many", config, and_many_ms, bytes);
      bench::RecordResult("or_many_count", config, or_count_ms, bytes);
      bench::RecordResult("and_many_count", config, and_count_ms, bytes);
    }
  }
}

int Main(int argc, char** argv) {
  bench::Init(argc, argv);
  const uint64_t num_bits = bench::BenchRows(1000000);
  const int reps = 5;

  std::printf("# Fused k-way WAH kernels vs pairwise fold "
              "(%llu bits per operand, best of %d runs)\n",
              static_cast<unsigned long long>(num_bits), reps);
  bench::PrintHeader({"config", "k", "or_fold_ms", "or_many_ms", "or_speedup",
                      "and_fold_ms", "and_many_ms", "and_speedup",
                      "or_count_ms", "and_count_ms"});
  RunSuite(num_bits, reps);

  std::printf("# checksum %llu\n", static_cast<unsigned long long>(g_sink));
  bench::WriteJson();
  return 0;
}

}  // namespace
}  // namespace incdb

int main(int argc, char** argv) { return incdb::Main(argc, argv); }
