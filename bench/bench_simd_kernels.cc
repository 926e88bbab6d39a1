// Measures the windowed hybrid fusion engine (dense-block SIMD fast path +
// runtime-dispatched kernels) against the pure compressed-form scalar
// engine it replaces, across bit density, operand count and dispatch
// level.
//
// The baseline mode ("base") forces scalar kernels AND disables the dense
// path (threshold > 1), which is exactly the pre-SIMD multiway engine.
// Each dispatch-level mode re-enables the production threshold, so a row's
// speedup column reads as "what this CPU level buys end to end".
//
// Expected shape: on dense inputs (>= 50% literal groups) the decode +
// vector-combine path clears 2x over the baseline for every fused kernel
// at k >= 8; on sparse clustered inputs the density peek keeps every
// window on the compressed-form strategies, so times stay within noise of
// the baseline (the +-10% acceptance band).
//
// Usage: bench_simd_kernels [--json <path>]
// With --json, per-configuration timings are written as the
// machine-readable BENCH_simd_kernels.json trajectory file.

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
#include "simd/simd.h"

namespace incdb {
namespace {

// Accumulated so the optimizer cannot discard the timed work.
uint64_t g_sink = 0;

struct DensityConfig {
  const char* name;
  double density;    // fraction of set bits
  uint64_t run_len;  // average length of a run of set bits (1 = uniform)
};

// clustered1pct is the fill-heavy regime bitmap-index operands live in
// (must not regress); uniform5pct is literal-heavy despite its low bit
// density (1 - 0.95^31 of groups are literals); dense50pct is the
// acceptance regime for the SIMD fast path.
constexpr DensityConfig kDensities[] = {
    {"clustered1pct", 0.01, 64},
    {"uniform5pct", 0.05, 1},
    {"dense50pct", 0.50, 1},
};

constexpr size_t kOperandCounts[] = {2, 4, 8, 16, 32};

// Set bits arrive in geometric runs of mean `run_len`, spaced so the
// overall density is `density` (same generator as bench_wah_multiway).
BitVector ClusteredBits(uint64_t n, double density, uint64_t run_len,
                        Rng& rng) {
  BitVector bits(n);
  if (density <= 0.0) return bits;
  if (run_len <= 1) {
    for (uint64_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(density)) bits.Set(i);
    }
    return bits;
  }
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

// Best-of-reps with inner-loop calibration: sparse fused ops on 1M bits run
// in single-digit microseconds, far too small to time individually on a
// shared box, so tiny ops are looped until each timed sample covers at
// least ~100us of work.
template <typename Fn>
double BestMillis(int reps, Fn&& fn) {
  Timer calibrate;
  fn();
  const double once = calibrate.ElapsedMillis();
  const int iters =
      once >= 0.1 ? 1 : static_cast<int>(0.1 / std::max(once, 1e-6)) + 1;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, timer.ElapsedMillis() / iters);
  }
  return best;
}

struct KernelTimes {
  double or_many = 0;
  double and_many = 0;
  double or_count = 0;
  double and_count = 0;
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

void RunSuite(uint64_t num_bits, int reps, double dense_threshold) {
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

      auto time_kernels = [&] {
        KernelTimes t;
        t.or_many = BestMillis(reps, [&] {
          g_sink += WahBitVector::OrMany(span).NumWords();
        });
        t.and_many = BestMillis(reps, [&] {
          g_sink += WahBitVector::AndMany(span).NumWords();
        });
        t.or_count = BestMillis(reps, [&] {
          g_sink += WahBitVector::OrManyCount(span);
        });
        t.and_count = BestMillis(reps, [&] {
          g_sink += WahBitVector::AndManyCount(span);
        });
        return t;
      };

      // Baseline: the pre-SIMD engine — scalar kernels, dense path off.
      simd::ForceLevelForTesting(simd::Level::kScalar);
      wah_internal::SetDenseBlockThresholdForTesting(2.0);
      const uint64_t or_expect = WahBitVector::OrManyCount(span);
      const uint64_t and_expect = WahBitVector::AndManyCount(span);
      const KernelTimes base = time_kernels();

      // "w32/" names the 32-bit code words; the committed baselines key on
      // it.
      const std::string config =
          std::string("w32/") + dc.name + "/k" + std::to_string(k);
      bench::RecordResult("or_many@base", config, base.or_many, bytes);
      bench::RecordResult("and_many@base", config, base.and_many, bytes);
      bench::RecordResult("or_count@base", config, base.or_count, bytes);
      bench::RecordResult("and_count@base", config, base.and_count, bytes);

      for (simd::Level level : AvailableLevels()) {
        simd::ForceLevelForTesting(level);
        wah_internal::SetDenseBlockThresholdForTesting(dense_threshold);
        // Sanity: the hybrid engine must agree with the baseline.
        if (WahBitVector::OrManyCount(span) != or_expect ||
            WahBitVector::AndManyCount(span) != and_expect) {
          std::fprintf(stderr, "HYBRID/BASELINE MISMATCH (%s %s)\n",
                       config.c_str(), simd::LevelToString(level).data());
          std::exit(1);
        }
        const KernelTimes t = time_kernels();
        const std::string mode(simd::LevelToString(level));
        bench::PrintRow({config, mode, std::to_string(k),
                         bench::FormatDouble(t.or_many, 4),
                         bench::FormatDouble(base.or_many / t.or_many, 2),
                         bench::FormatDouble(t.and_many, 4),
                         bench::FormatDouble(base.and_many / t.and_many, 2),
                         bench::FormatDouble(t.or_count, 4),
                         bench::FormatDouble(base.or_count / t.or_count, 2),
                         bench::FormatDouble(t.and_count, 4),
                         bench::FormatDouble(base.and_count / t.and_count, 2)});
        bench::RecordResult("or_many@" + mode, config, t.or_many, bytes);
        bench::RecordResult("and_many@" + mode, config, t.and_many, bytes);
        bench::RecordResult("or_count@" + mode, config, t.or_count, bytes);
        bench::RecordResult("and_count@" + mode, config, t.and_count, bytes);
      }
    }
  }
}

int Main(int argc, char** argv) {
  bench::Init(argc, argv);
  const uint64_t num_bits = bench::BenchRows(1000000);
  const int reps = 9;  // identical-code cells showed +-15% at 5 on this box
  const double dense_threshold = wah_internal::DenseBlockThreshold();

  std::printf("# Hybrid SIMD fused WAH kernels vs the scalar "
              "compressed-form engine\n"
              "# (%llu bits per operand, best of %d runs; baseline = scalar "
              "kernels, dense path off;\n"
              "#  speedup columns are baseline/mode at dense threshold "
              "%.2f; detected level: %s)\n",
              static_cast<unsigned long long>(num_bits), reps,
              dense_threshold,
              simd::LevelToString(simd::DetectedLevel()).data());
  bench::PrintHeader({"config", "mode", "k", "or_ms", "or_x", "and_ms",
                      "and_x", "orcnt_ms", "orcnt_x", "andcnt_ms",
                      "andcnt_x"});
  RunSuite(num_bits, reps, dense_threshold);

  std::printf("# checksum %llu\n", static_cast<unsigned long long>(g_sink));
  bench::WriteJson();
  return 0;
}

}  // namespace
}  // namespace incdb

int main(int argc, char** argv) { return incdb::Main(argc, argv); }
