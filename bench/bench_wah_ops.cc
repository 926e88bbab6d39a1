// Micro-benchmarks (google-benchmark) for the logical-operation substrate:
// WAH ops over the compressed form versus verbatim word-parallel ops, and
// compression itself, across bit densities. These are the primitive costs
// underlying every Fig. 5 number.

#include <benchmark/benchmark.h>

#include "bitvector/bitvector.h"
#include "common/rng.h"
#include "compression/wah_bitvector.h"
#include "repro/bbc_bitvector.h"

namespace incdb {
namespace {

constexpr uint64_t kBits = 1000000;

BitVector MakeBits(double density, uint64_t seed) {
  Rng rng(seed);
  BitVector bits(kBits);
  for (uint64_t i = 0; i < kBits; ++i) {
    if (rng.Bernoulli(density)) bits.Set(i);
  }
  return bits;
}

double DensityArg(const benchmark::State& state) {
  return static_cast<double>(state.range(0)) / 10000.0;
}

void BM_WahAnd(benchmark::State& state) {
  const double density = DensityArg(state);
  const WahBitVector a = WahBitVector::Compress(MakeBits(density, 1));
  const WahBitVector b = WahBitVector::Compress(MakeBits(density, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.And(b));
  }
}
BENCHMARK(BM_WahAnd)->Arg(10)->Arg(100)->Arg(1000)->Arg(5000);

void BM_WahOr(benchmark::State& state) {
  const double density = DensityArg(state);
  const WahBitVector a = WahBitVector::Compress(MakeBits(density, 1));
  const WahBitVector b = WahBitVector::Compress(MakeBits(density, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Or(b));
  }
}
BENCHMARK(BM_WahOr)->Arg(10)->Arg(100)->Arg(1000);

void BM_WahNot(benchmark::State& state) {
  const double density = DensityArg(state);
  const WahBitVector a = WahBitVector::Compress(MakeBits(density, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Not());
  }
}
BENCHMARK(BM_WahNot)->Arg(100)->Arg(1000);

void BM_VerbatimAnd(benchmark::State& state) {
  const double density = DensityArg(state);
  const BitVector a = MakeBits(density, 1);
  const BitVector b = MakeBits(density, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(And(a, b));
  }
}
BENCHMARK(BM_VerbatimAnd)->Arg(10)->Arg(100)->Arg(1000)->Arg(5000);

void BM_BbcAnd(benchmark::State& state) {
  const double density = DensityArg(state);
  const BbcBitVector a = BbcBitVector::Compress(MakeBits(density, 1));
  const BbcBitVector b = BbcBitVector::Compress(MakeBits(density, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.And(b));
  }
}
BENCHMARK(BM_BbcAnd)->Arg(10)->Arg(100)->Arg(1000);

void BM_WahCompress(benchmark::State& state) {
  const double density = DensityArg(state);
  const BitVector bits = MakeBits(density, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WahBitVector::Compress(bits));
  }
}
BENCHMARK(BM_WahCompress)->Arg(100)->Arg(1000);

void BM_WahCount(benchmark::State& state) {
  const double density = DensityArg(state);
  const WahBitVector a = WahBitVector::Compress(MakeBits(density, 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Count());
  }
}
BENCHMARK(BM_WahCount)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace incdb

BENCHMARK_MAIN();
