// Compares the paper's techniques against the prior missing-data indexing
// techniques from [12] (Ooi, Goh, Tan, VLDB'98) that §2 argues against:
// MOSAIC (per-attribute B+-trees + set operations, 2k subqueries) and the
// bitstring-augmented multi-dimensional index (2^k subqueries).
//
// Sweeps query dimensionality at fixed global selectivity; the expected
// shape is linear growth for BEE/BRE/VA versus the bitstring-augmented
// index's exponential subquery count and MOSAIC's set-operation overhead on
// low-selectivity single dimensions.

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench/bench_common.h"
#include "repro/bitstring_augmented.h"
#include "repro/mosaic.h"
#include "table/generator.h"

namespace incdb {
namespace {

// The baselines are not served kinds, so they are built directly.
template <typename T>
std::unique_ptr<IncompleteIndex> MustBuild(Result<T> built) {
  if (!built.ok()) {
    std::fprintf(stderr, "baseline build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  return std::make_unique<T>(std::move(built).value());
}

int Main() {
  // Modest scale: the bitstring-augmented R-tree is the bottleneck (it is
  // the point of this bench).
  const uint64_t rows = bench::BenchRows(20000);
  const Table table =
      GenerateTable(UniformSpec(rows, 10, 0.20, 10, 42)).value();

  const auto bee = bench::MustCreateIndex(IndexKind::kBitmapEquality, table);
  const auto bre = bench::MustCreateIndex(IndexKind::kBitmapRange, table);
  const auto va = bench::MustCreateIndex(IndexKind::kVaFile, table);
  const auto mosaic = MustBuild(MosaicIndex::Build(table));
  const auto bitstring = MustBuild(BitstringAugmentedIndex::Build(table));

  std::printf("# Ours vs [12] baselines: query time vs dimensionality "
              "(%llu rows, cardinality 10, 20%% missing, GS=1%%, "
              "missing-is-match, %zu queries)\n",
              static_cast<unsigned long long>(rows), bench::BenchQueries());
  bench::PrintHeader({"dims", "bee_wah_ms", "bre_wah_ms", "va_file_ms",
                      "mosaic_ms", "bitstring_ms", "bitstring_subqueries"});
  for (size_t dims : {1u, 2u, 4u, 6u, 8u, 10u}) {
    WorkloadParams params;
    params.num_queries = bench::BenchQueries();
    params.dims = dims;
    params.global_selectivity = 0.01;
    params.semantics = MissingSemantics::kMatch;
    params.seed = 7;
    const std::vector<RangeQuery> queries =
        bench::MustGenerateWorkload(table, params);

    const WorkloadResult bitstring_result =
        bench::MustRunWorkload(*bitstring, queries, rows);
    bench::PrintRow(
        {std::to_string(dims),
         bench::FormatDouble(
             bench::MustRunWorkload(*bee, queries, rows).total_millis, 2),
         bench::FormatDouble(
             bench::MustRunWorkload(*bre, queries, rows).total_millis, 2),
         bench::FormatDouble(
             bench::MustRunWorkload(*va, queries, rows).total_millis, 2),
         bench::FormatDouble(
             bench::MustRunWorkload(*mosaic, queries, rows).total_millis, 2),
         bench::FormatDouble(bitstring_result.total_millis, 2),
         std::to_string(bitstring_result.stats.subqueries)});
  }

  std::printf("\n# Index sizes for the same dataset\n");
  bench::PrintHeader({"index", "size_mb"});
  for (const IncompleteIndex* index :
       {bee.get(), bre.get(), va.get(), mosaic.get(), bitstring.get()}) {
    bench::PrintRow(
        {index->Name(), bench::FormatBytesAsMB(index->SizeInBytes())});
  }
  return 0;
}

}  // namespace
}  // namespace incdb

int main() { return incdb::Main(); }
