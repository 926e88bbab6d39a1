// Reproduces paper Fig. 1: normalized query execution time on an R-tree
// over 2-D data where missing values are mapped to a sentinel inside the
// index, as the percentage of missing data grows. Queries have 25% global
// selectivity (50% attribute selectivity per dimension) and use
// missing-is-match semantics, which forces 2^k subqueries against the
// sentinel-mapped index. The paper reports ~23x degradation already at 10%
// missing; the growth trend (and its absence for the paper's techniques) is
// the reproduction target.
//
// Output columns: missing_pct, time_ms, normalized_time, node_accesses,
// normalized_accesses, matches.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "query/query.h"
#include "repro/rtree.h"
#include "table/generator.h"

namespace incdb {
namespace {

constexpr uint32_t kCardinality = 1000;
constexpr int32_t kSentinel = 0;  // below the domain 1..1000

struct QueryBox {
  int32_t lo[2];
  int32_t hi[2];
};

RTree BuildSentinelRTree(const Table& table) {
  RTree tree(2, 16);
  std::vector<int32_t> point(2);
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < 2; ++a) {
      const Value v = table.Get(r, a);
      point[a] = IsMissing(v) ? kSentinel : v;
    }
    tree.Insert(point, static_cast<uint32_t>(r));
  }
  return tree;
}

int Main() {
  const uint64_t rows = bench::BenchRows(20000);
  const size_t num_queries = bench::BenchQueries();
  std::printf("# Fig. 1: R-tree query cost vs %% missing data "
              "(2-D, %llu rows, %zu queries, GS=25%%, missing-is-match)\n",
              static_cast<unsigned long long>(rows), num_queries);
  bench::PrintHeader({"missing_pct", "time_ms", "normalized_time",
                      "node_accesses", "normalized_accesses", "matches"});

  double base_time = 0.0;
  double base_accesses = 0.0;
  for (int missing_pct : {0, 10, 20, 30, 40, 50}) {
    const Table table =
        GenerateTable(
            UniformSpec(rows, kCardinality, missing_pct / 100.0, 2, 42))
            .value();
    const RTree tree = BuildSentinelRTree(table);

    // 25% global selectivity: each of the two dimensions takes a 50%-wide
    // interval (the sentinel subqueries add the missing rows the interval
    // semantics require).
    Rng rng(7);
    std::vector<QueryBox> boxes(num_queries);
    for (QueryBox& box : boxes) {
      for (int d = 0; d < 2; ++d) {
        const int32_t width = kCardinality / 2;
        const int32_t lo =
            static_cast<int32_t>(rng.UniformInt(1, kCardinality - width + 1));
        box.lo[d] = lo;
        box.hi[d] = lo + width - 1;
      }
    }

    uint64_t accesses = 0;
    uint64_t matches = 0;
    std::vector<uint32_t> out;
    Timer timer;
    for (const QueryBox& box : boxes) {
      // Missing-is-match on a sentinel-mapped index: 2^2 subqueries — each
      // dimension is either constrained to its interval or to the sentinel.
      out.clear();
      for (int subset = 0; subset < 4; ++subset) {
        Rect rect{{0, 0}, {0, 0}};
        bool applicable = true;
        for (int d = 0; d < 2; ++d) {
          if ((subset >> d) & 1) {
            if (missing_pct == 0) {
              applicable = false;  // no missing rows to pick up
              break;
            }
            rect.lo[d] = kSentinel;
            rect.hi[d] = kSentinel;
          } else {
            rect.lo[d] = box.lo[d];
            rect.hi[d] = box.hi[d];
          }
        }
        if (!applicable) continue;
        accesses += tree.RangeSearch(rect, &out);
      }
      matches += out.size();
    }
    const double time_ms = timer.ElapsedMillis();
    if (missing_pct == 0) {
      base_time = time_ms;
      base_accesses = static_cast<double>(accesses);
    }
    bench::PrintRow({std::to_string(missing_pct),
                     bench::FormatDouble(time_ms),
                     bench::FormatDouble(time_ms / base_time, 2),
                     std::to_string(accesses),
                     bench::FormatDouble(
                         static_cast<double>(accesses) / base_accesses, 2),
                     std::to_string(matches)});
  }
  return 0;
}

}  // namespace
}  // namespace incdb

int main() { return incdb::Main(); }
