// Measures the plan executor's morsel-parallel mode against serial
// execution: multi-attribute conjunctions lowered to per-dimension index
// probes (evaluated concurrently) and to morsel-partitioned sequential
// scans.
//
// Three timings per case:
//  * fused_serial — the plan users get at parallelism = 1: the planner keeps
//    the conjunction in one index probe (BitmapIndex::Execute, which runs
//    the dense term-plan executor on incompressible bitmaps). The baseline.
//  * split_serial / split_parallel8 — the And-split plan that any other
//    parallelism degree produces, run on 1 and 8 workers. Comparing the two
//    isolates the worker pool; comparing either against fused_serial shows
//    what the split itself costs (every term decompressed on its own).
// Answers are bit-identical by construction. Two tables: C = 20 under the
// equality index, and the dense C = 10 serving table under the range index
// (paper Fig. 5(b): WAH cannot compress either).
//
// A second table times the tail scan: a 512Ki-row segmented store (8 sealed
// 64Ki-row segments) whose unsealed tail is one row short of sealing, so
// every request ends in a 65535-row delta scan. For a term conjunction and
// an expression with NOT/OR it reports the column-at-a-time evaluator's
// rate over the tail alone (query/block_scan.h), the row oracle's rate over
// the same rows for reference, and the whole plan (segment probes + tail).
//
// Usage: bench_plan_executor [--json <path>]
// With --json, timings are also written as the machine-readable
// BENCH_plan_executor.json trajectory file.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/database.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "query/block_scan.h"
#include "table/generator.h"

namespace incdb {
namespace {

uint64_t g_sink = 0;
constexpr size_t kThreads = 8;
constexpr int kReps = 5;

Database MustMakeDatabase(uint64_t num_rows, uint32_t cardinality,
                          const IndexKind* index) {
  DatasetSpec spec;
  spec.seed = 20060331;
  spec.num_rows = num_rows;
  for (int a = 0; a < 8; ++a) {
    spec.attributes.push_back(
        {"a" + std::to_string(a), cardinality, 0.10, 0.0});
  }
  auto table = GenerateTable(spec);
  if (!table.ok()) {
    std::fprintf(stderr, "generate: %s\n", table.status().ToString().c_str());
    std::exit(1);
  }
  auto db = Database::FromTable(std::move(table).value());
  if (!db.ok()) {
    std::fprintf(stderr, "database: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  if (index != nullptr) {
    const Status status = db->BuildIndex(*index);
    if (!status.ok()) {
      std::fprintf(stderr, "index: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  return std::move(db).value();
}

QueryRequest Conjunction(size_t dims) {
  std::vector<NamedTerm> terms;
  for (size_t a = 0; a < dims; ++a) {
    terms.push_back({"a" + std::to_string(a), static_cast<Value>(3),
                     static_cast<Value>(3 + 2 * (a % 3))});
  }
  return QueryRequest::Terms(std::move(terms), MissingSemantics::kNoMatch);
}

/// Plans the request fresh (a plan instance runs once) and executes it on
/// `threads` workers; returns the best-of-kReps wall time and accumulates
/// the count into the sink so the work cannot be optimized away. `split`
/// selects the And-split lowering (request.parallelism != 1) over the
/// fused serial one; `threads` then sets only the worker pool size.
double MustTimePlan(const Database& db, const QueryRequest& request,
                    bool split, size_t threads) {
  const Snapshot snapshot = db.GetSnapshot();
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    QueryRequest shaped = request;
    shaped.Parallel(split ? kThreads : 1);
    auto plan = plan::PlanRequest(snapshot, shaped);
    if (!plan.ok()) {
      std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
      std::exit(1);
    }
    plan::ExecOptions options;
    options.num_threads = threads;
    Timer timer;
    auto result = plan::ExecutePlan(&plan.value(), options);
    const double millis = timer.ElapsedMillis();
    if (!result.ok()) {
      std::fprintf(stderr, "execute: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    g_sink += result->count;
    if (rep == 0 || millis < best) best = millis;
  }
  return best;
}

double MillionRowsPerSecond(uint64_t rows, double millis) {
  return millis > 0.0 ? static_cast<double>(rows) / millis / 1000.0 : 0.0;
}

void RunTailScanCases() {
  constexpr uint64_t kSealedRows = 512 * 1024;
  constexpr uint64_t kTailRows = 64 * 1024 - 1;
  Database db = MustMakeDatabase(kSealedRows + kTailRows, 10, nullptr);
  const Status status = db.EnableSegments(SegmentOptions());
  if (!status.ok() || db.sealed_rows() != kSealedRows) {
    std::fprintf(stderr, "segments: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  const Snapshot snapshot = db.GetSnapshot();
  const Table& table = *snapshot.state().table;
  const uint64_t rows = snapshot.num_rows();

  const QueryExpr terms_expr = QueryExpr::FromRangeQuery(
      [] {
        RangeQuery query;
        for (size_t a = 0; a < 4; ++a) {
          query.terms.push_back({a, {3, static_cast<Value>(4 + a)}});
        }
        return query;
      }());
  const QueryExpr not_or_expr = QueryExpr::MakeOr(
      {QueryExpr::MakeAnd({QueryExpr::MakeTerm(0, {2, 4}),
                           QueryExpr::MakeNot(QueryExpr::MakeTerm(1, {5, 6}))}),
       QueryExpr::MakeNot(QueryExpr::MakeOr(
           {QueryExpr::MakeTerm(2, {1, 3}), QueryExpr::MakeTerm(3, {7, 7})}))});
  struct TailCase {
    const char* name;
    const QueryExpr* expr;
    MissingSemantics semantics;
  };
  const TailCase cases[] = {
      {"tail_conjunction", &terms_expr, MissingSemantics::kNoMatch},
      {"tail_not_or", &not_or_expr, MissingSemantics::kMatch},
  };

  bench::PrintHeader({"case", "sealed_rows", "tail_rows", "scan_ms",
                      "scan_mrows_s", "oracle_ms", "oracle_mrows_s",
                      "plan_ms"});
  for (const TailCase& c : cases) {
    const BlockScan scan(*c.expr, c.semantics);
    BitVector out(rows);
    double scan_ms = 0.0;
    double oracle_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      out.ClearAll();
      Timer timer;
      scan.Run(table, kSealedRows, rows, &out);
      const double millis = timer.ElapsedMillis();
      if (rep == 0 || millis < scan_ms) scan_ms = millis;
    }
    const uint64_t matches = out.Count();
    for (int rep = 0; rep < kReps; ++rep) {
      uint64_t oracle_matches = 0;
      Timer timer;
      for (uint64_t r = kSealedRows; r < rows; ++r) {
        if (ExprMatches(table, r, *c.expr, c.semantics)) ++oracle_matches;
      }
      const double millis = timer.ElapsedMillis();
      if (oracle_matches != matches) {
        std::fprintf(stderr, "%s: scan %llu vs oracle %llu matches\n", c.name,
                     static_cast<unsigned long long>(matches),
                     static_cast<unsigned long long>(oracle_matches));
        std::exit(1);
      }
      if (rep == 0 || millis < oracle_ms) oracle_ms = millis;
    }
    g_sink += matches;
    const double plan_ms = MustTimePlan(
        db, QueryRequest::Expression(*c.expr, c.semantics), false, 1);

    const std::string config = std::string(c.name) +
                               "&sealed=" + std::to_string(kSealedRows) +
                               "&tail=" + std::to_string(kTailRows);
    bench::RecordResult("tail_scan", config, scan_ms, 0);
    bench::RecordResult("tail_plan", config, plan_ms, 0);
    bench::PrintRow({c.name, std::to_string(kSealedRows),
                     std::to_string(kTailRows), bench::FormatDouble(scan_ms),
                     bench::FormatDouble(
                         MillionRowsPerSecond(kTailRows, scan_ms), 1),
                     bench::FormatDouble(oracle_ms),
                     bench::FormatDouble(
                         MillionRowsPerSecond(kTailRows, oracle_ms), 1),
                     bench::FormatDouble(plan_ms)});
  }
}

}  // namespace

int BenchMain(int argc, char** argv) {
  bench::Init(argc, argv);
  const uint64_t rows = bench::BenchRows(1000000);

  bench::PrintHeader({"case", "rows", "card", "dims", "fused_serial_ms",
                      "split_serial_ms", "split_parallel8_ms",
                      "split_vs_fused", "speedup"});

  struct Case {
    const char* name;
    const Database* db;
    uint32_t cardinality;
    size_t dims;
  };
  const IndexKind equality = IndexKind::kBitmapEquality;
  const IndexKind range = IndexKind::kBitmapRange;
  const Database indexed = MustMakeDatabase(rows, 20, &equality);
  const Database dense = MustMakeDatabase(rows, 10, &range);
  const Database scan_only = MustMakeDatabase(rows, 20, nullptr);
  const Case cases[] = {
      {"probe_conjunction", &indexed, 20, 4},
      {"probe_conjunction", &indexed, 20, 8},
      {"dense_probe_conjunction", &dense, 10, 4},
      {"dense_probe_conjunction", &dense, 10, 8},
      {"scan_conjunction", &scan_only, 20, 4},
      {"scan_conjunction", &scan_only, 20, 8},
  };

  for (const Case& c : cases) {
    const QueryRequest request = Conjunction(c.dims);
    const double fused_ms = MustTimePlan(*c.db, request, false, 1);
    const double serial_ms = MustTimePlan(*c.db, request, true, 1);
    const double parallel_ms = MustTimePlan(*c.db, request, true, kThreads);
    const double split_vs_fused = fused_ms > 0.0 ? serial_ms / fused_ms : 0.0;
    const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;

    const std::string config =
        std::string(c.name) + "&rows=" + std::to_string(rows) +
        "&card=" + std::to_string(c.cardinality) +
        "&dims=" + std::to_string(c.dims);
    bench::RecordResult("fused_serial", config, fused_ms, 0);
    bench::RecordResult("serial", config, serial_ms, 0);
    bench::RecordResult("parallel8", config, parallel_ms, 0);

    bench::PrintRow({c.name, std::to_string(rows),
                     std::to_string(c.cardinality), std::to_string(c.dims),
                     bench::FormatDouble(fused_ms),
                     bench::FormatDouble(serial_ms),
                     bench::FormatDouble(parallel_ms),
                     bench::FormatDouble(split_vs_fused, 2),
                     bench::FormatDouble(speedup, 2)});
  }

  RunTailScanCases();

  if (g_sink == 0) std::fprintf(stderr, "# sink empty (unexpected)\n");
  bench::WriteJson();
  return 0;
}

}  // namespace incdb

int main(int argc, char** argv) { return incdb::BenchMain(argc, argv); }
