// Column-at-a-time scan evaluation (query/block_scan.h) against the row
// oracle. Random AND/OR/NOT trees up to depth 3 and plain term
// conjunctions, under both missing-data semantics, over row ranges with
// unaligned starts and lengths 0, 1, 63, 64, 65 and several blocks, on
// every column layout: heap blocks, a single borrowed prefix, and the
// multi-extent borrowed prefix of a segmented store reopened from disk.
// The evaluator's answer must be bit-identical to ExprMatches / RowMatches,
// and plans that scan through it must give the same answers and stats on
// one worker as on four.

#include "query/block_scan.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"

namespace incdb {
namespace {

constexpr uint32_t kCardinality = 6;
constexpr size_t kAttributes = 3;
constexpr MissingSemantics kBothSemantics[] = {MissingSemantics::kMatch,
                                               MissingSemantics::kNoMatch};

Schema TestSchema() {
  return Schema({{"a0", kCardinality}, {"a1", kCardinality},
                 {"a2", kCardinality}});
}

Value RandomCell(Rng& rng) {
  if (rng.Bernoulli(0.25)) return kMissingValue;
  return static_cast<Value>(rng.UniformInt(1, kCardinality));
}

std::vector<Value> RandomRow(Rng& rng) {
  std::vector<Value> row(kAttributes);
  for (Value& cell : row) cell = RandomCell(rng);
  return row;
}

Interval RandomInterval(Rng& rng) {
  const Value lo = static_cast<Value>(rng.UniformInt(1, kCardinality));
  return Interval{lo, static_cast<Value>(rng.UniformInt(lo, kCardinality))};
}

QueryExpr RandomExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.Bernoulli(0.25)) {
    return QueryExpr::MakeTerm(
        static_cast<size_t>(rng.UniformInt(0, kAttributes - 1)),
        RandomInterval(rng));
  }
  switch (rng.UniformInt(0, 2)) {
    case 0:
      return QueryExpr::MakeNot(RandomExpr(rng, depth - 1));
    case 1:
    case 2: {
      std::vector<QueryExpr> children;
      const int64_t n = rng.UniformInt(1, 3);
      for (int64_t i = 0; i < n; ++i) {
        children.push_back(RandomExpr(rng, depth - 1));
      }
      return rng.Bernoulli(0.5) ? QueryExpr::MakeAnd(std::move(children))
                                : QueryExpr::MakeOr(std::move(children));
    }
  }
  return QueryExpr::MakeTerm(0, {1, 1});
}

RangeQuery RandomConjunction(Rng& rng, MissingSemantics semantics) {
  RangeQuery query;
  query.semantics = semantics;
  for (size_t a = 0; a < kAttributes; ++a) {
    if (rng.Bernoulli(0.6)) query.terms.push_back({a, RandomInterval(rng)});
  }
  if (query.terms.empty()) query.terms.push_back({1, RandomInterval(rng)});
  return query;
}

/// [begin, end) ranges over `rows`: starts on and off 64-row words and
/// block edges, lengths 0, 1, 63, 64, 65 and several 2048-row batches.
std::vector<std::pair<uint64_t, uint64_t>> Ranges(uint64_t rows) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  for (uint64_t begin : {uint64_t{0}, uint64_t{1}, uint64_t{63},
                         uint64_t{64}, uint64_t{1000}, uint64_t{1023},
                         uint64_t{3071}, rows - 66}) {
    for (uint64_t length : {uint64_t{0}, uint64_t{1}, uint64_t{63},
                            uint64_t{64}, uint64_t{65}, uint64_t{5000}}) {
      if (begin + length <= rows) ranges.push_back({begin, begin + length});
    }
  }
  ranges.push_back({0, rows});
  ranges.push_back({37, rows - 5});
  return ranges;
}

/// Runs `scan` over [begin, end) of a vector that already holds sentinel
/// bits everywhere else, and expects exactly the oracle's bits inside the
/// range with every sentinel untouched.
void ExpectMatchesOracle(const Table& table, const BlockScan& scan,
                         uint64_t begin, uint64_t end,
                         const std::function<bool(uint64_t)>& oracle,
                         const std::string& what) {
  const uint64_t rows = table.num_rows();
  BitVector out(rows);
  for (uint64_t r = 0; r < rows; r += 3) {
    if (r < begin || r >= end) out.Set(r);
  }
  BitVector expected = out;
  for (uint64_t r = begin; r < end; ++r) {
    if (oracle(r)) expected.Set(r);
  }
  scan.Run(table, begin, end, &out);
  ASSERT_EQ(out, expected) << what << " rows [" << begin << "," << end << ")";
}

void CheckAgainstOracle(const Table& table, uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::pair<uint64_t, uint64_t>> ranges =
      Ranges(table.num_rows());
  for (int trial = 0; trial < 24; ++trial) {
    const QueryExpr expr = RandomExpr(rng, 3);
    for (MissingSemantics semantics : kBothSemantics) {
      const BlockScan scan(expr, semantics);
      for (const auto& [begin, end] : ranges) {
        ExpectMatchesOracle(
            table, scan, begin, end,
            [&](uint64_t r) {
              return ExprMatches(table, r, expr, semantics);
            },
            expr.ToString());
      }
    }
    for (MissingSemantics semantics : kBothSemantics) {
      const RangeQuery query = RandomConjunction(rng, semantics);
      const BlockScan scan(query);
      EXPECT_EQ(scan.num_terms(), query.terms.size());
      for (const auto& [begin, end] : ranges) {
        ExpectMatchesOracle(
            table, scan, begin, end,
            [&](uint64_t r) { return RowMatches(table, r, query); },
            query.ToString());
      }
    }
  }
}

TEST(BlockScanPropertyTest, EmptyConnectivesAgreeWithRowOracle) {
  // An empty AND is true and an empty OR false, as in QueryExpr::Evaluate.
  Table table = Table::Create(TestSchema()).value();
  Rng rng(7);
  for (int r = 0; r < 200; ++r) {
    ASSERT_TRUE(table.AppendRow(RandomRow(rng)).ok());
  }
  const QueryExpr term = QueryExpr::MakeTerm(2, {2, 3});
  for (const QueryExpr& expr :
       {QueryExpr::MakeAnd({}), QueryExpr::MakeOr({}),
        QueryExpr::MakeNot(QueryExpr::MakeOr({})),
        QueryExpr::MakeOr({term, QueryExpr::MakeAnd({})}),
        QueryExpr::MakeAnd({term, QueryExpr::MakeOr({})})}) {
    for (MissingSemantics semantics : kBothSemantics) {
      ExpectMatchesOracle(
          table, BlockScan(expr, semantics), 3, 170,
          [&](uint64_t r) { return ExprMatches(table, r, expr, semantics); },
          expr.ToString());
    }
  }
  for (MissingSemantics semantics : kBothSemantics) {
    RangeQuery no_terms;
    no_terms.semantics = semantics;
    ExpectMatchesOracle(
        table, BlockScan(no_terms), 0, 200,
        [&](uint64_t r) { return RowMatches(table, r, no_terms); },
        "no terms");
  }
}

/// Number of contiguous runs column 0 is split into over [begin, end).
uint64_t SpanCount(const Table& table, uint64_t begin, uint64_t end) {
  uint64_t spans = 0;
  table.column(0).ForEachSpan(
      begin, end, [&](uint64_t, const Value*, uint64_t) { ++spans; });
  return spans;
}

TEST(BlockScanPropertyTest, HeapBlocksAgreeWithRowOracle) {
  // 9000 rows cross the heap block edges at 1024, 3072 and 7168.
  Table table = Table::Create(TestSchema()).value();
  Rng rng(1);
  for (int r = 0; r < 9000; ++r) {
    ASSERT_TRUE(table.AppendRow(RandomRow(rng)).ok());
  }
  ASSERT_EQ(SpanCount(table, 0, table.num_rows()), 4u);
  CheckAgainstOracle(table, 11);
}

TEST(BlockScanPropertyTest, BorrowedPrefixAgreesWithRowOracle) {
  // A 1500-row borrowed prefix, then heap blocks from row 1500.
  Rng rng(2);
  std::vector<std::vector<Value>> prefix(kAttributes,
                                         std::vector<Value>(1500));
  std::vector<Column> columns;
  for (size_t a = 0; a < kAttributes; ++a) {
    for (Value& cell : prefix[a]) cell = RandomCell(rng);
    columns.push_back(Column::Borrowed(kCardinality, prefix[a].data(),
                                       prefix[a].size()));
  }
  Table table = Table::FromColumns(TestSchema(), std::move(columns), 1500)
                    .value();
  for (int r = 0; r < 4000; ++r) {
    ASSERT_TRUE(table.AppendRow(RandomRow(rng)).ok());
  }
  ASSERT_EQ(table.column(0).borrowed_rows(), 1500u);
  CheckAgainstOracle(table, 12);
}

/// A segmented store with `rows` rows (segments of 1000), saved and
/// reopened: every column's prefix is stitched from one borrowed extent
/// per segment file plus the saved tail.
Database ReopenedSegmentedDb(uint64_t rows, const std::string& dir) {
  Table table = Table::Create(TestSchema()).value();
  Rng rng(3);
  for (uint64_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(table.AppendRow(RandomRow(rng)).ok());
  }
  Database db = Database::FromTable(std::move(table)).value();
  SegmentOptions options;
  options.segment_rows = 1000;
  EXPECT_TRUE(db.EnableSegments(options).ok());
  EXPECT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  return std::move(reopened).value();
}

std::string TempDir(const std::string& tag) {
  return "block_scan_" + tag + "_" + std::to_string(getpid()) + ".incdb";
}

TEST(BlockScanPropertyTest, ReopenedSegmentExtentsAgreeWithRowOracle) {
  const std::string dir = TempDir("extents");
  {
    Database db = ReopenedSegmentedDb(7300, dir);
    Rng rng(4);
    // Rows appended after Open land in heap blocks behind the extents.
    for (int r = 0; r < 650; ++r) ASSERT_TRUE(db.Insert(RandomRow(rng)).ok());
    const Table& table = db.table();
    ASSERT_EQ(table.column(0).borrowed_rows(), 7300u);
    // Seven segment extents and the saved tail, then one heap block.
    ASSERT_EQ(SpanCount(table, 0, table.num_rows()), 9u);
    CheckAgainstOracle(table, 13);
  }
  std::filesystem::remove_all(dir);
}

/// The visible answer a plan must produce: oracle matches minus deletes.
std::vector<uint32_t> OracleRows(uint64_t rows,
                                 const std::set<uint32_t>& deleted,
                                 const std::function<bool(uint64_t)>& match) {
  std::vector<uint32_t> ids;
  for (uint64_t r = 0; r < rows; ++r) {
    if (deleted.count(static_cast<uint32_t>(r)) == 0 && match(r)) {
      ids.push_back(static_cast<uint32_t>(r));
    }
  }
  return ids;
}

/// Plans `request` afresh and runs it on `threads` workers with a morsel
/// grid much finer than the scanned ranges.
QueryResult RunPlan(const Snapshot& snapshot, const QueryRequest& request,
                    size_t threads) {
  auto plan = plan::PlanRequest(snapshot, request);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  plan::ExecOptions options;
  options.num_threads = threads;
  options.morsel_rows = 100;
  auto result = plan::ExecutePlan(&plan.value(), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  // Every plan here ends in a scan that was split into many morsels.
  const plan::PlanNode& scan = *plan->root->children.back();
  EXPECT_TRUE(scan.kind == plan::OpKind::kDeltaScan ||
              scan.kind == plan::OpKind::kSeqScanFallback)
      << scan.label;
  EXPECT_GT(scan.realized.morsels, 2u) << scan.label;
  return std::move(result).value();
}

void CheckSerialVsParallel(const Database& db,
                           const std::set<uint32_t>& deleted, uint64_t seed) {
  const Snapshot snapshot = db.GetSnapshot();
  const Table& table = *snapshot.state().table;
  const uint64_t rows = snapshot.num_rows();
  Rng rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    for (MissingSemantics semantics : kBothSemantics) {
      const QueryExpr expr = RandomExpr(rng, 3);
      const RangeQuery query = RandomConjunction(rng, semantics);
      std::vector<NamedTerm> named;
      for (const QueryTerm& term : query.terms) {
        named.push_back({"a" + std::to_string(term.attribute),
                         term.interval.lo, term.interval.hi});
      }
      const std::vector<std::pair<QueryRequest, std::vector<uint32_t>>>
          cases = {
              {QueryRequest::Expression(expr, semantics),
               OracleRows(rows, deleted,
                          [&](uint64_t r) {
                            return ExprMatches(table, r, expr, semantics);
                          })},
              {QueryRequest::Terms(named, semantics),
               OracleRows(rows, deleted, [&](uint64_t r) {
                 return RowMatches(table, r, query);
               })}};
      for (const auto& [request, expected] : cases) {
        const QueryResult serial = RunPlan(snapshot, request, 1);
        const QueryResult parallel = RunPlan(snapshot, request, 4);
        EXPECT_EQ(serial.row_ids, expected) << expr.ToString();
        EXPECT_EQ(parallel.row_ids, serial.row_ids);
        EXPECT_EQ(parallel.count, serial.count);
        EXPECT_EQ(parallel.stats.rows_scanned, serial.stats.rows_scanned);
        EXPECT_EQ(parallel.stats.words_touched, serial.stats.words_touched);
        EXPECT_EQ(parallel.stats.bitvector_ops, serial.stats.bitvector_ops);
        EXPECT_GT(serial.stats.rows_scanned, 0u);
      }
    }
  }
}

TEST(BlockScanPropertyTest, FallbackScanSerialAndParallelAgree) {
  // No index: every request is a sequential-scan fallback over all rows.
  Table table = Table::Create(TestSchema()).value();
  Rng rng(5);
  for (int r = 0; r < 5000; ++r) {
    ASSERT_TRUE(table.AppendRow(RandomRow(rng)).ok());
  }
  Database db = Database::FromTable(std::move(table)).value();
  std::set<uint32_t> deleted;
  for (uint32_t r : {0u, 63u, 64u, 1500u, 4999u}) {
    ASSERT_TRUE(db.Delete(r).ok());
    deleted.insert(r);
  }
  CheckSerialVsParallel(db, deleted, 21);
}

TEST(BlockScanPropertyTest, ReopenedDeltaTailSerialAndParallelAgree) {
  // Segments answer [0, 7000); the delta scan covers [7000, 7950), which
  // starts in the saved tail's borrowed extent and ends in a heap block.
  const std::string dir = TempDir("delta");
  {
    Database db = ReopenedSegmentedDb(7300, dir);
    Rng rng(6);
    for (int r = 0; r < 650; ++r) ASSERT_TRUE(db.Insert(RandomRow(rng)).ok());
    ASSERT_EQ(db.sealed_rows(), 7000u);
    CheckSerialVsParallel(db, {}, 22);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace incdb
