// Dense-executor parity. BitmapIndex::ExecuteCount and Execute answered by
// the dense windowed term-plan executor (forced with a 0.0 dense threshold)
// must be bit-identical to the compressed executor (forced with 2.0) and to
// SequentialScan, and both must charge the same logical QueryStats — for
// every lowered encoding x missing strategy x semantics x interval, at
// cardinalities {1, 2, 3, 10, 16}, over row counts that are not multiples
// of the 31-bit WAH group (one of them spans several executor windows),
// over dense, sparse-clustered and mixed attributes, and for registry
// indexes built in memory and reopened through Database::Open (mmap-
// borrowed payloads). Labelled tier1-simd, so it runs at every SIMD level.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bitmap/bitmap_index.h"
#include "common/rng.h"
#include "compression/wah_bitvector.h"
#include "core/database.h"
#include "query/seq_scan.h"
#include "table/table.h"

namespace incdb {
namespace {

constexpr uint32_t kCardinalities[] = {1, 2, 3, 10, 16};
// 70,003 rows is two full 2114-group windows' worth plus a partial window
// and a 5-bit trailing group; 997 rows is one partial window; 30 rows has
// no full group at all, only the trailing one.
constexpr uint64_t kRowCounts[] = {70003, 997, 30};

enum class Shape { kDense, kClustered, kMixed };

// One attribute per (cardinality, shape): dense = uniform values with 20%
// missing cells (WAH cannot compress it); clustered = values and missing
// cells in runs of hundreds of rows (fills dominate); mixed = clustered for
// the first half of the rows, dense for the rest, so the literal density
// changes between windows. `unary_missing` = false keeps the C = 1
// attributes complete, which the kAllOnes strategy requires (§4.2).
Table MakeTable(uint64_t rows, uint64_t seed, bool unary_missing = true) {
  std::vector<AttributeSpec> specs;
  for (uint32_t cardinality : kCardinalities) {
    for (const char* shape : {"dense", "clustered", "mixed"}) {
      specs.push_back(
          {std::string(shape) + std::to_string(cardinality), cardinality});
    }
  }
  Table table = Table::Create(Schema(specs)).value();
  Rng rng(seed);
  std::vector<Value> row(specs.size());
  for (uint64_t r = 0; r < rows; ++r) {
    const uint64_t block = r / 347;
    for (size_t a = 0; a < specs.size(); ++a) {
      const auto cardinality = static_cast<int64_t>(specs[a].cardinality);
      const auto shape = static_cast<Shape>(a % 3);
      const bool dense =
          shape == Shape::kDense || (shape == Shape::kMixed && r >= rows / 2);
      if (cardinality == 1 && !unary_missing) {
        row[a] = 1;
      } else if (dense) {
        row[a] = rng.Bernoulli(0.2)
                     ? kMissingValue
                     : static_cast<Value>(rng.UniformInt(1, cardinality));
      } else {
        const uint64_t mix = block * 7 + a;
        row[a] = mix % 5 == 0 ? kMissingValue
                              : static_cast<Value>(1 + mix % cardinality);
      }
    }
    EXPECT_TRUE(table.AppendRow(row).ok());
  }
  return table;
}

// Restores the dense threshold on scope exit.
class ThresholdGuard {
 public:
  ThresholdGuard() : saved_(wah_internal::DenseBlockThreshold()) {}
  ~ThresholdGuard() { wah_internal::SetDenseBlockThresholdForTesting(saved_); }

 private:
  double saved_;
};

void ExpectSameLogicalCounters(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.bitvectors_accessed, b.bitvectors_accessed);
  EXPECT_EQ(a.bitvector_ops, b.bitvector_ops);
  EXPECT_EQ(a.words_touched, b.words_touched);
}

struct ExecutorRun {
  uint64_t count = 0;
  BitVector rows;
  QueryStats count_stats;
  QueryStats rows_stats;
};

ExecutorRun RunWithThreshold(const BitmapIndex& index, const RangeQuery& query,
                             double threshold) {
  wah_internal::SetDenseBlockThresholdForTesting(threshold);
  ExecutorRun run;
  const auto count = index.ExecuteCount(query, &run.count_stats);
  const auto rows = index.Execute(query, &run.rows_stats);
  EXPECT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (count.ok()) run.count = count.value();
  if (rows.ok()) run.rows = rows.value();
  return run;
}

// The parity contract for one query.
void ExpectExecutorsAgree(const BitmapIndex& index, const Table& table,
                          const RangeQuery& query) {
  SCOPED_TRACE(index.Name() + " " + query.ToString());
  const BitVector oracle =
      SequentialScan(table).ExecuteToBitVector(query).value();
  const ExecutorRun dense = RunWithThreshold(index, query, 0.0);
  const ExecutorRun compressed = RunWithThreshold(index, query, 2.0);

  EXPECT_EQ(dense.count, oracle.Count());
  EXPECT_EQ(compressed.count, oracle.Count());
  EXPECT_EQ(dense.rows, oracle);
  EXPECT_EQ(compressed.rows, oracle);

  ExpectSameLogicalCounters(dense.count_stats, compressed.count_stats);
  ExpectSameLogicalCounters(dense.rows_stats, compressed.rows_stats);
  // The physical counters show which executor ran: the dense one reports a
  // window per 2114 groups, the compressed one (threshold 2.0 disables the
  // kernels' dense windows too) none.
  const uint64_t windows = (index.num_rows() / 31 + 2113) / 2114;
  EXPECT_EQ(dense.count_stats.simd_path, windows);
  EXPECT_EQ(dense.rows_stats.simd_path, windows);
  EXPECT_EQ(compressed.count_stats.simd_path, 0u);
  EXPECT_EQ(compressed.rows_stats.simd_path, 0u);
}

struct Combo {
  BitmapEncoding encoding;
  MissingStrategy strategy;
  MissingSemantics semantics;
};

std::vector<Combo> LoweredCombos() {
  std::vector<Combo> combos;
  for (MissingSemantics semantics :
       {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
    for (BitmapEncoding encoding :
         {BitmapEncoding::kEquality, BitmapEncoding::kRange,
          BitmapEncoding::kInterval}) {
      combos.push_back({encoding, MissingStrategy::kExtraBitmap, semantics});
    }
  }
  // The §4.2 rejected alternatives answer one semantics each.
  combos.push_back({BitmapEncoding::kEquality, MissingStrategy::kAllOnes,
                    MissingSemantics::kMatch});
  combos.push_back({BitmapEncoding::kEquality, MissingStrategy::kAllZeros,
                    MissingSemantics::kNoMatch});
  return combos;
}

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  std::string name(BitmapEncodingToString(info.param.encoding));
  switch (info.param.strategy) {
    case MissingStrategy::kExtraBitmap:
      break;
    case MissingStrategy::kAllOnes:
      name += "_AllOnes";
      break;
    case MissingStrategy::kAllZeros:
      name += "_AllZeros";
      break;
  }
  name += info.param.semantics == MissingSemantics::kMatch ? "_Match"
                                                           : "_NoMatch";
  return name;
}

// Every interval of every attribute as a one-term query, then random
// multi-term conjunctions.
void SweepIndex(const BitmapIndex& index, const Table& table,
                MissingSemantics semantics, uint64_t seed) {
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    const auto cardinality =
        static_cast<Value>(table.schema().attribute(a).cardinality);
    for (Value lo = 1; lo <= cardinality; ++lo) {
      for (Value hi = lo; hi <= cardinality; ++hi) {
        RangeQuery query;
        query.semantics = semantics;
        query.terms.push_back({a, {lo, hi}});
        ExpectExecutorsAgree(index, table, query);
      }
    }
  }
  Rng rng(seed);
  for (int q = 0; q < 40; ++q) {
    RangeQuery query;
    query.semantics = semantics;
    const auto dims = rng.UniformInt(2, 4);
    std::vector<size_t> attrs;
    while (static_cast<int64_t>(attrs.size()) < dims) {
      const auto a = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(table.num_attributes()) - 1));
      if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
        attrs.push_back(a);
      }
    }
    for (size_t a : attrs) {
      const int64_t cardinality = table.schema().attribute(a).cardinality;
      const auto lo = static_cast<Value>(rng.UniformInt(1, cardinality));
      const auto hi = static_cast<Value>(rng.UniformInt(lo, cardinality));
      query.terms.push_back({a, {lo, hi}});
    }
    ExpectExecutorsAgree(index, table, query);
  }
}

class DenseConjunctionTest : public ::testing::TestWithParam<Combo> {};

TEST_P(DenseConjunctionTest, MatchesCompressedExecutorAndScan) {
  const Combo& combo = GetParam();
  ThresholdGuard guard;
  for (uint64_t rows : kRowCounts) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    const bool unary_missing = combo.strategy != MissingStrategy::kAllOnes;
    const Table table = MakeTable(rows, /*seed=*/rows, unary_missing);
    const BitmapIndex index =
        BitmapIndex::Build(table, {combo.encoding, combo.strategy}).value();
    SweepIndex(index, table, combo.semantics, /*seed=*/rows + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Lowered, DenseConjunctionTest,
                         ::testing::ValuesIn(LoweredCombos()), ComboName);

// The logical counters are charged at lowering and follow the paper's
// rules; pinned here for one interval shape per rule.
TEST(DenseConjunctionStatsTest, LogicalCountersFollowThePaperRules) {
  ThresholdGuard guard;
  const Table table = MakeTable(70003, /*seed=*/3);
  const size_t dense10 = 9;  // "dense10": C = 10, 20% missing
  ASSERT_EQ(table.schema().attribute(dense10).name, "dense10");
  struct Pinned {
    BitmapEncoding encoding;
    MissingSemantics semantics;
    Interval interval;
    uint64_t accessed;
    uint64_t ops;
    // Stored bitmaps touched, 1-based; 0 = B_0.
    std::vector<size_t> bitmaps;
  };
  const MissingSemantics match = MissingSemantics::kMatch;
  const MissingSemantics no_match = MissingSemantics::kNoMatch;
  const std::vector<Pinned> cases = {
      // Fig. 2 narrow: B_2 OR B_3 OR B_0.
      {BitmapEncoding::kEquality, match, {2, 3}, 3, 2, {2, 3, 0}},
      // Fig. 2 wide: NOT(B_1 OR B_10 OR B_0).
      {BitmapEncoding::kEquality, no_match, {2, 9}, 3, 3, {1, 10, 0}},
      // Full domain: NOT of the empty union.
      {BitmapEncoding::kEquality, match, {1, 10}, 0, 1, {}},
      // Fig. 3(a): (LE(7) AND NOT LE(2)) OR B_0.
      {BitmapEncoding::kRange, match, {3, 7}, 3, 2, {7, 2, 0}},
      // Fig. 3(b) lo = 1: LE(7) AND NOT B_0.
      {BitmapEncoding::kRange, no_match, {1, 7}, 2, 1, {7, 0}},
      // Fig. 3(b) full domain: NOT B_0.
      {BitmapEncoding::kRange, no_match, {1, 10}, 1, 1, {0}},
      // Interval bottom corner (m = 5): (I_2 AND NOT I_4) OR B_0.
      {BitmapEncoding::kInterval, match, {2, 3}, 3, 2, {2, 4, 0}},
      // Interval union (w > m): I_1 OR I_4.
      {BitmapEncoding::kInterval, no_match, {1, 8}, 2, 1, {1, 4}},
  };
  for (const Pinned& c : cases) {
    const BitmapIndex index =
        BitmapIndex::Build(table, {c.encoding, MissingStrategy::kExtraBitmap})
            .value();
    RangeQuery query;
    query.semantics = c.semantics;
    query.terms.push_back({dense10, c.interval});
    SCOPED_TRACE(index.Name() + " " + query.ToString());
    uint64_t words = 0;
    for (size_t j : c.bitmaps) {
      words += j == 0 ? index.missing_bitmap(dense10)->NumWords()
                      : index.value_bitmap(dense10, j).NumWords();
    }
    for (double threshold : {0.0, 2.0}) {
      wah_internal::SetDenseBlockThresholdForTesting(threshold);
      QueryStats count_stats;
      QueryStats rows_stats;
      ASSERT_TRUE(index.ExecuteCount(query, &count_stats).ok());
      ASSERT_TRUE(index.Execute(query, &rows_stats).ok());
      for (const QueryStats& stats : {count_stats, rows_stats}) {
        EXPECT_EQ(stats.bitvectors_accessed, c.accessed);
        EXPECT_EQ(stats.bitvector_ops, c.ops);
        EXPECT_EQ(stats.words_touched, words);
      }
    }
  }
}

// Registry indexes, as Database builds them and as Database::Open hands
// them back over mmap-borrowed payloads.
class DenseConjunctionRegistryTest
    : public ::testing::TestWithParam<IndexKind> {};

// The registered index of `kind`, checked to be mmap-borrowed or not.
const BitmapIndex* RegisteredIndex(const Snapshot& snapshot, IndexKind kind,
                                   bool borrowed) {
  for (const auto& entry : *snapshot.state().indexes) {
    if (entry.kind != kind) continue;
    const auto* index = dynamic_cast<const BitmapIndex*>(entry.index.get());
    // Attribute 12 ("dense16") stores a first value bitmap in every kind.
    EXPECT_EQ(index->value_bitmap(12, 1).borrowed(), borrowed);
    return index;
  }
  return nullptr;
}

TEST_P(DenseConjunctionRegistryTest, InMemoryAndReopenedIndexesAgree) {
  ThresholdGuard guard;
  Database db =
      std::move(Database::FromTable(MakeTable(70003, /*seed=*/11)).value());
  ASSERT_TRUE(db.BuildIndex(GetParam()).ok());
  auto sweep = [](const Snapshot& snapshot, const BitmapIndex* index) {
    ASSERT_NE(index, nullptr);
    for (MissingSemantics semantics :
         {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
      SweepIndex(*index, snapshot.table(), semantics, /*seed=*/5);
    }
  };
  const Snapshot built = db.GetSnapshot();
  sweep(built, RegisteredIndex(built, GetParam(), /*borrowed=*/false));

  const std::string dir = "dense_conjunction_" +
                          std::to_string(static_cast<int>(GetParam())) + "_" +
                          std::to_string(getpid()) + ".incdb";
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = Database::Open(dir, /*verify_checksums=*/false);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Snapshot opened = reopened->GetSnapshot();
  sweep(opened, RegisteredIndex(opened, GetParam(), /*borrowed=*/true));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Kinds, DenseConjunctionRegistryTest,
                         ::testing::Values(IndexKind::kBitmapEquality,
                                           IndexKind::kBitmapRange,
                                           IndexKind::kBitmapInterval));

}  // namespace
}  // namespace incdb
