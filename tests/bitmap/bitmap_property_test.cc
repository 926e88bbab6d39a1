// Oracle-equivalence property sweeps (DESIGN.md invariant 1): for every
// encoding, missing strategy, cardinality, missing rate and semantics, the
// bitmap index must return exactly the sequential-scan result.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "bitmap/bitmap_index.h"
#include "core/executor.h"
#include "query/workload.h"
#include "table/generator.h"

namespace incdb {
namespace {

struct SweepCase {
  BitmapEncoding encoding;
  uint32_t cardinality;
  double missing_rate;
  MissingSemantics semantics;
};

class BitmapOracleTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BitmapOracleTest, AgreesWithSequentialScan) {
  const SweepCase& c = GetParam();
  const Table table =
      GenerateTable(
          UniformSpec(2000, c.cardinality, c.missing_rate, 6,
                      /*seed=*/c.cardinality * 1000 +
                          static_cast<uint64_t>(c.missing_rate * 100)))
          .value();
  const BitmapIndex index =
      BitmapIndex::Build(table, {c.encoding, MissingStrategy::kExtraBitmap})
          .value();

  WorkloadParams params;
  params.num_queries = 30;
  params.dims = 4;
  params.global_selectivity = 0.02;
  params.semantics = c.semantics;
  params.seed = 5 + c.cardinality;
  const auto range_queries = GenerateWorkload(table, params);
  ASSERT_TRUE(range_queries.ok());
  EXPECT_TRUE(
      VerifyAgainstOracle(index, table, range_queries.value()).ok());

  params.point_queries = true;
  params.seed += 1;
  const auto point_queries = GenerateWorkload(table, params);
  ASSERT_TRUE(point_queries.ok());
  EXPECT_TRUE(
      VerifyAgainstOracle(index, table, point_queries.value()).ok());
}

std::vector<SweepCase> MakeSweep() {
  std::vector<SweepCase> cases;
  for (BitmapEncoding encoding :
       {BitmapEncoding::kEquality, BitmapEncoding::kRange,
        BitmapEncoding::kInterval, BitmapEncoding::kBitSliced}) {
    for (uint32_t cardinality : {2u, 5u, 10u, 50u}) {
      for (double missing : {0.0, 0.1, 0.5}) {
        for (MissingSemantics semantics :
             {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
          cases.push_back({encoding, cardinality, missing, semantics});
        }
      }
    }
  }
  return cases;
}

// Stable names, e.g. BEE_C10_m10_match, for the gtest name and for the
// printed parameter (which ctest's test discovery puts in the test ID).
std::string CaseName(const SweepCase& c) {
  return std::string(BitmapEncodingToString(c.encoding)) + "_C" +
         std::to_string(c.cardinality) + "_m" +
         std::to_string(static_cast<int>(c.missing_rate * 100)) +
         (c.semantics == MissingSemantics::kMatch ? "_match" : "_nomatch");
}

void PrintTo(const SweepCase& c, std::ostream* os) { *os << CaseName(c); }

INSTANTIATE_TEST_SUITE_P(
    Sweep, BitmapOracleTest, ::testing::ValuesIn(MakeSweep()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return CaseName(info.param);
    });

// Exhaustive single-attribute check: every possible interval over a small
// domain, both encodings, both semantics, against the oracle.
TEST(BitmapExhaustiveTest, EveryIntervalOnSmallDomain) {
  const Table table = GenerateTable(UniformSpec(500, 7, 0.25, 1, 3)).value();
  for (BitmapEncoding encoding :
       {BitmapEncoding::kEquality, BitmapEncoding::kRange,
        BitmapEncoding::kInterval, BitmapEncoding::kBitSliced}) {
    const BitmapIndex index =
        BitmapIndex::Build(table, {encoding, MissingStrategy::kExtraBitmap})
            .value();
    std::vector<RangeQuery> queries;
    for (Value lo = 1; lo <= 7; ++lo) {
      for (Value hi = lo; hi <= 7; ++hi) {
        for (MissingSemantics semantics :
             {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
          RangeQuery q;
          q.terms = {{0, {lo, hi}}};
          q.semantics = semantics;
          queries.push_back(q);
        }
      }
    }
    EXPECT_TRUE(VerifyAgainstOracle(index, table, queries).ok())
        << BitmapEncodingToString(encoding);
  }
}

// The §4.2 alternative missing encodings must also be exact within their
// supported semantics.
TEST(BitmapAlternativeStrategyTest, AllOnesAgreesWithOracleUnderMatch) {
  const Table table = GenerateTable(UniformSpec(1000, 8, 0.3, 4, 19)).value();
  const BitmapIndex index =
      BitmapIndex::Build(table,
                         {BitmapEncoding::kEquality, MissingStrategy::kAllOnes})
          .value();
  WorkloadParams params;
  params.num_queries = 40;
  params.dims = 3;
  params.global_selectivity = 0.05;
  params.semantics = MissingSemantics::kMatch;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  EXPECT_TRUE(VerifyAgainstOracle(index, table, queries.value()).ok());
}

TEST(BitmapAlternativeStrategyTest, AllZerosAgreesWithOracleUnderNoMatch) {
  const Table table = GenerateTable(UniformSpec(1000, 8, 0.3, 4, 23)).value();
  const BitmapIndex index =
      BitmapIndex::Build(
          table, {BitmapEncoding::kEquality, MissingStrategy::kAllZeros})
          .value();
  WorkloadParams params;
  params.num_queries = 40;
  params.dims = 3;
  params.global_selectivity = 0.05;
  params.semantics = MissingSemantics::kNoMatch;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  EXPECT_TRUE(VerifyAgainstOracle(index, table, queries.value()).ok());
}

// §4.2's compression argument: interrupting the zero runs with all-ones
// missing rows hurts compression versus the extra-bitmap design.
TEST(BitmapAlternativeStrategyTest, AllOnesCompressesWorse) {
  const Table table = GenerateTable(UniformSpec(20000, 20, 0.2, 1, 29)).value();
  const uint64_t extra =
      BitmapIndex::Build(table, {BitmapEncoding::kEquality,
                                 MissingStrategy::kExtraBitmap})
          .value()
          .SizeInBytes();
  const uint64_t all_ones =
      BitmapIndex::Build(
          table, {BitmapEncoding::kEquality, MissingStrategy::kAllOnes})
          .value()
          .SizeInBytes();
  EXPECT_GT(all_ones, extra);
}

// Semantics algebra at the index level (DESIGN.md invariant 6).
TEST(BitmapSemanticsTest, NoMatchResultIsSubsetOfMatchResult) {
  const Table table = GenerateTable(UniformSpec(2000, 10, 0.3, 5, 31)).value();
  for (BitmapEncoding encoding :
       {BitmapEncoding::kEquality, BitmapEncoding::kRange,
        BitmapEncoding::kInterval, BitmapEncoding::kBitSliced}) {
    const BitmapIndex index =
        BitmapIndex::Build(table, {encoding, MissingStrategy::kExtraBitmap})
            .value();
    WorkloadParams params;
    params.num_queries = 20;
    params.dims = 3;
    params.global_selectivity = 0.05;
    const auto queries = GenerateWorkload(table, params);
    ASSERT_TRUE(queries.ok());
    for (RangeQuery q : queries.value()) {
      q.semantics = MissingSemantics::kMatch;
      const BitVector with = index.Execute(q).value();
      q.semantics = MissingSemantics::kNoMatch;
      const BitVector without = index.Execute(q).value();
      EXPECT_TRUE(Or(with, without) == with);  // without ⊆ with
    }
  }
}

}  // namespace
}  // namespace incdb
