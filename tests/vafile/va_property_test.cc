// Oracle-equivalence and containment properties for the VA-file
// (DESIGN.md invariants 1 and 5), swept over quantization, bit budget,
// cardinality, missing rate and semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "core/executor.h"
#include "query/workload.h"
#include "table/generator.h"
#include "vafile/va_file.h"

namespace incdb {
namespace {

struct VaSweepCase {
  VaQuantization quantization;
  int bits_override;  // 0 = paper default (exact bins)
  uint32_t cardinality;
  double missing_rate;
  MissingSemantics semantics;
};

class VaOracleTest : public ::testing::TestWithParam<VaSweepCase> {};

TEST_P(VaOracleTest, AgreesWithSequentialScan) {
  const VaSweepCase& c = GetParam();
  const Table table =
      GenerateTable(UniformSpec(1500, c.cardinality, c.missing_rate, 5,
                                /*seed=*/c.cardinality + 100))
          .value();
  const VaFile va =
      VaFile::Build(table, {c.quantization, c.bits_override}).value();

  WorkloadParams params;
  params.num_queries = 25;
  params.dims = 3;
  params.global_selectivity = 0.03;
  params.semantics = c.semantics;
  params.seed = 17;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  EXPECT_TRUE(VerifyAgainstOracle(va, table, queries.value()).ok());

  params.point_queries = true;
  const auto point_queries = GenerateWorkload(table, params);
  ASSERT_TRUE(point_queries.ok());
  EXPECT_TRUE(VerifyAgainstOracle(va, table, point_queries.value()).ok());
}

std::vector<VaSweepCase> MakeSweep() {
  std::vector<VaSweepCase> cases;
  for (VaQuantization quantization :
       {VaQuantization::kUniform, VaQuantization::kEquiDepth}) {
    for (int bits : {0, 2, 3}) {
      for (uint32_t cardinality : {2u, 10u, 50u}) {
        for (double missing : {0.0, 0.3}) {
          for (MissingSemantics semantics :
               {MissingSemantics::kMatch, MissingSemantics::kNoMatch}) {
            cases.push_back({quantization, bits, cardinality, missing,
                             semantics});
          }
        }
      }
    }
  }
  return cases;
}

// Stable names, e.g. uniform_b0_C10_m30_match, for the gtest name and for
// the printed parameter (which ctest's test discovery puts in the test ID).
std::string CaseName(const VaSweepCase& c) {
  return std::string(c.quantization == VaQuantization::kUniform
                         ? "uniform"
                         : "equidepth") +
         "_b" + std::to_string(c.bits_override) + "_C" +
         std::to_string(c.cardinality) + "_m" +
         std::to_string(static_cast<int>(c.missing_rate * 100)) +
         (c.semantics == MissingSemantics::kMatch ? "_match" : "_nomatch");
}

void PrintTo(const VaSweepCase& c, std::ostream* os) { *os << CaseName(c); }

INSTANTIATE_TEST_SUITE_P(
    Sweep, VaOracleTest, ::testing::ValuesIn(MakeSweep()),
    [](const ::testing::TestParamInfo<VaSweepCase>& info) {
      return CaseName(info.param);
    });

// With the paper's default bit allocation every value has its own bin, so
// the filter step alone is exact: zero false positives.
TEST(VaFilterQualityTest, DefaultAllocationHasNoFalsePositives) {
  const Table table = GenerateTable(UniformSpec(2000, 20, 0.2, 4, 55)).value();
  const VaFile va = VaFile::Build(table).value();
  WorkloadParams params;
  params.num_queries = 20;
  params.dims = 3;
  params.global_selectivity = 0.05;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  for (const RangeQuery& q : queries.value()) {
    QueryStats stats;
    ASSERT_TRUE(va.Execute(q, &stats).ok());
    EXPECT_EQ(stats.false_positives, 0u);
  }
}

// With a squeezed bit budget the filter over-selects but refinement must
// restore exactness; candidates must always be a superset of the answer.
TEST(VaFilterQualityTest, LossyBinsRefineToExactResult) {
  const Table table = GenerateTable(UniformSpec(2000, 100, 0.2, 4, 57)).value();
  const VaFile va = VaFile::Build(table, {VaQuantization::kUniform, 3}).value();
  WorkloadParams params;
  params.num_queries = 20;
  params.dims = 2;
  params.global_selectivity = 0.05;
  const auto queries = GenerateWorkload(table, params);
  ASSERT_TRUE(queries.ok());
  uint64_t total_false_positives = 0;
  for (const RangeQuery& q : queries.value()) {
    QueryStats stats;
    const BitVector result = va.Execute(q, &stats).value();
    EXPECT_EQ(stats.candidates - stats.false_positives, result.Count());
    EXPECT_GE(stats.candidates, result.Count());
    total_false_positives += stats.false_positives;
  }
  EXPECT_GT(total_false_positives, 0u);  // 3 bits over C=100 must be lossy
  EXPECT_TRUE(VerifyAgainstOracle(va, table, queries.value()).ok());
}

// VA+ claim (paper future work, ref [6]): on skewed data equi-depth bins
// produce fewer false positives than uniform bins at the same bit budget —
// for workloads whose query endpoints follow the data distribution (the
// setting VA+ targets: queries land where the records are).
TEST(VaFilterQualityTest, EquiDepthBeatsUniformOnSkewedData) {
  DatasetSpec spec = UniformSpec(10000, 100, 0.1, 3, 59);
  for (auto& attr : spec.attributes) attr.zipf_theta = 1.3;
  const Table table = GenerateTable(spec).value();
  const VaFile uniform =
      VaFile::Build(table, {VaQuantization::kUniform, 3}).value();
  const VaFile equi_depth =
      VaFile::Build(table, {VaQuantization::kEquiDepth, 3}).value();
  // Data-located workload: each interval starts at the value of a randomly
  // sampled record, so hot values anchor most queries.
  Rng rng(59);
  std::vector<RangeQuery> data_located;
  for (int i = 0; i < 30; ++i) {
    RangeQuery q;
    q.semantics = MissingSemantics::kMatch;
    for (size_t a = 0; a < 2; ++a) {
      Value v = kMissingValue;
      while (IsMissing(v)) {
        v = table.Get(rng.UniformInt(0, table.num_rows() - 1), a);
      }
      const Value hi = std::min<Value>(v + 9, 100);
      q.terms.push_back({a, {v, hi}});
    }
    data_located.push_back(q);
  }
  const Result<std::vector<RangeQuery>> queries = data_located;
  ASSERT_TRUE(queries.ok());
  uint64_t fp_uniform = 0;
  uint64_t fp_equi_depth = 0;
  for (const RangeQuery& q : queries.value()) {
    QueryStats stats;
    ASSERT_TRUE(uniform.Execute(q, &stats).ok());
    fp_uniform += stats.false_positives;
    stats.Reset();
    ASSERT_TRUE(equi_depth.Execute(q, &stats).ok());
    fp_equi_depth += stats.false_positives;
  }
  EXPECT_LT(fp_equi_depth, fp_uniform);
}

}  // namespace
}  // namespace incdb
