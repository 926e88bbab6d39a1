// Reproduces the paper's worked encoding examples bit-for-bit:
// Tables 1/2 (equality encoding with missing data) and Tables 3/4 (range
// encoding), plus the interval-evaluation rules of Figs. 2 and 3 on that
// same 10-record attribute.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "bitmap/bitmap_index.h"
#include "table/table.h"

namespace incdb {
namespace {

// The example attribute from paper §4: cardinality 5, 10 records with
// values 5, 2, 3, missing, 4, 5, 1, 3, missing, 2.
Table PaperExampleTable() {
  auto table = Table::Create(Schema({{"A1", 5}})).value();
  for (Value v : {5, 2, 3, kMissingValue, 4, 5, 1, 3, kMissingValue, 2}) {
    EXPECT_TRUE(table.AppendRow({v}).ok());
  }
  return table;
}

BitmapIndex BuildIndex(const Table& table, BitmapEncoding encoding) {
  auto index =
      BitmapIndex::Build(table, {encoding, MissingStrategy::kExtraBitmap});
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

std::string Bits(const WahBitVector& wah) {
  return wah.Decompress().ToString();
}

// Paper Table 2: the equality-encoded bitmap vectors.
TEST(PaperExamplesTest, Table2EqualityBitmaps) {
  const Table table = PaperExampleTable();
  const BitmapIndex index = BuildIndex(table, BitmapEncoding::kEquality);
  ASSERT_NE(index.missing_bitmap(0), nullptr);
  EXPECT_EQ(Bits(*index.missing_bitmap(0)), "0001000010");  // B_{1,0}
  EXPECT_EQ(Bits(index.value_bitmap(0, 1)), "0000001000");  // B_{1,1}
  EXPECT_EQ(Bits(index.value_bitmap(0, 2)), "0100000001");  // B_{1,2}
  EXPECT_EQ(Bits(index.value_bitmap(0, 3)), "0010000100");  // B_{1,3}
  EXPECT_EQ(Bits(index.value_bitmap(0, 4)), "0000100000");  // B_{1,4}
  EXPECT_EQ(Bits(index.value_bitmap(0, 5)), "1000010000");  // B_{1,5}
  EXPECT_EQ(index.NumBitmaps(0), 6u);  // C + 1 with missing data
}

// Paper Table 4: the range-encoded bitmap vectors (B_{1,5} dropped).
TEST(PaperExamplesTest, Table4RangeBitmaps) {
  const Table table = PaperExampleTable();
  const BitmapIndex index = BuildIndex(table, BitmapEncoding::kRange);
  ASSERT_NE(index.missing_bitmap(0), nullptr);
  EXPECT_EQ(Bits(*index.missing_bitmap(0)), "0001000010");  // B_{1,0}
  EXPECT_EQ(Bits(index.value_bitmap(0, 1)), "0001001010");  // B_{1,1}
  EXPECT_EQ(Bits(index.value_bitmap(0, 2)), "0101001011");  // B_{1,2}
  EXPECT_EQ(Bits(index.value_bitmap(0, 3)), "0111001111");  // B_{1,3}
  EXPECT_EQ(Bits(index.value_bitmap(0, 4)), "0111101111");  // B_{1,4}
  EXPECT_EQ(index.NumBitmaps(0), 5u);  // C with missing data (top dropped)
}

// BEE row-sum invariant (DESIGN.md #3): every record is 1 in exactly one
// bitmap of an equality-encoded attribute.
TEST(PaperExamplesTest, EqualityRowSumInvariant) {
  const Table table = PaperExampleTable();
  const BitmapIndex index = BuildIndex(table, BitmapEncoding::kEquality);
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    int ones = index.missing_bitmap(0)->Get(r) ? 1 : 0;
    for (size_t j = 1; j <= 5; ++j) {
      if (index.value_bitmap(0, j).Get(r)) ++ones;
    }
    EXPECT_EQ(ones, 1) << "record " << r;
  }
}

// BRE monotonicity invariant (DESIGN.md #4).
TEST(PaperExamplesTest, RangeMonotonicityInvariant) {
  const Table table = PaperExampleTable();
  const BitmapIndex index = BuildIndex(table, BitmapEncoding::kRange);
  for (size_t j = 1; j < 4; ++j) {
    const BitVector a = index.value_bitmap(0, j).Decompress();
    const BitVector b = index.value_bitmap(0, j + 1).Decompress();
    EXPECT_TRUE(Or(a, b) == b) << "B_" << j << " not a subset of B_" << j + 1;
  }
  // Missing rows are 1 in every range bitmap.
  for (size_t j = 1; j <= 4; ++j) {
    EXPECT_TRUE(index.value_bitmap(0, j).Get(3));
    EXPECT_TRUE(index.value_bitmap(0, j).Get(8));
  }
}

struct IntervalCase {
  Value lo;
  Value hi;
  MissingSemantics semantics;
  std::string expected;  // bit string over the 10 example records
  std::string tag = "";  // tells apart cases with equal lo/hi/semantics
};

class PaperIntervalTest
    : public ::testing::TestWithParam<std::tuple<BitmapEncoding, IntervalCase>> {
};

// Both encodings must produce identical (correct) answers for every
// interval shape the paper's Figs. 2/3 enumerate. Expected strings computed
// by hand from the example data 5,2,3,?,4,5,1,3,?,2.
TEST_P(PaperIntervalTest, EvaluatesPaperFormulaCorrectly) {
  const auto& [encoding, c] = GetParam();
  const Table table = PaperExampleTable();
  const BitmapIndex index = BuildIndex(table, encoding);
  const auto result =
      index.EvaluateInterval(0, {c.lo, c.hi}, c.semantics, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Bits(result.value()), c.expected)
      << "interval [" << c.lo << "," << c.hi << "] semantics "
      << MissingSemanticsToString(c.semantics);
}

constexpr MissingSemantics kMatch = MissingSemantics::kMatch;
constexpr MissingSemantics kNoMatch = MissingSemantics::kNoMatch;

// Stable names, e.g. BRE_3to3_nomatch, for the gtest name and for the
// printed parameter (which ctest's test discovery puts in the test ID).
std::string CaseName(const std::tuple<BitmapEncoding, IntervalCase>& param) {
  const IntervalCase& c = std::get<1>(param);
  return std::string(BitmapEncodingToString(std::get<0>(param))) + "_" +
         std::to_string(c.lo) + "to" + std::to_string(c.hi) +
         (c.semantics == kMatch ? "_match" : "_nomatch") +
         (c.tag.empty() ? "" : "_" + c.tag);
}

void PrintTo(const std::tuple<BitmapEncoding, IntervalCase>& param,
             std::ostream* os) {
  *os << CaseName(param);
}

INSTANTIATE_TEST_SUITE_P(
    BothEncodings, PaperIntervalTest,
    ::testing::Combine(
        ::testing::Values(BitmapEncoding::kEquality, BitmapEncoding::kRange,
                          BitmapEncoding::kInterval,
                          BitmapEncoding::kBitSliced),
        ::testing::Values(
            // Fig. 3 row 1: point query at the domain minimum.
            IntervalCase{1, 1, kMatch, "0001001010"},
            IntervalCase{1, 1, kNoMatch, "0000001000"},
            // Fig. 3 row 2: interior point query.
            IntervalCase{3, 3, kMatch, "0011000110"},
            IntervalCase{3, 3, kNoMatch, "0010000100"},
            // Fig. 3 row 3: point query at the domain maximum.
            IntervalCase{5, 5, kMatch, "1001010010"},
            IntervalCase{5, 5, kNoMatch, "1000010000"},
            // Fig. 3 row 4: range anchored at the minimum.
            IntervalCase{1, 3, kMatch, "0111001111"},
            IntervalCase{1, 3, kNoMatch, "0110001101"},
            // Fig. 3 row 5 (via v2 = C): range anchored at the maximum.
            IntervalCase{4, 5, kMatch, "1001110010"},
            IntervalCase{4, 5, kNoMatch, "1000110000"},
            // Fig. 3 row 6: interior range.
            IntervalCase{2, 4, kMatch, "0111100111"},
            IntervalCase{2, 4, kNoMatch, "0110100101"},
            // Whole domain.
            IntervalCase{1, 5, kMatch, "1111111111"},
            IntervalCase{1, 5, kNoMatch, "1110111101"},
            // The paper's example query "value is 4 or 5" (§4.5).
            IntervalCase{4, 5, kMatch, "1001110010", "s45"})),
    [](const ::testing::TestParamInfo<PaperIntervalTest::ParamType>& info) {
      return CaseName(info.param);
    });

// Query execution over the worked example: the paper's §4.5 example query
// "return all records where value is 4 or 5" under both semantics.
TEST(PaperExamplesTest, Section45ExampleQuery) {
  const Table table = PaperExampleTable();
  for (BitmapEncoding encoding :
       {BitmapEncoding::kEquality, BitmapEncoding::kRange,
        BitmapEncoding::kInterval, BitmapEncoding::kBitSliced}) {
    const BitmapIndex index = BuildIndex(table, encoding);
    RangeQuery q;
    q.terms = {{0, {4, 5}}};
    q.semantics = kMatch;
    // Records 1, 5, 6 (values 5, 4, 5) and the missing records 4, 9.
    EXPECT_EQ(index.Execute(q).value().ToIndices(),
              (std::vector<uint32_t>{0, 3, 4, 5, 8}));
    q.semantics = kNoMatch;
    EXPECT_EQ(index.Execute(q).value().ToIndices(),
              (std::vector<uint32_t>{0, 4, 5}));
  }
}

}  // namespace
}  // namespace incdb
