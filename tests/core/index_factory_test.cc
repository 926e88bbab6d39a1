#include "core/index_factory.h"

#include <gtest/gtest.h>

#include "table/generator.h"

namespace incdb {
namespace {

const IndexKind kAllKinds[] = {
    IndexKind::kSequentialScan,       IndexKind::kBitmapEquality,
    IndexKind::kBitmapRange,          IndexKind::kBitmapInterval,
    IndexKind::kBitmapBitSliced,      IndexKind::kVaFile,
    IndexKind::kVaPlusFile,           IndexKind::kBitmapMultiComponent,
    IndexKind::kBitmapHierarchical,
};

TEST(IndexFactoryTest, CreatesEveryKind) {
  const Table table = GenerateTable(UniformSpec(200, 8, 0.2, 4, 81)).value();
  for (IndexKind kind : kAllKinds) {
    const auto index = CreateIndex(kind, table);
    ASSERT_TRUE(index.ok()) << IndexKindToString(kind);
    EXPECT_EQ(index.value()->Name(), IndexKindToString(kind));
  }
}

TEST(IndexFactoryTest, IndexesAnswerAQuery) {
  const Table table = GenerateTable(UniformSpec(200, 8, 0.2, 4, 83)).value();
  RangeQuery q;
  q.terms = {{0, {2, 5}}, {1, {1, 4}}};
  q.semantics = MissingSemantics::kMatch;
  uint64_t expected = 0;
  bool first = true;
  for (IndexKind kind : kAllKinds) {
    const auto index = CreateIndex(kind, table).value();
    const auto result = index->Execute(q);
    ASSERT_TRUE(result.ok()) << index->Name();
    if (first) {
      expected = result.value().Count();
      first = false;
    } else {
      EXPECT_EQ(result.value().Count(), expected) << index->Name();
    }
  }
}

TEST(IndexFactoryTest, ScanHasZeroSizeOthersPositive) {
  const Table table = GenerateTable(UniformSpec(200, 8, 0.2, 4, 85)).value();
  EXPECT_EQ(
      CreateIndex(IndexKind::kSequentialScan, table).value()->SizeInBytes(),
      0u);
  for (IndexKind kind : kAllKinds) {
    if (kind == IndexKind::kSequentialScan) continue;
    EXPECT_GT(CreateIndex(kind, table).value()->SizeInBytes(), 0u)
        << IndexKindToString(kind);
  }
}

TEST(IndexFactoryTest, PropagatesBuildFailures) {
  auto empty = Table::Create(Schema({{"x", 5}})).value();
  EXPECT_FALSE(CreateIndex(IndexKind::kBitmapEquality, empty).ok());
  EXPECT_FALSE(CreateIndex(IndexKind::kVaFile, empty).ok());
  EXPECT_FALSE(CreateIndex(IndexKind::kBitmapMultiComponent, empty).ok());
}

TEST(IndexKindTest, Names) {
  EXPECT_EQ(IndexKindToString(IndexKind::kBitmapEquality), "BEE-WAH");
  EXPECT_EQ(IndexKindToString(IndexKind::kVaPlusFile), "VA+-File");
}

TEST(IndexKindTest, NamesParseBackAndUnknownNamesListTheAliases) {
  for (IndexKind kind : kAllKinds) {
    EXPECT_EQ(IndexKindFromString(IndexKindToString(kind)).value(), kind);
  }
  EXPECT_EQ(IndexKindFromString("HIER").value(),
            IndexKind::kBitmapHierarchical);
  const auto retired = IndexKindFromString("mosaic");
  ASSERT_FALSE(retired.ok());
  EXPECT_NE(retired.status().message().find(
                "scan, bee, bre, bie, bsl, va, va+, mc, hier"),
            std::string::npos)
      << retired.status().message();
}

// The values are the store's on-disk kind tags: renumbering one would make
// existing stores open with the wrong index kind.
TEST(IndexKindTest, CatalogTagsAreStable) {
  const std::pair<IndexKind, int> kTags[] = {
      {IndexKind::kSequentialScan, 0},   {IndexKind::kBitmapEquality, 1},
      {IndexKind::kBitmapRange, 2},      {IndexKind::kBitmapInterval, 3},
      {IndexKind::kBitmapBitSliced, 4},  {IndexKind::kVaFile, 5},
      {IndexKind::kVaPlusFile, 6},       {IndexKind::kBitmapMultiComponent, 9},
      {IndexKind::kBitmapHierarchical, 10},
  };
  for (const auto& [kind, tag] : kTags) {
    EXPECT_EQ(static_cast<int>(kind), tag) << IndexKindToString(kind);
    EXPECT_EQ(IndexKindFromTag(static_cast<uint8_t>(tag)).value(), kind);
  }
  EXPECT_NE(IndexKindFromTag(7).status().message().find("MOSAIC"),
            std::string::npos);
  EXPECT_NE(
      IndexKindFromTag(8).status().message().find("bitstring-augmented"),
      std::string::npos);
  EXPECT_FALSE(IndexKindFromTag(11).ok());
  EXPECT_FALSE(IndexKindFromTag(255).ok());
}

}  // namespace
}  // namespace incdb
