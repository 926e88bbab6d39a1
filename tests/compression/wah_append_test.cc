// Builder equivalence: the bulk appenders (AppendRun, AppendGroup) must
// build exactly the vector — code words, active word and size — that the
// same bits appended one AppendBit at a time would build.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "compression/wah_bitvector.h"

namespace incdb {
namespace {

using wah_internal::kFullLiteral;
using wah_internal::kMaxFillGroups;
using wah_internal::MakeFill;

constexpr uint64_t kGroup = WahBitVector::kGroupBits;

void AppendBits(WahBitVector* vec, bool bit, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) vec->AppendBit(bit);
}

void AppendLiteralBits(WahBitVector* vec, uint32_t literal) {
  for (uint64_t i = 0; i < kGroup; ++i) vec->AppendBit((literal >> i) & 1);
}

TEST(WahAppendTest, AppendRunMatchesPerBitReference) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    WahBitVector bulk;
    WahBitVector reference;
    const int runs = static_cast<int>(rng.UniformInt(1, 40));
    for (int r = 0; r < runs; ++r) {
      const bool bit = rng.Bernoulli(0.5);
      // Mostly short runs that start and end inside a group, some that
      // straddle one or several group edges, and empty ones.
      uint64_t count = 0;
      switch (rng.UniformInt(0, 3)) {
        case 0:
          count = static_cast<uint64_t>(rng.UniformInt(0, 3));
          break;
        case 1:
          count = static_cast<uint64_t>(rng.UniformInt(25, 70));
          break;
        case 2:
          count = kGroup * static_cast<uint64_t>(rng.UniformInt(1, 4)) +
                  static_cast<uint64_t>(rng.UniformInt(-1, 1));
          break;
        default:
          count = static_cast<uint64_t>(rng.UniformInt(0, 500));
          break;
      }
      bulk.AppendRun(bit, count);
      AppendBits(&reference, bit, count);
      ASSERT_EQ(bulk, reference)
          << "trial " << trial << " run " << r << " (" << bit << " x "
          << count << "): " << bulk.DebugString() << " vs "
          << reference.DebugString();
      ASSERT_EQ(bulk.size(), reference.size());
    }
    EXPECT_EQ(bulk.Decompress(), reference.Decompress());
  }
}

TEST(WahAppendTest, AppendRunStraddlesGroupEdges) {
  for (uint64_t lead = 0; lead < kGroup; ++lead) {
    for (uint64_t count : {uint64_t{1}, kGroup - lead, kGroup - lead + 1,
                           2 * kGroup, 2 * kGroup + 30}) {
      for (bool bit : {false, true}) {
        WahBitVector bulk;
        WahBitVector reference;
        AppendBits(&bulk, !bit, lead);
        AppendBits(&reference, !bit, lead);
        bulk.AppendRun(bit, count);
        AppendBits(&reference, bit, count);
        ASSERT_EQ(bulk, reference)
            << "lead " << lead << " count " << count << " bit " << bit;
      }
    }
  }
}

// A run longer than one fill word can count takes O(1) code words and
// O(1) time; its expected shape is spelled out instead of built bit by bit.
TEST(WahAppendTest, AppendRunBeyondOneFillWord) {
  const uint64_t count = kMaxFillGroups * kGroup + 5;
  for (bool bit : {false, true}) {
    WahBitVector vec;
    vec.AppendRun(bit, 3);  // a partial group the run must top up first
    vec.AppendRun(bit, count);
    const uint64_t total = count + 3;
    ASSERT_EQ(vec.size(), total);
    // 3 + 28 bits top up group 0 (a fill of `bit`, merged with what
    // follows), then kMaxFillGroups - 1 more full groups and 8 tail bits.
    ASSERT_EQ(vec.NumWords(), 1u);
    EXPECT_EQ(vec.code_words()[0], MakeFill(bit, kMaxFillGroups));
    EXPECT_EQ(vec.active_bits(), 8);
    EXPECT_EQ(vec.active_word(), bit ? 0xFFu : 0u);
    EXPECT_EQ(vec.Count(), bit ? total : 0u);
    EXPECT_LE(vec.SizeInBytes(), 8u);

    // Two more groups spill into a second fill word.
    vec.AppendRun(bit, 2 * kGroup);
    ASSERT_EQ(vec.NumWords(), 2u);
    EXPECT_EQ(vec.code_words()[1], MakeFill(bit, 2));
    EXPECT_EQ(vec.active_bits(), 8);
    EXPECT_TRUE(vec.ValidateStructure().ok());
  }
}

TEST(WahAppendTest, AppendGroupMatchesThirtyOneAppendBits) {
  Rng rng(31);
  std::vector<uint32_t> literals = {0, kFullLiteral, 0, 0, kFullLiteral,
                                    kFullLiteral, 1, kFullLiteral - 1,
                                    uint32_t{1} << 30, 0x2AAAAAAAu};
  for (int i = 0; i < 200; ++i) {
    const int kind = static_cast<int>(rng.UniformInt(0, 2));
    literals.push_back(kind == 0   ? 0u
                       : kind == 1 ? kFullLiteral
                                   : static_cast<uint32_t>(rng.Next()) &
                                         kFullLiteral);
  }
  WahBitVector bulk;
  WahBitVector reference;
  for (size_t i = 0; i < literals.size(); ++i) {
    bulk.AppendGroup(literals[i]);
    AppendLiteralBits(&reference, literals[i]);
    ASSERT_EQ(bulk, reference) << "literal " << i << " = " << literals[i];
  }
  // Runs and groups interleave: a run leaves the vector group-aligned when
  // its length completes the group.
  bulk.AppendRun(true, 2 * kGroup + 4);
  AppendBits(&reference, true, 2 * kGroup + 4);
  bulk.AppendRun(false, kGroup - 4);
  AppendBits(&reference, false, kGroup - 4);
  bulk.AppendGroup(0x12345u);
  AppendLiteralBits(&reference, 0x12345u);
  EXPECT_EQ(bulk, reference);
}

TEST(WahAppendTest, AppendGroupFoldsUniformGroupsIntoFills) {
  WahBitVector vec;
  vec.AppendGroup(0);
  vec.AppendGroup(0);
  vec.AppendGroup(0);
  ASSERT_EQ(vec.NumWords(), 1u);
  EXPECT_EQ(vec.code_words()[0], MakeFill(false, 3));
  vec.AppendGroup(kFullLiteral);
  vec.AppendGroup(kFullLiteral);
  ASSERT_EQ(vec.NumWords(), 2u);
  EXPECT_EQ(vec.code_words()[1], MakeFill(true, 2));
  vec.AppendGroup(5);
  ASSERT_EQ(vec.NumWords(), 3u);
  EXPECT_EQ(vec.code_words()[2], 5u);
  EXPECT_EQ(vec.size(), 6 * kGroup);
  EXPECT_EQ(vec.Count(), 2 * kGroup + 2);
}

}  // namespace
}  // namespace incdb
