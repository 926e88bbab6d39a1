// Builder equivalence for the encoding engine: SetBitBuilder and
// AxisEncoder buffer a 31-row group and compress it once, and must build
// exactly the vectors a per-row AppendBit of each bitmap's definition
// builds — every encoding, the all-ones missing strategy's multi-slot
// rows, gaps on both sides of group edges and partial tail groups.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bitmap/encoder.h"
#include "common/rng.h"
#include "compression/wah_bitvector.h"

namespace incdb {
namespace {

constexpr uint64_t kGaps[] = {0, 1, 30, 31, 32, 61, 62};
constexpr uint64_t kNumRows[] = {1, 30, 31, 32, 62, 63, 100003};

// Set rows separated by gaps drawn from kGaps, starting after a random gap.
std::vector<uint64_t> GappedRows(Rng& rng, uint64_t num_rows) {
  std::vector<uint64_t> rows;
  uint64_t row = kGaps[rng.UniformInt(0, 6)];
  while (row < num_rows) {
    rows.push_back(row);
    row += 1 + kGaps[rng.UniformInt(0, 6)];
  }
  return rows;
}

TEST(SetBitBuilderTest, MatchesPerRowReference) {
  Rng rng(2006);
  for (uint64_t num_rows : kNumRows) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint64_t> rows = GappedRows(rng, num_rows);
      if (trial == 0) rows.clear();  // an all-zero vector
      if (trial == 1) {              // an all-one vector
        rows.clear();
        for (uint64_t r = 0; r < num_rows; ++r) rows.push_back(r);
      }
      SetBitBuilder builder;
      for (uint64_t r : rows) builder.SetBitAt(r);
      const WahBitVector built = builder.Finish(num_rows);

      WahBitVector reference;
      size_t next = 0;
      for (uint64_t r = 0; r < num_rows; ++r) {
        const bool set = next < rows.size() && rows[next] == r;
        if (set) ++next;
        reference.AppendBit(set);
      }
      ASSERT_EQ(built, reference)
          << "num_rows " << num_rows << " trial " << trial << ": "
          << built.DebugString() << " vs " << reference.DebugString();
      EXPECT_EQ(built.Count(), rows.size());
    }
  }
}

// One row of an axis: a slot, or nullopt for a missing row.
using SlotStream = std::vector<std::optional<uint32_t>>;

// Runs of one slot (or of missing rows) whose lengths are gap + 1 for a gap
// from kGaps, so every slot's bitmap sees those gaps between its rows.
SlotStream MakeSlotStream(Rng& rng, uint64_t num_rows, uint32_t num_slots) {
  SlotStream stream;
  while (stream.size() < num_rows) {
    const int64_t pick = rng.UniformInt(-1, num_slots - 1);
    const std::optional<uint32_t> slot =
        pick < 0 ? std::nullopt
                 : std::optional<uint32_t>(static_cast<uint32_t>(pick));
    const uint64_t run = 1 + kGaps[rng.UniformInt(0, 6)];
    for (uint64_t i = 0; i < run && stream.size() < num_rows; ++i) {
      stream.push_back(slot);
    }
  }
  return stream;
}

// Bit `j` of a row under each encoding's definition (encoder.h): slot s
// holds value s + 1; range and missing: value 0; kAllOnes: every slot.
bool ReferenceBit(BitmapEncoding encoding, uint32_t num_slots, uint32_t j,
                  std::optional<uint32_t> slot, bool all_ones_missing) {
  switch (encoding) {
    case BitmapEncoding::kEquality:
      return slot.has_value() ? *slot == j : all_ones_missing;
    case BitmapEncoding::kRange:
      return !slot.has_value() || *slot <= j;
    case BitmapEncoding::kInterval: {
      if (!slot.has_value()) return false;
      // I_{j+1} covers values [j+1, j+m].
      const uint32_t value = *slot + 1;
      return j + 1 <= value && value <= j + IntervalEncodingM(num_slots);
    }
    case BitmapEncoding::kBitSliced:
      return slot.has_value() && (((*slot + 1) >> j) & 1) != 0;
  }
  return false;
}

struct AxisCase {
  BitmapEncoding encoding;
  bool all_ones_missing;  // equality only: MissingStrategy::kAllOnes
};

std::string CaseName(const AxisCase& c) {
  return std::string(BitmapEncodingToString(c.encoding)) +
         (c.all_ones_missing ? "(all-ones)" : "");
}

TEST(AxisEncoderTest, MatchesPerRowReference) {
  Rng rng(1973);
  for (const AxisCase c : {AxisCase{BitmapEncoding::kEquality, false},
                           AxisCase{BitmapEncoding::kEquality, true},
                           AxisCase{BitmapEncoding::kRange, false},
                           AxisCase{BitmapEncoding::kInterval, false},
                           AxisCase{BitmapEncoding::kBitSliced, false}}) {
    for (uint32_t num_slots : {2u, 3u, 7u, 10u}) {
      for (uint64_t num_rows : kNumRows) {
        const SlotStream stream = MakeSlotStream(rng, num_rows, num_slots);
        AxisEncoder encoder(c.encoding, num_slots);
        for (uint64_t r = 0; r < num_rows; ++r) {
          if (stream[r].has_value()) {
            encoder.AddRow(r, *stream[r]);
          } else if (c.all_ones_missing) {
            for (uint32_t s = 0; s < num_slots; ++s) encoder.AddRow(r, s);
          } else {
            encoder.AddMissingRow(r);
          }
        }
        const std::vector<WahBitVector> built = encoder.Finish(num_rows);

        const uint64_t num_bitmaps =
            AxisEncoder::NumBitmaps(c.encoding, num_slots);
        ASSERT_EQ(built.size(), num_bitmaps) << CaseName(c);
        for (uint32_t j = 0; j < num_bitmaps; ++j) {
          WahBitVector reference;
          for (uint64_t r = 0; r < num_rows; ++r) {
            reference.AppendBit(ReferenceBit(c.encoding, num_slots, j,
                                             stream[r], c.all_ones_missing));
          }
          ASSERT_EQ(built[j], reference)
              << CaseName(c) << " C=" << num_slots << " rows=" << num_rows
              << " bitmap " << j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace incdb
