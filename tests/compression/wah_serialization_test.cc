// The store's WAH decoder: FromBorrowed views code words in place (the
// mmap open path) and ValidateStructure cross-checks them against the
// declared size. Both read untrusted bytes, so every malformed shape must
// come back as an IOError, never as a vector that decodes past its size.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "compression/wah_bitvector.h"

namespace incdb {
namespace {

using wah_internal::kMaxFillGroups;
using wah_internal::MakeFill;

WahBitVector RandomWah(Rng& rng, uint64_t n, double density) {
  WahBitVector wah;
  uint64_t i = 0;
  while (i < n) {
    const bool bit = rng.Bernoulli(density);
    const uint64_t run =
        std::min<uint64_t>(n - i, 1 + rng.UniformInt(0, 100));
    wah.AppendRun(bit, run);
    i += run;
  }
  return wah;
}

StatusCode BorrowedStatus(std::span<const uint32_t> words,
                          uint32_t active_word, int active_bits,
                          uint64_t size) {
  auto vec = WahBitVector::FromBorrowed(words, active_word, active_bits, size);
  if (!vec.ok()) return vec.status().code();
  return vec->ValidateStructure().code();
}

TEST(WahSerializationTest, RoundTripVariousShapes) {
  Rng rng(3);
  for (uint64_t n : {0u, 1u, 31u, 62u, 100u, 10000u}) {
    for (double density : {0.0, 0.01, 0.5, 1.0}) {
      const WahBitVector original = RandomWah(rng, n, density);
      const std::vector<uint32_t> words(original.code_words().begin(),
                                        original.code_words().end());
      const auto borrowed = WahBitVector::FromBorrowed(
          words, original.active_word(), original.active_bits(),
          original.size());
      ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
      EXPECT_TRUE(borrowed->ValidateStructure().ok());
      EXPECT_TRUE(borrowed.value() == original)
          << "n=" << n << " d=" << density;
    }
  }
}

TEST(WahSerializationTest, BorrowedVectorsComputeLikeOwned) {
  // The store serves queries straight off borrowed words: every read path
  // must see the same bits as the owned original, and appending detaches
  // without touching the borrowed buffer.
  Rng rng(5);
  const WahBitVector a = RandomWah(rng, 5000, 0.3);
  const WahBitVector b = RandomWah(rng, 5000, 0.7);
  const std::vector<uint32_t> words(a.code_words().begin(),
                                    a.code_words().end());
  auto borrowed =
      WahBitVector::FromBorrowed(words, a.active_word(), a.active_bits(),
                                 a.size());
  ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
  ASSERT_TRUE(borrowed->borrowed());
  EXPECT_EQ(borrowed->Count(), a.Count());
  EXPECT_EQ(borrowed->SizeInBytes(), a.SizeInBytes());
  for (uint64_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(borrowed->Get(i), a.Get(i)) << i;
  }
  EXPECT_TRUE(borrowed->And(b) == a.And(b));
  EXPECT_TRUE(borrowed->Or(b) == a.Or(b));
  EXPECT_TRUE(borrowed->AndNot(b) == a.AndNot(b));
  EXPECT_TRUE(borrowed->Not() == a.Not());
  const WahBitVector* operands[] = {&borrowed.value(), &b};
  EXPECT_TRUE(WahBitVector::AndMany(operands) == a.And(b));

  borrowed->AppendRun(true, 40);
  EXPECT_FALSE(borrowed->borrowed());
  EXPECT_EQ(borrowed->size(), a.size() + 40);
  EXPECT_TRUE(std::equal(words.begin(), words.end(),
                         a.code_words().begin(), a.code_words().end()));
}

TEST(WahSerializationTest, RejectsBadActiveBits) {
  for (int active_bits : {-1, 31, 32, 64}) {
    EXPECT_EQ(BorrowedStatus({}, 0, active_bits, 100), StatusCode::kIOError)
        << active_bits;
  }
}

TEST(WahSerializationTest, RejectsStrayActiveWordBits) {
  // active_bits = 2, but bits beyond the low 2 are set.
  EXPECT_EQ(BorrowedStatus({}, 0xF, 2, 2), StatusCode::kIOError);
  EXPECT_EQ(BorrowedStatus({}, 0x4, 2, 2), StatusCode::kIOError);
  EXPECT_EQ(BorrowedStatus({}, 0x3, 2, 2), StatusCode::kOk);
}

TEST(WahSerializationTest, RejectsSizeBelowActiveBits) {
  EXPECT_EQ(BorrowedStatus({}, 0x1, 5, 4), StatusCode::kIOError);
  EXPECT_EQ(BorrowedStatus({}, 0x1, 5, 5), StatusCode::kOk);
}

TEST(WahSerializationTest, RejectsSizeMismatch) {
  // A 1-fill of 2 groups decodes to 62 bits; any other declared size
  // disagrees with the group count.
  const uint32_t words[] = {MakeFill(true, 2)};
  EXPECT_EQ(BorrowedStatus(words, 0, 0, 62), StatusCode::kOk);
  for (uint64_t size : {0u, 31u, 61u, 63u, 93u}) {
    EXPECT_EQ(BorrowedStatus(words, 0, 0, size), StatusCode::kIOError)
        << size;
  }
  // The active bits count towards the size too.
  EXPECT_EQ(BorrowedStatus(words, 0x1, 1, 63), StatusCode::kOk);
  EXPECT_EQ(BorrowedStatus(words, 0x1, 1, 62), StatusCode::kIOError);
}

TEST(WahSerializationTest, ValidateStructureRejectsFillsPastDeclaredSize) {
  // Adversarial payload: maximal 0-fills (2^30 - 1 groups each) behind a
  // declared size of one group. The running bound must reject the walk at
  // the first fill that overshoots, whatever follows it.
  std::vector<uint32_t> words(64, MakeFill(false, kMaxFillGroups));
  EXPECT_EQ(BorrowedStatus(words, 0, 0, 31), StatusCode::kIOError);
  // A literal, then fills whose groups add up to exactly the declared size,
  // is accepted; one group more is not.
  words = {0x1u, MakeFill(false, kMaxFillGroups),
           MakeFill(true, kMaxFillGroups)};
  const uint64_t groups = 1 + 2 * kMaxFillGroups;
  EXPECT_EQ(BorrowedStatus(words, 0, 0, groups * 31), StatusCode::kOk);
  EXPECT_EQ(BorrowedStatus(words, 0, 0, (groups - 1) * 31),
            StatusCode::kIOError);
}

TEST(WahSerializationTest, TruncatedWordsFail) {
  WahBitVector wah;
  for (int i = 0; i < 40; ++i) wah.AppendRun(i % 3 == 0, 17 + i);
  const std::span<const uint32_t> words = wah.code_words();
  ASSERT_GT(words.size(), 2u);
  EXPECT_EQ(BorrowedStatus(words, wah.active_word(), wah.active_bits(),
                           wah.size()),
            StatusCode::kOk);
  EXPECT_EQ(BorrowedStatus(words.first(words.size() / 2), wah.active_word(),
                           wah.active_bits(), wah.size()),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace incdb
