// CRC-32 checks: the slicing-by-8 Crc32 must produce the standard IEEE
// CRC-32 (the value every store file records) for every length, alignment
// and seed, and the incremental accumulator must agree with the one-shot
// call wherever the stream is split.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/checksum.h"

namespace incdb {
namespace storage {
namespace {

// The definition of the reflected CRC-32, one bit at a time.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size,
                        uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(Rng& rng, size_t size) {
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

TEST(Crc32Test, KnownVectors) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(check.data(), 0), 0u);
  // An empty buffer leaves a running checksum unchanged.
  EXPECT_EQ(Crc32(check.data(), 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(0x5EED);
  const std::vector<unsigned char> buffer = RandomBytes(rng, 300 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(Crc32(data, length, seed), ReferenceCrc32(data, length, seed))
          << "offset " << offset << " length " << length << " seed " << seed;
      ASSERT_EQ(Crc32(data, length), ReferenceCrc32(data, length, 0))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, AccumulatorEqualsOneShotAtEverySplit) {
  Rng rng(20060329);
  const std::vector<unsigned char> bytes = RandomBytes(rng, 97);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    Crc32Accumulator acc;
    acc.Update(bytes.data(), split);
    acc.Update(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(acc.crc(), whole) << "split at " << split;
    EXPECT_EQ(acc.bytes(), bytes.size());
  }
  // One byte at a time, and back to zero after Reset.
  Crc32Accumulator acc;
  for (unsigned char b : bytes) acc.Update(&b, 1);
  EXPECT_EQ(acc.crc(), whole);
  acc.Reset();
  EXPECT_EQ(acc.crc(), 0u);
  EXPECT_EQ(acc.bytes(), 0u);
}

}  // namespace
}  // namespace storage
}  // namespace incdb
