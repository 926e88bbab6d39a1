#include "storage/checksum.h"

#include <array>

namespace incdb {
namespace storage {

namespace {

// Slicing-by-8 CRC-32 (reflected, polynomial 0xEDB88320): eight table
// lookups fold eight input bytes per step, against one lookup per byte for
// the classic table loop, and the result is the same CRC. About 1.5 GB/s on
// a 4-vCPU x86 host (bench_persistence prints the figure), 5x the byte loop
// — which matters because Database::Open verifies every section by default,
// so a verified open reads the whole store through this function.
//
// kCrcTables[0] is the byte-at-a-time table; kCrcTables[k][b] is the CRC of
// byte b followed by k zero bytes, so byte i of an 8-byte block (i = 0
// first) goes through table 7 - i.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// Little-endian 32-bit load; compilers fold it into one unaligned load.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ crc;
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = kCrcTables[7][lo & 0xFFu] ^ kCrcTables[6][(lo >> 8) & 0xFFu] ^
          kCrcTables[5][(lo >> 16) & 0xFFu] ^ kCrcTables[4][lo >> 24] ^
          kCrcTables[3][hi & 0xFFu] ^ kCrcTables[2][(hi >> 8) & 0xFFu] ^
          kCrcTables[1][(hi >> 16) & 0xFFu] ^ kCrcTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ kCrcTables[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace storage
}  // namespace incdb
