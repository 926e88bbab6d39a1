#ifndef INCDB_COMMON_IO_H_
#define INCDB_COMMON_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace incdb {

/// Little-endian binary writer over a std::ostream. Used by the store's
/// catalog (storage/writer.cc).
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void WriteU8(uint8_t value) { WriteRaw(&value, 1); }
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI32(int32_t value) { WriteU32(static_cast<uint32_t>(value)); }
  void WriteDouble(double value);
  /// Length-prefixed (u64) byte string.
  void WriteString(const std::string& value);
  /// Length-prefixed (u64) vector of u32.
  void WriteU32Vector(const std::vector<uint32_t>& values);
  /// Length-prefixed (u64) vector of u64.
  void WriteU64Vector(const std::vector<uint64_t>& values);

  /// OK unless a stream write failed at any point.
  Status status() const;

 private:
  void WriteRaw(const void* data, size_t size);

  std::ostream& out_;
};

/// Little-endian binary reader matching BinaryWriter. All Read* methods
/// return an error on truncated input; limits guard against corrupted
/// length prefixes.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(in) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<double> ReadDouble();
  /// Rejects lengths above `max_len` (corruption guard).
  Result<std::string> ReadString(uint64_t max_len = 1 << 20);
  Result<std::vector<uint32_t>> ReadU32Vector(uint64_t max_len = 1ull << 32);
  Result<std::vector<uint64_t>> ReadU64Vector(uint64_t max_len = 1ull << 32);

 private:
  Status ReadRaw(void* data, size_t size);

  std::istream& in_;
};

}  // namespace incdb

#endif  // INCDB_COMMON_IO_H_
