#ifndef INCDB_REPRO_BBC_BITVECTOR_H_
#define INCDB_REPRO_BBC_BITVECTOR_H_

#include <cstdint>
#include <vector>

#include "bitvector/bitvector.h"

namespace incdb {

/// Byte-aligned Bitmap Code (BBC, Antoshenkov) — simplified encoder.
///
/// The paper chose WAH over BBC because WAH's word-aligned logical
/// operations are 2-20x faster even though BBC compresses better. This
/// class exists to reproduce that trade-off: byte-granularity run-length
/// compression (finer than WAH's 31-bit groups, hence smaller indexes),
/// with logical operations executed natively over the byte-aligned runs —
/// aligned fill runs combine in O(1), everything else byte-by-byte, which
/// is exactly why BBC ops lose to WAH's word-at-a-time ops.
///
/// Encoding: a sequence of blocks, each
///   header byte:  bit 7    = fill bit value
///                 bits 4-6 = number of literal bytes following (0-7)
///                 bits 0-3 = fill length in bytes; 15 means the length
///                            continues in a following varint
///   [varint fill length]   when the 4-bit field is 15
///   [literal bytes]
/// Each block is `fill_len` copies of the fill byte (0x00 or 0xFF) followed
/// by the literal bytes. Trailing bits short of a byte are stored in the
/// final literal byte, zero-padded (size() disambiguates).
class BbcBitVector {
 public:
  BbcBitVector() = default;

  /// Compresses a verbatim bitvector.
  static BbcBitVector Compress(const BitVector& bits);

  /// Expands to a verbatim bitvector.
  BitVector Decompress() const;

  uint64_t size() const { return size_; }

  /// Compressed payload bytes.
  uint64_t SizeInBytes() const { return bytes_.size(); }

  /// Compressed bytes divided by verbatim bitmap bytes (size()/8).
  double CompressionRatio() const;

  /// Logical operations over the compressed byte-aligned form. Operands
  /// must have equal size(); the result is compressed.
  BbcBitVector And(const BbcBitVector& other) const;
  BbcBitVector Or(const BbcBitVector& other) const;
  BbcBitVector Xor(const BbcBitVector& other) const;

  bool operator==(const BbcBitVector& other) const {
    return size_ == other.size_ && bytes_ == other.bytes_;
  }

 private:
  // Run-merging byte-aligned op; op codes: 0 = AND, 1 = OR, 2 = XOR.
  BbcBitVector BinaryOp(const BbcBitVector& other, int op) const;

  std::vector<uint8_t> bytes_;
  uint64_t size_ = 0;
};

}  // namespace incdb

#endif  // INCDB_REPRO_BBC_BITVECTOR_H_
