#ifndef INCDB_BITVECTOR_BITVECTOR_H_
#define INCDB_BITVECTOR_BITVECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace incdb {

/// Uncompressed (verbatim) bitvector with word-parallel logical operations.
///
/// This is both the in-memory working representation for query results and
/// the reference ("ground truth") implementation the WAH-compressed form is
/// tested against. One bit per record; bit x corresponds to record x.
///
/// Bits beyond size() inside the last word are kept zero at all times; all
/// mutators preserve this invariant so popcount and logical ops can run over
/// whole words.
class BitVector {
 public:
  /// Empty bitvector.
  BitVector() : size_(0) {}

  /// `size` bits, all zero.
  explicit BitVector(uint64_t size);

  /// `size` bits, all set to `value`.
  BitVector(uint64_t size, bool value);

  /// Builds from a bool vector (handy in tests).
  static BitVector FromBools(const std::vector<bool>& bits);

  /// Builds from a string of '0'/'1' characters, e.g. "0001000010".
  /// Characters other than '0'/'1' are rejected.
  static Result<BitVector> FromString(const std::string& bits);

  /// Builds from raw 64-bit words (the storage engine's load path).
  /// `words` must be exactly CeilDiv(size, 64) long with every bit beyond
  /// `size` zero (the class invariant); violations are rejected.
  static Result<BitVector> FromWords(uint64_t size,
                                     std::vector<uint64_t> words);

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Value of bit `index`. Requires index < size().
  bool Get(uint64_t index) const;

  /// Sets bit `index` to `value`. Requires index < size().
  void Set(uint64_t index, bool value = true);

  /// Sets every bit in [begin, end) to one. Requires begin <= end <= size().
  /// Word-at-a-time; used by WAH decompression to expand one-fills.
  void SetRange(uint64_t begin, uint64_t end);

  /// ORs `bits` into word `word_index` (bits 64 * word_index onwards). Bits
  /// at or beyond size() must be zero. Producers that evaluate 64 rows at a
  /// time write whole words; writers of distinct words share no memory.
  void OrWord(uint64_t word_index, uint64_t bits) {
    INCDB_DCHECK(word_index < words_.size());
    INCDB_DCHECK(word_index + 1 < words_.size() || size_ % 64 == 0 ||
                 (bits >> (size_ % 64)) == 0);
    words_[word_index] |= bits;
  }

  /// Appends one bit at the end.
  void PushBack(bool value);

  /// Resizes; new bits are zero.
  void Resize(uint64_t new_size);

  /// Sets all bits to zero / one without changing size.
  void ClearAll();
  void SetAll();

  /// Number of set bits.
  uint64_t Count() const;

  /// Fraction of set bits (0 for an empty vector). The paper's "bit density".
  double Density() const;

  /// In-place logical operations. The operand must have equal size.
  void AndWith(const BitVector& other);
  void OrWith(const BitVector& other);
  void XorWith(const BitVector& other);
  /// ORs `src` into this vector starting at bit `offset` (the segment
  /// splice: local per-segment results land at their global row offset).
  /// Requires offset + src.size() <= size(). Word-parallel with a single
  /// shift when the offset is not 64-aligned.
  void OrAt(const BitVector& src, uint64_t offset);
  /// In-place complement (respects the trailing-bits-zero invariant).
  void Flip();

  /// Calls `fn(index)` for every set bit, in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const;

  /// Indices of all set bits, ascending.
  std::vector<uint32_t> ToIndices() const;

  /// Indices of the first `limit` set bits, ascending (all of them when
  /// fewer are set). Scans only the words up to the limit-th set bit.
  std::vector<uint32_t> FirstIndices(uint64_t limit) const;

  /// '0'/'1' string, bit 0 first (matches the paper's tables).
  std::string ToString() const;

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

  /// Underlying 64-bit words, little-endian bit order within a word.
  const std::vector<uint64_t>& words() const { return words_; }

  /// Bytes of payload memory (words only, excludes object header).
  uint64_t SizeInBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  void ZeroTrailingBits();

  uint64_t size_;
  std::vector<uint64_t> words_;
};

/// Out-of-place logical operations. Operands must have equal size.
BitVector And(const BitVector& a, const BitVector& b);
BitVector Or(const BitVector& a, const BitVector& b);
BitVector Xor(const BitVector& a, const BitVector& b);
BitVector Not(const BitVector& a);

template <typename Fn>
void BitVector::ForEachSetBit(Fn&& fn) const {
  for (uint64_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      fn(w * 64 + static_cast<uint64_t>(bit));
      word &= word - 1;
    }
  }
}

}  // namespace incdb

#endif  // INCDB_BITVECTOR_BITVECTOR_H_
