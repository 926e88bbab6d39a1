#include "bitvector/bitvector.h"

#include <algorithm>
#include <cstddef>

#include "common/bitutil.h"
#include "common/logging.h"
#include "simd/simd.h"

namespace incdb {

namespace {
constexpr uint64_t kWordBits = 64;
}  // namespace

BitVector::BitVector(uint64_t size)
    : size_(size), words_(bitutil::CeilDiv(size, kWordBits), 0) {}

BitVector::BitVector(uint64_t size, bool value) : BitVector(size) {
  if (value) SetAll();
}

BitVector BitVector::FromBools(const std::vector<bool>& bits) {
  BitVector bv(bits.size());
  for (uint64_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bv.Set(i);
  }
  return bv;
}

Result<BitVector> BitVector::FromString(const std::string& bits) {
  BitVector bv(bits.size());
  for (uint64_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      bv.Set(i);
    } else if (bits[i] != '0') {
      return Status::InvalidArgument("bit string may contain only '0'/'1'");
    }
  }
  return bv;
}

Result<BitVector> BitVector::FromWords(uint64_t size,
                                       std::vector<uint64_t> words) {
  const uint64_t expected = (size + kWordBits - 1) / kWordBits;
  if (words.size() != expected) {
    return Status::InvalidArgument(
        "bitvector payload has " + std::to_string(words.size()) +
        " words, size " + std::to_string(size) + " needs " +
        std::to_string(expected));
  }
  const int tail_bits = static_cast<int>(size % kWordBits);
  if (tail_bits != 0 && (words.back() >> tail_bits) != 0) {
    return Status::InvalidArgument(
        "bitvector payload has set bits beyond its size");
  }
  BitVector bv;
  bv.size_ = size;
  bv.words_ = std::move(words);
  return bv;
}

bool BitVector::Get(uint64_t index) const {
  INCDB_DCHECK(index < size_);
  return (words_[index / kWordBits] >> (index % kWordBits)) & 1;
}

void BitVector::Set(uint64_t index, bool value) {
  INCDB_DCHECK(index < size_);
  const uint64_t mask = uint64_t{1} << (index % kWordBits);
  if (value) {
    words_[index / kWordBits] |= mask;
  } else {
    words_[index / kWordBits] &= ~mask;
  }
}

void BitVector::SetRange(uint64_t begin, uint64_t end) {
  INCDB_DCHECK(begin <= end && end <= size_);
  if (begin == end) return;
  const uint64_t first_word = begin / kWordBits;
  const uint64_t last_word = (end - 1) / kWordBits;
  const uint64_t head_mask = ~uint64_t{0} << (begin % kWordBits);
  const uint64_t tail_bits = end % kWordBits;
  const uint64_t tail_mask =
      tail_bits == 0 ? ~uint64_t{0} : (uint64_t{1} << tail_bits) - 1;
  if (first_word == last_word) {
    words_[first_word] |= head_mask & tail_mask;
    return;
  }
  words_[first_word] |= head_mask;
  std::fill(words_.begin() + static_cast<ptrdiff_t>(first_word) + 1,
            words_.begin() + static_cast<ptrdiff_t>(last_word), ~uint64_t{0});
  words_[last_word] |= tail_mask;
}

void BitVector::PushBack(bool value) {
  if (size_ % kWordBits == 0) words_.push_back(0);
  ++size_;
  if (value) Set(size_ - 1);
}

void BitVector::Resize(uint64_t new_size) {
  words_.resize(bitutil::CeilDiv(new_size, kWordBits), 0);
  size_ = new_size;
  ZeroTrailingBits();
}

void BitVector::ClearAll() {
  for (auto& w : words_) w = 0;
}

void BitVector::SetAll() {
  for (auto& w : words_) w = ~uint64_t{0};
  ZeroTrailingBits();
}

uint64_t BitVector::Count() const {
  return simd::ActiveKernels().popcount(words_.data(),
                                        words_.size() * sizeof(uint64_t));
}

double BitVector::Density() const {
  if (size_ == 0) return 0.0;
  return static_cast<double>(Count()) / static_cast<double>(size_);
}

void BitVector::AndWith(const BitVector& other) {
  INCDB_CHECK(size_ == other.size_);
  simd::ActiveKernels().and_into(words_.data(), other.words_.data(),
                                 words_.size() * sizeof(uint64_t));
}

void BitVector::OrWith(const BitVector& other) {
  INCDB_CHECK(size_ == other.size_);
  simd::ActiveKernels().or_into(words_.data(), other.words_.data(),
                                words_.size() * sizeof(uint64_t));
}

void BitVector::OrAt(const BitVector& src, uint64_t offset) {
  INCDB_CHECK(offset + src.size_ <= size_);
  if (src.size_ == 0) return;
  const uint64_t word0 = offset / 64;
  const unsigned shift = static_cast<unsigned>(offset % 64);
  const size_t src_words = src.words_.size();
  if (shift == 0) {
    for (size_t w = 0; w < src_words; ++w) {
      words_[word0 + w] |= src.words_[w];
    }
    return;
  }
  // Each source word straddles two destination words. The source's
  // trailing bits beyond src.size_ are zero (class invariant), so the
  // spill of the last word never sets bits past offset + src.size_.
  uint64_t carry = 0;
  for (size_t w = 0; w < src_words; ++w) {
    const uint64_t word = src.words_[w];
    words_[word0 + w] |= (word << shift) | carry;
    carry = word >> (64 - shift);
  }
  if (carry != 0) words_[word0 + src_words] |= carry;
}

void BitVector::XorWith(const BitVector& other) {
  INCDB_CHECK(size_ == other.size_);
  simd::ActiveKernels().xor_into(words_.data(), other.words_.data(),
                                 words_.size() * sizeof(uint64_t));
}

void BitVector::Flip() {
  for (auto& w : words_) w = ~w;
  ZeroTrailingBits();
}

std::vector<uint32_t> BitVector::ToIndices() const {
  std::vector<uint32_t> indices(Count());
  const size_t written = simd::ActiveKernels().extract_set_bits(
      words_.data(), words_.size(), /*base=*/0, indices.data());
  INCDB_DCHECK(written == indices.size());
  (void)written;
  return indices;
}

std::vector<uint32_t> BitVector::FirstIndices(uint64_t limit) const {
  size_t prefix_words = 0;
  uint64_t found = 0;
  while (prefix_words < words_.size() && found < limit) {
    found += static_cast<uint64_t>(bitutil::PopCount(words_[prefix_words]));
    ++prefix_words;
  }
  std::vector<uint32_t> indices(found);
  const size_t written = simd::ActiveKernels().extract_set_bits(
      words_.data(), prefix_words, /*base=*/0, indices.data());
  INCDB_DCHECK(written == indices.size());
  (void)written;
  if (found > limit) indices.resize(limit);
  return indices;
}

std::string BitVector::ToString() const {
  std::string out(size_, '0');
  ForEachSetBit([&](uint64_t i) { out[i] = '1'; });
  return out;
}

void BitVector::ZeroTrailingBits() {
  const uint64_t tail = size_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= bitutil::LowBitsMask(static_cast<int>(tail));
  }
}

BitVector And(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.AndWith(b);
  return out;
}

BitVector Or(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.OrWith(b);
  return out;
}

BitVector Xor(const BitVector& a, const BitVector& b) {
  BitVector out = a;
  out.XorWith(b);
  return out;
}

BitVector Not(const BitVector& a) {
  BitVector out = a;
  out.Flip();
  return out;
}

}  // namespace incdb
