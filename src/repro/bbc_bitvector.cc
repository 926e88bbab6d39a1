#include "repro/bbc_bitvector.h"

#include "common/bitutil.h"
#include "common/logging.h"

namespace incdb {

namespace {

constexpr uint8_t kFillBitFlag = 0x80;
constexpr int kLiteralCountShift = 4;
constexpr uint8_t kLiteralCountMask = 0x07;
constexpr uint8_t kFillLenMask = 0x0F;
constexpr uint8_t kFillLenExtended = 0x0F;
constexpr int kMaxLiterals = 7;

void AppendVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

uint64_t ReadVarint(const std::vector<uint8_t>& in, size_t& pos) {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    const uint8_t byte = in[pos++];
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

// Extracts byte `i` of the verbatim bitmap.
uint8_t ByteAt(const BitVector& bits, uint64_t i) {
  const std::vector<uint64_t>& words = bits.words();
  const uint64_t word = words[i / 8];
  return static_cast<uint8_t>(word >> ((i % 8) * 8));
}

void EmitBlock(std::vector<uint8_t>& out, bool fill_bit, uint64_t fill_len,
               const std::vector<uint8_t>& literals) {
  INCDB_DCHECK(literals.size() <= kMaxLiterals);
  uint8_t header = 0;
  if (fill_bit) header |= kFillBitFlag;
  header |= static_cast<uint8_t>(literals.size()) << kLiteralCountShift;
  if (fill_len >= kFillLenExtended) {
    header |= kFillLenExtended;
    out.push_back(header);
    AppendVarint(out, fill_len);
  } else {
    header |= static_cast<uint8_t>(fill_len);
    out.push_back(header);
  }
  out.insert(out.end(), literals.begin(), literals.end());
}

}  // namespace

BbcBitVector BbcBitVector::Compress(const BitVector& bits) {
  BbcBitVector out;
  out.size_ = bits.size();
  const uint64_t num_bytes = bitutil::CeilDiv(bits.size(), 8);
  uint64_t i = 0;
  while (i < num_bytes) {
    // Greedy: a maximal run of identical fill bytes, then up to 7 literals.
    bool fill_bit = false;
    uint64_t fill_len = 0;
    const uint8_t first = ByteAt(bits, i);
    if (first == 0x00 || first == 0xFF) {
      fill_bit = (first == 0xFF);
      while (i < num_bytes && ByteAt(bits, i) == first) {
        ++fill_len;
        ++i;
      }
    }
    std::vector<uint8_t> literals;
    while (i < num_bytes && literals.size() < kMaxLiterals) {
      const uint8_t b = ByteAt(bits, i);
      if (b == 0x00 || b == 0xFF) break;  // start of a new fill run
      literals.push_back(b);
      ++i;
    }
    EmitBlock(out.bytes_, fill_bit, fill_len, literals);
  }
  return out;
}

BitVector BbcBitVector::Decompress() const {
  BitVector out(size_);
  size_t pos = 0;
  uint64_t byte_index = 0;
  auto write_byte = [&](uint8_t b) {
    const uint64_t base = byte_index * 8;
    for (int j = 0; j < 8; ++j) {
      const uint64_t bit = base + static_cast<uint64_t>(j);
      if (bit >= size_) break;
      if ((b >> j) & 1) out.Set(bit);
    }
    ++byte_index;
  };
  while (pos < bytes_.size()) {
    const uint8_t header = bytes_[pos++];
    const bool fill_bit = (header & kFillBitFlag) != 0;
    const int literal_count = (header >> kLiteralCountShift) & kLiteralCountMask;
    uint64_t fill_len = header & kFillLenMask;
    if (fill_len == kFillLenExtended) fill_len = ReadVarint(bytes_, pos);
    for (uint64_t j = 0; j < fill_len; ++j) write_byte(fill_bit ? 0xFF : 0x00);
    for (int j = 0; j < literal_count; ++j) write_byte(bytes_[pos++]);
  }
  return out;
}

double BbcBitVector::CompressionRatio() const {
  if (size_ == 0) return 0.0;
  return static_cast<double>(SizeInBytes()) / (static_cast<double>(size_) / 8.0);
}

namespace {

// Sequential byte-run reader over a BBC payload: exposes the stream as
// fill runs (repeated 0x00/0xFF) and individual literal bytes.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {
    Load();
  }

  bool done() const {
    return fill_remaining_ == 0 && literals_remaining_ == 0 &&
           pos_ >= bytes_.size();
  }

  bool at_fill() const { return fill_remaining_ > 0; }
  uint8_t fill_byte() const { return fill_byte_; }
  uint64_t fill_remaining() const { return fill_remaining_; }

  void ConsumeFill(uint64_t n) {
    INCDB_DCHECK(n <= fill_remaining_);
    fill_remaining_ -= n;
    MaybeLoad();
  }

  uint8_t NextByte() {
    if (fill_remaining_ > 0) {
      --fill_remaining_;
      const uint8_t b = fill_byte_;
      MaybeLoad();
      return b;
    }
    INCDB_DCHECK(literals_remaining_ > 0);
    const uint8_t b = bytes_[pos_++];
    --literals_remaining_;
    MaybeLoad();
    return b;
  }

 private:
  void MaybeLoad() {
    if (fill_remaining_ == 0 && literals_remaining_ == 0) Load();
  }

  void Load() {
    while (pos_ < bytes_.size()) {
      const uint8_t header = bytes_[pos_++];
      fill_byte_ = (header & kFillBitFlag) != 0 ? 0xFF : 0x00;
      literals_remaining_ = (header >> kLiteralCountShift) & kLiteralCountMask;
      fill_remaining_ = header & kFillLenMask;
      if (fill_remaining_ == kFillLenExtended) {
        fill_remaining_ = ReadVarint(bytes_, pos_);
      }
      if (fill_remaining_ > 0 || literals_remaining_ > 0) return;
    }
    fill_remaining_ = 0;
    literals_remaining_ = 0;
  }

  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
  uint8_t fill_byte_ = 0;
  uint64_t fill_remaining_ = 0;
  int literals_remaining_ = 0;
};

// Streaming BBC encoder: accepts output bytes (and bulk fill runs) and
// lays down blocks greedily, mirroring Compress().
class ByteWriter {
 public:
  void Add(uint8_t b) {
    if (b == 0x00 || b == 0xFF) {
      if (!literals_.empty() || (fill_len_ > 0 && fill_byte_ != b)) {
        FlushBlock();
      }
      fill_byte_ = b;
      ++fill_len_;
      return;
    }
    if (literals_.size() == static_cast<size_t>(kMaxLiterals)) FlushBlock();
    literals_.push_back(b);
  }

  void AddFillRun(uint8_t b, uint64_t n) {
    if (n == 0) return;
    if (!literals_.empty() || (fill_len_ > 0 && fill_byte_ != b)) FlushBlock();
    fill_byte_ = b;
    fill_len_ += n;
  }

  std::vector<uint8_t> Finish() {
    if (fill_len_ > 0 || !literals_.empty()) FlushBlock();
    return std::move(out_);
  }

 private:
  void FlushBlock() {
    EmitBlock(out_, fill_byte_ == 0xFF, fill_len_, literals_);
    fill_len_ = 0;
    literals_.clear();
  }

  std::vector<uint8_t> out_;
  uint8_t fill_byte_ = 0;
  uint64_t fill_len_ = 0;
  std::vector<uint8_t> literals_;
};

uint8_t ApplyByteOp(uint8_t a, uint8_t b, int op) {
  switch (op) {
    case 0:
      return a & b;
    case 1:
      return a | b;
    default:
      return a ^ b;
  }
}

}  // namespace

BbcBitVector BbcBitVector::And(const BbcBitVector& other) const {
  return BinaryOp(other, 0);
}

BbcBitVector BbcBitVector::Or(const BbcBitVector& other) const {
  return BinaryOp(other, 1);
}

BbcBitVector BbcBitVector::Xor(const BbcBitVector& other) const {
  return BinaryOp(other, 2);
}

BbcBitVector BbcBitVector::BinaryOp(const BbcBitVector& other, int op) const {
  INCDB_CHECK(size_ == other.size_);
  ByteReader a(bytes_);
  ByteReader b(other.bytes_);
  ByteWriter out;
  while (!a.done() && !b.done()) {
    if (a.at_fill() && b.at_fill()) {
      // Aligned fill runs combine in one step — BBC's fast path.
      const uint64_t n = std::min(a.fill_remaining(), b.fill_remaining());
      out.AddFillRun(ApplyByteOp(a.fill_byte(), b.fill_byte(), op), n);
      a.ConsumeFill(n);
      b.ConsumeFill(n);
    } else {
      out.Add(ApplyByteOp(a.NextByte(), b.NextByte(), op));
    }
  }
  INCDB_CHECK(a.done() && b.done());
  BbcBitVector result;
  result.bytes_ = out.Finish();
  result.size_ = size_;
  return result;
}

}  // namespace incdb
