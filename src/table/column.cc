#include "table/column.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace incdb {

Column::Column(uint32_t cardinality) : cardinality_(cardinality) {}

Column Column::Borrowed(uint32_t cardinality, const Value* values,
                        uint64_t count) {
  // Borrowed-view invariant: a non-empty prefix must have real backing
  // memory — a null base with count > 0 would make every Get a wild read.
  INCDB_CHECK_MSG(values != nullptr || count == 0,
                  "borrowed column prefix with null backing memory");
  Column column(cardinality);
  column.borrowed_ = values;
  column.num_borrowed_ = count;
  column.size_ = count;
  return column;
}

Column Column::BorrowedExtents(uint32_t cardinality,
                               std::vector<BorrowedExtent> extents) {
  // Collapse to the single-extent fast path when possible; empty extents
  // are skipped so callers can pass e.g. a zero-row tail unconditionally.
  std::vector<BorrowedExtent> kept;
  kept.reserve(extents.size());
  for (const BorrowedExtent& extent : extents) {
    if (extent.count == 0) continue;
    INCDB_CHECK_MSG(extent.values != nullptr,
                    "borrowed column extent with null backing memory");
    kept.push_back(extent);
  }
  if (kept.empty()) return Column(cardinality);
  if (kept.size() == 1) {
    return Borrowed(cardinality, kept.front().values, kept.front().count);
  }
  Column column(cardinality);
  column.extent_starts_.reserve(kept.size());
  column.extent_values_.reserve(kept.size());
  uint64_t row = 0;
  for (const BorrowedExtent& extent : kept) {
    column.extent_starts_.push_back(row);
    column.extent_values_.push_back(extent.values);
    row += extent.count;
  }
  column.num_borrowed_ = row;
  column.size_ = row;
  return column;
}

Value Column::GetFromExtents(uint64_t row) const {
  const auto it = std::upper_bound(extent_starts_.begin(),
                                   extent_starts_.end(), row);
  const size_t e = static_cast<size_t>(it - extent_starts_.begin()) - 1;
  return extent_values_[e][row - extent_starts_[e]];
}

Column::Span Column::SpanAt(uint64_t row, uint64_t end) const {
  // size_ is not checked: the single writer may be appending concurrently.
  INCDB_DCHECK(row < end);
  if (row < num_borrowed_) {
    if (borrowed_ != nullptr) {
      return Span{borrowed_ + row, std::min(end, num_borrowed_) - row};
    }
    const auto it = std::upper_bound(extent_starts_.begin(),
                                     extent_starts_.end(), row);
    const uint64_t stop = it == extent_starts_.end() ? num_borrowed_ : *it;
    const size_t e = static_cast<size_t>(it - extent_starts_.begin()) - 1;
    return Span{extent_values_[e] + (row - extent_starts_[e]),
                std::min(end, stop) - row};
  }
  const uint64_t biased = (row - num_borrowed_) + kFirstBlockSize;
  const int high_bit = 63 - __builtin_clzll(biased);
  const uint64_t offset = biased - (uint64_t{1} << high_bit);
  const uint64_t room = (uint64_t{1} << high_bit) - offset;
  return Span{
      blocks_[static_cast<size_t>(high_bit) - kFirstBlockBits].get() + offset,
      std::min(end - row, room)};
}

Column::Column(const Column& other)
    : cardinality_(other.cardinality_),
      size_(other.size_),
      borrowed_(other.borrowed_),
      num_borrowed_(other.num_borrowed_),
      extent_starts_(other.extent_starts_),
      extent_values_(other.extent_values_) {
  const uint64_t block_rows = size_ - num_borrowed_;
  for (size_t b = 0; b < kNumBlocks; ++b) {
    if (other.blocks_[b] == nullptr) continue;
    const uint64_t block_size = kFirstBlockSize << b;
    const uint64_t first_row = block_size - kFirstBlockSize;
    const uint64_t used = std::min(block_size, block_rows - first_row);
    blocks_[b] = std::make_unique<Value[]>(block_size);
    std::memcpy(blocks_[b].get(), other.blocks_[b].get(),
                used * sizeof(Value));
  }
}

Column& Column::operator=(const Column& other) {
  if (this != &other) *this = Column(other);
  return *this;
}

Status Column::Append(Value v) {
  if (v != kMissingValue &&
      (v < 1 || static_cast<uint32_t>(v) > cardinality_)) {
    return Status::OutOfRange("value " + std::to_string(v) +
                              " outside domain [1, " +
                              std::to_string(cardinality_) + "]");
  }
  const ScopedRole role(writer_role());
  AppendUnchecked(v);
  return Status::OK();
}

uint64_t Column::MissingCount() const {
  uint64_t count = 0;
  for (uint64_t r = 0; r < size_; ++r) {
    if (IsMissing(Get(r))) ++count;
  }
  return count;
}

double Column::MissingRate() const {
  if (size_ == 0) return 0.0;
  return static_cast<double>(MissingCount()) / static_cast<double>(size_);
}

std::vector<uint64_t> Column::Histogram() const {
  std::vector<uint64_t> hist(cardinality_ + 1, 0);
  for (uint64_t r = 0; r < size_; ++r) {
    ++hist[static_cast<size_t>(Get(r))];
  }
  return hist;
}

uint32_t Column::DistinctCount() const {
  const std::vector<uint64_t> hist = Histogram();
  uint32_t distinct = 0;
  for (size_t v = 1; v < hist.size(); ++v) {
    if (hist[v] > 0) ++distinct;
  }
  return distinct;
}

double Column::NonMissingMean() const {
  uint64_t count = 0;
  double sum = 0.0;
  for (uint64_t r = 0; r < size_; ++r) {
    const Value v = Get(r);
    if (!IsMissing(v)) {
      sum += static_cast<double>(v);
      ++count;
    }
  }
  if (count == 0) return 0.0;
  return sum / static_cast<double>(count);
}

}  // namespace incdb
