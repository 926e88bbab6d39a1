#ifndef INCDB_TABLE_COLUMN_H_
#define INCDB_TABLE_COLUMN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "table/value.h"

namespace incdb {

/// Columnar storage for one attribute of an incomplete table.
///
/// Stores one Value per row; kMissingValue (0) marks missing cells. The
/// column knows its declared cardinality and validates appends against it.
///
/// Cells live in geometrically growing blocks (1Ki values, then 2Ki, 4Ki,
/// ...) that are never reallocated or moved once allocated, so the address
/// of a written cell is stable for the lifetime of the column. This is what
/// makes the Database's snapshot isolation possible: a single writer may
/// append rows while concurrent readers access cells of rows below their
/// snapshot watermark — appends touch only memory no reader looks at, and
/// the block directory is a fixed-size array that never grows. (Publication
/// ordering between the writer's cell stores and a reader's first access is
/// provided by the Database's epoch swap; the column itself does no
/// synchronization, and concurrent access to the *same* rows being appended
/// is still a race — see core/snapshot.h.)
class Column {
 public:
  /// A column for an attribute with domain 1..cardinality.
  explicit Column(uint32_t cardinality);

  /// A column whose first `count` rows are a non-owning view over external
  /// memory (the storage engine's mmap zero-copy mode). Rows appended
  /// afterwards go into ordinary heap blocks, so the delta-append regime
  /// of the snapshot machinery works unchanged on an opened database. The
  /// caller guarantees `values` outlives the column (and every copy of
  /// it — copies share the borrowed prefix).
  static Column Borrowed(uint32_t cardinality, const Value* values,
                         uint64_t count);

  /// One piece of a multi-extent borrowed prefix: `count` consecutive rows
  /// backed by `values`.
  struct BorrowedExtent {
    const Value* values = nullptr;
    uint64_t count = 0;
  };

  /// A column whose borrowed prefix is stitched from several extents in row
  /// order — the segmented store's open path, where each sealed segment's
  /// values live in its own mapped file and the extents cannot be made
  /// contiguous. Lookup in the prefix is a branchless single-extent hit
  /// when only one extent exists, a binary search otherwise. Same lifetime
  /// contract as Borrowed().
  static Column BorrowedExtents(uint32_t cardinality,
                                std::vector<BorrowedExtent> extents);

  Column(const Column& other);
  Column& operator=(const Column& other);
  Column(Column&&) noexcept = default;
  Column& operator=(Column&&) noexcept = default;

  uint32_t cardinality() const { return cardinality_; }
  uint64_t num_rows() const { return size_; }

  /// Rows living in the borrowed (mmap-backed) prefix; 0 for an ordinary
  /// in-memory column.
  uint64_t borrowed_rows() const { return num_borrowed_; }

  /// The column's single-writer role: the capability every unchecked append
  /// must hold. Claiming it (ScopedRole) costs nothing at runtime; it makes
  /// the "one writer, appends never touch published rows" protocol a
  /// compile-time obligation under clang's -Wthread-safety instead of a
  /// comment. Table's append machinery claims it per column; any other
  /// caller of AppendUnchecked must claim it explicitly.
  ThreadRole& writer_role() const INCDB_RETURN_CAPABILITY(writer_role_) {
    return writer_role_;
  }

  /// Appends a value (kMissingValue allowed). Rejects values outside
  /// [1, cardinality]. Claims the writer role internally.
  Status Append(Value v);

  /// Appends without validation (generator fast path; caller guarantees
  /// domain membership and must hold the writer role).
  void AppendUnchecked(Value v) INCDB_REQUIRES(writer_role_) {
    const uint64_t biased = (size_ - num_borrowed_) + kFirstBlockSize;
    const int high_bit = 63 - __builtin_clzll(biased);
    const size_t block = static_cast<size_t>(high_bit) - kFirstBlockBits;
    if (blocks_[block] == nullptr) {
      blocks_[block] = std::make_unique<Value[]>(uint64_t{1} << high_bit);
    }
    blocks_[block][biased - (uint64_t{1} << high_bit)] = v;
    ++size_;
  }

  /// Value at `row` (kMissingValue if the cell is missing).
  Value Get(uint64_t row) const {
    if (row < num_borrowed_) {
      if (borrowed_ != nullptr) return borrowed_[row];
      return GetFromExtents(row);
    }
    const uint64_t biased = (row - num_borrowed_) + kFirstBlockSize;
    const int high_bit = 63 - __builtin_clzll(biased);
    return blocks_[static_cast<size_t>(high_bit) - kFirstBlockBits]
                  [biased - (uint64_t{1} << high_bit)];
  }

  bool IsMissingAt(uint64_t row) const { return IsMissing(Get(row)); }

  /// A run of cells stored contiguously: rows [r, r + count) of the column
  /// live at values[0, count) for the row r it was requested at.
  struct Span {
    const Value* values = nullptr;
    uint64_t count = 0;
  };

  /// The longest contiguous run that starts at `row` and ends at or before
  /// `end` (requires row < end <= num_rows()). Runs break at heap block
  /// edges, at the end of the borrowed prefix and at extent edges, so a
  /// batch scan pays one block lookup (or extent search) per run instead
  /// of one per row.
  Span SpanAt(uint64_t row, uint64_t end) const;

  /// Calls `fn(row, values, count)` for the runs that tile [begin, end)
  /// exactly, in row order.
  template <typename Fn>
  void ForEachSpan(uint64_t begin, uint64_t end, Fn&& fn) const {
    while (begin < end) {
      const Span span = SpanAt(begin, end);
      fn(begin, span.values, span.count);
      begin += span.count;
    }
  }

  /// Number of missing cells.
  uint64_t MissingCount() const;

  /// Fraction of missing cells (0 for an empty column) — the paper's P_m.
  double MissingRate() const;

  /// Histogram over values: index v holds the count of value v, index 0 the
  /// missing count. Size cardinality()+1.
  std::vector<uint64_t> Histogram() const;

  /// Number of distinct non-missing values that actually occur.
  uint32_t DistinctCount() const;

  /// Mean of the non-missing values (0 if all missing). Used by the
  /// bitstring-augmented baseline, which maps missing cells to the mean.
  double NonMissingMean() const;

 private:
  /// Multi-extent prefix lookup (out of line: the single-extent and heap
  /// paths stay branch-cheap in the header).
  Value GetFromExtents(uint64_t row) const;

  /// First block holds 2^kFirstBlockBits values; block i holds twice as
  /// many as block i-1. 48 blocks cover far more rows than the uint32_t
  /// row ids used everywhere else.
  static constexpr int kFirstBlockBits = 10;
  static constexpr uint64_t kFirstBlockSize = uint64_t{1} << kFirstBlockBits;
  static constexpr size_t kNumBlocks = 48;

  uint32_t cardinality_;
  uint64_t size_ = 0;
  /// See writer_role(). Mutable: claiming a role is not a logical mutation.
  mutable ThreadRole writer_role_;
  /// Non-owning prefix of rows [0, num_borrowed_); see Borrowed(). Blocks
  /// then hold rows num_borrowed_.. (block math is relative to the prefix).
  /// Exactly one of borrowed_ / extent_*_ describes a non-empty prefix:
  /// borrowed_ for the single-extent form, the extent arrays (parallel,
  /// starts ascending from 0) for the stitched form.
  const Value* borrowed_ = nullptr;
  uint64_t num_borrowed_ = 0;
  std::vector<uint64_t> extent_starts_;
  std::vector<const Value*> extent_values_;
  std::array<std::unique_ptr<Value[]>, kNumBlocks> blocks_;
};

}  // namespace incdb

#endif  // INCDB_TABLE_COLUMN_H_
