#ifndef INCDB_REPRO_BITSTRING_AUGMENTED_H_
#define INCDB_REPRO_BITSTRING_AUGMENTED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/incomplete_index.h"
#include "query/query.h"
#include "repro/rtree.h"
#include "table/table.h"

namespace incdb {

/// Bitstring-augmented baseline (Ooi, Goh, Tan — VLDB'98, reference [12]):
/// a multi-dimensional index (here an R-tree) over the complete-ified data,
/// where each missing cell is mapped to the attribute's non-missing mean
/// (to avoid skewing the index), and each record carries a bitstring
/// marking which attributes are missing.
///
/// Under missing-is-match semantics a k-attribute query must be expanded
/// into 2^k subqueries — one per subset S of search-key attributes treated
/// as missing: attributes in S are constrained to the mean point, the rest
/// to their query ranges, and results are filtered by the bitstring
/// (missing exactly on S among the search-key attributes). This exponential
/// blow-up is precisely the weakness the paper's techniques remove.
/// QueryStats reports the subquery count and R-tree node accesses.
class BitstringAugmentedIndex : public IncompleteIndex {
 public:
  /// Builds over all attributes of `table`. Intended for the low-dimensional
  /// settings where an R-tree is viable; query dimensionality is capped at
  /// 20 (2^20 subqueries) to keep the exponential baseline runnable.
  static Result<BitstringAugmentedIndex> Build(const Table& table,
                                               int max_node_entries = 16);

  std::string Name() const override { return "Bitstring-Augmented"; }
  Result<BitVector> Execute(const RangeQuery& query,
                            QueryStats* stats = nullptr) const override;
  uint64_t SizeInBytes() const override;

 private:
  BitstringAugmentedIndex(uint64_t num_rows, size_t num_attrs, RTree rtree,
                          std::vector<int32_t> means,
                          std::vector<uint64_t> bitstrings,
                          size_t words_per_record)
      : num_rows_(num_rows),
        num_attrs_(num_attrs),
        rtree_(std::move(rtree)),
        means_(std::move(means)),
        bitstrings_(std::move(bitstrings)),
        words_per_record_(words_per_record) {}

  bool IsMissingBit(uint64_t row, size_t attr) const {
    return (bitstrings_[row * words_per_record_ + attr / 64] >>
            (attr % 64)) &
           1;
  }

  uint64_t num_rows_;
  size_t num_attrs_;
  RTree rtree_;
  /// Per-attribute rounded mean of the non-missing values — the coordinate
  /// missing cells were mapped to.
  std::vector<int32_t> means_;
  /// Packed per-record missingness bitstrings.
  std::vector<uint64_t> bitstrings_;
  size_t words_per_record_;
};

}  // namespace incdb

#endif  // INCDB_REPRO_BITSTRING_AUGMENTED_H_
