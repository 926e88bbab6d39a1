#ifndef INCDB_REPRO_MOSAIC_H_
#define INCDB_REPRO_MOSAIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/incomplete_index.h"
#include "query/query.h"
#include "repro/bplus_tree.h"
#include "table/table.h"

namespace incdb {

/// MOSAIC baseline (Ooi, Goh, Tan — VLDB'98, the paper's reference [12]):
/// Multiple One-dimensional one-attribute indexes — a B+-tree per attribute
/// with missing values mapped to a distinguished key (0, outside every
/// domain).
///
/// A k-attribute query becomes 2k one-dimensional subqueries (a value-range
/// scan plus a missing-key lookup per attribute under match semantics), and
/// the per-attribute row sets must then be intersected — the set-operation
/// overhead the paper's techniques avoid. QueryStats reports the subquery
/// count and total B+-tree node accesses.
class MosaicIndex : public IncompleteIndex {
 public:
  static Result<MosaicIndex> Build(const Table& table, int fanout = 64);

  std::string Name() const override { return "MOSAIC"; }
  Result<BitVector> Execute(const RangeQuery& query,
                            QueryStats* stats = nullptr) const override;
  uint64_t SizeInBytes() const override;

  uint64_t num_rows() const { return num_rows_; }

 private:
  MosaicIndex(uint64_t num_rows, std::vector<BPlusTree> trees)
      : num_rows_(num_rows), trees_(std::move(trees)) {}

  /// The distinguished B+-tree key for missing cells.
  static constexpr int32_t kMissingKey = 0;

  uint64_t num_rows_;
  std::vector<BPlusTree> trees_;  // one per attribute
};

}  // namespace incdb

#endif  // INCDB_REPRO_MOSAIC_H_
