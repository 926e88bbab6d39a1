#ifndef INCDB_BITMAP_BITMAP_INDEX_H_
#define INCDB_BITMAP_BITMAP_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bitmap/encoder.h"
#include "compression/wah_bitvector.h"
#include "core/incomplete_index.h"
#include "query/query.h"
#include "table/table.h"

namespace incdb {

/// WAH-compressed bitmap index over an incomplete table, supporting both
/// query semantics. The direct-slicer composition of the binning x encoding
/// architecture (bitmap/slicer.h x bitmap/encoder.h): one slot per value,
/// any of the four encodings. Implements the paper's interval-evaluation
/// rules exactly: Fig. 2 for equality encoding, Fig. 3 for range encoding.
/// Sparse queries run on the compressed form; queries over bitmaps WAH
/// cannot compress run Execute / ExecuteCount through the dense windowed
/// executor (WahTermPlan::DenseCount) instead.
class BitmapIndex : public IncompleteIndex {
 public:
  struct Options {
    BitmapEncoding encoding = BitmapEncoding::kEquality;
    MissingStrategy missing_strategy = MissingStrategy::kExtraBitmap;
  };

  /// All bitvectors for one attribute (public so the storage engine can
  /// serialize and reassemble an index without rebuilding it).
  struct AttributeBitmaps {
    uint32_t cardinality = 0;
    bool has_missing = false;
    /// B_{i,0} (kExtraBitmap only; empty optional otherwise).
    std::optional<WahBitVector> missing;
    /// Equality: B_{i,1}..B_{i,C}. Range: B_{i,1}..B_{i,C-1}.
    std::vector<WahBitVector> values;
  };

  /// Builds the index. Fails on an empty table or on an unsupported
  /// combination (kAllOnes/kAllZeros with range encoding).
  static Result<BitmapIndex> Build(const Table& table, Options options);

  /// Reassembles an index from parts the storage engine deserialized (the
  /// bitvectors are typically mmap-borrowed WAH views). Validates shapes —
  /// every bitvector must span `num_rows` bits and each attribute must hold
  /// the bitmap count its encoding implies — not bit contents.
  static Result<BitmapIndex> FromParts(Options options, uint64_t num_rows,
                                       std::vector<AttributeBitmaps> attributes);

  std::string Name() const override;
  Result<BitVector> Execute(const RangeQuery& query,
                            QueryStats* stats = nullptr) const override;
  uint64_t SizeInBytes() const override;

  /// COUNT(*) without materializing the result: the fused AndManyCount
  /// kernel over the compressed terms, or a popcount of the dense
  /// executor's windows.
  Result<uint64_t> ExecuteCount(const RangeQuery& query,
                                QueryStats* stats = nullptr) const override;

  /// GROUP BY `group_attr` COUNT(*) over the rows matching `query` — the
  /// classic bitmap-index aggregation: the query's compressed result is
  /// ANDed with each group's (encoding-derived) equality bitvector and
  /// counted, entirely on compressed bitvectors. Returns cardinality+1
  /// counts; index 0 is the missing-group bucket, index v the count for
  /// value v. `query` must be a valid query; to group the whole table,
  /// pass a full-domain term under match semantics.
  Result<std::vector<uint64_t>> ExecuteGroupCount(
      const RangeQuery& query, size_t group_attr,
      QueryStats* stats = nullptr) const;

  /// Aggregate of one attribute over the rows matching `query`. Missing
  /// cells of `agg_attr` are excluded from sum/min/max/mean (SQL NULL
  /// semantics) and reported in missing_count. Computed from per-value
  /// compressed counts for any encoding; a bit-sliced index computes the
  /// sum directly from its slices (sum = Σ_k 2^k·count(acc ∧ S_k), the
  /// classic bit-sliced aggregation), which the tests cross-check.
  struct Aggregate {
    uint64_t count = 0;          ///< matching rows with agg_attr present
    uint64_t missing_count = 0;  ///< matching rows with agg_attr missing
    uint64_t sum = 0;
    Value min = 0;               ///< 0 when count == 0
    Value max = 0;
    double mean = 0.0;           ///< 0 when count == 0
  };
  Result<Aggregate> ExecuteAggregate(const RangeQuery& query, size_t agg_attr,
                                     QueryStats* stats = nullptr) const;

  /// Appends one record to the index (incremental maintenance; the bitmap
  /// encodings are append-friendly since every bitvector just grows by one
  /// bit). `row[i]` is the value of attribute i, kMissingValue for missing.
  /// The resulting index is bit-identical to one built from scratch over
  /// the extended data.
  Status AppendRow(const std::vector<Value>& row) override;

  /// Evaluates one interval (one search-key term) to a compressed result —
  /// the paper's Fig. 2 / Fig. 3 logic. Exposed for tests and analysis.
  Result<WahBitVector> EvaluateInterval(size_t attr, Interval interval,
                                        MissingSemantics semantics,
                                        QueryStats* stats = nullptr) const;

  /// Bytes the index would occupy uncompressed (verbatim bitmaps).
  uint64_t VerbatimSizeInBytes() const;

  /// SizeInBytes() / VerbatimSizeInBytes() — the paper's compression ratio.
  double CompressionRatio() const;

  /// Per-attribute compressed size / compression ratio (for Fig. 4 and the
  /// §5.2 real-data analysis).
  uint64_t AttributeSizeInBytes(size_t attr) const;
  double AttributeCompressionRatio(size_t attr) const;

  /// Number of bitvectors stored for attribute `attr` (C_i, C_i ± 1
  /// depending on encoding and missing data).
  size_t NumBitmaps(size_t attr) const;

  BitmapEncoding encoding() const { return options_.encoding; }
  MissingStrategy missing_strategy() const {
    return options_.missing_strategy;
  }
  uint64_t num_rows() const { return num_rows_; }

  /// Storage-engine accessor: all per-attribute bitvector groups.
  const std::vector<AttributeBitmaps>& attributes() const {
    return attributes_;
  }

  /// The missing bitvector B_{i,0}, or nullptr when the attribute has no
  /// missing data (or a non-extra-bitmap strategy is in use).
  const WahBitVector* missing_bitmap(size_t attr) const {
    return attributes_[attr].missing.has_value() ? &*attributes_[attr].missing
                                                 : nullptr;
  }

  /// Value bitvector B_{i,j} (1-based j; equality: j in [1, C], range:
  /// j in [1, C-1]).
  const WahBitVector& value_bitmap(size_t attr, size_t j) const {
    return attributes_[attr].values[j - 1];
  }

 private:
  BitmapIndex(Options options, uint64_t num_rows,
              std::vector<AttributeBitmaps> attributes)
      : options_(options),
        num_rows_(num_rows),
        attributes_(std::move(attributes)) {}

  // The attribute's bitvectors viewed as one encoder axis (the direct
  // slicer has exactly one axis: slot j-1 = value j).
  AxisRef AxisOf(const AttributeBitmaps& ab) const;

  // EvaluateInterval's argument checks, shared with the lowering path.
  Status CheckInterval(size_t attr, Interval interval,
                       MissingSemantics semantics) const;

  // Shared query path. The terms of an equality / range / interval index
  // lower into one WahTermPlan; when `allow_dense` and the plan's operands
  // are dense (WahTermPlan::PrefersDense) the whole plan is handed back for
  // the dense executor, otherwise each clause — or, for the bit-sliced
  // circuit, each term — is evaluated to a compressed conjunct. Charges
  // the logical counters either way.
  struct PreparedQuery {
    std::optional<WahTermPlan> dense;
    std::vector<WahBitVector> conjuncts;  // empty = all rows
  };
  Result<PreparedQuery> Prepare(const RangeQuery& query, bool allow_dense,
                                QueryStats* stats) const;
  // The fused k-way AND of compressed conjuncts (all ones when empty).
  WahBitVector AndConjuncts(std::vector<WahBitVector> conjuncts,
                            QueryStats* stats) const;
  // The compressed result vector of `query` (GROUP BY and aggregates).
  Result<WahBitVector> ExecuteCompressed(const RangeQuery& query,
                                         QueryStats* stats) const;

  Options options_;
  uint64_t num_rows_ = 0;
  std::vector<AttributeBitmaps> attributes_;
};

}  // namespace incdb

#endif  // INCDB_BITMAP_BITMAP_INDEX_H_
