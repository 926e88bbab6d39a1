#ifndef INCDB_VAFILE_VA_FILE_H_
#define INCDB_VAFILE_VA_FILE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/incomplete_index.h"
#include "query/query.h"
#include "table/table.h"

namespace incdb {

/// Bin-boundary policy for the VA-file quantizer.
enum class VaQuantization {
  /// Equal-width bins over the attribute domain (the paper's VA-file).
  kUniform,
  /// Equi-depth bins from the data distribution — the paper's future-work
  /// pointer to the VA+-file [6], which quantizes skewed data better.
  kEquiDepth,
};

/// Vector-approximation file over an incomplete table (paper §4.5).
///
/// Each attribute A_i is approximated with b_i bits; the all-zeros code is
/// reserved for missing values, and codes 1..2^b_i - 1 are bins over the
/// domain 1..C_i. With the paper's default bit allocation
/// b_i = ceil(lg(C_i + 1)) every value receives its own bin, so the filter
/// step is exact; with a caller-supplied smaller budget (bits_override) the
/// filter is approximate and boundary-bin candidates are refined against the
/// base table, exactly like the paper's "read actual database pages" step.
///
/// The VA-file keeps a pointer to the table it was built from (needed for
/// refinement); the table must outlive the index.
class VaFile : public IncompleteIndex {
 public:
  struct Options {
    VaQuantization quantization = VaQuantization::kUniform;
    /// When > 0, use this many bits per attribute (clamped per attribute so
    /// at least one non-missing bin exists). 0 = the paper's default
    /// allocation ceil(lg(C_i + 1)).
    int bits_override = 0;
  };

  /// Per-attribute quantization tables (public so the storage engine can
  /// serialize and reassemble a VA-file without rebuilding it).
  struct AttributeQuantizer {
    int bits = 0;
    uint32_t num_bins = 0;      // non-missing bins: 2^bits - 1
    uint32_t cardinality = 0;
    uint32_t bit_offset = 0;    // offset of this attribute within a row
    /// code_of_value[v - 1] = bin code of value v (1-based codes).
    std::vector<uint32_t> code_of_value;
    /// bin_lo[k - 1] / bin_hi[k - 1] = value range of bin code k.
    std::vector<Value> bin_lo;
    std::vector<Value> bin_hi;
  };

  /// Builds the approximation file. Fails on an empty table.
  static Result<VaFile> Build(const Table& table, Options options);
  /// Builds with default options (paper defaults: uniform bins,
  /// b_i = ceil(lg(C_i + 1))).
  static Result<VaFile> Build(const Table& table);

  /// Reassembles a VA-file from parts the storage engine deserialized. The
  /// packed approximation array is *borrowed* (zero-copy over an mmap'd
  /// segment); the caller guarantees it outlives the index. Appending
  /// detaches into owned storage first. Validates shapes, not contents.
  static Result<VaFile> FromParts(const Table* table, Options options,
                                  std::vector<AttributeQuantizer> attributes,
                                  uint32_t row_stride_bits, uint64_t num_rows,
                                  std::span<const uint64_t> packed);

  std::string Name() const override;
  Result<BitVector> Execute(const RangeQuery& query,
                            QueryStats* stats = nullptr) const override;
  uint64_t SizeInBytes() const override;

  /// Appends one record's approximation (incremental maintenance). Append
  /// the row to the base table first; the approximation uses the bins
  /// fixed at Build time (equi-depth bins are not re-balanced). The result
  /// is bit-identical to a rebuilt uniform VA-file over the extended data.
  Status AppendRow(const std::vector<Value>& row) override;

  /// Rows covered by the approximation file (tracks AppendRow).
  uint64_t num_rows() const { return num_rows_; }

  /// Bits allocated to attribute `attr` (b_i).
  int BitsFor(size_t attr) const { return attributes_[attr].bits; }

  /// Approximation code of `value` for attribute `attr`; 0 for missing.
  /// This is the paper's VA(x) function.
  uint32_t CodeOf(size_t attr, Value value) const;

  /// Value range [lo, hi] covered by non-missing bin `code` (1-based).
  Interval BinRange(size_t attr, uint32_t code) const;

  /// Stored approximation code for a record (reads the packed file).
  uint32_t StoredCode(uint64_t row, size_t attr) const;

  /// Bits per packed record (sum of b_i).
  uint32_t RowStrideBits() const { return row_stride_bits_; }

  /// Storage-engine accessors.
  const Options& options() const { return options_; }
  const std::vector<AttributeQuantizer>& attributes() const {
    return attributes_;
  }
  /// The bit-packed approximation array (borrowed or owned).
  std::span<const uint64_t> packed_view() const {
    return borrowed_packed_ != nullptr
               ? std::span<const uint64_t>(borrowed_packed_, num_borrowed_)
               : std::span<const uint64_t>(packed_);
  }
  /// True while the packed array is a non-owning view (see FromParts).
  bool borrowed() const { return borrowed_packed_ != nullptr; }

 private:
  VaFile(const Table* table, Options options,
         std::vector<AttributeQuantizer> attributes, uint32_t row_stride_bits,
         uint64_t num_rows, std::vector<uint64_t> packed)
      : table_(table),
        options_(options),
        attributes_(std::move(attributes)),
        row_stride_bits_(row_stride_bits),
        num_rows_(num_rows),
        packed_(std::move(packed)) {}

  uint64_t ExtractBits(uint64_t bit_pos, int width) const;
  void PutBits(uint64_t bit_pos, int width, uint64_t value);
  /// Copies a borrowed packed array into owned storage before mutation.
  void Detach();

  const uint64_t* packed_data() const {
    return borrowed_packed_ != nullptr ? borrowed_packed_ : packed_.data();
  }

  const Table* table_;
  Options options_;
  std::vector<AttributeQuantizer> attributes_;
  uint32_t row_stride_bits_ = 0;
  uint64_t num_rows_ = 0;
  /// Row-major bit-packed approximations.
  std::vector<uint64_t> packed_;
  /// Non-owning packed array (mmap zero-copy mode); see FromParts().
  const uint64_t* borrowed_packed_ = nullptr;
  size_t num_borrowed_ = 0;
};

}  // namespace incdb

#endif  // INCDB_VAFILE_VA_FILE_H_
