#include "vafile/va_file.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/logging.h"

namespace incdb {

namespace {

// Uniform (equal-width) code assignment: value v in [1, C] maps to code
// 1 + floor((v-1) * nbins / C). When nbins >= C every value gets a distinct
// code and the approximation is exact.
std::vector<uint32_t> UniformCodes(uint32_t cardinality, uint32_t num_bins) {
  std::vector<uint32_t> codes(cardinality);
  for (uint32_t v = 1; v <= cardinality; ++v) {
    codes[v - 1] =
        1 + static_cast<uint32_t>((static_cast<uint64_t>(v - 1) * num_bins) /
                                  cardinality);
  }
  return codes;
}

// Equi-depth code assignment (VA+-style): contiguous value ranges with
// approximately equal record counts per bin, computed from the column
// histogram. Guarantees every value gets a code and codes are
// non-decreasing in v.
std::vector<uint32_t> EquiDepthCodes(const Column& column,
                                     uint32_t num_bins) {
  const uint32_t cardinality = column.cardinality();
  const std::vector<uint64_t> hist = column.Histogram();
  uint64_t non_missing = 0;
  for (uint32_t v = 1; v <= cardinality; ++v) non_missing += hist[v];

  std::vector<uint32_t> codes(cardinality);
  const uint32_t bins = std::min(num_bins, cardinality);
  uint32_t bin = 1;
  uint64_t in_bin = 0;
  uint32_t values_left = cardinality;
  for (uint32_t v = 1; v <= cardinality; ++v, --values_left) {
    codes[v - 1] = bin;
    in_bin += hist[v];
    const uint32_t bins_left = bins - bin;
    // Close the bin when it reached its share, but never leave more values
    // than bins behind (every remaining bin must be usable) and never make
    // more bins than values.
    const double target = static_cast<double>(non_missing) /
                          static_cast<double>(bins);
    if (bin < bins && v < cardinality &&
        (static_cast<double>(in_bin) >= target ||
         values_left - 1 <= bins_left)) {
      ++bin;
      in_bin = 0;
    }
  }
  return codes;
}

}  // namespace

Result<VaFile> VaFile::Build(const Table& table) {
  return Build(table, Options());
}

Result<VaFile> VaFile::Build(const Table& table, Options options) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot build a VA-file on an empty table");
  }
  if (options.bits_override < 0 || options.bits_override > 30) {
    return Status::InvalidArgument("bits_override must be in [0, 30]");
  }

  std::vector<AttributeQuantizer> attributes;
  attributes.reserve(table.num_attributes());
  uint32_t stride = 0;
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    const Column& column = table.column(a);
    AttributeQuantizer quantizer;
    quantizer.cardinality = column.cardinality();
    // Paper default: b_i = ceil(lg(C_i + 1)); the +1 reserves code 0 for
    // missing. At least 1 bit so the missing code exists.
    int bits = options.bits_override > 0
                   ? options.bits_override
                   : bitutil::BitsForCardinality(quantizer.cardinality);
    bits = std::max(bits, 1);
    quantizer.bits = bits;
    quantizer.num_bins = (uint32_t{1} << bits) - 1;
    quantizer.bit_offset = stride;
    stride += static_cast<uint32_t>(bits);

    quantizer.code_of_value =
        options.quantization == VaQuantization::kEquiDepth
            ? EquiDepthCodes(column, quantizer.num_bins)
            : UniformCodes(quantizer.cardinality, quantizer.num_bins);

    // Derive per-code value ranges (empty codes get lo > hi).
    quantizer.bin_lo.assign(quantizer.num_bins, 1);
    quantizer.bin_hi.assign(quantizer.num_bins, 0);
    for (uint32_t v = 1; v <= quantizer.cardinality; ++v) {
      const uint32_t code = quantizer.code_of_value[v - 1];
      INCDB_CHECK(code >= 1 && code <= quantizer.num_bins);
      Value& lo = quantizer.bin_lo[code - 1];
      Value& hi = quantizer.bin_hi[code - 1];
      if (hi < lo) {
        lo = static_cast<Value>(v);
        hi = static_cast<Value>(v);
      } else {
        hi = static_cast<Value>(v);
      }
    }
    attributes.push_back(std::move(quantizer));
  }

  // Pack the approximations row-major.
  const uint64_t total_bits =
      static_cast<uint64_t>(stride) * table.num_rows();
  std::vector<uint64_t> packed(bitutil::CeilDiv(total_bits, 64), 0);
  auto put_bits = [&packed](uint64_t bit_pos, int width, uint64_t value) {
    const uint64_t word = bit_pos / 64;
    const int offset = static_cast<int>(bit_pos % 64);
    packed[word] |= value << offset;
    if (offset + width > 64) {
      packed[word + 1] |= value >> (64 - offset);
    }
  };
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    const uint64_t row_base = r * stride;
    for (size_t a = 0; a < attributes.size(); ++a) {
      const AttributeQuantizer& quantizer = attributes[a];
      const Value v = table.Get(r, a);
      const uint64_t code =
          IsMissing(v) ? 0 : quantizer.code_of_value[static_cast<size_t>(v) - 1];
      put_bits(row_base + quantizer.bit_offset, quantizer.bits, code);
    }
  }
  return VaFile(&table, options, std::move(attributes), stride,
                table.num_rows(), std::move(packed));
}

std::string VaFile::Name() const {
  std::string name = options_.quantization == VaQuantization::kEquiDepth
                         ? "VA+-File"
                         : "VA-File";
  if (options_.bits_override > 0) {
    name += "(b=" + std::to_string(options_.bits_override) + ")";
  }
  return name;
}

void VaFile::Detach() {
  if (borrowed_packed_ == nullptr) return;
  packed_.assign(borrowed_packed_, borrowed_packed_ + num_borrowed_);
  borrowed_packed_ = nullptr;
  num_borrowed_ = 0;
}

void VaFile::PutBits(uint64_t bit_pos, int width, uint64_t value) {
  Detach();
  const uint64_t needed_words = bitutil::CeilDiv(bit_pos + width, 64);
  if (packed_.size() < needed_words) packed_.resize(needed_words, 0);
  const uint64_t word = bit_pos / 64;
  const int offset = static_cast<int>(bit_pos % 64);
  packed_[word] |= value << offset;
  if (offset + width > 64) {
    packed_[word + 1] |= value >> (64 - offset);
  }
}

Status VaFile::AppendRow(const std::vector<Value>& row) {
  if (row.size() != attributes_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, VA-file has " +
        std::to_string(attributes_.size()) + " attributes");
  }
  for (size_t a = 0; a < row.size(); ++a) {
    const Value v = row[a];
    if (v != kMissingValue &&
        (v < 1 || static_cast<uint32_t>(v) > attributes_[a].cardinality)) {
      return Status::OutOfRange("attribute " + std::to_string(a) +
                                ": value " + std::to_string(v) +
                                " outside domain");
    }
  }
  const uint64_t row_base = num_rows_ * row_stride_bits_;
  for (size_t a = 0; a < row.size(); ++a) {
    const AttributeQuantizer& quantizer = attributes_[a];
    const uint64_t code =
        IsMissing(row[a])
            ? 0
            : quantizer.code_of_value[static_cast<size_t>(row[a]) - 1];
    PutBits(row_base + quantizer.bit_offset, quantizer.bits, code);
  }
  ++num_rows_;
  return Status::OK();
}

Result<VaFile> VaFile::FromParts(const Table* table, Options options,
                                 std::vector<AttributeQuantizer> attributes,
                                 uint32_t row_stride_bits, uint64_t num_rows,
                                 std::span<const uint64_t> packed) {
  if (table == nullptr) {
    return Status::InvalidArgument("VaFile::FromParts: null base table");
  }
  if (attributes.size() != table->num_attributes()) {
    return Status::InvalidArgument(
        "VA-file parts have " + std::to_string(attributes.size()) +
        " attributes, base table has " +
        std::to_string(table->num_attributes()));
  }
  if (num_rows > table->num_rows()) {
    return Status::InvalidArgument(
        "VA-file parts cover more rows than the base table");
  }
  uint32_t stride = 0;
  for (size_t a = 0; a < attributes.size(); ++a) {
    const AttributeQuantizer& quantizer = attributes[a];
    if (quantizer.cardinality != table->schema().attribute(a).cardinality) {
      return Status::InvalidArgument("VA-file parts: attribute " +
                                     std::to_string(a) +
                                     " cardinality mismatch with base table");
    }
    if (quantizer.bits < 1 || quantizer.bits > 30 ||
        quantizer.num_bins != (uint32_t{1} << quantizer.bits) - 1 ||
        quantizer.code_of_value.size() != quantizer.cardinality ||
        quantizer.bin_lo.size() != quantizer.num_bins ||
        quantizer.bin_hi.size() != quantizer.num_bins ||
        quantizer.bit_offset != stride) {
      return Status::IOError("VA-file parts: corrupted quantizer for attribute " +
                             std::to_string(a));
    }
    stride += static_cast<uint32_t>(quantizer.bits);
  }
  if (stride != row_stride_bits) {
    return Status::IOError("VA-file parts: row stride mismatch");
  }
  if (packed.size() !=
      bitutil::CeilDiv(num_rows * static_cast<uint64_t>(row_stride_bits), 64)) {
    return Status::IOError("VA-file parts: packed payload size mismatch");
  }
  VaFile file(table, options, std::move(attributes), row_stride_bits, num_rows,
              /*packed=*/{});
  file.borrowed_packed_ = packed.data();
  file.num_borrowed_ = packed.size();
  return file;
}

uint64_t VaFile::ExtractBits(uint64_t bit_pos, int width) const {
  const uint64_t word = bit_pos / 64;
  const int offset = static_cast<int>(bit_pos % 64);
  const uint64_t* packed = packed_data();
  uint64_t value = packed[word] >> offset;
  if (offset + width > 64) {
    value |= packed[word + 1] << (64 - offset);
  }
  return value & bitutil::LowBitsMask(width);
}

uint32_t VaFile::CodeOf(size_t attr, Value value) const {
  if (IsMissing(value)) return 0;
  return attributes_[attr].code_of_value[static_cast<size_t>(value) - 1];
}

Interval VaFile::BinRange(size_t attr, uint32_t code) const {
  const AttributeQuantizer& quantizer = attributes_[attr];
  INCDB_CHECK(code >= 1 && code <= quantizer.num_bins);
  return Interval{quantizer.bin_lo[code - 1], quantizer.bin_hi[code - 1]};
}

uint32_t VaFile::StoredCode(uint64_t row, size_t attr) const {
  const AttributeQuantizer& quantizer = attributes_[attr];
  return static_cast<uint32_t>(ExtractBits(
      row * row_stride_bits_ + quantizer.bit_offset, quantizer.bits));
}

Result<BitVector> VaFile::Execute(const RangeQuery& query,
                                  QueryStats* stats) const {
  INCDB_RETURN_IF_ERROR(ValidateQuery(query, *table_));

  // Per-term translated bounds (paper §4.5): query [v1, v2] becomes codes
  // [VA(v1), VA(v2)], plus code 0 when missing means match. Boundary codes
  // whose value range is not fully inside the interval require refinement.
  struct TermPlan {
    uint32_t bit_offset;
    int bits;
    uint32_t code_lo;
    uint32_t code_hi;
    bool include_missing;
    bool refine_lo;
    bool refine_hi;
  };
  std::vector<TermPlan> plans;
  plans.reserve(query.terms.size());
  for (const QueryTerm& term : query.terms) {
    const AttributeQuantizer& quantizer = attributes_[term.attribute];
    TermPlan plan;
    plan.bit_offset = quantizer.bit_offset;
    plan.bits = quantizer.bits;
    plan.code_lo = quantizer.code_of_value[static_cast<size_t>(term.interval.lo) - 1];
    plan.code_hi = quantizer.code_of_value[static_cast<size_t>(term.interval.hi) - 1];
    plan.include_missing = query.semantics == MissingSemantics::kMatch;
    plan.refine_lo = quantizer.bin_lo[plan.code_lo - 1] < term.interval.lo;
    plan.refine_hi = quantizer.bin_hi[plan.code_hi - 1] > term.interval.hi;
    plans.push_back(plan);
  }

  if (num_rows_ > table_->num_rows()) {
    return Status::Internal(
        "VA-file covers more rows than the base table; append rows to the "
        "table before the index");
  }
  BitVector result(num_rows_);
  for (uint64_t r = 0; r < num_rows_; ++r) {
    const uint64_t row_base = r * row_stride_bits_;
    bool candidate = true;
    bool needs_refinement = false;
    for (const TermPlan& plan : plans) {
      const uint32_t code = static_cast<uint32_t>(
          ExtractBits(row_base + plan.bit_offset, plan.bits));
      if (code == 0) {
        if (!plan.include_missing) {
          candidate = false;
          break;
        }
        continue;  // missing counts as a match for this term
      }
      if (code < plan.code_lo || code > plan.code_hi) {
        candidate = false;
        break;
      }
      if ((code == plan.code_lo && plan.refine_lo) ||
          (code == plan.code_hi && plan.refine_hi)) {
        needs_refinement = true;
      }
    }
    if (!candidate) continue;
    if (stats != nullptr) ++stats->candidates;
    if (needs_refinement && !RowMatches(*table_, r, query)) {
      if (stats != nullptr) ++stats->false_positives;
      continue;
    }
    result.Set(r);
  }
  return result;
}

uint64_t VaFile::SizeInBytes() const {
  const uint64_t approximation_bytes = bitutil::CeilDiv(
      static_cast<uint64_t>(row_stride_bits_) * num_rows_, 8);
  uint64_t lookup_bytes = 0;
  for (const AttributeQuantizer& quantizer : attributes_) {
    // The lookup table stores the value range per bin.
    lookup_bytes += 2 * sizeof(Value) * quantizer.num_bins;
  }
  return approximation_bytes + lookup_bytes;
}

}  // namespace incdb
