#include "bitmap/bitmap_index.h"

#include <algorithm>

#include "bitmap/slicer.h"
#include "common/bitutil.h"
#include "common/logging.h"

namespace incdb {

Result<BitmapIndex> BitmapIndex::Build(const Table& table, Options options) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot build a bitmap index on an empty table");
  }
  if (options.missing_strategy != MissingStrategy::kExtraBitmap &&
      options.encoding != BitmapEncoding::kEquality) {
    return Status::NotSupported(
        "kAllOnes/kAllZeros missing strategies apply to equality encoding only");
  }

  const uint64_t n = table.num_rows();
  std::vector<AttributeBitmaps> attributes;
  attributes.reserve(table.num_attributes());

  for (size_t a = 0; a < table.num_attributes(); ++a) {
    const Column& column = table.column(a);
    const uint32_t cardinality = column.cardinality();
    AttributeBitmaps ab;
    ab.cardinality = cardinality;
    ab.has_missing = column.MissingCount() > 0;

    if (options.missing_strategy == MissingStrategy::kAllOnes &&
        ab.has_missing && cardinality == 1) {
      return Status::NotSupported(
          "attribute '" + table.schema().attribute(a).name +
          "': kAllOnes cannot distinguish missing from the single value when "
          "cardinality is 1 (paper §4.2)");
    }

    // One direct axis (slot j-1 = value j) fed through the shared encoding
    // engine; the composite index kinds run the same loop over multi-axis
    // slicers (composite_index.cc).
    INCDB_ASSIGN_OR_RETURN(Slicer slicer,
                           Slicer::Create(SlotScheme::kDirect, cardinality));
    AxisEncoder encoder(options.encoding, cardinality);
    SetBitBuilder missing_builder;
    for (uint64_t r = 0; r < n; ++r) {
      const Value v = column.Get(r);
      if (IsMissing(v)) {
        switch (options.missing_strategy) {
          case MissingStrategy::kExtraBitmap:
            missing_builder.SetBitAt(r);
            encoder.AddMissingRow(r);  // range: missing counts as value 0
            break;
          case MissingStrategy::kAllOnes:
            for (uint32_t s = 0; s < cardinality; ++s) encoder.AddRow(r, s);
            break;
          case MissingStrategy::kAllZeros:
            break;  // absent from every bitmap
        }
      } else {
        encoder.AddRow(r, slicer.SlotOf(v, 0));
      }
    }
    ab.values = encoder.Finish(n);
    if (ab.has_missing &&
        options.missing_strategy == MissingStrategy::kExtraBitmap) {
      ab.missing = missing_builder.Finish(n);
    }
    attributes.push_back(std::move(ab));
  }
  return BitmapIndex(options, n, std::move(attributes));
}

std::string BitmapIndex::Name() const {
  std::string name(BitmapEncodingToString(options_.encoding));
  name += "-WAH";
  switch (options_.missing_strategy) {
    case MissingStrategy::kExtraBitmap:
      break;
    case MissingStrategy::kAllOnes:
      name += "(all-ones)";
      break;
    case MissingStrategy::kAllZeros:
      name += "(all-zeros)";
      break;
  }
  return name;
}

AxisRef BitmapIndex::AxisOf(const AttributeBitmaps& ab) const {
  AxisRef axis;
  axis.num_slots = ab.cardinality;
  axis.bitmaps = std::span<const WahBitVector>(ab.values);
  axis.missing = ab.missing.has_value() ? &*ab.missing : nullptr;
  axis.num_rows = num_rows_;
  return axis;
}

Status BitmapIndex::CheckInterval(size_t attr, Interval interval,
                                  MissingSemantics semantics) const {
  if (attr >= attributes_.size()) {
    return Status::OutOfRange("attribute index " + std::to_string(attr) +
                              " out of range");
  }
  const AttributeBitmaps& ab = attributes_[attr];
  if (interval.lo < 1 ||
      interval.hi > static_cast<Value>(ab.cardinality) ||
      interval.lo > interval.hi) {
    return Status::InvalidArgument("interval [" + std::to_string(interval.lo) +
                                   "," + std::to_string(interval.hi) +
                                   "] invalid for cardinality " +
                                   std::to_string(ab.cardinality));
  }
  if (options_.missing_strategy == MissingStrategy::kAllOnes &&
      semantics != MissingSemantics::kMatch) {
    return Status::NotSupported(
        "kAllOnes encodes missing as a universal match; it cannot answer "
        "missing-not-match queries (paper §4.2)");
  }
  if (options_.missing_strategy == MissingStrategy::kAllZeros &&
      semantics != MissingSemantics::kNoMatch) {
    return Status::NotSupported(
        "kAllZeros erases missing rows; it cannot answer missing-is-match "
        "queries (paper §4.2)");
  }
  return Status::OK();
}

Result<WahBitVector> BitmapIndex::EvaluateInterval(size_t attr,
                                                   Interval interval,
                                                   MissingSemantics semantics,
                                                   QueryStats* stats) const {
  INCDB_RETURN_IF_ERROR(CheckInterval(attr, interval, semantics));
  return EvaluateSlotInterval(options_.encoding, AxisOf(attributes_[attr]),
                              interval, options_.missing_strategy, semantics,
                              stats);
}

Result<BitmapIndex::PreparedQuery> BitmapIndex::Prepare(
    const RangeQuery& query, bool allow_dense, QueryStats* stats) const {
  if (query.terms.empty()) {
    return Status::InvalidArgument("query must have at least one term");
  }
  PreparedQuery prepared;
  if (!LowersToTermPlan(options_.encoding)) {
    prepared.conjuncts.reserve(query.terms.size());
    for (const QueryTerm& term : query.terms) {
      INCDB_ASSIGN_OR_RETURN(
          WahBitVector term_result,
          EvaluateInterval(term.attribute, term.interval, query.semantics,
                           stats));
      prepared.conjuncts.push_back(std::move(term_result));
    }
  } else {
    // Every term lowers into one plan, at most one clause each.
    WahTermPlan plan(num_rows_);
    for (const QueryTerm& term : query.terms) {
      INCDB_RETURN_IF_ERROR(
          CheckInterval(term.attribute, term.interval, query.semantics));
      LowerSlotInterval(options_.encoding, AxisOf(attributes_[term.attribute]),
                        term.interval, options_.missing_strategy,
                        query.semantics, stats, &plan);
    }
    if (allow_dense && plan.PrefersDense()) {
      prepared.dense = std::move(plan);
    } else {
      prepared.conjuncts = ExecuteClausesCompressed(plan, stats);
    }
  }
  // The cross-attribute conjunction.
  if (stats != nullptr) stats->bitvector_ops += query.terms.size() - 1;
  return prepared;
}

namespace {

std::vector<const WahBitVector*> Pointers(
    const std::vector<WahBitVector>& vecs) {
  std::vector<const WahBitVector*> ptrs;
  ptrs.reserve(vecs.size());
  for (const WahBitVector& vec : vecs) ptrs.push_back(&vec);
  return ptrs;
}

// Bit-sliced "count of rows matching `query result` AND value == v": one
// fused AndManyCount over the accumulator and the (optionally complemented)
// slices — neither the equality bitvector nor the conjunction is ever
// materialized.
uint64_t FusedSlicedValueCount(const WahBitVector& acc,
                               const std::vector<WahBitVector>& slices,
                               uint32_t v, QueryStats* stats) {
  std::vector<WahBitVector::Operand> ops;
  ops.reserve(slices.size() + 1);
  ops.push_back({&acc, false});
  for (size_t k = 0; k < slices.size(); ++k) {
    ops.push_back({&slices[k], ((v >> k) & 1) == 0});
  }
  if (stats != nullptr) {
    stats->bitvectors_accessed += slices.size();
    stats->bitvector_ops += slices.size();
    stats->words_touched += acc.NumWords();
    for (const WahBitVector& s : slices) stats->words_touched += s.NumWords();
  }
  WahStatsScope op_scope(stats);
  return WahBitVector::AndManyCount(
      std::span<const WahBitVector::Operand>(ops), op_scope.get());
}

}  // namespace

WahBitVector BitmapIndex::AndConjuncts(std::vector<WahBitVector> conjuncts,
                                       QueryStats* stats) const {
  if (conjuncts.empty()) return WahBitVector::Fill(num_rows_, true);
  if (conjuncts.size() == 1) return std::move(conjuncts.front());
  // Cross-attribute conjunction as one fused k-way AND.
  WahStatsScope op_scope(stats);
  return WahBitVector::AndMany(Pointers(conjuncts), op_scope.get());
}

Result<WahBitVector> BitmapIndex::ExecuteCompressed(const RangeQuery& query,
                                                    QueryStats* stats) const {
  INCDB_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         Prepare(query, /*allow_dense=*/false, stats));
  return AndConjuncts(std::move(prepared.conjuncts), stats);
}

Result<BitVector> BitmapIndex::Execute(const RangeQuery& query,
                                       QueryStats* stats) const {
  INCDB_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         Prepare(query, /*allow_dense=*/true, stats));
  if (prepared.dense.has_value()) {
    WahStatsScope op_scope(stats);
    return prepared.dense->DenseMaterialize(op_scope.get());
  }
  return AndConjuncts(std::move(prepared.conjuncts), stats).Decompress();
}

Result<BitmapIndex::Aggregate> BitmapIndex::ExecuteAggregate(
    const RangeQuery& query, size_t agg_attr, QueryStats* stats) const {
  if (agg_attr >= attributes_.size()) {
    return Status::OutOfRange("aggregate attribute index " +
                              std::to_string(agg_attr) + " out of range");
  }
  INCDB_ASSIGN_OR_RETURN(WahBitVector acc, ExecuteCompressed(query, stats));
  const AttributeBitmaps& ab = attributes_[agg_attr];
  Aggregate aggregate;
  WahStatsScope op_scope(stats);

  if (options_.encoding == BitmapEncoding::kBitSliced) {
    // Bit-sliced fast path: SUM = Σ_k 2^k * |acc ∧ S_k|; COUNT = matching
    // rows that appear in at least one slice... cheaper: total matches
    // minus the missing ones (code 0 is absent from every slice, but so is
    // no real value, since values start at 1 and always have some bit set).
    // Every popcount runs through the fused AndCount kernel.
    for (size_t k = 0; k < ab.values.size(); ++k) {
      if (stats != nullptr) {
        ++stats->bitvectors_accessed;
        ++stats->bitvector_ops;
        stats->words_touched += acc.NumWords() + ab.values[k].NumWords();
      }
      aggregate.sum += (uint64_t{1} << k) *
                       WahBitVector::AndCount(acc, ab.values[k],
                                              op_scope.get());
    }
    if (ab.missing.has_value()) {
      if (stats != nullptr) {
        ++stats->bitvectors_accessed;
        ++stats->bitvector_ops;
        stats->words_touched += acc.NumWords() + ab.missing->NumWords();
      }
      aggregate.missing_count =
          WahBitVector::AndCount(acc, *ab.missing, op_scope.get());
    }
    aggregate.count = acc.Count() - aggregate.missing_count;
    // Min/max still need the per-value walk (early-exit from each end);
    // each probe is one fused count over acc and the slices.
    for (uint32_t v = 1; v <= ab.cardinality && aggregate.count > 0; ++v) {
      if (FusedSlicedValueCount(acc, ab.values, v, stats) > 0) {
        aggregate.min = static_cast<Value>(v);
        break;
      }
    }
    for (uint32_t v = ab.cardinality; v >= 1 && aggregate.count > 0; --v) {
      if (FusedSlicedValueCount(acc, ab.values, v, stats) > 0) {
        aggregate.max = static_cast<Value>(v);
        break;
      }
    }
  } else {
    // Generic path: per-value fused counts (as in ExecuteGroupCount).
    const bool equality_direct =
        options_.encoding == BitmapEncoding::kEquality &&
        options_.missing_strategy != MissingStrategy::kAllOnes;
    for (uint32_t v = 1; v <= ab.cardinality; ++v) {
      uint64_t count = 0;
      if (equality_direct) {
        const WahBitVector& group = ab.values[v - 1];
        if (stats != nullptr) {
          ++stats->bitvectors_accessed;
          ++stats->bitvector_ops;
          stats->words_touched += acc.NumWords() + group.NumWords();
        }
        count = WahBitVector::AndCount(acc, group, op_scope.get());
      } else {
        INCDB_ASSIGN_OR_RETURN(
            WahBitVector group,
            EvaluateInterval(agg_attr,
                             {static_cast<Value>(v), static_cast<Value>(v)},
                             MissingSemantics::kNoMatch, stats));
        count = WahBitVector::AndCount(acc, group, op_scope.get());
        if (stats != nullptr) {
          ++stats->bitvector_ops;
          stats->words_touched += acc.NumWords() + group.NumWords();
        }
      }
      if (count == 0) continue;
      if (aggregate.count == 0) aggregate.min = static_cast<Value>(v);
      aggregate.max = static_cast<Value>(v);
      aggregate.count += count;
      aggregate.sum += count * v;
    }
    aggregate.missing_count = acc.Count() - aggregate.count;
  }

  if (aggregate.count > 0) {
    aggregate.mean = static_cast<double>(aggregate.sum) /
                     static_cast<double>(aggregate.count);
  }
  return aggregate;
}

Result<uint64_t> BitmapIndex::ExecuteCount(const RangeQuery& query,
                                           QueryStats* stats) const {
  INCDB_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         Prepare(query, /*allow_dense=*/true, stats));
  WahStatsScope op_scope(stats);
  if (prepared.dense.has_value()) {
    return prepared.dense->DenseCount(op_scope.get());
  }
  if (prepared.conjuncts.empty()) return num_rows_;
  // Fused count over the term conjunction: the AND result itself is never
  // materialized (for a single term this degenerates to Count()).
  return WahBitVector::AndManyCount(Pointers(prepared.conjuncts),
                                    op_scope.get());
}

Result<std::vector<uint64_t>> BitmapIndex::ExecuteGroupCount(
    const RangeQuery& query, size_t group_attr, QueryStats* stats) const {
  if (group_attr >= attributes_.size()) {
    return Status::OutOfRange("group attribute index " +
                              std::to_string(group_attr) + " out of range");
  }
  INCDB_ASSIGN_OR_RETURN(WahBitVector acc, ExecuteCompressed(query, stats));
  const AttributeBitmaps& ab = attributes_[group_attr];
  WahStatsScope op_scope(stats);
  std::vector<uint64_t> counts(ab.cardinality + 1, 0);
  uint64_t grouped = 0;
  // Every per-group count runs through a fused count kernel; no result
  // vector is ever materialized per group.
  const bool equality_direct =
      options_.encoding == BitmapEncoding::kEquality &&
      options_.missing_strategy != MissingStrategy::kAllOnes;
  for (uint32_t v = 1; v <= ab.cardinality; ++v) {
    if (equality_direct) {
      // "value == v" is the stored bitmap itself; count acc AND B_{i,v}
      // straight off index storage.
      const WahBitVector& group = ab.values[v - 1];
      if (stats != nullptr) {
        ++stats->bitvectors_accessed;
        ++stats->bitvector_ops;
        stats->words_touched += acc.NumWords() + group.NumWords();
      }
      counts[v] = WahBitVector::AndCount(acc, group, op_scope.get());
    } else if (options_.encoding == BitmapEncoding::kBitSliced) {
      counts[v] = FusedSlicedValueCount(acc, ab.values, v, stats);
    } else {
      // The per-value bitvector falls out of the interval evaluator for any
      // encoding: a no-match point query is exactly "value == v".
      INCDB_ASSIGN_OR_RETURN(
          WahBitVector group,
          EvaluateInterval(group_attr,
                           {static_cast<Value>(v), static_cast<Value>(v)},
                           MissingSemantics::kNoMatch, stats));
      counts[v] = WahBitVector::AndCount(acc, group, op_scope.get());
      if (stats != nullptr) {
        ++stats->bitvector_ops;
        stats->words_touched += acc.NumWords() + group.NumWords();
      }
    }
    grouped += counts[v];
  }
  // Missing-group bucket = matches not in any value group.
  counts[0] = acc.Count() - grouped;
  return counts;
}

Status BitmapIndex::AppendRow(const std::vector<Value>& row) {
  if (row.size() != attributes_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, index has " +
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
    if (IsMissing(v) && attributes_[a].cardinality == 1 &&
        options_.missing_strategy == MissingStrategy::kAllOnes) {
      return Status::NotSupported(
          "kAllOnes cannot represent missing at cardinality 1 (paper §4.2)");
    }
  }
  for (size_t a = 0; a < row.size(); ++a) {
    AttributeBitmaps& ab = attributes_[a];
    const Value v = row[a];
    const bool missing = IsMissing(v);
    if (missing && !ab.missing.has_value() &&
        options_.missing_strategy == MissingStrategy::kExtraBitmap) {
      // First missing value for this attribute: materialize B_{i,0}.
      ab.missing = WahBitVector::Fill(num_rows_, false);
      ab.has_missing = true;
    }
    if (options_.encoding == BitmapEncoding::kEquality) {
      const bool missing_bit_everywhere =
          missing && options_.missing_strategy == MissingStrategy::kAllOnes;
      for (uint32_t j = 1; j <= ab.cardinality; ++j) {
        ab.values[j - 1].AppendBit(
            missing ? missing_bit_everywhere
                    : static_cast<uint32_t>(v) == j);
      }
    } else if (options_.encoding == BitmapEncoding::kRange) {
      // Range encoding: B_{i,j} = "value <= j"; missing rows are 1 in
      // every kept bitmap.
      for (uint32_t j = 1; j + 1 <= ab.cardinality; ++j) {
        ab.values[j - 1].AppendBit(missing ||
                                   static_cast<uint32_t>(v) <= j);
      }
    } else if (options_.encoding == BitmapEncoding::kInterval) {
      // Interval encoding: I_j = "value in [j, j+m-1]".
      const uint32_t m = IntervalEncodingM(ab.cardinality);
      for (uint32_t j = 1; j <= ab.values.size(); ++j) {
        ab.values[j - 1].AppendBit(!missing &&
                                   j <= static_cast<uint32_t>(v) &&
                                   static_cast<uint32_t>(v) <= j + m - 1);
      }
    } else {
      // Bit-sliced encoding: slice k holds bit k of the code (missing = 0).
      const uint32_t code = missing ? 0 : static_cast<uint32_t>(v);
      for (size_t k = 0; k < ab.values.size(); ++k) {
        ab.values[k].AppendBit((code >> k) & 1);
      }
    }
    if (ab.missing.has_value()) ab.missing->AppendBit(missing);
  }
  ++num_rows_;
  return Status::OK();
}

Result<BitmapIndex> BitmapIndex::FromParts(
    Options options, uint64_t num_rows,
    std::vector<AttributeBitmaps> attributes) {
  if ((options.missing_strategy == MissingStrategy::kAllOnes ||
       options.missing_strategy == MissingStrategy::kAllZeros) &&
      options.encoding != BitmapEncoding::kEquality) {
    return Status::InvalidArgument(
        "bitmap parts: all-ones/all-zeros strategies are equality-only");
  }
  for (size_t a = 0; a < attributes.size(); ++a) {
    const AttributeBitmaps& ab = attributes[a];
    const uint64_t expected =
        AxisEncoder::NumBitmaps(options.encoding, ab.cardinality);
    if (ab.values.size() != expected) {
      return Status::IOError("bitmap parts: attribute " + std::to_string(a) +
                             " has " + std::to_string(ab.values.size()) +
                             " value bitmaps, encoding implies " +
                             std::to_string(expected));
    }
    if (ab.has_missing != ab.missing.has_value()) {
      return Status::IOError("bitmap parts: attribute " + std::to_string(a) +
                             " missing-bitmap flag mismatch");
    }
    if (ab.missing.has_value() && ab.missing->size() != num_rows) {
      return Status::IOError("bitmap parts: attribute " + std::to_string(a) +
                             " missing bitmap size mismatch");
    }
    for (const WahBitVector& bitmap : ab.values) {
      if (bitmap.size() != num_rows) {
        return Status::IOError("bitmap parts: attribute " + std::to_string(a) +
                               " bitmap size mismatch");
      }
    }
  }
  return BitmapIndex(options, num_rows, std::move(attributes));
}

uint64_t BitmapIndex::SizeInBytes() const {
  uint64_t total = 0;
  for (size_t a = 0; a < attributes_.size(); ++a) {
    total += AttributeSizeInBytes(a);
  }
  return total;
}

uint64_t BitmapIndex::AttributeSizeInBytes(size_t attr) const {
  const AttributeBitmaps& ab = attributes_[attr];
  uint64_t total = 0;
  for (const WahBitVector& bitmap : ab.values) total += bitmap.SizeInBytes();
  if (ab.missing.has_value()) total += ab.missing->SizeInBytes();
  return total;
}

size_t BitmapIndex::NumBitmaps(size_t attr) const {
  const AttributeBitmaps& ab = attributes_[attr];
  return ab.values.size() + (ab.missing.has_value() ? 1 : 0);
}

uint64_t BitmapIndex::VerbatimSizeInBytes() const {
  uint64_t total = 0;
  const uint64_t bytes_per_bitmap = bitutil::CeilDiv(num_rows_, 8);
  for (size_t a = 0; a < attributes_.size(); ++a) {
    total += NumBitmaps(a) * bytes_per_bitmap;
  }
  return total;
}

double BitmapIndex::CompressionRatio() const {
  const uint64_t verbatim = VerbatimSizeInBytes();
  if (verbatim == 0) return 0.0;
  return static_cast<double>(SizeInBytes()) / static_cast<double>(verbatim);
}

double BitmapIndex::AttributeCompressionRatio(size_t attr) const {
  const uint64_t verbatim =
      NumBitmaps(attr) * bitutil::CeilDiv(num_rows_, 8);
  if (verbatim == 0) return 0.0;
  return static_cast<double>(AttributeSizeInBytes(attr)) /
         static_cast<double>(verbatim);
}

}  // namespace incdb
