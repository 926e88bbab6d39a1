#include "repro/bitstring_augmented.h"

#include <cmath>

#include "common/bitutil.h"

namespace incdb {

Result<BitstringAugmentedIndex> BitstringAugmentedIndex::Build(
    const Table& table, int max_node_entries) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument(
        "cannot build a bitstring-augmented index on an empty table");
  }
  const size_t d = table.num_attributes();
  std::vector<int32_t> means(d);
  for (size_t a = 0; a < d; ++a) {
    means[a] = static_cast<int32_t>(
        std::lround(table.column(a).NonMissingMean()));
  }

  const size_t words_per_record = bitutil::CeilDiv(d, 64);
  std::vector<uint64_t> bitstrings(table.num_rows() * words_per_record, 0);
  RTree rtree(d, max_node_entries);
  std::vector<int32_t> point(d);
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < d; ++a) {
      const Value v = table.Get(r, a);
      if (IsMissing(v)) {
        point[a] = means[a];
        bitstrings[r * words_per_record + a / 64] |= uint64_t{1} << (a % 64);
      } else {
        point[a] = v;
      }
    }
    rtree.Insert(point, static_cast<uint32_t>(r));
  }
  return BitstringAugmentedIndex(table.num_rows(), d, std::move(rtree),
                                 std::move(means), std::move(bitstrings),
                                 words_per_record);
}

Result<BitVector> BitstringAugmentedIndex::Execute(const RangeQuery& query,
                                                   QueryStats* stats) const {
  const size_t k = query.terms.size();
  if (k == 0) {
    return Status::InvalidArgument("query must have at least one term");
  }
  if (k > 20) {
    return Status::NotSupported(
        "bitstring-augmented query expansion is 2^k subqueries; k > 20 "
        "refused (this exponential blow-up is the baseline's weakness)");
  }
  for (const QueryTerm& term : query.terms) {
    if (term.attribute >= num_attrs_) {
      return Status::OutOfRange("attribute index " +
                                std::to_string(term.attribute) +
                                " out of range");
    }
  }

  // The full-domain box; subqueries tighten the search-key dimensions.
  Rect base_box;
  base_box.lo.assign(num_attrs_, 0);
  base_box.hi.resize(num_attrs_);
  for (size_t a = 0; a < num_attrs_; ++a) {
    // Domain upper bounds are not stored here; means_ <= C and values <= C
    // were inserted, so INT32_MAX is a safe (and cheap) upper bound.
    base_box.hi[a] = std::numeric_limits<int32_t>::max();
  }

  BitVector result(num_rows_);
  std::vector<uint32_t> candidates;

  // Under no-match semantics only the S = empty-set subquery applies.
  const uint64_t num_subsets =
      query.semantics == MissingSemantics::kMatch ? (uint64_t{1} << k) : 1;
  for (uint64_t subset = 0; subset < num_subsets; ++subset) {
    Rect box = base_box;
    for (size_t i = 0; i < k; ++i) {
      const QueryTerm& term = query.terms[i];
      if ((subset >> i) & 1) {
        // Treated as missing: constrained to the mean point the missing
        // cells were mapped to.
        box.lo[term.attribute] = means_[term.attribute];
        box.hi[term.attribute] = means_[term.attribute];
      } else {
        box.lo[term.attribute] = term.interval.lo;
        box.hi[term.attribute] = term.interval.hi;
      }
    }
    candidates.clear();
    const uint64_t nodes = rtree_.RangeSearch(box, &candidates);
    if (stats != nullptr) {
      ++stats->subqueries;
      stats->nodes_accessed += nodes;
      stats->candidates += candidates.size();
    }
    // Bitstring filter: the record's missingness over the search key must
    // be exactly S (this also de-duplicates across subqueries).
    for (uint32_t r : candidates) {
      bool accept = true;
      for (size_t i = 0; i < k; ++i) {
        const bool wanted_missing = ((subset >> i) & 1) != 0;
        if (IsMissingBit(r, query.terms[i].attribute) != wanted_missing) {
          accept = false;
          break;
        }
      }
      if (accept) {
        result.Set(r);
      } else if (stats != nullptr) {
        ++stats->false_positives;
      }
    }
  }
  return result;
}

uint64_t BitstringAugmentedIndex::SizeInBytes() const {
  return rtree_.SizeInBytes() + bitstrings_.size() * sizeof(uint64_t) +
         means_.size() * sizeof(int32_t);
}

}  // namespace incdb
