#include "bitmap/encoder.h"

#include <algorithm>

#include "common/bitutil.h"
#include "common/logging.h"

namespace incdb {

std::string_view BitmapEncodingToString(BitmapEncoding encoding) {
  switch (encoding) {
    case BitmapEncoding::kEquality:
      return "BEE";
    case BitmapEncoding::kRange:
      return "BRE";
    case BitmapEncoding::kInterval:
      return "BIE";
    case BitmapEncoding::kBitSliced:
      return "BSL";
  }
  return "unknown";
}

uint32_t IntervalEncodingM(uint32_t cardinality) {
  return (cardinality + 1) / 2;
}

uint32_t IntervalEncodingN(uint32_t cardinality) {
  return cardinality - IntervalEncodingM(cardinality) + 1;
}

AxisEncoder::AxisEncoder(BitmapEncoding encoding, uint32_t num_slots)
    : encoding_(encoding), num_slots_(num_slots) {
  // Range builds on the full C-deep equality scaffold; Finish folds it into
  // the C-1 stored cumulative bitmaps.
  builders_.resize(encoding == BitmapEncoding::kRange
                       ? num_slots
                       : static_cast<size_t>(NumBitmaps(encoding, num_slots)));
}

void AxisEncoder::AddRow(uint64_t row, uint32_t slot) {
  INCDB_DCHECK(slot < num_slots_);
  switch (encoding_) {
    case BitmapEncoding::kEquality:
    case BitmapEncoding::kRange:
      // Range shares the equality scaffold; Finish folds it into the
      // cumulative "value <= j" ladder.
      builders_[slot].SetBitAt(row);
      break;
    case BitmapEncoding::kInterval: {
      // Slot s (value s+1) belongs to I_j for j in [s-m+2, s+1] clamped to
      // the stored window [1, n].
      const uint32_t value = slot + 1;
      const uint32_t m = IntervalEncodingM(num_slots_);
      const uint32_t n_bitmaps = static_cast<uint32_t>(builders_.size());
      const uint32_t first = value >= m ? value - m + 1 : 1;
      const uint32_t last = std::min(n_bitmaps, value);
      for (uint32_t j = first; j <= last; ++j) builders_[j - 1].SetBitAt(row);
      break;
    }
    case BitmapEncoding::kBitSliced: {
      // Binary-encode code = slot+1 (the all-zeros code stays reserved for
      // missing) into the slice builders.
      for (uint32_t code = slot + 1; code != 0; code &= code - 1) {
        builders_[static_cast<size_t>(bitutil::CountTrailingZeros(code))]
            .SetBitAt(row);
      }
      break;
    }
  }
}

void AxisEncoder::AddMissingRow(uint64_t row) {
  if (encoding_ != BitmapEncoding::kRange) return;
  range_missing_.SetBitAt(row);
  has_range_missing_ = true;
}

std::vector<WahBitVector> AxisEncoder::Finish(uint64_t num_rows) {
  std::vector<WahBitVector> bitmaps;
  bitmaps.reserve(builders_.size());
  if (encoding_ == BitmapEncoding::kRange) {
    // B_j = "value <= j" as a running OR over the equality scaffold, seeded
    // from the missing rows (missing counts as value 0, below the domain);
    // the all-ones top bitmap B_C is dropped (paper §4.3).
    WahBitVector running = has_range_missing_
                               ? range_missing_.Finish(num_rows)
                               : WahBitVector::Fill(num_rows, false);
    for (uint32_t j = 1; j <= num_slots_ - 1; ++j) {
      running = running.Or(builders_[j - 1].Finish(num_rows));
      bitmaps.push_back(running);
    }
    // The scaffold holds num_slots_ builders but only the first
    // num_slots_-1 feed stored bitmaps (the top one would OR into the
    // dropped all-ones B_C).
    return bitmaps;
  }
  for (SetBitBuilder& builder : builders_) {
    bitmaps.push_back(builder.Finish(num_rows));
  }
  return bitmaps;
}

uint64_t AxisEncoder::NumBitmaps(BitmapEncoding encoding, uint32_t num_slots) {
  switch (encoding) {
    case BitmapEncoding::kEquality:
      return num_slots;
    case BitmapEncoding::kRange:
      return num_slots > 0 ? num_slots - 1 : 0;
    case BitmapEncoding::kInterval:
      return IntervalEncodingN(num_slots);
    case BitmapEncoding::kBitSliced:
      return static_cast<uint64_t>(bitutil::BitsForCardinality(num_slots));
  }
  return 0;
}

namespace {

using Operand = WahBitVector::Operand;

// Charges the logical counters for the clauses a lowering appended,
// reading them off the plan's shape: every factor is one bitvector access
// over its code words; a product of k factors costs k-1 ANDs plus a NOT
// when none of them is plain (NOT of the OR of the complemented operands,
// which is how the compressed executor issues it — an empty product is the
// NOT of an empty OR); a clause of p products costs p-1 ORs.
void ChargeLoweredClauses(const WahTermPlan& plan, size_t first_clause,
                          QueryStats* stats) {
  if (stats == nullptr) return;
  for (size_t c = first_clause; c < plan.clauses.size(); ++c) {
    const WahTermPlan::Span& clause = plan.clauses[c];
    if (clause.size() > 1) stats->bitvector_ops += clause.size() - 1;
    for (size_t p = clause.begin; p < clause.end; ++p) {
      const WahTermPlan::Span& product = plan.products[p];
      bool any_plain = false;
      for (size_t f = product.begin; f < product.end; ++f) {
        const Operand& op = plan.factors[f];
        any_plain = any_plain || !op.negate;
        ++stats->bitvectors_accessed;
        stats->words_touched += op.vec->NumWords();
      }
      if (product.size() > 1) stats->bitvector_ops += product.size() - 1;
      if (!any_plain) ++stats->bitvector_ops;
    }
  }
}

void LowerEquality(const AxisRef& axis, Interval interval,
                   MissingStrategy strategy, MissingSemantics semantics,
                   WahTermPlan* plan) {
  const Value cardinality = static_cast<Value>(axis.num_slots);
  const Value lo = interval.lo;
  const Value hi = interval.hi;
  auto bitmap = [&](Value j) -> const WahBitVector* {
    return &axis.bitmaps[static_cast<size_t>(j) - 1];
  };
  // Paper Fig. 2: OR the bitmaps inside the interval when it covers at
  // most half the domain, otherwise complement the OR of the outside ones —
  // the side with fewer bitmaps, which realizes the paper's worst-case
  // bound of min(AS, 1-AS) * C + 1 bitvector accesses. The complement is
  // lowered as one product of complemented operands (NOT of an OR).
  //
  // kAllZeros (a §4.2 rejected alternative) erases missing rows from every
  // bitmap, so the complement would resurrect them: it always takes the
  // direct OR, the performance drawback the ablation shows.
  const Value width = hi - lo + 1;
  const bool narrow = width <= cardinality - width ||
                      strategy == MissingStrategy::kAllZeros;
  const bool extra = strategy == MissingStrategy::kExtraBitmap &&
                     axis.missing != nullptr;
  plan->AddClause();
  if (narrow) {
    for (Value j = lo; j <= hi; ++j) plan->AddProduct({{bitmap(j), false}});
    // B_{i,0} joins the union when missing rows count as matches.
    if (extra && semantics == MissingSemantics::kMatch) {
      plan->AddProduct({{axis.missing, false}});
    }
    return;
  }
  plan->AddProduct();
  for (Value j = 1; j <= cardinality; ++j) {
    if (j < lo || j > hi) plan->AddFactor({bitmap(j), true});
  }
  // NOT(outside OR B_0): the complement alone would admit missing rows.
  if (extra && semantics == MissingSemantics::kNoMatch) {
    plan->AddFactor({axis.missing, true});
  }
  // kAllOnes (rejected alternative, match semantics only) sets missing
  // rows in every bitmap, so the complement drops them; they are the only
  // rows set in two value bitmaps, which recovers them.
  if (strategy == MissingStrategy::kAllOnes && cardinality >= 2) {
    plan->AddProduct({{bitmap(1), false}, {bitmap(2), false}});
  }
}

void LowerRange(const AxisRef& axis, Interval interval,
                MissingSemantics semantics, WahTermPlan* plan) {
  // Paper Fig. 3 as one rule: [lo, hi] = LE(hi) AND NOT LE(lo-1), where the
  // stored B_j = LE(j) ("value <= j") for j in [1, C-1]. Missing counts as
  // value 0, so LE(0) is B_0 (no rows when the attribute is complete) and
  // every stored LE(j) holds the missing rows; LE(C) is the dropped
  // all-ones B_C. Constant operands drop out of the product, and an empty
  // product (every row matches) adds no clause. Under match semantics the
  // subtraction of LE(lo-1) strips missing rows, so they are ORed back in;
  // at lo == 1 nothing is subtracted and LE(hi) already holds them. The
  // nesting LE(lo-1) ⊆ LE(hi) makes this AND-NOT the XOR of Fig. 3.
  const Value cardinality = static_cast<Value>(axis.num_slots);
  const Value lo = interval.lo;
  const Value hi = interval.hi;
  const bool match = semantics == MissingSemantics::kMatch;
  auto le = [&](Value j) -> const WahBitVector* {
    return j == 0 ? axis.missing : &axis.bitmaps[static_cast<size_t>(j) - 1];
  };
  const bool keep_hi = hi < cardinality;
  const bool subtract = lo > 1 || (!match && axis.missing != nullptr);
  if (!keep_hi && !subtract) return;
  plan->AddClause();
  plan->AddProduct();
  if (keep_hi) plan->AddFactor({le(hi), false});
  if (subtract) plan->AddFactor({le(lo - 1), true});
  if (match && lo > 1 && axis.missing != nullptr) {
    plan->AddProduct({{axis.missing, false}});
  }
}

void LowerIntervalEncoded(const AxisRef& axis, Interval interval,
                          MissingSemantics semantics, WahTermPlan* plan) {
  // Two-bitmap evaluation rules for the interval encoding, derived from
  // I_j = [j, j+m-1], m = ceil(C/2), n = C-m+1 stored bitmaps. For a query
  // [l, h] of width w = h-l+1:
  //   w == C             -> all ones (no bitmap touched)
  //   w == m             -> I_l
  //   w  > m             -> I_l OR I_{h-m+1}        ([l,l+m-1] ∪ [h-m+1,h],
  //                         contiguous because w <= C <= 2m)
  //   w  < m and h < m   -> I_l AND NOT I_{h+1}     (bottom corner)
  //   w  < m and l > n   -> I_{h-m+1} AND NOT I_{l-m}  (top corner)
  //   w  < m otherwise   -> I_l AND I_{h-m+1}       (window intersection)
  // Missing rows are 0 in every I_j, so: match semantics ORs in B_{i,0};
  // no-match gets correct results for free (the full-domain case excepted,
  // which needs NOT B_{i,0}).
  const Value cardinality = static_cast<Value>(axis.num_slots);
  const Value m = static_cast<Value>(IntervalEncodingM(axis.num_slots));
  const Value n = static_cast<Value>(IntervalEncodingN(axis.num_slots));
  const Value lo = interval.lo;
  const Value hi = interval.hi;
  const Value width = hi - lo + 1;
  auto bitmap = [&](Value j) -> const WahBitVector* {
    INCDB_DCHECK(j >= 1 && j <= n);
    return &axis.bitmaps[static_cast<size_t>(j) - 1];
  };

  if (width == cardinality) {
    if (semantics == MissingSemantics::kNoMatch && axis.missing != nullptr) {
      plan->AddClause();
      plan->AddProduct({{axis.missing, true}});
    }
    return;
  }
  plan->AddClause();
  if (width >= m) {
    plan->AddProduct({{bitmap(lo), false}});
    if (width > m) plan->AddProduct({{bitmap(hi - m + 1), false}});
  } else if (hi < m) {
    plan->AddProduct({{bitmap(lo), false}, {bitmap(hi + 1), true}});
  } else if (lo > n) {
    plan->AddProduct({{bitmap(hi - m + 1), false}, {bitmap(lo - m), true}});
  } else {
    plan->AddProduct({{bitmap(lo), false}, {bitmap(hi - m + 1), false}});
  }
  if (semantics == MissingSemantics::kMatch && axis.missing != nullptr) {
    plan->AddProduct({{axis.missing, false}});
  }
}

// One product issued with today's compressed kernel for its shape. A lone
// plain factor is returned as a pointer into index storage (no copy);
// anything computed lands in `scratch`.
const WahBitVector* ExecuteProduct(const WahTermPlan& plan,
                                   const WahTermPlan::Span& product,
                                   WahOpStats* op_stats,
                                   std::vector<WahBitVector>* scratch) {
  const std::span<const Operand> ops(plan.factors.data() + product.begin,
                                     product.size());
  const bool all_negated = std::none_of(
      ops.begin(), ops.end(), [](const Operand& op) { return !op.negate; });
  if (ops.size() == 1 && !ops[0].negate) return ops[0].vec;
  if (ops.empty()) {
    scratch->push_back(WahBitVector::Fill(plan.num_bits, true));
  } else if (ops.size() == 1) {
    scratch->push_back(ops[0].vec->Not());
  } else if (all_negated) {
    std::vector<const WahBitVector*> vecs;
    vecs.reserve(ops.size());
    for (const Operand& op : ops) vecs.push_back(op.vec);
    scratch->push_back(WahBitVector::OrMany(vecs, op_stats).Not());
  } else if (ops.size() == 2 && ops[0].negate != ops[1].negate) {
    const Operand& plain = ops[0].negate ? ops[1] : ops[0];
    const Operand& negated = ops[0].negate ? ops[0] : ops[1];
    scratch->push_back(plain.vec->AndNot(*negated.vec));
  } else if (ops.size() == 2) {
    scratch->push_back(ops[0].vec->And(*ops[1].vec));
  } else {
    scratch->push_back(WahBitVector::AndMany(ops, op_stats));
  }
  return &scratch->back();
}

}  // namespace

bool LowersToTermPlan(BitmapEncoding encoding) {
  return encoding != BitmapEncoding::kBitSliced;
}

void LowerSlotInterval(BitmapEncoding encoding, const AxisRef& axis,
                       Interval interval, MissingStrategy strategy,
                       MissingSemantics semantics, QueryStats* stats,
                       WahTermPlan* plan) {
  INCDB_CHECK(LowersToTermPlan(encoding));
  const size_t first_clause = plan->clauses.size();
  switch (encoding) {
    case BitmapEncoding::kEquality:
      LowerEquality(axis, interval, strategy, semantics, plan);
      break;
    case BitmapEncoding::kRange:
      LowerRange(axis, interval, semantics, plan);
      break;
    case BitmapEncoding::kInterval:
      LowerIntervalEncoded(axis, interval, semantics, plan);
      break;
    case BitmapEncoding::kBitSliced:
      break;
  }
  ChargeLoweredClauses(*plan, first_clause, stats);
}

std::vector<WahBitVector> ExecuteClausesCompressed(const WahTermPlan& plan,
                                                   QueryStats* stats) {
  WahStatsScope op_scope(stats);
  std::vector<WahBitVector> results;
  results.reserve(plan.clauses.size());
  std::vector<WahBitVector> scratch;
  std::vector<const WahBitVector*> terms;
  for (const WahTermPlan::Span& clause : plan.clauses) {
    // Room for every product up front: `terms` points into `scratch`.
    scratch.clear();
    scratch.reserve(clause.size());
    terms.clear();
    for (size_t p = clause.begin; p < clause.end; ++p) {
      terms.push_back(
          ExecuteProduct(plan, plan.products[p], op_scope.get(), &scratch));
    }
    if (terms.empty()) {
      results.push_back(WahBitVector::Fill(plan.num_bits, false));
    } else if (terms.size() == 1) {
      results.push_back(scratch.empty() ? *terms[0] : std::move(scratch[0]));
    } else {
      results.push_back(WahBitVector::OrMany(terms, op_scope.get()));
    }
  }
  return results;
}

namespace {

WahBitVector EvaluateBitSliced(const AxisRef& axis, Interval interval,
                               MissingSemantics semantics, QueryStats* stats) {
  // O'Neil-Quass bit-sliced evaluation over the compressed slices.
  // Codes: missing = 0, value v = v; slices S_0..S_{b-1} (LSB first).
  //
  //   EQ(v): running AND of S_k (bit set) / AND-NOT S_k (bit clear).
  //   LE(v): the classic circuit — walk slices MSB→LSB keeping
  //          BLT (certainly less) and BEQ (equal so far):
  //            bit k of v set:   BLT |= BEQ & ~S_k;  BEQ &= S_k
  //            bit k of v clear: BEQ &= ~S_k
  //          LE = BLT | BEQ.
  //   [lo, hi]: LE(hi) AND NOT (lo == 1 ? B_0 : LE(lo-1)) — code 0
  //   (missing) is below every value, so the subtraction also strips
  //   missing rows; match semantics then OR B_0 back in.
  const Value cardinality = static_cast<Value>(axis.num_slots);
  const Value lo = interval.lo;
  const Value hi = interval.hi;
  const int num_slices = static_cast<int>(axis.bitmaps.size());
  auto slice = [&](int k) -> const WahBitVector& {
    const WahBitVector& vec = axis.bitmaps[static_cast<size_t>(k)];
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += vec.NumWords();
    }
    return vec;
  };
  auto count_op = [&](int n = 1) {
    if (stats != nullptr) stats->bitvector_ops += static_cast<uint64_t>(n);
  };
  auto equals = [&](Value v) -> WahBitVector {
    // One fused pass of AND_k (bit k set ? S_k : NOT S_k) — the per-operand
    // complement never materializes NOT S_k.
    std::vector<WahBitVector::Operand> ops;
    ops.reserve(static_cast<size_t>(num_slices));
    for (int k = num_slices - 1; k >= 0; --k) {
      ops.push_back({&slice(k), ((v >> k) & 1) == 0});
    }
    count_op(num_slices);
    WahStatsScope op_scope(stats);
    return WahBitVector::AndMany(std::span<const WahBitVector::Operand>(ops),
                                 op_scope.get());
  };
  auto less_equal = [&](Value v) -> WahBitVector {
    WahBitVector blt = WahBitVector::Fill(axis.num_rows, false);
    WahBitVector beq = WahBitVector::Fill(axis.num_rows, true);
    for (int k = num_slices - 1; k >= 0; --k) {
      const WahBitVector& sk = slice(k);
      if ((v >> k) & 1) {
        blt = blt.Or(beq.AndNot(sk));
        beq = beq.And(sk);
        count_op(3);
      } else {
        beq = beq.AndNot(sk);
        count_op();
      }
    }
    count_op();
    return blt.Or(beq);
  };
  auto missing_rows = [&]() -> WahBitVector {
    if (axis.missing == nullptr) {
      return WahBitVector::Fill(axis.num_rows, false);
    }
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += axis.missing->NumWords();
    }
    return *axis.missing;
  };

  WahBitVector base;
  if (lo == hi) {
    base = equals(lo);  // code lo >= 1, so missing (code 0) is excluded
  } else {
    WahBitVector le_hi = hi == cardinality
                             ? WahBitVector::Fill(axis.num_rows, true)
                             : less_equal(hi);
    // Subtract codes <= lo-1; LE(0) is exactly the missing rows.
    WahBitVector below = lo == 1 ? missing_rows() : less_equal(lo - 1);
    base = le_hi.AndNot(below);
    count_op();
  }
  if (semantics == MissingSemantics::kMatch && axis.missing != nullptr) {
    if (stats != nullptr) {
      ++stats->bitvectors_accessed;
      stats->words_touched += axis.missing->NumWords();
    }
    base = base.Or(*axis.missing);
    count_op();
  }
  return base;
}

}  // namespace

WahBitVector EvaluateSlotInterval(BitmapEncoding encoding, const AxisRef& axis,
                                  Interval interval, MissingStrategy strategy,
                                  MissingSemantics semantics,
                                  QueryStats* stats) {
  if (!LowersToTermPlan(encoding)) {
    return EvaluateBitSliced(axis, interval, semantics, stats);
  }
  WahTermPlan plan(axis.num_rows);
  LowerSlotInterval(encoding, axis, interval, strategy, semantics, stats,
                    &plan);
  std::vector<WahBitVector> clauses = ExecuteClausesCompressed(plan, stats);
  if (clauses.empty()) return WahBitVector::Fill(axis.num_rows, true);
  INCDB_DCHECK(clauses.size() == 1);
  return std::move(clauses.front());
}

}  // namespace incdb
