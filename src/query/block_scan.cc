#include "query/block_scan.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/logging.h"

namespace incdb {

namespace {

/// Rows per batch: every term fills its masks for one batch before the
/// program combines them, so a batch's flags and mask pairs stay in L1.
constexpr uint64_t kBatchWords = 32;
constexpr uint64_t kBatchRows = kBatchWords * 64;

/// Gathers the low bit of each of 8 bytes into one byte: byte i's bit lands
/// at bit 56 + i of the product, and no partial sum carries into that byte.
constexpr uint64_t kLowBitOfEachByte = 0x0101010101010101ULL;
constexpr uint64_t kGatherBytes = 0x0102040810204080ULL;

uint64_t PackLowBits(uint64_t bytes) {
  return ((bytes & kLowBitOfEachByte) * kGatherBytes) >> 56;
}

/// The (true, false) masks of one predicate node over one batch.
struct MaskPair {
  std::array<uint64_t, kBatchWords> t;
  std::array<uint64_t, kBatchWords> f;
};

/// Row flags for one term over one batch: bit 0 = in the interval,
/// bit 1 = present. Written with a branch-free loop over each contiguous
/// run so the compiler can vectorise the compare.
void FillFlags(const Column& column, uint32_t lo, uint32_t width,
               uint64_t batch_first, uint64_t begin, uint64_t end,
               uint8_t* flags) {
  column.ForEachSpan(begin, end, [&](uint64_t row, const Value* values,
                                     uint64_t count) {
    uint8_t* out = flags + (row - batch_first);
    for (uint64_t i = 0; i < count; ++i) {
      const uint32_t v = static_cast<uint32_t>(values[i]);
      out[i] = static_cast<uint8_t>(static_cast<uint8_t>(v - lo <= width) |
                                    static_cast<uint8_t>(v != 0) << 1);
    }
  });
}

void PackFlags(const uint8_t* flags, uint64_t words, MaskPair* pair) {
  for (uint64_t w = 0; w < words; ++w) {
    uint64_t in = 0;
    uint64_t present = 0;
    for (int k = 0; k < 8; ++k) {
      uint64_t bytes;
      std::memcpy(&bytes, flags + w * 64 + static_cast<uint64_t>(k) * 8,
                  sizeof(bytes));
      in |= PackLowBits(bytes) << (8 * k);
      present |= PackLowBits(bytes >> 1) << (8 * k);
    }
    pair->t[w] = in;
    pair->f[w] = present & ~in;
  }
}

}  // namespace

BlockScan::BlockScan(const RangeQuery& query) : semantics_(query.semantics) {
  if (query.terms.empty()) {
    Emit(Op::kTrue);
    return;
  }
  for (size_t i = 0; i < query.terms.size(); ++i) {
    EmitTerm(query.terms[i].attribute, query.terms[i].interval);
    if (i > 0) Emit(Op::kAnd);
  }
}

BlockScan::BlockScan(const QueryExpr& expr, MissingSemantics semantics)
    : semantics_(semantics) {
  EmitExpr(expr);
}

void BlockScan::Emit(Op op, uint32_t arg) {
  program_.push_back(Instr{op, arg});
  switch (op) {
    case Op::kTerm:
    case Op::kTrue:
    case Op::kFalse:
      max_depth_ = std::max(max_depth_, ++depth_);
      break;
    case Op::kAnd:
    case Op::kOr:
      --depth_;
      break;
    case Op::kNot:
      break;
  }
}

void BlockScan::EmitTerm(size_t attribute, Interval interval) {
  terms_.push_back(Term{attribute, static_cast<uint32_t>(interval.lo),
                        static_cast<uint32_t>(interval.hi - interval.lo)});
  Emit(Op::kTerm, static_cast<uint32_t>(terms_.size() - 1));
}

void BlockScan::EmitExpr(const QueryExpr& expr) {
  switch (expr.kind()) {
    case QueryExpr::Kind::kTerm:
      EmitTerm(expr.attribute(), expr.interval());
      return;
    case QueryExpr::Kind::kNot:
      EmitExpr(expr.children().front());
      Emit(Op::kNot);
      return;
    case QueryExpr::Kind::kAnd:
    case QueryExpr::Kind::kOr: {
      const bool is_and = expr.kind() == QueryExpr::Kind::kAnd;
      if (expr.children().empty()) {
        Emit(is_and ? Op::kTrue : Op::kFalse);
        return;
      }
      // n-ary folds become a left-deep chain of binary folds, which keeps
      // the stack as shallow as the tree instead of as wide as a node.
      for (size_t i = 0; i < expr.children().size(); ++i) {
        EmitExpr(expr.children()[i]);
        if (i > 0) Emit(is_and ? Op::kAnd : Op::kOr);
      }
      return;
    }
  }
}

void BlockScan::Run(const Table& table, uint64_t begin, uint64_t end,
                    BitVector* out) const {
  if (begin >= end || program_.empty()) return;
  INCDB_DCHECK(end <= out->size());
  std::vector<MaskPair> stack(max_depth_);
  std::array<uint8_t, kBatchRows> flags;

  const uint64_t first_word = begin / 64;
  const uint64_t end_word = (end + 63) / 64;
  for (uint64_t batch_word = first_word; batch_word < end_word;
       batch_word += kBatchWords) {
    const uint64_t words = std::min(kBatchWords, end_word - batch_word);
    const uint64_t batch_first = batch_word * 64;
    const uint64_t batch_end = batch_first + words * 64;
    const uint64_t lo_row = std::max(begin, batch_first);
    const uint64_t hi_row = std::min(end, batch_end);
    // Rows of the batch outside [begin, end) are never read; their zero
    // flags make them unknown, and the valid mask below drops them.
    if (lo_row > batch_first || hi_row < batch_end) {
      std::memset(flags.data(), 0, words * 64);
    }

    size_t top = 0;
    for (const Instr& instr : program_) {
      switch (instr.op) {
        case Op::kTerm: {
          const Term& term = terms_[instr.arg];
          FillFlags(table.column(term.attribute), term.lo, term.width,
                    batch_first, lo_row, hi_row, flags.data());
          PackFlags(flags.data(), words, &stack[top++]);
          break;
        }
        case Op::kTrue:
        case Op::kFalse: {
          MaskPair& pair = stack[top++];
          pair.t.fill(instr.op == Op::kTrue ? ~uint64_t{0} : 0);
          pair.f.fill(instr.op == Op::kTrue ? 0 : ~uint64_t{0});
          break;
        }
        case Op::kAnd: {
          MaskPair& acc = stack[top - 2];
          const MaskPair& rhs = stack[top - 1];
          for (uint64_t w = 0; w < words; ++w) {
            acc.t[w] &= rhs.t[w];
            acc.f[w] |= rhs.f[w];
          }
          --top;
          break;
        }
        case Op::kOr: {
          MaskPair& acc = stack[top - 2];
          const MaskPair& rhs = stack[top - 1];
          for (uint64_t w = 0; w < words; ++w) {
            acc.t[w] |= rhs.t[w];
            acc.f[w] &= rhs.f[w];
          }
          --top;
          break;
        }
        case Op::kNot:
          std::swap(stack[top - 1].t, stack[top - 1].f);
          break;
      }
    }
    INCDB_DCHECK(top == 1);

    const MaskPair& result = stack[0];
    for (uint64_t w = 0; w < words; ++w) {
      uint64_t word = semantics_ == MissingSemantics::kMatch ? ~result.f[w]
                                                             : result.t[w];
      const uint64_t word_first = batch_first + w * 64;
      if (word_first < begin) word &= ~uint64_t{0} << (begin - word_first);
      if (end - word_first < 64) {
        word &= (uint64_t{1} << (end - word_first)) - 1;
      }
      out->OrWord(batch_word + w, word);
    }
  }
}

}  // namespace incdb
