#ifndef INCDB_QUERY_BLOCK_SCAN_H_
#define INCDB_QUERY_BLOCK_SCAN_H_

#include <cstdint>
#include <vector>

#include "bitvector/bitvector.h"
#include "query/expr.h"
#include "query/query.h"
#include "table/table.h"

namespace incdb {

/// Column-at-a-time evaluation of a scan predicate, 64 rows per word.
///
/// The predicate — a RangeQuery's conjunction or a QueryExpr tree — is
/// compiled once into a flat postfix program over interval terms; both
/// forms compile to the same program. Running it over a row range walks
/// each term's column in contiguous runs (Column::SpanAt) and produces two
/// masks per 64-row word: rows where the term is true (lo <= v <= hi) and
/// rows where it is false (present and outside the interval). A row in
/// neither mask is unknown (missing). AND, OR and NOT combine these
/// (true, false) pairs by Kleene logic:
///
///   AND: (t1 & t2, f1 | f2)    OR: (t1 | t2, f1 & f2)    NOT: (f, t)
///
/// The answer word is ~false (the possible answers) under missing-is-match
/// and true (the certain answers) under missing-is-not-match.
///
/// RowMatches / ExprMatches stay the definition of correctness and do not
/// use this class; tests/query/block_scan_property_test.cc checks the two
/// bit for bit.
class BlockScan {
 public:
  /// An empty program: Run sets no bits.
  BlockScan() = default;
  /// Compiles a conjunctive range query under its own semantics.
  explicit BlockScan(const RangeQuery& query);
  /// Compiles a boolean expression under `semantics`.
  BlockScan(const QueryExpr& expr, MissingSemantics semantics);

  /// Interval terms the program reads per row (one cell each).
  size_t num_terms() const { return terms_.size(); }

  /// ORs the match bit of every row in [begin, end) into `out`, which must
  /// hold at least `end` bits. Reads only cells of rows in [begin, end)
  /// (requires end <= the table's visible rows) and writes only the 64-bit
  /// words those rows fall in, so runs over ranges that share no word may
  /// write the same vector concurrently.
  void Run(const Table& table, uint64_t begin, uint64_t end,
           BitVector* out) const;

 private:
  /// One interval term; `width` is hi - lo, so v matches iff
  /// (uint32_t)(v - lo) <= width (a missing 0 wraps far above it).
  struct Term {
    size_t attribute = 0;
    uint32_t lo = 0;
    uint32_t width = 0;
  };
  /// Postfix instructions. kTerm pushes term `arg`'s mask pair; kAnd/kOr
  /// fold the top two pairs; kNot swaps the top pair; kTrue/kFalse push a
  /// constant (the value of an empty AND / OR).
  enum class Op : uint8_t { kTerm, kAnd, kOr, kNot, kTrue, kFalse };
  struct Instr {
    Op op = Op::kTerm;
    uint32_t arg = 0;
  };

  void EmitTerm(size_t attribute, Interval interval);
  void EmitExpr(const QueryExpr& expr);
  void Emit(Op op, uint32_t arg = 0);

  std::vector<Term> terms_;
  std::vector<Instr> program_;
  size_t depth_ = 0;
  size_t max_depth_ = 0;
  MissingSemantics semantics_ = MissingSemantics::kMatch;
};

}  // namespace incdb

#endif  // INCDB_QUERY_BLOCK_SCAN_H_
