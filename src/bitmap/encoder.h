#ifndef INCDB_BITMAP_ENCODER_H_
#define INCDB_BITMAP_ENCODER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "compression/wah_bitvector.h"
#include "core/incomplete_index.h"
#include "query/query.h"

namespace incdb {

/// Bitmap record encoding (paper §4.2 / §4.3, plus the interval encoding
/// from the paper's related work [5]) — the *encoding* axis of the bitmap
/// layer's binning x encoding architecture (docs/ENCODINGS.md). An encoder
/// turns one slicer axis's slot stream into WAH bitvectors (AxisEncoder)
/// and lowers a slot interval over those bitvectors to a term plan
/// (LowerSlotInterval) that either executor runs: the compressed kernels
/// (EvaluateSlotInterval) or the dense windowed pass
/// (WahTermPlan::DenseCount). The engine is written once against
/// the slicer's slot domain; every index kind — the paper's four direct
/// ones and the multi-component / hierarchical composites — rides it.
enum class BitmapEncoding {
  /// BEE: B_{i,j}[x] = 1 iff record x has value j for attribute i.
  kEquality,
  /// BRE: B_{i,j}[x] = 1 iff record x has value <= j; the all-ones top
  /// bitmap B_{i,C} is dropped. Missing is treated as value 0 (smaller than
  /// the whole domain), so missing rows are 1 in every kept bitmap.
  kRange,
  /// BIE (Chan & Ioannidis' interval encoding, the paper's reference [5],
  /// extended here with the same B_{i,0} missing bitvector as BEE):
  /// I_{i,j}[x] = 1 iff value(x) in [j, j+m-1] with m = ceil(C/2); only
  /// n = C-m+1 bitmaps are stored (about half of BEE) and any interval is
  /// answered with at most two of them. Missing rows are 0 in every I_j.
  kInterval,
  /// BSL (bit-sliced / binary encoding, after O'Neil & Quass — the paper's
  /// reference [10] — extended to missing data): record x's value is
  /// binary-encoded into b = ceil(lg(C+1)) slice bitmaps S_0..S_{b-1};
  /// the all-zeros code is reserved for missing (mirroring the VA-file's
  /// trick). The smallest bitmap index (log C bitmaps) at the cost of
  /// O(log C) logical operations per query dimension, evaluated with the
  /// classic bit-sliced less-than-or-equal circuit.
  kBitSliced,
};

/// How missing cells are represented in an equality-encoded index.
enum class MissingStrategy {
  /// The paper's design: a dedicated bitvector B_{i,0} marks missing rows.
  kExtraBitmap,
  /// §4.2 rejected alternative (kept for the ablation bench): missing rows
  /// are 1 in *every* value bitmap. Only answers missing-is-match queries;
  /// ambiguous when C_i == 1; ruins run compression. Equality only.
  kAllOnes,
  /// §4.2 rejected alternative: missing rows are 0 in every value bitmap.
  /// Only answers missing-not-match queries and disables the complement
  /// optimization for wide ranges. Equality only.
  kAllZeros,
};

std::string_view BitmapEncodingToString(BitmapEncoding encoding);

/// Interval-encoding geometry: bitmap I_j covers values [j, j+m-1] with
/// m = ceil(C/2); n = C-m+1 bitmaps are stored.
uint32_t IntervalEncodingM(uint32_t cardinality);
uint32_t IntervalEncodingN(uint32_t cardinality);

/// Incremental builder for one WAH bitvector from set bits at strictly
/// ascending row positions. The 31-row group being filled is buffered as a
/// raw literal, so a set bit is one OR; each group that holds a set bit is
/// compressed once, as a zero fill over the gap before it plus one
/// AppendGroup. Build cost is proportional to the groups touched, not to
/// the rows: the equality build of perfbench's 464k-row x 48-attribute
/// census table (`core.build_bee_s`) takes 0.36 s on a 4-vCPU x86 host,
/// against 1.0 s when each set bit was appended bit by bit.
class SetBitBuilder {
 public:
  void SetBitAt(uint64_t row) {
    // Strictly ascending: no row at or after `row` was set before.
    INCDB_DCHECK(row >= group_begin_);
    uint64_t offset = row - group_begin_;
    if (offset >= WahBitVector::kGroupBits) {
      FlushGroup();
      const uint64_t gap =
          row / WahBitVector::kGroupBits * WahBitVector::kGroupBits -
          group_begin_;
      bits_.AppendRun(false, gap);
      group_begin_ += gap;
      offset = row - group_begin_;
    }
    INCDB_DCHECK((literal_ >> offset) == 0);
    literal_ |= uint32_t{1} << offset;
  }

  WahBitVector Finish(uint64_t num_rows) {
    INCDB_DCHECK(num_rows >= group_begin_);
    const uint64_t tail = num_rows - group_begin_;
    if (tail >= WahBitVector::kGroupBits) {
      FlushGroup();
      bits_.AppendRun(false, tail - WahBitVector::kGroupBits);
    } else {
      // The partial tail group: every set bit lies below num_rows.
      INCDB_DCHECK((literal_ >> tail) == 0);
      for (uint64_t i = 0; i < tail; ++i) {
        bits_.AppendBit(((literal_ >> i) & 1) != 0);
      }
    }
    group_begin_ = num_rows;
    literal_ = 0;
    return std::move(bits_);
  }

 private:
  // Appends the buffered group and starts the next one.
  void FlushGroup() {
    bits_.AppendGroup(literal_);
    group_begin_ += WahBitVector::kGroupBits;
    literal_ = 0;
  }

  WahBitVector bits_;
  uint64_t group_begin_ = 0;  // first row of the buffered group
  uint32_t literal_ = 0;      // set bits of rows [group_begin_, +31)
};

/// Adapts the fused WAH kernels' per-operation accounting (WahOpStats) into
/// the query counters: dense SIMD windows and decoded group words fold into
/// QueryStats at scope exit. get() is null when no stats were requested, so
/// the kernels skip the bookkeeping entirely.
class WahStatsScope {
 public:
  explicit WahStatsScope(QueryStats* stats) : stats_(stats) {}
  ~WahStatsScope() {
    if (stats_ != nullptr) {
      stats_->simd_path += op_stats_.dense_windows;
      stats_->words_decoded += op_stats_.words_decoded;
    }
  }
  WahStatsScope(const WahStatsScope&) = delete;
  WahStatsScope& operator=(const WahStatsScope&) = delete;

  WahOpStats* get() { return stats_ != nullptr ? &op_stats_ : nullptr; }

 private:
  QueryStats* stats_;
  WahOpStats op_stats_;
};

/// Builds one encoded axis from a slicer's slot stream: rows arrive in
/// ascending order, each with its slot id on this axis; missing rows are
/// simply not added (except under the range encoding's missing-as-value-0
/// trick, which AddMissingRow feeds). Finish returns the axis's bitvectors
/// in the encoding's canonical layout — bit-identical to the pre-refactor
/// per-encoding build loops.
class AxisEncoder {
 public:
  AxisEncoder(BitmapEncoding encoding, uint32_t num_slots);

  /// Marks `row` as holding slot `slot` (in [0, num_slots)). Rows must
  /// arrive in ascending order; a row may be added to several slots only
  /// under the equality encoding (the kAllOnes ablation strategy).
  void AddRow(uint64_t row, uint32_t slot);

  /// Range encoding only: missing counts as value 0, below the whole
  /// domain, so the row must be 1 in every kept "value <= j" bitmap. A
  /// no-op for the other encodings (their missing rows are absent
  /// everywhere).
  void AddMissingRow(uint64_t row);

  /// Finalizes all bitvectors to `num_rows` bits.
  std::vector<WahBitVector> Finish(uint64_t num_rows);

  /// Bitvectors the encoding stores for a slot domain of `num_slots`:
  /// equality C, range C-1, interval n = C - ceil(C/2) + 1, bit-sliced
  /// ceil(lg(C+1)). The shape contract FromParts and the storage reader
  /// validate against.
  static uint64_t NumBitmaps(BitmapEncoding encoding, uint32_t num_slots);

 private:
  BitmapEncoding encoding_;
  uint32_t num_slots_;
  std::vector<SetBitBuilder> builders_;
  SetBitBuilder range_missing_;  // kRange: seed of the running-OR finish
  bool has_range_missing_ = false;
};

/// A borrowed view of one encoded axis at query time: the slot-domain
/// bitvectors plus the attribute's missing bitvector (B_0, null when the
/// attribute is complete or a non-extra-bitmap strategy is in use).
struct AxisRef {
  uint32_t num_slots = 0;
  std::span<const WahBitVector> bitmaps;
  const WahBitVector* missing = nullptr;
  uint64_t num_rows = 0;
};

/// True for the encodings whose interval rules lower to a WahTermPlan:
/// equality, range and interval. The bit-sliced circuit is evaluated
/// directly (EvaluateSlotInterval).
bool LowersToTermPlan(BitmapEncoding encoding);

/// The lowering half of the encoding engine: appends the term plan for the
/// slot interval `interval` (1-based, lo/hi in [1, num_slots], validated by
/// the caller) over one encoded axis to `plan` — paper Fig. 2 for equality
/// (all three missing strategies), Fig. 3 for range, and the two-bitmap
/// interval rules. Each interval becomes at most one clause; an interval
/// that matches every row adds none. `strategy` and `semantics` control the
/// missing-bitvector composition; the caller enforces the strategy /
/// semantics compatibility rules (§4.2). The logical counters
/// (bitvectors_accessed, bitvector_ops, words_touched) are charged here,
/// from the plan's shape, so both executors report the same values.
/// Requires LowersToTermPlan(encoding).
void LowerSlotInterval(BitmapEncoding encoding, const AxisRef& axis,
                       Interval interval, MissingStrategy strategy,
                       MissingSemantics semantics, QueryStats* stats,
                       WahTermPlan* plan);

/// The compressed executor: evaluates each clause of `plan` to a WAH
/// vector with the fused kernels, one kernel per plan shape (a stored
/// bitmap is borrowed, AND-NOT / AND for two-factor products, OrMany(..)
/// .Not() for all-complemented ones, OrMany across a clause's products).
/// `stats` only receives the kernels' dense-window counters.
std::vector<WahBitVector> ExecuteClausesCompressed(const WahTermPlan& plan,
                                                   QueryStats* stats);

/// Evaluates one slot interval to a compressed bitvector: lowering plus the
/// compressed executor, or the O'Neil-Quass circuit for the bit-sliced
/// encoding. Arguments as for LowerSlotInterval.
WahBitVector EvaluateSlotInterval(BitmapEncoding encoding, const AxisRef& axis,
                                  Interval interval, MissingStrategy strategy,
                                  MissingSemantics semantics,
                                  QueryStats* stats);

}  // namespace incdb

#endif  // INCDB_BITMAP_ENCODER_H_
