#include "compression/wah_bitvector.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>

#include "common/bitutil.h"
#include "common/logging.h"

namespace incdb {

namespace wah_internal {
namespace {

// Default dense-block threshold, in literal groups per operand-group: the
// measured crossover from bench_simd_kernels (derivation in
// docs/KERNELS.md) below which run-at-a-time merging over the compressed
// form beats stream-combining through the vector kernels. Uniform 5%-bit
// inputs (~0.8 literal fraction) win on the dense path at every level and
// k; clustered 1% inputs (~0.03) win on the sparse strategies; the
// break-even sits near the cost ratio of a scatter store vs its share of a
// kernel pass, ~0.1-0.2. Overridable via INCDB_DENSE_THRESHOLD (<=0
// forces dense, >1 disables the dense path).
constexpr double kDefaultDenseBlockThreshold = 0.15;

std::atomic<double>& ThresholdStorage() {
  static std::atomic<double> threshold{[] {
    const char* env = std::getenv("INCDB_DENSE_THRESHOLD");
    if (env != nullptr && env[0] != '\0') {
      char* end = nullptr;
      const double parsed = std::strtod(env, &end);
      if (end != env) return parsed;
    }
    return kDefaultDenseBlockThreshold;
  }()};
  return threshold;
}

}  // namespace

double DenseBlockThreshold() {
  return ThresholdStorage().load(std::memory_order_relaxed);
}

double SetDenseBlockThresholdForTesting(double threshold) {
  return ThresholdStorage().exchange(threshold, std::memory_order_relaxed);
}

}  // namespace wah_internal

namespace {

using wah_internal::FillBit;
using wah_internal::FillGroups;
using wah_internal::IsFill;
using wah_internal::kFillFlag;
using wah_internal::kFullLiteral;
using wah_internal::kGroupBits;
using wah_internal::kMaxFillGroups;
using wah_internal::MakeFill;
using Operand = WahBitVector::Operand;

uint32_t ApplyOp(uint32_t a, uint32_t b, int op) {
  switch (op) {
    case 0:
      return a & b;
    case 1:
      return a | b;
    case 2:
      return a ^ b;
    default:
      return a & (~b & kFullLiteral);
  }
}

// Per-operand view of the partial trailing group.
uint32_t ActiveView(const Operand& op, uint32_t active_word, uint32_t mask) {
  return (op.negate ? ~active_word : active_word) & mask;
}

// ---------------------------------------------------------------------------
// The windowed hybrid k-way fusion engine.
//
// The stream of groups is processed in fixed windows of kWindowGroups groups
// (64 Ki payload bits, so the accumulator and scratch buffers stay resident
// in L1/L2). Each window is classified by an estimate of the operands'
// literal density (seeded from compressed size, then carried forward from
// the density the previous window actually saw — see FuseHybrid); windows
// at or above wah_internal::DenseBlockThreshold() take the dense path —
// materialize the lead operand and stream the rest's literal runs straight
// from their compressed form into the runtime-dispatched SIMD kernels —
// while sparse windows stay on compressed-form strategies:
//  * OR: scatter each operand's runs into the zeroed accumulator (one store
//    per literal, one fill per 1-run), then hand the window to the sink;
//  * AND: the classic lockstep run merge with absorbing-fill leaps, which
//    skips whole 0-fill runs without touching the other operands' payloads.
//
// All decoded buffers hold one group per word with the fill-flag MSB zero,
// so combines can never produce a word the re-encode scan would mistake for
// a fill code word.
// ---------------------------------------------------------------------------

constexpr uint64_t kWindowGroups = 65536 / kGroupBits;

// The kFullLiteral pattern replicated across a 64-bit lane, for masked
// OR-NOT combines (keeps complemented group words' fill flags clear).
constexpr uint64_t kReplicatedFullLiteral =
    (uint64_t{kFullLiteral} << 32) | kFullLiteral;

// Decodes the next `w` groups of one operand into `buf`, one group word per
// slot (fill-flag MSB always zero). Consecutive literal code words are
// adjacent in the compressed stream, so literal runs bulk-copy. Returns the
// number of literal groups decoded (feeds the density estimate).
uint64_t DecodeWindow(WahRunIterator& it, uint32_t* buf, uint64_t w) {
  uint64_t pos = 0;
  uint64_t literals = 0;
  while (pos < w) {
    if (it.is_fill()) {
      const uint64_t n = std::min(it.groups_left(), w - pos);
      std::fill_n(buf + pos, n, it.fill_bit() ? kFullLiteral : uint32_t{0});
      it.Consume(n);
      pos += n;
    } else {
      const uint64_t n = it.CopyLiteralRun(buf + pos, w - pos);
      literals += n;
      pos += n;
    }
  }
  return literals;
}

struct CombineResult {
  uint64_t literals = 0;  // literal groups consumed (density estimate feed)
  uint64_t any = 0;       // OR-fold of every accumulator word this operand
                          // wrote (AND only)
  bool covered = true;    // every window group was written by this operand;
                          // false once a stretch was left untouched (an
                          // AND 1-fill), making `any` a lower bound only
};

// Combines the next `w` groups of one operand into `acc` straight from the
// compressed stream: fills are O(1) skips or bulk std::fill_n, literal runs
// feed the SIMD kernels directly (a literal code word IS its decoded group
// word), so no scratch buffer is ever materialized. Short literal runs are
// folded inline — an indirect kernel call per 1-2-word run would cost more
// than the combine itself. For AND ops the result's `any`/`covered` pair
// answers "is the accumulator now provably all-zero?" without any rescan.
CombineResult CombineWindow(WahRunIterator& it, uint32_t* acc, uint64_t w,
                            bool is_or, bool negate,
                            const simd::Kernels& kernels) {
  constexpr uint64_t kInlineRun = 16;
  CombineResult result;
  uint64_t pos = 0;
  while (pos < w) {
    if (it.is_fill()) {
      const uint64_t n = std::min(it.groups_left(), w - pos);
      const bool bit = it.fill_bit() != negate;
      if (is_or) {
        if (bit) std::fill_n(acc + pos, n, kFullLiteral);
      } else {
        if (!bit) {
          std::fill_n(acc + pos, n, uint32_t{0});
        } else {
          result.covered = false;  // acc unchanged here, contents unknown
        }
      }
      it.Consume(n);
      pos += n;
    } else {
      uint64_t n = 0;
      const uint32_t* run = it.ViewLiteralRun(w - pos, &n);
      uint32_t* dst = acc + pos;
      if (n < kInlineRun) {
        uint64_t any = 0;
        if (is_or) {
          if (negate) {
            for (uint64_t i = 0; i < n; ++i) {
              dst[i] |= ~run[i] & kFullLiteral;
            }
          } else {
            for (uint64_t i = 0; i < n; ++i) dst[i] |= run[i];
          }
        } else {
          if (negate) {
            for (uint64_t i = 0; i < n; ++i) {
              dst[i] &= ~run[i];
              any |= dst[i];
            }
          } else {
            for (uint64_t i = 0; i < n; ++i) {
              dst[i] &= run[i];
              any |= dst[i];
            }
          }
        }
        result.any |= any;
      } else {
        const size_t bytes = static_cast<size_t>(n) * sizeof(uint32_t);
        if (is_or) {
          if (negate) {
            kernels.ornot_mask_into(dst, run, kReplicatedFullLiteral,
                                    bytes);
          } else {
            kernels.or_into(dst, run, bytes);
          }
        } else {
          if (negate) {
            result.any |= kernels.andnot_into(dst, run, bytes);
          } else {
            result.any |= kernels.and_into(dst, run, bytes);
          }
        }
      }
      result.literals += n;
      pos += n;
    }
  }
  return result;
}

// Dense window: decode the first non-negated operand into the accumulator,
// then stream-combine every other operand straight from its compressed
// form with the active SIMD kernel table. Negated operands are folded
// through AND-NOT / masked OR-NOT so their group words are never
// materialized in complemented form. Returns the literal density realized
// over the operand windows it actually walked (the next window's
// classification estimate).
double DenseWindow(std::span<const Operand> ops,
                   std::vector<WahRunIterator>& its, bool is_or, uint64_t w,
                   uint32_t* acc) {
  const simd::Kernels& kernels = simd::ActiveKernels();
  uint64_t literals = 0;
  uint64_t examined = 0;
  size_t lead = ops.size();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].negate) {
      lead = i;
      break;
    }
  }
  if (lead < ops.size()) {
    literals += DecodeWindow(its[lead], acc, w);
    examined += w;
  } else {
    std::fill_n(acc, w, is_or ? uint32_t{0} : kFullLiteral);
  }
  // AND early-exit: the CombineResult of each operand proves (or fails to
  // prove) the accumulator empty as a byproduct of the combine, so the
  // remaining operands only need their cursors advanced — no rescans.
  bool empty = false;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == lead) continue;
    if (empty) {
      its[i].Skip(w);
      continue;
    }
    const CombineResult r =
        CombineWindow(its[i], acc, w, is_or, ops[i].negate, kernels);
    literals += r.literals;
    examined += w;
    if (!is_or) empty = r.covered && r.any == 0;
  }
  return examined == 0
             ? 1.0
             : static_cast<double>(literals) / static_cast<double>(examined);
}

// Sparse OR window: scatter every operand's runs into the zeroed
// accumulator. One store per literal group, one std::fill_n per
// effective 1-fill; 0-runs cost nothing. Returns the realized literal
// density of the window (the next window's classification estimate).
double ScatterOrWindow(std::span<const Operand> ops,
                       std::vector<WahRunIterator>& its, uint64_t w,
                       uint32_t* acc) {
  std::fill_n(acc, w, uint32_t{0});
  uint64_t literals = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    WahRunIterator& it = its[i];
    const bool negate = ops[i].negate;
    uint64_t pos = 0;
    while (pos < w) {
      if (it.is_fill()) {
        const uint64_t n = std::min(it.groups_left(), w - pos);
        if (it.fill_bit() != negate) std::fill_n(acc + pos, n, kFullLiteral);
        it.Consume(n);
        pos += n;
      } else {
        const uint32_t lit = it.LiteralView();
        acc[pos] |= negate ? ~lit & kFullLiteral : lit;
        ++literals;
        ++pos;
        it.Consume(1);
      }
    }
  }
  return static_cast<double>(literals) / static_cast<double>(w * ops.size());
}

// Sparse AND stretch: the lockstep run merge. Emits `emit_run(view, n)` for
// each maximal stretch of n groups with constant view (n > 1 only for fill
// output) until at least `limit` groups have been produced. Absorbing-fill
// leaps may overshoot the window boundary — that is deliberate: a long
// 0-fill should be jumped in one step, and the next window's classification
// simply happens wherever the cursors land. Returns the number of groups
// emitted; `*literal_groups` accumulates the operand literal words it
// stepped through (groups leapt over inside absorbing fills count as fills,
// biasing the density estimate low — exactly the windows this path wins on).
template <typename RunFn>
uint64_t SparseAndStretch(std::span<const Operand> ops,
                          std::vector<WahRunIterator>& its, uint64_t limit,
                          RunFn&& emit_run, uint64_t* literal_groups) {
  uint64_t emitted = 0;
  uint64_t literals = 0;  // local: a through-pointer count would alias
  while (emitted < limit && !its[0].done()) {
    uint32_t acc = kFullLiteral;
    uint64_t n_min = UINT64_MAX;
    uint64_t absorb = 0;
    bool all_fill = true;
    for (size_t i = 0; i < its.size(); ++i) {
      const WahRunIterator& it = its[i];
      uint32_t view = it.LiteralView();
      if (ops[i].negate) view = ~view & kFullLiteral;
      if (it.is_fill()) {
        if (view == 0) absorb = std::max(absorb, it.groups_left());
      } else {
        all_fill = false;
        ++literals;
      }
      if (it.groups_left() < n_min) n_min = it.groups_left();
      acc &= view;
      if (acc == 0) break;  // remaining operands cannot change it
    }
    uint64_t n;
    if (acc == 0) {
      n = absorb > 0 ? absorb : 1;
    } else {
      n = all_fill ? n_min : 1;
    }
    emit_run(acc, n);
    for (auto& it : its) it.Skip(n);
    emitted += n;
  }
  *literal_groups += literals;
  return emitted;
}

// Drives the full fusion: windows the group stream, classifies each window
// dense/sparse, and feeds results to the sinks. `emit_run(view, n)` receives
// constant-view stretches from the sparse AND path; `emit_dense(buf, w)`
// receives decoded window buffers from the dense and scatter-OR paths.
//
// Classification is adaptive and costs O(1) per window: the first window
// is classified from the operands' compressed sizes (code words per group
// is a direct proxy for literal density — a literal group costs one word,
// a fill amortizes to ~zero); every window after that is classified by the
// literal density the previous window realized while doing its real work
// (all three window routines report it as a near-free byproduct). On
// homogeneous inputs classification cost vanishes; on regime changes it
// mispredicts at most one window, which only costs a suboptimal strategy
// there, never a wrong answer.
template <typename RunFn, typename DenseFn>
void FuseHybrid(std::span<const Operand> ops, bool is_or,
                uint64_t groups_total, RunFn&& emit_run, DenseFn&& emit_dense,
                WahOpStats* op_stats) {
  if (groups_total == 0) return;
  std::vector<WahRunIterator> its;
  its.reserve(ops.size());
  for (const auto& op : ops) its.emplace_back(*op.vec);
  const double threshold = wah_internal::DenseBlockThreshold();
  const bool dense_enabled = threshold <= 1.0;
  const bool force_dense = threshold <= 0.0;
  const uint64_t window = kWindowGroups;
  std::vector<uint32_t> acc(std::min<uint64_t>(window, groups_total));
  uint64_t done = 0;
  double est_density = 0.0;
  if (dense_enabled && !force_dense) {
    uint64_t code_words = 0;
    for (const auto& op : ops) code_words += op.vec->NumWords();
    est_density = static_cast<double>(code_words) /
                  static_cast<double>(groups_total * ops.size());
  }
  while (done < groups_total) {
    const uint64_t w = std::min(window, groups_total - done);
    bool dense = false;
    if (force_dense) {
      dense = true;
    } else if (dense_enabled) {
      dense = est_density >= threshold;
    }
    if (dense) {
      est_density = DenseWindow(ops, its, is_or, w, acc.data());
      emit_dense(acc.data(), w);
      if (op_stats != nullptr) {
        op_stats->dense_windows += 1;
        op_stats->words_decoded += w * ops.size();
      }
      done += w;
    } else if (is_or) {
      est_density = ScatterOrWindow(ops, its, w, acc.data());
      emit_dense(acc.data(), w);
      done += w;
    } else {
      uint64_t literals = 0;
      const uint64_t n = SparseAndStretch(ops, its, w, emit_run, &literals);
      est_density = static_cast<double>(literals) /
                    static_cast<double>(n * ops.size());
      done += n;
    }
  }
  for (const auto& it : its) INCDB_CHECK(it.done());
}

// ---------------------------------------------------------------------------
// Verbatim output: group words are shift-or'ed into zeroed 64-bit words.
// ---------------------------------------------------------------------------

// ORs the low `width` bits of `group` into `out` at bit `pos` — one or two
// 64-bit words.
void PackBits(uint64_t* out, uint64_t pos, uint32_t group, int width) {
  if (width == 0) return;
  const uint64_t bits = static_cast<uint64_t>(group);
  const int offset = static_cast<int>(pos & 63);
  out[pos >> 6] |= bits << offset;
  if (offset + width > 64) out[(pos >> 6) + 1] |= bits >> (64 - offset);
}

// Sets bits [begin, end) of `out`, a word at a time.
void SetBitRange(uint64_t* out, uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  const uint64_t first = begin >> 6;
  const uint64_t last = (end - 1) >> 6;
  const uint64_t head = ~uint64_t{0} << (begin & 63);
  const uint64_t tail = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (first == last) {
    out[first] |= head & tail;
    return;
  }
  out[first] |= head;
  std::fill(out + first + 1, out + last, ~uint64_t{0});
  out[last] |= tail;
}

BitVector VerbatimFromWords(uint64_t size, std::vector<uint64_t> words) {
  Result<BitVector> bits = BitVector::FromWords(size, std::move(words));
  INCDB_CHECK(bits.ok());
  return std::move(bits).value();
}

// ---------------------------------------------------------------------------
// The dense term-plan executor (WahTermPlan::DenseCount/Materialize).
//
// Where FuseHybrid fuses one k-way AND or OR and re-compresses its result,
// this pass evaluates a whole lowered query — an AND of clauses, each an OR
// of products, each an AND of optionally complemented operands — window by
// window, in the same kWindowGroups-group windows and with the same
// DecodeWindow/CombineWindow primitives as FuseHybrid's dense path. Three
// window buffers (accumulator, clause, product: 3 x 8 KiB) stay in L1. An
// operand several factors reference is decoded once per window into its own
// buffer; every other operand streams straight from its code words into the
// kernels. The result window goes to a sink (popcount
// or verbatim repack) and is never re-encoded.
// ---------------------------------------------------------------------------

class DensePlanPass {
  using Span = WahTermPlan::Span;

 public:
  explicit DensePlanPass(const WahTermPlan& plan)
      : plan_(plan),
        kernels_(simd::ActiveKernels()),
        groups_(plan.num_bits / kGroupBits),
        window_(std::min(kWindowGroups, groups_)) {
    source_of_.reserve(plan.factors.size());
    std::vector<size_t> uses;
    for (const Operand& op : plan.factors) {
      INCDB_CHECK(op.vec != nullptr && op.vec->size() == plan.num_bits);
      size_t s = 0;
      while (s < vecs_.size() && vecs_[s] != op.vec) ++s;
      if (s == vecs_.size()) {
        vecs_.push_back(op.vec);
        uses.push_back(0);
      }
      ++uses[s];
      source_of_.push_back(s);
    }
    its_.reserve(vecs_.size());
    shared_.resize(vecs_.size());
    for (size_t s = 0; s < vecs_.size(); ++s) {
      its_.emplace_back(*vecs_[s]);
      if (uses[s] > 1) shared_[s].resize(window_);
    }
    acc_.resize(window_);
    clause_.resize(window_);
    product_.resize(window_);
  }

  // Calls emit(window_words, w) for each result window, in row order.
  template <typename Emit>
  void Run(Emit&& emit, WahOpStats* op_stats) {
    for (uint64_t done = 0; done < groups_;) {
      const uint64_t w = std::min(window_, groups_ - done);
      for (size_t s = 0; s < vecs_.size(); ++s) {
        if (!shared_[s].empty()) DecodeWindow(its_[s], shared_[s].data(), w);
      }
      EvalWindow(w);
      emit(acc_.data(), w);
      if (op_stats != nullptr) {
        op_stats->dense_windows += 1;
        op_stats->words_decoded += w * vecs_.size();
      }
      done += w;
    }
    for (const auto& it : its_) INCDB_CHECK(it.done());
  }

  // The plan evaluated over the operands' partial trailing groups.
  uint32_t ActiveResult() const {
    const int active_bits =
        static_cast<int>(plan_.num_bits - groups_ * kGroupBits);
    const uint32_t mask =
        static_cast<uint32_t>(bitutil::LowBitsMask(active_bits));
    uint32_t acc = mask;
    for (const Span& clause : plan_.clauses) {
      uint32_t any = 0;
      for (size_t p = clause.begin; p < clause.end; ++p) {
        uint32_t all = mask;
        for (size_t f = plan_.products[p].begin; f < plan_.products[p].end;
             ++f) {
          const Operand& op = plan_.factors[f];
          all &= ActiveView(op, op.vec->active_word(), mask);
        }
        any |= all;
      }
      acc &= any;
    }
    return acc;
  }

 private:
  // acc = AND of every clause.
  void EvalWindow(uint64_t w) {
    uint32_t* acc = acc_.data();
    if (plan_.clauses.empty()) {
      std::fill_n(acc, w, kFullLiteral);
      return;
    }
    EvalClause(plan_.clauses[0], acc, w);
    for (size_t c = 1; c < plan_.clauses.size(); ++c) {
      const Span& clause = plan_.clauses[c];
      if (clause.size() == 1) {
        // A one-product clause folds its factors straight into acc.
        const Span& product = plan_.products[clause.begin];
        for (size_t f = product.begin; f < product.end; ++f) {
          Combine(f, acc, w, /*is_or=*/false);
        }
      } else {
        EvalClause(clause, clause_.data(), w);
        kernels_.and_into(acc, clause_.data(), w * sizeof(uint32_t));
      }
    }
  }

  // dst = OR of the clause's products.
  void EvalClause(const Span& clause, uint32_t* dst, uint64_t w) {
    if (clause.size() == 0) {
      std::fill_n(dst, w, uint32_t{0});
      return;
    }
    EvalProduct(plan_.products[clause.begin], dst, w);
    for (size_t p = clause.begin + 1; p < clause.end; ++p) {
      const Span& product = plan_.products[p];
      if (product.size() == 1) {
        Combine(product.begin, dst, w, /*is_or=*/true);
      } else {
        EvalProduct(product, product_.data(), w);
        kernels_.or_into(dst, product_.data(), w * sizeof(uint32_t));
      }
    }
  }

  // dst = AND of the product's factors, led by its first plain operand.
  void EvalProduct(const Span& product, uint32_t* dst, uint64_t w) {
    size_t lead = product.end;
    for (size_t f = product.begin; f < product.end; ++f) {
      if (!plan_.factors[f].negate) {
        lead = f;
        break;
      }
    }
    if (lead == product.end) {
      std::fill_n(dst, w, kFullLiteral);
    } else if (const size_t s = source_of_[lead]; !shared_[s].empty()) {
      std::copy_n(shared_[s].data(), w, dst);
    } else {
      DecodeWindow(its_[s], dst, w);
    }
    for (size_t f = product.begin; f < product.end; ++f) {
      if (f != lead) Combine(f, dst, w, /*is_or=*/false);
    }
  }

  // dst = dst AND/OR factor f (complemented when negated).
  void Combine(size_t f, uint32_t* dst, uint64_t w, bool is_or) {
    const bool negate = plan_.factors[f].negate;
    const size_t s = source_of_[f];
    if (shared_[s].empty()) {
      CombineWindow(its_[s], dst, w, is_or, negate, kernels_);
      return;
    }
    const uint32_t* src = shared_[s].data();
    const size_t bytes = static_cast<size_t>(w) * sizeof(uint32_t);
    if (is_or) {
      if (negate) {
        kernels_.ornot_mask_into(dst, src, kReplicatedFullLiteral, bytes);
      } else {
        kernels_.or_into(dst, src, bytes);
      }
    } else if (negate) {
      kernels_.andnot_into(dst, src, bytes);
    } else {
      kernels_.and_into(dst, src, bytes);
    }
  }

  const WahTermPlan& plan_;
  const simd::Kernels& kernels_;
  const uint64_t groups_;
  const uint64_t window_;
  std::vector<const WahBitVector*> vecs_;      // distinct operands
  std::vector<size_t> source_of_;              // factor -> vecs_ slot
  std::vector<WahRunIterator> its_;            // one per vecs_ slot
  std::vector<std::vector<uint32_t>> shared_;  // decoded window, shared slots
  std::vector<uint32_t> acc_;
  std::vector<uint32_t> clause_;
  std::vector<uint32_t> product_;
};

}  // namespace

WahBitVector WahBitVector::Compress(const BitVector& bits) {
  WahBitVector out;
  const uint64_t n = bits.size();
  const std::vector<uint64_t>& words = bits.words();
  // Extract consecutive 31-bit groups from the 64-bit word array.
  const uint64_t full_groups = n / kGroupBits;
  for (uint64_t g = 0; g < full_groups; ++g) {
    const uint64_t bit_pos = g * kGroupBits;
    const uint64_t word_idx = bit_pos / 64;
    const int offset = static_cast<int>(bit_pos % 64);
    uint64_t chunk = words[word_idx] >> offset;
    if (offset + kGroupBits > 64 && word_idx + 1 < words.size()) {
      chunk |= words[word_idx + 1] << (64 - offset);
    }
    const uint32_t literal =
        static_cast<uint32_t>(chunk & bitutil::LowBitsMask(kGroupBits));
    out.EmitGroup(literal);
  }
  out.size_ = full_groups * kGroupBits;
  // Trailing partial group into the active word.
  for (uint64_t i = full_groups * kGroupBits; i < n; ++i) {
    out.AppendBit(bits.Get(i));
  }
  return out;
}

WahBitVector WahBitVector::Fill(uint64_t size,
                                                        bool bit) {
  WahBitVector out;
  out.AppendRun(bit, size);
  return out;
}

void WahBitVector::AppendBit(bool bit) {
  Detach();
  if (bit) active_word_ |= uint32_t{1} << active_bits_;
  ++active_bits_;
  ++size_;
  if (active_bits_ == kGroupBits) FlushActiveGroup();
}

void WahBitVector::AppendRun(bool bit, uint64_t count) {
  Detach();
  if (count == 0) return;
  // Top up the partial active group with one mask.
  if (active_bits_ != 0) {
    const int take = static_cast<int>(
        std::min<uint64_t>(count, kGroupBits - active_bits_));
    if (bit) {
      active_word_ |= static_cast<uint32_t>(bitutil::LowBitsMask(take))
                      << active_bits_;
    }
    active_bits_ += take;
    size_ += static_cast<uint64_t>(take);
    count -= static_cast<uint64_t>(take);
    if (active_bits_ < kGroupBits) return;
    FlushActiveGroup();
  }
  // Whole groups as one fill, the remainder as the new active word.
  const uint64_t groups = count / kGroupBits;
  if (groups > 0) {
    EmitFill(bit, groups);
    size_ += groups * kGroupBits;
    count -= groups * kGroupBits;
  }
  active_word_ =
      bit ? static_cast<uint32_t>(bitutil::LowBitsMask(static_cast<int>(count)))
          : 0;
  active_bits_ = static_cast<int>(count);
  size_ += count;
}

void WahBitVector::AppendGroup(uint32_t literal) {
  Detach();
  INCDB_DCHECK(active_bits_ == 0);
  EmitGroup(literal);
  size_ += kGroupBits;
}

void WahBitVector::FlushActiveGroup() {
  INCDB_DCHECK(active_bits_ == kGroupBits);
  EmitGroup(active_word_);
  active_word_ = 0;
  active_bits_ = 0;
}

void WahBitVector::EmitFill(bool bit, uint64_t groups) {
  INCDB_DCHECK(!borrowed());
  while (groups > 0) {
    if (!words_.empty() && IsFill(words_.back()) &&
        FillBit(words_.back()) == bit) {
      const uint64_t have = FillGroups(words_.back());
      const uint64_t take = std::min(groups, kMaxFillGroups - have);
      if (take > 0) {
        words_.back() = MakeFill(bit, have + take);
        groups -= take;
        continue;
      }
    }
    const uint64_t take = std::min(groups, kMaxFillGroups);
    words_.push_back(MakeFill(bit, take));
    groups -= take;
  }
}

void WahBitVector::EmitGroup(uint32_t literal) {
  if (literal == 0) {
    EmitFill(false, 1);
  } else if (literal == kFullLiteral) {
    EmitFill(true, 1);
  } else {
    EmitLiteral(literal);
  }
}

void WahBitVector::EmitLiteral(uint32_t literal) {
  INCDB_DCHECK(!borrowed());
  INCDB_DCHECK((literal & kFillFlag) == 0);
  words_.push_back(literal);
}

uint64_t WahBitVector::Count() const {
  uint64_t count = 0;
  for (uint32_t w : code_words()) {
    if (IsFill(w)) {
      if (FillBit(w)) count += FillGroups(w) * kGroupBits;
    } else {
      count += static_cast<uint64_t>(std::popcount(w));
    }
  }
  count += static_cast<uint64_t>(std::popcount(active_word_));
  return count;
}

BitVector WahBitVector::Decompress() const {
  // Word-level expansion: each literal group is one shift-or into the
  // verbatim words, each 1-fill a word-range store, 0-fills cost nothing.
  std::vector<uint64_t> words(bitutil::CeilDiv(size_, 64));
  const uint64_t group_bits = size_ - static_cast<uint64_t>(active_bits_);
  uint64_t bit_pos = 0;
  for (uint32_t w : code_words()) {
    if (IsFill(w)) {
      const uint64_t span = FillGroups(w) * kGroupBits;
      INCDB_CHECK(span <= group_bits - bit_pos);
      if (FillBit(w)) {
        SetBitRange(words.data(), bit_pos, bit_pos + span);
      }
      bit_pos += span;
    } else {
      INCDB_CHECK(bit_pos < group_bits);
      PackBits(words.data(), bit_pos, w, kGroupBits);
      bit_pos += kGroupBits;
    }
  }
  PackBits(words.data(), bit_pos, active_word_, active_bits_);
  return VerbatimFromWords(size_, std::move(words));
}

bool WahBitVector::Get(uint64_t index) const {
  INCDB_CHECK(index < size_);
  uint64_t bit_pos = 0;
  for (uint32_t w : code_words()) {
    const uint64_t span =
        IsFill(w) ? FillGroups(w) * kGroupBits : uint64_t{kGroupBits};
    if (index < bit_pos + span) {
      if (IsFill(w)) return FillBit(w);
      return (w >> (index - bit_pos)) & 1;
    }
    bit_pos += span;
  }
  return (active_word_ >> (index - bit_pos)) & 1;
}

uint64_t WahBitVector::SizeInBytes() const {
  return (code_words().size() + (active_bits_ > 0 ? 1 : 0)) * sizeof(uint32_t);
}

double WahBitVector::CompressionRatio() const {
  if (size_ == 0) return 0.0;
  const double verbatim_bytes = static_cast<double>(size_) / 8.0;
  return static_cast<double>(SizeInBytes()) / verbatim_bytes;
}

WahBitVector WahBitVector::And(const WahBitVector& other) const {
  return BinaryOp(other, OpKind::kAnd);
}

WahBitVector WahBitVector::Or(const WahBitVector& other) const {
  return BinaryOp(other, OpKind::kOr);
}

WahBitVector WahBitVector::Xor(const WahBitVector& other) const {
  return BinaryOp(other, OpKind::kXor);
}

WahBitVector WahBitVector::AndNot(const WahBitVector& other) const {
  return BinaryOp(other, OpKind::kAndNot);
}

WahBitVector WahBitVector::BinaryOp(const WahBitVector& other,
                                    OpKind op) const {
  INCDB_CHECK(size_ == other.size_);
  const int op_code = static_cast<int>(op);
  WahBitVector out;
  WahRunIterator a(*this);
  WahRunIterator b(other);
  uint64_t groups_emitted = 0;
  while (!a.done() && !b.done()) {
    if (a.is_fill() && b.is_fill()) {
      const uint64_t n = std::min(a.groups_left(), b.groups_left());
      const uint32_t r = ApplyOp(a.LiteralView(), b.LiteralView(), op_code);
      out.EmitFill(r == kFullLiteral, n);
      groups_emitted += n;
      a.Consume(n);
      b.Consume(n);
    } else {
      // At least one side is a literal; process one group.
      const uint32_t r = ApplyOp(a.LiteralView(), b.LiteralView(), op_code);
      out.EmitGroup(r);
      ++groups_emitted;
      a.Consume(1);
      b.Consume(1);
    }
  }
  INCDB_CHECK(a.done() && b.done());
  out.size_ = groups_emitted * kGroupBits;
  // Partial trailing group: sizes are equal, so active_bits_ match.
  INCDB_CHECK(active_bits_ == other.active_bits_);
  if (active_bits_ > 0) {
    const uint32_t mask =
        static_cast<uint32_t>(bitutil::LowBitsMask(active_bits_));
    out.active_word_ =
        ApplyOp(active_word_, other.active_word_, op_code) & mask;
    out.active_bits_ = active_bits_;
    out.size_ += static_cast<uint64_t>(active_bits_);
  }
  INCDB_CHECK(out.size_ == size_);
  return out;
}

WahBitVector WahBitVector::FuseToVector(std::span<const Operand> operands,
                                        bool is_or, WahOpStats* op_stats) {
  INCDB_CHECK(!operands.empty());
  const WahBitVector& first = *operands[0].vec;
  for (const Operand& op : operands) {
    INCDB_CHECK(op.vec != nullptr && op.vec->size_ == first.size_);
  }
  if (operands.size() == 1 && !operands[0].negate) return first;
  if (operands.size() == 2 && !operands[0].negate && !operands[1].negate) {
    // The tight two-way merge; the k-way machinery has nothing to add.
    return is_or ? first.Or(*operands[1].vec) : first.And(*operands[1].vec);
  }
  WahBitVector out;
  const uint64_t groups =
      (first.size_ - first.active_bits_) / static_cast<uint64_t>(kGroupBits);
  auto emit_run = [&out](uint32_t view, uint64_t n) {
    if (view == 0) {
      out.EmitFill(false, n);
    } else if (view == kFullLiteral) {
      out.EmitFill(true, n);
    } else {
      INCDB_DCHECK(n == 1);
      out.EmitLiteral(view);
    }
  };
  // Re-encode a decoded window: fills for 0 / all-ones stretches, literals
  // otherwise. EmitFill merges across window boundaries, so the output is
  // canonical no matter how the engine partitioned the stream.
  auto emit_dense = [&out](const uint32_t* buf, uint64_t w) {
    uint64_t i = 0;
    while (i < w) {
      const uint32_t v = buf[i];
      if (v == 0 || v == kFullLiteral) {
        uint64_t j = i + 1;
        while (j < w && buf[j] == v) ++j;
        out.EmitFill(v != 0, j - i);
        i = j;
      } else {
        out.EmitLiteral(v);
        ++i;
      }
    }
  };
  FuseHybrid(operands, is_or, groups, emit_run, emit_dense, op_stats);
  out.size_ = groups * static_cast<uint64_t>(kGroupBits);
  if (first.active_bits_ > 0) {
    const uint32_t mask =
        static_cast<uint32_t>(bitutil::LowBitsMask(first.active_bits_));
    uint32_t acc = is_or ? uint32_t{0} : mask;
    for (const Operand& op : operands) {
      const uint32_t v = ActiveView(op, op.vec->active_word_, mask);
      acc = is_or ? acc | v : acc & v;
    }
    out.active_word_ = acc;
    out.active_bits_ = first.active_bits_;
    out.size_ += static_cast<uint64_t>(first.active_bits_);
  }
  INCDB_CHECK(out.size_ == first.size_);
  return out;
}

uint64_t WahBitVector::FuseToCount(std::span<const Operand> operands,
                                   bool is_or, WahOpStats* op_stats) {
  INCDB_CHECK(!operands.empty());
  const WahBitVector& first = *operands[0].vec;
  for (const Operand& op : operands) {
    INCDB_CHECK(op.vec != nullptr && op.vec->size_ == first.size_);
  }
  const uint64_t groups =
      (first.size_ - first.active_bits_) / static_cast<uint64_t>(kGroupBits);
  uint64_t count = 0;
  auto emit_run = [&count](uint32_t view, uint64_t n) {
    count += static_cast<uint64_t>(std::popcount(view)) * n;
  };
  auto emit_dense = [&count](const uint32_t* buf, uint64_t w) {
    count += simd::ActiveKernels().popcount(
        buf, static_cast<size_t>(w) * sizeof(uint32_t));
  };
  FuseHybrid(operands, is_or, groups, emit_run, emit_dense, op_stats);
  if (first.active_bits_ > 0) {
    const uint32_t mask =
        static_cast<uint32_t>(bitutil::LowBitsMask(first.active_bits_));
    uint32_t acc = is_or ? uint32_t{0} : mask;
    for (const Operand& op : operands) {
      const uint32_t v = ActiveView(op, op.vec->active_word_, mask);
      acc = is_or ? acc | v : acc & v;
    }
    count += static_cast<uint64_t>(std::popcount(acc));
  }
  return count;
}

namespace {

std::vector<Operand> PlainOperands(
    std::span<const WahBitVector* const> operands) {
  std::vector<Operand> ops;
  ops.reserve(operands.size());
  for (const WahBitVector* vec : operands) {
    ops.push_back({vec, false});
  }
  return ops;
}

}  // namespace

WahBitVector WahBitVector::OrMany(std::span<const WahBitVector* const> operands,
                                  WahOpStats* op_stats) {
  const auto ops = PlainOperands(operands);
  return FuseToVector(ops, /*is_or=*/true, op_stats);
}

WahBitVector WahBitVector::AndMany(
    std::span<const WahBitVector* const> operands, WahOpStats* op_stats) {
  const auto ops = PlainOperands(operands);
  return FuseToVector(ops, /*is_or=*/false, op_stats);
}

WahBitVector WahBitVector::AndMany(std::span<const Operand> operands,
                                   WahOpStats* op_stats) {
  return FuseToVector(operands, /*is_or=*/false, op_stats);
}

uint64_t WahBitVector::OrManyCount(
    std::span<const WahBitVector* const> operands, WahOpStats* op_stats) {
  const auto ops = PlainOperands(operands);
  return FuseToCount(ops, /*is_or=*/true, op_stats);
}

uint64_t WahBitVector::AndManyCount(
    std::span<const WahBitVector* const> operands, WahOpStats* op_stats) {
  const auto ops = PlainOperands(operands);
  return FuseToCount(ops, /*is_or=*/false, op_stats);
}

uint64_t WahBitVector::AndManyCount(std::span<const Operand> operands,
                                    WahOpStats* op_stats) {
  return FuseToCount(operands, /*is_or=*/false, op_stats);
}

uint64_t WahBitVector::AndCount(const WahBitVector& a, const WahBitVector& b,
                                WahOpStats* op_stats) {
  const Operand ops[] = {{&a, false}, {&b, false}};
  return FuseToCount(ops, /*is_or=*/false, op_stats);
}

WahBitVector WahBitVector::Not() const {
  WahBitVector out;
  for (uint32_t w : code_words()) {
    if (IsFill(w)) {
      out.EmitFill(!FillBit(w), FillGroups(w));
    } else {
      const uint32_t lit = ~w & kFullLiteral;
      out.EmitGroup(lit);
    }
  }
  out.size_ = size_ - static_cast<uint64_t>(active_bits_);
  if (active_bits_ > 0) {
    const uint32_t mask =
        static_cast<uint32_t>(bitutil::LowBitsMask(active_bits_));
    out.active_word_ = ~active_word_ & mask;
    out.active_bits_ = active_bits_;
    out.size_ += static_cast<uint64_t>(active_bits_);
  }
  return out;
}

std::string WahBitVector::DebugString() const {
  std::string out;
  for (uint32_t w : code_words()) {
    if (IsFill(w)) {
      out += "F";
      out += FillBit(w) ? '1' : '0';
      out += 'x';
      out += std::to_string(FillGroups(w));
      out += ' ';
    } else {
      out += "L:";
      for (int i = 0; i < kGroupBits; ++i) {
        out += ((w >> i) & 1) ? '1' : '0';
      }
      out += " ";
    }
  }
  if (active_bits_ > 0) {
    out += "A:";
    for (int i = 0; i < active_bits_; ++i) {
      out += ((active_word_ >> i) & 1) ? '1' : '0';
    }
  }
  return out;
}

Result<WahBitVector> WahBitVector::FromBorrowed(
    std::span<const uint32_t> words, uint32_t active_word, int active_bits,
    uint64_t size) {
  if (active_bits < 0 || active_bits >= kGroupBits) {
    return Status::IOError("borrowed WAH vector: active_bits out of range");
  }
  if ((active_word &
       ~static_cast<uint32_t>(bitutil::LowBitsMask(active_bits))) != 0) {
    return Status::IOError("borrowed WAH vector: active word has stray bits");
  }
  if (size < static_cast<uint64_t>(active_bits)) {
    return Status::IOError("borrowed WAH vector: size below active bits");
  }
  WahBitVector out;
  out.borrowed_words_ = words.data();
  out.num_borrowed_ = words.size();
  out.active_word_ = active_word;
  out.active_bits_ = active_bits;
  out.size_ = size;
  return out;
}

Status WahBitVector::ValidateStructure() const {
  // Reject the moment the running total exceeds what `size_` allows:
  // adversarial fill counts must not be able to wrap the uint64 sum and
  // sneak a too-long vector past the final equality check. Each fill word
  // contributes under 2^30 groups, and the bound itself is at most
  // 2^64 / kGroupBits, so `groups` can never overflow before the check.
  const uint64_t max_groups = size_ / kGroupBits + 1;
  uint64_t groups = 0;
  for (uint32_t w : code_words()) {
    groups += IsFill(w) ? FillGroups(w) : 1;
    if (groups > max_groups) {
      return Status::IOError("WAH vector: decoded group count does not "
                             "match declared size");
    }
  }
  if (groups * kGroupBits + static_cast<uint64_t>(active_bits_) != size_) {
    return Status::IOError("WAH vector: decoded group count does not match "
                           "declared size");
  }
  return Status::OK();
}

void WahBitVector::Detach() {
  if (!borrowed()) return;
  words_.assign(borrowed_words_, borrowed_words_ + num_borrowed_);
  borrowed_words_ = nullptr;
  num_borrowed_ = 0;
}

bool WahTermPlan::PrefersDense() const {
  const double threshold = wah_internal::DenseBlockThreshold();
  if (threshold <= 0.0) return true;
  const uint64_t groups = num_bits / kGroupBits;
  if (threshold > 1.0 || factors.empty() || groups == 0) return false;
  uint64_t code_words = 0;
  for (const Operand& op : factors) code_words += op.vec->NumWords();
  return static_cast<double>(code_words) >=
         threshold * static_cast<double>(groups * factors.size());
}

uint64_t WahTermPlan::DenseCount(WahOpStats* op_stats) const {
  DensePlanPass pass(*this);
  const simd::Kernels& kernels = simd::ActiveKernels();
  uint64_t count = 0;
  pass.Run(
      [&](const uint32_t* window, uint64_t w) {
        count += kernels.popcount(window, w * sizeof(uint32_t));
      },
      op_stats);
  return count + static_cast<uint64_t>(std::popcount(pass.ActiveResult()));
}

BitVector WahTermPlan::DenseMaterialize(WahOpStats* op_stats) const {
  DensePlanPass pass(*this);
  std::vector<uint64_t> words(bitutil::CeilDiv(num_bits, 64));
  uint64_t bit_pos = 0;
  pass.Run(
      [&](const uint32_t* window, uint64_t w) {
        for (uint64_t i = 0; i < w; ++i) {
          PackBits(words.data(), bit_pos, window[i], kGroupBits);
          bit_pos += kGroupBits;
        }
      },
      op_stats);
  PackBits(words.data(), bit_pos, pass.ActiveResult(),
           static_cast<int>(num_bits - bit_pos));
  return VerbatimFromWords(num_bits, std::move(words));
}

}  // namespace incdb
