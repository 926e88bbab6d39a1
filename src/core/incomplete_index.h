#ifndef INCDB_CORE_INCOMPLETE_INDEX_H_
#define INCDB_CORE_INCOMPLETE_INDEX_H_

#include <cstdint>
#include <string>

#include "bitvector/bitvector.h"
#include "common/status.h"
#include "query/query.h"

namespace incdb {

/// Per-query accounting filled in by index implementations. Which fields
/// are meaningful depends on the index family; unused fields stay zero.
struct QueryStats {
  /// Bitmap indexes: number of bitvectors read to answer the query (the
  /// paper's primary cost model for BEE/BRE).
  uint64_t bitvectors_accessed = 0;
  /// Bitmap indexes: number of logical operations (AND/OR/XOR/NOT) executed.
  /// A fused k-way kernel counts as k-1 operations, keeping the counter
  /// comparable with the pairwise fold it replaces.
  uint64_t bitvector_ops = 0;
  /// Bitmap indexes: compressed code words read from operand bitvectors.
  /// Under the fused kernels each operand is scanned exactly once, so this
  /// tracks real memory traffic; the pairwise fold re-scans intermediates,
  /// which this counter deliberately does not credit.
  uint64_t words_touched = 0;
  /// VA-file: approximate candidates surviving the filter step.
  uint64_t candidates = 0;
  /// VA-file: candidates eliminated by the exact refinement step.
  uint64_t false_positives = 0;
  /// Tree baselines reproduced in src/repro/ (MOSAIC's B+-trees, the
  /// bitstring-augmented R-tree): nodes visited. No served kind sets it.
  uint64_t nodes_accessed = 0;
  /// src/repro/ baselines: one-dimensional (MOSAIC, 2 per term) or
  /// multi-dimensional (bitstring-augmented, up to 2^k) subqueries run.
  uint64_t subqueries = 0;
  /// Scans (the plan layer's delta scan over the appended tail and the
  /// sequential-scan fallback): rows in the scanned range. Scans also
  /// charge words_touched with one unit per cell read, so routing's
  /// predicted-vs-realized cost comparison covers the tail.
  uint64_t rows_scanned = 0;
  /// Bitmap indexes: windows the fused WAH kernels routed through the
  /// dense-block SIMD fast path (decode + vector combine). Zero means every
  /// window stayed on the compressed-form sparse strategies.
  uint64_t simd_path = 0;
  /// Bitmap indexes: group words the dense fast path processed in
  /// uncompressed form (operands x window groups, the word traffic the
  /// dense path pays for its vector combines).
  uint64_t words_decoded = 0;
  /// Segment layer (docs/SEGMENTS.md): sealed segments actually probed vs.
  /// skipped outright by their zone maps. scanned + pruned = segments the
  /// plan covered; zero/zero on non-segmented plans.
  uint64_t segments_scanned = 0;
  uint64_t segments_pruned = 0;
  /// Composite bitmap kinds (docs/ENCODINGS.md): per-component slot probes
  /// a multi-component index performed (one per digit interval lowered onto
  /// an axis), and hierarchy levels a hierarchical index's segment-tree
  /// cover touched. Together with bitvectors_accessed these make the probe
  /// tree's shape observable in EXPLAIN.
  uint64_t probe_components = 0;
  uint64_t probe_levels = 0;

  void Reset() { *this = QueryStats(); }

  /// Accumulates another query's counters into this one (batch / per-thread
  /// aggregation).
  void MergeFrom(const QueryStats& other) {
    bitvectors_accessed += other.bitvectors_accessed;
    bitvector_ops += other.bitvector_ops;
    words_touched += other.words_touched;
    candidates += other.candidates;
    false_positives += other.false_positives;
    nodes_accessed += other.nodes_accessed;
    subqueries += other.subqueries;
    rows_scanned += other.rows_scanned;
    simd_path += other.simd_path;
    words_decoded += other.words_decoded;
    segments_scanned += other.segments_scanned;
    segments_pruned += other.segments_pruned;
    probe_components += other.probe_components;
    probe_levels += other.probe_levels;
  }
};

/// Common interface for every query-answering structure in incdb: the
/// served kinds of core/index_factory.h (the paper's techniques, their
/// encoding variants and the sequential scan) and the baselines the paper
/// argues against, which src/repro/ keeps for the reproduction benches
/// (MOSAIC, bitstring-augmented).
///
/// All implementations return *exact* results (any approximate filter is
/// followed by a refinement step), matching the paper's 100%-precision
/// setting; the test suite verifies each against the RowMatches oracle.
class IncompleteIndex {
 public:
  virtual ~IncompleteIndex() = default;

  /// Short identifier, e.g. "BEE-WAH", "BRE-WAH", "VA-File".
  virtual std::string Name() const = 0;

  /// Executes a range query; bit x of the result is set iff row x answers
  /// the query under its semantics. `stats`, when non-null, receives
  /// per-query cost counters.
  virtual Result<BitVector> Execute(const RangeQuery& query,
                                    QueryStats* stats = nullptr) const = 0;

  /// Index size in bytes — the paper's index-size metric (for bitmap
  /// indexes this is the WAH-compressed size; for the VA-file the packed
  /// approximation plus lookup tables).
  virtual uint64_t SizeInBytes() const = 0;

  /// Incrementally indexes one appended record (`row[i]` = value of
  /// attribute i, kMissingValue for missing). The base table must be
  /// extended with the same row first. Default: NotSupported — every
  /// served kind overrides this; the src/repro/ baselines do not.
  virtual Status AppendRow(const std::vector<Value>& row) {
    (void)row;
    return Status::NotSupported(Name() + " does not support appends");
  }

  /// COUNT(*) of the query's result. Default: executes and counts; the
  /// bitmap index overrides this to count directly on the compressed
  /// result without materializing a verbatim bitvector.
  virtual Result<uint64_t> ExecuteCount(const RangeQuery& query,
                                        QueryStats* stats = nullptr) const {
    INCDB_ASSIGN_OR_RETURN(BitVector result, Execute(query, stats));
    return result.Count();
  }
};

}  // namespace incdb

#endif  // INCDB_CORE_INCOMPLETE_INDEX_H_
