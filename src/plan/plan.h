#ifndef INCDB_PLAN_PLAN_H_
#define INCDB_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "bitvector/bitvector.h"
#include "core/incomplete_index.h"
#include "core/query_api.h"
#include "core/snapshot.h"
#include "query/block_scan.h"
#include "query/query.h"

namespace incdb {
namespace plan {

/// Physical operators. A plan is a tree of these; the planner
/// (plan/planner.h) lowers a QueryRequest into one and the executor
/// (plan/plan_executor.h) runs it. Leaf operators produce a bitvector over
/// a row range; interior operators combine child bitvectors; the sink at
/// the root stitches the delta scan, strips deleted rows, and shapes the
/// final QueryResult.
enum class OpKind {
  /// Executes a (possibly multi-term) RangeQuery natively on one index.
  /// The probe's semantics field carries the *effective* semantics — the
  /// requested semantics flipped once per enclosing kNot — so a single
  /// component (possible or certain) is computed per leaf instead of the
  /// pair.
  kIndexProbe,
  /// Probes every unpruned sealed segment's own index (docs/SEGMENTS.md)
  /// with the node's RangeQuery and splices the local results into one
  /// bitvector over [0, end_row). One leaf task per unpruned segment —
  /// that is the morsel grid — with per-segment output slots merged in
  /// segment order, so serial and parallel runs are bit-identical. A
  /// zone-map-pruned segment provably contains no matching row for the
  /// leaf's effective semantics, so its zero bits are the exact leaf value
  /// (safe under enclosing kNot). Carries the same effective-semantics
  /// contract as kIndexProbe.
  kSegmentProbe,
  /// Scan over the appended tail [begin_row, end_row) that the serving
  /// index does not cover, evaluated column-at-a-time into 64-row match
  /// words (query/block_scan.h). Always a direct child of the sink (a
  /// partial-range scan must never sit under a kNot).
  kDeltaScan,
  /// The same scan over the full visible range when no index wins the
  /// cost race (or none is registered).
  kSeqScanFallback,
  /// Intersection / union / complement of child outputs. kNot flips the
  /// component its child computes: possible(NOT e) = NOT certain(e).
  kAnd,
  kOr,
  kNot,
  /// Root sinks. kCountSink fills QueryResult::count only (and may collapse
  /// to the index's compressed ExecuteCount when the probe covers every
  /// visible row — `count_direct`); kMaterializeSink also fills row_ids.
  kCountSink,
  kMaterializeSink,
};

std::string_view OpKindToString(OpKind kind);

/// Filled in by the executor as the plan runs; EXPLAIN renders estimated
/// vs. realized selectivity from it.
struct OpRealized {
  bool executed = false;
  /// Set bits in this operator's output (== count for sinks).
  uint64_t output_rows = 0;
  /// Rows evaluated by scan operators (delta / fallback).
  uint64_t rows_scanned = 0;
  /// Parallel leaf tasks this operator was split into (0 = not a leaf).
  uint64_t morsels = 0;
  /// output_rows / rows in the operator's range.
  double realized_selectivity = 0.0;
  /// Cost counters attributed to exactly this operator.
  QueryStats stats;
};

/// One node of a physical plan. Which fields are meaningful depends on
/// `kind`; the rest stay defaulted. Nodes also hold their executor working
/// state (`output`, `realized`) — a plan instance is run once.
struct PlanNode {
  OpKind kind = OpKind::kSeqScanFallback;
  std::vector<std::unique_ptr<PlanNode>> children;

  // kIndexProbe
  const IncompleteIndex* index = nullptr;
  RangeQuery probe;
  /// kIndexProbe under a kCountSink: answer via ExecuteCount, never
  /// materializing the result bitvector.
  bool count_direct = false;

  // kSegmentProbe — probes `probe` on each segment; end_row is the sealed
  // watermark the node's output covers. count_direct sums per-segment
  // ExecuteCount under a kCountSink (same contract as the index probe).
  const internal::SegmentList* segments = nullptr;
  /// Planner's zone-map verdict per segment (1 = pruned, never probed).
  std::vector<uint8_t> segment_pruned;
  /// Executor working state: one local-row-space output per segment.
  std::vector<BitVector> segment_outputs;

  // kDeltaScan / kSeqScanFallback — the predicate (terms or expression),
  // compiled once by the planner for the column-at-a-time evaluator.
  const Table* table = nullptr;
  uint64_t begin_row = 0;
  uint64_t end_row = 0;
  BlockScan scan;

  /// Planner's selectivity estimate for this operator's output (§5.3
  /// model); negative when no estimate is available (bare-index plans).
  double estimated_selectivity = -1.0;
  /// One-line operator description, e.g. "IndexProbe BEE-WAH [match] ...".
  std::string label;

  /// Executor working state.
  BitVector output;
  OpRealized realized;
};

/// A lowered, executable plan: the operator tree plus everything the sink
/// needs to shape a QueryResult.
struct PhysicalPlan {
  /// Root of the tree. Snapshot plans root at a sink (kCountSink /
  /// kMaterializeSink) whose child 0 is the main tree and optional child 1
  /// a kDeltaScan; bare-index plans (plan/planner.h PlanRangeOverIndex,
  /// PlanExprOverIndex) root directly at the operator tree.
  std::unique_ptr<PlanNode> root;
  RoutingDecision routing;
  MissingSemantics semantics = MissingSemantics::kMatch;
  bool count_only = false;
  /// Row-id materialization cap (QueryRequest::limit); 0 = unlimited.
  uint64_t limit = 0;
  /// Rows visible to the snapshot (the main tree output is resized to this
  /// before the delta is OR'd in).
  uint64_t visible_rows = 0;
  /// Expected size of the main tree's output — the serving index's build
  /// coverage (== visible_rows for scans).
  uint64_t covered_rows = 0;
  /// Deletion mask source; null for bare-index plans.
  const internal::SnapshotState* state = nullptr;
};

/// Renders the plan as an indented operator tree, one node per line:
///
///   MaterializeSink count=3 of 10 rows
///   ├─ IndexProbe BEE-WAH [match] 0 in [4,5] est_sel=0.31 sel=0.30 ...
///   └─ DeltaScan rows [8,10) [match] ... sel=0.50 scanned=2
///
/// Estimated selectivity comes from the planner, realized figures from the
/// executed nodes (unexecuted nodes render their estimates only), so the
/// output always reflects the plan that actually ran.
std::string ExplainPlan(const PhysicalPlan& plan);

}  // namespace plan
}  // namespace incdb

#endif  // INCDB_PLAN_PLAN_H_
