// Tracing for the traced run: in-memory spans recorded around the public
// calls of each layer, and the ladder that replays one request down those
// layers, one rung per call:
//
//   server       server::Client::Run        (wire, queue, socket + below)
//   core         Database::Run              (snapshot pin + below)
//   plan         plan::PlanRequest + plan::ExecutePlan on a pinned snapshot
//   bitmap       BitmapIndex::EvaluateInterval, once per term
//   compression  WahBitVector::AndManyCount, or AndMany + Decompress
//
// The bottom two rungs run on an identical index built through
// CreateIndex or, on a segmented store, on the unpruned segments' own
// indexes in the pinned snapshot. Every rung repeats the work of the rungs
// below it, so a layer's self time is its rung minus the rung(s) directly
// under it.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bitmap/bitmap_index.h"
#include "common.h"
#include "core/database.h"
#include "server/client.h"

namespace perfbench {

enum Layer : int { kServer = 0, kCore, kPlan, kBitmap, kCompression, kNumLayers };
const char* LayerName(int layer);

struct Span {
  uint64_t request = 0;  ///< shared by every span of one request
  const char* name = "";
  const char* parent = "";  ///< "" for a request's root span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans of one thread, kept in memory and written out when the run ends.
class SpanLog {
 public:
  void Add(uint64_t request, const char* name, const char* parent,
           Clock::time_point start, Clock::time_point end);
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line, times in ns from the log's epoch.
  void Write(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
};

/// What the ladder runs against.
struct LadderTarget {
  const incdb::Database* db = nullptr;
  /// Identical BEE / BRE indexes built through CreateIndex; the bottom
  /// rungs run only when the served plan routed to one of them.
  const incdb::BitmapIndex* bee = nullptr;
  const incdb::BitmapIndex* bre = nullptr;
  /// True for a segmented store: the bottom rungs then probe each unpruned
  /// segment's own index in the plan rung's pinned snapshot, as the served
  /// plan does, and `bee` / `bre` are not used.
  bool segmented = false;
};

/// A busy-wait placed inside one rung's span (the ladder self-check).
struct Injection {
  int layer = -1;
  double millis = 0.0;
};

struct LadderResult {
  incdb::Status status;
  /// Inclusive time of each rung, ms (0 for a rung that did not run).
  std::array<double, kNumLayers> rung_ms{};
  double snapshot_us = 0.0;
  double plan_us = 0.0;
  double exec_ms = 0.0;
  double and_ms = 0.0;         ///< AndManyCount or AndMany
  double decompress_ms = 0.0;  ///< rows requests only
  bool count_only = false;
  bool bottom_ran = false;
  /// Count each rung answered, and the epoch it saw. On a segmented store
  /// the bottom count is the segments' conjunctions less deleted rows, plus
  /// the unsealed tail's matches, worked out outside every span.
  uint64_t served_count = 0, core_count = 0, plan_count = 0, bottom_count = 0;
  uint64_t served_epoch = 0, core_epoch = 0, plan_epoch = 0;
  /// The in-process result's routing and counters.
  incdb::IndexKind route = incdb::IndexKind::kSequentialScan;
  incdb::QueryStats stats;

  /// Self time of each layer: its rung minus the rungs directly below.
  std::array<double, kNumLayers> SelfMillis() const;
};

/// Replays `request` down every rung. `query` is the resolved predicate
/// the bottom rungs evaluate. Returns the first failing call's status.
LadderResult RunLadder(const LadderTarget& target, incdb::server::Client* client,
                       const incdb::QueryRequest& request,
                       const incdb::RangeQuery& query, uint64_t request_id,
                       SpanLog* log, Injection injection = {});

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
