#include "trace.h"

#include <cinttypes>

#include "compression/wah_bitvector.h"
#include "core/segments.h"
#include "plan/plan_executor.h"
#include "plan/planner.h"
#include "query/query.h"

namespace perfbench {
namespace {

const Clock::time_point kTraceEpoch = Clock::now();

int64_t SinceEpochNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kTraceEpoch)
      .count();
}

/// Spins (no sleep) for `millis`: the self-check's known extra work.
void BusyWait(double millis) {
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(millis));
  while (Clock::now() < until) {
  }
}

/// One index the bottom rungs probe; `begin_row` is the global row of its
/// local row 0 (0 for a registry index).
struct Probe {
  const incdb::BitmapIndex* index = nullptr;
  uint64_t begin_row = 0;
};

std::vector<const incdb::WahBitVector*> Operands(const std::vector<incdb::WahBitVector>& terms) {
  std::vector<const incdb::WahBitVector*> operands;
  operands.reserve(terms.size());
  for (const incdb::WahBitVector& term : terms) operands.push_back(&term);
  return operands;
}

incdb::WahBitVector Conjunction(const std::vector<incdb::WahBitVector>& terms) {
  return terms.size() == 1 ? terms.front() : incdb::WahBitVector::AndMany(Operands(terms));
}

/// What a segmented store serves, rebuilt from the bottom rungs' per-segment
/// terms: the conjunctions' live rows plus the unsealed tail's live matches.
/// Runs outside every span, so it times nothing.
uint64_t ServedCount(const incdb::Snapshot& snapshot, const std::vector<Probe>& probes,
                     const std::vector<std::vector<incdb::WahBitVector>>& terms,
                     const incdb::RangeQuery& query) {
  const incdb::internal::SnapshotState& state = snapshot.state();
  const incdb::BitVector* deleted = state.deleted.get();
  const auto live = [&](uint64_t row) {
    return deleted == nullptr || row >= deleted->size() || !deleted->Get(row);
  };
  uint64_t count = 0;
  for (size_t p = 0; p < probes.size(); ++p) {
    Conjunction(terms[p]).Decompress().ForEachSetBit([&](uint64_t local) {
      count += live(probes[p].begin_row + local) ? 1 : 0;
    });
  }
  for (uint64_t row = state.segments->sealed_rows; row < state.num_rows; ++row) {
    count += live(row) && incdb::RowMatches(*state.table, row, query) ? 1 : 0;
  }
  return count;
}

}  // namespace

const char* LayerName(int layer) {
  static const char* const kNames[kNumLayers] = {"server", "core", "plan",
                                                 "bitmap", "compression"};
  return layer >= 0 && layer < kNumLayers ? kNames[layer] : "?";
}

void SpanLog::Add(uint64_t request, const char* name, const char* parent,
                  Clock::time_point start, Clock::time_point end) {
  spans_.push_back({request, name, parent, SinceEpochNs(start), SinceEpochNs(end)});
}

void SpanLog::Write(std::FILE* out) const {
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"request\":%" PRIu64 ",\"name\":\"%s\",\"parent\":\"%s\","
                 "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                 s.request, s.name, s.parent, s.start_ns, s.end_ns);
  }
}

std::array<double, kNumLayers> LadderResult::SelfMillis() const {
  std::array<double, kNumLayers> self{};
  self[kServer] = rung_ms[kServer] - rung_ms[kCore];
  self[kCore] = rung_ms[kCore] - rung_ms[kPlan];
  self[kPlan] = rung_ms[kPlan] - rung_ms[kBitmap] - rung_ms[kCompression];
  self[kBitmap] = rung_ms[kBitmap];
  self[kCompression] = rung_ms[kCompression];
  return self;
}

LadderResult RunLadder(const LadderTarget& target, incdb::server::Client* client,
                       const incdb::QueryRequest& request,
                       const incdb::RangeQuery& query, uint64_t request_id,
                       SpanLog* log, Injection injection) {
  LadderResult out;
  out.count_only = request.count_only;
  // Closes one rung: the injected wait (if aimed here) runs inside the span.
  auto close_rung = [&](int layer, Clock::time_point start) {
    if (injection.layer == layer) BusyWait(injection.millis);
    const Clock::time_point end = Clock::now();
    log->Add(request_id, LayerName(layer),
             layer == kServer ? ""
             : layer >= kBitmap ? LayerName(kPlan)
                                : LayerName(layer - 1),
             start, end);
    out.rung_ms[layer] = MillisBetween(start, end);
  };

  // Rung 0: the served call.
  Clock::time_point t0 = Clock::now();
  incdb::Result<incdb::QueryResult> served = client->Run(request);
  close_rung(kServer, t0);
  if (!served.ok()) {
    out.status = served.status();
    return out;
  }
  out.served_count = served->count;
  out.served_epoch = served->epoch;

  // Rung 1: in-process.
  t0 = Clock::now();
  incdb::Result<incdb::QueryResult> core = target.db->Run(request);
  close_rung(kCore, t0);
  if (!core.ok()) {
    out.status = core.status();
    return out;
  }
  out.core_count = core->count;
  out.core_epoch = core->epoch;
  out.route = core->routing.index_kind;
  out.stats = core->stats;

  // Rung 2: plan + execute on a pinned snapshot (the pin is core's work).
  Clock::time_point s0 = Clock::now();
  const incdb::Snapshot snapshot = target.db->GetSnapshot();
  Clock::time_point s1 = Clock::now();
  log->Add(request_id, "core.snapshot", LayerName(kCore), s0, s1);
  out.snapshot_us = 1000.0 * MillisBetween(s0, s1);
  t0 = Clock::now();
  incdb::Result<incdb::plan::PhysicalPlan> plan =
      incdb::plan::PlanRequest(snapshot, request);
  s1 = Clock::now();
  log->Add(request_id, "plan.plan", LayerName(kPlan), t0, s1);
  out.plan_us = 1000.0 * MillisBetween(t0, s1);
  if (!plan.ok()) {
    out.status = plan.status();
    return out;
  }
  incdb::plan::ExecOptions exec_options;
  exec_options.num_threads = request.parallelism;
  s0 = Clock::now();
  incdb::Result<incdb::QueryResult> executed =
      incdb::plan::ExecutePlan(&*plan, exec_options);
  s1 = Clock::now();
  log->Add(request_id, "plan.exec", LayerName(kPlan), s0, s1);
  out.exec_ms = MillisBetween(s0, s1);
  close_rung(kPlan, t0);
  if (!executed.ok()) {
    out.status = executed.status();
    return out;
  }
  out.plan_count = executed->count;
  out.plan_epoch = snapshot.epoch();

  // Rungs 3 and 4 replay the routed bitmap index's own query path: on the
  // CreateIndex twin of the registry index, or on each unpruned segment's
  // index of the pinned snapshot.
  if (out.route != incdb::IndexKind::kBitmapEquality &&
      out.route != incdb::IndexKind::kBitmapRange) {
    return out;
  }
  std::vector<Probe> probes;
  if (target.segmented) {
    if (snapshot.state().segments == nullptr) return out;
    for (const auto& segment : snapshot.state().segments->segments) {
      if (incdb::internal::SegmentPrunedByZones(*segment, query)) continue;
      const auto* index = dynamic_cast<const incdb::BitmapIndex*>(segment->index.get());
      if (index == nullptr) return out;
      probes.push_back({index, segment->begin_row});
    }
  } else {
    probes.push_back(
        {out.route == incdb::IndexKind::kBitmapEquality ? target.bee : target.bre, 0});
  }
  out.bottom_ran = true;

  t0 = Clock::now();
  std::vector<std::vector<incdb::WahBitVector>> terms(probes.size());
  for (size_t p = 0; p < probes.size(); ++p) {
    terms[p].reserve(query.terms.size());
    for (const incdb::QueryTerm& term : query.terms) {
      s0 = Clock::now();
      incdb::Result<incdb::WahBitVector> evaluated =
          probes[p].index->EvaluateInterval(term.attribute, term.interval, query.semantics);
      log->Add(request_id, "bitmap.eval_term", LayerName(kBitmap), s0, Clock::now());
      if (!evaluated.ok()) {
        out.status = evaluated.status();
        return out;
      }
      terms[p].push_back(std::move(evaluated).value());
    }
  }
  close_rung(kBitmap, t0);

  t0 = Clock::now();
  for (const std::vector<incdb::WahBitVector>& probe_terms : terms) {
    const std::vector<const incdb::WahBitVector*> operands = Operands(probe_terms);
    s0 = Clock::now();
    if (request.count_only) {
      out.bottom_count += incdb::WahBitVector::AndManyCount(operands);
      s1 = Clock::now();
      log->Add(request_id, "compression.and_count", LayerName(kCompression), s0, s1);
      out.and_ms += MillisBetween(s0, s1);
    } else {
      const incdb::WahBitVector conjunction = Conjunction(probe_terms);
      const Clock::time_point s2 = Clock::now();
      log->Add(request_id, "compression.and", LayerName(kCompression), s0, s2);
      out.and_ms += MillisBetween(s0, s2);
      const incdb::BitVector rows = conjunction.Decompress();
      s1 = Clock::now();
      log->Add(request_id, "compression.decompress", LayerName(kCompression), s2, s1);
      out.decompress_ms += MillisBetween(s2, s1);
      out.bottom_count += rows.Count();
    }
  }
  close_rung(kCompression, t0);
  if (target.segmented) out.bottom_count = ServedCount(snapshot, probes, terms, query);
  return out;
}

}  // namespace perfbench
