#include "workloads.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>

#include "bitmap/bitmap_index.h"
#include "common/rng.h"
#include "core/database.h"
#include "core/index_factory.h"
#include "query/seq_scan.h"
#include "query/workload.h"
#include "server/client.h"
#include "server/server.h"
#include "table/generator.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using incdb::BitmapIndex;
using incdb::Database;
using incdb::IndexKind;
using incdb::MissingSemantics;
using incdb::QueryRequest;
using incdb::QueryResult;
using incdb::RangeQuery;
using incdb::Snapshot;
using incdb::Table;

/// Closed-loop client connections (one thread each).
constexpr int kClients = 2;
/// Set-ups per untraced run, half before the measured phase and half after
/// it, so that one slow spell of a shared host does not decide setup_s (their
/// median). Census set-up takes seconds; the segmented store sets up in tens
/// of milliseconds, so it repeats more often.
constexpr int kSetupReps = 6;
constexpr int kCensusSetupReps = 4;
constexpr int kIngestSetupReps = 40;
/// Busy-wait the ladder self-check injects into the plan rung.
constexpr double kInjectMillis = 4.0;
constexpr int kSelfCheckPairs = 100;

/// One distinct request of a workload's pool.
struct Request {
  QueryRequest request;
  /// The resolved predicate: the oracle's input and the bottom rungs'.
  RangeQuery query;
};

uint64_t HashRows(const std::vector<uint32_t>& ids) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t id : ids) {
    h ^= id;
    h *= 1099511628211ull;
  }
  return h ^ ids.size();
}

std::vector<incdb::NamedTerm> NamedTerms(const Table& table, const RangeQuery& query) {
  std::vector<incdb::NamedTerm> terms;
  for (const incdb::QueryTerm& term : query.terms) {
    terms.push_back({table.schema().attribute(term.attribute).name, term.interval.lo,
                     term.interval.hi});
  }
  return terms;
}

std::vector<RangeQuery> MustWorkload(const Table& table, incdb::WorkloadParams params) {
  return Must(incdb::GenerateWorkload(table, params), "GenerateWorkload");
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// CPU time (user + system) of every thread of the process so far.
double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double RssMb() {
  long total_pages = 0, resident_pages = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  const bool ok =
      statm != nullptr && std::fscanf(statm, "%ld %ld", &total_pages, &resident_pages) == 2;
  if (statm != nullptr) std::fclose(statm);
  if (!ok) Fatal("cannot read /proc/self/statm");
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// The engine's share of the process's peak memory: how far the peak rose
/// above the resident memory at Start(), which holds the harness's
/// generated tables, request pool and oracle answers.
class EngineMemory {
 public:
  void Start() {
    baseline_mb_ = RssMb();
    peak_before_mb_ = PeakRssMb();
  }
  double PeakMb() const {
    const double peak = PeakRssMb();
    // A peak left from generating the inputs would hide the engine's.
    if (peak <= peak_before_mb_) Fatal("the engine's peak memory is below the harness's");
    return peak - baseline_mb_;
  }

 private:
  double baseline_mb_ = 0.0;
  double peak_before_mb_ = 0.0;
};

/// Runs fn(0..n-1) on up to four threads: oracle work before timing starts.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const unsigned workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Everything the client phases need about the served store.
struct Served {
  uint16_t port = 0;
  std::vector<Request> requests;
  /// Static stores: the row-id hash every materialising answer must have.
  /// Empty for a store under writes, whose row ids move with compaction.
  std::vector<uint64_t> row_hash;
  /// The served database, plus the traced run's bottom-rung indexes.
  LadderTarget ladder;
};

/// A count some rung answered, checked against the oracle after the run.
struct Observation {
  uint32_t request = 0;
  uint64_t epoch = 0;
  uint64_t count = 0;
};

struct Phase {
  std::vector<double> count_ms, rows_ms;
  std::vector<LadderResult> ladders;
  std::vector<Observation> observations;
  uint64_t attempted = 0, failed = 0;
  double wall_s = 0.0;
  /// The process's CPU time over the phase, all threads.
  double cpu_s = 0.0;
  std::vector<std::string> errors;

  void Merge(Phase&& other) {
    auto append = [](auto& into, auto& from) {
      into.insert(into.end(), std::make_move_iterator(from.begin()),
                  std::make_move_iterator(from.end()));
    };
    append(count_ms, other.count_ms);
    append(rows_ms, other.rows_ms);
    append(ladders, other.ladders);
    append(observations, other.observations);
    append(errors, other.errors);
    attempted += other.attempted;
    failed += other.failed;
  }
};

enum class Mode { kWarmup, kServed, kTraced };

/// Checks the shape of a served answer; the count itself is checked later.
void CheckRows(const Served& s, size_t idx, const QueryResult& result, Phase* phase) {
  const QueryRequest& request = s.requests[idx].request;
  const uint64_t want = request.count_only ? 0
                        : request.limit != 0 ? std::min(request.limit, result.count)
                                             : result.count;
  bool ok = result.row_ids.size() == want;
  for (size_t i = 1; ok && i < result.row_ids.size(); ++i) {
    ok = result.row_ids[i - 1] < result.row_ids[i];
  }
  if (ok && !request.count_only && !s.row_hash.empty()) {
    ok = HashRows(result.row_ids) == s.row_hash[idx];
  }
  if (!ok && phase->errors.size() < 5) {
    phase->errors.push_back("request " + std::to_string(idx) +
                            ": row ids differ from the oracle's");
  }
}

/// Runs kClients closed-loop clients for `seconds` (or, warming up, once
/// over the request pool) and gathers latencies and observations.
Phase RunClients(const Served& s, Mode mode, double seconds, SpanLog* logs,
                 uint64_t id_base) {
  const size_t n = s.requests.size();
  std::vector<Phase> parts(kClients);
  std::latch connected(kClients + 1);
  std::latch go(kClients + 1);
  std::atomic<int64_t> deadline_ns{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      Phase& phase = parts[c];
      incdb::server::ClientOptions client_options;
      client_options.client_name = "perfbench";
      incdb::Result<incdb::server::Client> client =
          incdb::server::Client::Connect("127.0.0.1", s.port, client_options);
      connected.count_down();
      go.arrive_and_wait();
      if (!client.ok()) {  // a refused connection is a failed request
        ++phase.attempted;
        ++phase.failed;
        return;
      }
      const Clock::time_point deadline{Clock::duration(deadline_ns.load())};
      size_t next = (static_cast<size_t>(c) * n) / kClients;
      uint64_t id = id_base + static_cast<uint64_t>(c) * (uint64_t{1} << 32);
      for (size_t issued = 0;; ++issued) {
        if (mode == Mode::kWarmup ? issued * kClients >= n : Clock::now() >= deadline) break;
        const size_t idx = mode == Mode::kWarmup ? (c + issued * kClients) % n : next++ % n;
        const Request& r = s.requests[idx];
        ++phase.attempted;
        if (mode == Mode::kTraced) {
          LadderResult ladder =
              RunLadder(s.ladder, &*client, r.request, r.query, id++, &logs[c]);
          if (!ladder.status.ok()) {
            ++phase.failed;
            continue;
          }
          const uint32_t req = static_cast<uint32_t>(idx);
          phase.observations.push_back({req, ladder.served_epoch, ladder.served_count});
          phase.observations.push_back({req, ladder.core_epoch, ladder.core_count});
          phase.observations.push_back({req, ladder.plan_epoch, ladder.plan_count});
          if (ladder.bottom_ran) {
            phase.observations.push_back({req, ladder.plan_epoch, ladder.bottom_count});
          }
          phase.ladders.push_back(std::move(ladder));
          continue;
        }
        const Clock::time_point t0 = Clock::now();
        incdb::Result<QueryResult> result = client->Run(r.request);
        const double ms = MillisBetween(t0, Clock::now());
        if (!result.ok()) {
          ++phase.failed;
          continue;
        }
        if (mode == Mode::kServed) {
          (r.request.count_only ? phase.count_ms : phase.rows_ms).push_back(ms);
        }
        CheckRows(s, idx, *result, &phase);
        phase.observations.push_back(
            {static_cast<uint32_t>(idx), result->epoch, result->count});
      }
    });
  }
  connected.arrive_and_wait();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  deadline_ns.store(
      (start + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds)))
          .time_since_epoch()
          .count());
  go.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  Phase merged;
  merged.wall_s = SecondsBetween(start, Clock::now());
  merged.cpu_s = ProcessCpuSeconds() - cpu_start;
  for (Phase& part : parts) merged.Merge(std::move(part));
  return merged;
}

/// Paired ladder runs with and without a busy-wait inside the plan rung:
/// only the plan layer's self time may rise, by about the wait.
void RunSelfCheck(const Served& s, SpanLog* log, RunOutput* out) {
  incdb::server::Client client =
      Must(incdb::server::Client::Connect("127.0.0.1", s.port), "self-check connect");
  std::vector<const Request*> counts;
  for (const Request& r : s.requests) {
    if (r.request.count_only) counts.push_back(&r);
  }
  // Per-pair differences of self time; the order within a pair alternates
  // so that neither side always runs on the warmer cache.
  std::array<std::vector<double>, kNumLayers> deltas;
  for (int p = 0; p < kSelfCheckPairs; ++p) {
    const Request& r = *counts[static_cast<size_t>(p) % counts.size()];
    const uint64_t id = (uint64_t{1} << 40) + 2 * static_cast<uint64_t>(p);
    LadderResult plain, injected;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (p % 2 == 0)) {
        plain = RunLadder(s.ladder, &client, r.request, r.query, id, log);
      } else {
        injected = RunLadder(s.ladder, &client, r.request, r.query, id + 1, log,
                             Injection{kPlan, kInjectMillis});
      }
    }
    if (!plain.status.ok() || !injected.status.ok()) {
      out->Fail("self-check ladder failed");
      return;
    }
    const auto a = plain.SelfMillis();
    const auto b = injected.SelfMillis();
    for (int l = 0; l < kNumLayers; ++l) deltas[l].push_back(b[l] - a[l]);
  }
  const double tolerance = 0.25 * kInjectMillis;
  std::string summary;
  for (int l = 0; l < kNumLayers; ++l) {
    const double delta = Median(deltas[l]);
    summary += std::string(summary.empty() ? "" : " ") + LayerName(l) + "=" +
               std::to_string(delta);
    const bool ok = l == kPlan ? std::abs(delta - kInjectMillis) <= tolerance
                               : delta <= tolerance;
    if (!ok) {
      out->Fail(std::string("self-check: ") + LayerName(l) + " self time moved by " +
                std::to_string(delta) + " ms for a " + std::to_string(kInjectMillis) +
                " ms wait in the plan rung");
    }
  }
  out->Info("selfcheck_inject_ms", kInjectMillis);
  out->Info("selfcheck_self_delta_ms", summary);
}

void WriteSpans(const Options& options, const std::vector<SpanLog>& logs) {
  const std::string path = options.work_dir + "/spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".jsonl";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) Fatal("cannot write " + path);
  for (const SpanLog& log : logs) log.Write(file);
  std::fclose(file);
}

/// The measured part of every workload: warm-up, then either one untraced
/// served phase, or an untraced half plus a traced half and the ladder
/// self-check. `on_timed_start` runs right before timing begins. Count
/// checks are left to the caller, which knows the oracle.
struct Measured {
  Phase warm, served, traced;
  incdb::server::wire::ServerStats server_stats;
};

Measured Measure(const Served& s, const Options& options,
                 incdb::server::Server* server, const std::function<void()>& on_timed_start,
                 RunOutput* out) {
  Measured m;
  std::vector<SpanLog> logs(kClients + 1);
  m.warm = RunClients(s, Mode::kWarmup, 0.0, logs.data(), 0);
  on_timed_start();
  if (!options.trace) {
    m.served = RunClients(s, Mode::kServed, options.seconds, logs.data(), 0);
  } else {
    m.served = RunClients(s, Mode::kServed, options.seconds / 2, logs.data(), 0);
    m.traced = RunClients(s, Mode::kTraced, options.seconds / 2, logs.data(), 1);
    RunSelfCheck(s, &logs[kClients], out);
    WriteSpans(options, logs);
  }
  m.server_stats = server->StatsSnapshot();
  return m;
}

/// Turns a measured run into the metrics the run reports. `extra` holds the
/// workload's own per-layer values (set-up timings, writer figures).
void Report(const Options& options, const Measured& m,
            const std::function<bool(const Observation&)>& count_ok,
            const std::map<std::string, Metric>& extra, RunOutput* out) {
  for (const Phase* phase : {&m.warm, &m.served, &m.traced}) {
    out->attempted += phase->attempted;
    out->failed += phase->failed;
    for (const std::string& e : phase->errors) out->Fail(e);
    size_t mismatches = 0;
    for (const Observation& obs : phase->observations) {
      if (!count_ok(obs) && mismatches++ < 3) {
        out->Fail("request " + std::to_string(obs.request) + " at epoch " +
                  std::to_string(obs.epoch) + ": count " + std::to_string(obs.count) +
                  " differs from the oracle's");
      }
    }
    if (mismatches > 3) out->Fail(std::to_string(mismatches) + " count mismatches");
  }
  std::vector<double> all_ms = m.served.count_ms;
  all_ms.insert(all_ms.end(), m.served.rows_ms.begin(), m.served.rows_ms.end());
  const double served_ok =
      static_cast<double>(m.served.attempted - m.served.failed);
  // Wall-clock throughput and latencies are printed, not gated: on a shared
  // 4-core host they move with the CPU time the host steals, by more than
  // any useful regression bound. The process's CPU time per request is gated.
  out->Info("count_samples", std::to_string(m.served.count_ms.size()));
  out->Info("rows_samples", std::to_string(m.served.rows_ms.size()));
  out->ungated.push_back({"qps", "1/s", Ratio(served_ok, m.served.wall_s)});
  static const std::pair<const char*, double> kQuantiles[] = {
      {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};
  for (const auto& [name, q] : kQuantiles) {
    out->ungated.push_back(
        {std::string("count_") + name + "_ms", "ms", Quantile(m.served.count_ms, q)});
    out->ungated.push_back(
        {std::string("rows_") + name + "_ms", "ms", Quantile(m.served.rows_ms, q)});
  }
  out->Info("observations_checked",
            std::to_string(m.warm.observations.size() + m.served.observations.size() +
                           m.traced.observations.size()));

  out->Info("served_cpu_s", m.served.cpu_s);
  if (!options.trace) {
    out->e2e.push_back({"cpu_ms_per_request", "ms", 1000.0 * Ratio(m.served.cpu_s, served_ok)});
    return;
  }

  const std::vector<LadderResult>& ladders = m.traced.ladders;
  std::vector<double> served, server_self, core_self, plan_self, core_run, snapshot_us,
      plan_us, exec_ms, eval_ms, and_count_ms, decompress_ms;
  double bitvectors = 0, words_touched = 0, words_decoded = 0, rows_scanned = 0,
         seg_scanned = 0, seg_pruned = 0;
  std::map<IndexKind, double> routes;
  for (const LadderResult& l : ladders) {
    served.push_back(l.rung_ms[kServer]);
    const std::array<double, kNumLayers> self = l.SelfMillis();
    server_self.push_back(self[kServer]);
    core_self.push_back(self[kCore]);
    plan_self.push_back(self[kPlan]);
    core_run.push_back(l.rung_ms[kCore]);
    snapshot_us.push_back(l.snapshot_us);
    plan_us.push_back(l.plan_us);
    exec_ms.push_back(l.exec_ms);
    if (l.bottom_ran) {
      eval_ms.push_back(l.rung_ms[kBitmap]);
      if (l.count_only) {
        and_count_ms.push_back(l.and_ms);
      } else {
        decompress_ms.push_back(l.decompress_ms);
      }
    }
    bitvectors += static_cast<double>(l.stats.bitvectors_accessed);
    words_touched += static_cast<double>(l.stats.words_touched);
    words_decoded += static_cast<double>(l.stats.words_decoded);
    rows_scanned += static_cast<double>(l.stats.rows_scanned);
    seg_scanned += static_cast<double>(l.stats.segments_scanned);
    seg_pruned += static_cast<double>(l.stats.segments_pruned);
    routes[l.route] += 1;
  }
  const double n = static_cast<double>(ladders.size());
  const auto route = [&](IndexKind kind) { return Ratio(routes[kind], n); };
  std::vector<Metric>& L = out->layers;
  L.push_back({"server.overhead_p50_ms", "ms", Median(server_self)});
  L.push_back({"server.rejected", "count",
               static_cast<double>(m.server_stats.rejected_overloaded +
                                   m.server_stats.rejected_invalid)});
  L.push_back({"core.run_p50_ms", "ms", Median(core_run)});
  L.push_back({"core.self_p50_ms", "ms", Median(core_self)});
  L.push_back({"core.snapshot_p50_us", "us", Median(snapshot_us)});
  L.push_back({"plan.plan_p50_us", "us", Median(plan_us)});
  L.push_back({"plan.exec_p50_ms", "ms", Median(exec_ms)});
  L.push_back({"plan.self_p50_ms", "ms", Median(plan_self)});
  L.push_back({"plan.segments_pruned_frac", "fraction",
               Ratio(seg_pruned, seg_scanned + seg_pruned)});
  L.push_back({"plan.rows_scanned_per_query", "rows", Ratio(rows_scanned, n)});
  L.push_back({"plan.route_bee_frac", "fraction", route(IndexKind::kBitmapEquality)});
  L.push_back({"plan.route_bre_frac", "fraction", route(IndexKind::kBitmapRange)});
  L.push_back({"plan.route_va_frac", "fraction", route(IndexKind::kVaFile)});
  L.push_back({"plan.route_scan_frac", "fraction", route(IndexKind::kSequentialScan)});
  L.push_back({"bitmap.eval_p50_ms", "ms", Median(eval_ms)});
  L.push_back({"bitmap.bitvectors_per_query", "count", Ratio(bitvectors, n)});
  L.push_back({"compression.and_count_p50_ms", "ms", Median(and_count_ms)});
  L.push_back({"compression.decompress_p50_ms", "ms", Median(decompress_ms)});
  L.push_back({"compression.words_touched_per_query", "words", Ratio(words_touched, n)});
  L.push_back({"compression.words_decoded_per_query", "words", Ratio(words_decoded, n)});
  L.push_back({"trace.overhead_p50_ms", "ms", Median(served) - Median(all_ms)});
  for (const auto& [name, metric] : extra) L.push_back(metric);
  out->Info("ladder_requests", std::to_string(ladders.size()));
  out->Info("ladder_bottom_rungs", std::to_string(eval_ms.size()));
}

/// Per-layer values a workload fills in itself. Every time among them is
/// measured on every workload; counts, fractions and sizes are zero where
/// the workload does no such work.
std::map<std::string, Metric> LayerDefaults() {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"core.build_bee_s", "s"},
      {"core.build_bre_s", "s"},
      {"core.build_va_s", "s"},
      {"bitmap.compression_ratio_bee", "ratio"},
      {"bitmap.compression_ratio_bre", "ratio"},
      {"storage.save_s", "s"},
      {"storage.open_s", "s"},
      {"storage.store_bytes_per_cell", "B"},
      {"storage.checkpoint_bytes_per_row", "B"},
      {"core.compactions", "count"},
      {"core.compact_rebuilt_frac", "fraction"},
  };
  std::map<std::string, Metric> m;
  for (const auto& [name, unit] : kLayers) m[name] = {name, unit, 0.0};
  return m;
}

/// The store-level end-to-end metrics, set-up time first.
void AddStoreMetrics(const std::vector<double>& setup_s, double index_bytes, double cells,
                     double engine_peak_mb, RunOutput* out) {
  out->e2e.insert(out->e2e.begin(), {"setup_s", "s", Median(setup_s)});
  out->e2e.push_back({"index_bytes_per_cell", "B", index_bytes / cells});
  out->e2e.push_back({"peak_rss_mb", "MB", engine_peak_mb});
  out->Info("process_peak_rss_mb", PeakRssMb());
}

void SetLayer(std::map<std::string, Metric>* m, const std::string& name, double value) {
  (*m)[name].value = value;
}

/// Oracle answers of a static store: count and row-id hash per request.
void ScanOracle(const Table& table, Served* s, std::vector<uint64_t>* counts,
                RunOutput* out) {
  const Clock::time_point start = Clock::now();
  const incdb::SequentialScan scan(table);
  counts->assign(s->requests.size(), 0);
  s->row_hash.assign(s->requests.size(), 0);
  ParallelFor(s->requests.size(), [&](size_t i) {
    const std::vector<uint32_t> ids =
        Must(scan.Execute(s->requests[i].query), "SequentialScan");
    (*counts)[i] = ids.size();
    s->row_hash[i] = HashRows(ids);
  });
  out->Info("oracle_s", SecondsBetween(start, Clock::now()));
}

/// Builds BEE, BRE and VA-file indexes over `table` through CreateIndex,
/// timing each (core.build_*_s) and recording the bitmap compression
/// ratios; the BEE and BRE indexes serve the ladder's bottom rungs.
struct LadderIndexes {
  std::unique_ptr<incdb::IncompleteIndex> bee, bre;
};
LadderIndexes BuildLadderIndexes(const Table& table, Served* s,
                                 std::map<std::string, Metric>* extra) {
  LadderIndexes idx;
  auto build = [&](IndexKind kind, const char* metric) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<incdb::IncompleteIndex> index =
        Must(incdb::CreateIndex(kind, table), "CreateIndex");
    SetLayer(extra, metric, SecondsBetween(t0, Clock::now()));
    return index;
  };
  idx.bee = build(IndexKind::kBitmapEquality, "core.build_bee_s");
  idx.bre = build(IndexKind::kBitmapRange, "core.build_bre_s");
  build(IndexKind::kVaFile, "core.build_va_s");
  s->ladder.bee = dynamic_cast<const BitmapIndex*>(idx.bee.get());
  s->ladder.bre = dynamic_cast<const BitmapIndex*>(idx.bre.get());
  if (s->ladder.bee == nullptr || s->ladder.bre == nullptr) Fatal("ladder index kind");
  SetLayer(extra, "bitmap.compression_ratio_bee", s->ladder.bee->CompressionRatio());
  SetLayer(extra, "bitmap.compression_ratio_bre", s->ladder.bre->CompressionRatio());
  return idx;
}

/// Saves `db` into `dir` and opens it again, timing both (storage.*).
void MeasureStorage(const Database& db, const std::string& dir, double cells,
                    std::map<std::string, Metric>* extra) {
  fs::remove_all(dir);
  const Clock::time_point t0 = Clock::now();
  Must(db.Save(dir), "Save");
  const Clock::time_point t1 = Clock::now();
  Must(Database::Open(dir), "Open");
  SetLayer(extra, "storage.save_s", SecondsBetween(t0, t1));
  SetLayer(extra, "storage.open_s", SecondsBetween(t1, Clock::now()));
  SetLayer(extra, "storage.store_bytes_per_cell", static_cast<double>(DirBytes(dir)) / cells);
  fs::remove_all(dir);
}

void ProvenanceCounts(const Table& data, const Served& s, RunOutput* out) {
  size_t rows_requests = 0;
  for (const Request& r : s.requests) rows_requests += r.request.count_only ? 0 : 1;
  out->Info("rows", std::to_string(data.num_rows()));
  out->Info("attributes", std::to_string(data.num_attributes()));
  out->Info("distinct_requests", std::to_string(s.requests.size()));
  out->Info("distinct_rows_requests", std::to_string(rows_requests));
}

}  // namespace

// ---------------------------------------------------------------------------

RunOutput RunPaperDense(const Options& options) {
  constexpr uint64_t kRows = 2000000;
  constexpr size_t kRequests = 192;
  RunOutput out;
  const Table data =
      Must(incdb::GenerateTable(incdb::UniformSpec(kRows, 10, 0.1, 4, options.seed)),
           "GenerateTable");

  // 4-term ranges at 1% global selectivity; semantics alternate per
  // request, and every other pair materialises its rows.
  Served s;
  incdb::WorkloadParams params;
  params.num_queries = kRequests / 2;
  params.dims = 4;
  params.global_selectivity = 0.01;
  params.seed = options.seed * 7919 + 1;
  const std::vector<RangeQuery> match = MustWorkload(data, params);
  params.semantics = MissingSemantics::kNoMatch;
  params.seed += 1;
  const std::vector<RangeQuery> no_match = MustWorkload(data, params);
  for (size_t i = 0; i < kRequests; ++i) {
    const RangeQuery& q = (i % 2 == 0 ? match : no_match)[i / 2];
    Request r{QueryRequest::Terms(NamedTerms(data, q), q.semantics), q};
    r.request.CountOnly((i / 2) % 2 == 0);
    s.requests.push_back(std::move(r));
  }
  std::vector<uint64_t> expected;
  ScanOracle(data, &s, &expected, &out);

  std::map<std::string, Metric> extra = LayerDefaults();
  std::vector<double> setup_s;
  std::unique_ptr<incdb::server::Server> server;
  std::optional<Database> db;
  EngineMemory memory;
  memory.Start();
  // Replaces the served store with a freshly set-up one; returns its set-up time.
  const auto set_up = [&] {
    server.reset();
    db.reset();
    Table copy(data);
    const Clock::time_point t0 = Clock::now();
    db.emplace(Must(Database::FromTable(std::move(copy)), "FromTable"));
    Must(db->BuildIndex(IndexKind::kBitmapEquality), "BuildIndex BEE");
    Must(db->BuildIndex(IndexKind::kBitmapRange), "BuildIndex BRE");
    server = Must(incdb::server::Server::Start(&*db, {}), "Server::Start");
    return SecondsBetween(t0, Clock::now());
  };
  const int reps_each = options.trace ? 1 : kSetupReps / 2;
  for (int rep = 0; rep < reps_each; ++rep) setup_s.push_back(set_up());
  s.ladder.db = &*db;
  s.port = server->port();
  const double cells = static_cast<double>(kRows * data.num_attributes());
  LadderIndexes ladder_indexes;
  if (options.trace) {
    ladder_indexes = BuildLadderIndexes(db->table(), &s, &extra);
    MeasureStorage(*db, options.work_dir + "/paper-store", cells, &extra);
  }
  ProvenanceCounts(data, s, &out);

  const Measured m = Measure(s, options, server.get(), [] {}, &out);
  const double engine_peak_mb = memory.PeakMb();
  Report(options, m,
         [&](const Observation& o) { return o.count == expected[o.request]; }, extra,
         &out);
  const double index_bytes = static_cast<double>(db->IndexSizeInBytes());
  server->Shutdown();
  if (!options.trace) {
    for (int rep = 0; rep < reps_each; ++rep) setup_s.push_back(set_up());
    AddStoreMetrics(setup_s, index_bytes, cells, engine_peak_mb, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------

RunOutput RunCensusReopen(const Options& options) {
  constexpr uint64_t kRows = 463733;
  constexpr size_t kRequests = 1536;
  RunOutput out;
  const Table data =
      Must(incdb::GenerateTable(incdb::CensusLikeSpec(kRows, options.seed)),
           "GenerateTable");

  // Half 6-term ranges over 20% of each domain, half 6-term points; the
  // semantics and the count/rows split cycle as in paper_dense. Request i
  // always uses the same six attributes (a fixed draw), so every seed's
  // pool spans the same attribute mix and seeds vary the data and the
  // interval positions: the heavy tail of result sizes stays comparable.
  Served s;
  incdb::Rng shape_rng(0xC3A5C85C97CB3127ULL);
  for (size_t i = 0; i < kRequests; ++i) {
    std::vector<size_t> attrs(data.num_attributes());
    std::iota(attrs.begin(), attrs.end(), 0);
    for (size_t k = 0; k < 6; ++k) {
      std::swap(attrs[k], attrs[static_cast<size_t>(shape_rng.UniformInt(
                              static_cast<int64_t>(k), static_cast<int64_t>(attrs.size()) - 1))]);
    }
    attrs.resize(6);
    incdb::WorkloadParams params;
    params.num_queries = 1;
    params.dims = 6;
    params.attribute_pool = std::move(attrs);
    params.point_queries = (i / 4) % 2 == 1;
    params.attribute_selectivity = 0.2;
    params.semantics = i % 2 == 0 ? MissingSemantics::kMatch : MissingSemantics::kNoMatch;
    params.seed = options.seed * 104729 + i;
    const RangeQuery q = MustWorkload(data, params).front();
    Request r{QueryRequest::Terms(NamedTerms(data, q), q.semantics), q};
    r.request.CountOnly((i / 2) % 2 == 0);
    s.requests.push_back(std::move(r));
  }
  std::vector<uint64_t> expected;
  ScanOracle(data, &s, &expected, &out);

  std::map<std::string, Metric> extra = LayerDefaults();
  std::vector<double> setup_s, save_s, open_s;
  std::unique_ptr<incdb::server::Server> server;
  std::optional<Database> db;
  std::string dir;
  uint64_t store_bytes = 0;
  EngineMemory memory;
  memory.Start();
  // Replaces the served store with a freshly built, saved and reopened one;
  // returns its set-up time.
  int reps_done = 0;
  const auto set_up = [&] {
    const int rep = reps_done++;
    server.reset();
    db.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = options.work_dir + "/census-store-" + std::to_string(rep);
    fs::remove_all(dir);
    Table copy(data);
    const Clock::time_point t0 = Clock::now();
    std::optional<Database> built(Must(Database::FromTable(std::move(copy)), "FromTable"));
    for (IndexKind kind :
         {IndexKind::kBitmapEquality, IndexKind::kBitmapRange, IndexKind::kVaFile}) {
      Must(built->BuildIndex(kind), "BuildIndex");
    }
    const Clock::time_point a = Clock::now();
    Must(built->Save(dir), "Save");
    const Clock::time_point saved = Clock::now();
    if (rep == 0) {
      for (const auto& entry : *built->GetSnapshot().state().indexes) {
        out.Info(std::string("index_bytes_") + std::string(IndexKindToString(entry.kind)),
                 std::to_string(entry.index->SizeInBytes()));
      }
    }
    // The building process ends here; serving starts from the saved store
    // (incdb_serverd --open), so tearing down the built copy is not timed.
    built.reset();
    const Clock::time_point open_start = Clock::now();
    db.emplace(Must(Database::Open(dir), "Open"));
    const Clock::time_point opened = Clock::now();
    server = Must(incdb::server::Server::Start(&*db, {}), "Server::Start");
    save_s.push_back(SecondsBetween(a, saved));
    open_s.push_back(SecondsBetween(open_start, opened));
    store_bytes = DirBytes(dir);
    return SecondsBetween(t0, saved) + SecondsBetween(open_start, Clock::now());
  };
  const int reps_each = options.trace ? 1 : kCensusSetupReps / 2;
  for (int rep = 0; rep < reps_each; ++rep) setup_s.push_back(set_up());
  const double cells = static_cast<double>(kRows * data.num_attributes());
  s.ladder.db = &*db;
  s.port = server->port();
  LadderIndexes ladder_indexes;
  if (options.trace) ladder_indexes = BuildLadderIndexes(db->table(), &s, &extra);
  ProvenanceCounts(data, s, &out);

  const Measured m = Measure(s, options, server.get(), [] {}, &out);
  const double engine_peak_mb = memory.PeakMb();
  const double index_bytes = static_cast<double>(db->IndexSizeInBytes());
  server->Shutdown();
  if (!options.trace) {
    for (int rep = 0; rep < reps_each; ++rep) setup_s.push_back(set_up());
  }
  server.reset();
  db.reset();
  fs::remove_all(dir);
  SetLayer(&extra, "storage.save_s", Median(save_s));
  SetLayer(&extra, "storage.open_s", Median(open_s));
  SetLayer(&extra, "storage.store_bytes_per_cell", static_cast<double>(store_bytes) / cells);
  Report(options, m,
         [&](const Observation& o) { return o.count == expected[o.request]; }, extra,
         &out);
  if (!options.trace) AddStoreMetrics(setup_s, index_bytes, cells, engine_peak_mb, &out);
  return out;
}

// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kSeedRows = 512 * 1024;
constexpr uint64_t kRowsPerDay = 65536;
constexpr uint32_t kDays = 64;
/// Writer schedule: one operation every 100 us, the cadence of
/// bench_serving_qps's writer, and every fourth a delete, the 25% share of
/// bench_ingest_compaction's spread deletes.
constexpr double kWriterOpsPerSecond = 10000.0;
constexpr uint64_t kDeleteEvery = 4;
/// Deletes pick a live row among the oldest kDeleteWindow rows (one
/// default segment's worth).
constexpr size_t kDeleteWindow = 65536;
/// A checkpoint every half default segment of inserts, so checkpoints
/// alternate between saving only the tail and saving a new segment too.
constexpr uint64_t kCheckpointInserts = 32768;
constexpr uint64_t kRowLimit = 100;
constexpr size_t kIngestRequests = 128;

/// One acknowledged write; its effect became visible at an epoch in
/// (epoch_before, epoch_after].
struct WriteOp {
  uint32_t logical = 0;  ///< arrival number of the inserted / deleted row
  bool insert = true;
  uint64_t epoch_before = 0;
  uint64_t epoch_after = 0;
};

/// The open-loop writer. It follows every row by its arrival number
/// ("logical id"): `order_` lists the logical ids of the store's physical
/// rows, so a delete can name its victim, and a compaction (seen as a new
/// base table) drops the ids deleted before it.
class Writer {
 public:
  Writer(Database* db, const Table* arrivals, uint64_t seed, std::string dir)
      : db_(db), arrivals_(arrivals), rng_(seed ^ 0x5DEECE66DULL), dir_(std::move(dir)) {
    order_.resize(kSeedRows);
    std::iota(order_.begin(), order_.end(), 0u);
  }

  void Run(Clock::time_point start, double seconds) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    gen_ = db_->GetSnapshot();
    last_epoch_ = gen_.epoch();
    const auto interval = std::chrono::duration<double>(1.0 / kWriterOpsPerSecond);
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    for (uint64_t k = 0;; ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(k));
      if (due >= end) break;
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      const Clock::time_point begin = Clock::now();
      lag_ms.push_back(MillisBetween(due, begin));
      if (k % kDeleteEvery == kDeleteEvery - 1) {
        Delete();
      } else {
        Insert(due, begin);
      }
      if (inserts_since_checkpoint_ >= kCheckpointInserts) Checkpoint();
    }
    Checkpoint();
    durable_ops = ops.size();
    timespec cpu {};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
    cpu_s = static_cast<double>(cpu.tv_sec) + static_cast<double>(cpu.tv_nsec) / 1e9;
  }

  std::vector<WriteOp> ops;
  std::vector<double> insert_ms, lag_ms, checkpoint_ms, seal_ms, checkpoint_bytes_per_row;
  uint64_t attempted = 0, failed = 0, skipped = 0;
  /// The writer thread's own CPU time over the run.
  double cpu_s = 0.0;
  /// Ops acknowledged before the final checkpoint's Save.
  size_t durable_ops = 0;
  std::vector<std::string> errors;

 private:
  void Error(const std::string& what, const incdb::Status& status) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what + ": " + status.ToString());
  }

  /// Adopts `s` as the known generation; a new base table means a
  /// compaction ran since the last look and dropped every pending delete.
  void Adopt(Snapshot s) {
    if (&s.table() != &gen_.table()) ForgetCompacted();
    gen_ = std::move(s);
    last_epoch_ = gen_.epoch();
  }
  void ForgetCompacted() {
    if (pending_.empty()) return;
    std::erase_if(order_, [&](uint32_t id) { return pending_.count(id) != 0; });
    pending_.clear();
  }

  void Insert(Clock::time_point due, Clock::time_point begin) {
    if (next_arrival_ >= arrivals_->num_rows()) {
      ++skipped;
      return;
    }
    std::vector<incdb::Value> row(arrivals_->num_attributes());
    for (size_t a = 0; a < row.size(); ++a) row[a] = arrivals_->Get(next_arrival_, a);
    const size_t segments_before = gen_.num_segments();
    ++attempted;
    const incdb::Status status = db_->Insert(row);
    const Clock::time_point done = Clock::now();
    Snapshot after = db_->GetSnapshot();
    if (!status.ok()) {
      Error("Insert", status);
      Adopt(std::move(after));
      return;
    }
    insert_ms.push_back(MillisBetween(due, done));
    if (&after.table() == &gen_.table() && after.num_segments() > segments_before) {
      seal_ms.push_back(MillisBetween(begin, done));
    }
    const uint64_t before = last_epoch_;
    Adopt(std::move(after));
    order_.push_back(static_cast<uint32_t>(next_arrival_));
    ops.push_back({static_cast<uint32_t>(next_arrival_), true, before, last_epoch_});
    ++next_arrival_;
    ++inserts_since_checkpoint_;
  }

  void Delete() {
    Adopt(db_->GetSnapshot());
    const size_t window = std::min(kDeleteWindow, order_.size());
    size_t pos = window;
    for (int attempt = 0; attempt < 8 && pos == window; ++attempt) {
      const size_t p = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(window) - 1));
      if (pending_.count(order_[p]) == 0) pos = p;
    }
    if (pos == window) {
      ++skipped;
      return;
    }
    const uint64_t before = last_epoch_;
    ++attempted;
    const incdb::Status status = db_->Delete(static_cast<uint32_t>(pos));
    Snapshot after = db_->GetSnapshot();
    if (!status.ok()) {
      Error("Delete", status);
      Adopt(std::move(after));
      return;
    }
    uint32_t victim = 0;
    if (&after.table() == &gen_.table()) {
      victim = order_[pos];  // no compaction in between
      pending_.insert(victim);
    } else if (after.num_deleted_rows() == 0) {
      victim = order_[pos];  // deleted, then compacted away with the rest
      pending_.insert(victim);
      ForgetCompacted();
    } else {
      ForgetCompacted();  // compacted first: the delete hit the new table
      victim = order_[pos];
      pending_.insert(victim);
    }
    gen_ = std::move(after);
    last_epoch_ = gen_.epoch();
    ops.push_back({victim, false, before, last_epoch_});
  }

  void Checkpoint() {
    std::map<std::string, std::pair<uint64_t, fs::file_time_type>> before;
    if (fs::exists(dir_)) {
      for (const auto& e : fs::recursive_directory_iterator(dir_)) {
        if (e.is_regular_file()) before[e.path().string()] = {e.file_size(), e.last_write_time()};
      }
    }
    ++attempted;
    const Clock::time_point t0 = Clock::now();
    const incdb::Status status = db_->Save(dir_);
    checkpoint_ms.push_back(MillisBetween(t0, Clock::now()));
    if (!status.ok()) {
      Error("Save", status);
      return;
    }
    uint64_t written = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir_)) {
      if (!e.is_regular_file()) continue;
      const auto it = before.find(e.path().string());
      if (it == before.end() || it->second.first != e.file_size() ||
          it->second.second != e.last_write_time()) {
        written += e.file_size();
      }
    }
    if (inserts_since_checkpoint_ > 0) {
      checkpoint_bytes_per_row.push_back(static_cast<double>(written) /
                                         static_cast<double>(inserts_since_checkpoint_));
    }
    inserts_since_checkpoint_ = 0;
  }

  Database* db_;
  const Table* arrivals_;
  incdb::Rng rng_;
  std::string dir_;
  Snapshot gen_;
  uint64_t last_epoch_ = 0;
  std::vector<uint32_t> order_;
  std::unordered_set<uint32_t> pending_;
  uint64_t next_arrival_ = kSeedRows;
  uint64_t inserts_since_checkpoint_ = 0;
};

/// Expected counts under writes: for each request, its count after every
/// prefix of the writer's acknowledged ops, from SequentialScan matches
/// over every row that ever arrived.
class WriteOracle {
 public:
  WriteOracle(const Table& arrivals, const std::vector<Request>& requests,
              const std::vector<WriteOp>& ops)
      : ops_(ops), matches_(requests.size()), every_(requests.size()) {
    const incdb::SequentialScan scan(arrivals);
    ParallelFor(requests.size(), [&](size_t i) {
      matches_[i] = Must(scan.ExecuteToBitVector(requests[i].query), "SequentialScan");
      int64_t count = 0;
      for (uint64_t row = 0; row < kSeedRows; ++row) count += matches_[i].Get(row) ? 1 : 0;
      for (size_t k = 0; k <= ops.size(); ++k) {
        if (k % kStride == 0) every_[i].push_back(count);
        if (k < ops.size()) count += Delta(i, k);
      }
    });
  }

  /// Count after the first `k` ops.
  uint64_t CountAfter(size_t request, size_t k) const {
    int64_t count = every_[request][k / kStride];
    for (size_t j = k - k % kStride; j < k; ++j) count += Delta(request, j);
    return static_cast<uint64_t>(count);
  }

  /// True when `count` is the answer at `epoch`: the ops visible then form
  /// a prefix, at least those acknowledged by it and at most those begun
  /// before it.
  bool Check(const Observation& o) const {
    const auto lo = std::partition_point(ops_.begin(), ops_.end(), [&](const WriteOp& op) {
      return op.epoch_after <= o.epoch;
    });
    const auto hi = std::partition_point(ops_.begin(), ops_.end(), [&](const WriteOp& op) {
      return op.epoch_before < o.epoch;
    });
    for (size_t k = static_cast<size_t>(lo - ops_.begin());
         k <= static_cast<size_t>(std::max(lo, hi) - ops_.begin()); ++k) {
      if (CountAfter(o.request, k) == o.count) return true;
    }
    return false;
  }

 private:
  /// Prefix counts are kept every kStride ops and walked in between.
  static constexpr size_t kStride = 1024;

  int64_t Delta(size_t request, size_t k) const {
    if (!matches_[request].Get(ops_[k].logical)) return 0;
    return ops_[k].insert ? 1 : -1;
  }

  const std::vector<WriteOp>& ops_;
  /// Per request: which arrivals match it (SequentialScan).
  std::vector<incdb::BitVector> matches_;
  std::vector<std::vector<int64_t>> every_;
};

}  // namespace

RunOutput RunIngestRecent(const Options& options) {
  RunOutput out;
  // Every row that can arrive: the seed rows, then what the writer can
  // insert in the run. `day` advances every kRowsPerDay arrivals.
  const uint64_t max_inserts = static_cast<uint64_t>(
      options.seconds * kWriterOpsPerSecond * (kDeleteEvery - 1) / kDeleteEvery) + 16;
  const uint64_t total_rows = kSeedRows + max_inserts;
  if (total_rows / kRowsPerDay >= kDays) Fatal("--seconds too long for the day domain");
  const incdb::Schema schema({{"day", kDays}, {"a1", 8}, {"a2", 12}, {"a3", 16}});
  const double missing[] = {0.0, 0.1, 0.2, 0.3};
  Table arrivals = Must(Table::Create(schema), "Table::Create");
  Table seed_rows = Must(Table::Create(schema), "Table::Create");
  {
    incdb::Rng rng(options.seed * 6364136223846793005ULL + 1442695040888963407ULL);
    std::vector<incdb::Value> row(4);
    for (uint64_t r = 0; r < total_rows; ++r) {
      row[0] = static_cast<incdb::Value>(1 + r / kRowsPerDay);
      for (size_t a = 1; a < 4; ++a) {
        row[a] = rng.Bernoulli(missing[a])
                     ? incdb::kMissingValue
                     : static_cast<incdb::Value>(
                           rng.UniformInt(1, schema.attribute(a).cardinality));
      }
      arrivals.AppendRowUnchecked(row);
      if (r < kSeedRows) seed_rows.AppendRowUnchecked(row);
    }
  }

  // Text predicates: six day windows in eight on the days the run writes,
  // the rest on older days; each adds one or two attribute ranges. Windows
  // and attributes follow the request index, so seeds vary only the
  // attribute ranges and the pool costs about the same for every seed.
  Served s;
  const incdb::Value first_new_day = static_cast<incdb::Value>(1 + kSeedRows / kRowsPerDay);
  const incdb::Value last_day = static_cast<incdb::Value>(1 + (total_rows - 1) / kRowsPerDay);
  const std::pair<incdb::Value, incdb::Value> windows[8] = {
      {last_day, last_day},     {last_day - 1, last_day}, {first_new_day, last_day},
      {last_day - 1, last_day - 1}, {first_new_day - 1, first_new_day},
      {last_day - 2, last_day}, {1, 2},                   {4, 6}};
  incdb::Rng qrng(options.seed * 2862933555777941757ULL + 3037000493ULL);
  for (size_t i = 0; i < kIngestRequests; ++i) {
    RangeQuery q;
    q.semantics = i % 2 == 0 ? MissingSemantics::kMatch : MissingSemantics::kNoMatch;
    const auto [lo, hi] = windows[(i / 4) % 8];
    q.terms.push_back({0, {lo, hi}});
    const size_t extra_terms = 1 + (i / 32) % 2;
    for (size_t t = 0; t < extra_terms; ++t) {
      const size_t attr = 1 + (i / 4 + i / 32 + t) % 3;
      const int64_t card = schema.attribute(attr).cardinality;
      const int64_t width = card / 2;
      const int64_t a = qrng.UniformInt(1, card - width + 1);
      q.terms.push_back({attr, {static_cast<incdb::Value>(a),
                                static_cast<incdb::Value>(a + width - 1)}});
    }
    std::sort(q.terms.begin(), q.terms.end(),
              [](const auto& x, const auto& y) { return x.attribute < y.attribute; });
    std::string text;
    for (const incdb::QueryTerm& t : q.terms) {
      text += (text.empty() ? "" : " AND ") + schema.attribute(t.attribute).name + " IN [" +
              std::to_string(t.interval.lo) + "," + std::to_string(t.interval.hi) + "]";
    }
    Request r{QueryRequest::Text(text, q.semantics), q};
    if ((i / 2) % 2 == 0) {
      r.request.CountOnly();
    } else {
      r.request.Limit(kRowLimit);
    }
    s.requests.push_back(std::move(r));
  }

  std::map<std::string, Metric> extra = LayerDefaults();
  std::vector<double> setup_s;
  std::unique_ptr<incdb::server::Server> server;
  std::optional<Database> db;
  EngineMemory memory;
  memory.Start();
  // Replaces the served store with a freshly set-up one; returns its set-up time.
  const auto set_up = [&] {
    server.reset();
    db.reset();
    Table copy(seed_rows);
    const Clock::time_point t0 = Clock::now();
    db.emplace(Must(Database::FromTable(std::move(copy)), "FromTable"));
    Must(db->EnableSegments(incdb::SegmentOptions{}), "EnableSegments");
    server = Must(incdb::server::Server::Start(&*db, {}), "Server::Start");
    return SecondsBetween(t0, Clock::now());
  };
  const int reps_each = options.trace ? 1 : kIngestSetupReps / 2;
  for (int rep = 0; rep < reps_each; ++rep) setup_s.push_back(set_up());
  s.ladder.db = &*db;
  s.port = server->port();
  uint64_t index_bytes = db->IndexSizeInBytes();
  {
    const Snapshot snapshot = db->GetSnapshot();
    for (const auto& segment : snapshot.state().segments->segments) {
      index_bytes += segment->index->SizeInBytes();
    }
  }
  // The run's checkpoints save incrementally on top of this one.
  const double cells = static_cast<double>(kSeedRows * schema.num_attributes());
  const std::string dir = options.work_dir + "/ingest-store";
  fs::remove_all(dir);
  const Clock::time_point save_start = Clock::now();
  Must(db->Save(dir), "initial Save");
  SetLayer(&extra, "storage.save_s", SecondsBetween(save_start, Clock::now()));
  SetLayer(&extra, "storage.store_bytes_per_cell", static_cast<double>(DirBytes(dir)) / cells);
  // The bottom rungs probe the served segments' own indexes. The
  // CreateIndex builds over the seed rows only time the build (a control
  // here: nothing this workload does should move them).
  s.ladder.segmented = true;
  LadderIndexes ladder_indexes;
  if (options.trace) ladder_indexes = BuildLadderIndexes(seed_rows, &s, &extra);
  ProvenanceCounts(seed_rows, s, &out);

  Writer writer(&*db, &arrivals, options.seed, dir);
  const incdb::CompactionStats compact_before = db->GetCompactionStats();
  std::unique_ptr<incdb::BackgroundCompactor> compactor;
  std::thread writer_thread;
  const double write_seconds = options.seconds;
  const Measured m = Measure(
      s, options, server.get(),
      [&] {
        // incdb_serverd --compact's settings: the compactor's defaults.
        compactor = std::make_unique<incdb::BackgroundCompactor>(
            &*db, incdb::BackgroundCompactor::Options{});
        const Clock::time_point start = Clock::now();
        writer_thread = std::thread([&writer, start, write_seconds] {
          writer.Run(start, write_seconds);
        });
      },
      &out);
  writer_thread.join();
  compactor->Stop();
  const incdb::CompactionStats compact_after = db->GetCompactionStats();
  const double engine_peak_mb = memory.PeakMb();

  // The engine is torn down first, freeing its memory for the oracle.
  server->Shutdown();
  server.reset();
  compactor.reset();
  db.reset();
  ladder_indexes = {};
  const WriteOracle oracle(arrivals, s.requests, writer.ops);
  out.attempted += writer.attempted;
  out.failed += writer.failed;
  for (const std::string& e : writer.errors) out.Fail(e);

  // Durability: the store reopened from the final checkpoint answers as the
  // oracle does over the ops acknowledged before that Save.
  {
    const Clock::time_point open_start = Clock::now();
    const Database reopened = Must(Database::Open(dir, /*verify_checksums=*/true), "reopen");
    SetLayer(&extra, "storage.open_s", SecondsBetween(open_start, Clock::now()));
    uint64_t live = kSeedRows;
    for (size_t k = 0; k < writer.durable_ops; ++k) live += writer.ops[k].insert ? 1 : -1;
    if (reopened.num_live_rows() != live) {
      out.Fail("reopened store holds " + std::to_string(reopened.num_live_rows()) +
               " live rows, oracle " + std::to_string(live));
    }
    for (size_t i = 0; i < s.requests.size(); ++i) {
      QueryRequest request = s.requests[i].request;
      request.limit = 0;
      request.CountOnly();
      const incdb::Result<QueryResult> result = reopened.Run(request);
      if (!result.ok() || result->count != oracle.CountAfter(i, writer.durable_ops)) {
        out.Fail("durability: request " + std::to_string(i) + " differs after reopen");
      }
    }
    out.Info("durability_checked_requests", std::to_string(s.requests.size()));
  }
  fs::remove_all(dir);

  const double rebuilt =
      static_cast<double>(compact_after.segments_rebuilt - compact_before.segments_rebuilt);
  const double reused =
      static_cast<double>(compact_after.segments_reused - compact_before.segments_reused);
  SetLayer(&extra, "core.compactions",
           static_cast<double>(compact_after.compactions - compact_before.compactions));
  SetLayer(&extra, "core.compact_rebuilt_frac", Ratio(rebuilt, rebuilt + reused));
  SetLayer(&extra, "storage.checkpoint_bytes_per_row", Median(writer.checkpoint_bytes_per_row));
  Report(options, m, [&](const Observation& o) { return oracle.Check(o); }, extra, &out);

  // The writer's figures exist on this workload only, so they are printed
  // in the report rather than as metrics of the result line.
  out.ungated.push_back({"insert_p50_ms", "ms", Quantile(writer.insert_ms, 0.50)});
  out.ungated.push_back({"insert_p99_ms", "ms", Quantile(writer.insert_ms, 0.99)});
  out.ungated.push_back({"checkpoint_ms", "ms", Median(writer.checkpoint_ms)});
  out.ungated.push_back({"seal_stall_ms", "ms", Median(writer.seal_ms)});
  out.ungated.push_back({"writer_lag_p50_ms", "ms", Quantile(writer.lag_ms, 0.50)});
  out.ungated.push_back({"writer_lag_p99_ms", "ms", Quantile(writer.lag_ms, 0.99)});
  out.ungated.push_back({"writer_lag_max_ms", "ms", Quantile(writer.lag_ms, 1.0)});
  out.Info("writer_ops", std::to_string(writer.ops.size()));
  out.Info("writer_inserts", std::to_string(writer.insert_ms.size()));
  out.Info("writer_checkpoints", std::to_string(writer.checkpoint_ms.size()));
  out.Info("writer_seals", std::to_string(writer.seal_ms.size()));
  out.Info("writer_skipped", std::to_string(writer.skipped));
  out.Info("writer_cpu_s", writer.cpu_s);
  if (!options.trace) {
    for (int rep = 0; rep < reps_each; ++rep) setup_s.push_back(set_up());
    server.reset();
    db.reset();
    AddStoreMetrics(setup_s, static_cast<double>(index_bytes), cells, engine_peak_mb, &out);
  }
  return out;
}

}  // namespace perfbench
