#ifndef INCDB_CORE_DATABASE_H_
#define INCDB_CORE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "core/incomplete_index.h"
#include "core/index_factory.h"
#include "core/query_api.h"
#include "core/segments.h"
#include "core/snapshot.h"
#include "query/expr.h"
#include "table/table.h"

namespace incdb {

namespace storage {
struct SegmentPersistCache;
}  // namespace storage

/// Cumulative compaction accounting for one Database (monotone counters;
/// surfaced through the server's kServerStats endpoint).
struct CompactionStats {
  /// CompactNow calls that actually rewrote the store (no-ops excluded).
  uint64_t compactions = 0;
  /// Deleted rows physically dropped.
  uint64_t reclaimed_rows = 0;
  /// Data bytes those rows occupied (row width x rows; excludes index
  /// payload shrinkage, which is reported by IndexSizeInBytes deltas).
  uint64_t reclaimed_bytes = 0;
  /// Segments whose index was rebuilt / carried over unchanged.
  uint64_t segments_rebuilt = 0;
  uint64_t segments_reused = 0;
};

/// The serving facade: an incomplete table, its indexes, and a unified
/// query API — safe for any number of concurrent readers plus one mutating
/// writer at a time.
///
/// Concurrency model (epoch-versioned snapshots):
///
///  * Every read path (Run, RunBatch, GetSnapshot) pins an immutable
///    Snapshot — a row-count watermark, an
///    index-registry version and a deletion-mask version — through one
///    shared_ptr copy. The pinned view stays consistent for the whole
///    query no matter what writers do meanwhile.
///  * Mutators (Insert / Delete / BuildIndex / DropIndex) serialize on a
///    writer mutex, never touch published state in place, and publish a
///    fresh epoch: the table is append-only and watermarked, the index
///    registry and the deletion mask are copy-on-write.
///  * Indexes are immutable once published; they cover exactly the rows
///    that existed when BuildIndex ran. Rows appended later are answered
///    by the executor's delta scan (a column-at-a-time scan of the tail)
///    until a rebuild re-covers them — so Insert stays O(1) per index and
///    readers never observe a half-updated structure.
///
/// Mutating concurrently from two threads is NOT safe-by-design (the
/// writer mutex serializes them, but the caller loses ordering guarantees);
/// one logical writer is the intended regime.
class Database {
 public:
  /// An empty database with the given schema.
  static Result<Database> Create(Schema schema);
  /// Takes ownership of an existing table.
  static Result<Database> FromTable(Table table);
  /// Loads a table written by WriteCsv ("?" = missing).
  static Result<Database> FromCsv(const std::string& path);

  /// Persists the current epoch — table rows, deletion mask, statistics,
  /// and every registered index — into the store directory `dir` (format
  /// in docs/STORAGE.md). Runs against a pinned snapshot, so concurrent
  /// readers and later writes are unaffected. Crash-safe and atomic: a
  /// fresh payload generation is written and fsync'd before the manifest
  /// is renamed into place, so an interrupted Save leaves the previous
  /// store intact — and saving back into the directory this database was
  /// opened from is safe (the mmap'd old generation is never touched).
  Status Save(const std::string& dir) const;

  /// Opens a store directory written by Save and publishes it as epoch 0.
  /// The table and the bitmap / VA-file payloads are zero-copy views into
  /// an mmap'd segment (pages fault in lazily on first access), so opening
  /// is fast regardless of data size. Subsequent Insert /
  /// Delete / BuildIndex work exactly as on an in-memory database. With
  /// `verify_checksums` (the default) every section's CRC-32 is checked up
  /// front — one pass over the data — and all corruption surfaces as a
  /// Status error, never a crash. `false` skips that pass, making open
  /// time independent of the store size, but narrows the no-crash
  /// guarantee to metadata: corrupt bulk payload bytes go undetected and
  /// can misbehave at query time (see storage::OpenOptions).
  static Result<Database> Open(const std::string& dir,
                               bool verify_checksums = true);

  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// The current base table. The reference is stable for the Database's
  /// lifetime UNLESS CompactNow runs (compaction swaps in a rewritten
  /// table); callers that mix table() with compaction must re-fetch after
  /// each compaction and must not hold the reference across one.
  const Table& table() const { return *GetSnapshot().state().table; }
  uint64_t num_rows() const { return GetSnapshot().num_rows(); }

  /// Pins the current epoch. The returned Snapshot is immutable, cheap to
  /// copy, and valid for as long as the Database (and therefore the shared
  /// table) is alive.
  Snapshot GetSnapshot() const INCDB_EXCLUDES(shared_->head_mu);

  /// Executes one request against a freshly pinned snapshot: resolves the
  /// predicate, routes by predicted cost, executes (index + delta scan),
  /// strips deleted rows, and returns the answer with the routing decision
  /// and per-query cost counters. Safe to call from any thread.
  Result<QueryResult> Run(const QueryRequest& request) const;

  /// Fans a batch of requests across `num_threads` workers (0 = hardware
  /// concurrency), all pinned to ONE common snapshot so the batch sees a
  /// single consistent epoch. Per-request results come back in request
  /// order; per-thread QueryStats are accumulated into BatchResult::stats.
  BatchResult RunBatch(const std::vector<QueryRequest>& requests,
                       size_t num_threads = 0) const;

  /// Appends a row and publishes a new epoch. Existing indexes are NOT
  /// extended (they are immutable); queries cover the new row via the
  /// delta scan.
  Status Insert(const std::vector<Value>& row)
      INCDB_EXCLUDES(shared_->writer_mu);

  /// Logically deletes a row: copy-on-write on the deletion mask, then
  /// publishes a new epoch. Already-pinned snapshots still see the row.
  /// Deleting a row twice is an error.
  Status Delete(uint32_t row) INCDB_EXCLUDES(shared_->writer_mu);

  /// True if `row` is logically deleted in the current epoch.
  bool IsDeleted(uint32_t row) const;

  /// Rows inserted minus rows deleted, in the current epoch.
  uint64_t num_live_rows() const;
  uint64_t num_deleted_rows() const;

  /// Builds an index over all rows visible now and publishes a new epoch
  /// (rebuilding if already present — a rebuild is also how appended rows
  /// get re-covered).
  Status BuildIndex(IndexKind kind) INCDB_EXCLUDES(shared_->writer_mu);
  /// Unregisters an index and publishes a new epoch; queries fall back to
  /// other indexes or a scan. In-flight readers that pinned the old epoch
  /// keep the index alive until they finish.
  Status DropIndex(IndexKind kind) INCDB_EXCLUDES(shared_->writer_mu);
  bool HasIndex(IndexKind kind) const;
  /// Registered index kinds, ascending.
  std::vector<IndexKind> Indexes() const;

  /// Switches on the sharded segment layer (docs/SEGMENTS.md): existing
  /// full segments are sealed in parallel and every future Insert seals a
  /// segment each time `options.segment_rows` rows accumulate past the
  /// sealed watermark. Range/expression queries are then served per
  /// segment with zone-map pruning; the unsealed tail keeps using the
  /// delta scan. One-shot: enabling twice is an error. Publishes a new
  /// epoch.
  Status EnableSegments(const SegmentOptions& options)
      INCDB_EXCLUDES(shared_->writer_mu);
  bool segments_enabled() const;
  /// Sealed segment count / sealed row watermark in the current epoch.
  size_t num_segments() const { return GetSnapshot().num_segments(); }
  uint64_t sealed_rows() const { return GetSnapshot().sealed_rows(); }

  /// Physically reclaims deleted rows (the deletion mask otherwise only
  /// grows): rewrites the base table without them, resets the mask,
  /// rebuilds registry indexes over the surviving rows, and — with
  /// segments enabled — re-segments only the segments that contained
  /// deletes or are undersized merge candidates, carrying every untouched
  /// segment (and its index) over by reference. Publishes via the usual
  /// epoch swap, so concurrent readers never block and pinned snapshots
  /// keep the pre-compaction table alive until they finish. A call with
  /// nothing to reclaim is a cheap no-op. Serialized with all other
  /// mutators on writer_mu.
  Status CompactNow() INCDB_EXCLUDES(shared_->writer_mu);
  /// Cumulative compaction counters (thread-safe, monotone).
  CompactionStats GetCompactionStats() const;

  /// Resolves a named term to an attribute index + validated interval.
  Result<QueryTerm> ResolveTerm(const NamedTerm& term) const;

  /// Total bytes across registered indexes in the current epoch.
  uint64_t IndexSizeInBytes() const;

 private:
  explicit Database(Table table);

  /// Open() plumbing: adopts an already-loaded shared table without the
  /// per-column missing-count scan (the counts come from the catalog) and
  /// without publishing — the caller installs the loaded state first.
  struct OpenTag {};
  Database(std::shared_ptr<Table> table, OpenTag);

  /// Builds a SnapshotState from the writer-side fields and swaps the head
  /// pointer. The writer_mu requirement is compiler-enforced on clang.
  void Publish() INCDB_REQUIRES(shared_->writer_mu)
      INCDB_EXCLUDES(shared_->head_mu);

  /// Mutexes and the head pointer live behind a unique_ptr so the Database
  /// itself stays movable.
  struct Shared {
    /// Serializes all mutators; every writer-side field below is
    /// INCDB_GUARDED_BY it.
    Mutex writer_mu;
    /// Guards `head` (pointer swap/copy only — never held during work).
    Mutex head_mu;
    std::shared_ptr<const internal::SnapshotState> head
        INCDB_GUARDED_BY(head_mu);
    /// Compaction accounting; atomics so GetCompactionStats never takes a
    /// lock (a stats read is advisory, not a synchronization point).
    std::atomic<uint64_t> compactions{0};
    std::atomic<uint64_t> reclaimed_rows{0};
    std::atomic<uint64_t> reclaimed_bytes{0};
    std::atomic<uint64_t> segments_rebuilt{0};
    std::atomic<uint64_t> segments_reused{0};
  };

  // Heap-allocated so snapshot/index back-references to the table stay
  // stable on move; shared with the storage reader's loaded indexes on the
  // Open path.
  std::shared_ptr<Table> table_;
  std::unique_ptr<Shared> shared_;
  /// Keeps the mmap'd store segment alive while any borrowed view (table
  /// columns, index payloads) can still reach it. Type-erased so this
  /// header does not depend on the storage layer.
  std::shared_ptr<void> mapping_pin_;

  // Writer-side state, guarded by shared_->writer_mu. Published versions
  // are immutable; these are the working copies the next epoch is built
  // from. The GUARDED_BY annotations make an unlocked access a compile
  // error on the clang cells.
  uint64_t epoch_ INCDB_GUARDED_BY(shared_->writer_mu) = 0;
  std::shared_ptr<const std::vector<internal::SnapshotIndexEntry>> registry_
      INCDB_GUARDED_BY(shared_->writer_mu);
  std::shared_ptr<const BitVector> deleted_
      INCDB_GUARDED_BY(shared_->writer_mu);
  uint64_t num_deleted_ INCDB_GUARDED_BY(shared_->writer_mu) = 0;
  /// Per-attribute missing-cell counts, maintained incrementally on Insert
  /// (feeds the router's selectivity model without O(n) rescans).
  std::vector<uint64_t> missing_counts_ INCDB_GUARDED_BY(shared_->writer_mu);

  /// Segment layer working state. segment_list_ is the copy-on-write
  /// published value: rebuilt only when the segment set changes (seal /
  /// compaction), shared by pointer into every published epoch in between.
  std::shared_ptr<const internal::SegmentList> segment_list_
      INCDB_GUARDED_BY(shared_->writer_mu);
  /// Next segment content id; never reused within this database lineage
  /// (content ids name per-segment store files, see docs/SEGMENTS.md).
  uint64_t next_content_id_ INCDB_GUARDED_BY(shared_->writer_mu) = 1;
  /// Remembers which sealed segments are already durable in which form so
  /// Save can skip rewriting them (the dirty-segment save contract).
  /// Created by every constructor (Open seeds it from the store's segment
  /// files); internally locked, so the const Save path can use it.
  std::shared_ptr<storage::SegmentPersistCache> persist_cache_;

  /// Seals every full pending segment in [sealed_rows, limit); updates
  /// segment_list_. Caller publishes.
  Status SealPending(uint64_t limit) INCDB_REQUIRES(shared_->writer_mu);
};

/// Runs Database::CompactNow on a trigger-and-throttle loop from a
/// dedicated thread: every `interval_millis` it checks whether at least
/// `min_deleted_rows` rows are logically deleted and compacts if so.
/// RAII — the destructor stops and joins the thread. The Database must
/// outlive this object and must not be moved while it is alive (the
/// thread holds a raw pointer). Readers never block: compaction publishes
/// through the usual epoch swap.
class BackgroundCompactor {
 public:
  struct Options {
    uint64_t interval_millis = 250;
    /// Compact once this many rows are logically deleted.
    uint64_t min_deleted_rows = 1;
  };

  BackgroundCompactor(Database* db, Options options);
  ~BackgroundCompactor();

  BackgroundCompactor(const BackgroundCompactor&) = delete;
  BackgroundCompactor& operator=(const BackgroundCompactor&) = delete;

  /// Stops the loop and joins the thread; idempotent.
  void Stop();

  /// Completed compaction sweeps (trigger fired and CompactNow returned).
  uint64_t runs() const { return runs_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  Database* db_;
  Options options_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> runs_{0};
  std::thread thread_;
};

}  // namespace incdb

#endif  // INCDB_CORE_DATABASE_H_
