// Index lifecycle tour: build → persist to a store → reopen → append new
// records → run boolean (AND/OR/NOT) queries under both missing-data
// semantics via the Database facade — including the snapshot model that
// lets readers keep serving while a writer mutates.
//
//   ./build/examples/index_lifecycle

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/database.h"
#include "plan/planner.h"
#include "table/generator.h"

using namespace incdb;

int main() {
  // A product-defect log: component (1..12), severity (1..5, often not yet
  // triaged → missing), region (1..8).
  DatasetSpec spec;
  spec.num_rows = 30000;
  spec.seed = 9;
  spec.attributes = {{"component", 12, 0.0, 0.0},
                     {"severity", 5, 0.35, 0.0},
                     {"region", 8, 0.05, 0.0}};
  Table table = GenerateTable(spec).value();

  // --- persist an index with its table and reopen the store ---
  Database built = Database::FromTable(std::move(table)).value();
  if (!built.BuildIndex(IndexKind::kBitmapRange).ok()) return 1;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "incdb_defects.incdb")
          .string();
  if (!built.Save(dir).ok()) return 1;
  auto opened = Database::Open(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  Database db = std::move(opened).value();
  std::printf("saved + reopened %s: %llu index bytes on disk, %llu rows\n",
              std::string(IndexKindToString(db.Indexes().at(0))).c_str(),
              static_cast<unsigned long long>(db.IndexSizeInBytes()),
              static_cast<unsigned long long>(db.num_rows()));

  // --- appends: the delta scan covers new rows, a rebuild re-indexes ---
  for (int i = 0; i < 1000; ++i) {
    const std::vector<Value> row = {static_cast<Value>(1 + i % 12),
                                    i % 3 == 0 ? kMissingValue
                                               : static_cast<Value>(1 + i % 5),
                                    static_cast<Value>(1 + i % 8)};
    if (!db.Insert(row).ok()) return 1;
  }
  if (!db.BuildIndex(IndexKind::kBitmapRange).ok()) return 1;
  std::printf("appended 1000 records; index now covers %llu rows\n",
              static_cast<unsigned long long>(db.num_rows()));

  // --- counting without materializing (compressed COUNT path) ---
  const auto possible = db.Run(
      QueryRequest::Terms({{"severity", 4, 5}}, MissingSemantics::kMatch)
          .CountOnly());
  const auto confirmed = db.Run(
      QueryRequest::Terms({{"severity", 4, 5}}, MissingSemantics::kNoMatch)
          .CountOnly());
  if (!possible.ok() || !confirmed.ok()) return 1;
  std::printf("severe defects: %llu confirmed, %llu possible "
              "(untriaged could still be severe)\n",
              static_cast<unsigned long long>(confirmed->count),
              static_cast<unsigned long long>(possible->count));

  // --- boolean queries through the Database facade ---
  // "severe (4-5) in region 1-2, excluding component 7"
  const QueryExpr expr = QueryExpr::MakeAnd(
      {QueryExpr::MakeTerm(1, {4, 5}), QueryExpr::MakeTerm(2, {1, 2}),
       QueryExpr::MakeNot(QueryExpr::MakeTerm(0, {7, 7}))});
  const auto certain =
      db.Run(QueryRequest::Expression(expr, MissingSemantics::kNoMatch));
  const auto maybe =
      db.Run(QueryRequest::Expression(expr, MissingSemantics::kMatch));
  if (!certain.ok() || !maybe.ok()) return 1;
  std::printf("%s\n  served by %s: %llu certain answers, %llu possible\n",
              expr.ToString().c_str(), certain->chosen_index.c_str(),
              static_cast<unsigned long long>(certain->count),
              static_cast<unsigned long long>(maybe->count));

  // --- snapshot isolation: readers pin an epoch, writers publish new ones ---
  // A pinned snapshot is a consistent (watermark, index set, deletion mask)
  // triple: later Inserts/Deletes are invisible to it, and queries routed
  // through it keep using indexes even after they are dropped.
  const Snapshot pinned = db.GetSnapshot();
  if (!db.Insert({7, 5, 1}).ok() || !db.Delete(0).ok()) return 1;
  const QueryRequest severe_req =
      QueryRequest::Terms({{"severity", 4, 5}}, MissingSemantics::kNoMatch)
          .CountOnly();
  const auto then = RunOnSnapshot(pinned, severe_req);
  const auto now = db.Run(severe_req);
  if (!then.ok() || !now.ok()) return 1;
  std::printf(
      "snapshot isolation: epoch %llu saw %llu rows / %llu severe;\n"
      "  epoch %llu (after 1 insert + 1 delete) sees %llu rows / %llu\n",
      static_cast<unsigned long long>(then->epoch),
      static_cast<unsigned long long>(then->visible_rows),
      static_cast<unsigned long long>(then->count),
      static_cast<unsigned long long>(now->epoch),
      static_cast<unsigned long long>(now->visible_rows),
      static_cast<unsigned long long>(now->count));

  // --- batch serving: one snapshot, many requests, a thread pool ---
  std::vector<QueryRequest> batch_requests;
  for (Value region = 1; region <= 8; ++region) {
    batch_requests.push_back(QueryRequest::Terms(
        {{"severity", 4, 5}, {"region", region, region}}).CountOnly());
  }
  const BatchResult batch = db.RunBatch(batch_requests, 4);
  std::printf("batch of %zu regional counts on %zu threads in %.2f ms:",
              batch.results.size(), batch.num_threads, batch.wall_millis);
  for (const auto& result : batch.results) {
    if (!result.ok()) return 1;
    std::printf(" %llu", static_cast<unsigned long long>(result.value().count));
  }
  std::printf("\n");

  std::filesystem::remove_all(dir);
  return 0;
}
