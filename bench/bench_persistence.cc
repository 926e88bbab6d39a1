// Measures the persistence path: Save() throughput, Open() latency with
// and without checksum verification, and the first-query / steady-state
// cost of serving straight off the mmap-borrowed store.
//
// The acceptance property is that the unverified open is O(1) in the data:
// it parses the manifest and catalog and maps the segment, but never
// touches the WAH code words or packed VA arrays, so its latency must stay
// flat as rows (and therefore segment bytes) grow. The verified open and
// Save are the ones allowed to scale. First-query time on a cold open is
// reported separately because it is where the page-ins actually land.
//
// Two more tables price what a build -> Save -> verified Open pays besides
// the I/O: the BuildIndex time of every bitmap and VA-file kind at the
// largest size (single-threaded, each kind on its own database), and the
// throughput of the section checksum (storage::Crc32), which Save runs over
// every byte written and the verified Open over every byte read.
//
// Usage: bench_persistence [--json <path>]
// With --json, per-size timings are also written as the machine-readable
// BENCH_persistence.json trajectory file. No baseline of that file is
// committed, so the bench-regression gate reports it without gating it.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/database.h"
#include "core/index_factory.h"
#include "storage/checksum.h"
#include "table/generator.h"

namespace incdb {
namespace {

uint64_t g_sink = 0;

constexpr const char* kStoreDir = "bench_persistence_store.incdb";

Table MustMakeTable(uint64_t num_rows) {
  DatasetSpec spec;
  spec.seed = 20060329;  // EDBT'06
  spec.num_rows = num_rows;
  spec.attributes.push_back({"a0", 25, 0.10, 0.0});
  spec.attributes.push_back({"a1", 50, 0.10, 0.8});
  spec.attributes.push_back({"a2", 100, 0.10, 0.0});
  spec.attributes.push_back({"a3", 12, 0.10, 0.0});
  auto table = GenerateTable(spec);
  if (!table.ok()) {
    std::fprintf(stderr, "generate: %s\n", table.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(table).value();
}

Database MustFromTable(Table table) {
  auto db = Database::FromTable(std::move(table));
  if (!db.ok()) {
    std::fprintf(stderr, "database: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(db).value();
}

void MustBuildIndex(Database* db, IndexKind kind) {
  const Status status = db->BuildIndex(kind);
  if (!status.ok()) {
    std::fprintf(stderr, "index: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

Database MustMakeDatabase(uint64_t num_rows) {
  Database db = MustFromTable(MustMakeTable(num_rows));
  MustBuildIndex(&db, IndexKind::kBitmapEquality);
  MustBuildIndex(&db, IndexKind::kVaFile);
  return db;
}

/// BuildIndex time of each bitmap / VA-file kind over `num_rows` rows.
void BenchBuildIndex(uint64_t num_rows) {
  const Table table = MustMakeTable(num_rows);
  const std::string config = "rows=" + std::to_string(num_rows);
  bench::PrintHeader({"kind", "rows", "build_ms", "index_MB"});
  for (IndexKind kind :
       {IndexKind::kBitmapEquality, IndexKind::kBitmapRange,
        IndexKind::kBitmapInterval, IndexKind::kBitmapBitSliced,
        IndexKind::kBitmapMultiComponent, IndexKind::kBitmapHierarchical,
        IndexKind::kVaFile}) {
    Database db = MustFromTable(table);
    Timer timer;
    MustBuildIndex(&db, kind);
    const double build_ms = timer.ElapsedMillis();
    const uint64_t index_bytes = db.IndexSizeInBytes();
    const std::string name(IndexKindToString(kind));
    bench::RecordResult("build_" + name, config, build_ms, index_bytes);
    bench::PrintRow({name, std::to_string(num_rows),
                     bench::FormatDouble(build_ms),
                     bench::FormatBytesAsMB(index_bytes)});
  }
}

/// storage::Crc32 throughput over a 64 MB buffer, best of three passes.
void BenchCrc32() {
  constexpr uint64_t kBytes = uint64_t{64} << 20;
  std::vector<unsigned char> buffer(kBytes);
  for (uint64_t i = 0; i < kBytes; ++i) {
    buffer[i] = static_cast<unsigned char>(i * 2654435761u >> 13);
  }
  double best_ms = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    Timer timer;
    g_sink += storage::Crc32(buffer.data(), buffer.size());
    const double ms = timer.ElapsedMillis();
    if (pass == 0 || ms < best_ms) best_ms = ms;
  }
  const double mb_per_s =
      static_cast<double>(kBytes) / (1 << 20) / (best_ms / 1000.0);
  bench::RecordResult("crc32", "bytes=" + std::to_string(kBytes), best_ms,
                      kBytes);
  std::printf("# crc32: %s MB/s (%s ms per 64 MB)\n",
              bench::FormatDouble(mb_per_s, 0).c_str(),
              bench::FormatDouble(best_ms).c_str());
}

uint64_t FileBytes(const std::string& path) {
  struct stat info;
  return stat(path.c_str(), &info) == 0
             ? static_cast<uint64_t>(info.st_size)
             : 0;
}

/// File names (manifest + whatever generation is present) in the store.
std::vector<std::string> StoreFiles() {
  std::vector<std::string> names;
  DIR* dir = ::opendir(kStoreDir);
  if (dir == nullptr) return names;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(dir);
  return names;
}

uint64_t StoreBytes() {
  uint64_t total = 0;
  for (const std::string& file : StoreFiles()) {
    total += FileBytes(std::string(kStoreDir) + "/" + file);
  }
  return total;
}

void RemoveStore() {
  for (const std::string& file : StoreFiles()) {
    std::remove((std::string(kStoreDir) + "/" + file).c_str());
  }
  rmdir(kStoreDir);
}

Database MustOpen(bool verify) {
  auto db = Database::Open(kStoreDir, verify);
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(db).value();
}

double MustQueryMillis(const Database& db) {
  Timer timer;
  const auto result = db.Run(QueryRequest::Text(
      "a0 IN [5,9] AND a2 IN [20,60]", MissingSemantics::kNoMatch));
  const double millis = timer.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  g_sink += result->count;
  return millis;
}

}  // namespace

int BenchMain(int argc, char** argv) {
  bench::Init(argc, argv);
  const uint64_t base_rows = bench::BenchRows(400000);
  const std::vector<uint64_t> sizes = {base_rows / 16, base_rows / 4,
                                       base_rows};

  bench::PrintHeader({"rows", "store_MB", "save_ms", "open_verified_ms",
                      "open_mmap_ms", "first_query_ms", "steady_query_ms"});

  for (const uint64_t rows : sizes) {
    Database db = MustMakeDatabase(rows);
    RemoveStore();

    Timer save_timer;
    const Status saved = db.Save(kStoreDir);
    const double save_ms = save_timer.ElapsedMillis();
    if (!saved.ok()) {
      std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
      return 1;
    }
    const uint64_t store_bytes = StoreBytes();

    Timer verified_timer;
    { Database opened = MustOpen(/*verify=*/true); }
    const double open_verified_ms = verified_timer.ElapsedMillis();

    // The headline number: pure mmap open, no byte of WAH or VA data read.
    Timer mmap_timer;
    Database served = MustOpen(/*verify=*/false);
    const double open_mmap_ms = mmap_timer.ElapsedMillis();

    const double first_query_ms = MustQueryMillis(served);
    double steady_ms = 0.0;
    constexpr int kSteadyRuns = 16;
    for (int i = 0; i < kSteadyRuns; ++i) steady_ms += MustQueryMillis(served);
    steady_ms /= kSteadyRuns;

    const std::string config = "rows=" + std::to_string(rows);
    bench::RecordResult("save", config, save_ms, store_bytes);
    bench::RecordResult("open_verified", config, open_verified_ms,
                        store_bytes);
    bench::RecordResult("open_mmap", config, open_mmap_ms, store_bytes);
    bench::RecordResult("first_query", config, first_query_ms, store_bytes);
    bench::RecordResult("steady_query", config, steady_ms, store_bytes);

    bench::PrintRow({std::to_string(rows), bench::FormatBytesAsMB(store_bytes),
                     bench::FormatDouble(save_ms),
                     bench::FormatDouble(open_verified_ms),
                     bench::FormatDouble(open_mmap_ms),
                     bench::FormatDouble(first_query_ms),
                     bench::FormatDouble(steady_ms)});
    RemoveStore();
  }

  BenchBuildIndex(base_rows);
  BenchCrc32();

  if (g_sink == 0) std::fprintf(stderr, "# sink empty (unexpected)\n");
  bench::WriteJson();
  return 0;
}

}  // namespace incdb

int main(int argc, char** argv) { return incdb::BenchMain(argc, argv); }
