// Incremental AppendRow for the VA-file. Persistence goes through the
// store (tests/storage/).

#include <gtest/gtest.h>

#include "core/executor.h"
#include "query/workload.h"
#include "table/generator.h"
#include "vafile/va_file.h"

namespace incdb {
namespace {

TEST(VaAppendTest, IncrementalEqualsBatchForUniformBins) {
  const Table table = GenerateTable(UniformSpec(600, 15, 0.3, 3, 307)).value();
  auto half = Table::Create(table.schema()).value();
  std::vector<Value> row(3);
  for (uint64_t r = 0; r < 300; ++r) {
    for (size_t a = 0; a < 3; ++a) row[a] = table.Get(r, a);
    ASSERT_TRUE(half.AppendRow(row).ok());
  }
  // Note: the incremental VA-file refines against `table` (which already
  // holds all rows), so building over `half`'s prefix then appending must
  // match the batch build bit for bit.
  VaFile incremental = VaFile::Build(table, {}).value();  // bins from full
  VaFile batch = VaFile::Build(table, {}).value();
  // Rebuild incremental's payload from scratch via appends.
  VaFile empty_built = VaFile::Build(half, {}).value();
  for (uint64_t r = 300; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < 3; ++a) row[a] = table.Get(r, a);
    ASSERT_TRUE(empty_built.AppendRow(row).ok());
  }
  ASSERT_EQ(empty_built.num_rows(), table.num_rows());
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < 3; ++a) {
      EXPECT_EQ(empty_built.StoredCode(r, a), batch.StoredCode(r, a))
          << "row " << r << " attr " << a;
    }
  }
}

TEST(VaAppendTest, RejectsBadRows) {
  const Table table = GenerateTable(UniformSpec(100, 5, 0.1, 2, 309)).value();
  VaFile va = VaFile::Build(table).value();
  EXPECT_FALSE(va.AppendRow({1}).ok());
  EXPECT_FALSE(va.AppendRow({1, 9}).ok());
  EXPECT_EQ(va.num_rows(), 100u);
}

TEST(VaAppendTest, ExecuteRequiresTableToKeepUp) {
  // Appending to the index beyond the table must be caught at query time
  // (refinement would read rows the table does not have).
  const Table table = GenerateTable(UniformSpec(50, 5, 0.1, 2, 311)).value();
  VaFile va = VaFile::Build(table).value();
  ASSERT_TRUE(va.AppendRow({2, 3}).ok());
  RangeQuery q;
  q.terms = {{0, {1, 5}}};
  EXPECT_EQ(va.Execute(q).status().code(), StatusCode::kInternal);
}

TEST(VaAppendTest, AppendedRowsAreQueryable) {
  auto table = Table::Create(Schema({{"x", 8}})).value();
  for (Value v : {1, 5, kMissingValue}) {
    ASSERT_TRUE(table.AppendRow({v}).ok());
  }
  VaFile va = VaFile::Build(table).value();
  ASSERT_TRUE(table.AppendRow({7}).ok());
  ASSERT_TRUE(va.AppendRow({7}).ok());
  RangeQuery q;
  q.terms = {{0, {6, 8}}};
  q.semantics = MissingSemantics::kNoMatch;
  EXPECT_EQ(va.Execute(q).value().ToIndices(), (std::vector<uint32_t>{3}));
}

}  // namespace
}  // namespace incdb
