#include "baselines/mosaic.h"

namespace incdb {

Result<MosaicIndex> MosaicIndex::Build(const Table& table, int fanout) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot build MOSAIC on an empty table");
  }
  std::vector<BPlusTree> trees;
  trees.reserve(table.num_attributes());
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    BPlusTree tree(fanout);
    const Column& column = table.column(a);
    for (uint64_t r = 0; r < table.num_rows(); ++r) {
      const Value v = column.Get(r);
      tree.Insert(IsMissing(v) ? kMissingKey : v, static_cast<uint32_t>(r));
    }
    trees.push_back(std::move(tree));
  }
  return MosaicIndex(table.num_rows(), std::move(trees));
}

Result<BitVector> MosaicIndex::Execute(const RangeQuery& query,
                                       QueryStats* stats) const {
  if (query.terms.empty()) {
    return Status::InvalidArgument("query must have at least one term");
  }
  BitVector result;
  bool first = true;
  std::vector<uint32_t> rows;
  for (const QueryTerm& term : query.terms) {
    if (term.attribute >= trees_.size()) {
      return Status::OutOfRange("attribute index " +
                                std::to_string(term.attribute) +
                                " out of range");
    }
    const BPlusTree& tree = trees_[term.attribute];
    rows.clear();
    // Subquery 1: the value range.
    uint64_t nodes = tree.RangeScan(term.interval.lo, term.interval.hi, &rows);
    uint64_t subqueries = 1;
    // Subquery 2: the distinguished missing key (match semantics only).
    if (query.semantics == MissingSemantics::kMatch) {
      nodes += tree.Lookup(kMissingKey, &rows);
      ++subqueries;
    }
    if (stats != nullptr) {
      stats->nodes_accessed += nodes;
      stats->subqueries += subqueries;
    }
    // Set operation: intersect this attribute's row set into the result.
    BitVector attr_rows(num_rows_);
    for (uint32_t r : rows) attr_rows.Set(r);
    if (first) {
      result = std::move(attr_rows);
      first = false;
    } else {
      result.AndWith(attr_rows);
    }
  }
  return result;
}

Status MosaicIndex::AppendRow(const std::vector<Value>& row) {
  if (row.size() != trees_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, index has " +
        std::to_string(trees_.size()) + " attributes");
  }
  const uint32_t record = static_cast<uint32_t>(num_rows_);
  for (size_t a = 0; a < row.size(); ++a) {
    const Value v = row[a];
    trees_[a].Insert(IsMissing(v) ? kMissingKey : v, record);
  }
  ++num_rows_;
  return Status::OK();
}

Status MosaicIndex::SaveTo(BinaryWriter& writer) const {
  writer.WriteU64(num_rows_);
  writer.WriteU64(trees_.size());
  std::vector<int32_t> keys;
  std::vector<uint32_t> records;
  for (const BPlusTree& tree : trees_) {
    keys.clear();
    records.clear();
    keys.reserve(tree.size());
    records.reserve(tree.size());
    tree.ForEachEntry([&](int32_t key, uint32_t record) {
      keys.push_back(key);
      records.push_back(record);
    });
    writer.WriteU32(static_cast<uint32_t>(tree.fanout()));
    writer.WriteI32Vector(keys);
    writer.WriteU32Vector(records);
  }
  return writer.status();
}

Result<MosaicIndex> MosaicIndex::LoadFrom(BinaryReader& reader,
                                          size_t num_attributes) {
  INCDB_ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadU64());
  INCDB_ASSIGN_OR_RETURN(uint64_t num_trees, reader.ReadU64());
  if (num_trees != num_attributes) {
    return Status::IOError("MOSAIC payload has " + std::to_string(num_trees) +
                           " trees, base table has " +
                           std::to_string(num_attributes) + " attributes");
  }
  std::vector<BPlusTree> trees;
  trees.reserve(num_trees);
  for (uint64_t t = 0; t < num_trees; ++t) {
    INCDB_ASSIGN_OR_RETURN(uint32_t fanout, reader.ReadU32());
    if (fanout < 4 || fanout > (1u << 20)) {
      return Status::IOError("MOSAIC payload: implausible fanout " +
                             std::to_string(fanout));
    }
    INCDB_ASSIGN_OR_RETURN(std::vector<int32_t> keys, reader.ReadI32Vector());
    INCDB_ASSIGN_OR_RETURN(std::vector<uint32_t> records,
                           reader.ReadU32Vector());
    if (keys.size() != records.size() || keys.size() != num_rows) {
      return Status::IOError("MOSAIC payload: tree " + std::to_string(t) +
                             " entry count mismatch");
    }
    // Re-insert in record order, the order Build and AppendRow insert in,
    // so the reopened tree has the built tree's shape: the same
    // SizeInBytes() and the same nodes accessed per query.
    std::vector<int32_t> key_of(num_rows);
    std::vector<bool> seen(num_rows, false);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (records[i] >= num_rows || seen[records[i]]) {
        return Status::IOError(
            "MOSAIC payload: record id out of range or repeated");
      }
      seen[records[i]] = true;
      key_of[records[i]] = keys[i];
    }
    BPlusTree tree(static_cast<int>(fanout));
    for (uint64_t r = 0; r < num_rows; ++r) {
      tree.Insert(key_of[r], static_cast<uint32_t>(r));
    }
    trees.push_back(std::move(tree));
  }
  return MosaicIndex(num_rows, std::move(trees));
}

uint64_t MosaicIndex::SizeInBytes() const {
  uint64_t total = 0;
  for (const BPlusTree& tree : trees_) total += tree.SizeInBytes();
  return total;
}

}  // namespace incdb
