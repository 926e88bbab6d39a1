#ifndef INCDB_REPRO_BPLUS_TREE_H_
#define INCDB_REPRO_BPLUS_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace incdb {

/// In-memory B+-tree mapping int32 keys to uint32 record ids, duplicates
/// allowed. Substrate for the MOSAIC baseline (one tree per attribute,
/// missing mapped to a distinguished key), and a reusable one-dimensional
/// ordered index in its own right.
///
/// Leaves are chained for efficient range scans. Node fanout is fixed at
/// construction. Deletion is not needed by any experiment and is not
/// implemented.
class BPlusTree {
 public:
  /// `fanout` = max children of an internal node (>= 4); leaves hold up to
  /// fanout - 1 entries.
  explicit BPlusTree(int fanout = 64);
  ~BPlusTree();

  // Defined in the .cc (Node is incomplete here).
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Inserts one (key, record) pair. Duplicate keys are fine.
  void Insert(int32_t key, uint32_t record);

  /// Appends to `out` the records of every entry with lo <= key <= hi, in
  /// key order. Returns the number of nodes visited (root-to-leaf descent
  /// plus leaf-chain hops) — the tree's cost model.
  uint64_t RangeScan(int32_t lo, int32_t hi,
                     std::vector<uint32_t>* out) const;

  /// Records with key exactly `key`.
  uint64_t Lookup(int32_t key, std::vector<uint32_t>* out) const {
    return RangeScan(key, key, out);
  }

  uint64_t size() const { return size_; }
  int height() const;
  uint64_t num_nodes() const { return num_nodes_; }

  /// Approximate memory footprint in bytes (keys, values, child pointers).
  uint64_t SizeInBytes() const;

  /// Internal consistency check (key ordering, balanced depth, fill bounds);
  /// used by the test suite.
  Status CheckInvariants() const;

 private:
  struct Node;
  struct SplitResult;

  SplitResult InsertInto(Node* node, int32_t key, uint32_t record);
  Status CheckNode(const Node* node, int depth, int leaf_depth, int32_t lo,
                   int32_t hi, bool is_root) const;
  int LeafDepth() const;

  int fanout_;
  std::unique_ptr<Node> root_;
  uint64_t size_ = 0;
  uint64_t num_nodes_ = 0;
};

}  // namespace incdb

#endif  // INCDB_REPRO_BPLUS_TREE_H_
