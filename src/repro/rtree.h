#ifndef INCDB_REPRO_RTREE_H_
#define INCDB_REPRO_RTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace incdb {

/// Axis-aligned hyper-rectangle with integer coordinates.
struct Rect {
  std::vector<int32_t> lo;
  std::vector<int32_t> hi;

  static Rect Point(const std::vector<int32_t>& coords) {
    return Rect{coords, coords};
  }

  bool Intersects(const Rect& other) const;
  bool Contains(const Rect& other) const;
  /// Grows to cover `other`.
  void Enlarge(const Rect& other);
  /// Volume (product of extents, each extent counted as hi-lo+1 to keep
  /// points non-degenerate); computed in double to avoid overflow.
  double Volume() const;
  /// Volume increase if enlarged to cover `other`.
  double Enlargement(const Rect& other) const;
};

/// Guttman R-tree (quadratic split) over integer point data.
///
/// This is the classical hierarchical multi-dimensional index the paper's
/// motivating experiment (Fig. 1) is built on: records with missing values
/// are mapped to a sentinel coordinate and inserted as points, and the
/// resulting bounding-box overlap is what destroys query performance. The
/// node-access count returned by RangeSearch is the cost model Fig. 1's
/// normalized execution times are derived from.
class RTree {
 public:
  /// `dims` = dimensionality of the indexed points; `max_entries` = node
  /// capacity M (min fill is M * 0.4, Guttman's recommendation).
  explicit RTree(size_t dims, int max_entries = 16);
  ~RTree();

  // Defined in the .cc (Node is incomplete here).
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Inserts a point with the given record id. The point must have dims()
  /// coordinates.
  void Insert(const std::vector<int32_t>& point, uint32_t record);

  /// Appends to `out` the record ids of all points inside `box` (inclusive
  /// bounds). Returns the number of nodes visited.
  uint64_t RangeSearch(const Rect& box, std::vector<uint32_t>* out) const;

  size_t dims() const { return dims_; }
  uint64_t size() const { return size_; }
  uint64_t num_nodes() const { return num_nodes_; }
  int height() const;

  /// Approximate memory footprint in bytes.
  uint64_t SizeInBytes() const;

  /// Structural validation: MBRs cover children, leaves at equal depth,
  /// fill bounds respected. Used by the test suite.
  Status CheckInvariants() const;

 private:
  struct Node;

  Node* ChooseLeaf(Node* node, const Rect& rect, std::vector<Node*>* path);
  std::unique_ptr<Node> SplitNode(Node* node);
  void AdjustPath(const std::vector<Node*>& path);

  size_t dims_;
  int max_entries_;
  int min_entries_;
  std::unique_ptr<Node> root_;
  uint64_t size_ = 0;
  uint64_t num_nodes_ = 0;
};

}  // namespace incdb

#endif  // INCDB_REPRO_RTREE_H_
