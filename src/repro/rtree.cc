#include "repro/rtree.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace incdb {

bool Rect::Intersects(const Rect& other) const {
  for (size_t d = 0; d < lo.size(); ++d) {
    if (hi[d] < other.lo[d] || lo[d] > other.hi[d]) return false;
  }
  return true;
}

bool Rect::Contains(const Rect& other) const {
  for (size_t d = 0; d < lo.size(); ++d) {
    if (other.lo[d] < lo[d] || other.hi[d] > hi[d]) return false;
  }
  return true;
}

void Rect::Enlarge(const Rect& other) {
  for (size_t d = 0; d < lo.size(); ++d) {
    lo[d] = std::min(lo[d], other.lo[d]);
    hi[d] = std::max(hi[d], other.hi[d]);
  }
}

double Rect::Volume() const {
  double volume = 1.0;
  for (size_t d = 0; d < lo.size(); ++d) {
    volume *= static_cast<double>(hi[d]) - static_cast<double>(lo[d]) + 1.0;
  }
  return volume;
}

double Rect::Enlargement(const Rect& other) const {
  Rect merged = *this;
  merged.Enlarge(other);
  return merged.Volume() - Volume();
}

struct RTree::Node {
  bool is_leaf = true;
  std::vector<Rect> rects;                      // entry MBRs (points in leaves)
  std::vector<uint32_t> records;                // leaf only
  std::vector<std::unique_ptr<Node>> children;  // internal only

  Rect Mbr() const {
    INCDB_DCHECK(!rects.empty());
    Rect mbr = rects.front();
    for (size_t i = 1; i < rects.size(); ++i) mbr.Enlarge(rects[i]);
    return mbr;
  }
};

RTree::RTree(size_t dims, int max_entries)
    : dims_(dims),
      max_entries_(std::max(max_entries, 4)),
      min_entries_(std::max(2, max_entries_ * 2 / 5)) {
  root_ = std::make_unique<Node>();
  num_nodes_ = 1;
}

RTree::~RTree() = default;
RTree::RTree(RTree&&) noexcept = default;
RTree& RTree::operator=(RTree&&) noexcept = default;

RTree::Node* RTree::ChooseLeaf(Node* node, const Rect& rect,
                               std::vector<Node*>* path) {
  path->push_back(node);
  while (!node->is_leaf) {
    // Guttman: descend into the child needing least enlargement; break ties
    // by smaller volume.
    size_t best = 0;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_volume = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node->rects.size(); ++i) {
      const double enlargement = node->rects[i].Enlargement(rect);
      const double volume = node->rects[i].Volume();
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && volume < best_volume)) {
        best = i;
        best_enlargement = enlargement;
        best_volume = volume;
      }
    }
    node = node->children[best].get();
    path->push_back(node);
  }
  return node;
}

std::unique_ptr<RTree::Node> RTree::SplitNode(Node* node) {
  // Guttman quadratic split.
  const size_t count = node->rects.size();
  INCDB_DCHECK(count >= 2);

  // PickSeeds: the pair wasting the most volume if grouped together.
  size_t seed_a = 0;
  size_t seed_b = 1;
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      Rect merged = node->rects[i];
      merged.Enlarge(node->rects[j]);
      const double waste = merged.Volume() - node->rects[i].Volume() -
                           node->rects[j].Volume();
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  auto right = std::make_unique<Node>();
  right->is_leaf = node->is_leaf;

  std::vector<Rect> rects = std::move(node->rects);
  std::vector<uint32_t> records = std::move(node->records);
  std::vector<std::unique_ptr<Node>> children = std::move(node->children);
  node->rects.clear();
  node->records.clear();
  node->children.clear();

  auto assign = [&](Node* target, size_t i) {
    target->rects.push_back(rects[i]);
    if (target->is_leaf) {
      target->records.push_back(records[i]);
    } else {
      target->children.push_back(std::move(children[i]));
    }
  };

  std::vector<bool> taken(count, false);
  assign(node, seed_a);
  assign(right.get(), seed_b);
  taken[seed_a] = taken[seed_b] = true;
  Rect left_mbr = rects[seed_a];
  Rect right_mbr = rects[seed_b];
  size_t remaining = count - 2;

  while (remaining > 0) {
    // If one group must take all remaining entries to reach min fill, do so.
    const size_t left_need =
        min_entries_ > static_cast<int>(node->rects.size())
            ? static_cast<size_t>(min_entries_) - node->rects.size()
            : 0;
    const size_t right_need =
        min_entries_ > static_cast<int>(right->rects.size())
            ? static_cast<size_t>(min_entries_) - right->rects.size()
            : 0;
    Node* forced = nullptr;
    if (left_need == remaining) forced = node;
    if (right_need == remaining) forced = right.get();

    // PickNext: the entry with the greatest preference for one group.
    size_t pick = 0;
    double best_diff = -1.0;
    for (size_t i = 0; i < count; ++i) {
      if (taken[i]) continue;
      const double d_left = left_mbr.Enlargement(rects[i]);
      const double d_right = right_mbr.Enlargement(rects[i]);
      const double diff = std::abs(d_left - d_right);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
      }
    }
    Node* target = forced;
    if (target == nullptr) {
      const double d_left = left_mbr.Enlargement(rects[pick]);
      const double d_right = right_mbr.Enlargement(rects[pick]);
      if (d_left < d_right) {
        target = node;
      } else if (d_right < d_left) {
        target = right.get();
      } else {
        target = node->rects.size() <= right->rects.size() ? node
                                                           : right.get();
      }
    }
    assign(target, pick);
    if (target == node) {
      left_mbr.Enlarge(rects[pick]);
    } else {
      right_mbr.Enlarge(rects[pick]);
    }
    taken[pick] = true;
    --remaining;
  }
  ++num_nodes_;
  return right;
}

void RTree::Insert(const std::vector<int32_t>& point, uint32_t record) {
  INCDB_CHECK(point.size() == dims_);
  const Rect rect = Rect::Point(point);
  std::vector<Node*> path;
  Node* leaf = ChooseLeaf(root_.get(), rect, &path);
  leaf->rects.push_back(rect);
  leaf->records.push_back(record);
  ++size_;

  // Split overfull nodes bottom-up along the insertion path.
  for (size_t level = path.size(); level-- > 0;) {
    Node* node = path[level];
    if (static_cast<int>(node->rects.size()) <= max_entries_) break;
    std::unique_ptr<Node> right = SplitNode(node);
    if (level == 0) {
      // Root split: grow the tree.
      auto new_root = std::make_unique<Node>();
      new_root->is_leaf = false;
      new_root->rects.push_back(root_->Mbr());
      new_root->rects.push_back(right->Mbr());
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(right));
      root_ = std::move(new_root);
      ++num_nodes_;
      break;
    }
    Node* parent = path[level - 1];
    // Locate `node` in its parent to refresh its MBR, then add the sibling.
    for (size_t i = 0; i < parent->children.size(); ++i) {
      if (parent->children[i].get() == node) {
        parent->rects[i] = node->Mbr();
        break;
      }
    }
    parent->rects.push_back(right->Mbr());
    parent->children.push_back(std::move(right));
  }
  AdjustPath(path);
}

void RTree::AdjustPath(const std::vector<Node*>& path) {
  // Refresh MBRs bottom-up (cheap relative to insert cost at our scale).
  for (size_t level = path.size(); level-- > 1;) {
    Node* node = path[level];
    Node* parent = path[level - 1];
    for (size_t i = 0; i < parent->children.size(); ++i) {
      if (parent->children[i].get() == node) {
        parent->rects[i] = node->Mbr();
        break;
      }
    }
  }
}

uint64_t RTree::RangeSearch(const Rect& box,
                            std::vector<uint32_t>* out) const {
  INCDB_CHECK(box.lo.size() == dims_);
  uint64_t nodes_visited = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    ++nodes_visited;
    if (node->is_leaf) {
      for (size_t i = 0; i < node->rects.size(); ++i) {
        if (box.Intersects(node->rects[i])) out->push_back(node->records[i]);
      }
    } else {
      for (size_t i = 0; i < node->rects.size(); ++i) {
        if (box.Intersects(node->rects[i])) {
          stack.push_back(node->children[i].get());
        }
      }
    }
  }
  return nodes_visited;
}

int RTree::height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

uint64_t RTree::SizeInBytes() const {
  uint64_t bytes = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    bytes += sizeof(Node) +
             node->rects.size() * dims_ * 2 * sizeof(int32_t) +
             node->records.size() * sizeof(uint32_t) +
             node->children.size() * sizeof(void*);
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return bytes;
}

Status RTree::CheckInvariants() const {
  struct Frame {
    const Node* node;
    int depth;
  };
  const int leaf_depth = height();
  uint64_t entries = 0;
  std::vector<Frame> stack = {{root_.get(), 1}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const Node* node = frame.node;
    if (static_cast<int>(node->rects.size()) > max_entries_) {
      return Status::Internal("node overfull");
    }
    const bool is_root = node == root_.get();
    if (!is_root && static_cast<int>(node->rects.size()) < min_entries_) {
      return Status::Internal("node underfull");
    }
    if (node->is_leaf) {
      if (frame.depth != leaf_depth) {
        return Status::Internal("leaves at uneven depth");
      }
      if (node->rects.size() != node->records.size()) {
        return Status::Internal("leaf rects/records size mismatch");
      }
      entries += node->records.size();
    } else {
      if (node->rects.size() != node->children.size()) {
        return Status::Internal("internal rects/children size mismatch");
      }
      for (size_t i = 0; i < node->children.size(); ++i) {
        if (!node->rects[i].Contains(node->children[i]->Mbr())) {
          return Status::Internal("MBR does not cover child");
        }
        stack.push_back({node->children[i].get(), frame.depth + 1});
      }
    }
  }
  if (entries != size_) return Status::Internal("entry count mismatch");
  return Status::OK();
}

}  // namespace incdb
