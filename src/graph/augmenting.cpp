#include "graph/augmenting.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <queue>
#include <utility>

namespace dmatch {

PathEnumerator::PathEnumerator(const Graph& g, const Matching& m,
                               int max_len, EdgeFilter keep)
    : g_(g), m_(m), max_len_(max_len), keep_(std::move(keep)) {
  DMATCH_EXPECTS(max_len >= 1);
}

void PathEnumerator::run(NodeId start, std::vector<std::vector<EdgeId>>& out,
                         std::size_t max_count) {
  out_ = &out;
  max_count_ = max_count;
  if (full() || !m_.is_free(start)) return;
  walk_.assign(1, start);
  extend(start);
}

// The next edge must be non-matching when the path length so far is
// even, matching when odd.
void PathEnumerator::extend(NodeId v) {
  if (full()) return;
  const bool need_matching = (path_.size() % 2) == 1;
  if (need_matching) {
    // Exactly one way to continue: v's matched edge. A free v ends the
    // walk (it was already reported as an augmenting path endpoint).
    const EdgeId e = m_.matched_edge(v);
    if (e != kNoEdge && kept(e)) try_edge(v, e);
    return;
  }
  for (EdgeId e : g_.incident_edges(v)) {
    if (m_.contains(g_, e) || !kept(e)) continue;
    try_edge(v, e);
    if (full()) return;
  }
}

void PathEnumerator::try_edge(NodeId v, EdgeId e) {
  const NodeId u = g_.other_endpoint(e, v);
  if (std::find(walk_.begin(), walk_.end(), u) != walk_.end()) return;
  path_.push_back(e);
  const bool odd_length = (path_.size() % 2) == 1;
  if (odd_length && m_.is_free(u)) {
    // Report each path once, from its smaller-id endpoint; a length-1
    // path has equal claim from both ends, so require start < u there
    // too (start != u since the edge is not a loop).
    if (walk_.front() < u) out_->push_back(path_);
  }
  if (static_cast<int>(path_.size()) < max_len_) {
    walk_.push_back(u);
    extend(u);
    walk_.pop_back();
  }
  path_.pop_back();
}

std::vector<std::vector<EdgeId>> enumerate_augmenting_paths(
    const Graph& g, const Matching& m, int max_len, std::size_t max_count) {
  std::vector<NodeId> every(static_cast<std::size_t>(g.node_count()));
  std::iota(every.begin(), every.end(), NodeId{0});
  return enumerate_augmenting_paths(g, m, max_len, every, max_count);
}

std::vector<std::vector<EdgeId>> enumerate_augmenting_paths(
    const Graph& g, const Matching& m, int max_len,
    std::span<const NodeId> starts, std::size_t max_count,
    const EdgeFilter& keep) {
  std::vector<std::vector<EdgeId>> out;
  PathEnumerator enumerator(g, m, max_len, keep);
  for (const NodeId v : starts) {
    enumerator.run(v, out, max_count);
    if (max_count != 0 && out.size() >= max_count) break;
  }
  return out;
}

void SeededPathSearch::begin(const Graph& g, const Matching& m, int max_len,
                             EdgeFilter keep) {
  DMATCH_EXPECTS(max_len >= 1);
  DMATCH_EXPECTS(m.node_count() == g.node_count());
  g_ = &g;
  m_ = &m;
  max_len_ = max_len;
  keep_ = std::move(keep);
  const auto n = static_cast<std::size_t>(g.node_count());
  queued_.grow(n);
  to_matched_.grow(n);
  to_free_edge_.grow(n);
  queued_.clear();
  heap_.clear();
}

void SeededPathSearch::seed(std::span<const NodeId> nodes) {
  const Graph& g = *g_;
  const Matching& m = *m_;
  const auto n = static_cast<std::size_t>(g.node_count());
  to_matched_.clear();
  to_free_edge_.clear();
  next_frontier_.clear();
  const auto queue = [&](NodeId v) {
    if (m.is_free(v) && queued_.insert(static_cast<std::size_t>(v))) {
      heap_.push_back(v);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  };
  // State (v, true): the walk leaves v along its matched edge; (v,
  // false): along a non-matching edge. A seed starts in both; a walk
  // that arrives along a non-matching edge continues along the matched
  // edge, and ends there if the node is free — a path endpoint.
  const auto reach = [&](NodeId v, bool matched_next) {
    support::StampSet& seen = matched_next ? to_matched_ : to_free_edge_;
    if (seen.insert(static_cast<std::size_t>(v))) {
      next_frontier_.emplace_back(v, matched_next);
    }
  };
  for (const NodeId v : nodes) {
    if (v < 0 || static_cast<std::size_t>(v) >= n) continue;
    queue(v);
    reach(v, true);
    reach(v, false);
  }
  for (int level = 0; level < max_len_ && !next_frontier_.empty(); ++level) {
    std::swap(frontier_, next_frontier_);
    next_frontier_.clear();
    for (const auto& [v, matched_next] : frontier_) {
      if (matched_next) {
        const EdgeId e = m.matched_edge(v);
        if (e != kNoEdge && (!keep_ || keep_(e))) {
          reach(g.other_endpoint(e, v), false);
        }
        continue;
      }
      for (const EdgeId e : g.incident_edges(v)) {
        if (m.contains(g, e) || (keep_ && !keep_(e))) continue;
        const NodeId w = g.other_endpoint(e, v);
        queue(w);
        reach(w, true);
      }
    }
  }
}

std::optional<std::vector<EdgeId>> SeededPathSearch::next() {
  PathEnumerator enumerator(*g_, *m_, max_len_, keep_);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const NodeId v = heap_.back();
    heap_.pop_back();
    queued_.erase(static_cast<std::size_t>(v));
    found_.clear();
    enumerator.run(v, found_, 1);
    if (!found_.empty()) return std::move(found_.front());
  }
  return std::nullopt;
}

std::optional<int> shortest_augmenting_path_length(const Graph& g,
                                                   const Matching& m,
                                                   int cap) {
  for (int len = 1; len <= cap; len += 2) {
    const auto paths = enumerate_augmenting_paths(g, m, len, 1);
    if (!paths.empty()) return static_cast<int>(paths.front().size());
  }
  return std::nullopt;
}

std::optional<int> bipartite_shortest_augmenting_path_length(
    const Graph& g, const std::vector<std::uint8_t>& side, const Matching& m) {
  DMATCH_EXPECTS(side.size() == static_cast<std::size_t>(g.node_count()));
  // Layered BFS from all free side-0 nodes, alternating
  // non-matching (0 -> 1) and matching (1 -> 0) edges. The first free
  // side-1 node reached closes a shortest augmenting path.
  constexpr int kUnreached = -1;
  std::vector<int> dist(static_cast<std::size_t>(g.node_count()), kUnreached);
  std::queue<NodeId> queue;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (side[static_cast<std::size_t>(v)] == 0 && m.is_free(v)) {
      dist[static_cast<std::size_t>(v)] = 0;
      queue.push(v);
    }
  }
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop();
    const int d = dist[static_cast<std::size_t>(v)];
    if (side[static_cast<std::size_t>(v)] == 0) {
      for (EdgeId e : g.incident_edges(v)) {
        if (m.contains(g, e)) continue;
        const NodeId u = g.other_endpoint(e, v);
        if (dist[static_cast<std::size_t>(u)] != kUnreached) continue;
        dist[static_cast<std::size_t>(u)] = d + 1;
        if (m.is_free(u)) return d + 1;
        queue.push(u);
      }
    } else {
      const NodeId u = m.mate(v);
      DMATCH_ASSERT(u != kNoNode);
      if (dist[static_cast<std::size_t>(u)] == kUnreached) {
        dist[static_cast<std::size_t>(u)] = d + 1;
        queue.push(u);
      }
    }
  }
  return std::nullopt;
}

std::optional<int> bipartite_shortest_augmenting_path_length(
    const Graph& g, const std::vector<std::uint8_t>& side, const Matching& m,
    const std::vector<char>& eligible_edges,
    const std::vector<char>& participants) {
  DMATCH_EXPECTS(side.size() == static_cast<std::size_t>(g.node_count()));
  DMATCH_EXPECTS(eligible_edges.size() ==
                 static_cast<std::size_t>(g.edge_count()));
  DMATCH_EXPECTS(participants.size() ==
                 static_cast<std::size_t>(g.node_count()));
  // Same layered BFS as above, restricted to the region: only
  // participants are layered, only eligible edges relax, and a matched
  // pair whose matched edge is ineligible (or whose mate is outside the
  // region) simply blocks — the pair is pinned, like a frozen boundary
  // pair in src/dyn.
  constexpr int kUnreached = -1;
  std::vector<int> dist(static_cast<std::size_t>(g.node_count()), kUnreached);
  std::queue<NodeId> queue;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (participants[static_cast<std::size_t>(v)] != 0 &&
        side[static_cast<std::size_t>(v)] == 0 && m.is_free(v)) {
      dist[static_cast<std::size_t>(v)] = 0;
      queue.push(v);
    }
  }
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop();
    const int d = dist[static_cast<std::size_t>(v)];
    if (side[static_cast<std::size_t>(v)] == 0) {
      for (EdgeId e : g.incident_edges(v)) {
        if (eligible_edges[static_cast<std::size_t>(e)] == 0) continue;
        if (m.contains(g, e)) continue;
        const NodeId u = g.other_endpoint(e, v);
        if (participants[static_cast<std::size_t>(u)] == 0) continue;
        if (dist[static_cast<std::size_t>(u)] != kUnreached) continue;
        dist[static_cast<std::size_t>(u)] = d + 1;
        if (m.is_free(u)) return d + 1;
        queue.push(u);
      }
    } else {
      const NodeId u = m.mate(v);
      DMATCH_ASSERT(u != kNoNode);
      const EdgeId me = m.matched_edge(v);
      if (me == kNoEdge || eligible_edges[static_cast<std::size_t>(me)] == 0 ||
          participants[static_cast<std::size_t>(u)] == 0) {
        continue;  // pinned pair: the alternating step cannot leave it
      }
      if (dist[static_cast<std::size_t>(u)] == kUnreached) {
        dist[static_cast<std::size_t>(u)] = d + 1;
        queue.push(u);
      }
    }
  }
  return std::nullopt;
}

namespace {

/// DFS enumeration of alternating walks for
/// enumerate_alternating_augmentations. Walks are grown from every start
/// node; valid augmentations are canonicalized and deduplicated.
class AugmentationEnumerator {
 public:
  AugmentationEnumerator(const Graph& g, const Matching& m, int max_len,
                         std::size_t max_count)
      : g_(g),
        m_(m),
        max_len_(max_len),
        max_count_(max_count),
        on_path_(static_cast<std::size_t>(g.node_count()), false) {}

  std::vector<Augmentation> run() {
    for (NodeId s = 0; s < g_.node_count(); ++s) {
      start_ = s;
      on_path_[static_cast<std::size_t>(s)] = true;
      nodes_ = {s};
      // Branch on the first edge's type.
      const EdgeId matched = m_.matched_edge(s);
      if (matched != kNoEdge) {
        first_edge_matched_ = true;
        try_edge(s, matched);
      }
      if (m_.is_free(s)) {
        first_edge_matched_ = false;
        for (EdgeId e : g_.incident_edges(s)) {
          if (!m_.contains(g_, e)) try_edge(s, e);
          if (full()) break;
        }
      }
      on_path_[static_cast<std::size_t>(s)] = false;
      if (full()) break;
    }
    std::vector<Augmentation> out;
    out.reserve(seen_.size());
    for (const auto& [key, aug] : seen_) out.push_back(aug);
    return out;
  }

 private:
  [[nodiscard]] bool full() const {
    return max_count_ != 0 && seen_.size() >= max_count_;
  }

  void try_edge(NodeId v, EdgeId e) {
    if (full()) return;
    const NodeId u = g_.other_endpoint(e, v);
    const bool e_matched = m_.contains(g_, e);
    if (u == start_ && edges_.size() >= 2) {
      // Closing a cycle: alternation at the start node requires the
      // closing and first edges to differ in matched-status.
      if (e_matched != first_edge_matched_) {
        edges_.push_back(e);
        nodes_.push_back(u);
        record(true);
        nodes_.pop_back();
        edges_.pop_back();
      }
      return;
    }
    if (on_path_[static_cast<std::size_t>(u)]) return;

    edges_.push_back(e);
    nodes_.push_back(u);
    // End condition: a walk may stop here if its last edge is matched
    // (u gets unmatched) or u is free.
    if (e_matched || m_.is_free(u)) record(false);

    if (static_cast<int>(edges_.size()) < max_len_ && !full()) {
      on_path_[static_cast<std::size_t>(u)] = true;
      if (e_matched) {
        for (EdgeId next : g_.incident_edges(u)) {
          if (!m_.contains(g_, next)) try_edge(u, next);
          if (full()) break;
        }
      } else {
        const EdgeId next = m_.matched_edge(u);
        if (next != kNoEdge) try_edge(u, next);
      }
      on_path_[static_cast<std::size_t>(u)] = false;
    }
    nodes_.pop_back();
    edges_.pop_back();
  }

  void record(bool is_cycle) {
    // Walks of a single matched edge "augment" to a strictly smaller
    // matching; they are valid but useless, so skip them.
    if (edges_.size() == 1 && first_edge_matched_) return;
    std::vector<NodeId> canon = nodes_;
    if (is_cycle) {
      canon.pop_back();  // drop the repeated start
      // Rotate the minimum node to the front.
      const auto min_it = std::min_element(canon.begin(), canon.end());
      std::rotate(canon.begin(), min_it, canon.end());
      // Orient towards the smaller neighbor of the minimum.
      if (canon.size() > 2 && canon.back() < canon[1]) {
        std::reverse(canon.begin() + 1, canon.end());
      }
      canon.push_back(canon.front());
    } else {
      std::vector<NodeId> reversed(canon.rbegin(), canon.rend());
      if (reversed < canon) canon = std::move(reversed);
    }
    auto [it, inserted] = seen_.try_emplace(canon);
    if (!inserted) return;
    Augmentation& aug = it->second;
    aug.is_cycle = is_cycle;
    aug.nodes = canon;
    for (std::size_t i = 0; i + 1 < canon.size(); ++i) {
      const EdgeId e = g_.find_edge(canon[i], canon[i + 1]);
      DMATCH_ASSERT(e != kNoEdge);
      aug.edges.push_back(e);
    }
  }

  const Graph& g_;
  const Matching& m_;
  const int max_len_;
  const std::size_t max_count_;
  std::vector<char> on_path_;
  std::vector<EdgeId> edges_;
  std::vector<NodeId> nodes_;
  NodeId start_ = kNoNode;
  bool first_edge_matched_ = false;
  std::map<std::vector<NodeId>, Augmentation> seen_;
};

}  // namespace

std::vector<Augmentation> enumerate_alternating_augmentations(
    const Graph& g, const Matching& m, int max_len, std::size_t max_count) {
  DMATCH_EXPECTS(max_len >= 1);
  return AugmentationEnumerator(g, m, max_len, max_count).run();
}

std::vector<std::vector<EdgeId>> greedy_disjoint_paths(
    const Graph& g, const std::vector<std::vector<EdgeId>>& paths) {
  // The chosen paths' nodes, kept sorted: a batch holds a few short
  // paths, so this costs what the paths hold, not O(n).
  std::vector<NodeId> used;
  std::vector<std::vector<EdgeId>> chosen;
  const auto is_used = [&used](NodeId v) {
    return std::binary_search(used.begin(), used.end(), v);
  };
  for (const auto& p : paths) {
    bool ok = true;
    for (EdgeId e : p) {
      const Edge& ed = g.edge(e);
      if (is_used(ed.u) || is_used(ed.v)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (EdgeId e : p) {
      const Edge& ed = g.edge(e);
      for (const NodeId x : {ed.u, ed.v}) {
        const auto at = std::lower_bound(used.begin(), used.end(), x);
        if (at == used.end() || *at != x) used.insert(at, x);
      }
    }
    chosen.push_back(p);
  }
  return chosen;
}

}  // namespace dmatch
