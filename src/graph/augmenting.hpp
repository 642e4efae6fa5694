// Centralized augmenting-path oracles.
//
// The tests use them to check the phase invariant of Lemma 3.2 ("after
// phase ell no augmenting path of length <= ell remains"), the LOCAL
// generic algorithm uses the enumerator on each leader's local view
// (where it is a legitimate local computation), and the dynamic service
// (src/dyn) runs the same enumerator, seeded from an epoch's changes, to
// restore that invariant after every epoch. General-graph enumeration is
// exponential in the path length, which is fine: the paper only ever
// looks at lengths up to 2*ceil(1/eps) - 1.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "support/stamp_set.hpp"

namespace dmatch {

/// Which edges of a graph a search may use; an empty filter keeps all.
using EdgeFilter = std::function<bool(EdgeId)>;

/// Depth-first enumeration of the simple augmenting paths w.r.t. m of
/// length <= max_len rooted at one free start at a time, over the edges
/// that pass `keep` (a matched edge must pass too, or its node is a dead
/// end). Each path is a sequence of edge ids from one free endpoint to
/// the other, reported once: from its smaller-id endpoint. The walk
/// follows each node's adjacency order, so a fixed start order fixes
/// the output. The only scratch is the walk itself (at most max_len + 1
/// nodes), so a run costs what it explores, never O(n).
class PathEnumerator {
 public:
  PathEnumerator(const Graph& g, const Matching& m, int max_len,
                 EdgeFilter keep = {});

  /// Append the paths rooted at `start` to `out`, stopping once `out`
  /// holds max_count paths (0 = unlimited). A matched start roots none.
  void run(NodeId start, std::vector<std::vector<EdgeId>>& out,
           std::size_t max_count = 0);

 private:
  void extend(NodeId v);
  void try_edge(NodeId v, EdgeId e);
  [[nodiscard]] bool kept(EdgeId e) const { return !keep_ || keep_(e); }
  [[nodiscard]] bool full() const {
    return max_count_ != 0 && out_->size() >= max_count_;
  }

  const Graph& g_;
  const Matching& m_;
  const int max_len_;
  const EdgeFilter keep_;
  std::vector<std::vector<EdgeId>>* out_ = nullptr;
  std::size_t max_count_ = 0;
  std::vector<EdgeId> path_;
  std::vector<NodeId> walk_;  // the path's nodes, start first
};

/// All simple augmenting paths w.r.t. m of length <= max_len (edges):
/// PathEnumerator run from every node in ascending id order. Enumeration
/// stops after max_count paths (0 = unlimited).
std::vector<std::vector<EdgeId>> enumerate_augmenting_paths(
    const Graph& g, const Matching& m, int max_len,
    std::size_t max_count = 0);

/// The same enumeration from the given starts only, in the given order,
/// over the edges that pass `keep`. With every node as a start and no
/// filter this is the overload above.
std::vector<std::vector<EdgeId>> enumerate_augmenting_paths(
    const Graph& g, const Matching& m, int max_len,
    std::span<const NodeId> starts, std::size_t max_count = 0,
    const EdgeFilter& keep = {});

/// Finds, one at a time, the augmenting paths of length <= max_len that
/// the global scan `enumerate_augmenting_paths(g, m, max_len, 1)` would
/// find first, on the premise that every such path touches a seeded
/// node. Walked from a seed to either end, such a path is an alternating
/// walk of at most max_len kept edges that reaches its free end along a
/// non-matching edge, so seed() queues the free nodes such walks reach
/// (a breadth-first search over (node, next edge matched?) states, which
/// follows one matched edge where a plain ball would follow them all),
/// and next() runs PathEnumerator from the queued nodes in ascending id
/// order: the first that roots a path is the smallest node that does,
/// which is where the global scan's first path starts. After the caller
/// flips a path, seeding its nodes re-queues every node the flip can
/// have given a path, since a new path must touch the flip. The scratch
/// (stamp sets and a heap) persists across begin() calls, so a search
/// costs what its walks reach.
class SeededPathSearch {
 public:
  /// Start a search over `g` and `m`, which must outlive it; `m` may
  /// change between calls only by flips whose nodes are then seeded.
  void begin(const Graph& g, const Matching& m, int max_len,
             EdgeFilter keep = {});
  /// Queue every free node that can end a short augmenting path through
  /// one of `nodes` (and the free `nodes` themselves).
  void seed(std::span<const NodeId> nodes);
  /// The first path rooted at the smallest queued node that roots one,
  /// or nullopt. Every node popped before it leaves the queue.
  [[nodiscard]] std::optional<std::vector<EdgeId>> next();

 private:
  const Graph* g_ = nullptr;
  const Matching* m_ = nullptr;
  int max_len_ = 1;
  EdgeFilter keep_;
  support::StampSet queued_;  // nodes in heap_
  // States reached by the current seed() call: (v, next edge matched)
  // and (v, next edge non-matching).
  support::StampSet to_matched_, to_free_edge_;
  std::vector<NodeId> heap_;  // min-heap of queued nodes
  // Frontier states: a node id, tagged by its state's next edge type.
  std::vector<std::pair<NodeId, bool>> frontier_, next_frontier_;
  std::vector<std::vector<EdgeId>> found_;
};

/// Length (edge count) of the shortest augmenting path w.r.t. m, searching
/// lengths 1, 3, ..., cap. nullopt if none of length <= cap exists.
std::optional<int> shortest_augmenting_path_length(const Graph& g,
                                                   const Matching& m,
                                                   int cap);

/// Exact shortest augmenting path length in a bipartite graph (layered BFS,
/// works at any scale). `side[v]` in {0,1}. nullopt if no augmenting path.
std::optional<int> bipartite_shortest_augmenting_path_length(
    const Graph& g, const std::vector<std::uint8_t>& side, const Matching& m);

/// Region-restricted variant: the BFS sees only `participants` (by node
/// id) and `eligible_edges` (by edge id) — the oracle behind the
/// region-restricted augment phases (core/bipartite_mcm), where most of
/// a persistent network is parked and only a dirty region re-matches.
/// A matched participant whose matched edge is ineligible (or whose
/// mate is a non-participant) blocks the alternating step — such a pair
/// is pinned, exactly like a frozen boundary pair in src/dyn.
std::optional<int> bipartite_shortest_augmenting_path_length(
    const Graph& g, const std::vector<std::uint8_t>& side, const Matching& m,
    const std::vector<char>& eligible_edges,
    const std::vector<char>& participants);

/// Greedily select a maximal set of pairwise node-disjoint paths from
/// `paths`, in order (the sequential reference for "maximal set of
/// augmenting paths" in tests, and dyn/augment's guide batch).
std::vector<std::vector<EdgeId>> greedy_disjoint_paths(
    const Graph& g, const std::vector<std::vector<EdgeId>>& paths);

/// A weighted *augmentation* in the Hougardy-Vinkemeier sense (the paper's
/// Section 4 remark): an alternating path or cycle A such that M (+) A is
/// again a matching. Path ends are either free nodes (entered by a
/// non-matching edge) or get unmatched (path ends with their matched edge).
struct Augmentation {
  std::vector<EdgeId> edges;   // in path/cycle order
  std::vector<NodeId> nodes;   // canonical node sequence (cycles repeat the
                               // first node at the end)
  bool is_cycle = false;
};

/// Enumerate all alternating augmentations with at most max_len edges,
/// each reported once in canonical orientation. Requires max_len >= 1.
/// Enumeration stops after max_count augmentations (0 = unlimited).
std::vector<Augmentation> enumerate_alternating_augmentations(
    const Graph& g, const Matching& m, int max_len, std::size_t max_count = 0);

}  // namespace dmatch
