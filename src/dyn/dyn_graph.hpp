// Mutable graph state for the dynamic matching service, layered over the
// append-only Graph substrate.
//
// The CONGEST simulator's Graph only grows (topology IS the network, and
// an edge's id and ports never change), so dynamism is represented as a
// *universe* graph plus liveness masks: every pair the service has ever
// seen is a universe edge, and updates toggle per-edge / per-vertex
// liveness in O(deg). The persistent round-engine Network the repair
// engine runs on is built over the universe, with dead edges excluded via
// eligibility masks — so churn on known pairs (flaps, session
// reconnects, crash-driven depart/return) never rebuilds anything. Only a
// genuinely new pair (or a new vertex id) lands in a pending list and
// forces a universe rebuild at the next epoch boundary: a generation bump
// the service batches and reports (dyn.rebuilds, kDynRebuild). The
// rebuild appends the pending pairs to the universe in place
// (Graph::add_edges) and the repair engine re-lays out its one Network
// over the grown universe (Network::rebind); both reuse their buffers, so
// a steady stream of rebuilds allocates nothing, but each is still a
// linear O(n + m) pass — the cost shows up in the tail exactly where a
// real system would pay it.
//
// The universe's own edge weights are those the pairs had when they were
// appended; they do not follow later re-weights. Nothing reads them:
// effective_weight() and snapshot() read the effective weights only.
#pragma once

#include <cstdint>
#include <vector>

#include "dyn/update.hpp"
#include "graph/graph.hpp"

namespace dmatch::dyn {

class DynGraph {
 public:
  /// Start from an initial topology; every initial edge and vertex is
  /// live.
  explicit DynGraph(Graph initial);

  [[nodiscard]] const Graph& universe() const noexcept { return universe_; }
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  [[nodiscard]] NodeId node_count() const noexcept {
    return universe_.node_count();
  }
  [[nodiscard]] bool vertex_live(NodeId v) const {
    return live_vertex_[static_cast<std::size_t>(v)] != 0;
  }
  /// Edge is flagged live AND both endpoints are live.
  [[nodiscard]] bool edge_alive(EdgeId e) const {
    if (live_edge_[static_cast<std::size_t>(e)] == 0) return false;
    const Edge& ed = universe_.edge(e);
    return vertex_live(ed.u) && vertex_live(ed.v);
  }
  [[nodiscard]] Weight effective_weight(EdgeId e) const {
    return weight_[static_cast<std::size_t>(e)];
  }

  [[nodiscard]] NodeId live_vertex_count() const noexcept {
    return live_vertices_;
  }
  /// Edges with the live flag set (endpoint deaths not subtracted —
  /// that is what edge_alive() is for).
  [[nodiscard]] EdgeId live_edge_count() const noexcept {
    return live_edges_;
  }

  /// Apply one op to the masks. New pairs / new vertex ids are queued
  /// (needs_rebuild() turns true) and take effect at the next rebuild().
  /// Deleting or re-weighting a still-pending pair edits the queue.
  void apply(const UpdateOp& op);

  [[nodiscard]] bool needs_rebuild() const noexcept {
    return !pending_.empty() || pending_n_ > universe_.node_count();
  }

  /// Append the pending pairs to the universe (generation bump). Edge
  /// ids, node ids and ports are stable (the universe only grows). Dead
  /// edges are retained so later re-inserts of the same pair stay
  /// rebuild-free.
  void rebuild();

  /// Live subgraph as a standalone Graph on the SAME node ids (departed
  /// vertices become isolated). `universe_edge` (optional) maps each
  /// snapshot edge id back to its universe edge id. O(n + m); used by
  /// certification, differential tests and ratio reporting — the repair
  /// path never needs it.
  [[nodiscard]] Graph snapshot(std::vector<EdgeId>* universe_edge = nullptr) const;

  /// Dead mask over the current id space (1 = departed), the shape
  /// verify_matching_invariants takes.
  [[nodiscard]] std::vector<char> dead_mask() const;

  [[nodiscard]] const std::vector<char>& live_edge_mask() const noexcept {
    return live_edge_;
  }

 private:
  Graph universe_;
  std::vector<char> live_edge_;    // per universe edge
  std::vector<Weight> weight_;     // effective weights (updates override)
  std::vector<char> live_vertex_;  // per vertex
  NodeId live_vertices_ = 0;
  EdgeId live_edges_ = 0;
  std::uint64_t generation_ = 0;

  // Net-new pairs awaiting a rebuild, keyed (min,max). A pending pair is
  // live by definition (it was just inserted); deleting it removes it
  // from the queue again.
  std::vector<Edge> pending_;
  NodeId pending_n_ = 0;  // required node capacity (>= universe n)
  // Departures of vertices that exist only in pending_ (not yet
  // materialized); applied as dead-at-birth during rebuild().
  std::vector<NodeId> pending_dead_;

  [[nodiscard]] std::ptrdiff_t pending_index(NodeId u, NodeId v) const;
};

}  // namespace dmatch::dyn
