// Undirected graph substrate shared by the reference solvers and the
// CONGEST simulator.
//
// Topology is append-only: from_edges builds it, add_edges appends edges
// (and nodes) after the existing ones, and nothing is ever removed. So an
// edge id and a node's port for an edge never change once given out; this
// matches the distributed model, where the input graph *is* the
// communication network, and lets a grown graph keep every result keyed
// on ids or ports. Adjacency is stored CSR-style; every node sees its
// incident edges through consecutive "ports" 0..deg-1, which is exactly the
// port-numbering assumption of the CONGEST model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace dmatch {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kNoNode = -1;
inline constexpr EdgeId kNoEdge = -1;

using Weight = double;

/// One undirected edge. `u < v` is normalized by Graph::from_edges and
/// Graph::add_edges.
struct Edge {
  NodeId u = kNoNode;
  NodeId v = kNoNode;
  Weight w = 1.0;
};

class Graph {
 public:
  Graph() = default;

  /// Build a simple undirected graph on nodes 0..n-1. Self-loops and
  /// duplicate edges are rejected (the paper permits multigraphs, but no
  /// algorithm here benefits from parallel edges, and simplicity lets the
  /// oracles stay simple).
  static Graph from_edges(NodeId n, std::vector<Edge> edges);

  /// Raise the node count to `n` and append `extra` after every existing
  /// edge, in one pass over the adjacency (old edges are not re-sorted).
  /// The result equals from_edges(n, old edges ++ extra): new edges take
  /// the next ids in `extra`'s order, and a node's new edges take the
  /// ports after its old ones. Requires n >= node_count(), endpoints in
  /// [0, n), no self-loop, no pair already present and no pair twice in
  /// `extra`; a rejected call leaves the graph unchanged.
  void add_edges(NodeId n, std::span<const Edge> extra);

  [[nodiscard]] NodeId node_count() const noexcept { return n_; }
  [[nodiscard]] EdgeId edge_count() const noexcept {
    return static_cast<EdgeId>(edges_.size());
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    DMATCH_EXPECTS(e >= 0 && e < edge_count());
    return edges_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] Weight weight(EdgeId e) const { return edge(e).w; }

  [[nodiscard]] int degree(NodeId v) const {
    DMATCH_EXPECTS(v >= 0 && v < n_);
    return static_cast<int>(adj_offset_[static_cast<std::size_t>(v) + 1] -
                            adj_offset_[static_cast<std::size_t>(v)]);
  }
  [[nodiscard]] int max_degree() const noexcept { return max_degree_; }

  /// Incident edge ids of v; index into this span is v's port number.
  [[nodiscard]] std::span<const EdgeId> incident_edges(NodeId v) const {
    DMATCH_EXPECTS(v >= 0 && v < n_);
    const auto begin = adj_offset_[static_cast<std::size_t>(v)];
    const auto end = adj_offset_[static_cast<std::size_t>(v) + 1];
    return {adj_edges_.data() + begin, adj_edges_.data() + end};
  }

  /// The endpoint of e that is not v. Requires v to be an endpoint of e.
  [[nodiscard]] NodeId other_endpoint(EdgeId e, NodeId v) const {
    const Edge& ed = edge(e);
    DMATCH_EXPECTS(ed.u == v || ed.v == v);
    return ed.u == v ? ed.v : ed.u;
  }

  /// Neighbor of v reached through port p.
  [[nodiscard]] NodeId neighbor(NodeId v, int p) const {
    return other_endpoint(incident_edges(v)[static_cast<std::size_t>(p)], v);
  }

  /// Port of v whose incident edge is e (inverse of incident_edges).
  [[nodiscard]] int port_of_edge(NodeId v, EdgeId e) const {
    const Edge& ed = edge(e);
    DMATCH_EXPECTS(ed.u == v || ed.v == v);
    return ed.u == v ? port_in_u_[static_cast<std::size_t>(e)]
                     : port_in_v_[static_cast<std::size_t>(e)];
  }

  /// Edge id between u and v, or kNoEdge. O(min degree).
  [[nodiscard]] EdgeId find_edge(NodeId u, NodeId v) const;

  [[nodiscard]] Weight total_weight() const noexcept;
  [[nodiscard]] Weight max_weight() const noexcept;

  /// Two-color the graph if bipartite; side[v] in {0,1}. nullopt otherwise.
  /// Isolated nodes get side 0.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> bipartition() const;

  struct Subgraph;
  /// Subgraph on the same node set keeping only edges where keep[e] is true.
  /// Returned graph reuses node ids; edge ids are renumbered, and
  /// `original_edge` maps new ids back.
  [[nodiscard]] Subgraph edge_subgraph(const std::vector<char>& keep) const;

 private:
  NodeId n_ = 0;
  int max_degree_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::size_t> adj_offset_;  // size n+1
  std::vector<EdgeId> adj_edges_;        // size 2m
  std::vector<int> port_in_u_;           // per edge: port at endpoint u
  std::vector<int> port_in_v_;           // per edge: port at endpoint v
};

struct Graph::Subgraph {
  Graph graph;
  std::vector<EdgeId> original_edge;
};

}  // namespace dmatch
