#include "dyn/dyn_graph.hpp"

#include <algorithm>
#include <utility>

namespace dmatch::dyn {

DynGraph::DynGraph(Graph initial) : universe_(std::move(initial)) {
  const auto m = static_cast<std::size_t>(universe_.edge_count());
  const auto n = static_cast<std::size_t>(universe_.node_count());
  live_edge_.assign(m, 1);
  weight_.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    weight_[e] = universe_.edge(static_cast<EdgeId>(e)).w;
  }
  live_vertex_.assign(n, 1);
  live_vertices_ = universe_.node_count();
  live_edges_ = universe_.edge_count();
  pending_n_ = universe_.node_count();
}

std::ptrdiff_t DynGraph::pending_index(NodeId u, NodeId v) const {
  if (u > v) std::swap(u, v);
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].u == u && pending_[i].v == v) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

void DynGraph::apply(const UpdateOp& op) {
  switch (op.kind) {
    case OpKind::kEdgeInsert: {
      DMATCH_EXPECTS(op.u >= 0 && op.v >= 0 && op.u != op.v);
      NodeId u = op.u, v = op.v;
      if (u > v) std::swap(u, v);
      pending_n_ = std::max(pending_n_, static_cast<NodeId>(v + 1));
      if (v < universe_.node_count()) {
        const EdgeId e = universe_.find_edge(u, v);
        if (e != kNoEdge) {
          // Known pair: revive in place (idempotent if already live).
          auto& flag = live_edge_[static_cast<std::size_t>(e)];
          if (flag == 0) {
            flag = 1;
            ++live_edges_;
          }
          weight_[static_cast<std::size_t>(e)] = op.w;
          return;
        }
      }
      const std::ptrdiff_t p = pending_index(u, v);
      if (p >= 0) {
        pending_[static_cast<std::size_t>(p)].w = op.w;  // re-insert: re-weight
      } else {
        pending_.push_back(Edge{u, v, op.w});
      }
      return;
    }
    case OpKind::kEdgeDelete: {
      DMATCH_EXPECTS(op.u >= 0 && op.v >= 0 && op.u != op.v);
      NodeId u = op.u, v = op.v;
      if (u > v) std::swap(u, v);
      if (v < universe_.node_count()) {
        const EdgeId e = universe_.find_edge(u, v);
        if (e != kNoEdge) {
          auto& flag = live_edge_[static_cast<std::size_t>(e)];
          if (flag != 0) {
            flag = 0;
            --live_edges_;
          }
          return;
        }
      }
      // Deleting a pair that only exists in the pending queue: unqueue it.
      const std::ptrdiff_t p = pending_index(u, v);
      if (p >= 0) {
        pending_.erase(pending_.begin() + p);
      }
      return;
    }
    case OpKind::kEdgeWeight: {
      DMATCH_EXPECTS(op.u >= 0 && op.v >= 0 && op.u != op.v);
      NodeId u = op.u, v = op.v;
      if (u > v) std::swap(u, v);
      if (v < universe_.node_count()) {
        const EdgeId e = universe_.find_edge(u, v);
        if (e != kNoEdge) {
          weight_[static_cast<std::size_t>(e)] = op.w;
          return;
        }
      }
      const std::ptrdiff_t p = pending_index(u, v);
      if (p >= 0) pending_[static_cast<std::size_t>(p)].w = op.w;
      return;  // re-weighting an unknown pair is a no-op
    }
    case OpKind::kVertexDepart: {
      DMATCH_EXPECTS(op.u >= 0);
      if (op.u >= universe_.node_count()) {
        // Not yet materialized: remember the departure for rebuild().
        if (op.u < pending_n_ &&
            std::find(pending_dead_.begin(), pending_dead_.end(), op.u) ==
                pending_dead_.end()) {
          pending_dead_.push_back(op.u);
        }
        return;
      }
      auto& flag = live_vertex_[static_cast<std::size_t>(op.u)];
      if (flag != 0) {
        flag = 0;
        --live_vertices_;
      }
      return;
    }
    case OpKind::kVertexReturn: {
      DMATCH_EXPECTS(op.u >= 0);
      pending_n_ = std::max(pending_n_, static_cast<NodeId>(op.u + 1));
      if (op.u >= universe_.node_count()) {
        const auto it =
            std::find(pending_dead_.begin(), pending_dead_.end(), op.u);
        if (it != pending_dead_.end()) pending_dead_.erase(it);
        return;  // materializes (live) at rebuild
      }
      auto& flag = live_vertex_[static_cast<std::size_t>(op.u)];
      if (flag == 0) {
        flag = 1;
        ++live_vertices_;
      }
      return;
    }
  }
}

void DynGraph::rebuild() {
  DMATCH_EXPECTS(needs_rebuild());
  const auto old_m = static_cast<std::size_t>(universe_.edge_count());
  const NodeId n = std::max(pending_n_, universe_.node_count());
  // Append the pending pairs after EVERY old edge — dead ones included —
  // so pairs that flap back later never trigger another rebuild, and old
  // edge ids and ports stay put, so the parallel arrays extend
  // positionally.
  universe_.add_edges(n, pending_);
  live_edge_.resize(old_m + pending_.size(), 1);
  weight_.resize(old_m + pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    weight_[old_m + i] = pending_[i].w;
  }
  live_edges_ += static_cast<EdgeId>(pending_.size());
  // Vertices born in this rebuild start live (a pending pair implies its
  // endpoints are present; kVertexReturn on a fresh id likewise).
  live_vertex_.resize(static_cast<std::size_t>(n), 1);
  for (const NodeId v : pending_dead_) {
    live_vertex_[static_cast<std::size_t>(v)] = 0;
  }
  live_vertices_ = 0;
  for (const char f : live_vertex_) live_vertices_ += f != 0 ? 1 : 0;
  pending_.clear();
  pending_dead_.clear();
  pending_n_ = n;
  ++generation_;
  DMATCH_ENSURES(!needs_rebuild());
}

Graph DynGraph::snapshot(std::vector<EdgeId>* universe_edge) const {
  const auto m = static_cast<std::size_t>(universe_.edge_count());
  std::vector<char> keep(m, 0);
  for (std::size_t e = 0; e < m; ++e) {
    keep[e] = edge_alive(static_cast<EdgeId>(e)) ? 1 : 0;
  }
  auto sub = universe_.edge_subgraph(keep);
  // edge_subgraph copies universe weights; overlay the effective ones.
  std::vector<Edge> edges;
  edges.reserve(sub.original_edge.size());
  for (std::size_t i = 0; i < sub.original_edge.size(); ++i) {
    Edge ed = sub.graph.edge(static_cast<EdgeId>(i));
    ed.w = weight_[static_cast<std::size_t>(sub.original_edge[i])];
    edges.push_back(ed);
  }
  if (universe_edge != nullptr) *universe_edge = std::move(sub.original_edge);
  return Graph::from_edges(universe_.node_count(), std::move(edges));
}

std::vector<char> DynGraph::dead_mask() const {
  std::vector<char> dead(live_vertex_.size());
  for (std::size_t v = 0; v < live_vertex_.size(); ++v) {
    dead[v] = live_vertex_[v] != 0 ? 0 : 1;
  }
  return dead;
}

}  // namespace dmatch::dyn
