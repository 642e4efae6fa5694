#include "graph/graph.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

namespace dmatch {

Graph Graph::from_edges(NodeId n, std::vector<Edge> edges) {
  DMATCH_EXPECTS(n >= 0);
  Graph g;
  g.n_ = n;
  for (Edge& e : edges) {
    DMATCH_EXPECTS(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n);
    DMATCH_EXPECTS(e.u != e.v);
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  // Reject duplicates: sort a copy of (u,v) pairs and scan.
  {
    std::vector<std::pair<NodeId, NodeId>> keys;
    keys.reserve(edges.size());
    for (const Edge& e : edges) keys.emplace_back(e.u, e.v);
    std::sort(keys.begin(), keys.end());
    DMATCH_EXPECTS(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  }
  g.edges_ = std::move(edges);

  std::vector<std::size_t> deg(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : g.edges_) {
    ++deg[static_cast<std::size_t>(e.u) + 1];
    ++deg[static_cast<std::size_t>(e.v) + 1];
  }
  g.adj_offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    g.adj_offset_[static_cast<std::size_t>(v) + 1] =
        g.adj_offset_[static_cast<std::size_t>(v)] +
        deg[static_cast<std::size_t>(v) + 1];
  }
  g.adj_edges_.assign(g.adj_offset_.back(), kNoEdge);
  g.port_in_u_.assign(g.edges_.size(), -1);
  g.port_in_v_.assign(g.edges_.size(), -1);

  std::vector<std::size_t> cursor(g.adj_offset_.begin(),
                                  g.adj_offset_.end() - 1);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edges_[static_cast<std::size_t>(e)];
    const std::size_t pu = cursor[static_cast<std::size_t>(ed.u)]++;
    const std::size_t pv = cursor[static_cast<std::size_t>(ed.v)]++;
    g.adj_edges_[pu] = e;
    g.adj_edges_[pv] = e;
    g.port_in_u_[static_cast<std::size_t>(e)] = static_cast<int>(
        pu - g.adj_offset_[static_cast<std::size_t>(ed.u)]);
    g.port_in_v_[static_cast<std::size_t>(e)] = static_cast<int>(
        pv - g.adj_offset_[static_cast<std::size_t>(ed.v)]);
  }
  for (NodeId v = 0; v < n; ++v) {
    g.max_degree_ = std::max(g.max_degree_, g.degree(v));
  }
  return g;
}

void Graph::add_edges(NodeId n, std::span<const Edge> extra) {
  DMATCH_EXPECTS(n >= n_);
  const auto old_m = edges_.size();
  // Validate everything before the first write. `inc` lists every new
  // (endpoint, edge id) incidence; sorted, it gives each node's new edges
  // in id order, which is the port order from_edges would give them.
  std::vector<std::pair<NodeId, NodeId>> keys;
  std::vector<std::pair<NodeId, EdgeId>> inc;
  keys.reserve(extra.size());
  inc.reserve(2 * extra.size());
  for (std::size_t i = 0; i < extra.size(); ++i) {
    const Edge& x = extra[i];
    DMATCH_EXPECTS(x.u >= 0 && x.u < n && x.v >= 0 && x.v < n);
    DMATCH_EXPECTS(x.u != x.v);
    const NodeId u = std::min(x.u, x.v);
    const NodeId v = std::max(x.u, x.v);
    DMATCH_EXPECTS(v >= n_ || find_edge(u, v) == kNoEdge);
    keys.emplace_back(u, v);
    const auto e = static_cast<EdgeId>(old_m + i);
    inc.emplace_back(u, e);
    inc.emplace_back(v, e);
  }
  std::sort(keys.begin(), keys.end());
  DMATCH_EXPECTS(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  std::sort(inc.begin(), inc.end());

  for (std::size_t i = 0; i < extra.size(); ++i) {
    edges_.push_back(Edge{std::min(extra[i].u, extra[i].v),
                          std::max(extra[i].u, extra[i].v), extra[i].w});
  }
  port_in_u_.resize(edges_.size(), -1);
  port_in_v_.resize(edges_.size(), -1);
  const std::size_t old_slots = adj_edges_.size();
  adj_offset_.resize(static_cast<std::size_t>(n) + 1, old_slots);
  adj_edges_.resize(old_slots + inc.size(), kNoEdge);

  // One backward pass over the touched nodes, highest first. At node v's
  // turn, the old entries in [v's old segment end, `end`) belong to the
  // nodes above v that have not moved yet; they, and their offsets in
  // (v, upper], move up by `i`, the number of new incidences at nodes
  // <= v. v's new edges fill the gap right after its old segment, at the
  // ports after its old ones.
  std::size_t end = old_slots;
  std::size_t upper = static_cast<std::size_t>(n);
  std::size_t i = inc.size();
  while (i > 0) {
    const NodeId v = inc[i - 1].first;
    const auto vi = static_cast<std::size_t>(v);
    std::size_t j = i;
    while (j > 0 && inc[j - 1].first == v) --j;  // inc[j, i) are v's
    const std::size_t seg_begin = adj_offset_[vi];
    const std::size_t seg_end = adj_offset_[vi + 1];
    const auto at = [this](std::size_t k) {
      return adj_edges_.begin() + static_cast<std::ptrdiff_t>(k);
    };
    std::move_backward(at(seg_end), at(end), at(end + i));
    const int old_deg = static_cast<int>(seg_end - seg_begin);
    for (std::size_t k = j; k < i; ++k) {
      const EdgeId e = inc[k].second;
      adj_edges_[seg_end + k] = e;
      const int port = old_deg + static_cast<int>(k - j);
      const Edge& ed = edges_[static_cast<std::size_t>(e)];
      (ed.u == v ? port_in_u_ : port_in_v_)[static_cast<std::size_t>(e)] =
          port;
    }
    max_degree_ = std::max(max_degree_, old_deg + static_cast<int>(i - j));
    for (std::size_t w = vi + 1; w <= upper; ++w) adj_offset_[w] += i;
    upper = vi;
    end = seg_end;
    i = j;
  }
  n_ = n;
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  DMATCH_EXPECTS(u >= 0 && u < n_ && v >= 0 && v < n_);
  const NodeId probe = degree(u) <= degree(v) ? u : v;
  const NodeId target = probe == u ? v : u;
  for (EdgeId e : incident_edges(probe)) {
    if (other_endpoint(e, probe) == target) return e;
  }
  return kNoEdge;
}

Weight Graph::total_weight() const noexcept {
  Weight sum = 0;
  for (const Edge& e : edges_) sum += e.w;
  return sum;
}

Weight Graph::max_weight() const noexcept {
  Weight best = 0;
  for (const Edge& e : edges_) best = std::max(best, e.w);
  return best;
}

std::optional<std::vector<std::uint8_t>> Graph::bipartition() const {
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n_), 2);
  std::queue<NodeId> queue;
  for (NodeId root = 0; root < n_; ++root) {
    if (side[static_cast<std::size_t>(root)] != 2) continue;
    side[static_cast<std::size_t>(root)] = 0;
    queue.push(root);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop();
      for (EdgeId e : incident_edges(v)) {
        const NodeId u = other_endpoint(e, v);
        auto& su = side[static_cast<std::size_t>(u)];
        if (su == 2) {
          su = static_cast<std::uint8_t>(
              1 - side[static_cast<std::size_t>(v)]);
          queue.push(u);
        } else if (su == side[static_cast<std::size_t>(v)]) {
          return std::nullopt;
        }
      }
    }
  }
  return side;
}

Graph::Subgraph Graph::edge_subgraph(const std::vector<char>& keep) const {
  DMATCH_EXPECTS(keep.size() == edges_.size());
  Subgraph out;
  std::vector<Edge> kept;
  for (EdgeId e = 0; e < edge_count(); ++e) {
    if (keep[static_cast<std::size_t>(e)]) {
      kept.push_back(edges_[static_cast<std::size_t>(e)]);
      out.original_edge.push_back(e);
    }
  }
  out.graph = Graph::from_edges(n_, std::move(kept));
  return out;
}

}  // namespace dmatch
