#include "dyn/invalidate.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace dmatch::dyn {

void InvalidationTracker::touch(NodeId v) {
  if (v < 0) return;
  const auto vi = static_cast<std::size_t>(v);
  seeded_.grow(vi + 1);  // the id space may have grown (pending rebuild)
  if (seeded_.insert(vi)) seeds_.push_back(v);
}

void InvalidationTracker::touch_op(const UpdateOp& op, NodeId mate_of_u,
                                   NodeId mate_of_v) {
  switch (op.kind) {
    case OpKind::kEdgeInsert:
    case OpKind::kEdgeWeight:
      touch(op.u);
      touch(op.v);
      break;
    case OpKind::kEdgeDelete:
      touch(op.u);
      touch(op.v);
      // If the deleted edge was the matched edge, both endpoints are now
      // free and root augmenting frontiers. (mate_of_u == v iff so.)
      if (mate_of_u == op.v) {
        touch(mate_of_u);
        touch(mate_of_v);
      }
      break;
    case OpKind::kVertexDepart:
      touch(op.u);
      touch(mate_of_u);  // the widowed partner becomes free
      break;
    case OpKind::kVertexReturn:
      touch(op.u);
      break;
  }
}

void InvalidationTracker::reset() {
  seeds_.clear();
  seeded_.clear();
}

DirtyRegion InvalidationTracker::expand(const DynGraph& g,
                                        std::span<const NodeId> mate_now,
                                        int hops, bool reset) {
  DMATCH_EXPECTS(hops >= 1);
  const auto n = static_cast<std::size_t>(g.node_count());
  DMATCH_EXPECTS(mate_now.size() >= n);
  in_region_.grow(n);
  in_region_.clear();

  DirtyRegion region;
  // BFS over alive edges, k levels, in deterministic (sorted-seed) order.
  // Afterwards `frontier` holds the outermost layer (depth == hops), or
  // nothing if the BFS ran dry earlier; the frozen-boundary argument and
  // the ring below rest on it.
  std::vector<NodeId> frontier;
  for (const NodeId s : seeds_) {
    if (s < 0 || static_cast<std::size_t>(s) >= n) continue;  // departed-forever ids
    if (!in_region_.insert(static_cast<std::size_t>(s))) continue;
    frontier.push_back(s);
  }
  std::sort(frontier.begin(), frontier.end());
  region.nodes = frontier;
  const Graph& u = g.universe();
  for (int level = 0; level < hops && !frontier.empty(); ++level) {
    std::vector<NodeId> next;
    for (const NodeId v : frontier) {
      if (!g.vertex_live(v)) continue;  // dead nodes are in-region but opaque
      for (const EdgeId e : u.incident_edges(v)) {
        if (!g.edge_alive(e)) continue;
        const NodeId w = u.other_endpoint(e, v);
        if (!in_region_.insert(static_cast<std::size_t>(w))) continue;
        next.push_back(w);
      }
    }
    std::sort(next.begin(), next.end());
    region.nodes.insert(region.nodes.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  std::sort(region.nodes.begin(), region.nodes.end());

  // Split region into frozen (pinned outside-mate pairs) and active; then
  // extend active with the free ring. in_region_ currently marks region
  // membership, which is exactly what the frozen test needs.
  for (const NodeId v : region.nodes) {
    const NodeId mate = mate_now[static_cast<std::size_t>(v)];
    const bool pinned = mate != kNoNode &&
                        !in_region_.contains(static_cast<std::size_t>(mate));
    if (pinned) {
      // Frozen-boundary rule, re-proved for alternating paths: a pinned
      // node must sit on the region's outermost BFS layer. If it sat at
      // depth < hops, it is matched hence live (dead nodes are never
      // matched), so the BFS expanded it; its matched edge is alive
      // (matched pairs ride alive edges), so the mate would have been
      // visited one level deeper -- inside the region, contradiction.
      // Consequence: any alternating path that uses a frozen pair must
      // *end* at it (the pair's matched edge exits the region, so the
      // pair cannot be a path interior) -- widening the radius to
      // 2k-1 hops therefore suffices for length-(2k-1) augmenting paths.
      DMATCH_ASSERT(static_cast<std::size_t>(mate) >= n ||
                    std::binary_search(frontier.begin(), frontier.end(), v));
      region.frozen.push_back(v);
    } else {
      region.active.push_back(v);
    }
  }
  // Free ring: free live neighbors of the region join the active set so
  // the repaired matching stays maximal across the boundary. The BFS put
  // every alive neighbor of a live node above the outermost layer into
  // the region, so only that layer (`frontier`) can have neighbors
  // outside it.
  std::vector<NodeId> ring;
  for (const NodeId v : frontier) {
    if (!g.vertex_live(v)) continue;
    for (const EdgeId e : u.incident_edges(v)) {
      if (!g.edge_alive(e)) continue;
      const NodeId w = u.other_endpoint(e, v);
      const auto wi = static_cast<std::size_t>(w);
      if (in_region_.contains(wi)) continue;  // in region (or already ringed)
      if (mate_now[wi] != kNoNode) continue;
      in_region_.insert(wi);
      ring.push_back(w);
    }
  }
  std::sort(ring.begin(), ring.end());
  region.active.insert(region.active.end(), ring.begin(), ring.end());
  std::sort(region.active.begin(), region.active.end());

  // Without `reset` the seeds stay pending for a second, wider expand.
  if (reset) this->reset();
  return region;
}

}  // namespace dmatch::dyn
