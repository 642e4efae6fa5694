// Invalidation tracker: maps an epoch's update ops to the k-hop dirty
// region the repair engine must re-match.
//
// Seeds are the vertices an op touched, plus — crucially — the *freed
// mates*: when a matched edge dies (edge delete or endpoint departure),
// both former partners become free and may now root augmenting paths, so
// they seed the frontier even though only one of them appears in the op.
// The region is the union of k-hop BFS balls (over currently-alive
// edges) around the seeds.
//
// Region nodes are then split for the frozen-boundary protocol:
//  * frozen — region nodes whose (post-op) mate lies OUTSIDE the region.
//    Their matched edge is provably untouched by the epoch, so the
//    repair run pins it: the Israeli–Itai engine sees their register
//    already set, announces kMatched and halts them in round 0.
//  * active — everything else in the region, plus the "free ring": free
//    live neighbors of the region. The ring closes the maximality gap —
//    a free node just outside the region adjacent to a node freed inside
//    it must be allowed to match, or the repaired matching could leave a
//    live edge with both endpoints free.
//
// With the pre-epoch matching maximal, re-running maximal matching on
// the active set (frozen pairs pinned) yields a matching that is maximal
// on the whole live graph — the differential tests in tests/test_dyn.cpp
// hold this against a from-scratch recompute every epoch.
#pragma once

#include <span>
#include <vector>

#include "dyn/dyn_graph.hpp"
#include "dyn/update.hpp"
#include "support/stamp_set.hpp"

namespace dmatch::dyn {

struct DirtyRegion {
  std::vector<NodeId> nodes;   // k-hop ball around the seeds (sorted)
  std::vector<NodeId> active;  // nodes to re-match (sorted; incl. free ring)
  std::vector<NodeId> frozen;  // region nodes pinned to an outside mate (sorted)
};

/// Seed vertices for an epoch: op-touched endpoints plus freed mates.
/// `mate_before` is the pre-epoch mate-node array (kNoNode = free); the
/// caller applies ops to it as it applies them to the DynGraph, passing
/// the PRE-op view here op by op via collect_seeds.
class InvalidationTracker {
 public:
  explicit InvalidationTracker(NodeId n) {
    seeded_.grow(static_cast<std::size_t>(n));
  }

  /// Record one op's seeds. `mate_of_u` / `mate_of_v` are the mates at
  /// the moment the op applies (kNoNode if free / not applicable).
  void touch_op(const UpdateOp& op, NodeId mate_of_u, NodeId mate_of_v);

  /// Directly mark a vertex dirty (service-internal events, e.g. a
  /// vertex revived by rebuild).
  void touch(NodeId v);

  [[nodiscard]] bool empty() const noexcept { return seeds_.empty(); }
  [[nodiscard]] std::span<const NodeId> seeds() const noexcept {
    return seeds_;
  }

  /// Expand seeds into the dirty region on the current graph state.
  /// `mate_now` is the post-epoch mate array (dead pairs already
  /// cleared). `hops` >= 1. With `reset` (the default) the tracker is
  /// cleared for the next epoch; pass false to keep the seeds pending —
  /// the quality path expands the narrow repair core first, repairs,
  /// then expands the wide augment arena from the same seeds (with the
  /// post-repair mate view, so the frozen split is exact).
  [[nodiscard]] DirtyRegion expand(const DynGraph& g,
                                   std::span<const NodeId> mate_now,
                                   int hops, bool reset = true);

  /// Drop pending seeds (a full recompute supersedes them).
  void reset();

 private:
  std::vector<NodeId> seeds_;
  // Epoch-stamped, so neither the per-epoch reset nor an expand costs
  // O(n): seeded_ dedups seeds_, in_region_ marks an expand's region
  // (ball plus ring).
  support::StampSet seeded_;
  support::StampSet in_region_;
};

}  // namespace dmatch::dyn
