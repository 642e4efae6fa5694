#include "dyn/augment.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/bipartite_mcm.hpp"
#include "core/general_mcm.hpp"
#include "graph/augmenting.hpp"
#include "support/assert.hpp"

namespace dmatch::dyn {

namespace {

/// Color draw for iteration `iter`: a pure splitmix-style hash of
/// (seed, epoch, iter, node). Host-side and order-free, so the sampled
/// G^ is identical across thread counts, shard counts and region
/// enumeration order — the property the bit-identity tests pin down.
std::uint8_t color_draw(std::uint64_t seed, std::uint64_t epoch,
                        std::uint64_t iter, NodeId v) {
  std::uint64_t z = seed;
  z ^= 0x9e3779b97f4a7c15ULL * (epoch + 1);
  z ^= 0xc2b2ae3d27d4eb4fULL * (iter + 1);
  z ^= 0x165667b19e3779f9ULL * (static_cast<std::uint64_t>(v) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::uint8_t>((z ^ (z >> 31)) & 1);
}

}  // namespace

AugmentReport augment_region(congest::Network& net, const DynGraph& g,
                             std::span<const NodeId> active,
                             Matching& matching,
                             const AugmentOptions& options,
                             AugmentScratch& scratch) {
  DMATCH_EXPECTS(options.quality_k >= 2);
  AugmentReport report;
  const Graph& u = g.universe();
  const auto n = static_cast<std::size_t>(u.node_count());
  const auto m = static_cast<std::size_t>(u.edge_count());
  if (scratch.side.size() < n) {
    scratch.side.resize(n, 0);
    scratch.participants.resize(n, 0);
  }
  if (scratch.eligible.size() < m) scratch.eligible.resize(m, 0);
  std::vector<std::uint8_t>& side = scratch.side;
  std::vector<char>& participants = scratch.participants;
  std::vector<char>& eligible = scratch.eligible;
  support::StampSet& in_cand = scratch.in_cand;

  // Live members of the active set. Dead region nodes are opaque — no
  // alive edge reaches them, so they can neither root nor carry a path.
  in_cand.grow(n);
  in_cand.clear();
  std::vector<NodeId> cands;
  for (const NodeId v : active) {
    if (!g.vertex_live(v)) continue;
    cands.push_back(v);
    in_cand.insert(static_cast<std::size_t>(v));
  }
  if (cands.empty()) {
    report.oracle_clean = true;
    return report;
  }

  const int k = options.quality_k;

  // The region's topology is fixed for the whole call: the alive edges
  // with both ends in the region. The exact oracle below enumerates it
  // from the region's own nodes and gates every iteration, so a region
  // with no augmenting path of length <= 2k-1 — the common case after
  // an Israeli–Itai repair — costs exactly one enumerator run and zero
  // network activity. Frozen pairs are excluded wholesale: their matched
  // edge exits the region, so no in-region path can use them as an
  // interior; the paths they *end* are boundary-crossing and belong to
  // the caller's host-side leftover sweep.
  const EdgeFilter in_region = [&g, &u, &in_cand](EdgeId e) {
    if (!g.edge_alive(e)) return false;
    const Edge& ed = u.edge(e);
    return in_cand.contains(static_cast<std::size_t>(ed.u)) &&
           in_cand.contains(static_cast<std::size_t>(ed.v));
  };
  // A node-disjoint batch of leftover augmenting paths (length <= 2k-1)
  // in the region; empty iff the region is dry. Batching lets one phase
  // run clear several paths at once — the runs' fixed cost, not the
  // per-path work, dominates at region scale.
  const auto leftover = [&]() {
    return greedy_disjoint_paths(
        u, enumerate_augmenting_paths(u, matching, 2 * k - 1, cands, 8,
                                      in_region));
  };

  const int budget = options.max_iterations > 0
                         ? options.max_iterations
                         : general_mcm_paper_budget(k);
  std::vector<NodeId> members;       // one iteration's participants, sorted
  std::vector<EdgeId> eligible_set;  // its eligible edges, to clear again

  for (;;) {
    const std::vector<std::vector<EdgeId>> guides = leftover();
    if (guides.empty()) {
      report.oracle_clean = true;
      break;
    }
    if (report.iterations >= budget) break;
    const int iter = report.iterations++;

    // Stage 1: sample G^ host-side. Participants = active, live, in V^
    // (free or matched bichromatically); a matched active pair is
    // both-in or both-out, so participants are mate-closed and the
    // bipartite protocol's matched-edge precondition holds.
    //
    // The hash colors alone expose a specific length-(2j-1) path with
    // probability 2^-2j, so a blind lottery wastes most iterations. The
    // gating oracle already holds a disjoint batch of leftover paths;
    // overriding their nodes with the alternating pattern puts every one
    // of them in G^ by construction, so each iteration provably augments
    // at least one path (typically the whole batch) and the loop runs at
    // most `gained` iterations. The override is pair-safe: augmenting-
    // path interiors use their matched edges within the path, so an
    // overridden node's mate is either on the same path (colored
    // oppositely) or the node is free — and the batch is node-disjoint,
    // so overrides never collide.
    for (const NodeId v : cands) {
      side[static_cast<std::size_t>(v)] = color_draw(
          options.seed, options.epoch_index,
          static_cast<std::uint64_t>(iter), v);
    }
    int ell = 1;
    for (const std::vector<EdgeId>& guide : guides) {
      ell = std::max(ell, static_cast<int>(guide.size()));
      // Recover the node walk from the guide path's edge sequence.
      const Edge& e0 = u.edge(guide.front());
      NodeId cur = e0.u;
      if (guide.size() > 1) {
        const Edge& e1 = u.edge(guide[1]);
        cur = (e0.u == e1.u || e0.u == e1.v) ? e0.v : e0.u;
      }
      side[static_cast<std::size_t>(cur)] = 0;
      std::uint8_t color = 0;
      for (const EdgeId e : guide) {
        cur = u.other_endpoint(e, cur);
        color ^= 1;
        side[static_cast<std::size_t>(cur)] = color;
      }
    }
    members.clear();
    for (const NodeId v : cands) {
      const NodeId w = matching.mate(v);
      // Active matched pairs are mate-closed (dyn/invalidate splits
      // frozen pairs out; repair and augment only rewire active-active).
      DMATCH_ASSERT(w == kNoNode ||
                    in_cand.contains(static_cast<std::size_t>(w)));
      if (w == kNoNode || side[static_cast<std::size_t>(v)] !=
                              side[static_cast<std::size_t>(w)]) {
        participants[static_cast<std::size_t>(v)] = 1;
        members.push_back(v);
      }
    }
    eligible_set.clear();
    for (const NodeId v : members) {
      for (const EdgeId e : u.incident_edges(v)) {
        if (!g.edge_alive(e)) continue;
        const NodeId w = u.other_endpoint(e, v);
        if (participants[static_cast<std::size_t>(w)] == 0) continue;
        if (side[static_cast<std::size_t>(w)] ==
            side[static_cast<std::size_t>(v)]) {
          continue;
        }
        char& mark = eligible[static_cast<std::size_t>(e)];
        if (mark == 0) eligible_set.push_back(e);
        mark = 1;
      }
    }
    DMATCH_ASSERT(!eligible_set.empty());  // the guide paths' edges

    // Stage 2: one augment iteration (counting BFS + lottery + trace-
    // back) at the longest guide's length, spawned on the participants
    // only; then fold the registers back through the incremental
    // extract. The driver's exact oracle above subsumes run_phase's
    // per-iteration masked oracle, so a bare iteration avoids two extra
    // O(n + m) passes per loop; paths the lottery leaves exposed simply
    // get the next iteration (with a fresh guide batch).
    AugmentRegion region;
    region.eligible_edges = &eligible;
    region.participants = &participants;
    region.nodes = members;
    report.stats.merge(run_augment_iteration(net, side, ell, region));
    ++report.phase_iterations;
    for (const NodeId v : members) {
      participants[static_cast<std::size_t>(v)] = 0;
    }
    for (const EdgeId e : eligible_set) {
      eligible[static_cast<std::size_t>(e)] = 0;
    }
    const std::ptrdiff_t gained_this = net.refresh_matching(active, matching);
    // The guided iteration cannot stall: the guide paths are in G^ and
    // the region's globally largest lottery token cannot be killed.
    DMATCH_ENSURES(gained_this >= 1);
    report.gained += gained_this;
  }
  return report;
}

}  // namespace dmatch::dyn
