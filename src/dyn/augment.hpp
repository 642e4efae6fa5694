// Beyond-maximal repair: after an epoch's Israeli–Itai pass restores
// maximality, re-run the paper's augmenting machinery (Algorithm 1/3:
// color-sampled bipartite subgraphs + length-bounded augment phases)
// restricted to the dirty region, lifting the repaired matching from
// 1/2-approximate to (1 - 1/k) of the live optimum.
//
// The driver mirrors core/general_mcm on the *persistent* universe
// network instead of a per-iteration subgraph network:
//
//  * colors are drawn host-side as a pure hash of (seed, epoch,
//    iteration, node) — deterministic regardless of region enumeration
//    order, thread count or shard count — and the shortest leftover path
//    (known from the gating oracle) is overridden with the alternating
//    pattern, so each iteration provably augments at least one path
//    while the hash colors diversify which other paths join it;
//  * participants are the active region nodes that are live and in V^
//    (free, or matched along a bichromatic edge). A matched active pair
//    is either both-in or both-out of V^ (the color comparison is
//    symmetric), so the bipartite protocol's precondition — a
//    participant's matched edge joins two participants — holds by
//    construction;
//  * eligible edges are the alive bichromatic active–active edges; the
//    augment phases run through core's region-restricted run_phase,
//    which parks every non-participant (nullptr factory: never
//    scheduled, registers frozen) and filters every flood to the
//    eligible set — per-iteration cost is proportional to the region;
//  * after the phases the registers fold back through the incremental
//    extract (extract_matching_resilient over the active set), exactly
//    like the repair pass itself;
//  * termination is oracle-first and deterministic: the exact path
//    enumerator (graph/augmenting's PathEnumerator, started from the
//    region's live nodes and filtered to alive edges inside the region)
//    gates every driver iteration — no color sample is ever drawn unless
//    an augmenting path of length <= 2k-1 provably survives inside the
//    region, and the loop stops the moment the region runs dry
//    (oracle_clean). Frozen boundary pairs sit outside the active set;
//    their matched edge exits the region, so they can pin path
//    *endpoints* but never appear as interiors — paths they block are
//    exactly the boundary-crossing ones the caller's host-side leftover
//    sweep closes (dyn/repair.hpp);
//  * every per-node and per-edge mask lives in an AugmentScratch the
//    caller keeps across calls, touched only at the region's entries, so
//    a call costs what its region holds, never O(n + m).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "dyn/dyn_graph.hpp"
#include "graph/matching.hpp"
#include "support/stamp_set.hpp"

namespace dmatch::dyn {

struct AugmentOptions {
  /// Approximation target (1 - 1/k); phases run ell = 1, 3, ..., 2k-1.
  int quality_k = 2;
  /// Color-draw stream: decorrelated from the network seed so the
  /// augment lottery and the repair protocol never share randomness.
  std::uint64_t seed = 1;
  /// Epoch index folded into the color draws (fresh colors per epoch).
  std::uint64_t epoch_index = 0;
  /// Hard iteration cap; 0 = general_mcm_paper_budget(quality_k).
  int max_iterations = 0;
};

struct AugmentReport {
  int iterations = 0;        // color-sample iterations executed
  int phase_iterations = 0;  // augment iterations across all phases
  std::ptrdiff_t gained = 0; // matched pairs gained over the input
  /// True iff the final oracle check found no augmenting path of length
  /// <= 2k-1 inside the active region. False only when the paper budget
  /// ran out first (w.h.p. never at sane sizes).
  bool oracle_clean = false;
  congest::RunStats stats;
};

/// augment_region's per-node and per-edge masks, kept by the caller
/// across calls. Between calls the masks are all zero; a call sets only
/// its region's entries and clears them again, and grows them with the
/// graph.
struct AugmentScratch {
  std::vector<std::uint8_t> side;  // by node; read at participants only
  std::vector<char> participants;  // by node
  std::vector<char> eligible;      // by edge
  support::StampSet in_cand;       // live members of the active set
};

/// Run the region-restricted augment loop on `net` (the repair engine's
/// persistent universe network, registers holding `matching`). `active`
/// is the sorted re-match set from dyn/invalidate (dead members are
/// skipped internally); pass every live vertex for a whole-graph pass.
/// Updates `matching` in place; the registers hold the same result.
AugmentReport augment_region(congest::Network& net, const DynGraph& g,
                             std::span<const NodeId> active,
                             Matching& matching,
                             const AugmentOptions& options,
                             AugmentScratch& scratch);

}  // namespace dmatch::dyn
