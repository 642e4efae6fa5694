// Algorithms 1 + 2 / Theorem 3.7: the generic (1 - eps)-MCM in the LOCAL
// model (unbounded, but fully accounted, message sizes).
//
// Per phase ell = 1, 3, ..., 2k-1 (k = ceil(1/eps)), one run of the LOCAL
// augmentation engine (core/local_augment.hpp) that Section 4's
// (1 - eps)-MWM remark also runs, with one MIS class:
//   * view stage (2*ell rounds): every node floods node/edge records until
//     it holds its distance-2*ell view (Algorithm 2's exploration);
//   * local stage: each node enumerates the augmenting paths of length
//     <= ell it leads (leader = endpoint with smaller id) and, from its
//     2*ell view, the set of paths intersecting each of its paths -- the
//     conflict graph C_M(ell) seen locally;
//   * MIS stage (T iterations x 2*ell rounds): Luby's algorithm emulated on
//     C_M(ell): leaders draw one value per undecided path, flood
//     (signature, value, status) records for 2*ell rounds, then decide
//     joins locally; joins propagate as status=in records one iteration
//     later (Lemma 3.5's emulation);
//   * augment stage (ell + 1 rounds): leaders of selected paths send the
//     path description along it; every node on it repoints its register.
//
// Message sizes are Theta(local view size) bits, exhibiting the
// O((|V|+|E|) log n) blow-up of Lemma 3.4; experiment E9 measures it.
#pragma once

#include <cstdint>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"

namespace dmatch {

/// Each phase runs ceil(log2(n^(ell+1))) MIS iterations and re-runs while
/// the oracle still finds an augmenting path of at most ell edges (the
/// fixed budget fails only w.h.p.; `phase_retries` counts the re-runs).
struct LocalGenericOptions {
  /// Approximation parameter; k = ceil(1/eps) phases of odd lengths.
  double epsilon = 0.34;
  std::uint64_t seed = 1;
};

struct LocalGenericResult {
  Matching matching;
  congest::RunStats stats;
  int phases = 0;
  int phase_retries = 0;
};

LocalGenericResult local_generic_mcm(const Graph& g,
                                     const LocalGenericOptions& options = {});

}  // namespace dmatch
