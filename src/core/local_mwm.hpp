// Section 4's closing Remark: a (1 - eps)-MWM in the LOCAL model, by
// adapting the PRAM algorithm of Hougardy & Vinkemeier [2006] with
// Algorithm 2's view exploration (also reported independently by
// Nieberg [2008]).
//
// Per sweep (repeated O(1/eps) times, or until an exact oracle certifies
// local optimality), one run of the LOCAL augmentation engine
// (core/local_augment.hpp) that Algorithms 1 + 2 also run:
//   * view stage: flood node/edge/weight records to radius 2L,
//     L = 2k + 1, k = ceil(1/eps);
//   * local stage: each node enumerates the positive-gain alternating
//     augmentations (paths AND cycles, Lemma 4.2's objects) of at most L
//     edges that it leads (leader = the smaller endpoint of a path, the
//     minimum node of a cycle), plus the conflict sets from its 2L-view;
//   * class stage: augmentation gains are bucketed into O(log(n/eps))
//     geometric classes below the leader's bound G = L * (the heaviest
//     edge record in its view), not a global W_max; for each class,
//     heaviest first, one Luby MIS is emulated on the conflict graph
//     restricted to that class (records flooded 2L rounds per iteration,
//     as in the unweighted LOCAL algorithm); selections knock out
//     intersecting augmentations of all classes;
//   * augment stage (L + 2 rounds): selected (pairwise disjoint)
//     augmentations are applied by walking their node sequence.
//
// When the adaptive driver stops, no positive-gain augmentation with
// <= k unmatched edges remains, so Lemma 4.2 gives
// w(M) >= k/(k+1) w(M*) >= (1 - eps) w(M*) deterministically.
#pragma once

#include <cstdint>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"

namespace dmatch {

/// Each sweep runs ceil((L+1) * log2 n) MIS iterations per gain class.
struct LocalMwmOptions {
  double epsilon = 0.34;  // k = ceil(1/eps)
  /// Stop sweeping once the oracle finds no positive augmentation of
  /// length <= L; otherwise run the paper's fixed ceil(4/eps) sweeps.
  bool adaptive_sweeps = true;
  std::uint64_t seed = 1;
};

struct LocalMwmResult {
  Matching matching;
  congest::RunStats stats;
  int sweeps = 0;
  double guarantee = 0;  // k/(k+1) for the adaptive mode
};

LocalMwmResult local_one_minus_eps_mwm(const Graph& g,
                                       const LocalMwmOptions& options = {});

}  // namespace dmatch
