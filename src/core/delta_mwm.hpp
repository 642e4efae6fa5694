// Constant-factor distributed MWM black boxes for Algorithm 5.
//
// Theorem 4.5 needs any delta-MWM with constant delta > 0 and polylog
// rounds. The paper plugs in the 1/5-MWM of the PODC 2007 companion paper
// (Lemma 4.4); as DESIGN.md note 5 explains, we substitute:
//
//  * class_greedy_mwm -- round weights to powers of two, drop edges lighter
//    than eps' * w_max / n (they total at most eps' * OPT), and compute a
//    maximal matching per class, heaviest class first, with Israeli-Itai.
//    A class-greedy maximal matching 2-approximates the rounded optimum
//    (every optimal edge is blocked by a no-lighter-class edge, each
//    blocker blocks at most two), so delta >= (1 - eps') / 4 overall, in
//    O(log(n/eps') * log n) rounds w.h.p.
//
//  * locally_dominant_mwm -- Preis/Hoepman-style: repeatedly match edges
//    that are the heaviest at both endpoints. delta = 1/2 but Theta(n)
//    rounds in the worst case (a strictly decreasing weight chain);
//    included as the quality baseline / ablation arm.
#pragma once

#include <cstdint>

#include "congest/network.hpp"
#include "congest/resilient.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"

namespace dmatch {

struct DeltaMwmOptions {
  std::uint64_t seed = 1;
  std::uint32_t congest_factor = 48;
  int max_rounds = 1 << 20;
  /// Fraction of OPT sacrificed by dropping ultra-light edges (class box).
  double class_epsilon = 0.25;
  /// Fault plan for the box's private network. An active plan runs every
  /// internal protocol under the resilient link layer with
  /// checkpoint/restart recovery; crash schedules are keyed by node id,
  /// so a driver handing its own plan down sees a consistent failure
  /// history (the box graph preserves the caller's node-id space).
  congest::FaultPlan fault;
  /// Round-engine worker count for the box network (0 = hardware).
  unsigned num_threads = 0;
  /// ARQ tuning for the resilient link layer (fault mode only).
  congest::ResilientOptions arq;
  /// Observability sink for the box's private network (not owned).
  obs::Observer* observer = nullptr;
};

struct DeltaMwmResult {
  Matching matching;
  congest::RunStats stats;
  /// The approximation factor this box guarantees for the run parameters.
  double delta_guarantee = 0;
  /// What the box gave up under an active fault plan (all-false without).
  congest::DegradationReport degradation;
};

/// All edge weights must be positive.
DeltaMwmResult class_greedy_mwm(const Graph& g,
                                const DeltaMwmOptions& options = {});
DeltaMwmResult locally_dominant_mwm(const Graph& g,
                                    const DeltaMwmOptions& options = {});

}  // namespace dmatch
