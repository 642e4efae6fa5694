// Algorithm 5 / Theorem 4.5: (1/2 - eps)-approximate maximum weight
// matching via repeated delta-MWM on the gain weights w_M.
//
// Each of the ceil((3 / 2 delta) * ln(2 / eps)) iterations:
//   1. gain exchange (1 round): every node broadcasts the weight of its
//      matched edge, after which both endpoints of every edge know w_M;
//   2. black-box delta-MWM on the positive-gain subgraph -> M';
//   3. wrap application (2 rounds): endpoints of M' edges repoint their
//      registers to each other and tell their old mates to clear theirs
//      (Lemma 4.1 guarantees the result is a matching of weight
//      >= w(M) + w_M(M')).
// Iterations stop early if no edge has positive gain (every further
// iteration would be a no-op).
#pragma once

#include <cstdint>

#include "core/delta_mwm.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"

namespace dmatch {

struct HalfMwmOptions {
  double epsilon = 0.1;

  enum class BlackBox { kClassGreedy, kLocallyDominant };
  BlackBox black_box = BlackBox::kClassGreedy;

  /// 0 = use the black box's guaranteed delta in the iteration formula.
  double delta_override = 0;
  /// Stop once no edge has positive gain (every further iteration would be
  /// a no-op). Disable to run the paper's full fixed schedule.
  bool stop_when_no_gain = true;
  /// 0 = the formula; otherwise a hard iteration count.
  int max_iterations_override = 0;

  std::uint64_t seed = 1;
  std::uint32_t congest_factor = 48;
  DeltaMwmOptions box_options;
  /// Worker count for the main simulated network (0 = hardware
  /// concurrency).
  unsigned num_threads = 0;
  /// Fault plan for the whole driver. The main network (gain exchange +
  /// wrap application) and the delta-MWM black box's private gain-graph
  /// network both run under this plan: the gain graph preserves the
  /// caller's node-id space, so the box replays the same seed-keyed
  /// crash table on its own lifetime clock. Every stage runs with
  /// checkpoint/restart recovery (see wrap_gain.hpp): a contract trip
  /// inside a black box rolls the registers back to the last stage
  /// boundary instead of aborting, and every wrap the faults tear is
  /// healed before the next iteration.
  congest::FaultPlan fault;
  /// ARQ tuning for every resilient-layer run (fault mode only),
  /// propagated into the black box. Exposed on the CLI as --arq-window.
  congest::ResilientOptions arq;
  /// Observability sink for the main and black-box networks (not owned;
  /// must outlive the call). nullptr = unobserved.
  obs::Observer* observer = nullptr;
};

struct HalfMwmResult {
  Matching matching;
  congest::RunStats stats;
  int iterations = 0;
  double guarantee = 0;  // the proven lower bound (1/2 - eps) given delta
  /// What was given up when options.fault is active (all-false otherwise).
  /// The weight-gain guarantee of Lemma 4.1 only holds for the wraps that
  /// survived; the matching itself is always valid over surviving nodes.
  congest::DegradationReport degradation;
  /// End-of-run dead mask of the main network (size n when options.fault
  /// is active, empty otherwise) — pass to verify_matching_invariants to
  /// check the result against the surviving subgraph.
  std::vector<char> dead_nodes;
};

/// Iteration count ceil((3 / (2 delta)) * ln(2 / eps)).
int half_mwm_iteration_budget(double delta, double epsilon);

HalfMwmResult half_mwm(const Graph& g, const HalfMwmOptions& options = {});

}  // namespace dmatch
