// Algorithm 3 and Theorem 3.10: (1 - 1/k)-approximate maximum cardinality
// matching in bipartite graphs with O(log n)-bit messages.
//
// Structure (per DESIGN.md):
//  * one *augment iteration* protocol = counting stage (Algorithm 3: BFS
//    from all free X nodes, each first-visited node records per-port path
//    counts), lottery stage (each free-Y leader samples the maximum of n_y
//    uniforms and walks a token backwards, sampling edges proportionally to
//    the recorded counts; colliding tokens keep the largest draw), augment
//    stage (surviving tokens trace back flipping the matching registers);
//  * a *phase* for odd length ell repeats augment iterations until no
//    augmenting path of length <= ell remains (this emulates Luby's MIS on
//    the conflict graph, Lemma 3.9);
//  * the driver runs phases ell = 1, 3, ..., 2k-1 (Algorithm 1), after
//    which Lemmas 3.2/3.3 give |M| >= (1 - 1/k) |M*|.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "congest/resilient.hpp"
#include "graph/matching.hpp"

namespace dmatch {

struct PhaseOptions {
  /// How a phase decides that no length <= ell augmenting path remains.
  ///  * kAdaptiveOracle: the host checks with the exact layered-BFS oracle
  ///    between iterations (simulator-side termination detection; every
  ///    executed iteration is guaranteed productive, see DESIGN.md note 3).
  ///  * kFixedBudget: run ceil(mis_budget_factor * log2 N) iterations,
  ///    N = n * Delta^((ell+1)/2), the paper's w.h.p. schedule.
  enum class Termination { kAdaptiveOracle, kFixedBudget };
  Termination termination = Termination::kAdaptiveOracle;
  double mis_budget_factor = 3.0;
  /// ARQ tuning for iterations run under the resilient link layer (only
  /// used when the host network carries an active FaultPlan).
  congest::ResilientOptions arq;
};

struct BipartiteMcmOptions {
  /// Approximation target (1 - 1/k); phases run ell = 1, 3, ..., 2k-1.
  int k = 5;
  PhaseOptions phase;
};

struct PhaseResult {
  int iterations = 0;
  congest::RunStats stats;
  congest::DegradationReport degradation;  // only set under a FaultPlan
};

struct BipartiteMcmResult {
  Matching matching;
  congest::RunStats stats;
  int phases = 0;
  int iterations = 0;  // total augment iterations over all phases
  /// What was given up when net carries an active FaultPlan (all-false
  /// otherwise): iterations run under the resilient wrapper, registers
  /// are healed between iterations, and a patience counter replaces the
  /// fault-free "every iteration augments" termination argument.
  congest::DegradationReport degradation;
};

/// Test/debug instrumentation: run one augment iteration while recording
/// each node's BFS depth and path count from the counting stage (the
/// quantities of Lemma 3.8). depth = -1 for unvisited nodes; count is the
/// SatCount value as a double.
struct CountingProbe {
  std::vector<int> depth;
  std::vector<double> count;
};
CountingProbe run_counting_probe(congest::Network& net,
                                 const std::vector<std::uint8_t>& side,
                                 int ell);

/// Node-program factory for one augment iteration (path length ell).
congest::ProcessFactory augment_iteration_factory(
    const std::vector<std::uint8_t>& side, int ell);

/// Region restriction for running the augment machinery on a subset of a
/// larger persistent network (src/dyn): nodes outside `participants` are
/// parked (the factory returns nullptr, so they are never scheduled and
/// their registers stay frozen), and participants filter every flood /
/// token launch to `eligible_edges`. Preconditions, asserted where cheap:
/// an eligible edge joins two participants on opposite sides, and a
/// matched participant's matched edge is eligible (so its mate is a
/// participant too) -- frozen boundary pairs must be excluded *as pairs*
/// before the run. The pointed-to masks must outlive every run that uses
/// the region. Default-constructed (both nullptr) means "whole graph".
/// `nodes`, when set, lists the participants (sorted): the run then
/// spawns only them (Network::run's listed form), so an iteration costs
/// what the region holds rather than O(n).
struct AugmentRegion {
  const std::vector<char>* eligible_edges = nullptr;  // by EdgeId, 0/1
  const std::vector<char>* participants = nullptr;    // by NodeId, 0/1
  std::span<const NodeId> nodes;                      // sorted participants
  [[nodiscard]] bool restricted() const noexcept {
    return eligible_edges != nullptr || participants != nullptr;
  }
};

/// Region-restricted factory: parks non-participants, filters floods.
congest::ProcessFactory augment_iteration_factory(
    const std::vector<std::uint8_t>& side, int ell,
    const AugmentRegion& region);

/// One augment iteration for path length ell (exposed for tests/benches).
/// Reads and updates the network's matching registers; takes 3*ell + 3
/// rounds.
congest::RunStats run_augment_iteration(congest::Network& net,
                                        const std::vector<std::uint8_t>& side,
                                        int ell);
congest::RunStats run_augment_iteration(congest::Network& net,
                                        const std::vector<std::uint8_t>& side,
                                        int ell, const AugmentRegion& region);

/// One full phase: eliminate all augmenting paths of length <= ell.
PhaseResult run_phase(congest::Network& net,
                      const std::vector<std::uint8_t>& side, int ell,
                      const PhaseOptions& options);

/// Region-restricted phase: eliminate all augmenting paths of length
/// <= ell that live entirely inside the region. Always terminates via the
/// masked adaptive oracle (the fixed-budget schedule is sized for
/// whole-graph runs); requires a fault-free network and a globally
/// consistent register image (strict extraction runs between iterations).
PhaseResult run_phase(congest::Network& net,
                      const std::vector<std::uint8_t>& side, int ell,
                      const PhaseOptions& options,
                      const AugmentRegion& region);

/// Theorem 3.10: runs on the network's current registers (normally empty)
/// and leaves the result in them.
BipartiteMcmResult bipartite_mcm(congest::Network& net,
                                 const std::vector<std::uint8_t>& side,
                                 const BipartiteMcmOptions& options = {});

}  // namespace dmatch
