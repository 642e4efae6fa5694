// Algorithm 4 / Theorem 3.15: (1 - 1/k)-approximate MCM in general graphs.
//
// Each iteration colors every node red or blue by a private coin flip,
// keeps the bipartite subgraph G^ = bichromatic edges between nodes that
// are free or bichromatically matched, finds a maximal set of augmenting
// paths of length <= 2k-1 in G^ with the bipartite machinery (Aug), and
// applies them. The paper's w.h.p. budget is 2^(2k+1) (k+1) ln k
// iterations; an adaptive mode stops after `patience` consecutive
// unproductive iterations (see DESIGN.md note 3).
#pragma once

#include <cstdint>

#include "core/bipartite_mcm.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"

namespace dmatch {

struct GeneralMcmOptions {
  int k = 3;

  enum class Budget { kAdaptive, kFixedPaper };
  Budget budget = Budget::kAdaptive;
  /// kAdaptive: stop after this many consecutive iterations without an
  /// increase in |M| (never exceeding the paper budget).
  int patience = 25;
  /// Override the iteration cap (0 = the paper's formula).
  int max_iterations = 0;

  PhaseOptions phase;
  std::uint64_t seed = 1;
  std::uint32_t congest_factor = 48;
  /// Worker count for the simulated networks (0 = hardware concurrency).
  unsigned num_threads = 0;
  /// Fault plan for the main network. Subsidiary Aug networks inherit the
  /// message-fault probabilities (with a fresh derived seed per iteration)
  /// and the nodes already dead on the main network as scheduled crashes.
  congest::FaultPlan fault;
  /// ARQ tuning for all resilient-layer runs (fault mode only); copied
  /// into the Aug phases as well.
  congest::ResilientOptions arq;
  /// Observability sink for the main and Aug networks (not owned; must
  /// outlive the call). nullptr = unobserved.
  obs::Observer* observer = nullptr;
};

struct GeneralMcmResult {
  Matching matching;
  congest::RunStats stats;
  int iterations = 0;
  int productive_iterations = 0;  // iterations that grew the matching
  /// What was given up when options.fault is active (all-false otherwise):
  /// protocol stages run under the resilient wrapper, registers are healed
  /// between stages, and edges at crashed nodes are swept out, so the
  /// returned matching is always valid over the surviving nodes.
  congest::DegradationReport degradation;
};

/// Paper iteration budget ceil(2^(2k+1) * (k+1) * ln k), clamped to int.
int general_mcm_paper_budget(int k);

GeneralMcmResult general_mcm(const Graph& g, const GeneralMcmOptions& options);

}  // namespace dmatch
