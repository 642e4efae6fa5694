// Israeli-Itai randomized maximal matching (the paper's baseline).
//
// [Israeli & Itai 1986]: a maximal matching -- hence a 1/2-MCM -- computed
// in O(log n) CONGEST rounds w.h.p. We implement the standard
// proposer/acceptor form: in every iteration each free node flips a coin to
// act as proposer or acceptor; proposers propose to a uniformly random
// still-free neighbor; acceptors accept one incoming proposal uniformly at
// random. Matched nodes announce themselves so neighbors prune their
// candidate lists; a free node with no free neighbors left halts, which
// makes the output maximal on termination (deterministically, not just
// w.h.p.): while some edge has two free endpoints, both keep iterating.
#pragma once

#include <optional>
#include <span>

#include "congest/network.hpp"
#include "congest/resilient.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"

namespace dmatch {

struct IsraeliItaiOptions {
  /// Hard round budget (protocol is O(log n) w.h.p.; budget is a backstop).
  int max_rounds = 1 << 20;
  /// Only edges with eligible[e] participate (used by the weight-class
  /// black box to restrict to one class). Empty = all edges.
  std::vector<char> eligible_edges;
  /// ARQ tuning for the resilient link layer (fault mode only).
  congest::ResilientOptions arq;
};

struct IsraeliItaiResult {
  Matching matching;
  congest::RunStats stats;
  /// What was given up when net carries an active FaultPlan (all-false
  /// otherwise): the driver then runs the protocol under the resilient
  /// wrapper with a watchdog budget and self-heals the registers, so the
  /// matching is always valid over the surviving nodes.
  congest::DegradationReport degradation;
};

/// Node-program factory for the protocol (used directly by the
/// asynchronous executor and the tests).
congest::ProcessFactory israeli_itai_factory(IsraeliItaiOptions options = {});

/// The same factory over an eligibility mask the caller owns (by edge
/// id, empty = all edges) and keeps alive while the factory is in use:
/// a service that re-runs the protocol on small regions of one large
/// graph reuses one mask instead of building an m-sized copy per run.
congest::ProcessFactory israeli_itai_factory(
    std::span<const char> eligible_edges);

/// Run Israeli-Itai on net's graph. The network's matching registers are
/// overwritten with the result (pre-existing registers are cleared for
/// participating nodes; nodes with no eligible edges are left untouched).
IsraeliItaiResult israeli_itai(congest::Network& net,
                               const IsraeliItaiOptions& options = {});

}  // namespace dmatch
