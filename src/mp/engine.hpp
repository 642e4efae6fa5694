// Multi-process CONGEST round engine: one MpEngine instance per OS
// process (rank), each owning a contiguous balanced node range of the
// shared graph. A rank runs its rounds through the same driver as the
// single-process engine — a congest::Network that spawns and steps only
// the owned range — and supplies that driver's RoundBarrier: the frame
// protocol, the failure detector, rejoin and rank-0 aggregation.
// Deliveries for other ranks' nodes batch into per-peer buffers and
// flush as one ROUND frame per peer at the round boundary; a tiny COUNT
// frame broadcast then carries each rank's (scheduled, parked, sent)
// counts, and the run quiesces when the global sum hits zero — the
// counting-based replacement for the shared-memory active-node worklist.
//
// Determinism contract (death-free runs): every fault decision is the
// same pure hash of (plan seed, round, global slot) the single-process
// Network computes, per-node RNGs fork from the node id, and the delay
// ring sorts by the same (node, port, origin round) key — so matchings,
// RunStats aggregates, merged metrics JSON, and merged trace multisets
// are bit-identical to Network at any process count (asserted by the
// `mp` test label and the difftorture procs axis).
//
// Robustness: ProcessGroup's heartbeat-piggybacked failure detector maps
// a dead rank onto the congest/fault crash model — its nodes become
// crashed-at-detection, survivors exclude it from the quiescence sums,
// heal the assembled registers and extract a verify-clean matching over
// the surviving subgraph. A restarted worker can rejoin from its last
// register checkpoint with an advanced fault-stream nonce, so replayed
// rounds draw fresh faults. Termination is watchdog-bounded throughout: every
// wait is deadline-bounded and rounds are capped by max_rounds.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "graph/matching.hpp"
#include "mp/group.hpp"
#include "mp/transport.hpp"
#include "obs/obs.hpp"

namespace dmatch::mp {

struct MpOptions {
  congest::FaultPlan fault;
  /// This rank's observability sink (not owned). Rank 0 records run- and
  /// round-level events plus aggregated totals; workers record only the
  /// per-message events their own nodes produce, so the union of the
  /// per-rank sinks equals the single-process artifacts.
  obs::Observer* observer = nullptr;
  GroupOptions group;
  /// Fault-stream nonce of this run (advanced by rejoin replays).
  std::uint64_t fault_nonce = 0;
  /// Rounds between register checkpoints shipped to rank 0 (rejoin
  /// support; only active when allow_rejoin is set).
  int checkpoint_every = 16;
  /// Rank 0 polls dead ranks for REJOIN frames at round boundaries.
  bool allow_rejoin = false;
  /// Test hook: this rank silently stops participating at the start of
  /// the given round (simulated process death). -1 = never.
  int die_at_round = -1;
};

struct MpResult {
  /// Rank 0: element-wise aggregate over all surviving ranks (equals the
  /// single-process RunStats when nobody died). Workers: own share.
  congest::RunStats stats;
  /// A protocol contract tripped; every rank rolled its registers and
  /// observability back to the failed round's start (stats are zeroed,
  /// mirroring the single-process abort path).
  bool tripped = false;
  /// True on the rank that executed a die_at_round exit.
  bool simulated_death = false;
  int rounds_executed = 0;
  /// Per-rank liveness at exit (this rank's view).
  std::vector<char> dead_ranks;

  // --- rank 0 only ----------------------------------------------------
  Matching matching;                     // healed + extracted
  congest::DegradationReport degradation;
  std::vector<char> dead_nodes;          // plan-dead U dead-rank nodes
  std::vector<int> registers;            // full healed register image
};

class MpEngine {
 public:
  /// Same (graph, model, seed, congest_factor) on every rank; `transport`
  /// must outlive the engine. The node range owned by this rank is the
  /// balanced contiguous partition support::balanced_range(n, size, rank).
  MpEngine(const Graph& g, congest::Model model, std::uint64_t seed,
           std::uint32_t congest_factor, Transport& transport,
           MpOptions options = {});
  ~MpEngine();

  [[nodiscard]] std::uint32_t message_cap_bits() const noexcept {
    return cap_bits_;
  }
  [[nodiscard]] unsigned rank() const noexcept { return group_.rank(); }
  [[nodiscard]] std::pair<NodeId, NodeId> owned_range() const noexcept {
    return {lo_, hi_};
  }
  [[nodiscard]] const ProcessGroup& group() const noexcept { return group_; }

  /// Run one protocol to global quiescence or max_rounds. Collective:
  /// every live rank must call it with the same factory semantics.
  MpResult run(const congest::ProcessFactory& factory, int max_rounds);

  /// Rejoin path for a restarted worker: ask rank 0 for a RESUME
  /// (checkpointed registers + current round + advanced nonce), then
  /// enter the round loop from there. Returns a default result if the
  /// coordinator never answers (bounded wait).
  MpResult rejoin_and_run(const congest::ProcessFactory& factory,
                          int max_rounds);

 private:
  struct Impl;
  const Graph* g_;
  std::uint64_t seed_;
  std::uint32_t cap_bits_;
  MpOptions options_;
  ProcessGroup group_;
  NodeId lo_ = 0, hi_ = 0;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dmatch::mp
