// Incremental repair engine: keeps a maximal matching current under a
// stream of update epochs by re-running the CONGEST round engine on the
// dirty region only.
//
// Canonical state is the persistent congest::Network built over the
// DynGraph universe — its output registers ARE the matching, exactly as
// in the static pipeline, so certification and extraction reuse the
// existing machinery unchanged. One epoch proceeds as:
//
//   1. apply the ops to the DynGraph masks, clearing the mate
//      bookkeeping of destroyed pairs and feeding the invalidation
//      tracker (freed mates seed augmenting frontiers);
//   2. if the epoch introduced genuinely new pairs, append them to the
//      universe (Graph::add_edges) and rebind the one Network over the
//      grown universe with the next generation's seed, which leaves it
//      exactly as a fresh Network would be (registers re-seeded from the
//      current matching; edge ids, node ids and ports are stable, so the
//      matching carries over verbatim);
//   3. expand the seeds into the k-hop dirty region, split it into
//      active / frozen, and extend with the free ring
//      (dyn/invalidate.hpp);
//   4. if the region exceeds fallback_fraction of the live vertices —
//      or the incremental run ever fails to quiesce in budget — fall
//      back to a full recompute (clear everything, Israeli–Itai over all
//      alive edges); otherwise clear the active registers only, restrict
//      eligibility to active–active alive edges, park non-active nodes
//      (nullptr factory: the engine never schedules them, so run cost is
//      proportional to the region, not the graph), run, and fold the
//      result in with the incremental extract_matching_resilient
//      overload. With quality_k >= 2, the beyond-maximal augment stage
//      (dyn/augment.hpp) then lifts the repaired matching to
//      (1 - 1/k)-approximate; a host-side sweep directly augments any
//      boundary-crossing leftover path the region run cannot see. Every
//      epoch starts with no augmenting path of length <= 2k-1 anywhere,
//      so every such path the epoch creates touches a node it changed
//      (an op seed, or a node whose mate the repair, the augment stage or
//      an earlier flip changed): the sweep starts from those nodes
//      (graph/augmenting's SeededPathSearch) and finds, flip after flip,
//      the paths a whole-graph scan would find;
//   5. refresh size/weight, optionally certify against core/verify on a
//      live snapshot, and emit dyn.* metrics + trace events.
//
// Every stage is sized by its region: the repair and augment runs spawn
// only their region's nodes (Network::run's listed form), flipped pairs
// reach the registers and the mate mirror node by node, and the per-node
// and per-edge masks are kept across epochs and reset entry by entry or
// by stamp. What is still O(n) per epoch is refresh_totals' weight sum.
//
// Everything that decides state — epoch boundaries, BFS order, the
// full-vs-incremental choice, the engine run itself — is deterministic,
// so the whole service trajectory is bit-identical across thread counts;
// wall-clock enters only the latency fields of the EpochReport.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "congest/network.hpp"
#include "core/verify.hpp"
#include "dyn/augment.hpp"
#include "dyn/dyn_graph.hpp"
#include "dyn/invalidate.hpp"
#include "dyn/update.hpp"
#include "graph/augmenting.hpp"
#include "graph/matching.hpp"
#include "support/stamp_set.hpp"

namespace dmatch::dyn {

struct RepairOptions {
  /// BFS radius of the dirty region around the seeds (>= 1). 2 hops
  /// covers the length-3 augmenting structures a single destroyed pair
  /// can open up; larger radii buy ratio stability at repair cost.
  int dirty_hops = 2;
  /// Quality ladder: <= 1 repairs to maximal (1/2-approximate) only;
  /// k >= 2 follows every repair with the beyond-maximal augment stage
  /// (dyn/augment.hpp), certifying ratio >= 1 - 1/k against the live
  /// optimum. Length-(2k-1) augmenting paths need a (2k-1)-hop *arena*
  /// (expanded separately, after the repair: its pairs participate in
  /// augmenting but are never cleared); the repair core stays at
  /// dirty_hops, so the Israeli–Itai cost matches the k = 1 path.
  int quality_k = 1;
  /// Fall back to a full recompute when the dirty region exceeds this
  /// fraction of the live vertices. 0 forces every epoch to full
  /// recompute (the bench baseline).
  double fallback_fraction = 0.25;
  /// Round budget per repair run (backstop; Israeli–Itai quiesces
  /// deterministically). Budget exhaustion triggers the full fallback.
  int round_budget = 1 << 16;
  unsigned num_threads = 1;
  obs::Observer* observer = nullptr;  // not owned; may be nullptr
  /// Certify every epoch against core/verify on a fresh live snapshot
  /// (O(n + m) + exact optimum; for tests and demos, not the hot path).
  bool certify = false;
  bool certify_ratio = false;  // also compute the exact optimum
  std::uint64_t seed = 1;
};

/// Phases of apply_epoch, the index space of EpochReport::phase_ns.
enum EpochPhase : std::size_t {
  kPhaseOps = 0,  // ops to masks, plus any universe rebuild
  kPhaseExpand,   // dirty-region and augment-arena expansion
  kPhaseRepair,   // the Israeli–Itai repair run (or full recompute)
  kPhaseAugment,  // the beyond-maximal augment stage
  kPhaseSweep,    // the leftover sweep, write-back included
  kPhaseTotal,    // the whole epoch, certification excluded
  kEpochPhases
};
inline constexpr std::array<const char*, kEpochPhases> kEpochPhaseNames = {
    "ops", "expand", "repair", "augment", "sweep", "total"};

struct EpochReport {
  Epoch epoch;
  std::size_t ops = 0;
  std::size_t dirty_nodes = 0;   // region size (before ring extension)
  std::size_t active_nodes = 0;  // re-matched set (incl. free ring)
  std::size_t frozen_nodes = 0;  // pinned boundary pairs
  bool full_recompute = false;
  bool rebuilt = false;  // epoch forced a universe rebuild
  congest::RunStats stats;  // the repair run (zero if region was empty)
  std::size_t matching_size = 0;
  Weight matching_weight = 0;
  double repair_seconds = 0;  // wall clock; reporting only, never state
  /// Wall-clock nanoseconds per EpochPhase (steady_clock); reporting
  /// only, like repair_seconds, so trajectory comparisons ignore it.
  std::array<std::int64_t, kEpochPhases> phase_ns{};
  // Beyond-maximal augment stage (all zero when quality_k <= 1).
  int augment_iterations = 0;        // color-sample iterations
  int augment_phase_iterations = 0;  // augment iterations across phases
  std::ptrdiff_t augment_gained = 0; // pairs gained over the repaired M
  bool augment_escalated = false;    // boundary-crossing leftover path
                                     // closed by the host-side sweep
  /// Filled when RepairOptions::certify. With quality_k >= 2 and
  /// certify_ratio, validity additionally requires ratio >= 1 - 1/k.
  std::optional<MatchingInvariantReport> certificate;
};

class RepairEngine {
 public:
  /// Bootstraps: full Israeli–Itai over the initial graph. The bootstrap
  /// run's report is retrievable via bootstrap_report().
  RepairEngine(Graph initial, RepairOptions opts);

  [[nodiscard]] const DynGraph& graph() const noexcept { return g_; }
  [[nodiscard]] const congest::Network& network() const noexcept {
    return *net_;
  }
  /// Current matching over the universe (edge ids index the universe).
  [[nodiscard]] const Matching& matching() const noexcept { return matching_; }
  /// Mate-node view (kNoNode = free); the adversarial workload's oracle.
  [[nodiscard]] std::span<const NodeId> mate_view() const noexcept {
    return mate_;
  }
  [[nodiscard]] const EpochReport& bootstrap_report() const noexcept {
    return bootstrap_;
  }

  /// Apply one closed epoch's ops and repair. `epoch` is used for
  /// reporting/trace only; the ops span must be the epoch's slice.
  EpochReport apply_epoch(const Epoch& epoch, std::span<const UpdateOp> ops);

  /// Current matching mapped onto a fresh live snapshot, with the report
  /// from core/verify (the differential-test surface).
  struct CertifiedSnapshot {
    Graph graph;
    Matching matching;
    MatchingInvariantReport report;
    bool maximal = false;
  };
  [[nodiscard]] CertifiedSnapshot certify_now(bool compute_ratio) const;

 private:
  void rebuild_network();
  /// Full recompute: clear all registers, Israeli–Itai over every alive
  /// edge. Fills report.stats/full_recompute.
  void run_full(EpochReport& report);
  /// Region-restricted repair. Returns false if the run blew its budget
  /// (caller falls back to full).
  bool run_incremental(const DirtyRegion& region, EpochReport& report);
  /// Beyond-maximal stage (quality_k >= 2): region-restricted augment
  /// loop over `active` (dyn/augment.hpp). `epoch_index` feeds the color
  /// draws (bootstrap uses 0, epochs use index + 1).
  void run_augment(std::span<const NodeId> active, std::uint64_t epoch_index,
                   EpochReport& report);
  /// Host-side leftover sweep: directly augments every surviving path of
  /// length <= 2*quality_k - 1 — the boundary-crossing paths a region run
  /// cannot see (frozen pairs pin endpoints, never interiors), which
  /// only arise when the repair reshuffled pairs near the boundary. The
  /// search starts from `seeds` (the epoch's changed nodes, or every
  /// live node after a full recompute) and visits, in ascending id
  /// order, the free nodes that can end a short augmenting path through
  /// them, so it flips the paths a whole-graph scan would, in the same
  /// order; each flip's
  /// pairs reach the registers and the mate mirror node by node. Returns
  /// the number of paths applied. Together with the region loop this
  /// makes the per-epoch (1 - 1/k) bound deterministic.
  int sweep_leftovers(std::span<const NodeId> seeds);
  /// Bring the mate mirror up to date on `nodes`, logging every node
  /// whose mate changed into changed_.
  void note_mates(std::span<const NodeId> nodes);
  void refresh_totals(EpochReport& report);

  DynGraph g_;
  RepairOptions opts_;
  std::unique_ptr<congest::Network> net_;  // over g_.universe(); rebound
                                           // on generation bumps
  Matching matching_;            // mirrors the registers (universe ids)
  std::vector<NodeId> mate_;     // post-op mate view fed to invalidation
  InvalidationTracker tracker_;
  EpochReport bootstrap_;

  // Per-epoch scratch, kept across epochs (sized by the universe, reset
  // entry by entry or by stamp, so an epoch pays for its region only).
  std::vector<NodeId> changed_;  // op seeds + nodes whose mate changed
  std::vector<char> eligible_;   // repair eligibility by edge; all 0
  support::StampSet in_active_;  // the repair run's active set
  AugmentScratch augment_scratch_;
  SeededPathSearch sweep_;
};

}  // namespace dmatch::dyn
