// Synchronous network simulator for the CONGEST / LOCAL models.
//
// The Network owns the topology, the per-node random streams, the per-node
// matching output registers (which persist across protocol runs, so a
// driver can compose multi-stage algorithms), and the cost accounting
// (rounds, messages, bits, max message size). In Model::kCongest it
// enforces a hard per-message bit cap of congest_factor * ceil(log2 n);
// Model::kLocal only records sizes.
//
// Rounds execute on a sharded engine (see docs/PROTOCOLS.md, "Round
// engine"): nodes are partitioned into contiguous balanced shards whose
// count is fixed at construction by the scheduler's plan (one shard at
// one thread, four per worker otherwise, dispatched by work stealing),
// and each round runs as step phase -> barrier -> route phase. What a
// step does to a node is congest/kernel.hpp's; Network::run is the one
// round driver around it (spawn, step, routing over the activity lanes
// that carry deliveries between shards, rollback, round accounting,
// close and obs export) for every executor that steps rounds
// synchronously. A run spawns a sorted list of nodes — every node, or a
// region the caller names, with every other node parked — and keeps its
// scratch (process slots, shard run state, activity lanes) across runs,
// so a region run costs what the region holds. A run split over several
// processes (mp::MpEngine) plugs into it through a RoundBarrier, which
// names the nodes this process steps and carries everything that
// crosses to the other processes.
// Messages travel through port-indexed mailbox slots (one slot per
// directed edge endpoint), so delivery is always in ascending port order
// and no mutex sits on the hot path. Per-node hot state (registers, RNGs,
// receive gates) lives in 64-byte-aligned per-shard SoA slabs, so shards
// never share a cache line. Results — matchings, RunStats, every per-node
// RNG draw — are bit-identical for any Options::num_threads, and so for
// any shard count and any order in which the workers run the shards.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "congest/fault.hpp"
#include "congest/kernel.hpp"
#include "congest/message.hpp"
#include "congest/process.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "obs/obs.hpp"
#include "support/sched.hpp"

namespace dmatch::congest {

/// In-place self-healing of an explicit register image against an
/// explicit dead-node mask: clears registers on dead nodes, registers
/// pointing at dead nodes, and one-sided (torn) pointers, so a strict
/// extraction of the healed image always succeeds. The image-based
/// core of Network::heal_registers, shared with the multi-process
/// coordinator (which assembles the image from per-rank RESULT frames
/// and folds rank deaths into `dead`). Tallies repairs into `report`
/// when provided; `dead` must have node_count entries.
void heal_register_image(const Graph& g, std::vector<int>& reg,
                         const std::vector<char>& dead,
                         DegradationReport* report = nullptr);

/// Strict extraction from an explicit register image: the image-based
/// body of Network::extract_matching (sequential scan). Throws on
/// inconsistent (one-sided) registers, so callers heal first.
[[nodiscard]] Matching extract_matching_from_image(const Graph& g,
                                                   std::span<const int> reg);

/// Network::run's seam at the round barrier, for a run whose nodes are
/// stepped by several processes (mp::MpEngine's ranks, one Network each).
/// Process `part` of `parts` steps the nodes support::balanced_range(n,
/// parts, part) only; everything that crosses to the other processes
/// goes through these calls, a fixed number per round and none per
/// message. Every process must call them in the same order.
class RoundBarrier {
 public:
  /// What one process contributes at a barrier; summed over every process.
  struct Counts {
    std::uint64_t scheduled = 0;  // nodes scheduled for the next round
    std::uint64_t parked = 0;     // deliveries waiting in delay rings
    std::uint64_t msgs = 0;       // messages sent in the round just run
    std::uint64_t bits = 0;       // their bits
  };

  /// This process's part of the balanced node partition. Part 0 records
  /// the run- and round-level observability (round events and
  /// histograms, the run's totals).
  unsigned parts = 1;
  unsigned part = 0;
  /// Run-local round the run starts at (a rejoining process resumes
  /// mid-run).
  int first_round = 0;

  /// Sum the counts of the freshly spawned run (before round first_round)
  /// over every process: `counts` holds this process's on entry.
  virtual void start(Counts& counts) = 0;
  /// False stops this process before `round`, with no further call.
  virtual bool proceed(int round) = 0;
  /// Trade round `round`'s deliveries. `out[s * parts + p]` holds shard
  /// s's deliveries for the nodes of process p, in send order; all are
  /// shipped, unless this process `failed` its step, which aborts the
  /// round instead. `in` receives batches of deliveries for this
  /// process's nodes. Deliveries bound for a process that is gone count
  /// into `stats.dropped_messages`. Returns false if any process aborts
  /// the round.
  virtual bool exchange(int round, bool failed,
                        std::span<std::vector<kernel::LateMsg>> out,
                        std::vector<std::vector<kernel::LateMsg>>& in,
                        RunStats& stats) = 0;
  /// Close round `round`: `counts` holds this process's on entry and the
  /// sum over every process on return. `failed` = this process's route
  /// phase threw, which aborts the round. Returns false if any process
  /// aborts the round.
  virtual bool settle(int round, bool failed, Counts& counts) = 0;
  /// After the run: `stats` is this process's share (zeroed if it
  /// `tripped`) and becomes what run() returns. Returns true if the run
  /// tripped on any process whose share reached this one.
  virtual bool finish(RunStats& stats, bool tripped) = 0;

 protected:
  ~RoundBarrier() = default;
};

class Network {
 public:
  struct Options {
    /// Worker count of the round engine. 0 = hardware concurrency;
    /// 1 = fully sequential (no OS threads are created). Any value
    /// produces bit-identical runs.
    unsigned num_threads = 0;
    /// `sched.profile` records the dispatcher's wall-clock shard service
    /// times (see support/sched.hpp) and, with an observer attached,
    /// emits them as (non-deterministic) kSchedShard trace events and a
    /// sched.shard_service_ns histogram. Results are unchanged.
    support::SchedOptions sched{};
    /// Fault-injection plan. The default (inactive) plan leaves the
    /// engine byte-for-byte identical to the fault-free build; an active
    /// plan injects faults deterministically (see congest/fault.hpp) and
    /// is still bit-identical across num_threads values.
    FaultPlan fault{};
    /// Observability sink (not owned; must outlive the Network). nullptr
    /// keeps every hook to a single predictable branch on the round loop
    /// and nothing on the per-message path; -DDMATCH_OBS_DISABLED
    /// compiles the hooks out entirely. Attaching an Observer never
    /// changes results: traces and metrics are derived from the same
    /// deterministic run.
    obs::Observer* observer = nullptr;
  };

  /// `congest_factor`: per-message cap in units of ceil(log2 n) bits
  /// (ceil(log2 n) is floored at 4 so toy graphs can still run protocols
  /// whose constants assume a few machine words).
  Network(const Graph& g, Model model, std::uint64_t seed,
          std::uint32_t congest_factor = 48);
  Network(const Graph& g, Model model, std::uint64_t seed,
          std::uint32_t congest_factor, Options options);
  ~Network();

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }
  [[nodiscard]] Model model() const noexcept { return k_.model; }
  [[nodiscard]] std::uint32_t message_cap_bits() const noexcept {
    return k_.cap_bits;
  }
  [[nodiscard]] unsigned num_threads() const noexcept { return num_threads_; }

  /// Shards the node set is partitioned into (fixed at construction and
  /// at rebind; >= 1). Equals the scheduler's task plan for node_count()
  /// items.
  [[nodiscard]] unsigned num_shards() const noexcept { return num_shards_; }

  /// The engine's dispatcher. Exposes, when Options::sched.profile is
  /// set, per-shard service-time counters.
  [[nodiscard]] const support::Scheduler& scheduler() const noexcept {
    return *sched_;
  }

  /// Run one protocol until every node halts with no message in flight, or
  /// until `max_rounds` rounds have executed. Returns the stats of this run
  /// and also accumulates them into total_stats(). Every node is spawned:
  /// this is the listed run below over the list of all nodes.
  ///
  /// With a `barrier`, the run is one part of a run split over several
  /// processes: only the barrier's part of the nodes is spawned and
  /// stepped, and quiescence is global. A protocol contract trip anywhere
  /// then rolls the round back and ends the run on every process without
  /// throwing (barrier->finish learns of it); the failed round does not
  /// count.
  RunStats run(const ProcessFactory& factory, int max_rounds,
               RoundBarrier* barrier = nullptr);

  /// Run one protocol on the listed nodes only (sorted, unique). Every
  /// other node is parked, exactly as if the factory had returned nullptr
  /// for it (see ProcessFactory), but the factory is never called for it
  /// and the run's spawn and cleanup cost is O(|nodes|), not O(n): with
  /// the run scratch kept across runs, a region re-run on a large
  /// persistent network costs what its region does. Requires a fault-free
  /// network (a crash-restart would respawn a parked node).
  RunStats run(std::span<const NodeId> nodes, const ProcessFactory& factory,
               int max_rounds);

  /// Matching described by the nodes' output registers. Throws if the
  /// registers are inconsistent (one-sided pointers).
  [[nodiscard]] Matching extract_matching() const;

  /// Fault-tolerant extraction: never throws. Registers on dead nodes,
  /// registers pointing at dead nodes, and one-sided (torn) pointers are
  /// skipped — the result is always a valid matching over the surviving
  /// nodes. Repairs are tallied into `report` when provided.
  [[nodiscard]] Matching extract_matching_resilient(
      DegradationReport* report = nullptr) const;

  /// Incremental resilient extraction, in place: re-validates ONLY the
  /// registers of the nodes in `dirty` (sorted, unique) and updates `m`
  /// with what they now say — pairs of m that involve a dirty node are
  /// dropped and re-derived from the registers, everything else is left
  /// untouched. O(|dirty| · deg) instead of the full-array O(n + m) scan,
  /// which is what a long-running service wants when one update epoch
  /// touched a small region (see src/dyn). Caller contract: every register
  /// that changed since `m` was extracted is listed in `dirty` (a
  /// superset is fine); registers of clean nodes still agree with m.
  /// Dead/torn tallies in `report` cover the dirty set only. Returns the
  /// pairs gained: pairs added minus pairs dropped.
  std::ptrdiff_t refresh_matching(std::span<const NodeId> dirty, Matching& m,
                                  DegradationReport* report = nullptr) const;

  /// In-place self-healing of the output registers: clears exactly the
  /// registers extract_matching_resilient would skip, so that a strict
  /// extract_matching (and the next protocol run) sees a consistent
  /// matching. Tallies repairs into `report` when provided.
  void heal_registers(DegradationReport* report = nullptr);

  /// Overwrite the output registers from an explicit matching.
  void set_matching(const Matching& m);

  /// Point v's output register at its incident edge `e` (kNoEdge clears
  /// it), leaving every other register untouched: the per-node form of
  /// set_matching, for callers that rewired a few pairs.
  void set_register(NodeId v, EdgeId e);

  /// Raw output-register image (per-node mate ports, -1 = unmatched) in
  /// node order: a flat copy with no validation, the cheap capture side
  /// of StageCheckpoint (core/wrap_gain).
  void copy_registers(std::vector<int>& out) const { k_.reg.copy_to(out); }

  /// Delta-restore the output registers to `image`: rewrite only the
  /// registers that drifted from it (dirty nodes), leaving every clean
  /// register untouched. The end state is byte-identical to a full
  /// rewrite of `image`. Returns the number of dirty registers replayed.
  std::size_t restore_registers(std::span<const int> image);

  /// Attached Observer, or nullptr (always nullptr when observability
  /// is compiled out). Drivers use this to emit phase/checkpoint events.
  [[nodiscard]] obs::Observer* observer() const noexcept {
    DMATCH_OBS(return options_.observer;)
    return nullptr;
  }

  [[nodiscard]] const FaultPlan& fault_plan() const noexcept {
    return options_.fault;
  }
  [[nodiscard]] bool fault_active() const noexcept { return k_.fault_active; }

  /// Fault-stream nonce of the next run (0 at construction); every run
  /// advances it by one. A process that replays rounds another process
  /// already drew faults for (mp rejoin) re-keys them here.
  void set_fault_nonce(std::uint64_t nonce) noexcept {
    k_.fault_nonce = nonce;
  }

  /// True if v is dead (crashed, not yet restarted) at the current
  /// lifetime round.
  [[nodiscard]] bool node_dead(NodeId v) const noexcept {
    return k_.node_dead(v);
  }

  /// Rounds executed over this Network's whole lifetime (all runs).
  /// Crash schedules are expressed on this clock.
  [[nodiscard]] std::uint64_t lifetime_rounds() const noexcept {
    return k_.lifetime_rounds;
  }

  [[nodiscard]] const RunStats& total_stats() const noexcept {
    return total_;
  }

  /// Re-lay out the tables for graph() as it is now (Graph::add_edges
  /// grew it) and leave this Network as a fresh Network(graph(), model(),
  /// seed, congest_factor, options) would be: RNG streams forked from
  /// `seed`, every register and gate clear, no live mailbox slot, and the
  /// lifetime round, the fault nonce and total_stats() back to zero. The
  /// scheduler is kept, and the slabs, mailboxes, peer tables and run
  /// scratch are reused and grow geometrically, so a steady stream of
  /// small growths allocates nothing. Requires a fault-free network.
  void rebind(std::uint64_t seed);

 private:
  const Graph* g_;
  unsigned num_threads_;
  unsigned num_shards_ = 1;
  std::uint32_t congest_factor_;
  Options options_;
  // Routing tables, RNG streams, registers, mailboxes and crash schedule,
  // laid out in num_shards_ slab segments; the round itself is
  // kernel::State::step_node.
  kernel::State k_;
  RunStats total_;

  // What a run builds and releases again, kept across runs so a run pays
  // only for the nodes it spawns: the per-node process slots (all empty
  // between runs), the shards' run state and the activity lanes.
  struct RunScratch;
  std::unique_ptr<RunScratch> scratch_;
  std::vector<NodeId> every_node_;  // 0 .. n-1, the all-nodes run's list

  /// The constructor's and rebind's layout of every table for graph():
  /// shard plan, slabs, routing tables, RNG forks and run scratch.
  void layout(std::uint64_t seed);

  RunStats run_listed(std::span<const NodeId> nodes,
                      const ProcessFactory& factory, int max_rounds,
                      RoundBarrier* barrier);

  // Always present (a 1-worker scheduler spawns no OS threads); shared
  // by the round loop, the parallel table build, and the extraction
  // scans. num_shards_ is frozen from sched_->plan_tasks(n) at
  // construction so shard layout never depends on per-round scheduling.
  std::unique_ptr<support::Scheduler> sched_;
};

}  // namespace dmatch::congest
