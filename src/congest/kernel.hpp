// The synchronous CONGEST round, defined once.
//
// Every algorithm in this library runs on one synchronous round, with
// asynchrony left to a synchronizer (congest/async.hpp). This header is
// the only code that defines what that round does to a node; the
// executors decide only where nodes run and how deliveries travel:
//
//   * Network::run (congest/network.cpp) is the one round loop around
//     step_node: it shards one process's nodes over a scheduler's
//     workers and carries deliveries between shards on activity lanes.
//     A run split over processes (mp::MpEngine, one Network per rank)
//     steps only its rank's range and trades the rest through the
//     loop's RoundBarrier: ROUND frames, COUNT sums, aborts. Only that
//     loop calls step_node, finish_route, advance_round, close_run and
//     undo_steps or uses RoundRollback (a `lint` test enforces it);
//   * the alpha-synchronizer executor (congest/async.cpp) keeps its
//     event queue and synchronizer and takes EngineContext,
//     message_fate and reorder_inbox from here.
//
// What lives here: the routing tables, per-node RNG forks and crash
// schedule (State); the engine's Context (EngineContext); State::
// step_node — dead-node drops, crash-restart respawn, parked-node skip,
// inbox gather from the port slots and the delay ring, the seeded
// reorder, on_round, and each sent message's fault fate handed to a
// delivery sink; the route phase's delay-ring and restart wake-ups;
// rollback of an aborted round (the shards' undo logs, undo_steps and
// RoundRollback); and the end-of-run crash and observability
// accounting. Everything on the per-message
// path is header-inline and the sink is a template parameter, so a
// delivery costs no std::function or virtual call.
//
// Every fault decision is a pure hash of (plan seed, run nonce, lifetime
// round, receiver slot or node) over *global* slot ids, and every
// per-node RNG forks from the node id, so any partition of the nodes —
// shards, ranks, or both — replays the same history bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "congest/fault.hpp"
#include "congest/message.hpp"
#include "congest/process.hpp"
#include "graph/graph.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/slab.hpp"

namespace dmatch::congest {

enum class Model { kCongest, kLocal };

/// Thrown when a protocol sends a message exceeding the CONGEST cap.
class MessageTooLarge : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct RunStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint32_t max_message_bits = 0;
  bool completed = true;  // all nodes halted before the round budget ran out
  /// Messages sent in each executed round (size == rounds); the per-round
  /// histogram behind `messages`, so sum(round_messages) == messages.
  std::vector<std::uint64_t> round_messages;

  // Fault-injection counters (all zero unless the Network carries an
  // active FaultPlan). Drops count messages lost in transit plus
  // deliveries discarded because the receiver was dead.
  std::uint64_t dropped_messages = 0;
  std::uint64_t duplicated_messages = 0;
  std::uint64_t delayed_messages = 0;
  std::uint64_t reordered_inboxes = 0;
  std::uint64_t crashed_nodes = 0;    // crash rounds inside this run
  std::uint64_t restarted_nodes = 0;  // restart rounds inside this run

  void merge(const RunStats& other) {
    rounds += other.rounds;
    messages += other.messages;
    total_bits += other.total_bits;
    max_message_bits = std::max(max_message_bits, other.max_message_bits);
    completed = completed && other.completed;
    round_messages.insert(round_messages.end(), other.round_messages.begin(),
                          other.round_messages.end());
    dropped_messages += other.dropped_messages;
    duplicated_messages += other.duplicated_messages;
    delayed_messages += other.delayed_messages;
    reordered_inboxes += other.reordered_inboxes;
    crashed_nodes += other.crashed_nodes;
    restarted_nodes += other.restarted_nodes;
  }

  /// Element-wise aggregate of parallel shards of ONE run (the
  /// multi-process engine's coordinator view): counts add, rounds and
  /// the message cap take the max, completion ANDs, and round_messages
  /// adds per round — so summing every rank's share reproduces the
  /// single-process RunStats of the same run exactly. Contrast with
  /// merge(), which composes *sequential* runs. Shards legitimately
  /// report histograms of different lengths (a rank whose range quiesces
  /// early executes fewer rounds), so mismatched round_messages sizes
  /// merge by resize-to-longest, never by truncation — missing trailing
  /// rounds count as zero messages. Locked by the
  /// Counting.AccumulateMergesMismatchedHistograms regression test.
  void accumulate(const RunStats& other) {
    rounds = std::max(rounds, other.rounds);
    messages += other.messages;
    total_bits += other.total_bits;
    max_message_bits = std::max(max_message_bits, other.max_message_bits);
    completed = completed && other.completed;
    if (round_messages.size() < other.round_messages.size()) {
      round_messages.resize(other.round_messages.size(), 0);
    }
    for (std::size_t i = 0; i < other.round_messages.size(); ++i) {
      round_messages[i] += other.round_messages[i];
    }
    dropped_messages += other.dropped_messages;
    duplicated_messages += other.duplicated_messages;
    delayed_messages += other.delayed_messages;
    reordered_inboxes += other.reordered_inboxes;
    crashed_nodes += other.crashed_nodes;
    restarted_nodes += other.restarted_nodes;
  }

  /// Rounds after charging over-cap messages as pipelined chunks: a
  /// round whose largest message used b bits counts as ceil(b / cap)
  /// rounds. This is how DESIGN.md normalizes the token messages.
  [[nodiscard]] std::uint64_t normalized_rounds(
      std::uint32_t cap_bits) const noexcept {
    if (cap_bits == 0 || max_message_bits <= cap_bits) return rounds;
    const std::uint64_t factor =
        (max_message_bits + cap_bits - 1) / cap_bits;
    return rounds * factor;
  }
};

/// Node-program factory. Returning nullptr *parks* the node for this
/// run: it keeps its output register but holds no protocol state, is
/// never scheduled, and silently discards anything addressed to it —
/// the zero-allocation form of a process that is born halted. Callers
/// that re-run protocols on a small region of a large persistent
/// network (src/dyn) instead list the region's nodes for Network::run,
/// which parks every other node without calling the factory for it and
/// keeps its run scratch across runs, so a multi-phase repair pays
/// per-run cost proportional to the region.
using ProcessFactory =
    std::function<std::unique_ptr<Process>(NodeId, const Graph&)>;

namespace kernel {

/// CSR slot offsets of `g` into `off`: slot off[v] + p addresses node v's
/// port p (size n + 1; the buffer is reused and grows geometrically).
/// Fault hashes and link profiles key on these global slot ids in every
/// executor.
void slot_offsets(const Graph& g, std::vector<std::size_t>& off);

/// Per-node engine bookkeeping, single-writer (the owning shard), packed
/// so the route phase touches one 8-byte record per delivered node:
/// mark == e means the node is already scheduled for the round with
/// epoch e, and mark == kAsleep | r that it sleeps on a timer due at
/// run-local round r (epochs stay below kAsleep, so the two never
/// meet); rcv counts messages awaiting the node in its port slots,
/// which lets the inbox gather stop scanning ports early.
struct NodeGate {
  static constexpr std::uint32_t kAsleep = 0x80000000u;
  std::uint32_t mark = 0;
  std::uint32_t rcv = 0;
};

/// A delivery that does not go straight into a local port slot: a
/// delayed or duplicated copy bound for a delay ring, or a message for a
/// node another process steps (mp's ROUND frames carry exactly these).
/// Ports and rounds are receiver-side and run-local: `port` is the arrival
/// port of `dst`, due at `deliver_round` and sent at `origin_round`, which
/// keys the canonical per-receiver ring order, so delivery order never
/// depends on the shard or rank layout.
struct LateMsg {
  NodeId dst = 0;
  int port = 0;
  int deliver_round = 0;
  int origin_round = 0;
  Message msg;
};

/// Fate of one sent message under a plan: lost, or delivered on time
/// plus an optional duplicate `dup` rounds late, or (its only copy)
/// `late` rounds late. 0 = no duplicate / not late.
struct Fate {
  bool drop = false;
  int dup = 0;
  int late = 0;
};

/// Decide, count and trace the fault fate of one message sent at
/// lifetime round `life_round` to receiver `u`'s slot `in_slot`: the
/// plan's exact (run seed, round, slot) hash, so every executor replays
/// one history. `Stats` is RunStats or AsyncStats (same counter names).
template <typename Stats>
inline Fate message_fate(const FaultPlan& plan, std::uint64_t fseed,
                         std::uint64_t life_round, std::uint64_t in_slot,
                         [[maybe_unused]] NodeId u, Stats& stats,
                         [[maybe_unused]] obs::ShardObs* o) {
  using fault_detail::mix;
  using fault_detail::to_unit;
  Fate f;
  const std::uint64_t h = mix(fseed, life_round, in_slot, 0);
  if (plan.drop_prob > 0 &&
      to_unit(mix(h, fault_detail::kSaltDrop, 0, 0)) < plan.drop_prob) {
    f.drop = true;
    ++stats.dropped_messages;
    DMATCH_OBS(if (o != nullptr) {
      o->trace(obs::EventType::kFaultDrop, static_cast<std::uint32_t>(u),
               in_slot);
    })
    return f;
  }
  if (plan.duplicate_prob > 0 &&
      to_unit(mix(h, fault_detail::kSaltDup, 0, 0)) < plan.duplicate_prob) {
    f.dup = fault_detail::delay_amount(
        mix(h, fault_detail::kSaltDupAmount, 0, 0), plan);
    ++stats.duplicated_messages;
    DMATCH_OBS(if (o != nullptr) {
      o->trace(obs::EventType::kFaultDuplicate, static_cast<std::uint32_t>(u),
               in_slot, static_cast<std::uint64_t>(f.dup));
    })
  }
  if (plan.delay_prob > 0 &&
      to_unit(mix(h, fault_detail::kSaltDelay, 0, 0)) < plan.delay_prob) {
    f.late = fault_detail::delay_amount(
        mix(h, fault_detail::kSaltDelayAmount, 0, 0), plan);
    ++stats.delayed_messages;
    DMATCH_OBS(if (o != nullptr) {
      o->trace(obs::EventType::kFaultDelay, static_cast<std::uint32_t>(u),
               in_slot, static_cast<std::uint64_t>(f.late));
    })
  }
  return f;
}

/// The plan's seeded per-receiver inbox reorder: with probability
/// reorder_prob (a pure hash of run seed, lifetime round and node), the
/// inbox is Fisher–Yates shuffled by a stream seeded from that hash.
template <typename Stats>
inline void reorder_inbox(const FaultPlan& plan, std::uint64_t fseed,
                          std::uint64_t life_round, NodeId v,
                          std::vector<Envelope>& inbox, Stats& stats,
                          [[maybe_unused]] obs::ShardObs* o) {
  if (plan.reorder_prob <= 0 || inbox.size() < 2) return;
  const std::uint64_t h =
      fault_detail::mix(fseed, fault_detail::kSaltReorder, life_round,
                        static_cast<std::uint64_t>(v));
  if (fault_detail::to_unit(h) >= plan.reorder_prob) return;
  std::uint64_t state = h;
  for (std::size_t i = inbox.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(splitmix64(state) % (i + 1));
    std::swap(inbox[i], inbox[j]);
  }
  ++stats.reordered_inboxes;
  DMATCH_OBS(if (o != nullptr) {
    o->trace(obs::EventType::kFaultReorder, static_cast<std::uint32_t>(v));
  })
}

/// The engine's Context: a node's view for one round, bound to its
/// register, RNG stream and the shard's outbox. send() enforces the
/// CONGEST cap (Model::kCongest), accounts the message, and feeds the
/// link profiler at the sender-side slot when observed.
class EngineContext final : public Context {
 public:
  EngineContext(const Graph& g, NodeId id, int round, Rng& rng,
                int& mate_port, Model model, std::uint32_t cap_bits,
                std::vector<Envelope>& outbox, RunStats& stats)
      : g_(g),
        id_(id),
        round_(round),
        rng_(rng),
        mate_port_(mate_port),
        model_(model),
        cap_bits_(cap_bits),
        outbox_(outbox),
        stats_(stats) {}

  [[nodiscard]] NodeId id() const override { return id_; }
  [[nodiscard]] int degree() const override { return g_.degree(id_); }
  [[nodiscard]] NodeId neighbor_id(int port) const override {
    return g_.neighbor(id_, port);
  }
  [[nodiscard]] Weight edge_weight(int port) const override {
    return g_.weight(g_.incident_edges(id_)[static_cast<std::size_t>(port)]);
  }
  [[nodiscard]] NodeId n_bound() const override { return g_.node_count(); }
  [[nodiscard]] int round() const override { return round_; }
  Rng& rng() override { return rng_; }

  /// Recorded for step_node, which parks the node on a timer instead of
  /// the next round's active list.
  void sleep_until(int round) override { wake_ = round; }
  [[nodiscard]] int wake_round() const noexcept { return wake_; }

  void send(int port, Message msg) override {
    DMATCH_EXPECTS(port >= 0 && port < degree());
    if (model_ == Model::kCongest && msg.bits() > cap_bits_) {
      throw MessageTooLarge("message of " + std::to_string(msg.bits()) +
                            " bits exceeds CONGEST cap of " +
                            std::to_string(cap_bits_) + " bits");
    }
    ++stats_.messages;
    stats_.total_bits += msg.bits();
    stats_.max_message_bits = std::max(stats_.max_message_bits, msg.bits());
    DMATCH_OBS(if (obs_ != nullptr) {
      obs_->link_message(obs_base_ + static_cast<std::size_t>(port),
                         msg.bits());
    })
    outbox_.push_back({port, std::move(msg)});
  }

  [[nodiscard]] int mate_port() const override { return mate_port_; }
  void set_mate_port(int port) override {
    DMATCH_EXPECTS(port >= 0 && port < degree());
    mate_port_ = port;
  }
  void clear_mate() override { mate_port_ = -1; }

#ifndef DMATCH_OBS_DISABLED
  [[nodiscard]] obs::ShardObs* obs() noexcept override { return obs_; }
  /// `base_slot` = this node's first sender-side slot.
  void attach_obs(obs::ShardObs* o, std::size_t base_slot) noexcept {
    obs_ = o;
    obs_base_ = base_slot;
  }
#endif

 private:
#ifndef DMATCH_OBS_DISABLED
  obs::ShardObs* obs_ = nullptr;
  std::size_t obs_base_ = 0;
#endif
  const Graph& g_;
  NodeId id_;
  int round_;
  Rng& rng_;
  int& mate_port_;
  Model model_;
  std::uint32_t cap_bits_;
  std::vector<Envelope>& outbox_;
  RunStats& stats_;
  int wake_ = 0;  // sleep_until's round; 0 = stay awake
};

/// Constants of one run, fixed by State::begin_run.
struct RunFrame {
  const FaultPlan* plan = nullptr;  // the active plan; nullptr = fault-free
  std::uint64_t base_round = 0;     // lifetime round of run-local round 0
  std::uint64_t fseed = 0;          // this run's message-fault seed
  // Delay-ring width: a message sent at round r is parked for round
  // r+2 .. r+1+max_delay, and buckets r and r+1 are in use, so
  // max_delay+2 never wraps a live bucket onto one being filled.
  int delay_window = 0;

  [[nodiscard]] bool faults() const noexcept { return plan != nullptr; }
  [[nodiscard]] std::uint64_t life_round(int round) const noexcept {
    return base_round + static_cast<std::uint64_t>(round);
  }
};

/// A node's own state as it was before its step in the current round:
/// everything a step can change that outlives the run.
struct NodeUndo {
  NodeId v = 0;
  int reg = -1;
  char restart_cleared = 0;
  Rng rng{0};
};

/// The sleeping nodes due at one run-local round (see ShardRun::timers).
struct TimerBucket {
  int round = 0;
  std::vector<NodeId> nodes;
};

/// One shard's (or one rank's) state for a run. Everything here has
/// exactly one writer — the worker stepping and routing the shard.
struct ShardRun {
  std::vector<NodeId> active;       // nodes to step this round (any order)
  std::vector<NodeId> next_active;  // being built for the next round
  RunStats stats;                   // private accumulator, merged at the end
  std::vector<Envelope> inbox;      // scratch, reused across nodes
  std::vector<Envelope> outbox;     // scratch, reused across nodes
  // Delay ring (faulty runs only): bucket [r % delay_window] holds the
  // delayed and duplicated deliveries due at run-local round r, for this
  // shard's nodes. Buckets are canonically sorted at the preceding route
  // phase.
  std::vector<std::vector<LateMsg>> ring;
  std::uint64_t pending_extras = 0;  // entries parked across all buckets
  // Sleeping nodes (fault-free runs only): their timers, one bucket per
  // pending wake round in ascending round order — a protocol's sleepers
  // share a few distinct rounds, so a sleep and a wake-up cost O(1) —
  // and the number of nodes whose timer is live. An entry whose node's
  // gate no longer marks it asleep until that round was superseded when
  // the node was scheduled earlier, and is dropped when it comes due.
  std::vector<TimerBucket> timers;
  std::uint64_t sleepers = 0;
  // Faulty runs only: the nodes stepped this round, as they were before
  // their step, so an aborted round can be undone (State::undo_steps).
  // The round loop clears it when the shard's step phase begins.
  std::vector<NodeUndo> undo;
  // Globally indexed views of this shard's slab segments, and its
  // observability handle (nullptr = unobserved). Set by State::bind.
  int* regs = nullptr;
  Rng* rngs = nullptr;
  NodeGate* gates = nullptr;
  obs::ShardObs* obs = nullptr;
};

/// Persistent per-node engine state of a synchronous executor: routing
/// tables, RNG streams, output registers, mailboxes and crash schedule.
/// Per-node values live in shard-indexed SoA slabs (support/slab.hpp),
/// so executors whose shards step concurrently never share a line.
struct State {
  /// Lay out every table for `g` in a `shards`-segment slab layout and
  /// fill the slot offsets (a sequential scan). build_routes fills the
  /// rest, shard by shard. The per-message cap is `congest_factor` units
  /// of ceil(log2 n), the log floored at 4 so toy graphs can still run
  /// protocols whose constants assume a few 64-bit words. Registers and
  /// gates start clear, no mailbox slot is live, and the epoch, lifetime
  /// round and fault nonce start over; on a State laid out before, every
  /// buffer is reused and grows geometrically.
  void init(const Graph& g, std::uint32_t congest_factor, unsigned shards);
  /// Fill the RNG forks of `root` and the cross-endpoint peer tables for
  /// the node range of slab shard `s`. Every entry is a pure function of
  /// (seed, graph), so distinct shards may be filled concurrently and the
  /// tables are identical for any shard count.
  void build_routes(const Rng& root, unsigned s);
  /// Precompute the whole crash schedule of an active plan, so every
  /// executor built with it — at any thread or rank count — agrees on who
  /// dies when before a single round executes.
  void init_faults(const FaultPlan& plan);

  /// Open a run: renormalize the epochs if due and fix the run's fault
  /// constants (advancing the fault nonce under an active plan).
  RunFrame begin_run(const FaultPlan& plan);
  /// Bind a ShardRun (fresh, or reused from an earlier run with its
  /// node lists empty) to slab shard `s` for the run `rf`.
  void bind(ShardRun& sh, unsigned s, const RunFrame& rf);
  /// Build the run's processes for `nodes` (ascending, all in the
  /// shard) and schedule the live ones: a crash-restart interval
  /// completed before the run clears the register once, and nodes dead
  /// at lifetime round `dead_round` wait for their restart event.
  void spawn(ShardRun& sh, const RunFrame& rf, std::span<const NodeId> nodes,
             const ProcessFactory& factory,
             std::vector<std::unique_ptr<Process>>& procs,
             std::uint64_t dead_round);

  /// Step node `v` for run-local round `round`. Each message sent is
  /// handed to `sink` by its fault fate: sink.deliver(u, in_slot, msg)
  /// for an on-time delivery into receiver u's slot, sink.park(LateMsg)
  /// for a delayed or duplicated copy.
  template <typename Sink>
  void step_node(ShardRun& sh, const RunFrame& rf, int round, NodeId v,
                 std::vector<std::unique_ptr<Process>>& procs,
                 const ProcessFactory& factory, Sink& sink);

  /// Write an on-time delivery into next round's port slot. At most one
  /// message per port per round: a second send would silently overwrite
  /// the first, so it is a contract violation.
  void post(std::size_t in_slot, Message&& msg) {
    const std::uint32_t next_epoch = epoch + 1;
    DMATCH_EXPECTS(nxt_stamp[in_slot] != next_epoch);
    nxt_msg[in_slot] = std::move(msg);
    nxt_stamp[in_slot] = next_epoch;
  }
  /// Route phase: a message for `u` landed in one of its port slots.
  void wake(ShardRun& sh, NodeId u) const {
    ++sh.gates[static_cast<std::size_t>(u)].rcv;
    schedule(sh, u);
  }
  /// Schedule `u` for the next round (once). A sleeper's timer is
  /// superseded: it is stepped next round, and sleeps again only if it
  /// asks to.
  void schedule(ShardRun& sh, NodeId u) const {
    NodeGate& gate = sh.gates[static_cast<std::size_t>(u)];
    if (gate.mark != epoch + 1) {
      if ((gate.mark & NodeGate::kAsleep) != 0) --sh.sleepers;
      gate.mark = epoch + 1;
      sh.next_active.push_back(u);
    }
  }
  /// Step phase: put `v` to sleep until `round`.
  static void add_timer(ShardRun& sh, NodeId v, int round) {
    sh.gates[static_cast<std::size_t>(v)].mark =
        NodeGate::kAsleep | static_cast<std::uint32_t>(round);
    ++sh.sleepers;
    auto it = sh.timers.end();
    while (it != sh.timers.begin() && std::prev(it)->round > round) --it;
    if (it == sh.timers.begin() || std::prev(it)->round != round) {
      it = std::next(sh.timers.insert(it, TimerBucket{round, {}}));
    }
    std::prev(it)->nodes.push_back(v);
  }
  /// Route phase: schedule the sleepers whose timer is due at `round`.
  void fire_timers(ShardRun& sh, int round) const {
    while (!sh.timers.empty() && sh.timers.front().round <= round) {
      TimerBucket& due = sh.timers.front();
      const std::uint32_t asleep =
          NodeGate::kAsleep | static_cast<std::uint32_t>(due.round);
      for (const NodeId v : due.nodes) {
        // A node stepped since it slept no longer carries this mark.
        if (sh.gates[static_cast<std::size_t>(v)].mark != asleep) continue;
        schedule(sh, v);
      }
      sh.timers.erase(sh.timers.begin());
    }
  }
  /// Run end: drop every timer and clear its node's gate (a sleeper has
  /// no receive count).
  static void drop_timers(ShardRun& sh) {
    for (const TimerBucket& bucket : sh.timers) {
      for (const NodeId v : bucket.nodes) {
        sh.gates[static_cast<std::size_t>(v)] = NodeGate{};
      }
    }
    sh.timers.clear();
    sh.sleepers = 0;
  }
  /// Route phase: park a delayed or duplicated delivery in the ring.
  static void park(ShardRun& sh, const RunFrame& rf, LateMsg&& m) {
    sh.ring[static_cast<std::size_t>(m.deliver_round % rf.delay_window)]
        .push_back(std::move(m));
    ++sh.pending_extras;
  }
  /// Close a faulty route phase for a shard owning nodes [lo, hi): retire
  /// the bucket consumed this round, canonicalize next round's bucket and
  /// wake its receivers, and wake the nodes whose restart round is next.
  void finish_route(ShardRun& sh, const RunFrame& rf, int round,
                    std::size_t lo, std::size_t hi);
  /// Commit a round: swap the mailbox buffers and advance the epoch.
  void advance_round() {
    std::swap(cur_msg, nxt_msg);
    std::swap(cur_stamp, nxt_stamp);
    ++epoch;
  }
  /// Packed 32-bit epochs alias only after ~2^31 rounds (the gate's top
  /// bit marks sleepers): remap the stamp space long before that.
  /// Callable only between rounds or runs.
  void renormalize_if_due();

  /// Close a shard's run: deliveries still parked when the budget ran out
  /// are lost, and crash events of nodes [lo, hi) inside the run's window
  /// are counted (restarts were counted at their wake-ups).
  void close_run(ShardRun& sh, const RunFrame& rf, int executed,
                 std::size_t lo, std::size_t hi) const;
  /// Leave a run (completed or aborted): jump the epoch past both mailbox
  /// buffers so no stale message or scheduling mark leaks into a later
  /// run, and advance the lifetime clock by the executed rounds. The
  /// round loop zeroes the receive counts of the nodes it leaves
  /// scheduled, the only gates a run can leave non-zero.
  void end_run(const RunFrame& rf, int executed);
  /// Abort a round under an active plan: write back the register, RNG
  /// stream and restart flag of every node `sh` stepped this round from
  /// its undo log. Which nodes stepped before the abort depends on the
  /// layout and on timing; after this, nothing of it shows. Costs one
  /// entry per stepped node, nothing per idle one.
  void undo_steps(ShardRun& sh);

  [[nodiscard]] bool dead_at(NodeId v, std::uint64_t round) const noexcept {
    const auto vi = static_cast<std::size_t>(v);
    return crash_at[vi] <= round && round < restart_at[vi];
  }
  /// True if v is dead at the current lifetime round.
  [[nodiscard]] bool node_dead(NodeId v) const noexcept {
    return fault_active && dead_at(v, lifetime_rounds);
  }

  const Graph* g = nullptr;
  Model model = Model::kCongest;
  std::uint32_t cap_bits = 0;

  // Routing tables, built once: peer_slot[i] is the slot of slot i's edge
  // at the other endpoint; peer_node[i] is that endpoint.
  std::vector<std::size_t> slot_offset;  // size n+1 (CSR offsets)
  std::vector<std::uint32_t> peer_slot;  // size 2m
  std::vector<NodeId> peer_node;         // size 2m

  support::ShardSlab<Rng> rng;
  support::ShardSlab<int> reg;  // output registers; -1 = unmatched
  support::ShardSlab<NodeGate> gates;

  // Double-buffered port-indexed mailboxes. A slot holds a live message
  // for the current round iff its stamp equals `epoch`; the epoch
  // advances every round (and past both buffers at the end of every
  // run), so the buffers never need clearing. Stamps are packed to 32
  // bits so the gather's port scan walks half the memory of u64 stamps;
  // renormalize_if_due keeps them from wrapping.
  std::vector<Message> cur_msg, nxt_msg;  // size 2m each
  std::vector<std::uint32_t, support::AlignedAlloc<std::uint32_t>> cur_stamp,
      nxt_stamp;  // size 2m each
  std::uint32_t epoch = 1;

  // Fault-injection state (all empty / inert without an active plan).
  // Crash schedules are per-node lifetime-round intervals;
  // restart_events is the same schedule sorted by restart round so the
  // route phase can wake restarting nodes without scanning all n.
  bool fault_active = false;
  std::vector<std::uint64_t> crash_at;    // kRoundNever = never crashes
  std::vector<std::uint64_t> restart_at;  // kRoundNever = stays dead
  std::vector<std::pair<std::uint64_t, NodeId>> restart_events;
  std::vector<char> respawn_pending;  // restart observed; recreate process
  std::vector<char> restart_cleared;  // register already reset for restart
  std::uint64_t lifetime_rounds = 0;
  std::uint64_t fault_nonce = 0;  // decorrelates fault draws across runs
};

template <typename Sink>
void State::step_node(ShardRun& sh, const RunFrame& rf, int round, NodeId v,
                      std::vector<std::unique_ptr<Process>>& procs,
                      const ProcessFactory& factory, Sink& sink) {
  const auto vi = static_cast<std::size_t>(v);
  const std::size_t base = slot_offset[vi];
  NodeGate& gate = sh.gates[vi];
  const std::uint64_t life_round = rf.life_round(round);
  const auto by_node = [](const LateMsg& e, NodeId node) {
    return e.dst < node;
  };

  if (rf.faults()) {
    auto& due = sh.ring[static_cast<std::size_t>(round % rf.delay_window)];
    if (dead_at(v, life_round)) {
      // Dead node: consume and discard everything addressed to it.
      // Delayed deliveries stay parked; the route phase clears the
      // bucket wholesale after this round.
      sh.stats.dropped_messages += gate.rcv;
      gate.rcv = 0;
      auto it = std::lower_bound(due.begin(), due.end(), v, by_node);
      for (; it != due.end() && it->dst == v; ++it) {
        ++sh.stats.dropped_messages;
      }
      return;
    }
    sh.undo.push_back({v, sh.regs[vi], restart_cleared[vi], sh.rngs[vi]});
    if (respawn_pending[vi]) {
      // Crash-restart: fresh protocol state, cleared register.
      respawn_pending[vi] = 0;
      restart_cleared[vi] = 1;
      sh.regs[vi] = -1;
      procs[vi] = factory(v, *g);
    }
  }

  Process* const proc = procs[vi].get();
  if (proc == nullptr) {
    // Parked node (factory returned nullptr): discard anything addressed
    // to it. The stale port slots expire with the epoch stamp; delayed-
    // ring buckets are cleared wholesale by the route phase.
    gate.rcv = 0;
    return;
  }

  // Gather the inbox from the port slots; slots are visited in port
  // order, so no sort is needed, and the receive counter cuts the scan
  // short.
  sh.inbox.clear();
  std::uint32_t remaining = gate.rcv;
  gate.rcv = 0;
  const std::size_t slot_end = slot_offset[vi + 1];
  for (std::size_t slot = base; remaining > 0 && slot < slot_end; ++slot) {
    if (cur_stamp[slot] == epoch) {
      sh.inbox.push_back(
          {static_cast<int>(slot - base), std::move(cur_msg[slot])});
      --remaining;
    }
  }
  DMATCH_ASSERT(remaining == 0);

  if (rf.faults()) {
    // Append delayed / duplicated deliveries due this round. The bucket
    // was sorted by (node, port, origin round) at the last route phase,
    // so this order is layout independent.
    auto& due = sh.ring[static_cast<std::size_t>(round % rf.delay_window)];
    auto it = std::lower_bound(due.begin(), due.end(), v, by_node);
    for (; it != due.end() && it->dst == v; ++it) {
      sh.inbox.push_back({it->port, std::move(it->msg)});
    }
  }

  if (proc->halted() && sh.inbox.empty()) return;

  if (rf.faults()) {
    reorder_inbox(*rf.plan, rf.fseed, life_round, v, sh.inbox, sh.stats,
                  sh.obs);
  }

  sh.outbox.clear();
  EngineContext ctx(*g, v, round, sh.rngs[vi], sh.regs[vi], model, cap_bits,
                    sh.outbox, sh.stats);
  DMATCH_OBS(ctx.attach_obs(sh.obs, base);)
  proc->on_round(ctx, sh.inbox);

  for (Envelope& env : sh.outbox) {
    const std::size_t out_slot = base + static_cast<std::size_t>(env.port);
    const std::size_t in_slot = peer_slot[out_slot];
    const NodeId u = peer_node[out_slot];
    if (rf.faults()) {
      const Fate f = message_fate(*rf.plan, rf.fseed, life_round, in_slot, u,
                                  sh.stats, sh.obs);
      if (f.drop) continue;
      if (f.dup != 0 || f.late != 0) {
        const int rport = static_cast<int>(
            in_slot - slot_offset[static_cast<std::size_t>(u)]);
        if (f.dup != 0) {
          sink.park(LateMsg{u, rport, round + 1 + f.dup, round, env.msg});
        }
        if (f.late != 0) {
          // The only copy arrives late, through the delay ring.
          sink.park(
              LateMsg{u, rport, round + 1 + f.late, round, std::move(env.msg)});
          continue;
        }
      }
    }
    sink.deliver(u, in_slot, std::move(env.msg));
  }
  if (proc->halted()) return;
  // A sleep hint parks the node on a timer instead of the next round's
  // active list. Faulty runs ignore it: a dead sleeper must drop out when
  // it dies, as an awake one does, and an aborted round has no timers to
  // undo.
  const int wake = ctx.wake_round();
  if (wake > round + 1 && !rf.faults()) {
    add_timer(sh, v, wake);
    return;
  }
  sh.next_active.push_back(v);
  gate.mark = epoch + 1;
}

/// Round-start snapshot of the observer under an active plan, where a
/// protocol's invariants may legitimately break: the metrics slabs, the
/// per-shard trace marks and the link profile. Shards step independently
/// until the barrier, and a failed step stops the others early, so what
/// an aborted round recorded depends on the layout and on timing;
/// restoring the snapshot, with State::undo_steps for the nodes' own
/// state, makes every abort, and every later run on the same State,
/// independent of both.
class RoundRollback {
 public:
  void capture(obs::Observer* observer, unsigned shards, bool profiled);
  void restore(obs::Observer* observer, unsigned shards, bool profiled);

 private:
#ifndef DMATCH_OBS_DISABLED
  std::vector<std::vector<std::uint64_t>> metrics_;
  std::vector<obs::TraceSink::Mark> marks_;
  obs::CongestionProfiler::LinkSnapshot links_;
#endif
};

/// Round-end observability on the lead handle (at its `now`): kRoundEnd
/// with the round's message and bit counts, the per-round histograms and
/// the profiler's round curve.
void record_round_end(obs::Observer& observer, obs::ShardObs& o,
                      std::uint64_t sent, std::uint64_t bits);

/// Trace the crash and restart instants of a schedule that fall inside
/// the lifetime window [base_round, end_round), on the clock of a run
/// that started at `run_start_clock`.
void trace_crash_window(obs::ShardObs& o,
                        const std::vector<std::uint64_t>& crash_at,
                        const std::vector<std::uint64_t>& restart_at,
                        std::uint64_t base_round, std::uint64_t end_round,
                        std::uint64_t run_start_clock);

/// Import the fault counters of a run into the registry.
template <typename Stats>
void count_faults(obs::ShardObs& o, const Stats& s) {
  const obs::StdMetricIds& mid = o.ids();
  o.count(mid.fault_dropped, s.dropped_messages);
  o.count(mid.fault_duplicated, s.duplicated_messages);
  o.count(mid.fault_delayed, s.delayed_messages);
  o.count(mid.fault_reordered, s.reordered_inboxes);
  o.count(mid.fault_crashed, s.crashed_nodes);
  o.count(mid.fault_restarted, s.restarted_nodes);
}

/// End-of-run observability of a synchronous run on the lead handle: the
/// crash/restart instants of the run's window (faulty runs), then the
/// run's totals, imported into the registry off the hot path.
void export_run_obs(obs::ShardObs& o, const State& k, const RunFrame& rf,
                    int executed, std::uint64_t run_start_clock,
                    const RunStats& stats);

}  // namespace kernel

}  // namespace dmatch::congest
