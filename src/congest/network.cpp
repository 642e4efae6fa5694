#include "congest/network.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <numeric>
#include <thread>
#include <utility>

#include "support/assert.hpp"

namespace dmatch::congest {

namespace {

/// Per-shard run state plus the shard's first throw. Cache-line aligned
/// so neighboring shards' stats counters don't ping-pong a line.
struct alignas(64) ShardState : kernel::ShardRun {
  std::exception_ptr error;
};

}  // namespace

struct Network::RunScratch {
  std::vector<std::unique_ptr<Process>> procs;  // size n; empty between runs
  std::vector<ShardState> shards;               // num_shards
  // Activity lanes: lane(src, dst) carries the ids of nodes in shard dst
  // that shard src delivered a message to; the payloads themselves go
  // straight into the port slots. Drained by dst at the routing barrier.
  std::vector<std::vector<NodeId>> lanes;  // num_shards²
  // Same shape for faulty (delayed / duplicated) deliveries, which carry
  // their payload with them because they bypass the port slots.
  std::vector<std::vector<kernel::LateMsg>> fault_lanes;
  // Deliveries for nodes other processes step, one lane per (sending
  // shard, receiving process), and the batches the barrier brings in.
  std::vector<std::vector<kernel::LateMsg>> remote;
  std::vector<std::vector<kernel::LateMsg>> incoming;
};

Network::Network(const Graph& g, Model model, std::uint64_t seed,
                 std::uint32_t congest_factor)
    : Network(g, model, seed, congest_factor, Options()) {}

Network::Network(const Graph& g, Model model, std::uint64_t seed,
                 std::uint32_t congest_factor, Options options)
    : g_(&g), congest_factor_(congest_factor), options_(std::move(options)) {
  num_threads_ = options_.num_threads != 0
                     ? options_.num_threads
                     : std::max(1u, std::thread::hardware_concurrency());
  sched_ = std::make_unique<support::Scheduler>(num_threads_, options_.sched);
  k_.model = model;
  layout(seed);
  k_.init_faults(options_.fault);
}

Network::~Network() = default;

void Network::layout(std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(g_->node_count());
  // Shard count is frozen here: one shard at one thread, several
  // stealable blocks per worker otherwise. Results are shard-layout
  // independent, so every thread count produces bit-identical runs.
  num_shards_ = sched_->plan_tasks(n);

  // The slot-offset prefix sums stay sequential (a scan), but the
  // per-node RNG forks and the cross-endpoint peer tables are
  // embarrassingly parallel: each worker fills its own node shard.
  k_.init(*g_, congest_factor_, num_shards_);
  const Rng root(seed);
  sched_->run_tasks(num_shards_,
                    [this, &root](unsigned s) { k_.build_routes(root, s); });
  every_node_.resize(n);
  std::iota(every_node_.begin(), every_node_.end(), NodeId{0});
  if (scratch_ == nullptr) scratch_ = std::make_unique<RunScratch>();
  scratch_->procs.resize(n);
  scratch_->shards.resize(num_shards_);
  scratch_->lanes.resize(static_cast<std::size_t>(num_shards_) * num_shards_);
}

void Network::rebind(std::uint64_t seed) {
  DMATCH_EXPECTS(!fault_active());
  layout(seed);
  // A fresh total, keeping the round histogram's buffer.
  std::vector<std::uint64_t> curve = std::move(total_.round_messages);
  curve.clear();
  total_ = RunStats{};
  total_.round_messages = std::move(curve);
}

RunStats Network::run(const ProcessFactory& factory, int max_rounds,
                      RoundBarrier* barrier) {
  // The nodes this process steps: all of them, or the barrier's part.
  const unsigned parts = barrier != nullptr ? barrier->parts : 1;
  const unsigned part = barrier != nullptr ? barrier->part : 0;
  DMATCH_EXPECTS(part < parts);
  const auto [lo, hi] =
      support::balanced_range(every_node_.size(), parts, part);
  return run_listed(std::span<const NodeId>(every_node_).subspan(lo, hi - lo),
                    factory, max_rounds, barrier);
}

RunStats Network::run(std::span<const NodeId> nodes,
                      const ProcessFactory& factory, int max_rounds) {
  DMATCH_EXPECTS(!fault_active());
  DMATCH_EXPECTS(std::adjacent_find(nodes.begin(), nodes.end(),
                                    std::greater_equal<>()) == nodes.end());
  DMATCH_EXPECTS(nodes.empty() ||
                 (nodes.front() >= 0 &&
                  static_cast<std::size_t>(nodes.back()) < every_node_.size()));
  return run_listed(nodes, factory, max_rounds, nullptr);
}

RunStats Network::run_listed(std::span<const NodeId> nodes,
                             const ProcessFactory& factory, int max_rounds,
                             RoundBarrier* barrier) {
  DMATCH_EXPECTS(max_rounds >= 0);
  const Graph& g = *g_;
  const auto n = static_cast<std::size_t>(g.node_count());
  // The tables hold one node and slot count; a graph grown since
  // (Graph::add_edges) needs rebind() before it runs.
  DMATCH_EXPECTS(k_.slot_offset.size() == n + 1 &&
                 k_.slot_offset[n] ==
                     2 * static_cast<std::size_t>(g.edge_count()));
  // The range of nodes this process steps: all of them, or the barrier's
  // part. The listed nodes lie inside it; the rest of it is parked.
  const unsigned parts = barrier != nullptr ? barrier->parts : 1;
  const unsigned part = barrier != nullptr ? barrier->part : 0;
  const auto [lo, hi] = support::balanced_range(n, parts, part);
  [[maybe_unused]] const bool lead = part == 0;
  const int first_round = barrier != nullptr ? barrier->first_round : 0;

  // Every probabilistic fault decision is a pure hash of (run seed,
  // round, slot-or-node), so the injected history is a function of the
  // plan alone — identical for every thread count.
  const kernel::RunFrame rf = k_.begin_run(options_.fault);
  const bool faults = rf.faults();
  if (options_.sched.profile) sched_->reset_profile();

  const unsigned num_shards = num_shards_;
  const auto shard_of = [n, num_shards](NodeId v) {
    return support::balanced_part_of(n, num_shards,
                                     static_cast<std::size_t>(v));
  };
  // Shard s's stepped nodes: its balanced range clipped to [lo, hi).
  const auto shard_range = [n, num_shards, lo, hi](unsigned s) {
    const support::BalancedRange r =
        support::balanced_range(n, num_shards, s);
    return support::BalancedRange{std::clamp(r.begin, lo, hi),
                                  std::clamp(r.end, lo, hi)};
  };

  RunScratch& rs = *scratch_;
  std::vector<ShardState>& shards = rs.shards;
  for (unsigned s = 0; s < num_shards; ++s) {
    shards[s].error = nullptr;
    k_.bind(shards[s], s, rf);
  }
  const auto lane = [&](unsigned src, unsigned dst) -> std::vector<NodeId>& {
    return rs.lanes[static_cast<std::size_t>(src) * num_shards + dst];
  };
  rs.fault_lanes.resize(
      faults ? static_cast<std::size_t>(num_shards) * num_shards : 0);
  const auto fault_lane =
      [&](unsigned src, unsigned dst) -> std::vector<kernel::LateMsg>& {
    return rs.fault_lanes[static_cast<std::size_t>(src) * num_shards + dst];
  };
  rs.remote.resize(
      barrier != nullptr ? static_cast<std::size_t>(num_shards) * parts : 0);
  const auto remote_lane =
      [&, n, parts](unsigned s, NodeId u) -> std::vector<kernel::LateMsg>& {
    return rs.remote[static_cast<std::size_t>(s) * parts +
                     support::balanced_part_of(n, parts,
                                               static_cast<std::size_t>(u))];
  };
  std::vector<std::vector<kernel::LateMsg>>& incoming = rs.incoming;
  std::vector<std::unique_ptr<Process>>& procs = rs.procs;
  // Shard s's listed nodes: the sorted list cut at its range's bounds.
  const auto shard_nodes = [&](unsigned s) {
    const auto [vb, ve] = shard_range(s);
    const auto first = std::lower_bound(nodes.begin(), nodes.end(),
                                         static_cast<NodeId>(vb));
    const auto last =
        std::lower_bound(first, nodes.end(), static_cast<NodeId>(ve));
    return nodes.subspan(static_cast<std::size_t>(first - nodes.begin()),
                         static_cast<std::size_t>(last - first));
  };
  // Leave the scratch as the next run expects it, however this run ends:
  // no process left behind and no receive count left on a gate.
  struct Cleanup {
    Network& net;
    std::span<const NodeId> nodes;
    ~Cleanup() {
      RunScratch& r = *net.scratch_;
      for (const NodeId v : nodes) r.procs[static_cast<std::size_t>(v)].reset();
      // A receive count survives only on a node still scheduled when the
      // run stopped (budget, trip or abort), and a timer only on a node
      // still asleep; stale marks are harmless, since end_run moves the
      // epoch past them.
      for (ShardState& shard : r.shards) {
        for (const NodeId v : shard.active) {
          shard.gates[static_cast<std::size_t>(v)] = kernel::NodeGate{};
        }
        for (const NodeId v : shard.next_active) {
          shard.gates[static_cast<std::size_t>(v)] = kernel::NodeGate{};
        }
        kernel::State::drop_timers(shard);
        shard.active.clear();
        shard.next_active.clear();
      }
      for (std::vector<NodeId>& box : r.lanes) box.clear();
      for (std::vector<kernel::LateMsg>& box : r.fault_lanes) box.clear();
      for (std::vector<kernel::LateMsg>& box : r.remote) box.clear();
      r.incoming.clear();
    }
  } cleanup{*this, nodes};

  // Shard-major construction: shards are contiguous ascending node
  // ranges, so this visits the listed nodes in global ascending order
  // while touching each register segment exactly once.
  for (unsigned s = 0; s < num_shards; ++s) {
    k_.spawn(shards[s], rf, shard_nodes(s), factory, procs,
             rf.life_round(first_round));
  }

  RunStats stats;
  std::atomic<bool> failed{false};
  RoundBarrier::Counts sent_before;  // msgs and bits of earlier rounds

  // Observability attach: per-shard single-writer handles and a
  // `profiled` flag saying whether this run's graph feeds the link
  // profiler.
  obs::Observer* const observer = this->observer();
  bool profiled = false;
  [[maybe_unused]] std::uint64_t run_start_clock = 0;
  DMATCH_OBS(if (observer != nullptr) {
    profiled = observer->begin_run(num_shards, g);
    run_start_clock = observer->clock();
    if (first_round > 0) observer->advance_clock(first_round);
    for (unsigned s = 0; s < num_shards; ++s) {
      shards[s].obs = observer->shard(s);
    }
  })

  // Deliveries of shard s: on-time ones into the port slots plus an
  // activity-lane entry, faulty ones onto the fault lane of the
  // receiver's shard, and those for nodes another process steps onto the
  // remote lane of that process, due at their receiver-side (port, round).
  struct LaneSink {
    kernel::State& k;
    unsigned s;
    int round;
    std::size_t lo, span;  // stepped here: lo <= u < lo + span
    const decltype(lane)& on_time;
    const decltype(fault_lane)& late;
    const decltype(remote_lane)& remote;
    const decltype(shard_of)& owner;
    [[nodiscard]] bool elsewhere(NodeId u) const {
      return static_cast<std::size_t>(u) - lo >= span;
    }
    void deliver(NodeId u, std::size_t in_slot, Message&& msg) {
      if (elsewhere(u)) {
        const auto port = static_cast<int>(
            in_slot - k.slot_offset[static_cast<std::size_t>(u)]);
        remote(s, u).push_back({u, port, round + 1, round, std::move(msg)});
        return;
      }
      k.post(in_slot, std::move(msg));
      on_time(s, owner(u)).push_back(u);
    }
    void park(kernel::LateMsg&& m) {
      auto& box = elsewhere(m.dst) ? remote(s, m.dst) : late(s, owner(m.dst));
      box.push_back(std::move(m));
    }
  };

  // The shard tasks of round `executed`. Each is handed to the scheduler
  // through a one-reference wrapper, which std::function holds without
  // allocating.
  int executed = first_round;
  const auto step_shard = [&](unsigned s) {
    ShardState& shard = shards[s];
    shard.undo.clear();
    LaneSink sink{k_,   s,          executed,    lo,      hi - lo,
                  lane, fault_lane, remote_lane, shard_of};
    try {
      for (const NodeId v : shard.active) {
        if (failed.load(std::memory_order_relaxed)) break;
        k_.step_node(shard, rf, executed, v, procs, factory, sink);
      }
    } catch (...) {
      shard.error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  const auto route_shard = [&](unsigned t) {
    ShardState& shard = shards[t];
    try {
      for (unsigned s = 0; s < num_shards; ++s) {
        std::vector<NodeId>& box = lane(s, t);
        for (const NodeId u : box) k_.wake(shard, u);
        box.clear();
      }
      for (std::vector<kernel::LateMsg>& batch : incoming) {
        for (kernel::LateMsg& m : batch) {
          const NodeId u = m.dst;
          DMATCH_EXPECTS(static_cast<std::size_t>(u) - lo < hi - lo);
          if (shard_of(u) != t) continue;
          if (m.deliver_round == executed + 1) {
            k_.post(k_.slot_offset[static_cast<std::size_t>(u)] +
                        static_cast<std::size_t>(m.port),
                    std::move(m.msg));
            k_.wake(shard, u);
          } else {
            DMATCH_EXPECTS(faults && m.deliver_round > executed + 1);
            kernel::State::park(shard, rf, std::move(m));
          }
        }
      }
      k_.fire_timers(shard, executed + 1);
      if (!faults) return;
      // Park this round's delayed / duplicated sends in the delay ring.
      for (unsigned s = 0; s < num_shards; ++s) {
        std::vector<kernel::LateMsg>& box = fault_lane(s, t);
        for (kernel::LateMsg& m : box) {
          kernel::State::park(shard, rf, std::move(m));
        }
        box.clear();
      }
      const auto [vb, ve] = shard_range(t);
      k_.finish_route(shard, rf, executed, vb, ve);
    } catch (...) {
      shard.error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  // Quiescent = nothing scheduled, nothing parked in a delay ring (under
  // faults) and no node asleep on a timer, on every process. A sleeper
  // counts as parked, so a run lasts as many rounds as it would with
  // every sleeper awake.
  RoundBarrier::Counts global;
  for (const ShardState& shard : shards) {
    global.scheduled += shard.active.size();
  }
  if (barrier != nullptr) barrier->start(global);
  const auto idle = [&global] {
    return global.scheduled == 0 && global.parked == 0;
  };

  kernel::RoundRollback rollback;
  bool quiesced = false;
  bool tripped = false;
  for (; executed < max_rounds; ++executed) {
    if (barrier != nullptr && !barrier->proceed(executed)) {
      k_.end_run(rf, executed);
      return {};
    }
    quiesced = idle();
    if (quiesced) break;
    // Between rounds is the other safe renormalization point, covering
    // single runs long enough to approach the 32-bit epoch ceiling.
    k_.renormalize_if_due();

    DMATCH_OBS(if (observer != nullptr) {
      const std::uint64_t now = observer->clock();
      for (ShardState& shard : shards) shard.obs->now = now;
    })
    // Snapshot before emitting anything, so an aborted round rolls back
    // to a state with no trace of the round at all.
    if (faults) rollback.capture(observer, num_shards, profiled);
    DMATCH_OBS(if (observer != nullptr && lead) {
      shards[0].obs->trace(obs::EventType::kRoundStart, 0, global.scheduled);
    })

    sched_->run_tasks(num_shards,
                      [&step_shard](unsigned s) { step_shard(s); });
    bool ok = !failed.load(std::memory_order_relaxed);
    if (barrier != nullptr) {
      ok = barrier->exchange(executed, !ok, rs.remote, incoming,
                             shards[0].stats);
    }
    RoundBarrier::Counts local;  // carried into the next round, and sent
    if (ok) {
      sched_->run_tasks(num_shards,
                        [&route_shard](unsigned t) { route_shard(t); });
      incoming.clear();
      for (const ShardState& shard : shards) {
        local.scheduled += shard.next_active.size();
        local.parked += shard.pending_extras + shard.sleepers;
        local.msgs += shard.stats.messages;
        local.bits += shard.stats.total_bits;
      }
      local.msgs -= sent_before.msgs;
      local.bits -= sent_before.bits;
      global = local;
      ok = !failed.load(std::memory_order_relaxed);
      if (barrier != nullptr) ok = barrier->settle(executed, !ok, global);
    }
    if (!ok) {
      if (faults) {
        for (ShardState& shard : shards) k_.undo_steps(shard);
        rollback.restore(observer, num_shards, profiled);
      }
      tripped = true;
      break;
    }

    stats.round_messages.push_back(local.msgs);
    ++stats.rounds;
    sent_before.msgs += local.msgs;
    sent_before.bits += local.bits;

    DMATCH_OBS(if (observer != nullptr) {
      if (lead) {
        kernel::record_round_end(*observer, *shards[0].obs, global.msgs,
                                 global.bits);
      }
      observer->advance_clock();
    })

    k_.advance_round();
    for (ShardState& shard : shards) {
      std::swap(shard.active, shard.next_active);
      shard.next_active.clear();
    }
  }

  if (tripped && barrier == nullptr) {
    k_.end_run(rf, executed);
    for (const ShardState& shard : shards) {
      if (shard.error != nullptr) std::rethrow_exception(shard.error);
    }
  }
  if (tripped) {
    stats = RunStats{};
    stats.completed = false;
  } else {
    // Budget exhausted: completed only if nothing is pending.
    stats.completed = quiesced || idle();
    for (unsigned s = 0; s < num_shards; ++s) {
      const auto [vb, ve] = shard_range(s);
      k_.close_run(shards[s], rf, executed, vb, ve);
      stats.merge(shards[s].stats);
    }
  }
  [[maybe_unused]] const bool tripped_anywhere =
      barrier != nullptr ? barrier->finish(stats, tripped) : tripped;

  DMATCH_OBS(if (observer != nullptr && lead && !tripped_anywhere) {
    obs::ShardObs* const o = shards[0].obs;
    kernel::export_run_obs(*o, k_, rf, executed, run_start_clock, stats);
    // Engine-side half of the round-accounting cross-check (the full
    // check lives in core/verify): the profiler's curve tail must
    // replicate RunStats.round_messages exactly. A split run's curve
    // holds global sums its survivors' shares need not add up to.
    if (barrier == nullptr) {
      const auto& curve = observer->profiler().round_messages();
      DMATCH_ASSERT(curve.size() >= stats.round_messages.size());
      const std::size_t tail = curve.size() - stats.round_messages.size();
      for (std::size_t i = 0; i < stats.round_messages.size(); ++i) {
        DMATCH_ASSERT(curve[tail + i] == stats.round_messages[i]);
      }
    }
    // Scheduling profile export. Wall-clock service times are inherently
    // non-deterministic, so this is opt-in: without sched.profile the
    // deterministic-artifact guarantee (byte-identical traces/metrics
    // across thread counts) holds unconditionally.
    if (options_.sched.profile) {
      const auto& service = sched_->task_service_ns();
      for (unsigned t = 0; t < num_shards && t < service.size(); ++t) {
        o->trace(obs::EventType::kSchedShard, t, service[t]);
        o->observe(o->ids().sched_shard_service_ns, service[t]);
      }
    }
  })

  k_.end_run(rf, executed);
  total_.merge(stats);
  return stats;
}

Matching Network::extract_matching() const {
  const Graph& g = *g_;
  Matching m(g.node_count());
  // Parallel scan, deterministic reduction: each task checks and
  // collects the matched edges (as seen from their lower endpoint) of
  // its contiguous node shard; the driver then applies the per-shard
  // lists in shard order, which is exactly the sequential v-ascending
  // order. Contract trips are captured per shard and rethrown lowest
  // shard first (the scheduler's contract), so the thrown violation is
  // thread-count-independent. The scan reads a flat register snapshot:
  // the consistency check follows v -> mate -> back, crossing shard
  // boundaries, and a flat copy keeps that random access cheap.
  const unsigned tasks = num_shards_;
  std::vector<int> reg;
  k_.reg.copy_to(reg);
  std::vector<std::vector<EdgeId>> found(tasks);
  const auto scan = [&](unsigned w) {
    const auto [vb, ve] = support::balanced_range(
        static_cast<std::size_t>(g.node_count()), tasks, w);
    for (std::size_t vi = vb; vi < ve; ++vi) {
      const auto v = static_cast<NodeId>(vi);
      const int port = reg[vi];
      if (port < 0) continue;
      DMATCH_EXPECTS(port < g.degree(v));
      const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
      const NodeId u = g.other_endpoint(e, v);
      // Register consistency: u must point back along the same edge.
      const int uport = reg[static_cast<std::size_t>(u)];
      DMATCH_EXPECTS(uport >= 0);
      DMATCH_EXPECTS(
          g.incident_edges(u)[static_cast<std::size_t>(uport)] == e);
      if (v < u) found[w].push_back(e);
    }
  };
  sched_->run_tasks(tasks, scan);
  for (unsigned w = 0; w < tasks; ++w) {
    for (const EdgeId e : found[w]) m.add(g, e);
  }
  DMATCH_ENSURES(m.is_valid(g));
  return m;
}

Matching Network::extract_matching_resilient(DegradationReport* report) const {
  const Graph& g = *g_;
  Matching m(g.node_count());
  DegradationReport scratch;
  DegradationReport& rep = report != nullptr ? *report : scratch;
  // Same parallel scan + shard-ordered reduction as extract_matching;
  // never throws. The heal tallies are sums, so adding the per-shard
  // partials in any fixed order reproduces the sequential counts.
  const unsigned workers = num_shards_;
  std::vector<int> reg;
  k_.reg.copy_to(reg);
  std::vector<std::vector<EdgeId>> found(workers);
  std::vector<std::uint64_t> dead_part(workers, 0);
  std::vector<std::uint64_t> dead_healed_part(workers, 0);
  std::vector<std::uint64_t> torn_healed_part(workers, 0);
  const auto scan = [&, this](unsigned w) {
    const auto [vb, ve] = support::balanced_range(
        static_cast<std::size_t>(g.node_count()), workers, w);
    for (std::size_t vi = vb; vi < ve; ++vi) {
      const auto v = static_cast<NodeId>(vi);
      if (node_dead(v)) {
        ++dead_part[w];
        if (reg[vi] >= 0) ++dead_healed_part[w];
        continue;
      }
      const int port = reg[vi];
      if (port < 0) continue;
      const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
      const NodeId u = g.other_endpoint(e, v);
      if (node_dead(u)) {
        ++dead_healed_part[w];
        continue;
      }
      const int uport = reg[static_cast<std::size_t>(u)];
      const bool consistent =
          uport >= 0 &&
          g.incident_edges(u)[static_cast<std::size_t>(uport)] == e;
      if (!consistent) {
        ++torn_healed_part[w];
        continue;
      }
      if (v < u) found[w].push_back(e);
    }
  };
  sched_->run_tasks(workers, scan);
  // crashed_nodes is a high-water mark (a dead node stays dead), so count
  // this pass locally and max it in; repeated extractions must not inflate.
  std::uint64_t dead_now = 0;
  for (unsigned w = 0; w < workers; ++w) {
    dead_now += dead_part[w];
    rep.dead_registers_healed += dead_healed_part[w];
    rep.torn_registers_healed += torn_healed_part[w];
    for (const EdgeId e : found[w]) m.add(g, e);
  }
  rep.crashed_nodes = std::max(rep.crashed_nodes, dead_now);
  DMATCH_ENSURES(m.is_valid(g));
  return m;
}

std::ptrdiff_t Network::refresh_matching(std::span<const NodeId> dirty,
                                         Matching& m,
                                         DegradationReport* report) const {
  const Graph& g = *g_;
  DMATCH_EXPECTS(m.node_count() == g.node_count());
  DMATCH_EXPECTS(std::is_sorted(dirty.begin(), dirty.end()));
  DegradationReport scratch;
  DegradationReport& rep = report != nullptr ? *report : scratch;
  std::ptrdiff_t gained = 0;
  // Pass 1: drop every pair of m that involves a dirty node — its half of
  // the pair is about to be re-read from the registers, and removing
  // before re-adding keeps Matching::add's both-free precondition intact.
  for (const NodeId v : dirty) {
    if (m.is_matched(v)) {
      m.remove(g, m.matched_edge(v));
      --gained;
    }
  }
  // Pass 2: re-validate exactly the dirty registers, with the same heal
  // rules as the full scan (dead nodes, dead partners, torn pointers).
  // A clean partner whose register disagrees (it still points at a third
  // node) fails the consistency check and the pair is skipped, so the
  // caller contract — clean registers agree with m — is the only thing
  // trusted, never re-derived state.
  std::uint64_t dead_now = 0;
  for (const NodeId v : dirty) {
    const auto vi = static_cast<std::size_t>(v);
    const int port = k_.reg.at(vi);
    if (node_dead(v)) {
      ++dead_now;
      if (port >= 0) ++rep.dead_registers_healed;
      continue;
    }
    if (port < 0) continue;
    const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
    const NodeId u = g.other_endpoint(e, v);
    if (node_dead(u)) {
      ++rep.dead_registers_healed;
      continue;
    }
    const int uport = k_.reg.at(static_cast<std::size_t>(u));
    const bool consistent =
        uport >= 0 && g.incident_edges(u)[static_cast<std::size_t>(uport)] == e;
    if (!consistent) {
      ++rep.torn_registers_healed;
      continue;
    }
    // Add each surviving pair once: at the lower endpoint when both are
    // dirty (the higher endpoint's iteration skips), else at the dirty one.
    if (std::binary_search(dirty.begin(), dirty.end(), u) && v > u) continue;
    if (!m.is_matched(v) && !m.is_matched(u)) {
      m.add(g, e);
      ++gained;
    }
  }
  rep.crashed_nodes = std::max(rep.crashed_nodes, dead_now);
  // No full is_valid() postcondition here: the point of this call is
  // O(|dirty| · deg), and Matching::add/remove already enforce pair
  // consistency on every mutation above.
  return gained;
}

void heal_register_image(const Graph& g, std::vector<int>& reg,
                         const std::vector<char>& dead,
                         DegradationReport* report) {
  DMATCH_EXPECTS(reg.size() == static_cast<std::size_t>(g.node_count()));
  DMATCH_EXPECTS(dead.size() == reg.size());
  DegradationReport scratch;
  DegradationReport& rep = report != nullptr ? *report : scratch;
  const auto n = reg.size();
  std::uint64_t dead_now = 0;
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (dead[vi]) ++dead_now;
  }
  rep.crashed_nodes = std::max(rep.crashed_nodes, dead_now);
  // Decide against the frozen image, then clear: clearing v in place
  // would make a consistent partner look torn within the same pass.
  std::vector<char> clear(n, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const int port = reg[vi];
    if (port < 0) continue;
    if (dead[vi]) {
      clear[vi] = 1;
      ++rep.dead_registers_healed;
      continue;
    }
    const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
    const NodeId u = g.other_endpoint(e, v);
    if (dead[static_cast<std::size_t>(u)]) {
      clear[vi] = 1;
      ++rep.dead_registers_healed;
      continue;
    }
    const int uport = reg[static_cast<std::size_t>(u)];
    const bool consistent =
        uport >= 0 &&
        g.incident_edges(u)[static_cast<std::size_t>(uport)] == e;
    if (!consistent) {
      clear[vi] = 1;
      ++rep.torn_registers_healed;
    }
  }
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (clear[vi]) reg[vi] = -1;
  }
}

Matching extract_matching_from_image(const Graph& g,
                                     std::span<const int> reg) {
  DMATCH_EXPECTS(reg.size() == static_cast<std::size_t>(g.node_count()));
  Matching m(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const int port = reg[vi];
    if (port < 0) continue;
    DMATCH_EXPECTS(port < g.degree(v));
    const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
    const NodeId u = g.other_endpoint(e, v);
    const int uport = reg[static_cast<std::size_t>(u)];
    DMATCH_EXPECTS(uport >= 0);
    DMATCH_EXPECTS(g.incident_edges(u)[static_cast<std::size_t>(uport)] == e);
    if (v < u) m.add(g, e);
  }
  DMATCH_ENSURES(m.is_valid(g));
  return m;
}

void Network::heal_registers(DegradationReport* report) {
  const Graph& g = *g_;
  const auto n = static_cast<std::size_t>(g.node_count());
  // The image-based core does the work; this wrapper supplies the
  // crash-schedule dead mask and writes the healed snapshot back to the
  // register slabs wholesale.
  std::vector<int> reg;
  k_.reg.copy_to(reg);
  std::vector<char> dead(n, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (node_dead(v)) dead[static_cast<std::size_t>(v)] = 1;
  }
  heal_register_image(g, reg, dead, report);
  k_.reg.assign_from(reg);
}

void Network::set_matching(const Matching& m) {
  const Graph& g = *g_;
  DMATCH_EXPECTS(m.node_count() == g.node_count());
  DMATCH_EXPECTS(m.is_valid(g));
  std::vector<int> reg(static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const EdgeId e = m.matched_edge(v);
    reg[static_cast<std::size_t>(v)] =
        e == kNoEdge ? -1 : g.port_of_edge(v, e);
  }
  k_.reg.assign_from(reg);
}

void Network::set_register(NodeId v, EdgeId e) {
  k_.reg.at(static_cast<std::size_t>(v)) =
      e == kNoEdge ? -1 : g_->port_of_edge(v, e);
}

std::size_t Network::restore_registers(std::span<const int> image) {
  DMATCH_EXPECTS(image.size() == static_cast<std::size_t>(g_->node_count()));
  // Shard-major walk through the slab segments (same idiom as process
  // construction): each register is compared in place and rewritten only
  // if it drifted, so a rollback after a short aborted stage touches
  // O(dirty) cache lines instead of the whole register file.
  std::size_t dirty = 0;
  for (unsigned s = 0; s < num_shards_; ++s) {
    int* const regs = k_.reg.shard_view(s);
    const auto [vb, ve] = k_.reg.range(s);
    for (std::size_t vi = vb; vi < ve; ++vi) {
      if (regs[vi] != image[vi]) {
        regs[vi] = image[vi];
        ++dirty;
      }
    }
  }
  return dirty;
}

}  // namespace dmatch::congest
