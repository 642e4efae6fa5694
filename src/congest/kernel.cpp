#include "congest/kernel.hpp"

#include <tuple>

namespace dmatch::congest::kernel {

namespace {

/// Renormalization threshold for the packed 32-bit mailbox epochs: far
/// below the gates' sleeper bit (NodeGate::kAsleep), far above any round
/// budget a single run can execute between two renormalization checks.
constexpr std::uint32_t kEpochRenorm = 0x7FFF0000u;
static_assert(kEpochRenorm + 0x10000u <= NodeGate::kAsleep);

std::uint32_t cap_bits_for(NodeId n, std::uint32_t congest_factor) {
  unsigned log_n = 1;
  while ((NodeId{1} << log_n) < n) ++log_n;
  return congest_factor * std::max(log_n, 4u);
}

}  // namespace

void slot_offsets(const Graph& g, std::vector<std::size_t>& off) {
  const auto n = static_cast<std::size_t>(g.node_count());
  off.resize(n + 1);
  off[0] = 0;
  for (std::size_t v = 0; v < n; ++v) {
    off[v + 1] =
        off[v] + static_cast<std::size_t>(g.degree(static_cast<NodeId>(v)));
  }
}

void State::init(const Graph& graph, std::uint32_t congest_factor,
                 unsigned shards) {
  g = &graph;
  cap_bits = cap_bits_for(graph.node_count(), congest_factor);
  const auto n = static_cast<std::size_t>(graph.node_count());
  rng.reset(n, shards, Rng(0));
  reg.reset(n, shards, -1);
  slot_offsets(graph, slot_offset);
  const std::size_t slots = slot_offset[n];
  // build_routes overwrites every peer entry, and a slot's message is
  // live only while its stamp says so: clearing the stamps is enough.
  // resize grows a buffer geometrically; assign would reallocate it to
  // the exact size, hence the reserve before it.
  peer_slot.resize(slots);
  peer_node.resize(slots);
  cur_msg.resize(slots);
  nxt_msg.resize(slots);
  support::reserve_geometric(cur_stamp, slots);
  support::reserve_geometric(nxt_stamp, slots);
  cur_stamp.assign(slots, 0);
  nxt_stamp.assign(slots, 0);
  gates.reset(n, shards, NodeGate{});
  epoch = 1;
  lifetime_rounds = 0;
  fault_nonce = 0;
}

void State::build_routes(const Rng& root, unsigned s) {
  const Graph& graph = *g;
  Rng* const rngs = rng.shard_view(s);
  const auto [vb, ve] = rng.range(s);
  for (std::size_t vi = vb; vi < ve; ++vi) {
    const auto v = static_cast<NodeId>(vi);
    rngs[vi] = root.fork(static_cast<std::uint64_t>(v));
    const auto edges = graph.incident_edges(v);
    for (std::size_t p = 0; p < edges.size(); ++p) {
      const EdgeId e = edges[p];
      const NodeId u = graph.other_endpoint(e, v);
      const std::size_t i = slot_offset[vi] + p;
      peer_node[i] = u;
      peer_slot[i] = static_cast<std::uint32_t>(
          slot_offset[static_cast<std::size_t>(u)] +
          static_cast<std::size_t>(graph.port_of_edge(u, e)));
    }
  }
}

void State::init_faults(const FaultPlan& plan) {
  fault_active = plan.any();
  if (!fault_active) return;
  const NodeId n = g->node_count();
  fault_detail::CrashSchedule sched =
      fault_detail::compute_crash_schedule(plan, n);
  crash_at = std::move(sched.crash_at);
  restart_at = std::move(sched.restart_at);
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (crash_at[vi] != kRoundNever && restart_at[vi] != kRoundNever) {
      restart_events.emplace_back(restart_at[vi], v);
    }
  }
  std::sort(restart_events.begin(), restart_events.end());
  respawn_pending.assign(static_cast<std::size_t>(n), 0);
  restart_cleared.assign(static_cast<std::size_t>(n), 0);
}

RunFrame State::begin_run(const FaultPlan& plan) {
  renormalize_if_due();
  RunFrame rf;
  rf.base_round = lifetime_rounds;
  if (fault_active) {
    rf.plan = &plan;
    rf.fseed = fault_detail::run_seed(plan.seed, fault_nonce++);
    rf.delay_window = std::max(1, plan.max_delay) + 2;
  }
  return rf;
}

void State::bind(ShardRun& sh, unsigned s, const RunFrame& rf) {
  sh.stats = RunStats{};
  sh.pending_extras = 0;
  sh.undo.clear();
  sh.obs = nullptr;
  sh.regs = reg.shard_view(s);
  sh.rngs = rng.shard_view(s);
  sh.gates = gates.shard_view(s);
  for (std::vector<LateMsg>& bucket : sh.ring) bucket.clear();
  sh.ring.resize(static_cast<std::size_t>(rf.delay_window));
}

void State::spawn(ShardRun& sh, const RunFrame& rf,
                  std::span<const NodeId> nodes, const ProcessFactory& factory,
                  std::vector<std::unique_ptr<Process>>& procs,
                  std::uint64_t dead_round) {
  for (const NodeId v : nodes) {
    const auto vi = static_cast<std::size_t>(v);
    if (rf.faults()) {
      respawn_pending[vi] = 0;
      // A crash-restart interval that completed before this run began:
      // the node comes back with a cleared output register, once.
      if (restart_at[vi] <= rf.base_round && !restart_cleared[vi]) {
        sh.regs[vi] = -1;
        restart_cleared[vi] = 1;
      }
    }
    procs[vi] = factory(v, *g);
    // nullptr = parked for this run (see ProcessFactory): never
    // scheduled, zero allocation. A process that starts out halted is
    // likewise never stepped (and, with no messages in flight yet,
    // cannot be woken) until someone contacts it. Currently dead nodes
    // wait for their restart event.
    if (procs[vi] != nullptr && !procs[vi]->halted() &&
        !(rf.faults() && dead_at(v, dead_round))) {
      sh.active.push_back(v);
    }
  }
}

void State::finish_route(ShardRun& sh, const RunFrame& rf, int round,
                         std::size_t lo, std::size_t hi) {
  const auto window = static_cast<std::size_t>(rf.delay_window);
  // The bucket due this round was consumed at the step phase.
  auto& done = sh.ring[static_cast<std::size_t>(round) % window];
  sh.pending_extras -= done.size();
  done.clear();
  // Canonicalize next round's bucket and wake its receivers. Sorted by
  // (node, port, origin round), the delivery order is a function of the
  // plan alone, never of which shard or rank parked each message.
  auto& next = sh.ring[static_cast<std::size_t>(round + 1) % window];
  std::sort(next.begin(), next.end(),
            [](const LateMsg& a, const LateMsg& b) {
              return std::tie(a.dst, a.port, a.origin_round) <
                     std::tie(b.dst, b.port, b.origin_round);
            });
  for (const LateMsg& e : next) schedule(sh, e.dst);
  // Wake this shard's nodes whose restart round is next round.
  const std::uint64_t wake_round = rf.life_round(round) + 1;
  auto it = std::lower_bound(restart_events.begin(), restart_events.end(),
                             std::make_pair(wake_round, NodeId{0}));
  for (; it != restart_events.end() && it->first == wake_round; ++it) {
    const auto ui = static_cast<std::size_t>(it->second);
    if (ui < lo || ui >= hi) continue;
    respawn_pending[ui] = 1;
    ++sh.stats.restarted_nodes;
    schedule(sh, it->second);
  }
}

void State::renormalize_if_due() {
  if (epoch < kEpochRenorm) return;
  // Remap the 32-bit stamp space so epochs restart at 2 without touching
  // message payloads. Live state between rounds is exactly the current-
  // round inbox (cur stamps equal to epoch), the receive counters and
  // the sleepers' marks (run-local rounds, not epochs), which are kept;
  // scheduling marks and nxt stamps are stale by construction there and
  // collapse to 0.
  for (std::size_t i = 0; i < cur_stamp.size(); ++i) {
    cur_stamp[i] = cur_stamp[i] == epoch ? 2u : 0u;
    nxt_stamp[i] = 0;
  }
  for (unsigned s = 0; s < gates.shards(); ++s) {
    NodeGate* const view = gates.shard_view(s);
    const auto [vb, ve] = gates.range(s);
    for (std::size_t vi = vb; vi < ve; ++vi) {
      if ((view[vi].mark & NodeGate::kAsleep) == 0) view[vi].mark = 0;
    }
  }
  epoch = 2;
}

void State::close_run(ShardRun& sh, const RunFrame& rf, int executed,
                      std::size_t lo, std::size_t hi) const {
  if (!rf.faults()) return;
  sh.stats.dropped_messages += sh.pending_extras;
  const std::uint64_t end_round = rf.life_round(executed);
  for (std::size_t vi = lo; vi < hi; ++vi) {
    if (crash_at[vi] >= rf.base_round && crash_at[vi] < end_round) {
      ++sh.stats.crashed_nodes;
    }
  }
}

void State::end_run(const RunFrame& rf, int executed) {
  epoch += 2;
  lifetime_rounds = rf.life_round(executed);
}

void State::undo_steps(ShardRun& sh) {
  for (const NodeUndo& u : sh.undo) {
    const auto vi = static_cast<std::size_t>(u.v);
    sh.regs[vi] = u.reg;
    sh.rngs[vi] = u.rng;
    restart_cleared[vi] = u.restart_cleared;
  }
  sh.undo.clear();
}

void RoundRollback::capture([[maybe_unused]] obs::Observer* observer,
                            [[maybe_unused]] unsigned shards,
                            [[maybe_unused]] bool profiled) {
#ifndef DMATCH_OBS_DISABLED
  if (observer != nullptr) {
    metrics_ = observer->metrics().snapshot();
    marks_.resize(shards);
    for (unsigned s = 0; s < shards; ++s) {
      marks_[s] = observer->trace_sink().mark(s);
    }
    if (profiled) links_ = observer->profiler().snapshot_links();
  }
#endif
}

void RoundRollback::restore([[maybe_unused]] obs::Observer* observer,
                            [[maybe_unused]] unsigned shards,
                            [[maybe_unused]] bool profiled) {
#ifndef DMATCH_OBS_DISABLED
  if (observer != nullptr) {
    observer->metrics().restore(metrics_);
    for (unsigned s = 0; s < shards; ++s) {
      observer->trace_sink().rewind(s, std::move(marks_[s]));
    }
    if (profiled) observer->profiler().restore_links(links_);
  }
#endif
}

void record_round_end(obs::Observer& observer, obs::ShardObs& o,
                      std::uint64_t sent, std::uint64_t bits) {
  o.trace(obs::EventType::kRoundEnd, 0, sent, bits);
  o.observe(o.ids().engine_round_messages_hist, sent);
  o.bits_hist_totals(sent, bits);
  observer.profiler().round_end(sent, bits);
}

void trace_crash_window(obs::ShardObs& o,
                        const std::vector<std::uint64_t>& crash_at,
                        const std::vector<std::uint64_t>& restart_at,
                        std::uint64_t base_round, std::uint64_t end_round,
                        std::uint64_t run_start_clock) {
  for (std::size_t vi = 0; vi < crash_at.size(); ++vi) {
    const auto actor = static_cast<std::uint32_t>(vi);
    if (crash_at[vi] >= base_round && crash_at[vi] < end_round) {
      o.trace_at(run_start_clock + (crash_at[vi] - base_round),
                 obs::EventType::kCrash, actor);
    }
    if (restart_at[vi] > base_round && restart_at[vi] <= end_round) {
      o.trace_at(run_start_clock + (restart_at[vi] - base_round),
                 obs::EventType::kRestart, actor);
    }
  }
}

void export_run_obs(obs::ShardObs& o, const State& k, const RunFrame& rf,
                    int executed, std::uint64_t run_start_clock,
                    const RunStats& stats) {
  if (rf.faults()) {
    trace_crash_window(o, k.crash_at, k.restart_at, rf.base_round,
                       rf.life_round(executed), run_start_clock);
  }
  const obs::StdMetricIds& mid = o.ids();
  o.count(mid.engine_runs, 1);
  o.count(mid.engine_rounds, stats.rounds);
  o.count(mid.engine_messages, stats.messages);
  o.count(mid.engine_bits, stats.total_bits);
  o.gauge_max(mid.engine_max_message_bits, stats.max_message_bits);
  count_faults(o, stats);
}

}  // namespace dmatch::congest::kernel
