#include "congest/async.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <tuple>
#include <utility>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace dmatch::congest {

namespace {

enum class EventKind : std::uint8_t { kData = 0, kAck = 1, kSafe = 2 };

struct Event {
  double time = 0;
  NodeId dst = kNoNode;
  int dst_port = -1;  // port at the destination the message arrives on
  EventKind kind = EventKind::kData;
  int round = 0;       // sender's simulated round (DATA) / referenced round
  int file_round = 0;  // simulated round the payload is due (>= round + 1)
  bool dropped = false;  // payload lost in transit; still acked
  bool synth = false;    // synthetic duplicate: delivers, never acks
  Message payload;
};

/// Canonical event key. (dst, kind, dst_port, round, synth) is unique per
/// run — the executor enforces at most one DATA per directed port per
/// round, each DATA begets at most one ACK, and a node announces SAFE(r)
/// to each neighbor once — so this is a strict total order on the events
/// of a run and pop order never depends on insertion order. Delivery
/// delays are pure hashes of the same key, so event timestamps are also
/// independent of execution order.
[[nodiscard]] std::tuple<double, NodeId, int, int, int, bool> event_key(
    const Event& e) {
  return {e.time, e.dst,  static_cast<int>(e.kind),
          e.dst_port, e.round, e.synth};
}

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return event_key(a) > event_key(b);
  }
};

/// A payload due on a later simulated round than sender_round + 1
/// (delayed original or synthetic duplicate). Mirrors the engine's delay
/// ring entries, including their (port, origin round) delivery order.
struct ExtraEnvelope {
  int port = -1;
  int origin_round = 0;
  Message msg;
};

/// Per-node synchronizer state.
struct NodeState {
  std::unique_ptr<Process> proc;
  Rng rng{0};
  int executed_round = -1;            // highest simulated round run so far
  std::map<int, std::vector<Envelope>> inbox;  // keyed by delivery round
  std::map<int, std::vector<ExtraEnvelope>> extras;  // late/dup deliveries
  std::map<int, int> safe_count;      // SAFE(r) messages received
  int pending_acks = 0;               // for the DATA of executed_round
  bool announced_safe = false;        // SAFE(executed_round) already sent
  bool respawned = false;             // crash-restart already performed
};

class AlphaSynchronizerRun {
 public:
  AlphaSynchronizerRun(const Graph& g, const ProcessFactory& factory,
                       std::vector<int>& mate_ports, std::uint64_t seed,
                       int max_rounds, const AsyncOptions& options)
      : g_(g),
        factory_(factory),
        mate_ports_(mate_ports),
        max_rounds_(max_rounds),
        options_(options),
        fault_(options.fault.any()),
        dseed_(fault_detail::mix(seed, 0xd37a11ce5ULL, 0, 0)) {
    DMATCH_EXPECTS(mate_ports_.size() ==
                   static_cast<std::size_t>(g.node_count()));
    port_stamp_.assign(static_cast<std::size_t>(g.max_degree()), 0);

    Rng root(seed);
    nodes_.resize(static_cast<std::size_t>(g.node_count()));
    for (NodeId v = 0; v < g.node_count(); ++v) {
      auto& node = nodes_[static_cast<std::size_t>(v)];
      node.proc = factory(v, g);
      node.rng = root.fork(static_cast<std::uint64_t>(v));
    }
    if (fault_) {
      // Same crash table and per-message hash stream as the round engine
      // (first run on a fresh Network, nonce 0), so a plan produces one
      // fault history regardless of which executor replays it.
      sched_ = fault_detail::compute_crash_schedule(options_.fault,
                                                    g.node_count());
      fseed_ = fault_detail::run_seed(options_.fault.seed, 0);
      kernel::slot_offsets(g, slot_offset_);
    }
    DMATCH_OBS(if (options_.observer != nullptr) {
      (void)options_.observer->begin_run(1, g);
      sobs_ = options_.observer->shard(0);
      clock_base_ = options_.observer->clock();
      if (slot_offset_.empty()) kernel::slot_offsets(g, slot_offset_);
    })
  }

  AsyncStats run(std::vector<char>* dead_out) {
    for (NodeId v = 0; v < g_.node_count(); ++v) execute_round(v, 0, 0.0);
    // Isolated nodes receive no events, so no dispatch ever advances
    // them: spin them forward now (they halt on their own or burn the
    // round budget, exactly like their engine execution).
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      if (g_.degree(v) == 0) try_advance(0.0, v);
    }

    // Pop in canonical-key order, one window [t, t + min_delay) at a
    // time; quiescence is checked only between windows, because where
    // the loop stops decides AsyncStats::events and completion_time. An
    // event spawned inside the window lands at t + min_delay or later
    // (its cause is at t or later, and IEEE addition is monotone), so
    // pushing it at once never changes what the window pops.
    while (!queue_.empty() && !quiescent()) {
      const double t_end = queue_.top().time + options_.min_delay;
      while (!queue_.empty() && queue_.top().time < t_end) {
        Event ev = queue_.top();
        queue_.pop();
        ++stats_.events;
        stats_.completion_time = std::max(stats_.completion_time, ev.time);
        dispatch(std::move(ev));
      }
    }

    // Completion means genuine protocol quiescence (all node programs
    // halted, nothing undelivered) -- drained event queues alone can also
    // mean the round budget cut the synchronizer off mid-protocol.
    stats_.completed = quiescent();
    if (fault_) {
      finish_faults(dead_out);
    } else if (dead_out != nullptr) {
      dead_out->assign(static_cast<std::size_t>(g_.node_count()), 0);
    }
    DMATCH_OBS(if (options_.observer != nullptr) finish_obs();)
    return stats_;
  }

 private:
  // --- quiescence / teardown -----------------------------------------

  [[nodiscard]] bool settled_dead(NodeId v) const {
    if (!fault_) return false;
    const auto vi = static_cast<std::size_t>(v);
    const auto& node = nodes_[vi];
    return sched_.restart_at[vi] == kRoundNever && node.executed_round >= 0 &&
           sched_.crash_at[vi] <=
               static_cast<std::uint64_t>(node.executed_round);
  }

  [[nodiscard]] bool quiescent() const {
    if (data_in_flight_ > 0) return false;
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      const NodeState& node = nodes_[static_cast<std::size_t>(v)];
      // A node that died for good absorbs whatever is still addressed
      // to it (counted as drops at the end) and never acts again.
      if (settled_dead(v)) continue;
      if (!node.proc->halted()) return false;
      for (const auto& [round, box] : node.inbox) {
        if (!box.empty() && round > node.executed_round) return false;
      }
      for (const auto& [round, box] : node.extras) {
        if (!box.empty() && round > node.executed_round) return false;
      }
    }
    return true;
  }

  void finish_faults(std::vector<char>* dead_out) {
    // Residual payloads parked for rounds a permanently dead node will
    // never execute are lost — the engine counts the same messages as
    // drops when the dead node's round comes up or the run ends.
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      if (!settled_dead(v)) continue;
      NodeState& node = nodes_[static_cast<std::size_t>(v)];
      for (auto& [round, box] : node.inbox) {
        if (round > node.executed_round) {
          stats_.dropped_messages += box.size();
        }
      }
      for (auto& [round, box] : node.extras) {
        if (round > node.executed_round) {
          stats_.dropped_messages += box.size();
        }
      }
      node.inbox.clear();
      node.extras.clear();
    }
    // Crash events that fired inside the simulated window, and the
    // end-of-run dead mask (the engine's node_dead at lifetime end).
    const std::uint64_t end_round = stats_.virtual_rounds + 1;
    if (dead_out != nullptr) {
      dead_out->assign(static_cast<std::size_t>(g_.node_count()), 0);
    }
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (sched_.crash_at[vi] < end_round) ++stats_.crashed_nodes;
      if (dead_out != nullptr && sched_.dead_at(v, end_round)) {
        (*dead_out)[vi] = 1;
      }
    }
  }

  // --- event plumbing -------------------------------------------------

  /// Delivery delay as a pure hash of the canonical event identity: the
  /// same event gets the same delay no matter when it is sent. Uniform
  /// in [min_delay, max_delay).
  [[nodiscard]] double delay_for(NodeId dst, int dst_port, EventKind kind,
                                 int round, bool synth) const {
    const auto a = static_cast<std::uint64_t>(dst);
    const std::uint64_t b =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_port))
         << 3) |
        (static_cast<std::uint64_t>(kind) << 1) |
        static_cast<std::uint64_t>(synth);
    const std::uint64_t h =
        fault_detail::mix(dseed_, a, b, static_cast<std::uint64_t>(round));
    return options_.min_delay +
           (options_.max_delay - options_.min_delay) * fault_detail::to_unit(h);
  }

  void enqueue(double now, Event ev) {
    ev.time = now + delay_for(ev.dst, ev.dst_port, ev.kind, ev.round, ev.synth);
    queue_.push(std::move(ev));
  }

  void enqueue_control(double now, NodeId dst, int dst_port, EventKind kind,
                       int round) {
    Event ev;
    ev.dst = dst;
    ev.dst_port = dst_port;
    ev.kind = kind;
    ev.round = round;
    enqueue(now, std::move(ev));
  }

  void dispatch(Event ev) {
    auto& node = nodes_[static_cast<std::size_t>(ev.dst)];
    switch (ev.kind) {
      case EventKind::kData: {
        --data_in_flight_;
        if (!ev.synth) {
          ++stats_.payload_messages;
          // Acknowledge to the sender. The control plane is reliable
          // (Awerbuch's model): even a dropped payload is acked, else
          // the sender would never announce SAFE and the synchronizer
          // would deadlock on a fault.
          const EdgeId e = g_.incident_edges(
              ev.dst)[static_cast<std::size_t>(ev.dst_port)];
          const NodeId sender = g_.other_endpoint(e, ev.dst);
          enqueue_control(ev.time, sender, g_.port_of_edge(sender, e),
                          EventKind::kAck, ev.round);
          ++stats_.control_messages;
        }
        if (!ev.dropped) {
          if (ev.file_round > ev.round + 1) {
            node.extras[ev.file_round].push_back(
                {ev.dst_port, ev.round, std::move(ev.payload)});
          } else {
            node.inbox[ev.file_round].push_back(
                {ev.dst_port, std::move(ev.payload)});
          }
        }
        break;
      }
      case EventKind::kAck: {
        if (ev.round == node.executed_round) {
          DMATCH_ASSERT(node.pending_acks > 0);
          if (--node.pending_acks == 0) announce_safe(ev.time, ev.dst);
        }
        break;
      }
      case EventKind::kSafe: {
        ++node.safe_count[ev.round];
        break;
      }
    }
    try_advance(ev.time, ev.dst);
  }

  void announce_safe(double now, NodeId v) {
    auto& node = nodes_[static_cast<std::size_t>(v)];
    if (node.announced_safe) return;
    node.announced_safe = true;
    for (int p = 0; p < g_.degree(v); ++p) {
      const NodeId u = g_.neighbor(v, p);
      const EdgeId e = g_.incident_edges(v)[static_cast<std::size_t>(p)];
      enqueue_control(now, u, g_.port_of_edge(u, e), EventKind::kSafe,
                      node.executed_round);
      ++stats_.control_messages;
    }
  }

  void try_advance(double now, NodeId v) {
    auto& node = nodes_[static_cast<std::size_t>(v)];
    const auto vi = static_cast<std::size_t>(v);
    for (;;) {
      const int r = node.executed_round;
      if (r + 1 > max_rounds_) return;
      if (!node.announced_safe) return;  // own messages not yet delivered
      if (g_.degree(v) > 0 && node.safe_count[r] < g_.degree(v)) return;
      if (g_.degree(v) == 0) {
        // An isolated halted node influences nobody: spinning it forward
        // only burns simulated rounds. Same for one that died for good.
        if (node.proc->halted()) return;
        if (fault_ && sched_.restart_at[vi] == kRoundNever &&
            sched_.crash_at[vi] <= static_cast<std::uint64_t>(r) + 1) {
          return;
        }
      }
      execute_round(v, r + 1, now);
    }
  }

  void execute_round(NodeId v, int round, double now) {
    auto& node = nodes_[static_cast<std::size_t>(v)];
    const auto vi = static_cast<std::size_t>(v);
    DMATCH_ASSERT(round == node.executed_round + 1);
    node.executed_round = round;
    // Virtual round r sits at clock_base_ + r on the shared timeline.
    DMATCH_OBS(if (sobs_ != nullptr) {
      sobs_->now = clock_base_ + static_cast<std::uint64_t>(round);
    })
    node.safe_count.erase(round - 2);  // stale bookkeeping
    stats_.virtual_rounds =
        std::max(stats_.virtual_rounds, static_cast<std::uint64_t>(round));
    if (static_cast<std::size_t>(round) >= stats_.round_payloads.size()) {
      // Grown before the degenerate-crash return below so dead nodes'
      // silent rounds still appear (as zeros) in the per-round curve.
      stats_.round_payloads.resize(static_cast<std::size_t>(round) + 1, 0);
      DMATCH_OBS(obs_round_bits_.resize(stats_.round_payloads.size(), 0);)
    }

    if (fault_ &&
        sched_.dead_at(v, static_cast<std::uint64_t>(round))) {
      // Crashed node: executes no protocol step and its round's payloads
      // are lost (the engine drops them at consumption), but it keeps
      // the synchronizer sound — no data, so SAFE goes out immediately.
      if (const auto it = node.inbox.find(round); it != node.inbox.end()) {
        stats_.dropped_messages += it->second.size();
        node.inbox.erase(it);
      }
      if (const auto it = node.extras.find(round); it != node.extras.end()) {
        stats_.dropped_messages += it->second.size();
        node.extras.erase(it);
      }
      node.pending_acks = 0;
      node.announced_safe = false;
      announce_safe(now, v);
      return;
    }
    if (fault_ && !node.respawned &&
        sched_.crash_at[vi] <= static_cast<std::uint64_t>(round)) {
      // Crash-restart: fresh protocol state, cleared output register,
      // same private RNG stream — the engine's respawn semantics.
      node.respawned = true;
      node.proc = factory_(v, g_);
      DMATCH_ENSURES(node.proc != nullptr);
      mate_ports_[vi] = -1;
      ++stats_.restarted_nodes;
    }

    std::vector<Envelope> inbox;
    if (const auto it = node.inbox.find(round); it != node.inbox.end()) {
      inbox = std::move(it->second);
      node.inbox.erase(it);
    }
    std::sort(inbox.begin(), inbox.end(),
              [](const Envelope& a, const Envelope& b) {
                return a.port < b.port;
              });
    if (fault_) {
      // Late/duplicate payloads follow the regular slots in the engine's
      // delay-ring order: sorted by (port, origin round).
      if (const auto it = node.extras.find(round); it != node.extras.end()) {
        std::sort(it->second.begin(), it->second.end(),
                  [](const ExtraEnvelope& a, const ExtraEnvelope& b) {
                    return std::tie(a.port, a.origin_round) <
                           std::tie(b.port, b.origin_round);
                  });
        for (ExtraEnvelope& e : it->second) {
          inbox.push_back({e.port, std::move(e.msg)});
        }
        node.extras.erase(it);
      }
      kernel::reorder_inbox(options_.fault, fseed_,
                            static_cast<std::uint64_t>(round), v, inbox,
                            stats_, sobs_);
    }

    // Mirror Network::run: halted nodes with an empty inbox are skipped
    // (they still synchronize, sending SAFE with no data). The context
    // runs in Model::kLocal: the cap is the engine's to enforce.
    outbox_.clear();
    if (!node.proc->halted() || !inbox.empty()) {
      kernel::EngineContext ctx(g_, v, round, node.rng, mate_ports_[vi],
                                Model::kLocal, 0, outbox_, sends_);
      DMATCH_OBS(if (sobs_ != nullptr) {
        // Same sender-side slots the engine's context profiles.
        ctx.attach_obs(sobs_, slot_offset_[vi]);
      })
      node.proc->on_round(ctx, inbox);
    }

    // CONGEST contract, enforced like the engine's port-slot mailboxes:
    // at most one message per port per round. Without it the canonical
    // event key would not be unique and pop order would be ambiguous.
    ++stamp_token_;
    for (const Envelope& env : outbox_) {
      auto& stamp = port_stamp_[static_cast<std::size_t>(env.port)];
      DMATCH_EXPECTS(stamp != stamp_token_);
      stamp = stamp_token_;
    }

    node.pending_acks = static_cast<int>(outbox_.size());
    node.announced_safe = false;
    stats_.round_payloads[static_cast<std::size_t>(round)] +=
        static_cast<std::uint64_t>(outbox_.size());
    for (Envelope& env : outbox_) {
      const EdgeId e =
          g_.incident_edges(v)[static_cast<std::size_t>(env.port)];
      const NodeId u = g_.other_endpoint(e, v);
      const int uport = g_.port_of_edge(u, e);
      DMATCH_OBS(if (sobs_ != nullptr) {
        obs_round_bits_[static_cast<std::size_t>(round)] += env.msg.bits();
      })
      Event ev;
      ev.dst = u;
      ev.dst_port = uport;
      ev.kind = EventKind::kData;
      ev.round = round;
      ev.file_round = round + 1;
      if (fault_) {
        // The engine's exact fate: (run seed, sender round, receiver
        // slot). Identical plan, identical history.
        const kernel::Fate f = kernel::message_fate(
            options_.fault, fseed_, static_cast<std::uint64_t>(round),
            slot_offset_[static_cast<std::size_t>(u)] +
                static_cast<std::size_t>(uport),
            u, stats_, sobs_);
        ev.dropped = f.drop;
        if (f.dup != 0) {
          Event copy;
          copy.dst = u;
          copy.dst_port = uport;
          copy.kind = EventKind::kData;
          copy.round = round;
          copy.file_round = round + 1 + f.dup;
          copy.synth = true;
          copy.payload = env.msg;
          enqueue(now, std::move(copy));
          ++data_in_flight_;
        }
        if (f.late != 0) ev.file_round = round + 1 + f.late;
      }
      ev.payload = std::move(env.msg);
      enqueue(now, std::move(ev));
      ++data_in_flight_;
    }
    if (node.pending_acks == 0) announce_safe(now, v);
  }

#ifndef DMATCH_OBS_DISABLED
  // Emitted once at the end of the run. Per-round records are
  // reconstructed on the virtual-round clock instead of streamed (virtual
  // rounds interleave across nodes). Timestamps are clock_base_ + round —
  // the mapping the engine uses — so sync and async runs share one trace
  // timeline.
  void finish_obs() {
    obs::Observer& ob = *options_.observer;
    const auto& ids = sobs_->ids();
    const std::size_t rounds = stats_.round_payloads.size();
    for (std::size_t r = 0; r < rounds; ++r) {
      sobs_->now = clock_base_ + r;
      kernel::record_round_end(ob, *sobs_, stats_.round_payloads[r],
                               obs_round_bits_[r]);
    }
    if (fault_) {
      kernel::trace_crash_window(*sobs_, sched_.crash_at, sched_.restart_at,
                                 0, stats_.virtual_rounds + 1, clock_base_);
      kernel::count_faults(*sobs_, stats_);
    }
    sobs_->count(ids.async_events, stats_.events);
    sobs_->count(ids.async_payload_messages, stats_.payload_messages);
    sobs_->count(ids.async_control_messages, stats_.control_messages);
    sobs_->count(ids.async_virtual_rounds, stats_.virtual_rounds);
    ob.advance_clock(rounds);
  }
#endif

  const Graph& g_;
  const ProcessFactory& factory_;
  std::vector<int>& mate_ports_;
  const int max_rounds_;
  const AsyncOptions options_;
  const bool fault_;
  const std::uint64_t dseed_;  // delay-hash seed (derived from run seed)

  fault_detail::CrashSchedule sched_;
  std::uint64_t fseed_ = 0;
  std::vector<std::size_t> slot_offset_;

  std::vector<NodeState> nodes_;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::int64_t data_in_flight_ = 0;  // DATA sent minus DATA delivered
  AsyncStats stats_;
  RunStats sends_;                 // the engine context's send accounting
  std::vector<Envelope> outbox_;   // scratch, reused across rounds
  std::uint64_t stamp_token_ = 0;  // for the one-message-per-port contract
  std::vector<std::uint64_t> port_stamp_;
  obs::ShardObs* sobs_ = nullptr;

#ifndef DMATCH_OBS_DISABLED
  std::uint64_t clock_base_ = 0;
  std::vector<std::uint64_t> obs_round_bits_;  // parallels round_payloads
#endif
};

}  // namespace

AsyncStats run_synchronized(const Graph& g, const ProcessFactory& factory,
                            std::vector<int>& mate_ports, std::uint64_t seed,
                            int max_virtual_rounds, const AsyncOptions& options,
                            std::vector<char>* dead_out) {
  DMATCH_EXPECTS(options.min_delay > 0 &&
                 options.max_delay >= options.min_delay);
  AlphaSynchronizerRun run(g, factory, mate_ports, seed, max_virtual_rounds,
                           options);
  return run.run(dead_out);
}

AsyncRunResult run_synchronized(const Graph& g, const ProcessFactory& factory,
                                std::uint64_t seed, int max_virtual_rounds,
                                const AsyncOptions& options) {
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<int> mate_ports(n, -1);
  AsyncRunResult res;
  res.stats = run_synchronized(g, factory, mate_ports, seed,
                               max_virtual_rounds, options, &res.dead_nodes);
  if (options.fault.any()) {
    // Same register healing as Network::heal_registers, against the
    // end-of-run dead mask.
    res.degradation.budget_exhausted = !res.stats.completed;
    heal_register_image(g, mate_ports, res.dead_nodes, &res.degradation);
  }
  res.matching = extract_matching_from_image(g, mate_ports);
  return res;
}

}  // namespace dmatch::congest
