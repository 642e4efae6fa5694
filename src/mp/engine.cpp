#include "mp/engine.hpp"

#include <algorithm>
#include <utility>

#include "mp/frames.hpp"
#include "support/assert.hpp"
#include "support/sched.hpp"

namespace dmatch::mp {

namespace {

using congest::FaultPlan;
using congest::Message;
using congest::ProcessFactory;
using congest::RunStats;
namespace kernel = congest::kernel;

/// Deterministic digest of the fault plan's observable knobs, used by
/// the HELLO config check so ranks with diverging plans fail fast.
std::uint64_t plan_digest(const FaultPlan& p) {
  using congest::fault_detail::mix;
  const auto dbits = [](double d) {
    std::uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(d));
    __builtin_memcpy(&u, &d, sizeof(u));
    return u;
  };
  std::uint64_t h = mix(p.seed, dbits(p.drop_prob), dbits(p.duplicate_prob),
                        dbits(p.delay_prob));
  h = mix(h, static_cast<std::uint64_t>(p.max_delay),
          static_cast<std::uint64_t>(p.delay_model), dbits(p.pareto_alpha));
  h = mix(h, dbits(p.reorder_prob), dbits(p.crash_prob), p.crash_round_bound);
  h = mix(h, dbits(p.restart_prob), p.restart_delay, p.crashes.size());
  for (const congest::CrashEvent& e : p.crashes) {
    h = mix(h, static_cast<std::uint64_t>(e.node), e.round, e.restart_round);
  }
  return h;
}

/// What `now` adds to `sent`, metric by metric: counters and histograms
/// subtract, max-gauges resend their value (a max is idempotent). A
/// worker ships each run's share of its registry exactly once, even
/// when its engine runs again.
[[maybe_unused]] std::vector<obs::MetricsRegistry::Merged> metrics_delta(
    std::vector<obs::MetricsRegistry::Merged> now,
    const std::vector<obs::MetricsRegistry::Merged>& sent) {
  std::size_t j = 0;
  for (obs::MetricsRegistry::Merged& e : now) {
    // Both exports are sorted by name.
    while (j < sent.size() && sent[j].name < e.name) ++j;
    if (j == sent.size() || sent[j].name != e.name) continue;
    const obs::MetricsRegistry::Merged& old = sent[j];
    if (e.kind == obs::MetricKind::kCounter) {
      e.value -= old.value;
    } else if (e.kind == obs::MetricKind::kHistogramLog2) {
      e.count -= old.count;
      e.sum -= old.sum;
      for (std::size_t b = 0; b < e.buckets.size() && b < old.buckets.size();
           ++b) {
        e.buckets[b] -= old.buckets[b];
      }
    }
  }
  return now;
}

}  // namespace

// ---------------------------------------------------------------------
// Persistent per-rank engine state
// ---------------------------------------------------------------------

struct MpEngine::Impl {
  // Every rank builds the full O(m) routing tables in a one-segment
  // layout (the graph itself is shared, and global slot ids are what keep
  // the fault hashes identical to the single-process engine); only the
  // owned range's per-node state is ever touched.
  kernel::State k;

  // Rank-0 rejoin support: last checkpointed register image per rank and
  // how many times each rank rejoined (advances its fault nonce).
  std::vector<std::vector<int>> checkpoints;
  std::vector<std::uint64_t> rejoins;

  // The registry export this rank already shipped to rank 0.
  std::vector<obs::MetricsRegistry::Merged> exported;
};

MpEngine::MpEngine(const Graph& g, congest::Model model, std::uint64_t seed,
                   std::uint32_t congest_factor, Transport& transport,
                   MpOptions options)
    : g_(&g),
      seed_(seed),
      options_(std::move(options)),
      group_(transport, options_.group),
      impl_(std::make_unique<Impl>()) {
  const auto n = static_cast<std::size_t>(g.node_count());
  const auto [lo, hi] =
      support::balanced_range(n, group_.size(), group_.rank());
  lo_ = static_cast<NodeId>(lo);
  hi_ = static_cast<NodeId>(hi);

  Impl& im = *impl_;
  im.k.init(g, model, congest_factor, 1);
  cap_bits_ = im.k.cap_bits;
  im.k.build_routes(Rng(seed), 0);
  im.k.init_faults(options_.fault);
  im.k.fault_nonce = options_.fault_nonce;
  im.checkpoints.resize(group_.size());
  im.rejoins.assign(group_.size(), 0);
}

MpEngine::~MpEngine() = default;

MpResult MpEngine::run(const ProcessFactory& factory, int max_rounds) {
  DMATCH_EXPECTS(max_rounds >= 0);
  const Graph& g = *g_;
  const unsigned me = group_.rank();
  const unsigned procs = group_.size();

  // --- config handshake (every rank must describe the same run) -------
  if (procs > 1) {
    HelloFrame hello{me, g.node_count(), seed_, cap_bits_,
                     plan_digest(options_.fault), procs};
    const std::vector<std::uint8_t> hf = encode_hello(hello);
    group_.broadcast(hf);
    std::vector<std::uint8_t> buf;
    for (unsigned p = 0; p < procs; ++p) {
      if (p == me || !group_.alive(p)) continue;
      // Frames an earlier run left queued (an aborted round's duplicate
      // ABORT) precede the peer's HELLO on its FIFO link: drain them.
      bool stale = true;
      while (stale && group_.recv_or_declare_dead(p, buf)) {
        const auto head = peek_header(buf);
        stale = head && head->kind != FrameKind::kHello;
      }
      if (stale) continue;  // the peer died
      const auto h = decode_hello(buf);
      if (!h || h->n != hello.n || h->seed != hello.seed ||
          h->cap_bits != hello.cap_bits ||
          h->plan_digest != hello.plan_digest || h->procs != hello.procs) {
        throw TransportError("rank " + std::to_string(p) +
                             " disagrees on the run configuration");
      }
    }
  }
  return run_rounds(factory, max_rounds, nullptr);
}

MpResult MpEngine::rejoin_and_run(const ProcessFactory& factory,
                                  int max_rounds) {
  const unsigned me = group_.rank();
  DMATCH_EXPECTS(me != 0);
  group_.send_to(0, encode_rejoin(me));
  // Bounded wait for the coordinator's RESUME; stale frames (late COUNT
  // broadcasts from before our death) are discarded.
  std::vector<std::uint8_t> buf;
  ResumeFrame resume;
  bool got = false;
  const int budget =
      options_.group.heartbeat_timeout_ms * options_.group.recv_retries * 4;
  const int slice = options_.group.heartbeat_timeout_ms;
  for (int waited = 0; waited < budget && !got; waited += slice) {
    const RecvStatus st = group_.try_recv(0, buf, slice);
    if (st == RecvStatus::kClosed) break;
    if (st != RecvStatus::kOk) continue;
    const auto h = peek_header(buf);
    if (!h || h->kind != FrameKind::kResume) continue;
    const auto r = decode_resume(buf, g_->node_count());
    if (!r) continue;
    resume = *r;
    got = true;
  }
  if (!got) return {};  // coordinator gone: nothing to rejoin
  for (unsigned p = 0; p < group_.size() && p < resume.rank_dead.size(); ++p) {
    if (resume.rank_dead[p] != 0 && p != me) group_.mark_dead(p);
  }
  // Restore the checkpointed registers for our owned range.
  kernel::State& k = impl_->k;
  for (std::size_t i = 0; i < resume.registers.size(); ++i) {
    const std::size_t vi = static_cast<std::size_t>(resume.reg_lo) + i;
    if (vi < k.reg.count()) k.reg.at(vi) = resume.registers[i];
  }
  k.fault_nonce = resume.nonce;  // advancing-nonce replay discipline
  return run_rounds(factory, max_rounds, &resume);
}

MpResult MpEngine::run_rounds(const ProcessFactory& factory, int max_rounds,
                              const ResumeFrame* resume) {
  const Graph& g = *g_;
  const auto n = static_cast<std::size_t>(g.node_count());
  Impl& im = *impl_;
  kernel::State& k = im.k;
  const unsigned me = group_.rank();
  const unsigned procs = group_.size();
  const auto rank_of = [n, procs](NodeId v) {
    return support::balanced_part_of(n, procs, static_cast<std::size_t>(v));
  };

  const kernel::RunFrame rf = k.begin_run(options_.fault);
  const bool faults = rf.faults();
  const std::uint32_t decode_cap =
      k.model == congest::Model::kCongest ? cap_bits_ : (1u << 20);
  const int start_round = resume != nullptr ? static_cast<int>(resume->round)
                                            : 0;

  // The owned range is this rank's one shard; transient round state.
  kernel::ShardRun sh;
  k.bind(sh, 0, rf);
  std::vector<NodeId> local_lane;              // owned receivers woken
  std::vector<kernel::LateMsg> local_extras;   // parked for owned nodes
  std::vector<std::vector<WireMsg>> batch(procs);  // per-peer flush buffers
  std::vector<RoundFrame> remote;              // this round's peer frames

  // Deliveries of the owned nodes: to an owned receiver straight into its
  // port slot or delay ring, to a peer's receiver into that peer's batch.
  struct RankSink {
    kernel::State& k;
    unsigned me;
    int round;
    const decltype(rank_of)& owner;
    std::vector<NodeId>& local_lane;
    std::vector<kernel::LateMsg>& local_extras;
    std::vector<std::vector<WireMsg>>& batch;
    void deliver(NodeId u, std::size_t in_slot, Message&& msg) {
      const unsigned tr = owner(u);
      if (tr == me) {
        k.post(in_slot, std::move(msg));
        local_lane.push_back(u);
        return;
      }
      const int rport = static_cast<int>(
          in_slot - k.slot_offset[static_cast<std::size_t>(u)]);
      batch[tr].push_back({u, rport, round + 1, round, std::move(msg)});
    }
    void park(kernel::LateMsg&& m) {
      const unsigned tr = owner(m.extra.node);
      if (tr == me) {
        local_extras.push_back(std::move(m));
        return;
      }
      batch[tr].push_back({m.extra.node, m.extra.port, m.deliver_round,
                           m.extra.origin_round, std::move(m.extra.msg)});
    }
  };

  // Processes for the owned range.
  std::vector<std::unique_ptr<congest::Process>> procs_vec(n);
  k.spawn(sh, rf, lo_, hi_, factory, procs_vec, rf.life_round(start_round));

  std::uint64_t routed_before = 0;
  std::uint64_t bits_before = 0;

  obs::Observer* observer = nullptr;
  bool profiled = false;
  [[maybe_unused]] obs::ShardObs* sobs = nullptr;
  [[maybe_unused]] std::uint64_t run_start_clock = 0;
  DMATCH_OBS(observer = options_.observer;)
  DMATCH_OBS(if (observer != nullptr) {
    profiled = observer->begin_run(1, g);
    if (resume != nullptr) observer->advance_clock(resume->round);
    sobs = observer->shard(0);
    sh.obs = sobs;
    run_start_clock =
        observer->clock() - static_cast<std::uint64_t>(start_round);
  })

  // --- quiescence counts for the first round ---------------------------
  std::uint64_t global_scheduled = sh.active.size();
  std::uint64_t global_work = sh.active.size();
  if (resume != nullptr) {
    // The rejoiner forces at least one more global round; counts
    // resynchronize at its first COUNT exchange.
    global_work = std::max<std::uint64_t>(global_work, 1);
  } else if (procs > 1) {
    CountFrame c0{me, 0, sh.active.size(), 0, 0, 0, kNoRank};
    group_.broadcast(encode_count(c0));
    std::vector<std::uint8_t> buf;
    for (unsigned p = 0; p < procs; ++p) {
      if (p == me || !group_.alive(p)) continue;
      bool counted = false;
      while (!counted && group_.recv_or_declare_dead(p, buf)) {
        const auto c = decode_count(buf);
        if (c && c->round == 0) {
          global_scheduled += c->active;
          global_work += c->active + c->extras;
          counted = true;
        }
      }
    }
  }

  MpResult result;
  result.dead_ranks.assign(procs, 0);
  bool tripped = false;
  bool quiesced = false;
  int executed = start_round;
  kernel::RoundRollback rollback;
  int pending_rejoin = -1;  // rank 0: rank admitted for the next round

  int r = start_round;
  for (; r < max_rounds; ++r) {
    if (options_.die_at_round >= 0 && r >= options_.die_at_round) {
      result.simulated_death = true;
      k.end_run(rf, r);
      result.rounds_executed = r;
      return result;
    }
    quiesced = global_work == 0;
    if (quiesced) break;
    k.renormalize_if_due();

    DMATCH_OBS(if (observer != nullptr) sobs->now = observer->clock();)
    if (faults) rollback.capture(k, observer, 1, profiled);
    DMATCH_OBS(if (observer != nullptr && me == 0) {
      sobs->trace(obs::EventType::kRoundStart, 0, global_scheduled);
    })

    // --- step phase: run owned active nodes ---------------------------
    bool abort_local = false;
    local_lane.clear();
    local_extras.clear();
    RankSink sink{k, me, r, rank_of, local_lane, local_extras, batch};
    try {
      for (const NodeId v : sh.active) {
        k.step_node(sh, rf, r, v, procs_vec, factory, sink);
      }
    } catch (...) {
      abort_local = true;
    }

    // --- flush phase: one ROUND frame per alive peer -------------------
    const auto rnd = static_cast<std::uint32_t>(r);
    if (abort_local) {
      group_.broadcast(encode_abort(me, rnd));
    } else {
      for (unsigned p = 0; p < procs; ++p) {
        if (p == me) continue;
        if (!group_.alive(p)) {
          // Messages addressed to a dead rank's nodes are lost in
          // transit; account them like in-flight drops.
          sh.stats.dropped_messages += batch[p].size();
          batch[p].clear();
          continue;
        }
        RoundFrame f;
        f.src = me;
        f.round = rnd;
        f.msgs = std::move(batch[p]);
        batch[p].clear();
        group_.send_to(p, encode_round(f));
      }
    }

    // --- collect phase: one ROUND frame from each alive peer -----------
    bool abort_remote = false;
    remote.clear();
    if (procs > 1) {
      std::vector<std::uint8_t> buf;
      for (unsigned p = 0; p < procs; ++p) {
        if (p == me || !group_.alive(p)) continue;
        bool done = false;
        while (!done && group_.recv_or_declare_dead(p, buf)) {
          const auto h = peek_header(buf);
          if (!h) {  // garbage frame: treat the peer as gone
            group_.mark_dead(p);
            break;
          }
          if (h->kind == FrameKind::kAbort) {
            abort_remote = true;
            done = true;
          } else if (h->kind == FrameKind::kRound && h->round == rnd) {
            auto f = decode_round(buf, g, decode_cap);
            if (!f) {
              group_.mark_dead(p);
              break;
            }
            remote.push_back(std::move(*f));
            done = true;
          } else if (h->kind == FrameKind::kRejoin && me == 0 &&
                     options_.allow_rejoin) {
            // A restarted worker announced itself on the queue of the
            // rank it replaces (we have not declared it dead yet);
            // remember the request for the next round boundary.
            pending_rejoin = static_cast<int>(h->src);
          }
          // Anything else (stale ROUND/COUNT/CHECKPOINT) is discarded.
        }
      }
    }

    // --- route phase ---------------------------------------------------
    bool abort_route = false;
    if (!abort_local && !abort_remote) {
      try {
        for (const NodeId u : local_lane) k.wake(sh, u);
        for (RoundFrame& f : remote) {
          for (WireMsg& m : f.msgs) {
            DMATCH_EXPECTS(rank_of(m.dst) == me);
            if (m.deliver_round == r + 1) {
              k.post(k.slot_offset[static_cast<std::size_t>(m.dst)] +
                         static_cast<std::size_t>(m.port),
                     std::move(m.msg));
              k.wake(sh, m.dst);
            } else {
              DMATCH_EXPECTS(faults && m.deliver_round > r + 1);
              kernel::State::park(
                  sh, rf,
                  {m.deliver_round,
                   {m.dst, m.port, m.origin_round, std::move(m.msg)}});
            }
          }
        }
        if (faults) {
          for (kernel::LateMsg& m : local_extras) {
            kernel::State::park(sh, rf, std::move(m));
          }
          k.finish_route(sh, rf, r, lo_, hi_);
        }
      } catch (...) {
        abort_route = true;
        group_.broadcast(encode_abort(me, rnd));
      }
    }

    // --- commit or abort ----------------------------------------------
    const std::uint64_t own_sent = sh.stats.messages - routed_before;
    const std::uint64_t own_bits = sh.stats.total_bits - bits_before;

    bool abort_count = false;
    std::uint64_t sum_active = sh.next_active.size();
    std::uint64_t sum_extras = sh.pending_extras;
    std::uint64_t sum_msgs = own_sent;
    std::uint64_t sum_bits = own_bits;
    bool force_min_work = false;
    if (!abort_local && !abort_remote && !abort_route && procs > 1) {
      // Rank 0: poll dead ranks for a rejoin request (bounded, 0 ms).
      if (me == 0 && options_.allow_rejoin && pending_rejoin < 0) {
        std::vector<std::uint8_t> jb;
        for (unsigned p = 1; p < procs; ++p) {
          if (group_.alive(p)) continue;
          while (group_.try_recv(p, jb, 0) == RecvStatus::kOk) {
            const auto h = peek_header(jb);
            if (h && h->kind == FrameKind::kRejoin) {
              pending_rejoin = static_cast<int>(p);
              break;
            }
          }
          if (pending_rejoin >= 0) break;
        }
      }
      // Only a rejoin announced in THIS broadcast may be admitted this
      // round; a REJOIN that surfaces during the collect below waits for
      // the next boundary so every rank revives the peer in lockstep.
      const int admit_rank = me == 0 ? pending_rejoin : -1;
      CountFrame c{me,
                   static_cast<std::uint32_t>(r + 1),
                   sh.next_active.size(),
                   sh.pending_extras,
                   own_sent,
                   own_bits,
                   admit_rank >= 0 ? static_cast<unsigned>(admit_rank)
                                   : kNoRank};
      group_.broadcast(encode_count(c));
      const bool checkpoint_due =
          options_.allow_rejoin && options_.checkpoint_every > 0 &&
          (r + 1) % options_.checkpoint_every == 0;
      if (me != 0 && checkpoint_due && group_.alive(0)) {
        CheckpointFrame cf{me, static_cast<std::uint32_t>(r + 1), lo_,
                           std::vector<int>(sh.regs + lo_, sh.regs + hi_)};
        group_.send_to(0, encode_checkpoint(cf));
      }
      std::vector<std::uint8_t> buf;
      for (unsigned p = 0; p < procs; ++p) {
        if (p == me || !group_.alive(p)) continue;
        bool counted = false;
        while (!counted && group_.recv_or_declare_dead(p, buf)) {
          const auto h = peek_header(buf);
          if (!h) {
            group_.mark_dead(p);
            break;
          }
          if (h->kind == FrameKind::kAbort) {
            abort_count = true;
            counted = true;
          } else if (h->kind == FrameKind::kRejoin && me == 0 &&
                     options_.allow_rejoin) {
            pending_rejoin = static_cast<int>(h->src);
          } else if (h->kind == FrameKind::kCount &&
                     h->round == static_cast<std::uint32_t>(r + 1)) {
            const auto c2 = decode_count(buf);
            if (!c2) {
              group_.mark_dead(p);
              break;
            }
            sum_active += c2->active;
            sum_extras += c2->extras;
            sum_msgs += c2->msgs;
            sum_bits += c2->bits;
            if (p == 0 && c2->rejoin_rank != kNoRank &&
                c2->rejoin_rank < procs) {
              group_.revive(c2->rejoin_rank);
              force_min_work = true;
            }
            counted = true;
          }
        }
      }
      if (me == 0 && checkpoint_due) {
        for (unsigned p = 1; p < procs; ++p) {
          if (!group_.alive(p)) continue;
          bool got_cp = false;
          while (!got_cp && group_.recv_or_declare_dead(p, buf)) {
            const auto h = peek_header(buf);
            if (!h) {
              group_.mark_dead(p);
              break;
            }
            if (h->kind == FrameKind::kAbort) {
              abort_count = true;
              got_cp = true;
            } else if (h->kind == FrameKind::kCheckpoint) {
              const auto cf = decode_checkpoint(buf, g.node_count());
              if (cf && cf->src == p) im.checkpoints[p] = cf->registers;
              got_cp = true;
            }
          }
        }
      }
      // Admit the rejoiner: it participates from round r + 1 on.
      if (me == 0 && admit_rank >= 0 && !abort_count) {
        const auto p = static_cast<unsigned>(admit_rank);
        ResumeFrame rf;
        rf.round = static_cast<std::uint32_t>(r + 1);
        rf.nonce = options_.fault_nonce + (++im.rejoins[p]);
        const auto [plo, phi] = support::balanced_range(n, procs, p);
        rf.reg_lo = static_cast<NodeId>(plo);
        rf.registers = im.checkpoints[p].empty()
                           ? std::vector<int>(phi - plo, -1)
                           : im.checkpoints[p];
        rf.rank_dead.assign(procs, 0);
        for (unsigned q = 0; q < procs; ++q) {
          if (!group_.alive(q) && q != p) rf.rank_dead[q] = 1;
        }
        group_.revive(p);
        group_.send_to(p, encode_resume(rf));
        force_min_work = true;
        pending_rejoin = -1;
      }
    }

    if (abort_local || abort_remote || abort_route || abort_count) {
      if (!abort_local) {
        // Make sure every peer learns about the abort (duplicates are
        // discarded as stale frames).
        group_.broadcast(encode_abort(me, rnd));
      }
      if (faults) rollback.restore(k, observer, 1, profiled);
      tripped = true;
      executed = r;
      break;
    }

    sh.stats.round_messages.push_back(own_sent);
    ++sh.stats.rounds;
    routed_before = sh.stats.messages;
    bits_before = sh.stats.total_bits;
    global_scheduled = sum_active;
    global_work = sum_active + sum_extras;
    if (force_min_work) {
      global_work = std::max<std::uint64_t>(global_work, 1);
    }

    DMATCH_OBS(if (observer != nullptr) {
      if (me == 0) kernel::record_round_end(*observer, *sobs, sum_msgs, sum_bits);
      observer->advance_clock();
    })

    k.advance_round();
    std::swap(sh.active, sh.next_active);
    sh.next_active.clear();
    executed = r + 1;
  }

  if (!tripped) {
    if (!quiesced) quiesced = global_work == 0;
    sh.stats.completed = quiesced;
    k.close_run(sh, rf, executed, lo_, hi_);
  }
  k.end_run(rf, executed);

  // --- result phase ----------------------------------------------------
  RunStats out_stats = tripped ? RunStats{} : sh.stats;
  if (tripped) out_stats.completed = false;
  result.tripped = tripped;
  result.rounds_executed = executed;

  if (me != 0) {
    if (group_.alive(0)) {
      ResultFrame f;
      f.src = me;
      f.tripped = tripped;
      f.stats = out_stats;
      f.reg_lo = lo_;
      f.registers.assign(sh.regs + lo_, sh.regs + hi_);
      DMATCH_OBS(if (observer != nullptr) {
        std::vector<obs::MetricsRegistry::Merged> now =
            observer->metrics().merged();
        f.metrics = metrics_delta(now, im.exported);
        im.exported = std::move(now);
      })
      group_.send_to(0, encode_result(f));
    }
    result.stats = out_stats;
    for (unsigned p = 0; p < procs; ++p) {
      result.dead_ranks[p] = group_.alive(p) ? 0 : 1;
    }
    return result;
  }

  // Rank 0: aggregate the survivors' shares into the global view.
  RunStats agg = out_stats;
  std::vector<int> regs_full(n, -1);
  std::copy(sh.regs + lo_, sh.regs + hi_, regs_full.begin() + lo_);
  bool any_tripped = tripped;
  if (procs > 1) {
    std::vector<std::uint8_t> buf;
    for (unsigned p = 1; p < procs; ++p) {
      if (!group_.alive(p)) continue;
      bool got = false;
      int stale_budget = 4 * (max_rounds + 4);
      while (!got && stale_budget-- > 0 &&
             group_.recv_or_declare_dead(p, buf)) {
        const auto h = peek_header(buf);
        if (!h) {
          group_.mark_dead(p);
          break;
        }
        if (h->kind != FrameKind::kResult) continue;  // stale frame
        const auto f = decode_result(buf, g.node_count());
        if (!f) {
          group_.mark_dead(p);
          break;
        }
        any_tripped = any_tripped || f->tripped;
        agg.accumulate(f->stats);
        for (std::size_t i = 0; i < f->registers.size(); ++i) {
          regs_full[static_cast<std::size_t>(f->reg_lo) + i] =
              f->registers[i];
        }
        DMATCH_OBS(if (observer != nullptr) {
          observer->metrics().import_merged(f->metrics);
        })
        got = true;
      }
    }
  }
  if (any_tripped) agg = RunStats{};
  result.tripped = any_tripped;

  DMATCH_OBS(if (observer != nullptr && !any_tripped) {
    kernel::export_run_obs(*sobs, k, rf, executed, run_start_clock, agg);
  })

  // Dead mask: plan deaths at the final round plus every node owned by a
  // rank the failure detector declared dead.
  std::vector<char> dead(n, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (k.node_dead(v) || !group_.alive(rank_of(v))) {
      dead[static_cast<std::size_t>(v)] = 1;
    }
  }
  congest::heal_register_image(g, regs_full, dead, &result.degradation);
  if (any_tripped) result.degradation.contract_tripped = true;
  if (!quiesced && !any_tripped) result.degradation.budget_exhausted = true;
  result.matching = congest::extract_matching_from_image(g, regs_full);
  result.stats = agg;
  result.registers = std::move(regs_full);
  result.dead_nodes = std::move(dead);
  for (unsigned p = 0; p < procs; ++p) {
    result.dead_ranks[p] = group_.alive(p) ? 0 : 1;
  }
  return result;
}

}  // namespace dmatch::mp
