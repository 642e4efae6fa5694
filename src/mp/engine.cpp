#include "mp/engine.hpp"

#include <algorithm>
#include <utility>

#include "mp/frames.hpp"
#include "support/assert.hpp"
#include "support/sched.hpp"

namespace dmatch::mp {

namespace {

using congest::FaultPlan;
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
// The rank's side of the round barrier
// ---------------------------------------------------------------------

/// A rank's Network plus the frame protocol around its rounds: the
/// RoundBarrier that Network::run calls at every round boundary.
struct MpEngine::Impl final : congest::RoundBarrier {
  Impl(MpEngine& e, const Graph& g, congest::Model model, std::uint64_t seed,
       std::uint32_t congest_factor)
      : group(e.group_),
        options(e.options_),
        n(static_cast<std::size_t>(g.node_count())),
        net(g, model, seed, congest_factor,
            {.num_threads = 1, .fault = e.options_.fault,
             .observer = e.options_.observer}),
        lo(e.lo_),
        hi(e.hi_),
        checkpoints(group.size()),
        rejoins(group.size(), 0) {
    parts = group.size();
    part = group.rank();
    net.set_fault_nonce(options.fault_nonce);
  }

  /// One run from round 0, or from a RESUME (rejoin).
  MpResult run(const ProcessFactory& factory, int budget,
               const ResumeFrame* from);

  void start(Counts& counts) override;
  bool proceed(int round) override {
    died = options.die_at_round >= 0 && round >= options.die_at_round;
    return !died;
  }
  bool exchange(int round, bool failed, std::span<std::vector<WireMsg>> out,
                std::vector<std::vector<WireMsg>>& in,
                RunStats& stats) override;
  bool settle(int round, bool failed, Counts& counts) override;
  bool finish(RunStats& stats, bool tripped) override;

  /// This rank's slice [lo, hi) of the register file.
  [[nodiscard]] std::vector<int> owned_registers() const {
    std::vector<int> regs;
    net.copy_registers(regs);
    regs.erase(regs.begin() + hi, regs.end());
    regs.erase(regs.begin(), regs.begin() + lo);
    return regs;
  }
  /// Receive from each alive peer of rank >= `first`, in ascending order,
  /// until `take(p, header)` returns true for one of its frames (left in
  /// `buf`). A frame without a valid header ends the wait and marks the
  /// peer dead, as does `take` on a frame it cannot decode.
  template <typename Take>
  void collect(unsigned first, std::vector<std::uint8_t>& buf, Take take) {
    for (unsigned p = first; p < group.size(); ++p) {
      if (p == group.rank() || !group.alive(p)) continue;
      while (group.recv_or_declare_dead(p, buf)) {
        const auto h = peek_header(buf);
        if (!h) {  // garbage frame: treat the peer as gone
          group.mark_dead(p);
          break;
        }
        if (take(p, *h)) break;
      }
    }
  }

  ProcessGroup& group;
  const MpOptions& options;
  const std::size_t n;
  // Every rank builds the full O(m) routing tables in a one-shard layout
  // (the graph itself is shared, and global slot ids are what keep the
  // fault hashes identical to the single-process engine); only the owned
  // range is ever spawned and stepped.
  congest::Network net;
  const NodeId lo, hi;  // the owned range

  // Rank-0 rejoin support: last checkpointed register image per rank and
  // how many times each rank rejoined (advances its fault nonce).
  std::vector<std::vector<int>> checkpoints;
  std::vector<std::uint64_t> rejoins;

  // The registry export this rank already shipped to rank 0.
  std::vector<obs::MetricsRegistry::Merged> exported;

  // Per-run state.
  const ResumeFrame* resume = nullptr;
  int max_rounds = 0;
  int pending_rejoin = -1;  // rank 0: rank admitted at the next boundary
  bool died = false;        // stopped by the die_at_round hook
  bool quiesced = false;
  bool tripped_anywhere = false;
  std::vector<int> registers;     // rank 0: the assembled image
};

MpEngine::MpEngine(const Graph& g, congest::Model model, std::uint64_t seed,
                   std::uint32_t congest_factor, Transport& transport,
                   MpOptions options)
    : g_(&g),
      seed_(seed),
      options_(std::move(options)),
      group_(transport, options_.group) {
  const auto n = static_cast<std::size_t>(g.node_count());
  const auto [lo, hi] =
      support::balanced_range(n, group_.size(), group_.rank());
  lo_ = static_cast<NodeId>(lo);
  hi_ = static_cast<NodeId>(hi);
  impl_ = std::make_unique<Impl>(*this, g, model, seed, congest_factor);
  cap_bits_ = impl_->net.message_cap_bits();
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
  return impl_->run(factory, max_rounds, nullptr);
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
  congest::Network& net = impl_->net;
  std::vector<int> regs;
  net.copy_registers(regs);
  for (std::size_t i = 0; i < resume.registers.size(); ++i) {
    const std::size_t vi = static_cast<std::size_t>(resume.reg_lo) + i;
    if (vi < regs.size()) regs[vi] = resume.registers[i];
  }
  net.restore_registers(regs);
  net.set_fault_nonce(resume.nonce);  // advancing-nonce replay discipline
  return impl_->run(factory, max_rounds, &resume);
}

MpResult MpEngine::Impl::run(const ProcessFactory& factory, int budget,
                             const ResumeFrame* from) {
  resume = from;
  max_rounds = budget;
  first_round = from != nullptr ? static_cast<int>(from->round) : 0;
  pending_rejoin = -1;
  died = false;
  const std::uint64_t before = net.lifetime_rounds();
  RunStats stats = net.run(factory, budget, this);

  const unsigned procs = group.size();
  MpResult result;
  result.rounds_executed = static_cast<int>(net.lifetime_rounds() - before);
  result.dead_ranks.assign(procs, 0);
  if (died) {
    result.simulated_death = true;
    return result;
  }
  for (unsigned p = 0; p < procs; ++p) {
    result.dead_ranks[p] = group.alive(p) ? 0 : 1;
  }
  result.tripped = tripped_anywhere;
  result.stats = std::move(stats);
  if (part != 0) return result;

  // Rank 0: heal the assembled image. Dead mask: plan deaths at the final
  // round plus every node owned by a rank the failure detector declared
  // dead.
  const Graph& g = net.graph();
  std::vector<char> dead(n, 0);
  for (std::size_t vi = 0; vi < n; ++vi) {
    const bool rank_dead = !group.alive(support::balanced_part_of(n, procs, vi));
    dead[vi] = net.node_dead(static_cast<NodeId>(vi)) || rank_dead ? 1 : 0;
  }
  congest::heal_register_image(g, registers, dead, &result.degradation);
  if (tripped_anywhere) result.degradation.contract_tripped = true;
  if (!quiesced && !tripped_anywhere) {
    result.degradation.budget_exhausted = true;
  }
  result.matching = congest::extract_matching_from_image(g, registers);
  result.registers = std::move(registers);
  result.dead_nodes = std::move(dead);
  return result;
}

void MpEngine::Impl::start(Counts& counts) {
  if (resume != nullptr) {
    // The rejoiner forces at least one more global round; counts
    // resynchronize at its first COUNT exchange.
    counts.parked = std::max<std::uint64_t>(counts.parked, 1);
    return;
  }
  const unsigned me = group.rank();
  if (group.size() == 1) return;
  CountFrame c0{me, 0, counts.scheduled, counts.parked, 0, 0, kNoRank};
  group.broadcast(encode_count(c0));
  std::vector<std::uint8_t> buf;
  for (unsigned p = 0; p < group.size(); ++p) {
    if (p == me || !group.alive(p)) continue;
    bool counted = false;
    while (!counted && group.recv_or_declare_dead(p, buf)) {
      const auto c = decode_count(buf);
      if (c && c->round == 0) {
        counts.scheduled += c->active;
        counts.parked += c->extras;
        counted = true;
      }
    }
  }
}

bool MpEngine::Impl::exchange(int round, bool failed,
                              std::span<std::vector<WireMsg>> out,
                              std::vector<std::vector<WireMsg>>& in,
                              RunStats& stats) {
  const unsigned me = group.rank();
  const unsigned procs = group.size();
  const auto rnd = static_cast<std::uint32_t>(round);

  // --- flush: one ROUND frame per alive peer, messages in send order ---
  if (failed) {
    group.broadcast(encode_abort(me, rnd));
  } else {
    DMATCH_EXPECTS(out.size() == procs);  // the rank's Network has one shard
    for (unsigned p = 0; p < procs; ++p) {
      if (p == me) continue;
      RoundFrame f{me, rnd, {}};
      f.msgs.swap(out[p]);
      if (group.alive(p)) {
        group.send_to(p, encode_round(f));
      } else {
        // Messages addressed to a dead rank's nodes are lost in
        // transit; account them like in-flight drops.
        stats.dropped_messages += f.msgs.size();
      }
      f.msgs.clear();
      out[p].swap(f.msgs);  // next round's sends reuse the capacity
    }
  }

  // --- collect: one ROUND frame (or ABORT) from each alive peer --------
  const std::uint32_t decode_cap =
      net.model() == congest::Model::kCongest ? net.message_cap_bits()
                                              : (1u << 20);
  bool aborted = failed;
  std::vector<std::uint8_t> buf;
  collect(0, buf, [&](unsigned p, const FrameHeader& h) {
    if (h.kind == FrameKind::kAbort) {
      aborted = true;
      return true;
    }
    if (h.kind == FrameKind::kRound && h.round == rnd) {
      auto f = decode_round(buf, net.graph(), decode_cap);
      if (!f) {
        group.mark_dead(p);
        return true;
      }
      in.push_back(std::move(f->msgs));
      return true;
    }
    if (h.kind == FrameKind::kRejoin && me == 0 && options.allow_rejoin) {
      // A restarted worker announced itself on the queue of the rank it
      // replaces (we have not declared it dead yet); remember the
      // request for the next round boundary.
      pending_rejoin = static_cast<int>(h.src);
    }
    return false;  // anything else (stale ROUND/COUNT/CHECKPOINT)
  });
  if (aborted && !failed) {
    // Make sure every peer learns about the abort (duplicates are
    // discarded as stale frames).
    group.broadcast(encode_abort(me, rnd));
  }
  return !aborted;
}

bool MpEngine::Impl::settle(int round, bool failed, Counts& counts) {
  const unsigned me = group.rank();
  const unsigned procs = group.size();
  const auto rnd = static_cast<std::uint32_t>(round);
  const auto next = static_cast<std::uint32_t>(round + 1);
  bool aborted = failed;
  bool joined = false;
  if (failed) {
    // The route phase threw (a delivery the owned range cannot take).
    group.broadcast(encode_abort(me, rnd));
  } else if (procs > 1) {
    // Rank 0: poll dead ranks for a rejoin request (bounded, 0 ms).
    if (me == 0 && options.allow_rejoin && pending_rejoin < 0) {
      std::vector<std::uint8_t> jb;
      for (unsigned p = 1; p < procs; ++p) {
        if (group.alive(p)) continue;
        while (group.try_recv(p, jb, 0) == RecvStatus::kOk) {
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
    CountFrame c{me,          next,        counts.scheduled, counts.parked,
                 counts.msgs, counts.bits,
                 admit_rank >= 0 ? static_cast<unsigned>(admit_rank)
                                 : kNoRank};
    group.broadcast(encode_count(c));
    const bool checkpoint_due = options.allow_rejoin &&
                                options.checkpoint_every > 0 &&
                                (round + 1) % options.checkpoint_every == 0;
    if (me != 0 && checkpoint_due && group.alive(0)) {
      CheckpointFrame cf{me, next, lo, owned_registers()};
      group.send_to(0, encode_checkpoint(cf));
    }
    std::vector<std::uint8_t> buf;
    collect(0, buf, [&](unsigned p, const FrameHeader& h) {
      if (h.kind == FrameKind::kAbort) {
        aborted = true;
        return true;
      }
      if (h.kind == FrameKind::kRejoin && me == 0 && options.allow_rejoin) {
        pending_rejoin = static_cast<int>(h.src);
      }
      if (h.kind != FrameKind::kCount || h.round != next) return false;
      const auto c2 = decode_count(buf);
      if (!c2) {
        group.mark_dead(p);
        return true;
      }
      counts.scheduled += c2->active;
      counts.parked += c2->extras;
      counts.msgs += c2->msgs;
      counts.bits += c2->bits;
      if (p == 0 && c2->rejoin_rank != kNoRank && c2->rejoin_rank < procs) {
        group.revive(c2->rejoin_rank);
        joined = true;
      }
      return true;
    });
    if (me == 0 && checkpoint_due) {
      collect(1, buf, [&](unsigned p, const FrameHeader& h) {
        if (h.kind == FrameKind::kAbort) {
          aborted = true;
          return true;
        }
        if (h.kind != FrameKind::kCheckpoint) return false;
        const auto cf = decode_checkpoint(buf, net.graph().node_count());
        if (cf && cf->src == p) checkpoints[p] = cf->registers;
        return true;
      });
    }
    // Admit the rejoiner: it participates from round `next` on.
    if (me == 0 && admit_rank >= 0 && !aborted) {
      const auto p = static_cast<unsigned>(admit_rank);
      ResumeFrame rs;
      rs.round = next;
      rs.nonce = options.fault_nonce + (++rejoins[p]);
      const auto [plo, phi] = support::balanced_range(n, procs, p);
      rs.reg_lo = static_cast<NodeId>(plo);
      rs.registers = checkpoints[p].empty()
                         ? std::vector<int>(phi - plo, -1)
                         : checkpoints[p];
      rs.rank_dead.assign(procs, 0);
      for (unsigned q = 0; q < procs; ++q) {
        if (!group.alive(q) && q != p) rs.rank_dead[q] = 1;
      }
      group.revive(p);
      group.send_to(p, encode_resume(rs));
      joined = true;
      pending_rejoin = -1;
    }
  }
  if (aborted) {
    // Make sure every peer learns about the abort (duplicates are
    // discarded as stale frames).
    group.broadcast(encode_abort(me, rnd));
    return false;
  }
  // A joining rank forces one more round: count it as pending work.
  if (joined) counts.parked = std::max<std::uint64_t>(counts.parked, 1);
  return true;
}

bool MpEngine::Impl::finish(RunStats& stats, bool tripped) {
  const unsigned me = group.rank();
  const unsigned procs = group.size();
  quiesced = !tripped && stats.completed;
  tripped_anywhere = tripped;
  [[maybe_unused]] obs::Observer* const observer = net.observer();

  if (me != 0) {
    if (group.alive(0)) {
      ResultFrame f;
      f.src = me;
      f.tripped = tripped;
      f.stats = stats;
      f.reg_lo = lo;
      f.registers = owned_registers();
      DMATCH_OBS(if (observer != nullptr) {
        std::vector<obs::MetricsRegistry::Merged> now =
            observer->metrics().merged();
        f.metrics = metrics_delta(now, exported);
        exported = std::move(now);
      })
      group.send_to(0, encode_result(f));
    }
    return tripped;
  }

  // Rank 0: aggregate the survivors' shares into the global view.
  net.copy_registers(registers);
  std::fill(registers.begin(), registers.begin() + lo, -1);
  std::fill(registers.begin() + hi, registers.end(), -1);
  std::vector<std::uint8_t> buf;
  for (unsigned p = 1; p < procs; ++p) {
    if (!group.alive(p)) continue;
    bool got = false;
    int stale_budget = 4 * (max_rounds + 4);
    while (!got && stale_budget-- > 0 && group.recv_or_declare_dead(p, buf)) {
      const auto h = peek_header(buf);
      if (!h) {
        group.mark_dead(p);
        break;
      }
      if (h->kind != FrameKind::kResult) continue;  // stale frame
      const auto f = decode_result(buf, net.graph().node_count());
      if (!f) {
        group.mark_dead(p);
        break;
      }
      tripped_anywhere = tripped_anywhere || f->tripped;
      stats.accumulate(f->stats);
      for (std::size_t i = 0; i < f->registers.size(); ++i) {
        registers[static_cast<std::size_t>(f->reg_lo) + i] = f->registers[i];
      }
      DMATCH_OBS(if (observer != nullptr) {
        observer->metrics().import_merged(f->metrics);
      })
      got = true;
    }
  }
  if (tripped_anywhere) stats = RunStats{};
  return tripped_anywhere;
}

}  // namespace dmatch::mp
