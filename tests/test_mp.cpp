// Multi-process shard engine (ctest label `mp`).
//
// Asserts the PR's two headline guarantees:
//  * determinism — loopback MP runs at procs {1, 2, 4} are bit-identical
//    to the single-process Network on matchings, RunStats aggregates,
//    merged metrics JSON bytes, and canonical trace multisets, with and
//    without active fault plans;
//  * robustness — a worker death (connection reset, silent mute, or a
//    real SIGKILL'd process over TCP) is detected within the heartbeat
//    budget, its nodes map onto the crash model, survivors heal the
//    registers and extract a verify-clean matching, and a restarted
//    worker rejoins from its checkpoint and finishes the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "core/israeli_itai.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "mp/engine.hpp"
#include "mp/frames.hpp"
#include "mp/transport.hpp"
#include "mp_harness.hpp"
#include "obs/obs.hpp"
#include "support/sched.hpp"
#include "support/wire.hpp"

#if defined(__SANITIZE_THREAD__)
#define DMATCH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DMATCH_TSAN 1
#endif
#endif

namespace dmatch {
namespace {

using congest::FaultPlan;
using congest::RunStats;
using mptest::MpConfig;
using mptest::MpRun;
using mptest::RefRun;

constexpr int kBudget = 256;

// Unique-enough localhost port block per test process and call site.
std::uint16_t test_port(int salt) {
  const auto pid = static_cast<unsigned>(::getpid());
  return static_cast<std::uint16_t>(21000u + (pid * 7u + static_cast<unsigned>(salt) * 131u) % 30000u);
}

void expect_stats_eq(const RunStats& a, const RunStats& b,
                     const std::string& tag) {
  EXPECT_EQ(a.rounds, b.rounds) << tag;
  EXPECT_EQ(a.messages, b.messages) << tag;
  EXPECT_EQ(a.total_bits, b.total_bits) << tag;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << tag;
  EXPECT_EQ(a.completed, b.completed) << tag;
  EXPECT_EQ(a.round_messages, b.round_messages) << tag;
  EXPECT_EQ(a.dropped_messages, b.dropped_messages) << tag;
  EXPECT_EQ(a.duplicated_messages, b.duplicated_messages) << tag;
  EXPECT_EQ(a.delayed_messages, b.delayed_messages) << tag;
  EXPECT_EQ(a.reordered_inboxes, b.reordered_inboxes) << tag;
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes) << tag;
  EXPECT_EQ(a.restarted_nodes, b.restarted_nodes) << tag;
}

void expect_matches_reference(const Graph& g, std::uint64_t seed,
                              const FaultPlan& plan, bool with_obs) {
  const RefRun ref = mptest::run_reference(g, seed, israeli_itai_factory(),
                                           plan, kBudget, with_obs);
  for (const unsigned procs : {1u, 2u, 4u}) {
    MpConfig cfg;
    cfg.procs = procs;
    cfg.fault = plan;
    cfg.max_rounds = kBudget;
    cfg.with_obs = with_obs;
    const MpRun got = mptest::run_mp(g, seed, israeli_itai_factory(), cfg);
    const std::string tag = "procs=" + std::to_string(procs);
    ASSERT_EQ(got.root.tripped, ref.tripped) << tag;
    if (!ref.tripped) {
      expect_stats_eq(got.root.stats, ref.stats, tag);
    }
    EXPECT_TRUE(got.root.matching == ref.matching) << tag;
    EXPECT_EQ(got.root.dead_nodes, ref.dead) << tag;
    for (unsigned r = 0; r < procs; ++r) {
      EXPECT_FALSE(got.ranks[r].simulated_death) << tag;
      EXPECT_EQ(got.ranks[r].dead_ranks,
                std::vector<char>(procs, 0)) << tag;
    }
    if (with_obs) {
      EXPECT_EQ(got.metrics_json, ref.metrics_json) << tag;
      ASSERT_EQ(got.trace.size(), ref.trace.size()) << tag;
      EXPECT_TRUE(got.trace == ref.trace) << tag << ": trace multiset diverged";
    }
  }
}

// --- determinism: loopback MP == single-process Network --------------

TEST(MpIdentity, FaultFreeFamilies) {
  expect_matches_reference(gen::path(33), 5, FaultPlan{}, false);
  expect_matches_reference(gen::cycle(24), 6, FaultPlan{}, false);
  expect_matches_reference(gen::gnp(48, 3.0 / 48, 7), 7, FaultPlan{}, false);
  expect_matches_reference(gen::bipartite_gnp(17, 19, 0.2, 8), 8, FaultPlan{},
                           false);
  expect_matches_reference(gen::complete_bipartite(1, 23), 9, FaultPlan{},
                           false);
}

TEST(MpIdentity, DropsPlan) {
  FaultPlan plan;
  plan.drop_prob = 0.08;
  plan.seed = 17;
  expect_matches_reference(gen::gnp(64, 3.0 / 64, 11), 11, plan, false);
}

TEST(MpIdentity, DupReorderDelayPlan) {
  FaultPlan plan;
  plan.duplicate_prob = 0.06;
  plan.reorder_prob = 0.15;
  plan.delay_prob = 0.08;
  plan.max_delay = 5;
  plan.seed = 23;
  expect_matches_reference(gen::gnp(48, 4.0 / 48, 13), 13, plan, false);
}

TEST(MpIdentity, CrashRestartPlan) {
  FaultPlan plan;
  plan.drop_prob = 0.02;
  plan.seed = 31;
  plan.crashes.push_back({3, 1, 5});
  plan.crashes.push_back({29, 2, congest::kRoundNever});
  expect_matches_reference(gen::gnp(40, 3.0 / 40, 17), 17, plan, false);
}

TEST(MpIdentity, HeavyDelayPlan) {
  FaultPlan plan;
  plan.drop_prob = 0.03;
  plan.delay_prob = 0.25;
  plan.max_delay = 16;
  plan.delay_model = congest::DelayModel::kPareto;
  plan.pareto_alpha = 1.1;
  plan.seed = 41;
  expect_matches_reference(gen::path(50), 19, plan, false);
}

// --- determinism: observability artifacts --------------------------

TEST(MpObsIdentity, FaultFreeMetricsAndTrace) {
  expect_matches_reference(gen::gnp(48, 3.0 / 48, 29), 29, FaultPlan{}, true);
}

TEST(MpObsIdentity, FaultyMetricsAndTrace) {
  FaultPlan plan;
  plan.drop_prob = 0.06;
  plan.duplicate_prob = 0.04;
  plan.delay_prob = 0.05;
  plan.max_delay = 4;
  plan.reorder_prob = 0.1;
  plan.seed = 37;
  plan.crashes.push_back({5, 2, 6});
  expect_matches_reference(gen::gnp(40, 4.0 / 40, 31), 31, plan, true);
}

// --- robustness: worker death over loopback -------------------------

void expect_death_handled(bool kill_hard) {
  const Graph g = gen::gnp(60, 4.0 / 60, 43);
  // The protocol must still be running at the death round for the test
  // to exercise anything.
  const RefRun ref = mptest::run_reference(g, 43, israeli_itai_factory(),
                                           FaultPlan{}, kBudget, false);
  ASSERT_GE(ref.stats.rounds, 4u);

  MpConfig cfg;
  cfg.procs = 3;
  cfg.max_rounds = kBudget;
  cfg.die_rank = 2;
  cfg.die_round = 3;
  cfg.kill_hard = kill_hard;
  cfg.heartbeat_ms = kill_hard ? 500 : 150;
  cfg.recv_retries = 2;
  const MpRun got = mptest::run_mp(g, 43, israeli_itai_factory(), cfg);

  EXPECT_TRUE(got.ranks[2].simulated_death);
  ASSERT_EQ(got.root.dead_ranks.size(), 3u);
  EXPECT_EQ(got.root.dead_ranks[2], 1);
  EXPECT_EQ(got.root.dead_ranks[0], 0);
  EXPECT_EQ(got.root.dead_ranks[1], 0);

  // The dead rank's owned nodes are exactly the dead set.
  const auto range = support::balanced_range(g.node_count(), 3, 2);
  ASSERT_EQ(got.root.dead_nodes.size(),
            static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const bool owned_by_dead = vi >= range.begin && vi < range.end;
    EXPECT_EQ(got.root.dead_nodes[static_cast<std::size_t>(v)] != 0,
              owned_by_dead)
        << "node " << v;
  }

  // Survivors healed to a verify-clean matching over the living nodes.
  const auto report = verify_matching_invariants(g, got.root.matching,
                                                 got.root.dead_nodes);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(got.root.degradation.crashed_nodes, 0u);
}

TEST(MpRobustness, HardDeathDetectedAndHealed) { expect_death_handled(true); }

TEST(MpRobustness, SilentDeathDetectedByTimeout) {
  expect_death_handled(false);
}

// --- robustness: checkpoint rejoin ----------------------------------

// A node program that never touches the matching registers and keeps
// ticking (1-bit message to port 0) until a fixed round, so a mid-run
// death + rejoin has a long protocol tail to land in.
class Ticker final : public congest::Process {
 public:
  explicit Ticker(int halt_round) : halt_round_(halt_round) {}

  void on_round(congest::Context& ctx,
                std::span<const congest::Envelope> /*inbox*/) override {
    if (ctx.round() >= halt_round_) {
      halted_ = true;
      return;
    }
    if (ctx.degree() > 0) {
      BitWriter w;
      w.write_bool(true);
      ctx.send(0, congest::Message::from_writer(std::move(w)));
    }
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  int halt_round_;
  bool halted_ = false;
};

TEST(MpRobustness, RestartedWorkerRejoinsFromCheckpoint) {
  const Graph g = gen::cycle(16);
  const congest::ProcessFactory ticker = [](NodeId, const Graph&) {
    return std::make_unique<Ticker>(40);
  };

  MpConfig cfg;
  cfg.procs = 2;
  cfg.max_rounds = 128;
  cfg.die_rank = 1;
  cfg.die_round = 6;
  // Silent death: the coordinator spends the heartbeat budget blocked at
  // the death round, which is the window the restarted worker's REJOIN
  // lands in. (A hard kill is detected instantly, and a tiny protocol
  // can then quiesce before the replacement worker even dials back in —
  // a legitimate outcome, but not the path under test here.)
  cfg.kill_hard = false;
  cfg.rejoin = true;
  cfg.checkpoint_every = 4;
  cfg.heartbeat_ms = 300;
  cfg.recv_retries = 2;
  const MpRun got = mptest::run_mp(g, 51, ticker, cfg);

  // The rejoiner was re-admitted: nobody is dead at the end and both
  // ranks ran the protocol to completion.
  EXPECT_EQ(got.root.dead_ranks, std::vector<char>(2, 0));
  EXPECT_EQ(got.ranks[1].dead_ranks, std::vector<char>(2, 0));
  EXPECT_FALSE(got.root.tripped);
  EXPECT_FALSE(got.ranks[1].simulated_death);
  EXPECT_TRUE(got.root.stats.completed);
  EXPECT_GE(got.root.rounds_executed, 40);
  EXPECT_GE(got.ranks[1].rounds_executed, 30);  // resumed at ~round 7
  EXPECT_TRUE(got.root.dead_nodes ==
              std::vector<char>(static_cast<std::size_t>(g.node_count()), 0));
}

// --- forced abort: every executor rolls back the same round ----------

// Parks every 5th node; every live node stamps all its ports each round
// until round 6 and points its register at the lowest port it heard
// from, except `thrower`, which sends one over-cap message at round 3 —
// a CONGEST contract trip the engine must roll back.
class TripProcess final : public congest::Process {
 public:
  explicit TripProcess(bool thrower) : thrower_(thrower) {}

  void on_round(congest::Context& ctx,
                std::span<const congest::Envelope> inbox) override {
    if (!inbox.empty()) ctx.set_mate_port(inbox.front().port);
    if (thrower_ && ctx.round() == 3) {
      BitWriter w;
      for (int i = 0; i < 16; ++i) w.write(~std::uint64_t{0}, 64);
      ctx.send(0, congest::Message::from_writer(std::move(w)));
    }
    if (ctx.round() >= 6) {
      halted_ = true;
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) {
      BitWriter w;
      w.write(static_cast<std::uint64_t>(ctx.round()), 16);
      ctx.send(p, congest::Message::from_writer(std::move(w)));
    }
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  bool thrower_;
  bool halted_ = false;
};

/// What one run left behind, as every executor must agree on it.
struct AbortOutcome {
  bool tripped = false;
  std::uint64_t rounds = 0;
  std::vector<int> registers;  // healed image
  std::string metrics_json;
  std::vector<obs::TraceEvent> trace;  // canonical multiset, all sinks

  bool operator==(const AbortOutcome&) const = default;
};

obs::ObsConfig abort_obs_config() {
  obs::ObsConfig oc;
  oc.profile_links = false;  // profiler reports are single-sink only
  return oc;
}

std::string metrics_json(const obs::Observer& o) {
  std::ostringstream os;
  o.metrics().write_json(os);
  return os.str();
}

std::vector<obs::TraceEvent> trace_union(
    const std::vector<std::unique_ptr<obs::Observer>>& observers) {
  std::vector<obs::TraceEvent> all;
  for (const auto& o : observers) {
    const auto events = o->trace_sink().merged();
    all.insert(all.end(), events.begin(), events.end());
  }
  std::sort(all.begin(), all.end(), mptest::trace_less);
  return all;
}

/// Two runs on one Network with `threads` workers.
std::vector<AbortOutcome> network_abort_runs(
    const Graph& g, const congest::ProcessFactory& factory,
    const FaultPlan& plan, unsigned threads) {
  std::vector<std::unique_ptr<obs::Observer>> observer;
  observer.push_back(std::make_unique<obs::Observer>(abort_obs_config()));
  congest::Network::Options options;
  options.num_threads = threads;
  options.fault = plan;
  options.observer = observer[0].get();
  congest::Network net(g, congest::Model::kCongest, 67, 48, options);
  std::vector<AbortOutcome> out(2);
  for (AbortOutcome& o : out) {
    const std::uint64_t before = net.lifetime_rounds();
    try {
      (void)net.run(factory, kBudget);
    } catch (const congest::MessageTooLarge&) {
      o.tripped = true;
    }
    o.rounds = net.lifetime_rounds() - before;
    net.copy_registers(o.registers);
    std::vector<char> dead(o.registers.size(), 0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      dead[static_cast<std::size_t>(v)] = net.node_dead(v) ? 1 : 0;
    }
    congest::heal_register_image(g, o.registers, dead);
    o.metrics_json = metrics_json(*observer[0]);
    o.trace = trace_union(observer);
  }
  return out;
}

/// Two runs on the same `procs` loopback MpEngine ranks.
std::vector<AbortOutcome> mp_abort_runs(const Graph& g,
                                        const congest::ProcessFactory& factory,
                                        const FaultPlan& plan,
                                        unsigned procs) {
  mp::LoopbackHub hub(procs);
  std::vector<std::unique_ptr<obs::Observer>> observers;
  std::vector<std::unique_ptr<mp::MpEngine>> engines;
  for (unsigned r = 0; r < procs; ++r) {
    observers.push_back(std::make_unique<obs::Observer>(abort_obs_config()));
    mp::MpOptions options;
    options.fault = plan;
    options.observer = observers[r].get();
    engines.push_back(std::make_unique<mp::MpEngine>(
        g, congest::Model::kCongest, 67, 48, hub.endpoint(r), options));
  }
  std::vector<AbortOutcome> out(2);
  for (AbortOutcome& o : out) {
    std::vector<mp::MpResult> results(procs);
    std::vector<std::thread> threads;
    for (unsigned r = 0; r < procs; ++r) {
      threads.emplace_back(
          [&, r] { results[r] = engines[r]->run(factory, kBudget); });
    }
    for (auto& t : threads) t.join();
    o.tripped = results[0].tripped;
    o.rounds = static_cast<std::uint64_t>(results[0].rounds_executed);
    o.registers = results[0].registers;
    o.metrics_json = metrics_json(*observers[0]);
    o.trace = trace_union(observers);
  }
  return out;
}

TEST(MpIdentity, ForcedAbortRollsBackIdenticallyAcrossExecutors) {
  const Graph g = gen::gnp(40, 4.0 / 40, 67);
  // The thrower: a live, connected node in rank 1's range at procs = 2.
  const auto rank1 = support::balanced_range(g.node_count(), 2, 1);
  NodeId thrower = kNoNode;
  for (auto v = static_cast<NodeId>(rank1.begin); thrower == kNoNode; ++v) {
    ASSERT_LT(static_cast<std::size_t>(v), rank1.end);
    if (v % 5 != 0 && g.degree(v) > 0) thrower = v;
  }
  const congest::ProcessFactory factory =
      [thrower](NodeId v, const Graph&) -> std::unique_ptr<congest::Process> {
    if (v % 5 == 0) return nullptr;  // parked
    return std::make_unique<TripProcess>(v == thrower);
  };
  FaultPlan plan;
  plan.drop_prob = 0.1;
  plan.seed = 71;

  const std::vector<AbortOutcome> ref = network_abort_runs(g, factory, plan, 1);
  for (const AbortOutcome& o : ref) {
    EXPECT_TRUE(o.tripped);
    EXPECT_EQ(o.rounds, 3u);
  }
  EXPECT_TRUE(network_abort_runs(g, factory, plan, 2) == ref) << "threads=2";
  for (const unsigned procs : {1u, 2u}) {
    const std::vector<AbortOutcome> got = mp_abort_runs(g, factory, plan, procs);
    for (std::size_t run = 0; run < ref.size(); ++run) {
      const std::string tag =
          "procs=" + std::to_string(procs) + " run=" + std::to_string(run);
      EXPECT_EQ(got[run].tripped, ref[run].tripped) << tag;
      EXPECT_EQ(got[run].rounds, ref[run].rounds) << tag;
      EXPECT_EQ(got[run].registers, ref[run].registers) << tag;
      EXPECT_EQ(got[run].metrics_json, ref[run].metrics_json) << tag;
      EXPECT_TRUE(got[run].trace == ref[run].trace)
          << tag << ": trace multiset diverged";
    }
  }
}

// --- link profiler: the ranks' profiles add up to the Network's -------

/// What a link-profiled observer holds after some runs: the interleaved
/// (messages, bits) count of every sender-side slot, and the per-round
/// curves.
struct LinkProfile {
  std::vector<std::uint64_t> links;
  std::vector<std::uint64_t> round_messages;
  std::vector<std::uint64_t> round_bits;
};

/// `runs` runs on one single-threaded Network with a link-profiled
/// observer; contract trips end a run, as in network_abort_runs.
LinkProfile network_link_profile(const Graph& g, std::uint64_t seed,
                                 const congest::ProcessFactory& factory,
                                 const FaultPlan& plan, int runs) {
  obs::Observer observer;  // ObsConfig profiles links by default
  congest::Network::Options options;
  options.num_threads = 1;
  options.fault = plan;
  options.observer = &observer;
  congest::Network net(g, congest::Model::kCongest, seed, 48, options);
  for (int run = 0; run < runs; ++run) {
    try {
      (void)net.run(factory, kBudget);
    } catch (const congest::MessageTooLarge&) {
    }
  }
  const obs::CongestionProfiler& p = observer.profiler();
  return {p.snapshot_links().link, p.round_messages(), p.round_bits()};
}

/// `runs` runs on the same `procs` loopback ranks, each with its own
/// link-profiled observer: the ranks' link arrays summed element-wise,
/// and rank 0's round curves.
LinkProfile mp_link_profile(const Graph& g, std::uint64_t seed,
                            const congest::ProcessFactory& factory,
                            const FaultPlan& plan, int runs, unsigned procs) {
  mp::LoopbackHub hub(procs);
  std::vector<std::unique_ptr<obs::Observer>> observers;
  std::vector<std::unique_ptr<mp::MpEngine>> engines;
  for (unsigned r = 0; r < procs; ++r) {
    observers.push_back(std::make_unique<obs::Observer>());
    mp::MpOptions options;
    options.fault = plan;
    options.observer = observers[r].get();
    engines.push_back(std::make_unique<mp::MpEngine>(
        g, congest::Model::kCongest, seed, 48, hub.endpoint(r), options));
  }
  for (int run = 0; run < runs; ++run) {
    std::vector<std::thread> threads;
    for (unsigned r = 0; r < procs; ++r) {
      threads.emplace_back([&, r] { (void)engines[r]->run(factory, kBudget); });
    }
    for (auto& t : threads) t.join();
  }
  LinkProfile sum;
  for (const auto& o : observers) {
    const std::vector<std::uint64_t> links =
        o->profiler().snapshot_links().link;
    sum.links.resize(std::max(sum.links.size(), links.size()), 0);
    for (std::size_t i = 0; i < links.size(); ++i) sum.links[i] += links[i];
  }
  sum.round_messages = observers[0]->profiler().round_messages();
  sum.round_bits = observers[0]->profiler().round_bits();
  return sum;
}

TEST(MpObsIdentity, LinkProfileSumsToNetwork) {
  struct Case {
    std::string name;
    Graph g;
    std::uint64_t seed;
    congest::ProcessFactory factory;
    FaultPlan plan;
    int runs;
  };
  FaultPlan drops;
  drops.drop_prob = 0.1;
  drops.seed = 17;
  // The forced-abort case: an over-cap send at round 3 from rank 1's
  // range under a drop plan, so every run rolls a link-profiled round
  // back.
  const Graph trip_g = gen::gnp(40, 4.0 / 40, 67);
  const auto rank1 = support::balanced_range(trip_g.node_count(), 2, 1);
  NodeId thrower = kNoNode;
  for (auto v = static_cast<NodeId>(rank1.begin); thrower == kNoNode; ++v) {
    ASSERT_LT(static_cast<std::size_t>(v), rank1.end);
    if (v % 5 != 0 && trip_g.degree(v) > 0) thrower = v;
  }
  const congest::ProcessFactory trip =
      [thrower](NodeId v, const Graph&) -> std::unique_ptr<congest::Process> {
    if (v % 5 == 0) return nullptr;  // parked
    return std::make_unique<TripProcess>(v == thrower);
  };
  FaultPlan trip_plan;
  trip_plan.drop_prob = 0.1;
  trip_plan.seed = 71;
  const std::vector<Case> cases = {
      {"ii", gen::gnp(48, 3.0 / 48, 29), 29, israeli_itai_factory(),
       FaultPlan{}, 1},
      {"ii-drops", gen::gnp(64, 3.0 / 64, 11), 11, israeli_itai_factory(),
       drops, 1},
      {"trip", trip_g, 67, trip, trip_plan, 2},
  };
  for (const Case& c : cases) {
    const LinkProfile ref =
        network_link_profile(c.g, c.seed, c.factory, c.plan, c.runs);
    std::uint64_t messages = 0;
    for (std::size_t i = 0; i < ref.links.size(); i += 2) {
      messages += ref.links[i];
    }
    EXPECT_GT(messages, 0u) << c.name;
    for (const unsigned procs : {1u, 2u, 4u}) {
      const std::string tag = c.name + " procs=" + std::to_string(procs);
      const LinkProfile got =
          mp_link_profile(c.g, c.seed, c.factory, c.plan, c.runs, procs);
      EXPECT_EQ(got.links, ref.links) << tag;
      EXPECT_EQ(got.round_messages, ref.round_messages) << tag;
      EXPECT_EQ(got.round_bits, ref.round_bits) << tag;
    }
  }
}

// --- TCP transport ---------------------------------------------------

TEST(TcpTransport, RoundTripFifoTimeoutAndClose) {
  const std::uint16_t base = test_port(1);
  std::thread peer([&] {
    mp::TcpTransport t(1, 2, base);
    std::vector<std::uint8_t> frame;
    // Echo two frames back in order, then exit (closing the link).
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(t.recv(0, frame, 5000), mp::RecvStatus::kOk);
      frame.push_back(static_cast<std::uint8_t>(0xE0 + i));
      ASSERT_TRUE(t.send(0, frame));
    }
  });
  mp::TcpTransport t(0, 2, base);
  ASSERT_TRUE(t.send(1, std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_TRUE(t.send(1, std::vector<std::uint8_t>{4}));
  std::vector<std::uint8_t> frame;
  ASSERT_EQ(t.recv(1, frame, 5000), mp::RecvStatus::kOk);
  EXPECT_EQ(frame, (std::vector<std::uint8_t>{1, 2, 3, 0xE0}));
  ASSERT_EQ(t.recv(1, frame, 5000), mp::RecvStatus::kOk);
  EXPECT_EQ(frame, (std::vector<std::uint8_t>{4, 0xE1}));
  peer.join();
  // Peer is gone: a bounded wait must end in kTimeout or kClosed (the
  // FIN may still be in flight), and the state must settle on kClosed.
  mp::RecvStatus status = t.recv(1, frame, 50);
  EXPECT_NE(status, mp::RecvStatus::kOk);
  for (int i = 0; i < 100 && status != mp::RecvStatus::kClosed; ++i) {
    status = t.recv(1, frame, 50);
  }
  EXPECT_EQ(status, mp::RecvStatus::kClosed);
}

TEST(TcpTransport, RecvDeadlineExpiresToTimeout) {
  const std::uint16_t base = test_port(2);
  std::thread peer([&] {
    mp::TcpTransport t(1, 2, base);
    std::vector<std::uint8_t> frame;
    // Hold the link open until rank 0 is done timing out.
    (void)t.recv(0, frame, 5000);
  });
  mp::TcpTransport t(0, 2, base);
  std::vector<std::uint8_t> frame;
  EXPECT_EQ(t.recv(1, frame, 100), mp::RecvStatus::kTimeout);
  ASSERT_TRUE(t.send(1, std::vector<std::uint8_t>{9}));  // release the peer
  peer.join();
}

TEST(MpTcp, EngineMatchesLoopbackOverTcp) {
  const Graph g = gen::gnp(40, 3.0 / 40, 59);
  const RefRun ref = mptest::run_reference(g, 59, israeli_itai_factory(),
                                           FaultPlan{}, kBudget, false);
  const std::uint16_t base = test_port(3);
  std::vector<mp::MpResult> results(2);
  std::vector<std::thread> threads;
  for (unsigned r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      mp::TcpTransport transport(r, 2, base);
      mp::MpEngine engine(g, congest::Model::kCongest, 59, 48, transport);
      results[r] = engine.run(israeli_itai_factory(), kBudget);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(results[0].tripped);
  expect_stats_eq(results[0].stats, ref.stats, "tcp procs=2");
  EXPECT_TRUE(results[0].matching == ref.matching);
}

#ifndef DMATCH_TSAN
TEST(MpTcp, SigkilledWorkerIsDetectedAndHealed) {
  const Graph g = gen::gnp(48, 4.0 / 48, 61);
  const std::uint16_t base = test_port(4);
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Worker process: participate for 3 rounds, then die the hard way.
    // SIGKILL leaves the kernel to reset the TCP links — exactly what a
    // crashed or OOM-killed worker looks like to the survivors.
    mp::TcpTransport transport(1, 2, base);
    mp::MpOptions options;
    options.die_at_round = 3;
    mp::MpEngine engine(g, congest::Model::kCongest, 61, 48, transport,
                        options);
    (void)engine.run(israeli_itai_factory(), kBudget);
    ::raise(SIGKILL);
    ::_exit(0);  // unreachable
  }

  mp::GroupOptions gopts;
  gopts.heartbeat_timeout_ms = 1000;
  gopts.recv_retries = 2;
  mp::TcpTransport transport(0, 2, base);
  mp::MpOptions options;
  options.group = gopts;
  mp::MpEngine engine(g, congest::Model::kCongest, 61, 48, transport,
                      options);
  const mp::MpResult result = engine.run(israeli_itai_factory(), kBudget);

  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  EXPECT_TRUE(WIFSIGNALED(wstatus));

  ASSERT_EQ(result.dead_ranks.size(), 2u);
  EXPECT_EQ(result.dead_ranks[1], 1);
  std::size_t dead_count = 0;
  for (const char d : result.dead_nodes) dead_count += d != 0;
  EXPECT_GT(dead_count, 0u);
  const auto report = verify_matching_invariants(g, result.matching,
                                                 result.dead_nodes);
  EXPECT_TRUE(report.ok()) << report.summary();
}
#endif  // DMATCH_TSAN

}  // namespace
}  // namespace dmatch
