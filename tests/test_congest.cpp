#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "congest/async.hpp"
#include "congest/network.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace dmatch {
namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::MessageTooLarge;
using congest::Model;
using congest::Network;
using congest::Process;
using congest::RunStats;

/// Sends one fixed-size message to every neighbor for `rounds` rounds.
class Chatter final : public Process {
 public:
  Chatter(int rounds, unsigned bits) : rounds_(rounds), bits_(bits) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    (void)inbox;
    if (ctx.round() < rounds_) {
      BitWriter w;
      for (unsigned b = 0; b < bits_; ++b) w.write_bool(true);
      const Message msg = Message::from_writer(std::move(w));
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
    }
    halted_ = ctx.round() >= rounds_;
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  int rounds_;
  unsigned bits_;
  bool halted_ = false;
};

/// Counts hops: node 0 emits a token that is forwarded around a cycle;
/// verifies one-hop-per-round delivery timing.
class RingForwarder final : public Process {
 public:
  explicit RingForwarder(std::vector<int>& arrival) : arrival_(arrival) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    if (ctx.round() == 0 && ctx.id() == 0) {
      BitWriter w;
      w.write(1, 1);
      ctx.send(0, Message::from_writer(std::move(w)));  // one direction
      arrival_[0] = 0;
      return;
    }
    for (const Envelope& env : inbox) {
      (void)env;
      if (arrival_[static_cast<std::size_t>(ctx.id())] < 0) {
        arrival_[static_cast<std::size_t>(ctx.id())] = ctx.round();
        // Forward out the other port.
        const int out = env.port == 0 ? 1 : 0;
        BitWriter w;
        w.write(1, 1);
        ctx.send(out, Message::from_writer(std::move(w)));
      }
      halted_ = true;
    }
    if (ctx.id() == 0 && ctx.round() > 0) halted_ = true;
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  std::vector<int>& arrival_;
  bool halted_ = false;
};

TEST(Network, CapScalesWithLogN) {
  const Graph small = gen::cycle(8);
  const Graph big = gen::cycle(2048);
  Network net_small(small, Model::kCongest, 1, 10);
  Network net_big(big, Model::kCongest, 1, 10);
  EXPECT_EQ(net_small.message_cap_bits(), 10u * 4u);  // floored at 4 bits
  EXPECT_EQ(net_big.message_cap_bits(), 10u * 11u);
}

TEST(Network, CongestRejectsOversizeMessage) {
  const Graph g = gen::cycle(8);
  Network net(g, Model::kCongest, 1, 1);  // cap = 4 bits
  EXPECT_THROW(net.run(
                   [](NodeId, const Graph&) {
                     return std::make_unique<Chatter>(1, 64);
                   },
                   4),
               MessageTooLarge);
}

TEST(Network, LocalModeAllowsAndRecordsBigMessages) {
  const Graph g = gen::cycle(8);
  Network net(g, Model::kLocal, 1, 1);
  const RunStats stats = net.run(
      [](NodeId, const Graph&) { return std::make_unique<Chatter>(1, 5000); },
      4);
  EXPECT_EQ(stats.max_message_bits, 5000u);
  EXPECT_TRUE(stats.completed);
}

TEST(Network, StatsCountMessagesAndBits) {
  const Graph g = gen::cycle(10);  // 10 nodes, degree 2
  Network net(g, Model::kCongest, 1);
  const RunStats stats = net.run(
      [](NodeId, const Graph&) { return std::make_unique<Chatter>(3, 7); },
      10);
  // 10 nodes * 2 ports * 3 rounds.
  EXPECT_EQ(stats.messages, 60u);
  EXPECT_EQ(stats.total_bits, 60u * 7u);
  EXPECT_EQ(stats.max_message_bits, 7u);
}

TEST(Network, QuiescenceStopsEarly) {
  const Graph g = gen::cycle(10);
  Network net(g, Model::kCongest, 1);
  const RunStats stats = net.run(
      [](NodeId, const Graph&) { return std::make_unique<Chatter>(2, 1); },
      1000);
  EXPECT_TRUE(stats.completed);
  EXPECT_LT(stats.rounds, 6u);
}

TEST(Network, BudgetExhaustionReportsIncomplete) {
  const Graph g = gen::cycle(10);
  Network net(g, Model::kCongest, 1);
  const RunStats stats = net.run(
      [](NodeId, const Graph&) { return std::make_unique<Chatter>(50, 1); },
      5);
  EXPECT_FALSE(stats.completed);
  EXPECT_EQ(stats.rounds, 5u);
}

TEST(Network, OneHopPerRoundTiming) {
  const NodeId n = 12;
  const Graph g = gen::cycle(n);
  Network net(g, Model::kCongest, 3);
  std::vector<int> arrival(static_cast<std::size_t>(n), -1);
  net.run(
      [&arrival](NodeId, const Graph&) {
        return std::make_unique<RingForwarder>(arrival);
      },
      100);
  // The token starts at node 0 and travels one hop per round towards node
  // 1, 2, ... (port 0 of node 0 leads to node 1 by construction).
  EXPECT_EQ(arrival[0], 0);
  for (NodeId v = 1; v < n; ++v) {
    EXPECT_EQ(arrival[static_cast<std::size_t>(v)], v) << "node " << v;
  }
}

TEST(Network, DeterministicUnderSeed) {
  const Graph g = gen::gnp(30, 0.2, 5);
  auto run_once = [&](std::uint64_t seed) {
    Network net(g, Model::kCongest, seed);
    RunStats s = net.run(
        [](NodeId, const Graph&) { return std::make_unique<Chatter>(2, 3); },
        10);
    return s;
  };
  const RunStats a = run_once(7);
  const RunStats b = run_once(7);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
}

TEST(Network, MatchingRegistersRoundTrip) {
  const Graph g = gen::cycle(8);
  Network net(g, Model::kCongest, 1);
  Matching m(8);
  m.add(g, 0);
  m.add(g, 4);
  net.set_matching(m);
  const Matching out = net.extract_matching();
  EXPECT_TRUE(out == m);
}

TEST(Network, ExtractValidatesConsistency) {
  // A process that points its register at a neighbor that does not point
  // back must make extract_matching throw.
  class OneSided final : public Process {
   public:
    void on_round(Context& ctx, std::span<const Envelope>) override {
      if (ctx.id() == 0) ctx.set_mate_port(0);
      halted_ = true;
    }
    [[nodiscard]] bool halted() const override { return halted_; }

   private:
    bool halted_ = false;
  };
  const Graph g = gen::cycle(6);
  Network net(g, Model::kCongest, 1);
  net.run([](NodeId, const Graph&) { return std::make_unique<OneSided>(); },
          4);
  EXPECT_THROW(net.extract_matching(), ContractViolation);
}

/// Sleeps until `wake` (when `sleepy`) and halts there. Node 0 of the
/// path is the talker: awake, it sends one message to its neighbor in
/// each round listed in `talk`. Every other node records the rounds it
/// is stepped in, and forwards each message it receives away from the
/// talker once. An empty-inbox step before `wake` does nothing, so the
/// hint may be honoured or ignored.
class Sleeper final : public Process {
 public:
  Sleeper(bool sleepy, int wake, std::vector<int> talk,
          std::vector<std::vector<int>>& steps, std::vector<int>& heard)
      : sleepy_(sleepy),
        wake_(wake),
        talk_(std::move(talk)),
        steps_(steps),
        heard_(heard) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    const auto v = static_cast<std::size_t>(ctx.id());
    steps_[v].push_back(ctx.round());
    if (ctx.id() == 0) {
      for (const int r : talk_) {
        if (r == ctx.round()) ctx.send(0, one_bit());
      }
      halted_ = ctx.round() >= wake_;
      return;
    }
    for (const Envelope& env : inbox) {
      heard_[v] += 1;
      const int away = env.port == 0 ? 1 : 0;
      if (away < ctx.degree()) ctx.send(away, one_bit());
    }
    halted_ = ctx.round() >= wake_;
    if (sleepy_ && !halted_) ctx.sleep_until(wake_);
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  static Message one_bit() {
    BitWriter w;
    w.write_bool(true);
    return Message::from_writer(std::move(w));
  }

  bool sleepy_;
  int wake_;
  std::vector<int> talk_;
  std::vector<std::vector<int>>& steps_;
  std::vector<int>& heard_;
  bool halted_ = false;
};

struct SleeperRun {
  RunStats stats;
  std::vector<std::vector<int>> steps;
  std::vector<int> heard;
};

SleeperRun run_sleepers(const Graph& g, bool sleepy, int wake,
                        const std::vector<int>& talk, int max_rounds,
                        unsigned threads = 1) {
  SleeperRun out;
  out.steps.resize(static_cast<std::size_t>(g.node_count()));
  out.heard.assign(static_cast<std::size_t>(g.node_count()), 0);
  Network::Options options;
  options.num_threads = threads;
  Network net(g, Model::kCongest, 1, 48, options);
  out.stats = net.run(
      [&](NodeId, const Graph&) {
        return std::make_unique<Sleeper>(sleepy, wake, talk, out.steps,
                                         out.heard);
      },
      max_rounds);
  return out;
}

TEST(Network, SleeperIsSteppedAtItsRoundAndAfterMessages) {
  // Path 0 - 1 - 2: the talker sends at rounds 1 and 2, so node 1 hears
  // at rounds 2 and 3 and node 2 (forwarded) at rounds 3 and 4.
  const Graph g = gen::path(3);
  const SleeperRun run = run_sleepers(g, true, 5, {1, 2}, 100);
  EXPECT_EQ(run.steps[1], (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(run.steps[2], (std::vector<int>{0, 3, 4, 5}));
  EXPECT_EQ(run.steps[0], (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(run.heard, (std::vector<int>{0, 2, 2}));
  EXPECT_TRUE(run.stats.completed);
}

TEST(Network, SleepingKeepsTheRoundsOfTheAwakeRun) {
  // Every node asleep most of the run, the talker quiet after round 1:
  // on path(3) the sleepers alone hold the run open until round 9; on
  // the longer path and the cycle the forwarded message outlives them.
  for (const Graph& g : {gen::path(3), gen::path(40), gen::cycle(9)}) {
    const SleeperRun awake = run_sleepers(g, false, 9, {1}, 100);
    if (g.node_count() == 3) {
      EXPECT_EQ(awake.stats.rounds, 10u);
    }
    for (const unsigned threads : {1u, 4u}) {
      const SleeperRun asleep = run_sleepers(g, true, 9, {1}, 100, threads);
      EXPECT_EQ(asleep.stats.rounds, awake.stats.rounds);
      EXPECT_EQ(asleep.stats.messages, awake.stats.messages);
      EXPECT_EQ(asleep.stats.round_messages, awake.stats.round_messages);
      EXPECT_EQ(asleep.stats.completed, awake.stats.completed);
      EXPECT_EQ(asleep.heard, awake.heard);
      EXPECT_LT(asleep.steps[1].size(), awake.steps[1].size());
    }
  }
}

TEST(Network, SleeperPastTheBudgetLeavesTheRunIncomplete) {
  const Graph g = gen::path(3);
  const SleeperRun asleep = run_sleepers(g, true, 50, {}, 10);
  const SleeperRun awake = run_sleepers(g, false, 50, {}, 10);
  EXPECT_FALSE(asleep.stats.completed);
  EXPECT_EQ(asleep.stats.rounds, 10u);
  EXPECT_EQ(awake.stats.rounds, 10u);
  EXPECT_FALSE(awake.stats.completed);
  EXPECT_EQ(asleep.steps[1], (std::vector<int>{0}));
}

TEST(Network, AsyncExecutorIgnoringTheHintAgrees) {
  const Graph g = gen::path(12);
  const SleeperRun sync = run_sleepers(g, true, 8, {0, 3, 4}, 100);
  std::vector<std::vector<int>> steps(12);
  std::vector<int> heard(12, 0);
  std::vector<int> mates(12, -1);
  const congest::AsyncStats async = congest::run_synchronized(
      g,
      [&](NodeId, const Graph&) {
        return std::make_unique<Sleeper>(true, 8, std::vector<int>{0, 3, 4},
                                         steps, heard);
      },
      mates, 1, 100);
  EXPECT_TRUE(async.completed);
  EXPECT_EQ(heard, sync.heard);
  EXPECT_EQ(async.payload_messages, sync.stats.messages);
  // The synchronizer steps every live node every round.
  for (int r = 0; r <= 8; ++r) {
    EXPECT_EQ(steps[5][static_cast<std::size_t>(r)], r);
  }
  EXPECT_LT(sync.steps[5].size(), steps[5].size());
}

// ------------------------------------------------------------ rebind

void expect_same_stats(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_message_bits, b.max_message_bits);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.round_messages, b.round_messages);
}

/// A Network rebound after Graph::add_edges runs exactly as one built
/// fresh on the grown graph with the same seed: its RNG streams,
/// registers, mailboxes, clocks and totals all start over, and its
/// observer's link profile follows the grown graph.
TEST(Network, RebindAfterGrowthMatchesAFreshNetwork) {
  for (const unsigned threads : {1u, 4u}) {
    Graph g = gen::gnp(300, 4.0 / 300, 41);
    obs::Observer rebound_obs;
    Network::Options opts;
    opts.num_threads = threads;
    opts.observer = &rebound_obs;
    Network net(g, Model::kCongest, 5, 48, opts);
    // Leave state behind: registers, advanced RNG streams, totals,
    // stale mailbox stamps and a bound link profile.
    (void)israeli_itai(net, {});
    (void)net.run(
        [](NodeId, const Graph&) { return std::make_unique<Chatter>(2, 9); },
        10);

    std::vector<Edge> extra;
    for (NodeId v = 0; v < 300; v += 7) {
      const NodeId w = v % 3 == 0 ? 300 + v % 25 : (v * 13 + 5) % 300;
      if (w != v && (w >= 300 || g.find_edge(v, w) == kNoEdge)) {
        extra.push_back({v, w});
      }
    }
    g.add_edges(330, extra);  // ids 325..329 stay isolated
    net.rebind(9);
    EXPECT_EQ(net.lifetime_rounds(), 0u);
    EXPECT_EQ(net.total_stats().rounds, 0u);
    std::vector<int> image;
    net.copy_registers(image);
    EXPECT_EQ(image, std::vector<int>(330, -1));

    obs::Observer fresh_obs;
    opts.observer = &fresh_obs;
    Network fresh(g, Model::kCongest, 9, 48, opts);
    EXPECT_EQ(net.num_shards(), fresh.num_shards());
    EXPECT_EQ(net.message_cap_bits(), fresh.message_cap_bits());

    const IsraeliItaiResult a = israeli_itai(net, {});
    const IsraeliItaiResult b = israeli_itai(fresh, {});
    EXPECT_TRUE(a.matching == b.matching) << "threads " << threads;
    expect_same_stats(a.stats, b.stats);
    std::vector<int> image_b;
    net.copy_registers(image);
    fresh.copy_registers(image_b);
    EXPECT_EQ(image, image_b);
    expect_same_stats(net.total_stats(), fresh.total_stats());
    EXPECT_EQ(net.lifetime_rounds(), fresh.lifetime_rounds());

    // The profile covers the grown graph's run only, as the fresh one's.
    const std::size_t slots = 2 * static_cast<std::size_t>(g.edge_count());
    const auto la = rebound_obs.profiler().top_links(slots);
    const auto lb = fresh_obs.profiler().top_links(slots);
    ASSERT_EQ(la.size(), lb.size());
    ASSERT_FALSE(la.empty());
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].src, lb[i].src);
      EXPECT_EQ(la[i].dst, lb[i].dst);
      EXPECT_EQ(la[i].messages, lb[i].messages);
      EXPECT_EQ(la[i].bits, lb[i].bits);
    }
  }
}

/// The tables are laid out for one node and slot count: a run on a graph
/// grown since fails a precondition instead of indexing past them.
TEST(Network, RunAfterGrowthWithoutRebindFailsItsPrecondition) {
  Graph g = gen::cycle(8);
  Network net(g, Model::kCongest, 1);
  const congest::ProcessFactory chat = [](NodeId, const Graph&) {
    return std::make_unique<Chatter>(2, 3);
  };
  (void)net.run(chat, 10);
  g.add_edges(8, std::vector<Edge>{{0, 4}});  // more slots, same nodes
  EXPECT_THROW((void)net.run(chat, 10), ContractViolation);
  g.add_edges(10, std::vector<Edge>{{8, 9}});  // more nodes too
  EXPECT_THROW((void)net.run(chat, 10), ContractViolation);
  const std::vector<NodeId> some = {0, 1};
  EXPECT_THROW((void)net.run(some, chat, 10), ContractViolation);
  net.rebind(1);
  const RunStats s = net.run(chat, 10);
  EXPECT_TRUE(s.completed);
  EXPECT_EQ(s.messages, 2u * 2u * 10u);  // 2 rounds x 2m directed slots
}

/// Rebinding is for fault-free networks: a crash schedule is sized and
/// drawn for the graph it was built on.
TEST(Network, RebindRequiresAFaultFreeNetwork) {
  const Graph g = gen::cycle(8);
  Network::Options opts;
  opts.fault.drop_prob = 0.1;
  Network net(g, Model::kCongest, 1, 48, opts);
  EXPECT_THROW(net.rebind(2), ContractViolation);
}

TEST(RunStats, MergeAndNormalize) {
  RunStats a;
  a.rounds = 10;
  a.messages = 5;
  a.total_bits = 100;
  a.max_message_bits = 64;
  RunStats b;
  b.rounds = 3;
  b.messages = 2;
  b.total_bits = 10;
  b.max_message_bits = 128;
  b.completed = false;
  a.merge(b);
  EXPECT_EQ(a.rounds, 13u);
  EXPECT_EQ(a.messages, 7u);
  EXPECT_EQ(a.total_bits, 110u);
  EXPECT_EQ(a.max_message_bits, 128u);
  EXPECT_FALSE(a.completed);
  EXPECT_EQ(a.normalized_rounds(128), 13u);
  EXPECT_EQ(a.normalized_rounds(64), 26u);
  EXPECT_EQ(a.normalized_rounds(0), 13u);
}

}  // namespace
}  // namespace dmatch
