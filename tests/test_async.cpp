// The alpha synchronizer must make any synchronous protocol produce the
// *identical* result over an asynchronous network (footnote 2 of the
// paper). These tests run the real protocols both ways and compare.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "congest/async.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "mis/luby.hpp"
#include "support/wire.hpp"

namespace dmatch {
namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Model;
using congest::Network;
using congest::Process;

TEST(AlphaSynchronizer, IsraeliItaiMatchesSynchronousRun) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = gen::gnp(40, 0.1, seed);

    Network sync_net(g, Model::kCongest, seed + 7);
    const IsraeliItaiResult sync_result = israeli_itai(sync_net);

    const auto async_result = congest::run_synchronized(
        g, israeli_itai_factory(), seed + 7, 1 << 14);
    EXPECT_TRUE(async_result.stats.completed) << "seed " << seed;
    EXPECT_TRUE(async_result.matching == sync_result.matching)
        << "seed " << seed;
  }
}

TEST(AlphaSynchronizer, LubyMisMatchesSynchronousRun) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = gen::gnp(50, 0.15, seed + 10);

    Network sync_net(g, Model::kCongest, seed + 3);
    const MisResult sync_result = luby_mis_distributed(sync_net);

    std::vector<std::uint8_t> async_mis(
        static_cast<std::size_t>(g.node_count()), 0);
    const auto stats = [&] {
      std::vector<int> mates(static_cast<std::size_t>(g.node_count()), -1);
      return congest::run_synchronized(g, luby_mis_factory(async_mis), mates,
                                       seed + 3, 1 << 14);
    }();
    EXPECT_TRUE(stats.completed) << "seed " << seed;
    EXPECT_EQ(async_mis, sync_result.in_mis) << "seed " << seed;
  }
}

TEST(AlphaSynchronizer, AugmentIterationMatchesSynchronousRun) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = gen::bipartite_gnp(15, 15, 0.25, seed + 20);
    const auto side = *g.bipartition();

    Network sync_net(g, Model::kCongest, seed + 5);
    run_augment_iteration(sync_net, side, 1);
    run_augment_iteration(sync_net, side, 3);
    const Matching sync_matching = sync_net.extract_matching();

    // Async: chain the two iterations over the same registers.
    std::vector<int> mates(static_cast<std::size_t>(g.node_count()), -1);
    // The synchronous network forks per-node RNGs once and each protocol
    // continues the stream; replicate by running both protocols through
    // one synchronizer run is not possible (fresh processes), so compare
    // against a fresh sync network per iteration instead.
    Network sync_one(g, Model::kCongest, seed + 6);
    run_augment_iteration(sync_one, side, 1);
    const Matching sync_after_one = sync_one.extract_matching();

    congest::run_synchronized(g, augment_iteration_factory(side, 1), mates,
                              seed + 6, 64);
    Matching async_after_one(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const int port = mates[static_cast<std::size_t>(v)];
      if (port < 0) continue;
      const EdgeId e = g.incident_edges(v)[static_cast<std::size_t>(port)];
      if (g.edge(e).u == v) async_after_one.add(g, e);
    }
    EXPECT_TRUE(async_after_one == sync_after_one) << "seed " << seed;
    (void)sync_matching;
  }
}

TEST(AlphaSynchronizer, ReportsOverheadAndRounds) {
  const Graph g = gen::gnp(30, 0.15, 99);
  const auto result =
      congest::run_synchronized(g, israeli_itai_factory(), 4, 1 << 14);
  EXPECT_TRUE(result.stats.completed);
  EXPECT_GT(result.stats.virtual_rounds, 0u);
  EXPECT_GT(result.stats.control_messages, result.stats.payload_messages);
  EXPECT_GT(result.stats.completion_time, 0.0);
  EXPECT_TRUE(result.matching.is_valid(g));
  EXPECT_TRUE(result.matching.is_maximal(g));
}

TEST(AlphaSynchronizer, DeterministicUnderSeed) {
  const Graph g = gen::gnp(25, 0.2, 5);
  const auto a = congest::run_synchronized(g, israeli_itai_factory(), 11,
                                           1 << 14);
  const auto b = congest::run_synchronized(g, israeli_itai_factory(), 11,
                                           1 << 14);
  EXPECT_TRUE(a.matching == b.matching);
  EXPECT_EQ(a.stats.events, b.stats.events);
}

TEST(AlphaSynchronizer, DelayDistributionDoesNotChangeTheResult) {
  // Same protocol seed, different delay regimes: the synchronizer hides
  // asynchrony entirely, so results agree with each other.
  const Graph g = gen::gnp(25, 0.2, 6);
  std::vector<int> mates_fast(static_cast<std::size_t>(g.node_count()), -1);
  std::vector<int> mates_slow(static_cast<std::size_t>(g.node_count()), -1);
  congest::AsyncOptions fast;
  fast.min_delay = 0.01;
  fast.max_delay = 0.02;
  congest::AsyncOptions slow;
  slow.min_delay = 0.5;
  slow.max_delay = 40.0;
  congest::run_synchronized(g, israeli_itai_factory(), mates_fast, 12, 1 << 14,
                            fast);
  congest::run_synchronized(g, israeli_itai_factory(), mates_slow, 12, 1 << 14,
                            slow);
  EXPECT_EQ(mates_fast, mates_slow);
}

TEST(AlphaSynchronizer, RoundBudgetTruncationIsReported) {
  // A tiny virtual-round budget cannot complete Israeli-Itai on a graph
  // that needs several iterations; the run must report incomplete (the
  // protocol never quiesces) rather than pretend success.
  const Graph g = gen::complete(12);
  std::vector<int> mates(static_cast<std::size_t>(g.node_count()), -1);
  const auto stats =
      congest::run_synchronized(g, israeli_itai_factory(), mates, 5, 1);
  EXPECT_LE(stats.virtual_rounds, 1u);
  EXPECT_FALSE(stats.completed);
}

TEST(AlphaSynchronizer, HandlesIsolatedNodes) {
  const Graph g = Graph::from_edges(5, {{0, 1}});
  const auto result =
      congest::run_synchronized(g, israeli_itai_factory(), 3, 1 << 10);
  EXPECT_TRUE(result.stats.completed);
  EXPECT_EQ(result.matching.size(), 1u);
}

TEST(AsyncParallel, ContractViolationPropagatesFromShard) {
  // Sending twice on one port in the same virtual round violates the
  // CONGEST delivery contract (and would break the canonical event key);
  // it must surface as a ContractViolation.
  class DoubleSender final : public Process {
   public:
    void on_round(Context& ctx, std::span<const Envelope>) override {
      BitWriter w;
      w.write(1, 1);
      ctx.send(0, Message::from_writer(std::move(w)));
      BitWriter w2;
      w2.write(1, 1);
      ctx.send(0, Message::from_writer(std::move(w2)));
      halted_ = true;
    }
    [[nodiscard]] bool halted() const override { return halted_; }

   private:
    bool halted_ = false;
  };
  const Graph g = gen::cycle(16);
  std::vector<int> mates(static_cast<std::size_t>(g.node_count()), -1);
  EXPECT_THROW(congest::run_synchronized(
                   g,
                   [](NodeId, const Graph&) -> std::unique_ptr<Process> {
                     return std::make_unique<DoubleSender>();
                   },
                   mates, 1, 8),
               ContractViolation);
}

TEST(AsyncParallel, AgreesWithRoundEngineForAnyThreadPairing) {
  // The same protocol through the round engine at several thread counts
  // and through the async executor: one matching.
  const Graph g = gen::gnp(100, 0.06, 17);
  const auto async_res =
      congest::run_synchronized(g, israeli_itai_factory(), 23, 1 << 14);
  for (const unsigned threads : {1u, 2u, 8u}) {
    Network net(g, Model::kCongest, 23, 48, Network::Options{threads});
    const IsraeliItaiResult engine = israeli_itai(net);
    EXPECT_TRUE(engine.matching == async_res.matching)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dmatch
