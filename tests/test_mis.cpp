#include <gtest/gtest.h>

#include <tuple>

#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "mis/luby.hpp"

namespace dmatch {
namespace {

std::vector<std::vector<int>> adjacency(const Graph& g) {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(g.node_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    adj[static_cast<std::size_t>(g.edge(e).u)].push_back(g.edge(e).v);
    adj[static_cast<std::size_t>(g.edge(e).v)].push_back(g.edge(e).u);
  }
  return adj;
}

class DistributedMisParam
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(DistributedMisParam, ProducesMaximalIndependentSet) {
  const auto [n, p, seed] = GetParam();
  const Graph g = gen::gnp(n, p, static_cast<std::uint64_t>(seed));
  congest::Network net(g, congest::Model::kCongest,
                       static_cast<std::uint64_t>(seed) + 1000);
  const MisResult result = luby_mis_distributed(net);
  EXPECT_TRUE(result.stats.completed);
  EXPECT_TRUE(is_maximal_independent_set(adjacency(g), result.in_mis));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedMisParam,
    ::testing::Combine(::testing::Values(10, 50, 200),
                       ::testing::Values(0.05, 0.2, 0.6),
                       ::testing::Values(1, 2, 3)));

TEST(DistributedMis, HandlesStructuredTopologies) {
  for (const Graph& g : {gen::cycle(31), gen::path(17), gen::grid(6, 7),
                         gen::complete(12), gen::random_tree(40, 3)}) {
    congest::Network net(g, congest::Model::kCongest, 99);
    const MisResult result = luby_mis_distributed(net);
    EXPECT_TRUE(is_maximal_independent_set(adjacency(g), result.in_mis));
  }
}

TEST(DistributedMis, IsolatedNodesAlwaysJoin) {
  const Graph g = Graph::from_edges(5, {{0, 1}});
  congest::Network net(g, congest::Model::kCongest, 4);
  const MisResult result = luby_mis_distributed(net);
  EXPECT_EQ(result.in_mis[2], 1);
  EXPECT_EQ(result.in_mis[3], 1);
  EXPECT_EQ(result.in_mis[4], 1);
  EXPECT_EQ(result.in_mis[0] + result.in_mis[1], 1);
}

TEST(DistributedMis, CompleteGraphSelectsExactlyOne) {
  const Graph g = gen::complete(20);
  congest::Network net(g, congest::Model::kCongest, 5);
  const MisResult result = luby_mis_distributed(net);
  int count = 0;
  for (auto f : result.in_mis) count += f;
  EXPECT_EQ(count, 1);
}

TEST(DistributedMis, RoundsAreLogarithmicInPractice) {
  const Graph g = gen::gnp(400, 0.05, 8);
  congest::Network net(g, congest::Model::kCongest, 8);
  const MisResult result = luby_mis_distributed(net);
  EXPECT_TRUE(is_maximal_independent_set(adjacency(g), result.in_mis));
  // Luby terminates in O(log n) iterations w.h.p.; each takes 2 rounds.
  // 9 = log2(400); allow a generous constant.
  EXPECT_LT(result.stats.rounds, 10 * 9u);
}

TEST(DistributedMis, MessagesRespectCongestCap) {
  const Graph g = gen::gnp(100, 0.1, 9);
  congest::Network net(g, congest::Model::kCongest, 9, 16);
  const MisResult result = luby_mis_distributed(net);
  EXPECT_LE(result.stats.max_message_bits, net.message_cap_bits());
}

TEST(MisChecker, RejectsBadSets) {
  const Graph g = gen::path(3);  // 0-1-2
  const auto adj = adjacency(g);
  EXPECT_FALSE(is_maximal_independent_set(adj, {1, 1, 0}));  // dependent
  EXPECT_FALSE(is_maximal_independent_set(adj, {0, 0, 0}));  // not maximal
  EXPECT_FALSE(is_maximal_independent_set(adj, {1, 0, 0}));  // 2 uncovered
  EXPECT_TRUE(is_maximal_independent_set(adj, {0, 1, 0}));
  EXPECT_TRUE(is_maximal_independent_set(adj, {1, 0, 1}));
}

}  // namespace
}  // namespace dmatch
