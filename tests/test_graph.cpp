#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <set>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace dmatch {
namespace {

bool is_connected(const Graph& g) {
  if (g.node_count() == 0) return true;
  std::vector<char> seen(static_cast<std::size_t>(g.node_count()), false);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = true;
  int count = 1;
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (EdgeId e : g.incident_edges(v)) {
      const NodeId u = g.other_endpoint(e, v);
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = true;
        ++count;
        q.push(u);
      }
    }
  }
  return count == g.node_count();
}

// ------------------------------------------------------------------ graph

TEST(Graph, BuildsAdjacency) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_EQ(g.max_degree(), 2);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(g.degree(v), 2);
}

TEST(Graph, RejectsSelfLoops) {
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), ContractViolation);
}

TEST(Graph, RejectsDuplicateEdges) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), ContractViolation);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 3}}), ContractViolation);
}

TEST(Graph, NormalizesEndpointOrder) {
  const Graph g = Graph::from_edges(3, {{2, 0}});
  EXPECT_EQ(g.edge(0).u, 0);
  EXPECT_EQ(g.edge(0).v, 2);
}

TEST(Graph, PortNumberingIsConsistent) {
  const Graph g = gen::gnp(40, 0.2, 99);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto ports = g.incident_edges(v);
    for (std::size_t p = 0; p < ports.size(); ++p) {
      EXPECT_EQ(g.port_of_edge(v, ports[p]), static_cast<int>(p));
      const NodeId u = g.neighbor(v, static_cast<int>(p));
      EXPECT_EQ(g.other_endpoint(ports[p], v), u);
    }
  }
}

TEST(Graph, FindEdge) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(g.find_edge(0, 1), 0);
  EXPECT_EQ(g.find_edge(1, 0), 0);
  EXPECT_EQ(g.find_edge(3, 2), 1);
  EXPECT_EQ(g.find_edge(0, 2), kNoEdge);
}

TEST(Graph, WeightsAndTotals) {
  const Graph g = Graph::from_edges(3, {{0, 1, 2.5}, {1, 2, 4.0}});
  EXPECT_DOUBLE_EQ(g.total_weight(), 6.5);
  EXPECT_DOUBLE_EQ(g.max_weight(), 4.0);
  EXPECT_DOUBLE_EQ(g.weight(0), 2.5);
}

TEST(Graph, BipartitionOfBipartiteGraph) {
  const Graph g = gen::bipartite_gnp(10, 12, 0.3, 5);
  const auto side = g.bipartition();
  ASSERT_TRUE(side.has_value());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_NE((*side)[static_cast<std::size_t>(g.edge(e).u)],
              (*side)[static_cast<std::size_t>(g.edge(e).v)]);
  }
}

TEST(Graph, BipartitionRejectsOddCycle) {
  EXPECT_FALSE(gen::cycle(5).bipartition().has_value());
  EXPECT_TRUE(gen::cycle(6).bipartition().has_value());
}

TEST(Graph, EdgeSubgraphMapsIdsBack) {
  const Graph g = gen::gnp(20, 0.3, 7);
  std::vector<char> keep(static_cast<std::size_t>(g.edge_count()), false);
  for (EdgeId e = 0; e < g.edge_count(); e += 2) {
    keep[static_cast<std::size_t>(e)] = true;
  }
  const Graph::Subgraph sub = g.edge_subgraph(keep);
  EXPECT_EQ(sub.graph.node_count(), g.node_count());
  ASSERT_EQ(sub.original_edge.size(),
            static_cast<std::size_t>(sub.graph.edge_count()));
  for (EdgeId e = 0; e < sub.graph.edge_count(); ++e) {
    const Edge& a = sub.graph.edge(e);
    const Edge& b = g.edge(sub.original_edge[static_cast<std::size_t>(e)]);
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.v, b.v);
    EXPECT_EQ(a.w, b.w);
  }
}

// -------------------------------------------------------------- add_edges

/// `count` distinct pairs over [0, n) that `g` does not hold, with
/// seeded weights, in both endpoint orders.
std::vector<Edge> fresh_pairs(const Graph& g, NodeId n, int count,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::set<std::pair<NodeId, NodeId>> taken;
  std::vector<Edge> out;
  while (static_cast<int>(out.size()) < count) {
    const auto bound = static_cast<std::uint64_t>(n);
    const auto u = static_cast<NodeId>(rng.uniform(bound));
    const auto v = static_cast<NodeId>(rng.uniform(bound));
    if (u == v) continue;
    const auto key = std::minmax(u, v);
    if (key.second < g.node_count() && g.find_edge(u, v) != kNoEdge) continue;
    if (!taken.insert(key).second) continue;
    out.push_back({u, v, 1.0 + static_cast<Weight>(rng.uniform(9))});
  }
  return out;
}

/// Every observable of the adjacency: ids, endpoints, weights, ports,
/// degrees, max_degree and find_edge on every edge and on non-edges.
void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u) << "edge " << e;
    EXPECT_EQ(a.edge(e).v, b.edge(e).v) << "edge " << e;
    EXPECT_EQ(a.edge(e).w, b.edge(e).w) << "edge " << e;
    for (const NodeId x : {a.edge(e).u, a.edge(e).v}) {
      EXPECT_EQ(a.port_of_edge(x, e), b.port_of_edge(x, e)) << "edge " << e;
    }
    EXPECT_EQ(a.find_edge(a.edge(e).v, a.edge(e).u), e);
    EXPECT_EQ(b.find_edge(a.edge(e).v, a.edge(e).u), e);
  }
  for (NodeId v = 0; v < a.node_count(); ++v) {
    EXPECT_EQ(a.degree(v), b.degree(v)) << "node " << v;
    const auto pa = a.incident_edges(v);
    const auto pb = b.incident_edges(v);
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
        << "node " << v;
    const NodeId w = (v * 7 + 3) % a.node_count();
    if (w != v) {
      EXPECT_EQ(a.find_edge(v, w), b.find_edge(v, w));
    }
  }
}

TEST(Graph, AddEdgesMatchesFromEdgesOfTheConcatenation) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const NodeId n0 = 40 + static_cast<NodeId>(seed) * 7;
    Graph g = gen::with_uniform_weights(gen::gnp(n0, 4.0 / n0, seed), 1, 9,
                                        seed + 100);
    std::vector<Edge> all;
    for (EdgeId e = 0; e < g.edge_count(); ++e) all.push_back(g.edge(e));
    // Three appends: one that grows n, one that does not, and one that
    // grows n by ids no edge names (isolated new nodes).
    const NodeId sizes[] = {n0 + 5, n0 + 5, n0 + 9};
    const int counts[] = {12, 20, 3};
    for (int round = 0; round < 3; ++round) {
      const NodeId n = sizes[round];
      const NodeId reach = round == 2 ? n - 3 : n;
      const std::vector<Edge> extra =
          fresh_pairs(g, reach, counts[round], seed * 10 + round);
      g.add_edges(n, extra);
      all.insert(all.end(), extra.begin(), extra.end());
      expect_same_graph(g, Graph::from_edges(n, all));
    }
  }
}

TEST(Graph, AddEdgesKeepsOldPortsAndAppendsNewOnes) {
  Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  g.add_edges(6, std::vector<Edge>{{5, 1}, {0, 4}, {1, 3}});
  EXPECT_EQ(g.node_count(), 6);
  EXPECT_EQ(g.edge_count(), 6);
  EXPECT_EQ(g.max_degree(), 4);  // node 1: 0-1, 1-2, then 1-5, 1-3
  const auto ports = g.incident_edges(1);
  ASSERT_EQ(ports.size(), 4u);
  EXPECT_EQ(ports[0], 0);
  EXPECT_EQ(ports[1], 1);
  EXPECT_EQ(ports[2], 3);
  EXPECT_EQ(ports[3], 5);
  EXPECT_EQ(g.edge(3).u, 1);  // normalized u < v
  EXPECT_EQ(g.edge(3).v, 5);
  EXPECT_EQ(g.port_of_edge(5, 3), 0);
  EXPECT_EQ(g.find_edge(4, 0), 4);
  g.add_edges(6, {});  // a no-op append
  EXPECT_EQ(g.edge_count(), 6);
}

TEST(Graph, AddEdgesRejectsBadInputAndLeavesTheGraphAlone) {
  Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}});
  const auto rejects = [&](NodeId n, std::vector<Edge> extra) {
    EXPECT_THROW(g.add_edges(n, extra), ContractViolation);
    EXPECT_EQ(g.node_count(), 4);
    EXPECT_EQ(g.edge_count(), 2);
  };
  rejects(4, {{0, 4}});           // endpoint outside [0, n)
  rejects(5, {{-1, 2}});          // negative endpoint
  rejects(4, {{3, 3}});           // self-loop
  rejects(4, {{2, 1}});           // pair already present
  rejects(5, {{0, 3}, {3, 0}});   // pair twice in extra
  rejects(5, {{4, 3}, {4, 3}});   // ... also on a new id
  rejects(3, {});                 // n below the node count
  expect_same_graph(g, Graph::from_edges(4, {{0, 1}, {1, 2}}));
}

// ------------------------------------------------------------- generators

TEST(Generators, GnpEdgeCountNearExpectation) {
  const NodeId n = 200;
  const double p = 0.1;
  const Graph g = gen::gnp(n, p, 123);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(g.edge_count(), expected, 4 * std::sqrt(expected));
}

TEST(Generators, GnpExtremes) {
  EXPECT_EQ(gen::gnp(10, 0.0, 1).edge_count(), 0);
  EXPECT_EQ(gen::gnp(10, 1.0, 1).edge_count(), 45);
  EXPECT_EQ(gen::gnp(0, 0.5, 1).node_count(), 0);
  EXPECT_EQ(gen::gnp(1, 1.0, 1).edge_count(), 0);
}

TEST(Generators, GnpDeterministicPerSeed) {
  const Graph a = gen::gnp(50, 0.2, 9);
  const Graph b = gen::gnp(50, 0.2, 9);
  const Graph c = gen::gnp(50, 0.2, 10);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
  }
  EXPECT_NE(a.edge_count(), c.edge_count());  // overwhelmingly likely
}

TEST(Generators, BipartiteGnpIsBipartite) {
  const Graph g = gen::bipartite_gnp(30, 40, 0.15, 2);
  EXPECT_EQ(g.node_count(), 70);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_LT(g.edge(e).u, 30);
    EXPECT_GE(g.edge(e).v, 30);
  }
  const double expected = 0.15 * 30 * 40;
  EXPECT_NEAR(g.edge_count(), expected, 4 * std::sqrt(expected));
}

TEST(Generators, CycleAndPath) {
  const Graph c = gen::cycle(8);
  EXPECT_EQ(c.edge_count(), 8);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(c.degree(v), 2);
  const Graph p = gen::path(5);
  EXPECT_EQ(p.edge_count(), 4);
  EXPECT_EQ(p.degree(0), 1);
  EXPECT_EQ(p.degree(2), 2);
}

TEST(Generators, Grid) {
  const Graph g = gen::grid(3, 4);
  EXPECT_EQ(g.node_count(), 12);
  EXPECT_EQ(g.edge_count(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_TRUE(g.bipartition().has_value());
}

TEST(Generators, CompleteGraphs) {
  EXPECT_EQ(gen::complete(6).edge_count(), 15);
  const Graph kb = gen::complete_bipartite(3, 4);
  EXPECT_EQ(kb.edge_count(), 12);
  EXPECT_TRUE(kb.bipartition().has_value());
}

TEST(Generators, RandomTreeIsTree) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph t = gen::random_tree(30, seed);
    EXPECT_EQ(t.edge_count(), 29);
    EXPECT_TRUE(is_connected(t));
    EXPECT_TRUE(t.bipartition().has_value());
  }
}

TEST(Generators, NearRegularDegreeBounds) {
  const Graph g = gen::near_regular(60, 4, 3);
  int total_degree = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_LE(g.degree(v), 4);
    total_degree += g.degree(v);
  }
  // The configuration model drops only loops/duplicates: most stubs pair.
  EXPECT_GT(total_degree, 60 * 4 * 3 / 4);
}

TEST(Generators, BarabasiAlbertShape) {
  const Graph g = gen::barabasi_albert(100, 2, 4);
  EXPECT_EQ(g.node_count(), 100);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(g.max_degree(), 5);  // hubs emerge
}

TEST(Generators, UniformWeightsInRange) {
  const Graph g =
      gen::with_uniform_weights(gen::gnp(40, 0.2, 5), 2.0, 9.0, 77);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_GE(g.weight(e), 2.0);
    EXPECT_LE(g.weight(e), 9.0);
  }
}

TEST(Generators, ExponentialWeightsRatio) {
  const Graph g =
      gen::with_exponential_weights(gen::gnp(60, 0.3, 6), 1000.0, 78);
  double lo = 1e18;
  double hi = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    lo = std::min(lo, g.weight(e));
    hi = std::max(hi, g.weight(e));
  }
  EXPECT_GE(lo, 1.0);
  EXPECT_LE(hi, 1000.0);
  EXPECT_GT(hi / lo, 10.0);  // genuinely heavy-tailed
}

TEST(Generators, WeightLayersPreserveTopology) {
  const Graph base = gen::gnp(30, 0.2, 8);
  const Graph weighted = gen::with_uniform_weights(base, 1.0, 5.0, 9);
  ASSERT_EQ(weighted.edge_count(), base.edge_count());
  for (EdgeId e = 0; e < base.edge_count(); ++e) {
    EXPECT_EQ(weighted.edge(e).u, base.edge(e).u);
    EXPECT_EQ(weighted.edge(e).v, base.edge(e).v);
  }
}

}  // namespace
}  // namespace dmatch
