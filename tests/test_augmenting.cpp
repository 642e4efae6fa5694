#include <gtest/gtest.h>

#include "graph/augmenting.hpp"
#include "graph/generators.hpp"
#include "graph/hopcroft_karp.hpp"
#include "graph/matching.hpp"
#include "graph/seq_matching.hpp"

namespace dmatch {
namespace {

TEST(Augmenting, SingleEdgeGraph) {
  const Graph g = gen::path(2);
  const Matching empty(2);
  const auto paths = enumerate_augmenting_paths(g, empty, 3);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<EdgeId>{0}));
}

TEST(Augmenting, LengthThreePath) {
  // 0-1-2-3 with 1-2 matched: one augmenting path of length 3, none of 1.
  const Graph g = gen::path(4);
  Matching m(4);
  m.add(g, 1);
  EXPECT_TRUE(enumerate_augmenting_paths(g, m, 1).empty());
  const auto paths = enumerate_augmenting_paths(g, m, 3);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<EdgeId>{0, 1, 2}));
}

TEST(Augmenting, ReportsEachPathOnce) {
  // Empty matching on a triangle: three length-1 augmenting paths.
  const Graph g = gen::cycle(3);
  const Matching m(3);
  EXPECT_EQ(enumerate_augmenting_paths(g, m, 1).size(), 3u);
}

TEST(Augmenting, MaxCountTruncates) {
  const Graph g = gen::complete_bipartite(5, 5);
  const Matching m(10);
  EXPECT_EQ(enumerate_augmenting_paths(g, m, 1, 3).size(), 3u);
}

TEST(Augmenting, NoPathsOnPerfectMatching) {
  const Graph g = gen::cycle(6);
  const Matching m = Matching::from_edge_ids(g, std::vector<EdgeId>{0, 2, 4});
  EXPECT_TRUE(enumerate_augmenting_paths(g, m, 11).empty());
  EXPECT_FALSE(shortest_augmenting_path_length(g, m, 11).has_value());
}

TEST(Augmenting, ShortestLengthIsCorrect) {
  const Graph g = gen::path(6);  // 0-1-2-3-4-5
  Matching m(6);
  m.add(g, 1);  // 1-2
  m.add(g, 3);  // 3-4
  // Augmenting path: 0-1-2-3-4-5 (length 5).
  const auto len = shortest_augmenting_path_length(g, m, 9);
  ASSERT_TRUE(len.has_value());
  EXPECT_EQ(*len, 5);
}

TEST(Augmenting, PathsAreAlternatingAndSimple) {
  const Graph g = gen::gnp(24, 0.2, 11);
  const Matching m = greedy_mwm(g);
  for (const auto& path : enumerate_augmenting_paths(g, m, 5)) {
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.size() % 2, 1u);
    for (std::size_t i = 0; i < path.size(); ++i) {
      EXPECT_EQ(m.contains(g, path[i]), i % 2 == 1) << "alternation broken";
    }
    // Endpoints free.
    const Edge& first = g.edge(path.front());
    const Edge& last = g.edge(path.back());
    const bool first_free = m.is_free(first.u) || m.is_free(first.v);
    const bool last_free = m.is_free(last.u) || m.is_free(last.v);
    EXPECT_TRUE(first_free);
    EXPECT_TRUE(last_free);
  }
}

TEST(Augmenting, AugmentingAlongReportedPathGrowsMatching) {
  const Graph g = gen::gnp(20, 0.25, 13);
  Matching m = greedy_mwm(g);
  for (int guard = 0; guard < 20; ++guard) {
    const auto paths = enumerate_augmenting_paths(g, m, 7, 1);
    if (paths.empty()) break;
    const std::size_t before = m.size();
    m.augment(g, paths[0]);
    EXPECT_TRUE(m.is_valid(g));
    EXPECT_EQ(m.size(), before + 1);
  }
}

TEST(Augmenting, BipartiteOracleAgreesWithGeneralOracle) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = gen::bipartite_gnp(10, 10, 0.2, seed);
    const auto side = g.bipartition();
    ASSERT_TRUE(side.has_value());
    Matching m = greedy_mwm(g);
    const auto fast = bipartite_shortest_augmenting_path_length(g, *side, m);
    const auto slow = shortest_augmenting_path_length(g, m, 19);
    if (fast.has_value() && *fast <= 19) {
      ASSERT_TRUE(slow.has_value()) << "seed " << seed;
      EXPECT_EQ(*fast, *slow) << "seed " << seed;
    } else {
      EXPECT_FALSE(slow.has_value()) << "seed " << seed;
    }
  }
}

TEST(Augmenting, BipartiteOracleOnSaturatedSide) {
  const Graph g = gen::complete_bipartite(3, 3);
  const Matching m = hopcroft_karp(g);
  EXPECT_EQ(m.size(), 3u);
  const auto side = g.bipartition();
  EXPECT_FALSE(
      bipartite_shortest_augmenting_path_length(g, *side, m).has_value());
}

TEST(Augmenting, GreedyDisjointPathsAreDisjointAndMaximal) {
  const Graph g = gen::bipartite_gnp(15, 15, 0.3, 3);
  const Matching m(30);
  const auto all = enumerate_augmenting_paths(g, m, 1);
  const auto chosen = greedy_disjoint_paths(g, all);
  std::vector<char> used(static_cast<std::size_t>(g.node_count()), false);
  for (const auto& p : chosen) {
    for (EdgeId e : p) {
      const Edge& ed = g.edge(e);
      EXPECT_FALSE(used[static_cast<std::size_t>(ed.u)]);
      EXPECT_FALSE(used[static_cast<std::size_t>(ed.v)]);
      used[static_cast<std::size_t>(ed.u)] = true;
      used[static_cast<std::size_t>(ed.v)] = true;
    }
  }
  // Maximality: every candidate intersects a chosen one.
  for (const auto& p : all) {
    bool hits = false;
    for (EdgeId e : p) {
      const Edge& ed = g.edge(e);
      hits = hits || used[static_cast<std::size_t>(ed.u)] ||
             used[static_cast<std::size_t>(ed.v)];
    }
    EXPECT_TRUE(hits);
  }
}

// Flip after flip from an empty matching: the whole-graph loop
// `enumerate_augmenting_paths(g, m, L, 1)` + augment, against the seeded
// search seeded with every node and then with each flipped path's nodes.
void expect_seeded_flips_equal_global(const Graph& g, int len) {
  std::vector<NodeId> every(static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    every[static_cast<std::size_t>(v)] = v;
  }
  Matching global(g.node_count());
  std::vector<std::vector<EdgeId>> global_flips;
  for (;;) {
    const auto paths = enumerate_augmenting_paths(g, global, len, 1);
    if (paths.empty()) break;
    global.augment(g, paths.front());
    global_flips.push_back(paths.front());
  }
  Matching seeded(g.node_count());
  std::vector<std::vector<EdgeId>> seeded_flips;
  SeededPathSearch search;
  search.begin(g, seeded, len);
  search.seed(every);
  while (const auto path = search.next()) {
    seeded.augment(g, *path);
    seeded_flips.push_back(*path);
    std::vector<NodeId> nodes;
    for (const EdgeId e : *path) {
      nodes.push_back(g.edge(e).u);
      nodes.push_back(g.edge(e).v);
    }
    search.seed(nodes);
  }
  EXPECT_EQ(seeded_flips, global_flips) << "len " << len;
  EXPECT_TRUE(seeded == global);
}

// The seeded search is the global scan, reorganized: seeded with every
// node it finds, flip after flip, exactly the paths the whole-graph loop
// finds, and the start-list overload over every node returns the full
// enumeration. The small graphs include cases where a flip gives a node
// that was already searched (and had no path) a new one, which only the
// re-seeding after each flip catches.
TEST(Augmenting, SeededSearchFromEveryNodeIsTheGlobalScan) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = gen::gnp(120, 0.04, seed);
    for (const int len : {1, 3, 5}) {
      std::vector<NodeId> every(static_cast<std::size_t>(g.node_count()));
      for (NodeId v = 0; v < g.node_count(); ++v) {
        every[static_cast<std::size_t>(v)] = v;
      }
      const Matching empty(g.node_count());
      EXPECT_EQ(enumerate_augmenting_paths(g, empty, len, every),
                enumerate_augmenting_paths(g, empty, len));
      expect_seeded_flips_equal_global(g, len);
    }
  }
  for (std::uint64_t seed = 1; seed <= 10000; ++seed) {
    const Graph g = gen::gnp(static_cast<NodeId>(10 + seed % 20),
                             0.1 + static_cast<double>(seed % 7) * 0.05, seed);
    expect_seeded_flips_equal_global(g, seed % 2 == 0 ? 5 : 7);
  }
}

// In a matching with no augmenting path of length <= L, a planted change
// (a dropped pair, or a newly kept edge) creates paths only through its
// own nodes: seeded with just those, the search returns the global
// scan's first path.
TEST(Augmenting, SeededSearchFromAPlantedChangeFindsTheGlobalFirstPath) {
  int planted = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = gen::gnp(150, 0.03, 40 + seed);
    const int len = seed % 2 == 0 ? 3 : 5;
    // Every edge but a few held back: the held-back edges are the
    // planted inserts.
    std::vector<char> kept(static_cast<std::size_t>(g.edge_count()), 1);
    for (EdgeId e = 0; e < g.edge_count(); e += 11) {
      kept[static_cast<std::size_t>(e)] = 0;
    }
    const EdgeFilter keep = [&kept](EdgeId e) {
      return kept[static_cast<std::size_t>(e)] != 0;
    };
    std::vector<NodeId> every(static_cast<std::size_t>(g.node_count()));
    for (NodeId v = 0; v < g.node_count(); ++v) {
      every[static_cast<std::size_t>(v)] = v;
    }
    const auto global_first = [&](const Matching& m) {
      return enumerate_augmenting_paths(g, m, len, every, 1, keep);
    };
    // A path-free matching under the filter.
    Matching m(g.node_count());
    for (auto p = global_first(m); !p.empty(); p = global_first(m)) {
      m.augment(g, p.front());
    }
    ASSERT_TRUE(global_first(m).empty());

    SeededPathSearch search;
    // Planted pair drops: both endpoints become free.
    for (NodeId v = 0; v < g.node_count(); v += 13) {
      if (!m.is_matched(v)) continue;
      Matching changed = m;
      const EdgeId e = changed.matched_edge(v);
      const std::vector<NodeId> seeds{g.edge(e).u, g.edge(e).v};
      changed.remove(g, e);
      const auto expect = global_first(changed);
      search.begin(g, changed, len, keep);
      search.seed(seeds);
      const auto got = search.next();
      ASSERT_EQ(got.has_value(), !expect.empty());
      if (got) {
        EXPECT_EQ(*got, expect.front());
      }
      ++planted;
    }
    // Planted inserts: one held-back edge becomes kept.
    for (EdgeId e = 0; e < g.edge_count(); e += 11) {
      kept[static_cast<std::size_t>(e)] = 1;
      const std::vector<NodeId> seeds{g.edge(e).u, g.edge(e).v};
      const auto expect = global_first(m);
      search.begin(g, m, len, keep);
      search.seed(seeds);
      const auto got = search.next();
      ASSERT_EQ(got.has_value(), !expect.empty());
      if (got) {
        EXPECT_EQ(*got, expect.front());
      }
      kept[static_cast<std::size_t>(e)] = 0;
      ++planted;
    }
  }
  EXPECT_GT(planted, 40);
}

}  // namespace
}  // namespace dmatch
