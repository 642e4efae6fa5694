#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/seq_matching.hpp"
#include "support/assert.hpp"

namespace dmatch {
namespace {

TEST(GraphIo, RoundTripPreservesEverything) {
  const Graph g = gen::with_uniform_weights(gen::gnp(30, 0.2, 4), 0.5, 9.5, 5);
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph back = read_edge_list(ss);
  ASSERT_EQ(back.node_count(), g.node_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(back.edge(e).u, g.edge(e).u);
    EXPECT_EQ(back.edge(e).v, g.edge(e).v);
    EXPECT_DOUBLE_EQ(back.edge(e).w, g.edge(e).w);
  }
}

TEST(GraphIo, ParsesCommentsAndDefaultWeights) {
  std::stringstream ss(
      "c a comment\n"
      "# another comment style\n"
      "p edge 3 2\n"
      "e 0 1\n"
      "\n"
      "e 1 2 4.5\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_DOUBLE_EQ(g.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(g.weight(1), 4.5);
}

/// Every rejection is a ContractViolation whose message names the input
/// line ("edge-list line N: ...", or says the header is missing) and
/// holds what is wrong, never a source location.
TEST(GraphIo, RejectsMalformedInput) {
  struct Case {
    const char* input;
    const char* names;  // the line, or the missing header
    const char* says;   // what is wrong
  };
  const Case cases[] = {
      {"", "no 'p edge <n> <m>' header", "0 lines read"},
      {"c only a comment\n", "no 'p edge <n> <m>' header", "1 lines read"},
      {"e 0 1\n", "edge-list line 1:", "edge before the"},
      {"p edge 3 2\ne 0 1\n", "edge-list line 1:", "declares 2 edges"},
      {"c\np edge 3 0\ne 0 1\n", "edge-list line 2:", "declares 0 edges"},
      {"p edge 2 1\ne 0 5\n", "edge-list line 2:", "endpoint 5"},
      {"p edge 4 2\ne 0 1\ne 2 9\n", "edge-list line 3:", "endpoint 9"},
      {"p edge 4 1\ne -1 2\n", "edge-list line 2:", "endpoint -1"},
      {"p edge 3 1\ne 0 x\n", "edge-list line 2:", "malformed edge"},
      {"p edge 3 1\ne 1 1\n", "edge-list line 2:", "self-loop on node 1"},
      {"p edge 3 2\ne 0 1\ne 1 0\n", "edge-list line 3:",
       "duplicate edge 0 1 (first on line 2)"},
      {"p edge 3 1\ne 0 1 0\n", "edge-list line 2:", "weight"},
      {"p edge 3 1\ne 0 1 -2.5\n", "edge-list line 2:", "weight"},
      {"q edge 2 1\n", "edge-list line 1:", "unknown directive 'q'"},
      {"p edge 3\n", "edge-list line 1:", "malformed header"},
      {"p graph 3 1\n", "edge-list line 1:", "header kind 'graph'"},
      {"p edge -3 1\n", "edge-list line 1:", "negative"},
      // Header edge count far beyond the input: rejected, never reserved.
      {"p edge 1 2147483647\n", "edge-list line 1:", "declares 2147483647"},
      {"p edge 2 1\np edge 2 1\ne 0 1\n", "edge-list line 2:",
       "second header (the first is on line 1)"},
  };
  for (const Case& c : cases) {
    std::stringstream ss(c.input);
    try {
      (void)read_edge_list(ss);
      ADD_FAILURE() << "accepted: " << c.input;
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.names), std::string::npos) << what;
      EXPECT_NE(what.find(c.says), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
      EXPECT_EQ(what.find(".hpp"), std::string::npos) << what;
    }
  }
}

TEST(GraphIo, DotExportMarksMatchedEdges) {
  const Graph g = gen::path(3);
  Matching m(3);
  m.add(g, 0);
  const std::string dot = to_dot(g, &m);
  EXPECT_NE(dot.find("graph dmatch"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  // Only one edge is matched.
  EXPECT_EQ(dot.find("color=red"), dot.rfind("color=red"));
}

TEST(GraphIo, DotExportWithoutMatching) {
  const Graph g = gen::cycle(4);
  const std::string dot = to_dot(g);
  EXPECT_EQ(dot.find("color=red"), std::string::npos);
}

TEST(GraphIo, EmptyGraph) {
  std::stringstream ss("p edge 4 0\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 0);
  std::stringstream out;
  write_edge_list(out, g);
  const Graph back = read_edge_list(out);
  EXPECT_EQ(back.node_count(), 4);
}

}  // namespace
}  // namespace dmatch
