#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/seq_matching.hpp"

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

TEST(GraphIo, RejectsMalformedInput) {
  {
    std::stringstream ss("e 0 1\n");  // edge before header
    EXPECT_THROW(read_edge_list(ss), ContractViolation);
  }
  {
    std::stringstream ss("p edge 3 2\ne 0 1\n");  // wrong edge count
    EXPECT_THROW(read_edge_list(ss), ContractViolation);
  }
  {
    std::stringstream ss("p edge 2 1\ne 0 5\n");  // out of range endpoint
    EXPECT_THROW(read_edge_list(ss), ContractViolation);
  }
  {
    // Rejected by the reader, naming the line, before a Graph is built.
    std::stringstream ss("p edge 4 2\ne 0 1\ne 2 9\n");
    try {
      (void)read_edge_list(ss);
      ADD_FAILURE() << "endpoint 9 of a 4-node graph accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("endpoint 9"), std::string::npos)
          << e.what();
    }
  }
  {
    std::stringstream ss("p edge 4 1\ne -1 2\n");  // negative endpoint
    EXPECT_THROW(read_edge_list(ss), ContractViolation);
  }
  {
    std::stringstream ss("q edge 2 1\n");  // unknown directive
    EXPECT_THROW(read_edge_list(ss), ContractViolation);
  }
  {
    // Header edge count far beyond the input: rejected, never reserved.
    std::stringstream ss("p edge 1 2147483647\n");
    EXPECT_THROW(read_edge_list(ss), ContractViolation);
  }
  {
    std::stringstream ss("p edge 2 1\np edge 2 1\ne 0 1\n");  // two headers
    EXPECT_THROW(read_edge_list(ss), ContractViolation);
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
