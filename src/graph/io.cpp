#include "graph/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "support/assert.hpp"

namespace dmatch {

Graph read_edge_list(std::istream& in) {
  NodeId n = -1;
  EdgeId m = -1;
  std::vector<Edge> edges;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ss(line);
    std::string directive;
    if (!(ss >> directive) || directive == "c" || directive[0] == '#') {
      continue;  // blank or comment
    }
    if (directive == "p") {
      // One header per input. Its counts are claims to check against
      // the edges actually read, never sizes to allocate up front.
      DMATCH_EXPECTS(n < 0);
      std::string kind;
      DMATCH_EXPECTS(ss >> kind >> n >> m);
      DMATCH_EXPECTS(kind == "edge");
      DMATCH_EXPECTS(n >= 0 && m >= 0);
    } else if (directive == "e") {
      DMATCH_EXPECTS(n >= 0);  // "p" line must come first
      Edge e;
      DMATCH_EXPECTS(ss >> e.u >> e.v);
      if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
        throw ContractViolation(
            "edge-list line " + std::to_string(line_no) + ": endpoint " +
            std::to_string(e.u < 0 || e.u >= n ? e.u : e.v) +
            " outside [0, " + std::to_string(n) + ")");
      }
      if (!(ss >> e.w)) e.w = 1.0;
      DMATCH_EXPECTS(e.w > 0);
      edges.push_back(e);
    } else {
      DMATCH_EXPECTS(!"unknown directive in edge-list input");
    }
  }
  DMATCH_EXPECTS(n >= 0);
  DMATCH_EXPECTS(static_cast<EdgeId>(edges.size()) == m);
  return Graph::from_edges(n, std::move(edges));
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "c dmatch edge list\n";
  out << "p edge " << g.node_count() << ' ' << g.edge_count() << '\n';
  out.precision(17);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    out << "e " << ed.u << ' ' << ed.v << ' ' << ed.w << '\n';
  }
}

std::string to_dot(const Graph& g, const Matching* matching) {
  std::ostringstream out;
  out << "graph dmatch {\n  node [shape=circle];\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out << "  n" << v << ";\n";
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    out << "  n" << ed.u << " -- n" << ed.v << " [label=\"" << ed.w << "\"";
    if (matching != nullptr && matching->contains(g, e)) {
      out << ", color=red, penwidth=3";
    }
    out << "];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace dmatch
