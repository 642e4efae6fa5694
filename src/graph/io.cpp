#include "graph/io.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>

#include "support/assert.hpp"

namespace dmatch {

namespace {

/// An edge-list rejection naming the input line it is about.
[[noreturn]] void reject(int line_no, const std::string& what) {
  throw ContractViolation("edge-list line " + std::to_string(line_no) + ": " +
                          what);
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  NodeId n = -1;
  EdgeId m = -1;
  int header_line = 0;
  std::vector<Edge> edges;
  std::vector<std::tuple<NodeId, NodeId, int>> pairs;  // (u < v, line)
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
      if (n >= 0) {
        reject(line_no, "second header (the first is on line " +
                            std::to_string(header_line) + ")");
      }
      std::string kind;
      if (!(ss >> kind >> n >> m)) {
        reject(line_no, "malformed header, expected 'p edge <n> <m>'");
      }
      if (kind != "edge") {
        reject(line_no, "header kind '" + kind + "' is not 'edge'");
      }
      if (n < 0 || m < 0) reject(line_no, "negative node or edge count");
      header_line = line_no;
    } else if (directive == "e") {
      if (n < 0) reject(line_no, "edge before the 'p edge <n> <m>' header");
      Edge e;
      if (!(ss >> e.u >> e.v)) {
        reject(line_no, "malformed edge, expected 'e <u> <v> [w]'");
      }
      if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
        reject(line_no, "endpoint " +
                            std::to_string(e.u < 0 || e.u >= n ? e.u : e.v) +
                            " outside [0, " + std::to_string(n) + ")");
      }
      if (e.u == e.v) {
        reject(line_no, "self-loop on node " + std::to_string(e.u));
      }
      if (!(ss >> e.w)) e.w = 1.0;
      if (!(e.w > 0)) reject(line_no, "weight must be positive");
      edges.push_back(e);
      pairs.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), line_no);
    } else {
      reject(line_no, "unknown directive '" + directive + "'");
    }
  }
  if (n < 0) {
    throw ContractViolation(
        "edge-list input has no 'p edge <n> <m>' header (" +
        std::to_string(line_no) + " lines read)");
  }
  if (static_cast<EdgeId>(edges.size()) != m) {
    reject(header_line, "header declares " + std::to_string(m) +
                            " edges, the input has " +
                            std::to_string(edges.size()));
  }
  // A pair listed twice: name the later line, and the earlier one.
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    const auto& [u, v, first] = pairs[i - 1];
    const auto& [u2, v2, again] = pairs[i];
    if (u == u2 && v == v2) {
      reject(again, "duplicate edge " + std::to_string(u) + " " +
                        std::to_string(v) + " (first on line " +
                        std::to_string(first) + ")");
    }
  }
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
