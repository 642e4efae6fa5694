// Graph (de)serialization: a DIMACS-flavoured edge-list format and a
// Graphviz export, so downstream users can run the library on their own
// instances (see tools/dmatch_cli).
//
// Format:
//   c free-text comment
//   p edge <n> <m>
//   e <u> <v> [w]          (0-based endpoints; weight defaults to 1)
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "graph/matching.hpp"

namespace dmatch {

/// Parse the edge-list format above. Throws ContractViolation on malformed
/// input, with a message that names the input line ("edge-list line N:
/// ..."): a missing, second or malformed header, an edge before the
/// header, a malformed edge, an endpoint out of range, a self-loop, a
/// non-positive weight, a pair listed twice, an unknown directive, or an
/// edge count that disagrees with the header.
Graph read_edge_list(std::istream& in);

/// Serialize g in the same format (weights always written).
void write_edge_list(std::ostream& out, const Graph& g);

/// Graphviz DOT export; matched edges (if a matching is given) are drawn
/// bold red.
std::string to_dot(const Graph& g, const Matching* matching = nullptr);

}  // namespace dmatch
