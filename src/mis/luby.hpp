// Luby's randomized maximal independent set as a distributed protocol
// over the communication graph, with the "uniform draw, local maxima
// join" iteration of [Luby 1986 / Alon-Babai-Itai 1986], the variant the
// paper builds on. Only tests run it. The LOCAL algorithms
// (core/local_augment.hpp) do not call it: they emulate the same
// iteration on their own conflict graphs.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace dmatch {

struct MisResult {
  std::vector<std::uint8_t> in_mis;  // one flag per node
  congest::RunStats stats;
};

/// Node-program factory; each decided node writes its flag into `out`
/// (which must outlive the run and have one slot per node).
congest::ProcessFactory luby_mis_factory(std::vector<std::uint8_t>& out);

/// Distributed Luby MIS on the topology of `net`'s graph.
MisResult luby_mis_distributed(congest::Network& net, int max_rounds = 1 << 20);

/// Checks that `in_mis` is independent and maximal in `adj`.
bool is_maximal_independent_set(const std::vector<std::vector<int>>& adj,
                                const std::vector<std::uint8_t>& in_mis);

}  // namespace dmatch
