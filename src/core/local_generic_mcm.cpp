#include "core/local_generic_mcm.hpp"

#include <algorithm>
#include <cmath>

#include "core/local_augment.hpp"
#include "graph/augmenting.hpp"

namespace dmatch {

namespace {

/// Algorithms 1 + 2 on the LOCAL engine: the augmenting paths of at most
/// `len` edges in a view, oriented from their smaller endpoint id, all in
/// one MIS class. No weight travels.
struct PathPolicy {
  static constexpr bool kWeighted = false;

  /// 64-bit signature of a path's canonical node sequence. Identical at
  /// every node that sees the path.
  static std::uint64_t signature(const std::vector<NodeId>& seq) {
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    for (NodeId v : seq) {
      h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      std::uint64_t s = h;
      h = splitmix64(s);
    }
    return h;
  }

  static std::vector<local::Candidate> candidates(const local::View& view,
                                                  const local::Schedule& s) {
    const Graph& g = view.graph;
    std::vector<local::Candidate> out;
    for (const auto& path :
         enumerate_augmenting_paths(g, view.matching, s.len)) {
      // Walk the node order from the end not shared with the next edge.
      const Edge& e0 = g.edge(path[0]);
      NodeId cur = e0.u;
      if (path.size() > 1) {
        const Edge& e1 = g.edge(path[1]);
        if (e0.u == e1.u || e0.u == e1.v) cur = e0.v;
      }
      local::Candidate c;
      c.nodes.push_back(view.to_global[static_cast<std::size_t>(cur)]);
      for (const EdgeId e : path) {
        cur = g.other_endpoint(e, cur);
        c.nodes.push_back(view.to_global[static_cast<std::size_t>(cur)]);
      }
      if (c.nodes.front() > c.nodes.back()) {
        std::reverse(c.nodes.begin(), c.nodes.end());
      }
      out.push_back(std::move(c));
    }
    return out;
  }
};

}  // namespace

LocalGenericResult local_generic_mcm(const Graph& g,
                                     const LocalGenericOptions& options) {
  DMATCH_EXPECTS(options.epsilon > 0 && options.epsilon <= 1);
  const int k = static_cast<int>(std::ceil(1.0 / options.epsilon));

  LocalGenericResult result;
  congest::Network net(g, congest::Model::kLocal, options.seed);

  for (int ell = 1; ell <= 2 * k - 1; ell += 2) {
    ++result.phases;
    const local::Schedule s{
        .len = ell,
        .classes = 1,
        .iterations = local::mis_iterations(ell, g.node_count()),
        .augment_rounds = ell + 1};
    // A fixed MIS budget fails w.h.p. only; re-run the phase while the
    // oracle still finds an augmenting path of at most ell edges.
    for (int attempt = 0;; ++attempt) {
      result.stats.merge(
          net.run(local::factory<PathPolicy>(s), s.max_rounds()));
      const Matching m = net.extract_matching();
      if (enumerate_augmenting_paths(g, m, ell, 1).empty()) break;
      ++result.phase_retries;
      DMATCH_ASSERT(attempt < 64);
    }
  }

  result.matching = net.extract_matching();
  return result;
}

}  // namespace dmatch
