#include "core/local_mwm.hpp"

#include <algorithm>
#include <cmath>

#include "core/local_augment.hpp"
#include "core/wrap_gain.hpp"
#include "graph/augmenting.hpp"

namespace dmatch {

namespace {

/// Section 4's remark on the LOCAL engine: the positive-gain alternating
/// paths and cycles of at most `len` edges in a view, none through a
/// phantom mate, each in its geometric gain class. Weights, classes and
/// the cycle flag travel.
struct AugmentationPolicy {
  static constexpr bool kWeighted = true;

  static std::uint64_t signature(const std::vector<NodeId>& seq) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (NodeId v : seq) {
      std::uint64_t s =
          h ^ (static_cast<std::uint64_t>(v) * 0xff51afd7ed558ccdULL);
      h = splitmix64(s);
    }
    return h;
  }

  static std::vector<local::Candidate> candidates(const local::View& view,
                                                  const local::Schedule& s) {
    // Class c holds gains in (G / 2^(c+1), G / 2^c], where G is len times
    // the heaviest edge record this node holds. The bound is local to the
    // node's view, not a global W_max, so two leaders can bound the same
    // gain differently.
    const double bound = std::max(1e-12, view.heaviest * s.len);
    const auto real = static_cast<NodeId>(view.to_global.size());
    std::vector<local::Candidate> out;
    for (const Augmentation& aug :
         enumerate_alternating_augmentations(view.graph, view.matching,
                                             s.len)) {
      const Weight gained = gain(view.graph, view.matching, aug.edges);
      if (gained <= 0 ||
          std::any_of(aug.nodes.begin(), aug.nodes.end(),
                      [real](NodeId v) { return v >= real; })) {
        continue;
      }
      local::Candidate c;
      for (const NodeId v : aug.nodes) {
        c.nodes.push_back(view.to_global[static_cast<std::size_t>(v)]);
      }
      c.is_cycle = aug.is_cycle;
      const double cls =
          gained >= bound ? 0 : std::floor(std::log2(bound / gained));
      c.gain_class = static_cast<std::uint8_t>(std::min(cls, s.classes - 1.0));
      out.push_back(std::move(c));
    }
    return out;
  }
};

}  // namespace

LocalMwmResult local_one_minus_eps_mwm(const Graph& g,
                                       const LocalMwmOptions& options) {
  DMATCH_EXPECTS(options.epsilon > 0 && options.epsilon <= 1);
  for (EdgeId e = 0; e < g.edge_count(); ++e) DMATCH_EXPECTS(g.weight(e) > 0);

  const int k = static_cast<int>(std::ceil(1.0 / options.epsilon));
  const int len = 2 * k + 1;
  const int classes = static_cast<int>(std::ceil(std::log2(std::max(
                          4.0, 2.0 * g.node_count() / options.epsilon)))) +
                      1;
  const local::Schedule s{
      .len = len,
      .classes = classes,
      .iterations = local::mis_iterations(len, g.node_count()),
      .augment_rounds = len + 2};
  const int sweep_budget = static_cast<int>(std::ceil(4.0 / options.epsilon));

  LocalMwmResult result;
  result.guarantee = static_cast<double>(k) / (k + 1);
  congest::Network net(g, congest::Model::kLocal, options.seed);

  // The adaptive schedule stops at 9x the fixed one's sweeps.
  for (int sweep = 0; sweep < 9 * sweep_budget; ++sweep) {
    if (options.adaptive_sweeps) {
      // Oracle: stop when no positive-gain augmentation of <= len edges
      // remains; Lemma 4.2 then certifies w(M) >= k/(k+1) w(M*).
      const Matching m = net.extract_matching();
      const auto augs = enumerate_alternating_augmentations(g, m, s.len);
      if (std::none_of(augs.begin(), augs.end(), [&](const Augmentation& a) {
            return gain(g, m, a.edges) > 1e-12;
          })) {
        break;
      }
    } else if (sweep >= sweep_budget) {
      break;
    }
    ++result.sweeps;
    result.stats.merge(
        net.run(local::factory<AugmentationPolicy>(s), s.max_rounds()));
  }

  result.matching = net.extract_matching();
  return result;
}

}  // namespace dmatch
