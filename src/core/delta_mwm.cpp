#include "core/delta_mwm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/israeli_itai.hpp"
#include "core/wrap_gain.hpp"
#include "support/wire.hpp"

namespace dmatch {

namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Process;

enum MsgKind : std::uint64_t { kMatchedMsg = 0, kProposeMsg = 1 };

Message dominant_msg(MsgKind kind) {
  BitWriter w;
  w.write(kind, 1);
  return Message::from_writer(std::move(w));
}

/// Locally-dominant matching node. Iterations take two rounds:
///   round 0 (mod 2): prune dead neighbors, announce a fresh match and
///                    halt, otherwise propose to the heaviest live port;
///   round 1: a mutual proposal matches the edge.
/// Edge keys (w, min id, max id) are totally ordered and evaluated
/// identically from both endpoints, so the heaviest live edge overall is
/// always mutually proposed: at least one edge matches per iteration.
class DominantProcess final : public Process {
 public:
  DominantProcess(NodeId id, const Graph& g) : id_(id) {
    alive_.assign(static_cast<std::size_t>(g.degree(id)), true);
  }

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    int proposal_from = -1;
    for (const Envelope& env : inbox) {
      auto reader = env.msg.reader();
      if (reader.read(1) == kMatchedMsg) {
        alive_[static_cast<std::size_t>(env.port)] = false;
      } else if (env.port == proposed_port_) {
        proposal_from = env.port;
      }
    }

    if (ctx.round() % 2 == 0) {
      if (matched_) {
        const Message msg = dominant_msg(kMatchedMsg);
        for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
        halted_ = true;
        return;
      }
      proposed_port_ = best_port(ctx);
      if (proposed_port_ < 0) {
        halted_ = true;  // no live neighbor remains
        return;
      }
      ctx.send(proposed_port_, dominant_msg(kProposeMsg));
    } else {
      if (!matched_ && proposal_from >= 0) {
        // Mutual proposal: we proposed to them and they proposed to us.
        ctx.set_mate_port(proposal_from);
        matched_ = true;
      }
    }
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  /// Heaviest live incident edge under the shared total order.
  int best_port(Context& ctx) const {
    int best = -1;
    Weight best_w = 0;
    NodeId best_lo = 0;
    NodeId best_hi = 0;
    for (int p = 0; p < ctx.degree(); ++p) {
      if (!alive_[static_cast<std::size_t>(p)]) continue;
      const Weight w = ctx.edge_weight(p);
      const NodeId u = ctx.neighbor_id(p);
      const NodeId lo = std::min(id_, u);
      const NodeId hi = std::max(id_, u);
      const bool better = best < 0 || w > best_w ||
                          (w == best_w &&
                           (lo > best_lo || (lo == best_lo && hi > best_hi)));
      if (better) {
        best = p;
        best_w = w;
        best_lo = lo;
        best_hi = hi;
      }
    }
    return best;
  }

  const NodeId id_;
  std::vector<char> alive_;
  bool matched_ = false;
  int proposed_port_ = -1;
  bool halted_ = false;
};

}  // namespace

DeltaMwmResult class_greedy_mwm(const Graph& g,
                                const DeltaMwmOptions& options) {
  DMATCH_EXPECTS(options.class_epsilon > 0 && options.class_epsilon < 1);
  for (EdgeId e = 0; e < g.edge_count(); ++e) DMATCH_EXPECTS(g.weight(e) > 0);

  DeltaMwmResult result;
  result.delta_guarantee = (1.0 - options.class_epsilon) / 4.0;
  result.matching = Matching(g.node_count());
  if (g.edge_count() == 0) return result;

  const Weight w_max = g.max_weight();
  const double n = std::max(2, g.node_count());
  const Weight floor_weight = options.class_epsilon * w_max / n;
  const int num_classes = static_cast<int>(
      std::ceil(std::log2(n / options.class_epsilon))) + 1;

  congest::Network::Options net_options;
  net_options.num_threads = options.num_threads;
  net_options.fault = options.fault;
  net_options.observer = options.observer;
  congest::Network net(g, congest::Model::kCongest, options.seed,
                       options.congest_factor, net_options);

  // class_of(e) = floor(log2(w_max / w)): class i holds weights in
  // (w_max / 2^(i+1), w_max / 2^i]. Edges lighter than the floor are
  // dropped entirely (class -1).
  std::vector<int> class_of(static_cast<std::size_t>(g.edge_count()), -1);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Weight w = g.weight(e);
    if (w < floor_weight) continue;
    const int cls = std::min(
        num_classes - 1,
        std::max(0, static_cast<int>(std::floor(std::log2(w_max / w)))));
    class_of[static_cast<std::size_t>(e)] = cls;
  }

  for (int cls = 0; cls < num_classes; ++cls) {
    IsraeliItaiOptions ii;
    ii.max_rounds = options.max_rounds;
    ii.arq = options.arq;
    ii.eligible_edges.assign(static_cast<std::size_t>(g.edge_count()), false);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      ii.eligible_edges[static_cast<std::size_t>(e)] =
          class_of[static_cast<std::size_t>(e)] == cls;
    }
    // Run the per-class maximal matching even when the class is empty: the
    // real schedule does not know class occupancy (costs O(1) rounds).
    // israeli_itai handles the fault-active case itself (resilient link
    // layer + checkpoint/restart + healing), so the registers are always
    // strictly consistent between classes.
    IsraeliItaiResult ii_result = israeli_itai(net, ii);
    result.stats.merge(ii_result.stats);
    result.degradation.merge(ii_result.degradation);
  }

  result.matching = net.extract_matching();
  return result;
}

DeltaMwmResult locally_dominant_mwm(const Graph& g,
                                    const DeltaMwmOptions& options) {
  for (EdgeId e = 0; e < g.edge_count(); ++e) DMATCH_EXPECTS(g.weight(e) > 0);

  DeltaMwmResult result;
  result.delta_guarantee = 0.5;
  congest::Network::Options net_options;
  net_options.num_threads = options.num_threads;
  net_options.fault = options.fault;
  net_options.observer = options.observer;
  congest::Network net(g, congest::Model::kCongest, options.seed,
                       options.congest_factor, net_options);
  const congest::ProcessFactory factory = [](NodeId v, const Graph& graph) {
    return std::make_unique<DominantProcess>(v, graph);
  };
  if (!net.fault_active()) {
    result.stats = net.run(factory, options.max_rounds);
    result.matching = net.extract_matching();
    return result;
  }
  result.stats = run_stage_checkpointed(
      net, factory, std::min(options.max_rounds, 4096),
      /*max_attempts=*/3, result.degradation, options.arq);
  result.matching = net.extract_matching();
  return result;
}

}  // namespace dmatch
