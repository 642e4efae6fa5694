#include "core/general_mcm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "congest/resilient.hpp"
#include "graph/augmenting.hpp"
#include "support/wire.hpp"

namespace dmatch {

namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Process;

/// Two-round protocol that establishes the sampled bipartite subgraph G^:
/// round 0 broadcasts this node's coin flip (its color), round 1 broadcasts
/// V^-membership (free, or matched along a bichromatic edge). Afterwards
/// every node knows which incident edges belong to E^. Results are exposed
/// to the driver through shared output arrays (the simulator-side
/// equivalent of reading each node's local variables).
class ColorSampleProcess final : public Process {
 public:
  ColorSampleProcess(NodeId id, const Graph& g,
                     std::vector<std::uint8_t>& color_out,
                     std::vector<char>& edge_in_out)
      : id_(id), g_(&g), color_out_(color_out), edge_in_out_(edge_in_out) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    const auto vi = static_cast<std::size_t>(ctx.id());
    switch (ctx.round()) {
      case 0: {
        color_ = ctx.rng().coin() ? 1 : 0;
        color_out_[vi] = color_;
        BitWriter w;
        w.write(color_, 1);
        const Message msg = Message::from_writer(std::move(w));
        for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
        break;
      }
      case 1: {
        neighbor_color_.assign(static_cast<std::size_t>(ctx.degree()), 0);
        for (const Envelope& env : inbox) {
          auto reader = env.msg.reader();
          neighbor_color_[static_cast<std::size_t>(env.port)] =
              static_cast<std::uint8_t>(reader.read(1));
        }
        const int mate = ctx.mate_port();
        in_vhat_ = mate < 0 ||
                   neighbor_color_[static_cast<std::size_t>(mate)] != color_;
        BitWriter w;
        w.write_bool(in_vhat_);
        const Message msg = Message::from_writer(std::move(w));
        for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
        break;
      }
      case 2: {
        std::vector<char> neighbor_in(static_cast<std::size_t>(ctx.degree()),
                                      false);
        for (const Envelope& env : inbox) {
          auto reader = env.msg.reader();
          neighbor_in[static_cast<std::size_t>(env.port)] = reader.read(1) != 0;
        }
        // An incident edge is in E^ iff bichromatic with both ends in V^.
        for (int p = 0; p < ctx.degree(); ++p) {
          const bool in = in_vhat_ && neighbor_in[static_cast<std::size_t>(p)] &&
                          neighbor_color_[static_cast<std::size_t>(p)] != color_;
          // Both endpoints decide the same bit (fault-free, the only case
          // anyone reads it); the lower id writes it, so no two shards
          // write one entry.
          if (in && id_ < ctx.neighbor_id(p)) {
            const EdgeId e =
                g_->incident_edges(id_)[static_cast<std::size_t>(p)];
            edge_in_out_[static_cast<std::size_t>(e)] = true;
          }
        }
        halted_ = true;
        break;
      }
      default:
        halted_ = true;
        break;
    }
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  const NodeId id_;
  const Graph* g_;
  std::vector<std::uint8_t>& color_out_;
  std::vector<char>& edge_in_out_;
  std::uint8_t color_ = 0;
  bool in_vhat_ = false;
  std::vector<std::uint8_t> neighbor_color_;
  bool halted_ = false;
};

}  // namespace

int general_mcm_paper_budget(int k) {
  DMATCH_EXPECTS(k >= 2);
  const double budget = std::pow(2.0, 2 * k + 1) * (k + 1) *
                        std::max(std::log(static_cast<double>(k)), 0.7);
  return static_cast<int>(std::ceil(budget));
}

GeneralMcmResult general_mcm(const Graph& g, const GeneralMcmOptions& options) {
  DMATCH_EXPECTS(options.k >= 2);
  GeneralMcmResult result;
  result.matching = Matching(g.node_count());

  const bool faulty = options.fault.any();
  congest::Network main_net(g, congest::Model::kCongest, options.seed,
                            options.congest_factor,
                            {.num_threads = options.num_threads,
                             .fault = options.fault,
                             .observer = options.observer});
  DMATCH_OBS(obs::Observer* const ob = main_net.observer();)
  Rng driver_rng(options.seed ^ 0xa5a5a5a5a5a5a5a5ULL);

  int budget = options.max_iterations > 0 ? options.max_iterations
                                          : general_mcm_paper_budget(options.k);
  int unproductive = 0;

  for (int iter = 0; iter < budget; ++iter) {
    ++result.iterations;

    // Stage 1: sample G^ (colors + membership), two-round protocol on G.
    std::vector<std::uint8_t> color(static_cast<std::size_t>(g.node_count()),
                                    0);
    std::vector<char> edge_in(static_cast<std::size_t>(g.edge_count()), false);
    congest::ProcessFactory sample_factory =
        [&color, &edge_in](NodeId v, const Graph& graph)
        -> std::unique_ptr<congest::Process> {
      return std::make_unique<ColorSampleProcess>(v, graph, color, edge_in);
    };
    DMATCH_OBS(if (ob != nullptr) {
      ob->phase_begin("mcm.sample", static_cast<std::uint64_t>(iter));
    })
    if (faulty) {
      try {
        const congest::RunStats stats = main_net.run(
            congest::resilient_factory(std::move(sample_factory), options.arq),
            congest::resilient_round_budget(8));
        result.degradation.budget_exhausted |= !stats.completed;
        result.stats.merge(stats);
      } catch (const ContractViolation&) {
        result.degradation.contract_tripped = true;
      } catch (const congest::MessageTooLarge&) {
        result.degradation.contract_tripped = true;
      }
      // Healing clears registers at (or pointing at) crashed nodes, so
      // re-extracting doubles as the dead-edge sweep: a live node whose
      // mate crashed becomes free again and can rematch below.
      main_net.heal_registers(&result.degradation);
      result.matching = main_net.extract_matching();
    } else {
      result.stats.merge(main_net.run(std::move(sample_factory), 8));
    }
    DMATCH_OBS(if (ob != nullptr) {
      ob->phase_end("mcm.sample", static_cast<std::uint64_t>(iter));
    })

    // Recover E^ membership from the collected colors and the current
    // matching (identical to what each node computed locally).
    const Matching& m = result.matching;
    auto in_vhat = [&](NodeId v) {
      if (m.is_free(v)) return true;
      return color[static_cast<std::size_t>(v)] !=
             color[static_cast<std::size_t>(m.mate(v))];
    };
    std::vector<char> keep(static_cast<std::size_t>(g.edge_count()), false);
    bool any = false;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& ed = g.edge(e);
      keep[static_cast<std::size_t>(e)] =
          color[static_cast<std::size_t>(ed.u)] !=
              color[static_cast<std::size_t>(ed.v)] &&
          in_vhat(ed.u) && in_vhat(ed.v);
      if (faulty) {
        // Crashed nodes cannot take part in G^, and a lossy color round
        // means the distributed view may disagree with the host's -- the
        // host view is authoritative (the nodes of G^ are re-seeded with
        // it below), so the mirror assert only applies fault-free.
        keep[static_cast<std::size_t>(e)] =
            keep[static_cast<std::size_t>(e)] &&
            !main_net.node_dead(ed.u) && !main_net.node_dead(ed.v);
      } else {
        // The nodes' own distributed view of E^ must agree.
        DMATCH_ASSERT(keep[static_cast<std::size_t>(e)] ==
                      (edge_in[static_cast<std::size_t>(e)] != 0));
      }
      any = any || keep[static_cast<std::size_t>(e)];
    }

    std::ptrdiff_t gained = 0;
    if (any) {
      // Stage 2: Aug(G^, M, 2k-1) -- the bipartite phase loop on G^.
      DMATCH_OBS(if (ob != nullptr) {
        ob->phase_begin("mcm.augment", static_cast<std::uint64_t>(iter));
      })
      Graph::Subgraph sub = g.edge_subgraph(keep);
      congest::Network::Options hat_opts;
      hat_opts.num_threads = options.num_threads;
      hat_opts.observer = options.observer;
      if (faulty) {
        // The Aug networks keep suffering message faults (fresh derived
        // seed per iteration) and inherit the main network's casualties as
        // scheduled crashes; new crash draws stay with the main network so
        // the overall casualty rate tracks the plan.
        hat_opts.fault = options.fault;
        hat_opts.fault.crash_prob = 0.0;
        hat_opts.fault.restart_prob = 0.0;
        hat_opts.fault.crashes.clear();
        hat_opts.fault.seed = congest::fault_detail::mix(
            options.fault.seed, 0x9a75u, static_cast<std::uint64_t>(iter), 0);
        for (NodeId v = 0; v < g.node_count(); ++v) {
          if (main_net.node_dead(v)) {
            hat_opts.fault.crashes.push_back({v, 0, congest::kRoundNever});
          }
        }
      }
      congest::Network hat_net(sub.graph, congest::Model::kCongest,
                               driver_rng(), options.congest_factor,
                               hat_opts);
      // Install M ^ E^ on the subgraph's registers.
      Matching m_hat(g.node_count());
      for (std::size_t i = 0; i < sub.original_edge.size(); ++i) {
        if (m.contains(g, sub.original_edge[i])) {
          m_hat.add(sub.graph, static_cast<EdgeId>(i));
        }
      }
      hat_net.set_matching(m_hat);

      std::vector<std::uint8_t> side(color.begin(), color.end());
      BipartiteMcmOptions aug_options;
      aug_options.k = options.k;
      aug_options.phase = options.phase;
      aug_options.phase.arq = options.arq;
      BipartiteMcmResult aug = bipartite_mcm(hat_net, side, aug_options);
      result.stats.merge(aug.stats);
      result.degradation.merge(aug.degradation);

      // Stage 3: merge back: M <- (M \ M^) union result.
      const std::size_t before = result.matching.size();
      for (std::size_t i = 0; i < sub.original_edge.size(); ++i) {
        const EdgeId orig = sub.original_edge[i];
        if (result.matching.contains(g, orig)) {
          result.matching.remove(g, orig);
        }
      }
      for (EdgeId he : aug.matching.edges(sub.graph)) {
        result.matching.add(g,
                            sub.original_edge[static_cast<std::size_t>(he)]);
      }
      DMATCH_ENSURES(result.matching.is_valid(g));
      // A degraded Aug run can legitimately shrink M^ (healed tears), so
      // monotonicity only holds fault-free.
      DMATCH_ENSURES(faulty || result.matching.size() >= before);
      gained = static_cast<std::ptrdiff_t>(result.matching.size()) -
               static_cast<std::ptrdiff_t>(before);
      main_net.set_matching(result.matching);
      DMATCH_OBS(if (ob != nullptr) {
        ob->phase_end("mcm.augment", static_cast<std::uint64_t>(iter));
      })
    }

    if (gained > 0) {
      ++result.productive_iterations;
      unproductive = 0;
    } else {
      ++unproductive;
    }
    if (options.budget == GeneralMcmOptions::Budget::kAdaptive &&
        unproductive >= options.patience) {
      // A path through a crashed node can never be realized, so under
      // faults the oracle could keep the loop alive until the full paper
      // budget; patience alone terminates it then.
      if (faulty) break;
      // Before stopping early, confirm with the centralized oracle that no
      // augmenting path of length <= 2k-1 remains (cheap: interior matched
      // hops are forced, so the search branches ~Delta^k times). If one
      // remains, keep sampling; this makes the adaptive mode's (1 - 1/k)
      // bound deterministic rather than w.h.p. (DESIGN.md note 3).
      const auto leftover = enumerate_augmenting_paths(
          g, result.matching, 2 * options.k - 1, 1);
      if (leftover.empty()) break;
      unproductive = 0;
    }
  }

  if (faulty) {
    // Final sweep: nodes may have crashed after the last stage ran, so
    // heal once more and return the registers' (valid, survivor-only)
    // matching.
    main_net.heal_registers(&result.degradation);
    result.matching = main_net.extract_matching();
  }
  return result;
}

}  // namespace dmatch
