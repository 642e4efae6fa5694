#include "core/half_mwm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/wrap_gain.hpp"
#include "support/wire.hpp"

namespace dmatch {

namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Process;

std::uint64_t double_to_bits(double d) {
  std::uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double bits_to_double(std::uint64_t bits) {
  double d;
  __builtin_memcpy(&d, &bits, sizeof(d));
  return d;
}

/// One-round protocol: broadcast the weight of this node's matched edge
/// (0 if free). Afterwards each node can evaluate w_M for every incident
/// edge locally; the driver mirrors that computation with gain_weights().
class GainExchangeProcess final : public Process {
 public:
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    if (ctx.round() == 0) {
      const int mate = ctx.mate_port();
      const double my_w = mate >= 0 ? ctx.edge_weight(mate) : 0.0;
      BitWriter w;
      w.write(double_to_bits(my_w), 64);
      const Message msg = Message::from_writer(std::move(w));
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
      return;
    }
    // Receive neighbors' matched weights; nothing further to send.
    for (const Envelope& env : inbox) {
      auto reader = env.msg.reader();
      (void)bits_to_double(reader.read(64));
    }
    halted_ = true;
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  bool halted_ = false;
};

/// Two-round protocol applying M <- M (+) union of wraps.
/// Input per node: the port of its M' partner, or -1.
class ApplyWrapsProcess final : public Process {
 public:
  explicit ApplyWrapsProcess(int new_mate_port)
      : new_mate_port_(new_mate_port) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    if (ctx.round() == 0) {
      if (new_mate_port_ >= 0) {
        const int old_mate = ctx.mate_port();
        if (old_mate >= 0) {
          BitWriter w;
          w.write(1, 1);  // DROP
          ctx.send(old_mate, Message::from_writer(std::move(w)));
        }
        ctx.set_mate_port(new_mate_port_);
      }
      return;
    }
    for (const Envelope& env : inbox) {
      (void)env.msg;
      // A DROP clears the register unless we repointed ourselves (then the
      // register no longer refers to the sender).
      if (ctx.mate_port() == env.port && new_mate_port_ < 0) {
        ctx.clear_mate();
      }
    }
    halted_ = true;
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  const int new_mate_port_;
  bool halted_ = false;
};

}  // namespace

int half_mwm_iteration_budget(double delta, double epsilon) {
  DMATCH_EXPECTS(delta > 0 && delta <= 0.5);
  DMATCH_EXPECTS(epsilon > 0 && epsilon < 0.5);
  return static_cast<int>(
      std::ceil(3.0 / (2.0 * delta) * std::log(2.0 / epsilon)));
}

HalfMwmResult half_mwm(const Graph& g, const HalfMwmOptions& options) {
  for (EdgeId e = 0; e < g.edge_count(); ++e) DMATCH_EXPECTS(g.weight(e) > 0);

  HalfMwmResult result;
  result.matching = Matching(g.node_count());
  result.guarantee = 0.5 - options.epsilon;

  const double default_delta =
      options.black_box == HalfMwmOptions::BlackBox::kClassGreedy
          ? (1.0 - options.box_options.class_epsilon) / 4.0
          : 0.5;
  const double delta =
      options.delta_override > 0 ? options.delta_override : default_delta;
  const int budget = options.max_iterations_override > 0
                         ? options.max_iterations_override
                         : half_mwm_iteration_budget(delta, options.epsilon);

  const bool faulty = options.fault.any();
  congest::Network main_net(g, congest::Model::kCongest, options.seed,
                            options.congest_factor,
                            {.num_threads = options.num_threads,
                             .fault = options.fault,
                             .observer = options.observer});
  DMATCH_OBS(obs::Observer* const ob = main_net.observer();)
  Rng driver_rng(options.seed ^ 0x5ee5ee5ee5ee5eeULL);

  for (int iter = 0; iter < budget; ++iter) {
    ++result.iterations;

    // Stage 1: gain exchange (1 round of 64-bit weights).
    main_net.set_matching(result.matching);
    congest::ProcessFactory gain_factory =
        [](NodeId, const Graph&) -> std::unique_ptr<congest::Process> {
      return std::make_unique<GainExchangeProcess>();
    };
    DMATCH_OBS(if (ob != nullptr) {
      ob->phase_begin("mwm.gain_exchange", static_cast<std::uint64_t>(iter));
    })
    if (faulty) {
      result.stats.merge(run_stage_checkpointed(
          main_net, std::move(gain_factory), 4, /*max_attempts=*/3,
          result.degradation, options.arq));
      // Healing clears registers at (or pointing at) crashed nodes;
      // re-extracting doubles as the dead-edge sweep, so the freed
      // partners show up as positive-gain candidates below.
      result.matching = main_net.extract_matching();
    } else {
      result.stats.merge(main_net.run(std::move(gain_factory), 4));
    }
    DMATCH_OBS(if (ob != nullptr) {
      ob->phase_end("mwm.gain_exchange", static_cast<std::uint64_t>(iter));
    })

    // Stage 2: black-box delta-MWM on the positive-gain subgraph.
    const std::vector<Weight> gains = gain_weights(g, result.matching);
    std::vector<char> keep(static_cast<std::size_t>(g.edge_count()), false);
    bool any = false;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      keep[static_cast<std::size_t>(e)] =
          gains[static_cast<std::size_t>(e)] > 0;
      if (faulty) {
        // Currently-dead nodes cannot rematch this iteration: keep their
        // edges out of the gain graph so the black box never proposes them.
        const Edge& ed = g.edge(e);
        keep[static_cast<std::size_t>(e)] =
            keep[static_cast<std::size_t>(e)] &&
            !main_net.node_dead(ed.u) && !main_net.node_dead(ed.v);
      }
      any = any || keep[static_cast<std::size_t>(e)];
    }
    if (!any) {
      if (options.stop_when_no_gain) break;
      continue;  // full schedule: idle iteration (nothing to augment)
    }

    Graph::Subgraph sub = g.edge_subgraph(keep);
    std::vector<Edge> reweighted;
    reweighted.reserve(sub.original_edge.size());
    for (std::size_t i = 0; i < sub.original_edge.size(); ++i) {
      Edge ed = sub.graph.edge(static_cast<EdgeId>(i));
      ed.w = gains[static_cast<std::size_t>(sub.original_edge[i])];
      reweighted.push_back(ed);
    }
    const Graph gain_graph =
        Graph::from_edges(g.node_count(), std::move(reweighted));

    DeltaMwmOptions box = options.box_options;
    box.seed = driver_rng();
    box.congest_factor = options.congest_factor;
    box.num_threads = options.num_threads;
    box.arq = options.arq;
    box.observer = options.observer;
    if (faulty) {
      // The black box inherits the driver's plan: the gain graph keeps
      // the caller's node-id space, so the box replays the same crash
      // table (on its own lifetime clock) and the same message-fault
      // model, with checkpoint/restart recovery inside.
      box.fault = options.fault;
    }
    DMATCH_OBS(if (ob != nullptr) {
      ob->phase_begin("mwm.black_box", static_cast<std::uint64_t>(iter));
    })
    DeltaMwmResult boxed =
        options.black_box == HalfMwmOptions::BlackBox::kClassGreedy
            ? class_greedy_mwm(gain_graph, box)
            : locally_dominant_mwm(gain_graph, box);
    result.stats.merge(boxed.stats);
    result.degradation.merge(boxed.degradation);
    DMATCH_OBS(if (ob != nullptr) {
      ob->phase_end("mwm.black_box", static_cast<std::uint64_t>(iter));
    })

    std::vector<EdgeId> m_prime;
    for (EdgeId se : boxed.matching.edges(gain_graph)) {
      m_prime.push_back(sub.original_edge[static_cast<std::size_t>(se)]);
    }
    if (m_prime.empty()) {
      if (options.stop_when_no_gain) break;
      continue;
    }

    // Stage 3: apply the wraps distributively (2 rounds).
    std::vector<int> new_mate_port(static_cast<std::size_t>(g.node_count()),
                                   -1);
    for (EdgeId e : m_prime) {
      const Edge& ed = g.edge(e);
      new_mate_port[static_cast<std::size_t>(ed.u)] = g.port_of_edge(ed.u, e);
      new_mate_port[static_cast<std::size_t>(ed.v)] = g.port_of_edge(ed.v, e);
    }
    congest::ProcessFactory wrap_factory =
        [&new_mate_port](NodeId v,
                         const Graph&) -> std::unique_ptr<congest::Process> {
      return std::make_unique<ApplyWrapsProcess>(
          new_mate_port[static_cast<std::size_t>(v)]);
    };
    DMATCH_OBS(if (ob != nullptr) {
      ob->phase_begin("mwm.apply_wraps", static_cast<std::uint64_t>(iter));
    })
    if (faulty) {
      // A dropped DROP notification leaves the old mate pointing at a
      // repointed node: exactly the torn-register shape heal_registers
      // clears, so the extraction below is always a valid matching. The
      // Lemma 4.1 equality/weight-gain checks only bind for the wraps
      // that survived, so they are skipped.
      result.stats.merge(run_stage_checkpointed(
          main_net, std::move(wrap_factory), 4, /*max_attempts=*/3,
          result.degradation, options.arq));
      result.matching = main_net.extract_matching();
    } else {
      result.stats.merge(main_net.run(std::move(wrap_factory), 4));

      const Matching updated = main_net.extract_matching();
      // Lemma 4.1 checks: the registers form a matching (extract_matching
      // validated) that agrees with the centralized wrap application and
      // gained at least w_M(M').
      const Matching reference = apply_wraps(g, result.matching, m_prime);
      DMATCH_ASSERT(updated == reference);
      double gain_mprime = 0;
      for (EdgeId e : m_prime)
        gain_mprime += gains[static_cast<std::size_t>(e)];
      DMATCH_ASSERT(updated.weight(g) >=
                    result.matching.weight(g) + gain_mprime - 1e-6);
      result.matching = updated;
    }
    DMATCH_OBS(if (ob != nullptr) {
      ob->phase_end("mwm.apply_wraps", static_cast<std::uint64_t>(iter));
    })
  }

  if (faulty) {
    // Nodes may have crashed during the last stage: heal once more and
    // return the registers' (valid, survivor-only) matching plus the
    // final dead mask so callers can verify against the surviving
    // subgraph.
    main_net.set_matching(result.matching);
    main_net.heal_registers(&result.degradation);
    result.matching = main_net.extract_matching();
    result.dead_nodes.assign(static_cast<std::size_t>(g.node_count()), 0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      result.dead_nodes[static_cast<std::size_t>(v)] =
          main_net.node_dead(v) ? 1 : 0;
    }
  }
  return result;
}

}  // namespace dmatch
