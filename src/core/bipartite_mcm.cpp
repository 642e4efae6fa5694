#include "core/bipartite_mcm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "congest/resilient.hpp"
#include "graph/augmenting.hpp"
#include "support/sat_count.hpp"
#include "support/wire.hpp"

namespace dmatch {

namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Process;

enum MsgKind : std::uint64_t { kCount = 0, kToken = 1, kAugment = 2 };

Message count_message(SatCount c) {
  BitWriter w;
  w.write(kCount, 2);
  w.write(c.hi(), 64);
  w.write(c.lo(), 64);
  return Message::from_writer(std::move(w));
}

Message token_message(std::uint64_t value_bits, std::uint64_t tiebreak) {
  BitWriter w;
  w.write(kToken, 2);
  w.write(value_bits, 64);
  w.write(tiebreak, 64);
  return Message::from_writer(std::move(w));
}

Message augment_message() {
  BitWriter w;
  w.write(kAugment, 2);
  return Message::from_writer(std::move(w));
}

/// Token lottery value: the sampled maximum of n_y uniforms plus a 64-bit
/// tiebreak (see DESIGN.md note 1). Doubles travel as their IEEE bits;
/// comparison happens on the decoded doubles.
struct TokenValue {
  double value = -1.0;
  std::uint64_t tiebreak = 0;

  friend bool operator<(const TokenValue& a, const TokenValue& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.tiebreak < b.tiebreak;
  }
};

std::uint64_t double_to_bits(double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double bits_to_double(std::uint64_t bits) {
  double d;
  __builtin_memcpy(&d, &bits, sizeof(d));
  return d;
}

/// One node of the augment-iteration protocol (counting, lottery, augment).
/// Round timeline for path length ell (all 0-based):
///   0 .. ell          counting: node at BFS depth d first hears at round d
///   2*ell+1 - t(y)    leader with paths of length t(y) launches its token
///   2*ell+1 - d       tokens cross depth-d nodes (so collisions between
///                     tokens of different-length paths still meet)
///   2*ell+1           surviving tokens reach free X nodes; AUGMENT starts
///   2*ell+1 + t       AUGMENT reaches the leader; registers are flipped
/// Every node halts after round 3*ell + 2. Between messages a node has
/// one timed action left — a leader's launch, else that halt — and
/// sleeps until it (Context::sleep_until), so the engine steps a node
/// at round 0, in the round after each message it receives, at its
/// launch and at the last round, and never in between.
class AugmentIterationProcess final : public Process {
 public:
  AugmentIterationProcess(std::uint8_t side, int ell,
                          CountingProbe* probe = nullptr, NodeId id = kNoNode,
                          const Graph* g = nullptr,
                          const std::vector<char>* eligible = nullptr)
      : side_(side),
        ell_(ell),
        id_(id),
        g_(g),
        eligible_(eligible),
        probe_(probe) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    const int r = ctx.round();
    if (r == 0) init(ctx);

    // Gather this round's messages by kind. An unvisited node folds every
    // count of its first counting round into its per-port table.
    bool first_counts = false;
    int best_token_port = -1;
    TokenValue best_token;
    int augment_port = -1;
    for (const Envelope& env : inbox) {
      auto reader = env.msg.reader();
      switch (reader.read(2)) {
        case kCount: {
          const std::uint64_t hi = reader.read(64);
          const std::uint64_t lo = reader.read(64);
          if (!visited_) {
            if (counts_.empty()) {
              counts_.assign(static_cast<std::size_t>(ctx.degree()),
                             SatCount{});
            }
            const SatCount c = SatCount::from_words(hi, lo);
            counts_[static_cast<std::size_t>(env.port)] += c;
            total_ += c;
            first_counts = true;
          }
          break;
        }
        case kToken: {
          TokenValue tv{bits_to_double(reader.read(64)), reader.read(64)};
          if (best_token_port < 0 || best_token < tv) {
            best_token = tv;
            best_token_port = env.port;
          }
          break;
        }
        case kAugment:
          DMATCH_ASSERT(augment_port < 0);
          augment_port = env.port;
          break;
        default:
          break;
      }
    }

    if (first_counts) on_first_counts(ctx, r);
    if (probe_ != nullptr && visited_) {
      probe_->depth[static_cast<std::size_t>(ctx.id())] = depth_;
      probe_->count[static_cast<std::size_t>(ctx.id())] = total_.as_double();
      if (depth_ == 0) probe_->count[static_cast<std::size_t>(ctx.id())] = 1;
    }
    if (is_leader_ && r == launch_round_) launch_token(ctx);
    if (best_token_port >= 0) on_token(ctx, best_token_port, best_token);
    if (augment_port >= 0) on_augment(ctx, augment_port);

    const int last_round = 3 * ell_ + 2;
    halted_ = r >= last_round;
    if (!halted_) {
      ctx.sleep_until(is_leader_ && launch_round_ > r ? launch_round_
                                                      : last_round);
    }
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  void init(Context& ctx) {
    mate_port_ = ctx.mate_port();
    // Region precondition: a participant's matched edge is in-region
    // (frozen boundary pairs are excluded as pairs before the run).
    DMATCH_ASSERT(eligible_ == nullptr || mate_port_ < 0 ||
                  port_eligible(mate_port_));
    if (side_ == 0 && mate_port_ < 0) {
      // Free X node: BFS source at depth 0.
      visited_ = true;
      depth_ = 0;
      const Message msg = count_message(SatCount{1});
      for (int p = 0; p < ctx.degree(); ++p) {
        if (port_eligible(p)) ctx.send(p, msg);
      }
    }
  }

  /// The first counts have been folded into counts_ and total_.
  void on_first_counts(Context& ctx, int round) {
    visited_ = true;
    depth_ = round;
    if (side_ == 0) {
      // Matched X node (free X are visited at round 0): flood onward. The
      // copy sent back to the mate is discarded there (already visited).
      DMATCH_ASSERT(mate_port_ >= 0);
      if (round < ell_) {
        const Message msg = count_message(total_);
        for (int p = 0; p < ctx.degree(); ++p) {
          if (port_eligible(p)) ctx.send(p, msg);
        }
      }
    } else if (mate_port_ >= 0) {
      // Matched Y node: forward the sum to the mate only.
      if (round < ell_) ctx.send(mate_port_, count_message(total_));
    } else {
      // Free Y node: leader of n_y augmenting paths of length `round`.
      // Launch late enough that all tokens cross depth d at round
      // 2*ell + 1 - d regardless of their path length.
      is_leader_ = true;
      launch_round_ = 2 * ell_ + 1 - depth_;
      DMATCH_ASSERT(launch_round_ > ell_ - 1);
    }
  }

  void launch_token(Context& ctx) {
    DMATCH_ASSERT(!total_.is_zero());
    TokenValue tv{sample_max_of_uniforms(ctx.rng(), total_.as_double()),
                  ctx.rng()()};
    to_port_ = sample_port_by_counts(ctx);
    ctx.send(to_port_, token_message(double_to_bits(tv.value), tv.tiebreak));
  }

  void on_token(Context& ctx, int port, const TokenValue& tv) {
    // All tokens cross a node in a single round (layer synchronization),
    // so at most one forwarding decision is ever made.
    DMATCH_ASSERT(from_port_ < 0);
    from_port_ = port;
    if (side_ == 0 && mate_port_ < 0) {
      // Free X node: the token's path is selected. Flip the first edge and
      // start the trace-back.
      ctx.set_mate_port(from_port_);
      ctx.send(from_port_, augment_message());
      return;
    }
    to_port_ = side_ == 0 ? mate_port_ : sample_port_by_counts(ctx);
    ctx.send(to_port_,
             token_message(double_to_bits(tv.value), tv.tiebreak));
  }

  void on_augment(Context& ctx, int port) {
    // The trace-back must arrive along the port we forwarded the token to.
    DMATCH_ASSERT(port == to_port_);
    if (side_ == 0) {
      ctx.set_mate_port(from_port_);
    } else {
      ctx.set_mate_port(to_port_);
    }
    if (from_port_ >= 0) {
      ctx.send(from_port_, augment_message());
    }
    // from_port_ < 0 means this node is the leader: path complete.
  }

  /// Region filter: under a restriction (eligible_ set), a port may only
  /// carry protocol traffic when its edge is in the eligible set. Tokens
  /// and trace-backs retrace count edges, so filtering the floods (and
  /// asserting the matched edge) confines the whole iteration.
  [[nodiscard]] bool port_eligible(int p) const {
    if (eligible_ == nullptr) return true;
    const EdgeId e = g_->incident_edges(id_)[static_cast<std::size_t>(p)];
    return (*eligible_)[static_cast<std::size_t>(e)] != 0;
  }

  /// Choose a port proportionally to the recorded counts (the paper's
  /// stochastic backward construction, conditioned on the winner).
  int sample_port_by_counts(Context& ctx) {
    double total = 0;
    for (const SatCount& c : counts_) total += c.as_double();
    DMATCH_ASSERT(total > 0);
    double draw = ctx.rng().uniform01() * total;
    for (std::size_t p = 0; p < counts_.size(); ++p) {
      draw -= counts_[p].as_double();
      if (draw < 0) return static_cast<int>(p);
    }
    // Floating point slack: return the last positive-count port.
    for (std::size_t p = counts_.size(); p-- > 0;) {
      if (!counts_[p].is_zero()) return static_cast<int>(p);
    }
    DMATCH_ASSERT(false);
    return -1;
  }

  const std::uint8_t side_;  // 0 = X, 1 = Y
  const int ell_;

  // Region restriction (see AugmentRegion); eligible_ == nullptr means
  // unrestricted and id_/g_ stay unused.
  const NodeId id_ = kNoNode;
  const Graph* const g_ = nullptr;
  const std::vector<char>* const eligible_ = nullptr;

  int mate_port_ = -1;  // matching state at the start of the iteration
  bool visited_ = false;
  int depth_ = -1;
  std::vector<SatCount> counts_;  // per port; sized at the first counts
  SatCount total_;

  bool is_leader_ = false;
  int launch_round_ = -1;

  int from_port_ = -1;  // token arrived from (towards the leader)
  int to_port_ = -1;    // token forwarded to (towards free X)

  CountingProbe* probe_ = nullptr;
  bool halted_ = false;
};

}  // namespace

CountingProbe run_counting_probe(congest::Network& net,
                                 const std::vector<std::uint8_t>& side,
                                 int ell) {
  DMATCH_EXPECTS(ell >= 1 && ell % 2 == 1);
  const auto n = static_cast<std::size_t>(net.graph().node_count());
  CountingProbe probe;
  probe.depth.assign(n, -1);
  probe.count.assign(n, 0.0);
  net.run(
      [&side, ell, &probe](NodeId v, const Graph&) {
        return std::make_unique<AugmentIterationProcess>(
            side[static_cast<std::size_t>(v)], ell, &probe);
      },
      3 * ell + 4);
  return probe;
}

congest::ProcessFactory augment_iteration_factory(
    const std::vector<std::uint8_t>& side, int ell) {
  DMATCH_EXPECTS(ell >= 1 && ell % 2 == 1);
  return [&side, ell](NodeId v, const Graph&)
             -> std::unique_ptr<congest::Process> {
    return std::make_unique<AugmentIterationProcess>(
        side[static_cast<std::size_t>(v)], ell);
  };
}

congest::ProcessFactory augment_iteration_factory(
    const std::vector<std::uint8_t>& side, int ell,
    const AugmentRegion& region) {
  DMATCH_EXPECTS(ell >= 1 && ell % 2 == 1);
  if (!region.restricted()) return augment_iteration_factory(side, ell);
  // `region` is captured by value, but it only holds pointers: the caller
  // keeps the masks alive for the duration of the run.
  return [&side, ell, region](NodeId v, const Graph& g)
             -> std::unique_ptr<congest::Process> {
    if (region.participants != nullptr &&
        (*region.participants)[static_cast<std::size_t>(v)] == 0) {
      return nullptr;  // parked: never scheduled, register frozen
    }
    return std::make_unique<AugmentIterationProcess>(
        side[static_cast<std::size_t>(v)], ell, nullptr, v, &g,
        region.eligible_edges);
  };
}

congest::RunStats run_augment_iteration(congest::Network& net,
                                        const std::vector<std::uint8_t>& side,
                                        int ell) {
  DMATCH_EXPECTS(side.size() ==
                 static_cast<std::size_t>(net.graph().node_count()));
  return net.run(augment_iteration_factory(side, ell), 3 * ell + 4);
}

congest::RunStats run_augment_iteration(congest::Network& net,
                                        const std::vector<std::uint8_t>& side,
                                        int ell, const AugmentRegion& region) {
  DMATCH_EXPECTS(side.size() ==
                 static_cast<std::size_t>(net.graph().node_count()));
  const congest::ProcessFactory factory =
      augment_iteration_factory(side, ell, region);
  if (!region.nodes.empty()) return net.run(region.nodes, factory, 3 * ell + 4);
  return net.run(factory, 3 * ell + 4);
}

namespace {

/// One augment iteration under the resilient link layer. Exceptions from
/// mid-protocol inconsistencies (a lost message can violate the protocol's
/// internal asserts) are downgraded to a degradation flag; registers are
/// healed afterwards so the network is safe to extract from or to run the
/// next iteration on.
congest::RunStats run_resilient_iteration(
    congest::Network& net, const std::vector<std::uint8_t>& side, int ell,
    const congest::ResilientOptions& arq,
    congest::DegradationReport& degradation) {
  congest::RunStats stats;
  try {
    stats = net.run(
        congest::resilient_factory(augment_iteration_factory(side, ell), arq),
        congest::resilient_round_budget(3 * ell + 4));
    degradation.budget_exhausted |= !stats.completed;
  } catch (const ContractViolation&) {
    degradation.contract_tripped = true;
  } catch (const congest::MessageTooLarge&) {
    degradation.contract_tripped = true;
  }
  net.heal_registers(&degradation);
  return stats;
}

PhaseResult run_phase_degraded(congest::Network& net,
                               const std::vector<std::uint8_t>& side, int ell,
                               const PhaseOptions& options) {
  PhaseResult result;
  const Graph& g = net.graph();

  // Under faults an iteration may be unproductive -- or shrink the matching
  // when torn registers get healed -- so the fault-free "every iteration
  // augments" argument no longer bounds the loop; a patience counter does.
  constexpr int kFaultPatience = 8;
  const bool adaptive =
      options.termination == PhaseOptions::Termination::kAdaptiveOracle;
  const int cap = g.node_count() + 2;
  int stale = 0;
  for (int i = 0; i < cap && stale < kFaultPatience; ++i) {
    net.heal_registers(&result.degradation);
    const Matching m = net.extract_matching();
    if (adaptive) {
      const auto shortest =
          bipartite_shortest_augmenting_path_length(g, side, m);
      if (!shortest.has_value() || *shortest > ell) break;
    }
    result.stats.merge(run_resilient_iteration(net, side, ell, options.arq,
                                               result.degradation));
    ++result.iterations;
    if (net.extract_matching().size() > m.size()) {
      stale = 0;
    } else {
      ++stale;
    }
  }
  return result;
}

PhaseResult run_phase_impl(congest::Network& net,
                           const std::vector<std::uint8_t>& side, int ell,
                           const PhaseOptions& options) {
  if (net.fault_active()) return run_phase_degraded(net, side, ell, options);

  PhaseResult result;
  const Graph& g = net.graph();

  if (options.termination == PhaseOptions::Termination::kFixedBudget) {
    const double log_n =
        std::log2(std::max<double>(2.0, g.node_count()));
    const double log_delta =
        std::log2(std::max<double>(2.0, g.max_degree()));
    const double log_conflict_nodes =
        log_n + (ell + 1) / 2.0 * log_delta;  // N <= n * Delta^((ell+1)/2)
    const int budget = static_cast<int>(
        std::ceil(options.mis_budget_factor * std::max(1.0, log_conflict_nodes)));
    for (int i = 0; i < budget; ++i) {
      result.stats.merge(run_augment_iteration(net, side, ell));
      ++result.iterations;
    }
    return result;
  }

  // Adaptive: consult the exact oracle between iterations. Each executed
  // iteration augments at least one path (the globally largest token cannot
  // be killed), so this terminates within n/2 iterations.
  const int hard_cap = g.node_count() + 2;
  for (int i = 0; i < hard_cap; ++i) {
    const Matching m = net.extract_matching();
    const auto shortest =
        bipartite_shortest_augmenting_path_length(g, side, m);
    if (!shortest.has_value() || *shortest > ell) return result;
    result.stats.merge(run_augment_iteration(net, side, ell));
    ++result.iterations;
  }
  DMATCH_ASSERT(false);  // unreachable: every iteration makes progress
  return result;
}

}  // namespace

PhaseResult run_phase(congest::Network& net,
                      const std::vector<std::uint8_t>& side, int ell,
                      const PhaseOptions& options) {
  DMATCH_OBS(obs::Observer* const ob = net.observer();
             if (ob != nullptr) {
               ob->phase_begin("aug.phase", static_cast<std::uint64_t>(ell));
             })
  PhaseResult result = run_phase_impl(net, side, ell, options);
  DMATCH_OBS(if (ob != nullptr) {
    ob->phase_end("aug.phase", static_cast<std::uint64_t>(ell));
  })
  return result;
}

PhaseResult run_phase(congest::Network& net,
                      const std::vector<std::uint8_t>& side, int ell,
                      const PhaseOptions& options,
                      const AugmentRegion& region) {
  if (!region.restricted()) return run_phase(net, side, ell, options);
  DMATCH_EXPECTS(!net.fault_active());
  DMATCH_EXPECTS(region.eligible_edges != nullptr &&
                 region.participants != nullptr);
  (void)options;  // region phases always terminate via the masked oracle
  DMATCH_OBS(obs::Observer* const ob = net.observer();
             if (ob != nullptr) {
               ob->phase_begin("aug.region", static_cast<std::uint64_t>(ell));
             })
  PhaseResult result;
  const Graph& g = net.graph();
  // Same argument as the unrestricted adaptive loop: the region's
  // globally largest token cannot be killed, so every executed iteration
  // augments at least one in-region path.
  const int hard_cap = g.node_count() + 2;
  for (int i = 0; i < hard_cap; ++i) {
    const Matching m = net.extract_matching();
    const auto shortest = bipartite_shortest_augmenting_path_length(
        g, side, m, *region.eligible_edges, *region.participants);
    if (!shortest.has_value() || *shortest > ell) break;
    result.stats.merge(run_augment_iteration(net, side, ell, region));
    ++result.iterations;
    DMATCH_ASSERT(i < hard_cap - 1);  // every iteration makes progress
  }
  DMATCH_OBS(if (ob != nullptr) {
    ob->phase_end("aug.region", static_cast<std::uint64_t>(ell));
  })
  return result;
}

BipartiteMcmResult bipartite_mcm(congest::Network& net,
                                 const std::vector<std::uint8_t>& side,
                                 const BipartiteMcmOptions& options) {
  DMATCH_EXPECTS(options.k >= 1);
  BipartiteMcmResult result;
  for (int ell = 1; ell <= 2 * options.k - 1; ell += 2) {
    PhaseResult pr = run_phase(net, side, ell, options.phase);
    result.stats.merge(pr.stats);
    result.degradation.merge(pr.degradation);
    result.iterations += pr.iterations;
    ++result.phases;
  }
  if (net.fault_active()) net.heal_registers(&result.degradation);
  result.matching = net.extract_matching();
  return result;
}

}  // namespace dmatch
