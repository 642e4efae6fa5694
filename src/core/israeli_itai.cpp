#include "core/israeli_itai.hpp"

#include <algorithm>
#include <memory>

#include "congest/resilient.hpp"
#include "core/wrap_gain.hpp"
#include "support/wire.hpp"

namespace dmatch {

namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Process;

enum MsgKind : std::uint64_t { kMatched = 0, kPropose = 1, kAccept = 2 };

Message make_msg(MsgKind kind) {
  BitWriter w;
  w.write(kind, 2);
  return Message::from_writer(std::move(w));
}

/// One Israeli-Itai node. Iterations take three rounds:
///   round 0 (mod 3): prune candidates, announce fresh matches, propose;
///   round 1: acceptors pick one proposal and send ACCEPT;
///   round 2: proposers that were accepted become matched.
class IiProcess final : public Process {
 public:
  IiProcess(NodeId id, const Graph& g, std::span<const char> eligible_edges)
      : eligible_(static_cast<std::size_t>(g.degree(id)), true) {
    if (!eligible_edges.empty()) {
      const auto ports = g.incident_edges(id);
      for (std::size_t p = 0; p < ports.size(); ++p) {
        eligible_[p] = eligible_edges[static_cast<std::size_t>(ports[p])];
      }
    }
  }

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    // MATCHED announcements prune candidates regardless of phase.
    std::vector<int> proposals;
    bool accepted = false;
    for (const Envelope& env : inbox) {
      auto reader = env.msg.reader();
      switch (reader.read(2)) {
        case kMatched:
          eligible_[static_cast<std::size_t>(env.port)] = false;
          break;
        case kPropose:
          proposals.push_back(env.port);
          break;
        case kAccept:
          accepted = true;
          // The ACCEPT can only come from the port we proposed to.
          DMATCH_ASSERT(env.port == proposed_port_);
          break;
        default:
          break;
      }
    }

    switch (ctx.round() % 3) {
      case 0: {
        if (matched_ || ctx.mate_port() >= 0) {
          // Newly matched (or pre-matched at protocol start): announce once
          // and stop participating.
          matched_ = true;
          const Message msg = make_msg(kMatched);
          for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
          halted_ = true;
          return;
        }
        std::vector<int> candidates;
        for (int p = 0; p < ctx.degree(); ++p) {
          if (eligible_[static_cast<std::size_t>(p)]) candidates.push_back(p);
        }
        if (candidates.empty()) {
          halted_ = true;  // no free eligible neighbor can remain
          return;
        }
        proposer_ = ctx.rng().coin();
        proposed_port_ = -1;
        if (proposer_) {
          proposed_port_ = candidates[static_cast<std::size_t>(
              ctx.rng().uniform(candidates.size()))];
          ctx.send(proposed_port_, make_msg(kPropose));
        }
        break;
      }
      case 1: {
        if (matched_ || proposer_ || proposals.empty()) break;
        const int chosen = proposals[static_cast<std::size_t>(
            ctx.rng().uniform(proposals.size()))];
        ctx.send(chosen, make_msg(kAccept));
        ctx.set_mate_port(chosen);
        matched_ = true;
        break;
      }
      case 2: {
        if (proposer_ && accepted) {
          ctx.set_mate_port(proposed_port_);
          matched_ = true;
        }
        break;
      }
      default:
        break;
    }
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  std::vector<char> eligible_;
  bool matched_ = false;
  bool proposer_ = false;
  int proposed_port_ = -1;
  bool halted_ = false;
};

std::unique_ptr<congest::Process> make_ii(NodeId v, const Graph& g,
                                         std::span<const char> eligible) {
  if (!eligible.empty()) {
    DMATCH_EXPECTS(eligible.size() == static_cast<std::size_t>(g.edge_count()));
  }
  return std::make_unique<IiProcess>(v, g, eligible);
}

}  // namespace

congest::ProcessFactory israeli_itai_factory(IsraeliItaiOptions options) {
  return [options = std::move(options)](NodeId v, const Graph& g) {
    return make_ii(v, g, options.eligible_edges);
  };
}

congest::ProcessFactory israeli_itai_factory(
    std::span<const char> eligible_edges) {
  return [eligible_edges](NodeId v, const Graph& g) {
    return make_ii(v, g, eligible_edges);
  };
}

IsraeliItaiResult israeli_itai(congest::Network& net,
                               const IsraeliItaiOptions& options) {
  IsraeliItaiResult result;
  DMATCH_OBS(obs::Observer* const ob = net.observer();
             if (ob != nullptr) ob->phase_begin("mm.israeli_itai");)
  if (!net.fault_active()) {
    result.stats =
        net.run(israeli_itai_factory(options), options.max_rounds);
    result.matching = net.extract_matching();
    DMATCH_OBS(if (ob != nullptr) ob->phase_end("mm.israeli_itai");)
    return result;
  }

  // Fault mode: run under the resilient link layer with a watchdog
  // budget and checkpoint/restart recovery. A free node whose only
  // eligible neighbors sit behind dead links never learns it should
  // halt, so budget exhaustion is a normal degraded outcome, not an
  // error; a contract trip (e.g. a stale ACCEPT surfacing after a
  // restart) rolls the registers back and replays against the advanced
  // fault stream. Healing afterwards guarantees the extracted matching
  // is valid over the surviving nodes.
  result.stats = run_stage_checkpointed(
      net, israeli_itai_factory(options), std::min(options.max_rounds, 4096),
      /*max_attempts=*/3, result.degradation, options.arq);
  result.matching = net.extract_matching();
  DMATCH_OBS(if (ob != nullptr) ob->phase_end("mm.israeli_itai");)
  return result;
}

}  // namespace dmatch
