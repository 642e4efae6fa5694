#include "mis/luby.hpp"

#include <memory>

namespace dmatch {

namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Process;

enum class MisState : std::uint8_t { kUndecided, kIn, kOut };

/// Message kinds. DRAW carries (value, id) for lexicographic comparison;
/// JOIN announces MIS membership. A decided node simply stops sending
/// DRAWs, which its neighbors observe as silence (allowed in a synchronous
/// model).
enum MsgKind : std::uint64_t { kDraw = 0, kJoin = 1 };

class LubyProcess final : public Process {
 public:
  explicit LubyProcess(std::vector<std::uint8_t>& out) : out_(out) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    if (state_ != MisState::kUndecided) {
      halted_ = true;
      return;
    }
    const bool draw_round = (ctx.round() % 2) == 0;
    if (draw_round) {
      // A JOIN heard from any neighbor decides us out.
      for (const Envelope& env : inbox) {
        auto reader = env.msg.reader();
        if (reader.read(1) == kJoin) {
          decide(ctx, MisState::kOut);
          return;
        }
      }
      if (ctx.degree() == 0) {
        decide(ctx, MisState::kIn);
        return;
      }
      value_ = ctx.rng()();
      BitWriter w;
      w.write(kDraw, 1);
      w.write(value_, 64);
      const Message msg = Message::from_writer(std::move(w));
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
    } else {
      bool is_local_max = true;
      for (const Envelope& env : inbox) {
        auto reader = env.msg.reader();
        if (reader.read(1) != kDraw) continue;
        const std::uint64_t their = reader.read(64);
        const NodeId their_id = ctx.neighbor_id(env.port);
        // Lexicographic (value, id) order; ids are distinct, so the order
        // is strict and adjacent double-joins are impossible.
        if (their > value_ || (their == value_ && their_id > ctx.id())) {
          is_local_max = false;
        }
      }
      if (is_local_max) {
        BitWriter w;
        w.write(kJoin, 1);
        const Message msg = Message::from_writer(std::move(w));
        for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
        decide(ctx, MisState::kIn);
      }
    }
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  void decide(Context& ctx, MisState s) {
    state_ = s;
    out_[static_cast<std::size_t>(ctx.id())] = (s == MisState::kIn) ? 1 : 0;
    halted_ = true;
  }

  std::vector<std::uint8_t>& out_;
  MisState state_ = MisState::kUndecided;
  std::uint64_t value_ = 0;
  bool halted_ = false;
};

}  // namespace

congest::ProcessFactory luby_mis_factory(std::vector<std::uint8_t>& out) {
  return [&out](NodeId, const Graph&) -> std::unique_ptr<congest::Process> {
    return std::make_unique<LubyProcess>(out);
  };
}

MisResult luby_mis_distributed(congest::Network& net, int max_rounds) {
  MisResult result;
  result.in_mis.assign(
      static_cast<std::size_t>(net.graph().node_count()), 0);
  result.stats = net.run(luby_mis_factory(result.in_mis), max_rounds);
  return result;
}

bool is_maximal_independent_set(const std::vector<std::vector<int>>& adj,
                                const std::vector<std::uint8_t>& in_mis) {
  if (in_mis.size() != adj.size()) return false;
  for (std::size_t v = 0; v < adj.size(); ++v) {
    bool dominated = in_mis[v] != 0;
    for (int u : adj[v]) {
      const auto ui = static_cast<std::size_t>(u);
      if (in_mis[v] && in_mis[ui]) return false;  // not independent
      dominated = dominated || in_mis[ui] != 0;
    }
    if (!dominated) return false;  // not maximal
  }
  return true;
}

}  // namespace dmatch
