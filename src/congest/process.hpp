// The node-program interface of the synchronous message-passing model.
//
// One Process instance runs at each node. In every round the Network calls
// on_round with the messages that neighbors sent in the previous round; the
// process may send messages through the Context, update its local state,
// and update its matching output register. A protocol terminates when every
// process reports halted and no message is in flight.
#pragma once

#include <span>

#include "congest/message.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace dmatch::obs {
class ShardObs;
}  // namespace dmatch::obs

namespace dmatch::congest {

/// Per-node view of the network, provided by the simulator. Exposes only
/// information a CONGEST node legitimately has: its id, its ports, the ids
/// and edge weights of its neighbors, a global bound on n (standard
/// assumption: nodes know W_max with log W_max = O(log n)), a private
/// random stream, and its output register.
class Context {
 public:
  virtual ~Context() = default;

  [[nodiscard]] virtual NodeId id() const = 0;
  [[nodiscard]] virtual int degree() const = 0;
  [[nodiscard]] virtual NodeId neighbor_id(int port) const = 0;
  [[nodiscard]] virtual Weight edge_weight(int port) const = 0;

  /// Common upper bound on the number of nodes / identifier values.
  [[nodiscard]] virtual NodeId n_bound() const = 0;

  /// Current round number (0-based within the running protocol).
  [[nodiscard]] virtual int round() const = 0;

  /// This node's private randomness.
  virtual Rng& rng() = 0;

  /// Queue a message for delivery to the neighbor on `port` next round.
  /// At most one message per port per round; over-cap messages throw in
  /// CONGEST mode.
  virtual void send(int port, Message msg) = 0;

  /// Matching output register: the port of the matched edge, or -1.
  [[nodiscard]] virtual int mate_port() const = 0;
  virtual void set_mate_port(int port) = 0;
  virtual void clear_mate() = 0;

  /// Scheduling hint: this node has nothing to do before run-local round
  /// `round` unless a message arrives. Until then, a step with an empty
  /// inbox must be a no-op for it — no send, no RNG draw, no register or
  /// state change — so an executor may skip those steps or ignore the
  /// hint (the default) and produce the same results. The hint covers
  /// the current step only: a node stepped again (woken by a message or
  /// by the round it named) stays awake unless it sleeps again.
  virtual void sleep_until([[maybe_unused]] int round) {}

  /// Observability handle of the shard executing this node, or nullptr
  /// when no Observer is attached. Not part of the CONGEST model —
  /// wrappers (e.g. the resilient transport) use it to emit trace events
  /// without widening the protocol interface.
  [[nodiscard]] virtual obs::ShardObs* obs() noexcept { return nullptr; }
};

class Process {
 public:
  virtual ~Process() = default;

  /// Execute one synchronous round. `inbox` holds the messages sent to this
  /// node in the previous round, in ascending port order.
  virtual void on_round(Context& ctx, std::span<const Envelope> inbox) = 0;

  /// True once this node will neither send nor change state again.
  [[nodiscard]] virtual bool halted() const = 0;
};

}  // namespace dmatch::congest
