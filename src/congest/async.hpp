// Asynchronous execution and Awerbuch's alpha synchronizer.
//
// The paper assumes a synchronous network and notes (footnote 2) that this
// is without loss of generality via a synchronizer. This module makes that
// concrete: an event-driven asynchronous network in which every message
// suffers an arbitrary (seeded, bounded) delay, plus an adapter that runs
// any synchronous congest::Process on top of it using the alpha
// synchronizer [Awerbuch 1985]:
//
//   * a node executing simulated round R stamps its payload messages DATA(R);
//   * every DATA is acknowledged; once all of a node's DATA(R) are acked it
//     announces SAFE(R) to all neighbors;
//   * a node starts round R+1 once it has executed round R and heard
//     SAFE(R) from every neighbor (all round-R messages addressed to it
//     have then been delivered).
//
// run_synchronized() returns the same per-node results as the synchronous
// Network for the same node RNG streams -- asserted by the test suite.
//
// Execution model (see docs/PROTOCOLS.md, "Event loop"): one priority
// queue of events, popped in canonical-key order (timestamp,
// destination, kind, port, round, synthetic-copy flag) on the calling
// thread. Per-event delivery delays are pure hashes of that key, never
// draws from a shared stream, so a run is a pure function of its inputs.
// The loop pops in windows of width `min_delay` and checks for
// quiescence between windows: the window boundaries decide where a
// finished run stops, and with it AsyncStats::events and
// completion_time.
//
// Fault awareness: AsyncOptions carries the same FaultPlan the round
// engine takes, and the executor injects the same seed-hashed fault
// history — every drop/duplicate/delay/reorder decision is the identical
// mix(run_seed, round, slot) hash the engine draws, and the crash
// schedule is the identical compute_crash_schedule() table — so a
// protocol run under a plan agrees between the two executors round for
// round. Faults act on the *payload plane* only: a dropped DATA message
// still traverses the network as a synchronizer event and is
// acknowledged (the alpha synchronizer's control plane is reliable, as
// in Awerbuch's model), but its payload never reaches the inbox. A
// delayed payload is filed for a later simulated round; a duplicate adds
// a synthetic second delivery that generates no acknowledgement. Crashed
// nodes stop executing their protocol but keep synchronizing (they
// acknowledge and announce SAFE with no data) so their neighbors never
// deadlock, and crash-restarts resurrect them with fresh protocol state
// and a cleared output register — exactly the engine's semantics. The
// executor keeps only its event queue and synchronizer: the context a
// node runs in, each message's fault fate and the inbox reorder are
// congest/kernel's, shared with the round engine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "congest/process.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"

namespace dmatch::congest {

struct AsyncOptions {
  /// Per-message delivery delay bounds (uniform, seeded). min_delay is
  /// also the width of the event loop's windows, between which it
  /// checks for quiescence.
  double min_delay = 0.1;
  double max_delay = 3.0;
  /// Fault plan with the round engine's semantics. Inactive by default.
  FaultPlan fault;
  /// Observability sink (not owned; must outlive the run). Virtual
  /// rounds advance the Observer's clock just like engine rounds, so an
  /// async run slots into the same trace timeline; nullptr or
  /// -DDMATCH_OBS_DISABLED keeps the executor unobserved.
  obs::Observer* observer = nullptr;
};

struct AsyncStats {
  std::uint64_t events = 0;          // message deliveries processed
  std::uint64_t payload_messages = 0;
  std::uint64_t control_messages = 0;  // ACK + SAFE overhead
  std::uint64_t virtual_rounds = 0;    // max simulated round executed
  double completion_time = 0;          // async time of the last delivery
  bool completed = true;
  /// Payload messages sent by nodes executing simulated round r
  /// (degenerate crashed rounds contribute zero, like the engine's
  /// unstepped dead nodes). The async counterpart of
  /// RunStats.round_messages: sum(round_payloads) == payload_messages,
  /// cross-checked by core/verify's verify_round_accounting.
  std::vector<std::uint64_t> round_payloads;

  // Fault counters, mirroring RunStats so sync/async histories can be
  // compared directly. All zero without an active plan.
  std::uint64_t dropped_messages = 0;
  std::uint64_t duplicated_messages = 0;
  std::uint64_t delayed_messages = 0;
  std::uint64_t reordered_inboxes = 0;
  std::uint64_t crashed_nodes = 0;
  std::uint64_t restarted_nodes = 0;
};

/// Runs the synchronous protocol built by `factory` over an asynchronous
/// network with per-message delays drawn uniformly from
/// [options.min_delay, options.max_delay], injecting options.fault. The
/// matching registers live in `mate_ports` (size n, -1 = unmatched),
/// exactly like Network's registers; pass a vector initialized to the
/// starting matching. If `dead_out` is non-null it receives the
/// end-of-run dead-node mask (size n, all zero without a plan).
AsyncStats run_synchronized(const Graph& g, const ProcessFactory& factory,
                            std::vector<int>& mate_ports, std::uint64_t seed,
                            int max_virtual_rounds,
                            const AsyncOptions& options = {},
                            std::vector<char>* dead_out = nullptr);

/// Convenience: run on an empty matching and return it. Without an
/// active plan the registers must be strictly consistent (asserted);
/// with one, the same register healing Network applies is performed
/// here — dead/torn registers are cleared and reported — so the
/// returned matching is always valid over the surviving nodes.
struct AsyncRunResult {
  Matching matching;
  AsyncStats stats;
  DegradationReport degradation;
  std::vector<char> dead_nodes;  // dead at end of run; empty w/o plan
};
AsyncRunResult run_synchronized(const Graph& g, const ProcessFactory& factory,
                                std::uint64_t seed, int max_virtual_rounds,
                                const AsyncOptions& options = {});

}  // namespace dmatch::congest
