// Committed result digests (ctest label `golden`).
//
// The other suites compare runs with each other inside one build: thread
// counts, rank counts, executors. A change that moves every run the same
// way passes all of them. Each cell here runs one public driver on a
// seeded input and folds what the run produced — the matching, the
// RunStats, AsyncStats or EpochReport state fields, and the metrics JSON
// bytes — into one 64-bit FNV-1a digest, compared with the cell's line in
// tests/golden/digests.txt. Traces stay out of the digests: the
// `round.active` counter counts scheduled nodes, which is engine
// bookkeeping, not a result.
//
// When a change is meant to move results, rewrite the file and commit the
// reviewed diff:
//
//   ./build/tests/test_golden --gtest_also_run_disabled_tests
//       --gtest_filter=Golden.DISABLED_RewriteDigestFile
//
// (one command line).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "congest/async.hpp"
#include "congest/network.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/general_mcm.hpp"
#include "core/israeli_itai.hpp"
#include "core/local_generic_mcm.hpp"
#include "core/local_mwm.hpp"
#include "dyn/service.hpp"
#include "dyn/workload.hpp"
#include "graph/generators.hpp"
#include "mp_harness.hpp"
#include "obs/obs.hpp"
#include "support/rng.hpp"
#include "support/wire.hpp"

namespace dmatch {
namespace {

/// 64-bit FNV-1a over a canonical little-endian byte stream.
class Digest {
 public:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }

  void matching(const Matching& m) {
    u64(static_cast<std::uint64_t>(m.node_count()));
    for (NodeId v = 0; v < m.node_count(); ++v) {
      u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(
          m.matched_edge(v))));
    }
  }
  void stats(const congest::RunStats& s) {
    u64(s.rounds);
    u64(s.messages);
    u64(s.total_bits);
    u64(s.max_message_bits);
    u64(s.completed ? 1 : 0);
    u64(s.round_messages.size());
    for (const std::uint64_t r : s.round_messages) u64(r);
    u64(s.dropped_messages);
    u64(s.duplicated_messages);
    u64(s.delayed_messages);
    u64(s.reordered_inboxes);
    u64(s.crashed_nodes);
    u64(s.restarted_nodes);
  }
  void async_stats(const congest::AsyncStats& s) {
    u64(s.events);
    u64(s.payload_messages);
    u64(s.control_messages);
    u64(s.virtual_rounds);
    f64(s.completion_time);
    u64(s.completed ? 1 : 0);
    u64(s.round_payloads.size());
    for (const std::uint64_t r : s.round_payloads) u64(r);
    u64(s.dropped_messages);
    u64(s.duplicated_messages);
    u64(s.delayed_messages);
    u64(s.reordered_inboxes);
    u64(s.crashed_nodes);
    u64(s.restarted_nodes);
  }
  void mask(const std::vector<char>& m) {
    u64(m.size());
    for (const char c : m) byte(static_cast<std::uint8_t>(c));
  }
  void degradation(const congest::DegradationReport& d) {
    u64(d.budget_exhausted ? 1 : 0);
    u64(d.contract_tripped ? 1 : 0);
    u64(d.crashed_nodes);
    u64(d.torn_registers_healed);
    u64(d.dead_registers_healed);
  }
  void metrics(const obs::Observer& o) {
    std::ostringstream os;
    o.metrics().write_json(os);
    str(os.str());
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The one fault plan of the faulty cells: message drops and delays plus
/// crash-restarts.
congest::FaultPlan drop_delay_crash_plan() {
  congest::FaultPlan plan;
  plan.drop_prob = 0.03;
  plan.delay_prob = 0.03;
  plan.max_delay = 2;
  plan.crash_prob = 0.02;
  plan.crash_round_bound = 48;
  plan.restart_prob = 1.0;
  plan.restart_delay = 6;
  plan.seed = 11;
  return plan;
}

Graph alg3_graph(int which) {
  return which == 0 ? gen::bipartite_gnp(150, 150, 4.0 / 150, 101)
                    : gen::bipartite_gnp(120, 180, 5.0 / 150, 202);
}

std::uint64_t alg3_cell(int which, unsigned threads, bool faulty) {
  const Graph g = alg3_graph(which);
  const auto side = g.bipartition();
  DMATCH_EXPECTS(side.has_value());
  obs::Observer observer;
  congest::Network::Options options;
  options.num_threads = threads;
  if (faulty) options.fault = drop_delay_crash_plan();
  options.observer = &observer;
  congest::Network net(g, congest::Model::kCongest, 7 + which, 48, options);
  BipartiteMcmOptions bo;
  bo.k = 3;
  const BipartiteMcmResult r = bipartite_mcm(net, *side, bo);
  Digest d;
  d.matching(r.matching);
  d.stats(r.stats);
  d.u64(static_cast<std::uint64_t>(r.phases));
  d.u64(static_cast<std::uint64_t>(r.iterations));
  d.degradation(r.degradation);
  d.metrics(observer);
  return d.value();
}

std::uint64_t counting_probe_cell() {
  const Graph g = gen::bipartite_gnp(200, 200, 3.0 / 200, 303);
  const auto side = g.bipartition();
  DMATCH_EXPECTS(side.has_value());
  congest::Network::Options options;
  options.num_threads = 2;
  congest::Network net(g, congest::Model::kCongest, 5, 48, options);
  // A maximal matching first, so the probe counts paths of length 3.
  (void)israeli_itai(net, {});
  const CountingProbe probe = run_counting_probe(net, *side, 3);
  Digest d;
  for (const int depth : probe.depth) {
    d.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(depth)));
  }
  for (const double c : probe.count) d.f64(c);
  d.stats(net.total_stats());
  return d.value();
}

std::uint64_t alg4_cell() {
  const Graph g = gen::gnp(160, 4.0 / 160, 404);
  obs::Observer observer;
  GeneralMcmOptions go;
  go.k = 2;
  go.seed = 9;
  go.num_threads = 2;
  go.observer = &observer;
  const GeneralMcmResult r = general_mcm(g, go);
  Digest d;
  d.matching(r.matching);
  d.stats(r.stats);
  d.u64(static_cast<std::uint64_t>(r.iterations));
  d.u64(static_cast<std::uint64_t>(r.productive_iterations));
  d.degradation(r.degradation);
  d.metrics(observer);
  return d.value();
}

std::uint64_t israeli_itai_cell() {
  const Graph g = gen::gnp(600, 5.0 / 600, 505);
  obs::Observer observer;
  congest::Network::Options options;
  options.num_threads = 4;
  options.observer = &observer;
  congest::Network net(g, congest::Model::kCongest, 13, 48, options);
  const IsraeliItaiResult r = israeli_itai(net, {});
  Digest d;
  d.matching(r.matching);
  d.stats(r.stats);
  d.degradation(r.degradation);
  d.metrics(observer);
  return d.value();
}

/// LOCAL Algorithms 1 + 2 (Theorem 3.7): the matching, the RunStats and
/// the phase and retry counts.
std::uint64_t local_generic_cell(const Graph& g, double epsilon,
                                 std::uint64_t seed) {
  LocalGenericOptions options;
  options.epsilon = epsilon;
  options.seed = seed;
  const LocalGenericResult r = local_generic_mcm(g, options);
  Digest d;
  d.matching(r.matching);
  d.stats(r.stats);
  d.u64(static_cast<std::uint64_t>(r.phases));
  d.u64(static_cast<std::uint64_t>(r.phase_retries));
  return d.value();
}

/// Section 4's LOCAL (1 - eps)-MWM: the matching, the RunStats and the
/// sweep count. A positive `reaches` is the weight the run must end at.
std::uint64_t local_mwm_cell(const Graph& g, double epsilon, bool adaptive,
                             std::uint64_t seed, Weight reaches = 0) {
  LocalMwmOptions options;
  options.epsilon = epsilon;
  options.adaptive_sweeps = adaptive;
  options.seed = seed;
  const LocalMwmResult r = local_one_minus_eps_mwm(g, options);
  if (reaches > 0) {
    EXPECT_DOUBLE_EQ(r.matching.weight(g), reaches);
  }
  Digest d;
  d.matching(r.matching);
  d.stats(r.stats);
  d.u64(static_cast<std::uint64_t>(r.sweeps));
  return d.value();
}

/// A C4 whose four gains share one class, so the first sweep can take the
/// light pair; the only improvement left is then the alternating cycle,
/// and the run must apply it (weight 2 -> 3). The cycle runs 0-1-2-3-0,
/// and `heavy_first` puts the heavy pair on 0-1, so the light matching
/// leaves the cycle's first edge unmatched.
std::uint64_t local_mwm_c4_cell(bool heavy_first, std::uint64_t seed) {
  const Weight a = heavy_first ? 1.5 : 1.0;
  const Weight b = heavy_first ? 1.0 : 1.5;
  return local_mwm_cell(
      Graph::from_edges(4, {{0, 1, a}, {1, 2, b}, {2, 3, a}, {0, 3, b}}),
      0.5, true, seed, 3.0);
}

/// A MatchingService trajectory: every EpochReport state field
/// (wall-clock fields excluded), the certificate of a certifying service,
/// the final matching and the metrics JSON.
std::uint64_t dyn_digest(const dyn::MatchingService& svc,
                         const obs::Observer& observer) {
  Digest d;
  for (const dyn::EpochReport& r : svc.history()) {
    d.u64(r.epoch.index);
    d.u64(r.epoch.first);
    d.u64(r.epoch.count);
    d.u64(r.ops);
    d.u64(r.dirty_nodes);
    d.u64(r.active_nodes);
    d.u64(r.frozen_nodes);
    d.u64(r.full_recompute ? 1 : 0);
    d.u64(r.rebuilt ? 1 : 0);
    d.stats(r.stats);
    d.u64(r.matching_size);
    d.f64(r.matching_weight);
    d.u64(static_cast<std::uint64_t>(r.augment_iterations));
    d.u64(static_cast<std::uint64_t>(r.augment_phase_iterations));
    d.u64(static_cast<std::uint64_t>(r.augment_gained));
    d.u64(r.augment_escalated ? 1 : 0);
    if (r.certificate.has_value()) {
      EXPECT_TRUE(r.certificate->ok())
          << "epoch " << r.epoch.index << ": " << r.certificate->summary();
      d.u64(r.certificate->size);
      d.u64(r.certificate->optimal_size);
      d.f64(r.certificate->ratio);
    }
  }
  d.matching(svc.matching());
  d.metrics(observer);
  return d.value();
}

/// A seeded MatchingService trajectory on G(2000, 3/n) under the
/// workload's flap or uniform churn.
std::uint64_t dyn_cell(bool flap, int quality_k, unsigned threads) {
  constexpr NodeId kNodes = 2000;
  constexpr std::size_t kEpochs = 40;
  const Graph g = gen::gnp(kNodes, 3.0 / kNodes, flap ? 606 : 707);
  // Link profiling is on (the ObsConfig default), so uniform churn's
  // universe rebuilds re-bind the profiler; its report is not part of
  // the metrics JSON, so the digests do not depend on it.
  obs::Observer observer;
  dyn::ServiceOptions so;
  so.limits.max_ops = 16;
  so.limits.max_latency_us = 20'000;
  so.repair.quality_k = quality_k;
  so.repair.num_threads = threads;
  so.repair.seed = 17;
  so.repair.observer = &observer;
  dyn::WorkloadOptions wo;
  wo.mode = flap ? dyn::WorkloadMode::kAdversarialFlap
                 : dyn::WorkloadMode::kUniform;
  wo.seed = 19;
  dyn::MatchingService svc(g, so);
  dyn::Workload w(g, wo);
  while (svc.history().size() < kEpochs) {
    (void)svc.submit(w.next(svc.mate_view()));
  }
  return dyn_digest(svc, observer);
}

/// A scripted trajectory that grows the id space, on G(200, 3/n) with 8-op
/// epochs and every epoch certified (the exact optimum included). The
/// script inserts pairs that name new vertex ids, returns a fresh id,
/// departs an id that exists only in the pending queue (once returning it
/// in the same epoch, once in a later one), and fills the rest with
/// seeded churn over the ids seen so far.
std::uint64_t dyn_grow_cell(int quality_k, unsigned threads) {
  constexpr NodeId kNodes = 200;
  const Graph g = gen::gnp(kNodes, 3.0 / kNodes, 909);
  obs::Observer observer;
  dyn::ServiceOptions so;
  so.limits.max_ops = 8;
  so.limits.max_latency_us = 1'000'000;
  so.repair.quality_k = quality_k;
  so.repair.num_threads = threads;
  so.repair.seed = 23;
  so.repair.observer = &observer;
  so.repair.certify = true;
  so.repair.certify_ratio = true;
  dyn::MatchingService svc(g, so);
  std::uint64_t at = 0;
  NodeId ids = kNodes;  // one past the largest id named so far
  const auto op = [&](dyn::OpKind kind, NodeId u, NodeId v = kNoNode,
                      Weight w = 1.0) {
    if (u >= ids) ids = u + 1;
    if (v >= ids) ids = v + 1;
    (void)svc.submit(dyn::UpdateOp{kind, u, v, w, at++});
  };
  using dyn::OpKind;
  // Epoch 1: new ids 200..202; 202 departs while only pending and
  // returns before the epoch closes.
  op(OpKind::kEdgeInsert, 3, 200);
  op(OpKind::kEdgeInsert, 200, 201);
  op(OpKind::kEdgeInsert, 201, 7);
  op(OpKind::kEdgeInsert, 202, 9);
  op(OpKind::kVertexDepart, 202);
  op(OpKind::kVertexReturn, 202);
  op(OpKind::kEdgeInsert, 11, 12, 2.5);
  op(OpKind::kEdgeDelete, g.edge(0).u, g.edge(0).v);
  // Epoch 2: 203 departs while only pending and stays away; 210 returns
  // without ever having been named; a pending pair is re-weighted and
  // another deleted before either materializes.
  op(OpKind::kEdgeInsert, 203, 4);
  op(OpKind::kEdgeInsert, 203, 201);
  op(OpKind::kVertexDepart, 203);
  op(OpKind::kVertexReturn, 210);
  op(OpKind::kEdgeInsert, 205, 206);
  op(OpKind::kEdgeWeight, 205, 206, 3.0);
  op(OpKind::kEdgeInsert, 207, 208);
  op(OpKind::kEdgeDelete, 208, 207);
  // Epoch 3: 203 comes back (materialized dead last epoch), 210 gains
  // pairs, a materialized new id departs.
  op(OpKind::kVertexReturn, 203);
  op(OpKind::kEdgeInsert, 210, 5);
  op(OpKind::kEdgeInsert, 210, 203);
  op(OpKind::kVertexDepart, 200);
  op(OpKind::kEdgeInsert, 206, 1);
  op(OpKind::kEdgeInsert, 211, 212);
  op(OpKind::kVertexReturn, 200);
  op(OpKind::kEdgeInsert, 212, 0);
  // Seeded churn over the ids named so far and a few beyond them.
  Rng rng(29);
  for (int i = 0; i < 24 * 8; ++i) {
    const auto pick = [&](NodeId bound) {
      return static_cast<NodeId>(
          rng.uniform(static_cast<std::uint64_t>(bound)));
    };
    const std::uint64_t kind = rng.uniform(10);
    if (kind < 5) {
      const NodeId u = pick(ids + 3);
      NodeId v = pick(ids + 3);
      if (v == u) v = (u + 1) % (ids + 3);
      op(OpKind::kEdgeInsert, u, v, 1.0 + static_cast<Weight>(rng.uniform(4)));
    } else if (kind < 8) {
      const NodeId u = pick(ids);
      NodeId v = pick(ids);
      if (v == u) v = (u + 1) % ids;
      op(OpKind::kEdgeDelete, u, v);
    } else if (kind < 9) {
      op(OpKind::kVertexDepart, pick(ids + 2));
    } else {
      op(OpKind::kVertexReturn, pick(ids + 2));
    }
  }
  (void)svc.flush();
  EXPECT_GT(svc.engine().graph().node_count(), kNodes + 12);
  return dyn_digest(svc, observer);
}

std::uint64_t mp_israeli_itai_cell(unsigned procs) {
  const Graph g = gen::gnp(400, 5.0 / 400, 808);
  mptest::MpConfig cfg;
  cfg.procs = procs;
  cfg.with_obs = true;
  const mptest::MpRun run = mptest::run_mp(g, 21, israeli_itai_factory(), cfg);
  Digest d;
  d.u64(run.root.tripped ? 1 : 0);
  d.matching(run.root.matching);
  d.stats(run.root.stats);
  d.degradation(run.root.degradation);
  d.str(run.metrics_json);
  return d.value();
}

/// An alpha-synchronizer run: the matching, every AsyncStats field, the
/// dead mask, the degradation report and the metrics JSON.
std::uint64_t async_digest(const congest::AsyncRunResult& r,
                           const obs::Observer& observer) {
  Digest d;
  d.matching(r.matching);
  d.async_stats(r.stats);
  d.mask(r.dead_nodes);
  d.degradation(r.degradation);
  d.metrics(observer);
  return d.value();
}

/// Israeli–Itai through the synchronizer: fault-free; under message drops
/// plus crash-restarts (some crashed nodes never come back), where a node
/// can wait forever for a lost reply, so the run ends at its round
/// budget; or cut short by a small budget under wide delay bounds. Runs
/// that end at the budget stop on drained queues, not on quiescence.
enum class AsyncIiCase { kClean, kDropCrash, kTruncated };

std::uint64_t async_israeli_itai_cell(AsyncIiCase c) {
  const Graph g = gen::gnp(300, 5.0 / 300, 909);
  obs::Observer observer;
  congest::AsyncOptions options;
  options.observer = &observer;
  int max_rounds = 4096;
  if (c == AsyncIiCase::kDropCrash) {
    max_rounds = 512;
    options.fault.drop_prob = 0.05;
    options.fault.crash_prob = 0.04;
    options.fault.crash_round_bound = 32;
    options.fault.restart_prob = 0.5;
    options.fault.restart_delay = 6;
    options.fault.seed = 13;
  } else if (c == AsyncIiCase::kTruncated) {
    options.min_delay = 0.5;
    options.max_delay = 40;
    max_rounds = 6;
  }
  const congest::AsyncRunResult r = congest::run_synchronized(
      g, israeli_itai_factory(), 23, max_rounds, options);
  EXPECT_EQ(r.stats.completed, c == AsyncIiCase::kClean);
  if (c == AsyncIiCase::kDropCrash) {
    EXPECT_GT(r.stats.dropped_messages, 0u);
    EXPECT_GT(r.stats.restarted_nodes, 0u);
  }
  return async_digest(r, observer);
}

/// Floods every port for a fixed number of rounds, then halts: no
/// protocol invariant to trip, so it can carry every message fault.
class Flood final : public congest::Process {
 public:
  void on_round(congest::Context& ctx,
                std::span<const congest::Envelope>) override {
    if (ctx.round() < 12) {
      BitWriter w;
      w.write_bool(true);
      const congest::Message msg = congest::Message::from_writer(std::move(w));
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
    }
    halted_ = ctx.round() >= 12;
  }
  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  bool halted_ = false;
};

std::uint64_t async_flood_cell() {
  const Graph g = gen::gnp(120, 0.05, 1010);
  obs::Observer observer;
  congest::AsyncOptions options;
  options.observer = &observer;
  options.fault.drop_prob = 0.05;
  options.fault.duplicate_prob = 0.04;
  options.fault.delay_prob = 0.04;
  options.fault.max_delay = 2;
  options.fault.reorder_prob = 0.1;
  options.fault.seed = 77;
  const congest::AsyncRunResult r = congest::run_synchronized(
      g,
      [](NodeId, const Graph&) -> std::unique_ptr<congest::Process> {
        return std::make_unique<Flood>();
      },
      31, 256, options);
  EXPECT_GT(r.stats.dropped_messages, 0u);
  EXPECT_GT(r.stats.duplicated_messages, 0u);
  EXPECT_GT(r.stats.delayed_messages, 0u);
  EXPECT_GT(r.stats.reordered_inboxes, 0u);
  return async_digest(r, observer);
}

using Cell = std::function<std::uint64_t()>;

const std::map<std::string, Cell>& cells() {
  static const std::map<std::string, Cell> table = [] {
    std::map<std::string, Cell> t;
    for (int which = 0; which < 2; ++which) {
      for (const unsigned threads : {1u, 4u}) {
        for (const bool faulty : {false, true}) {
          t["alg3_k3_g" + std::to_string(which) + "_t" +
            std::to_string(threads) + (faulty ? "_faults" : "_clean")] =
              [=] { return alg3_cell(which, threads, faulty); };
        }
      }
    }
    t["counting_probe_ell3"] = counting_probe_cell;
    t["alg4_k2"] = alg4_cell;
    t["israeli_itai"] = israeli_itai_cell;
    t["local_generic_gnp30_eps034"] = [] {
      return local_generic_cell(gen::gnp(30, 0.15, 5), 0.34, 21);
    };
    t["local_generic_cycle15_eps05"] = [] {
      return local_generic_cell(gen::cycle(15), 0.5, 6);
    };
    t["local_mwm_gnp12_eps034_adaptive"] = [] {
      return local_mwm_cell(
          gen::with_uniform_weights(gen::gnp(12, 0.35, 31), 1.0, 20.0, 32),
          0.34, true, 33);
    };
    t["local_mwm_gnp12_eps051_fixed"] = [] {
      return local_mwm_cell(
          gen::with_uniform_weights(gen::gnp(12, 0.3, 14), 1.0, 9.0, 15),
          0.51, false, 16);
    };
    t["local_mwm_c4_swap_first_edge_matched"] = [] {
      return local_mwm_c4_cell(false, 3);
    };
    t["local_mwm_c4_swap_first_edge_unmatched"] = [] {
      return local_mwm_c4_cell(true, 1);
    };
    t["dyn_flap_k2_n2000"] = [] { return dyn_cell(true, 2, 1); };
    t["dyn_uniform_k1_n2000"] = [] { return dyn_cell(false, 1, 1); };
    t["dyn_uniform_k2_t4_n2000"] = [] { return dyn_cell(false, 2, 4); };
    t["dyn_grow_k1"] = [] { return dyn_grow_cell(1, 1); };
    t["dyn_grow_k2"] = [] { return dyn_grow_cell(2, 1); };
    t["mp_israeli_itai_procs1"] = [] { return mp_israeli_itai_cell(1); };
    t["mp_israeli_itai_procs2"] = [] { return mp_israeli_itai_cell(2); };
    t["async_israeli_itai_clean"] = [] {
      return async_israeli_itai_cell(AsyncIiCase::kClean);
    };
    t["async_israeli_itai_drop_crash"] = [] {
      return async_israeli_itai_cell(AsyncIiCase::kDropCrash);
    };
    t["async_israeli_itai_truncated"] = [] {
      return async_israeli_itai_cell(AsyncIiCase::kTruncated);
    };
    t["async_flood_drop_dup_delay_reorder"] = async_flood_cell;
    return t;
  }();
  return table;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The committed file: `cell digest` lines; `#` starts a comment line.
std::map<std::string, std::string> committed() {
  std::map<std::string, std::string> out;
  std::ifstream in(DMATCH_GOLDEN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, digest;
    if (ls >> name >> digest) out[name] = digest;
  }
  return out;
}

class Golden : public ::testing::TestWithParam<std::string> {};

TEST_P(Golden, MatchesCommittedDigest) {
  const std::string& name = GetParam();
  const auto file = committed();
  const auto it = file.find(name);
  const std::string got = hex(cells().at(name)());
  ASSERT_NE(it, file.end()) << "no line for cell " << name << " in "
                            << DMATCH_GOLDEN_FILE << "; computed: " << name
                            << ' ' << got;
  EXPECT_EQ(got, it->second) << "cell " << name << " moved; computed line: "
                             << name << ' ' << got;
}

std::vector<std::string> cell_names() {
  std::vector<std::string> names;
  for (const auto& [name, cell] : cells()) names.push_back(name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Cells, Golden, ::testing::ValuesIn(cell_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// The grow script certifies every epoch at k = 1..3, and 4 engine threads
// replay the 1-thread trajectory exactly.
TEST(Golden, GrowTrajectoryCertifiesAtEveryThreadCount) {
  for (const int k : {1, 2, 3}) {
    EXPECT_EQ(dyn_grow_cell(k, 4), dyn_grow_cell(k, 1)) << "k = " << k;
  }
}

TEST(Golden, EveryCommittedLineNamesACell) {
  for (const auto& [name, digest] : committed()) {
    EXPECT_EQ(cells().count(name), 1u) << "stale line: " << name;
  }
}

// Not run by ctest: rewrites the committed file from this build's results.
TEST(Golden, DISABLED_RewriteDigestFile) {
  std::ofstream out(DMATCH_GOLDEN_FILE);
  out << "# FNV-1a digests of seeded runs, one per cell "
         "(tests/test_golden.cpp).\n"
         "# Each covers the matching, the RunStats, AsyncStats or EpochReport\n"
         "# state fields and the metrics JSON bytes. Traces are left out: the\n"
         "# round.active counter counts scheduled nodes, engine bookkeeping\n"
         "# that may move while results stay put. Rewrite with\n"
         "#   ./build/tests/test_golden --gtest_also_run_disabled_tests \\\n"
         "#       --gtest_filter=Golden.DISABLED_RewriteDigestFile\n"
         "# and commit the diff only when results are meant to change.\n";
  for (const auto& [name, cell] : cells()) {
    out << name << ' ' << hex(cell()) << '\n';
  }
  ASSERT_TRUE(out.good());
}

}  // namespace
}  // namespace dmatch
