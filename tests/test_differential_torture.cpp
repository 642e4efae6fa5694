// Seeded differential torture harness (ctest label `difftorture`).
//
// Sweeps graph families x fault plans x executors x thread counts and
// asserts, for every cell, the repository's strongest cross-cutting
// guarantees at once:
//   * the round engine is bit-identical across num_threads {1, 2, 8},
//     which run 1, 8 and 32 work-stolen shards (matching, RunStats,
//     per-round histogram, trip-or-not outcome);
//   * the multi-process shard engine over loopback transport at procs
//     {1, 2} is bit-identical to the single-process round engine
//     (matching, RunStats, fault counters, dead mask);
//   * the round engine and the async executor agree on the matching and
//     on every fault counter (identical seed-hashed fault histories);
//   * verify_matching_invariants holds over the surviving nodes.
//
// Every run is a pure function of (family, n, seed, plan), so the whole
// suite is deterministic: same seed => same pass/fail, which the verify
// recipe re-asserts with `ctest -L difftorture --repeat until-pass:1`.
// On failure the harness shrinks n (halving while the cell still fails)
// and prints the offending (family, n, seed, plan) tuple for a one-line
// repro before reporting the mismatch.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "congest/async.hpp"
#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "core/israeli_itai.hpp"
#include "core/verify.hpp"
#include "dyn/service.hpp"
#include "dyn/workload.hpp"
#include "graph/generators.hpp"
#include "mp_harness.hpp"
#include "support/assert.hpp"

namespace dmatch {
namespace {

using congest::AsyncOptions;
using congest::AsyncRunResult;
using congest::AsyncStats;
using congest::FaultPlan;
using congest::Model;
using congest::Network;
using congest::RunStats;

const unsigned kThreadCounts[] = {1, 2, 8};

// Round budgets are deliberately short: under active plans the raw
// protocol may never quiesce, and every guarantee the harness asserts
// (bit-identical histories, counter agreement, healed-matching validity)
// must hold on truncated histories too. Both executors get the same
// budget so their histories cover the same simulated rounds. Truncation
// is quiescence-aware: check_cell() inspects the completed flags and
// skips only the comparisons that are undefined on a mid-flight cut
// (cross-executor matching and the drop counter), never the
// per-executor determinism or invariant checks.
constexpr int kRoundBudget = 256;

// --- sweep axes -----------------------------------------------------

struct Family {
  const char* name;
  Graph (*make)(NodeId n, std::uint64_t seed);
};

const Family kFamilies[] = {
    {"bipartite",
     [](NodeId n, std::uint64_t seed) {
       return gen::bipartite_gnp(n / 2, n - n / 2, 6.0 / n, seed);
     }},
    {"bounded_degree",
     [](NodeId n, std::uint64_t seed) { return gen::gnp(n, 3.0 / n, seed); }},
    {"path", [](NodeId n, std::uint64_t) { return gen::path(n); }},
    {"cycle", [](NodeId n, std::uint64_t) { return gen::cycle(n); }},
    {"star",
     [](NodeId n, std::uint64_t) { return gen::complete_bipartite(1, n - 1); }},
};

struct PlanSpec {
  const char* name;
  FaultPlan (*make)(std::uint64_t seed, NodeId n);
};

const PlanSpec kPlans[] = {
    {"none", [](std::uint64_t, NodeId) { return FaultPlan{}; }},
    {"drops",
     [](std::uint64_t seed, NodeId) {
       FaultPlan p;
       p.drop_prob = 0.08;
       p.seed = seed * 2 + 1;
       return p;
     }},
    {"dup_reorder",
     [](std::uint64_t seed, NodeId) {
       FaultPlan p;
       p.duplicate_prob = 0.06;
       p.reorder_prob = 0.15;
       p.delay_prob = 0.04;
       p.seed = seed * 2 + 1;
       return p;
     }},
    // Crashes are explicitly scheduled at early rounds rather than drawn
    // probabilistically: a drawn crash round can land after one executor
    // has quiesced but inside the other's control-plane tail, making the
    // two dead sets legitimately diverge. Scheduled early crashes sit
    // inside both histories, so the executors must agree exactly.
    {"crash_restart",
     [](std::uint64_t seed, NodeId n) {
       FaultPlan p;
       p.drop_prob = 0.02;
       p.seed = seed * 2 + 1;
       const auto un = static_cast<std::uint64_t>(n);
       const NodeId a = static_cast<NodeId>((seed * 7 + 3) % un);
       NodeId b = static_cast<NodeId>((seed * 13 + 11) % un);
       if (b == a) b = static_cast<NodeId>((b + 1) % un);
       p.crashes.push_back({a, 1 + (seed % 2), 4 + (seed % 2)});
       p.crashes.push_back({b, 2, congest::kRoundNever});
       return p;
     }},
    // Heavy-tailed (Pareto) delays: most delayed messages arrive one
    // round late, a deterministic-seeded minority after up to max_delay
    // rounds — the hostile-network profile the re-derived RTO (see
    // ResilientOptions::rto_var_mult) is tuned against.
    {"heavy_delay",
     [](std::uint64_t seed, NodeId) {
       FaultPlan p;
       p.drop_prob = 0.03;
       p.delay_prob = 0.25;
       p.max_delay = 16;
       p.delay_model = congest::DelayModel::kPareto;
       p.pareto_alpha = 1.1;
       p.seed = seed * 2 + 1;
       return p;
     }},
};

// --- one executor run, exceptions folded into the outcome -----------

struct EngineOutcome {
  bool tripped = false;  // ContractViolation / MessageTooLarge escaped run()
  RunStats stats;
  Matching matching;
  std::vector<char> dead;  // end-of-run dead mask on the engine's clock
};

EngineOutcome run_engine(const Graph& g, std::uint64_t seed,
                         const FaultPlan& plan, unsigned threads) {
  Network::Options options;
  options.num_threads = threads;
  options.fault = plan;
  Network net(g, Model::kCongest, seed, 48, options);
  EngineOutcome out;
  try {
    out.stats = net.run(israeli_itai_factory(), kRoundBudget);
  } catch (const ContractViolation&) {
    out.tripped = true;
  } catch (const congest::MessageTooLarge&) {
    out.tripped = true;
  }
  out.matching =
      plan.any() ? net.extract_matching_resilient() : net.extract_matching();
  out.dead.assign(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out.dead[static_cast<std::size_t>(v)] = net.node_dead(v) ? 1 : 0;
  }
  return out;
}

struct AsyncOutcome {
  bool tripped = false;
  AsyncRunResult result;
};

AsyncOutcome run_async(const Graph& g, std::uint64_t seed,
                       const FaultPlan& plan) {
  AsyncOptions options;
  options.fault = plan;
  AsyncOutcome out;
  try {
    out.result = congest::run_synchronized(g, israeli_itai_factory(), seed,
                                           kRoundBudget, options);
  } catch (const ContractViolation&) {
    out.tripped = true;
  } catch (const congest::MessageTooLarge&) {
    out.tripped = true;
  }
  return out;
}

// --- cell checker: returns the first mismatch, nullopt if clean ------

std::string diff(const char* what, std::uint64_t a, std::uint64_t b,
                 unsigned threads) {
  std::ostringstream os;
  os << what << " mismatch at threads=" << threads << " (" << a << " vs " << b
     << ")";
  return os.str();
}

std::optional<std::string> check_engine_stats(const RunStats& a,
                                              const RunStats& b,
                                              unsigned threads) {
  if (a.rounds != b.rounds) return diff("rounds", a.rounds, b.rounds, threads);
  if (a.messages != b.messages)
    return diff("messages", a.messages, b.messages, threads);
  if (a.total_bits != b.total_bits)
    return diff("total_bits", a.total_bits, b.total_bits, threads);
  if (a.max_message_bits != b.max_message_bits)
    return diff("max_message_bits", a.max_message_bits, b.max_message_bits,
                threads);
  if (a.completed != b.completed)
    return diff("completed", a.completed, b.completed, threads);
  if (a.round_messages != b.round_messages)
    return std::string("round_messages histogram mismatch");
  if (a.dropped_messages != b.dropped_messages)
    return diff("dropped", a.dropped_messages, b.dropped_messages, threads);
  if (a.duplicated_messages != b.duplicated_messages)
    return diff("duplicated", a.duplicated_messages, b.duplicated_messages,
                threads);
  if (a.delayed_messages != b.delayed_messages)
    return diff("delayed", a.delayed_messages, b.delayed_messages, threads);
  if (a.reordered_inboxes != b.reordered_inboxes)
    return diff("reordered", a.reordered_inboxes, b.reordered_inboxes,
                threads);
  if (a.crashed_nodes != b.crashed_nodes)
    return diff("crashed", a.crashed_nodes, b.crashed_nodes, threads);
  if (a.restarted_nodes != b.restarted_nodes)
    return diff("restarted", a.restarted_nodes, b.restarted_nodes, threads);
  return std::nullopt;
}

/// Runs every executor x thread-count combination of one cell and
/// returns a description of the first broken guarantee (nullopt = cell
/// passes). Never uses gtest assertions so the shrinker can re-invoke it.
std::optional<std::string> check_cell(const Family& family, NodeId n,
                                      std::uint64_t seed,
                                      const PlanSpec& plan_spec) {
  const Graph g = family.make(n, seed);
  const FaultPlan plan = plan_spec.make(seed, n);

  // Round engine across thread counts (kThreadCounts[0] == 1 is the
  // reference itself, so start the comparison at the second entry).
  const EngineOutcome engine_ref = run_engine(g, seed, plan, 1);
  for (const unsigned threads : {kThreadCounts[1], kThreadCounts[2]}) {
    const EngineOutcome got = run_engine(g, seed, plan, threads);
    if (got.tripped != engine_ref.tripped)
      return diff("engine trip outcome", engine_ref.tripped, got.tripped,
                  threads);
    if (!got.tripped) {
      if (auto err = check_engine_stats(engine_ref.stats, got.stats, threads))
        return "engine " + *err;
    }
    if (!(got.matching == engine_ref.matching))
      return "engine matching mismatch at threads=" + std::to_string(threads);
  }

  // Multi-process loopback sharding must reproduce the single-process
  // engine exactly: procs=1 pushes the full history through the frame
  // codec loop, procs=2 additionally exercises cross-shard batching and
  // the counting-based quiescence protocol.
  for (const unsigned procs : {1u, 2u}) {
    mptest::MpConfig cfg;
    cfg.procs = procs;
    cfg.fault = plan;
    cfg.max_rounds = kRoundBudget;
    const mptest::MpRun got =
        mptest::run_mp(g, seed, israeli_itai_factory(), cfg);
    const std::string tag = "mp procs=" + std::to_string(procs);
    if (got.root.tripped != engine_ref.tripped)
      return tag + ": trip outcome mismatch";
    if (!got.root.tripped) {
      if (auto err = check_engine_stats(engine_ref.stats, got.root.stats,
                                        procs))
        return tag + " " + *err;
    }
    if (!(got.root.matching == engine_ref.matching))
      return tag + ": matching mismatch";
    if (got.root.dead_nodes != engine_ref.dead)
      return tag + ": dead-mask mismatch";
  }

  const AsyncOutcome async_ref = run_async(g, seed, plan);

  // Matching invariants over the surviving nodes, per executor (each
  // against its own end-of-run dead mask).
  if (!async_ref.tripped) {
    const MatchingInvariantReport async_check = verify_matching_invariants(
        g, async_ref.result.matching, async_ref.result.dead_nodes);
    if (!async_check.ok()) return "async invariants: " + async_check.summary();
  }
  {
    const MatchingInvariantReport engine_check =
        verify_matching_invariants(g, engine_ref.matching, engine_ref.dead);
    if (!engine_check.ok())
      return "engine invariants: " + engine_check.summary();
  }

  // Cross-executor agreement: identical seed-hashed fault histories mean
  // identical fault counters and the same healed matching.
  if (!engine_ref.tripped && !async_ref.tripped) {
    const RunStats& es = engine_ref.stats;
    const AsyncStats& as = async_ref.result.stats;
    // Quiescence-aware truncation: when either executor hit the flat
    // kRoundBudget before its protocol quiesced, the two runs were cut
    // mid-flight at executor-specific points — the engine at a round
    // boundary, the synchronizer inside its control-plane tail — so
    // state that depends on the cut (the drop counter, which includes
    // deliveries discarded at dead receivers, and the extracted
    // matching itself) may legitimately diverge. Those comparisons are
    // skipped for the cell; everything that must hold on ANY prefix
    // (per-executor determinism above, fault-history counters, matching
    // invariants over survivors) is still enforced.
    const bool quiesced = es.completed && as.completed;
    if (quiesced && es.dropped_messages != as.dropped_messages)
      return diff("cross-executor dropped", es.dropped_messages,
                  as.dropped_messages, 1);
    if (es.duplicated_messages != as.duplicated_messages)
      return diff("cross-executor duplicated", es.duplicated_messages,
                  as.duplicated_messages, 1);
    if (es.delayed_messages != as.delayed_messages)
      return diff("cross-executor delayed", es.delayed_messages,
                  as.delayed_messages, 1);
    if (es.crashed_nodes != as.crashed_nodes)
      return diff("cross-executor crashed", es.crashed_nodes, as.crashed_nodes,
                  1);
    if (es.restarted_nodes != as.restarted_nodes)
      return diff("cross-executor restarted", es.restarted_nodes,
                  as.restarted_nodes, 1);
    if (quiesced && !(engine_ref.matching == async_ref.result.matching))
      return std::string("cross-executor matching mismatch");
  }
  return std::nullopt;
}

/// On failure, halve n while the cell keeps failing and report the
/// smallest reproducer as a one-line tuple.
void run_cell_with_shrink(const Family& family, NodeId n, std::uint64_t seed,
                          const PlanSpec& plan_spec) {
  std::optional<std::string> err = check_cell(family, n, seed, plan_spec);
  if (!err) return;
  NodeId bad_n = n;
  std::string bad_err = *err;
  for (NodeId m = n / 2; m >= 8; m /= 2) {
    if (auto smaller = check_cell(family, m, seed, plan_spec)) {
      bad_n = m;
      bad_err = *smaller;
    } else {
      break;
    }
  }
  ADD_FAILURE() << "difftorture repro: family=" << family.name
                << " n=" << bad_n << " seed=" << seed
                << " plan=" << plan_spec.name << "\n  " << bad_err;
}

// --- the sweep, one TEST per fault plan for parallel ctest sharding --

void sweep_plan(const PlanSpec& plan_spec) {
  for (const Family& family : kFamilies) {
    for (const NodeId n : {24, 64}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "family=" << family.name << " n=" << n
                     << " seed=" << seed << " plan=" << plan_spec.name);
        run_cell_with_shrink(family, n, seed, plan_spec);
      }
    }
  }
}

TEST(DifferentialTorture, FaultFree) { sweep_plan(kPlans[0]); }

TEST(DifferentialTorture, Drops) { sweep_plan(kPlans[1]); }

TEST(DifferentialTorture, DupReorder) { sweep_plan(kPlans[2]); }

TEST(DifferentialTorture, CrashRestart) { sweep_plan(kPlans[3]); }

TEST(DifferentialTorture, HeavyDelay) { sweep_plan(kPlans[4]); }

// --- churn axis: the dynamic matching service under the same contract --
//
// Replays one deterministic workload stream through the MatchingService
// per (mode, seed) cell across thread counts, and
// requires the WHOLE per-epoch trajectory — repair path taken, dirty set
// sizes, round/message stats, matching size and weight — to be
// bit-identical, with every epoch's matching passing the invariant
// checker against a snapshot of the live graph.

struct ChurnTrajectory {
  std::vector<dyn::EpochReport> history;
  Matching final_matching{0};
};

ChurnTrajectory run_churn_cell(dyn::WorkloadMode mode, std::uint64_t seed,
                               unsigned threads) {
  const Graph g = gen::gnp(220, 0.015, seed);
  dyn::ServiceOptions so;
  so.limits.max_ops = 8;
  so.limits.max_latency_us = 3'000;
  so.repair.fallback_fraction = 0.5;
  so.repair.num_threads = threads;
  so.repair.seed = seed;
  dyn::MatchingService svc(g, so);

  dyn::WorkloadOptions wo;
  wo.mode = mode;
  wo.seed = seed;
  dyn::Workload w(g, wo);
  for (int i = 0; i < 160; ++i) svc.submit(w.next(svc.mate_view()));
  svc.flush();

  // Every epoch must leave a valid matching behind; check the final state
  // against a snapshot of the live graph (per-epoch validity is already
  // asserted inside the engine's extraction contracts).
  const Graph snap = svc.engine().graph().snapshot();
  Matching sm(snap.node_count());
  const Matching& m = svc.matching();
  for (EdgeId e = 0; e < snap.edge_count(); ++e) {
    const Edge& ed = snap.edge(e);
    if (m.matched_edge(ed.u) != kNoEdge && m.mate(ed.u) == ed.v) {
      sm.add(snap, e);
    }
  }
  EXPECT_TRUE(sm.is_valid(snap));

  ChurnTrajectory out;
  out.history = svc.history();
  out.final_matching = m;
  return out;
}

std::string describe_epoch(const dyn::EpochReport& r) {
  std::ostringstream os;
  os << "epoch=" << r.epoch.index << " ops=" << r.ops
     << " dirty=" << r.dirty_nodes << " active=" << r.active_nodes
     << " frozen=" << r.frozen_nodes << " full=" << r.full_recompute
     << " rebuilt=" << r.rebuilt << " rounds=" << r.stats.rounds
     << " msgs=" << r.stats.messages << " bits=" << r.stats.total_bits
     << " size=" << r.matching_size << " weight=" << r.matching_weight;
  return os.str();
}

TEST(DifferentialTorture, ChurnTrajectoryBitIdentical) {
  const unsigned kThreads[] = {1, 3, 5};
  for (const dyn::WorkloadMode mode :
       {dyn::WorkloadMode::kUniform, dyn::WorkloadMode::kHotspot,
        dyn::WorkloadMode::kAdversarialFlap}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "mode=" << dyn::to_string(mode) << " seed=" << seed);
      const ChurnTrajectory ref = run_churn_cell(mode, seed, kThreads[0]);
      ASSERT_FALSE(ref.history.empty());
      for (std::size_t c = 1; c < std::size(kThreads); ++c) {
        const ChurnTrajectory got = run_churn_cell(mode, seed, kThreads[c]);
        SCOPED_TRACE(::testing::Message() << "threads=" << kThreads[c]);
        ASSERT_EQ(got.history.size(), ref.history.size());
        for (std::size_t i = 0; i < ref.history.size(); ++i) {
          EXPECT_EQ(describe_epoch(got.history[i]),
                    describe_epoch(ref.history[i]));
        }
        EXPECT_TRUE(got.final_matching == ref.final_matching);
      }
    }
  }
}

}  // namespace
}  // namespace dmatch
