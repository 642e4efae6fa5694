// Beyond-maximal dynamic matching quality suite (src/dyn + dyn/augment):
// certified quality trajectories under churn for the quality ladder
// k = 2, 3 (every epoch's matching must be (1 - 1/k)-approximate against
// the exact live-snapshot optimum), incremental-vs-forced-full ratio
// agreement, cross-thread bit-identity of the augmented trajectory, the
// incremental resilient-extraction overload under crashed/departed
// nodes, and the UpdateLog epoch-boundary corner cases (zero-op closes,
// simultaneous timestamps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "congest/fault.hpp"
#include "core/israeli_itai.hpp"
#include "core/verify.hpp"
#include "dyn/service.hpp"
#include "dyn/workload.hpp"
#include "graph/augmenting.hpp"
#include "graph/generators.hpp"

namespace dmatch {
namespace {

using dyn::Epoch;
using dyn::EpochLimits;
using dyn::EpochReport;
using dyn::MatchingService;
using dyn::OpKind;
using dyn::ServiceOptions;
using dyn::UpdateLog;
using dyn::UpdateOp;
using dyn::Workload;
using dyn::WorkloadMode;
using dyn::WorkloadOptions;

constexpr double kRatioEps = 1e-9;

UpdateOp op_at(OpKind k, NodeId u, NodeId v, std::uint64_t at,
               Weight w = 1.0) {
  UpdateOp op;
  op.kind = k;
  op.u = u;
  op.v = v;
  op.w = w;
  op.at = at;
  return op;
}

ServiceOptions quality_service_options(int quality_k, std::uint64_t seed,
                                       unsigned threads = 1) {
  ServiceOptions so;
  // Same regime as the maximal-only differential suite: small epochs on
  // a sparse graph keep the dirty core well under the live vertex count,
  // so both the repair and the (2k-1)-hop augment arena stay local.
  so.limits.max_ops = 8;
  so.limits.max_latency_us = 4'000;
  so.repair.fallback_fraction = 0.5;
  so.repair.quality_k = quality_k;
  so.repair.certify = true;
  so.repair.certify_ratio = true;
  so.repair.num_threads = threads;
  so.repair.seed = seed;
  return so;
}

// One certified quality trajectory: 400 ops of the given churn profile,
// every closed epoch must hold ratio >= 1 - 1/k against the exact
// optimum of the live snapshot (the certificate computes it), with zero
// invalid matchings and zero matched dead nodes.
void run_quality_trajectory(WorkloadMode mode, int quality_k,
                            std::uint64_t seed) {
  const Graph g = gen::gnp(600, 0.006, seed);
  MatchingService svc(g, quality_service_options(quality_k, seed));
  WorkloadOptions wo;
  wo.mode = mode;
  wo.seed = seed * 31 + 7;
  Workload w(g, wo);

  const double floor = 1.0 - 1.0 / quality_k;
  const auto& boot = svc.engine().bootstrap_report();
  EXPECT_TRUE(boot.full_recompute);
  EXPECT_TRUE(boot.stats.completed);
  EXPECT_GE(boot.augment_gained, 0);

  for (int i = 0; i < 400; ++i) {
    (void)svc.submit(w.next(svc.mate_view()));
  }
  (void)svc.flush();
  ASSERT_FALSE(svc.history().empty());

  std::size_t incremental = 0;
  std::ptrdiff_t total_gained = 0;
  for (const EpochReport& r : svc.history()) {
    ASSERT_TRUE(r.certificate.has_value());
    // valid folds in pair-consistency, crash-respect, maximality AND —
    // with quality_k >= 2 — the (1 - 1/k) ratio floor itself.
    EXPECT_TRUE(r.certificate->valid) << "epoch " << r.epoch.index;
    EXPECT_TRUE(r.certificate->respects_crashes);
    EXPECT_EQ(r.certificate->matched_dead_nodes, 0u);
    EXPECT_GE(r.certificate->ratio, floor - kRatioEps)
        << "epoch " << r.epoch.index << " (k = " << quality_k << ")";
    EXPECT_GE(r.augment_gained, 0) << "epoch " << r.epoch.index;
    total_gained += r.augment_gained;
    if (!r.full_recompute) ++incremental;
  }
  // The small epochs of this stream must mostly repair incrementally —
  // otherwise the widened-region machinery was never exercised.
  EXPECT_GT(incremental, svc.history().size() / 2);
  // The augment stage never loses pairs over the repaired matching.
  EXPECT_GE(total_gained, 0);

  // End-state check through the differential surface: the final
  // matching, mapped onto a fresh live snapshot, still meets the floor.
  const auto cert = svc.engine().certify_now(/*compute_ratio=*/true);
  EXPECT_TRUE(cert.report.valid);
  EXPECT_TRUE(cert.maximal);
  EXPECT_GE(cert.report.ratio, floor - kRatioEps);
}

TEST(DynQualityTrajectory, UniformChurnHoldsRatioK2) {
  run_quality_trajectory(WorkloadMode::kUniform, 2, 103);
}

TEST(DynQualityTrajectory, UniformChurnHoldsRatioK3) {
  run_quality_trajectory(WorkloadMode::kUniform, 3, 104);
}

TEST(DynQualityTrajectory, HotspotChurnHoldsRatioK2) {
  run_quality_trajectory(WorkloadMode::kHotspot, 2, 105);
}

TEST(DynQualityTrajectory, HotspotChurnHoldsRatioK3) {
  run_quality_trajectory(WorkloadMode::kHotspot, 3, 106);
}

TEST(DynQualityTrajectory, AdversarialFlapHoldsRatioK2) {
  run_quality_trajectory(WorkloadMode::kAdversarialFlap, 2, 107);
}

TEST(DynQualityTrajectory, AdversarialFlapHoldsRatioK3) {
  run_quality_trajectory(WorkloadMode::kAdversarialFlap, 3, 108);
}

// Incremental repair and the forced-full baseline must agree on quality:
// identical workload and epoch boundaries, and on every epoch both
// matchings are (1 - 1/k)-approximations of the SAME live optimum — so
// each one's size is bounded below by (1 - 1/k) times the other's.
void run_incremental_vs_full(int quality_k, std::uint64_t seed) {
  const Graph g = gen::gnp(400, 0.009, seed);
  const double floor = 1.0 - 1.0 / quality_k;

  const auto run = [&](double fallback_fraction) {
    ServiceOptions so = quality_service_options(quality_k, seed);
    so.repair.fallback_fraction = fallback_fraction;
    MatchingService svc(g, so);
    WorkloadOptions wo;
    wo.seed = seed * 17 + 3;
    Workload w(g, wo);
    for (int i = 0; i < 250; ++i) (void)svc.submit(w.next(svc.mate_view()));
    (void)svc.flush();
    return svc.history();
  };

  const std::vector<EpochReport> inc = run(0.5);
  const std::vector<EpochReport> full = run(0.0);  // full recompute always

  ASSERT_FALSE(inc.empty());
  ASSERT_EQ(inc.size(), full.size());
  for (std::size_t i = 0; i < inc.size(); ++i) {
    const EpochReport& a = inc[i];
    const EpochReport& b = full[i];
    // Epoch batching is a pure function of the op stream — identical.
    EXPECT_EQ(a.epoch.index, b.epoch.index);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.epoch.closed_at, b.epoch.closed_at);
    EXPECT_TRUE(b.full_recompute);
    ASSERT_TRUE(a.certificate.has_value());
    ASSERT_TRUE(b.certificate.has_value());
    EXPECT_TRUE(a.certificate->valid) << "epoch " << i;
    EXPECT_TRUE(b.certificate->valid) << "epoch " << i;
    EXPECT_GE(a.certificate->ratio, floor - kRatioEps) << "epoch " << i;
    EXPECT_GE(b.certificate->ratio, floor - kRatioEps) << "epoch " << i;
    // Same snapshot, same optimum: sizes cross-bound each other.
    const auto sa = static_cast<double>(a.matching_size);
    const auto sb = static_cast<double>(b.matching_size);
    EXPECT_GE(sa, floor * sb - kRatioEps) << "epoch " << i;
    EXPECT_GE(sb, floor * sa - kRatioEps) << "epoch " << i;
  }
  // The incremental run must actually be incremental somewhere, or this
  // test degenerates into full-vs-full.
  std::size_t incremental = 0;
  for (const EpochReport& r : inc) {
    if (!r.full_recompute) ++incremental;
  }
  EXPECT_GT(incremental, 0u);
}

TEST(DynQualityDifferential, IncrementalAgreesWithForcedFullK2) {
  run_incremental_vs_full(2, 201);
}

TEST(DynQualityDifferential, IncrementalAgreesWithForcedFullK3) {
  run_incremental_vs_full(3, 202);
}

// The whole augmented trajectory — including the augment stage's
// iteration counts, gains and host-sweep escalations — is a pure
// function of (graph, workload seed, limits): bit-identical across
// thread counts.
TEST(DynQualityDeterminism, AugmentedTrajectoryBitIdenticalAcrossThreads) {
  const Graph g = gen::gnp(150, 0.05, 31);
  // 1, 8, 32 and 16 shards.
  const unsigned thread_counts[] = {1, 2, 8, 4};
  for (const int quality_k : {2, 3}) {
    std::vector<std::vector<EpochReport>> histories;
    std::vector<Matching> finals;
    for (const unsigned threads : thread_counts) {
      ServiceOptions so;
      so.limits.max_ops = 16;
      so.limits.max_latency_us = 3'000;
      so.repair.quality_k = quality_k;
      so.repair.seed = 99;
      so.repair.num_threads = threads;
      MatchingService svc(g, so);
      WorkloadOptions wo;
      wo.mode = WorkloadMode::kAdversarialFlap;
      wo.seed = 77;
      Workload w(g, wo);
      for (int i = 0; i < 300; ++i) (void)svc.submit(w.next(svc.mate_view()));
      (void)svc.flush();
      histories.push_back(svc.history());
      finals.push_back(svc.matching());
    }
    for (std::size_t c = 1; c < histories.size(); ++c) {
      ASSERT_EQ(histories[c].size(), histories[0].size());
      for (std::size_t i = 0; i < histories[0].size(); ++i) {
        const EpochReport& a = histories[0][i];
        const EpochReport& b = histories[c][i];
        EXPECT_EQ(a.ops, b.ops);
        EXPECT_EQ(a.dirty_nodes, b.dirty_nodes);
        EXPECT_EQ(a.active_nodes, b.active_nodes);
        EXPECT_EQ(a.frozen_nodes, b.frozen_nodes);
        EXPECT_EQ(a.full_recompute, b.full_recompute);
        EXPECT_EQ(a.matching_size, b.matching_size);
        EXPECT_DOUBLE_EQ(a.matching_weight, b.matching_weight);
        EXPECT_EQ(a.stats.rounds, b.stats.rounds);
        EXPECT_EQ(a.stats.messages, b.stats.messages);
        EXPECT_EQ(a.stats.total_bits, b.stats.total_bits);
        // The quality stage's trajectory fields, bit for bit.
        EXPECT_EQ(a.augment_iterations, b.augment_iterations);
        EXPECT_EQ(a.augment_phase_iterations, b.augment_phase_iterations);
        EXPECT_EQ(a.augment_gained, b.augment_gained);
        EXPECT_EQ(a.augment_escalated, b.augment_escalated);
      }
      EXPECT_TRUE(finals[c] == finals[0]);
    }
  }
}

// ------------------------------------- the seeded leftover sweep is exact

// After every epoch the seeded sweep must leave no augmenting path of
// length <= 2k-1 anywhere in the live graph: the global reference
// enumerator over the certified live snapshot finds none. The flips it
// writes back node by node must reach the registers and the mate mirror:
// the network's strict extraction equals the matching, and the mate view
// agrees with both. A missed seed leaves a path; a skipped write shows as
// a disagreement. Returns the number of epochs whose sweep flipped.
std::size_t check_sweep_exact(WorkloadMode mode, int quality_k,
                              double fallback, std::uint64_t seed) {
  const Graph g = gen::gnp(400, 3.0 / 400, seed);
  ServiceOptions so;
  so.limits.max_ops = 8;
  so.limits.max_latency_us = 4'000;
  so.repair.quality_k = quality_k;
  so.repair.fallback_fraction = fallback;
  so.repair.seed = seed;
  MatchingService svc(g, so);
  WorkloadOptions wo;
  wo.mode = mode;
  wo.seed = seed * 17 + 3;
  wo.session_fraction = 0.2;  // vertex departures and returns
  Workload w(g, wo);

  const auto check = [&](std::size_t epoch) {
    const auto cert = svc.engine().certify_now(false);
    EXPECT_TRUE(enumerate_augmenting_paths(cert.graph, cert.matching,
                                           2 * quality_k - 1, 1)
                    .empty())
        << "short augmenting path left after epoch " << epoch;
    const Matching& m = svc.matching();
    EXPECT_TRUE(svc.engine().network().extract_matching() == m)
        << "registers disagree with the matching after epoch " << epoch;
    const auto mate = svc.mate_view();
    std::size_t stale = 0;
    for (NodeId v = 0; v < m.node_count(); ++v) {
      stale += mate[static_cast<std::size_t>(v)] != m.mate(v) ? 1 : 0;
    }
    EXPECT_EQ(stale, 0u) << "mate view disagrees after epoch " << epoch;
  };
  check(0);
  std::size_t departures = 0, returns = 0;
  for (int i = 0; i < 320; ++i) {
    const UpdateOp op = w.next(svc.mate_view());
    departures += op.kind == OpKind::kVertexDepart ? 1 : 0;
    returns += op.kind == OpKind::kVertexReturn ? 1 : 0;
    if (svc.submit(op) > 0) check(svc.history().size());
  }
  svc.flush();
  check(svc.history().size());
  EXPECT_GT(departures, 0u);
  EXPECT_GT(returns, 0u);
  std::size_t escalated = 0;
  for (const EpochReport& r : svc.history()) {
    escalated += r.augment_escalated ? 1 : 0;
  }
  return escalated;
}

TEST(DynQualitySweep, SeededSweepIsExactUnderFlapChurn) {
  std::size_t flipped = 0;
  for (const int k : {2, 3}) {
    flipped += check_sweep_exact(WorkloadMode::kAdversarialFlap, k, 0.25, 5);
  }
  EXPECT_GT(flipped, 0u);  // the write-back path ran
}

TEST(DynQualitySweep, SeededSweepIsExactUnderUniformChurn) {
  for (const int k : {2, 3}) {
    check_sweep_exact(WorkloadMode::kUniform, k, 0.25, 7);
  }
}

TEST(DynQualitySweep, SeededSweepIsExactUnderHotspotChurn) {
  for (const int k : {2, 3}) {
    check_sweep_exact(WorkloadMode::kHotspot, k, 0.25, 9);
  }
}

TEST(DynQualitySweep, SeededSweepIsExactUnderForcedFullRecompute) {
  check_sweep_exact(WorkloadMode::kAdversarialFlap, 2, 0.0, 11);
}

// ------------------------------- resilient extraction: crashed regions

// Dirty region overlapping crashed nodes: the incremental overload must
// drop exactly the pairs the full resilient rescan drops, and tally the
// dead registers it actually examined.
TEST(DynQualityExtraction, DirtyRegionOverlappingCrashedNodes) {
  const Graph g = gen::gnp(80, 0.08, 61);
  // A reference matching from a fault-free run.
  congest::Network clean(g, congest::Model::kCongest, 19);
  const IsraeliItaiResult ref = israeli_itai(clean);
  ASSERT_TRUE(ref.matching.is_valid(g));
  ASSERT_GT(ref.matching.size(), 4u);

  // Crash two matched nodes and one free node from round 0, forever.
  std::vector<NodeId> crashed;
  for (NodeId v = 0; v < g.node_count() && crashed.size() < 2; ++v) {
    if (ref.matching.is_matched(v)) crashed.push_back(v);
  }
  for (NodeId v = 0; v < g.node_count() && crashed.size() < 3; ++v) {
    if (!ref.matching.is_matched(v)) crashed.push_back(v);
  }
  ASSERT_EQ(crashed.size(), 3u);
  congest::Network::Options options;
  for (const NodeId v : crashed) {
    options.fault.crashes.push_back({v, 0, congest::kRoundNever});
  }
  congest::Network net(g, congest::Model::kCongest, 19, 48, options);
  for (const NodeId v : crashed) ASSERT_TRUE(net.node_dead(v));
  net.set_matching(ref.matching);

  // Dirty set: the crashed nodes plus their (live) mates — the shape a
  // departure epoch hands the repair engine.
  std::vector<NodeId> dirty = crashed;
  for (const NodeId v : crashed) {
    const NodeId m = ref.matching.mate(v);
    if (m != kNoNode) dirty.push_back(m);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  congest::DegradationReport inc_rep;
  Matching inc = ref.matching;
  EXPECT_EQ(net.refresh_matching(dirty, inc, &inc_rep), -2);
  const Matching rescan = net.extract_matching_resilient();
  EXPECT_TRUE(inc == rescan);
  EXPECT_EQ(inc.size(), ref.matching.size() - 2);
  for (const NodeId v : crashed) EXPECT_FALSE(inc.is_matched(v));
  EXPECT_EQ(inc_rep.crashed_nodes, 3u);
  // Both halves of each crashed pair healed: the dead node's own
  // register and the surviving mate's pointer at it.
  EXPECT_EQ(inc_rep.dead_registers_healed, 4u);
}

// Departed vertices flow through the same dead-node heal rules when the
// service extracts incrementally; a region that contains the departed
// node and its widowed mate reproduces the full rescan.
TEST(DynQualityExtraction, DirtyRegionOverlappingDepartedNodes) {
  const Graph g = gen::gnp(200, 0.03, 63);
  ServiceOptions so = quality_service_options(2, 63);
  MatchingService svc(g, so);
  ASSERT_GT(svc.matching().size(), 2u);
  // Depart one matched vertex; the epoch's dirty region necessarily
  // overlaps it and its widowed mate.
  NodeId victim = kNoNode;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (svc.matching().is_matched(v)) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, kNoNode);
  (void)svc.submit(op_at(OpKind::kVertexDepart, victim, kNoNode, 10));
  (void)svc.flush();
  ASSERT_FALSE(svc.history().empty());
  const EpochReport& r = svc.history().back();
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_TRUE(r.certificate->valid);
  EXPECT_EQ(r.certificate->matched_dead_nodes, 0u);
  EXPECT_FALSE(svc.matching().is_matched(victim));
  // The service's incremental extract agrees with a from-scratch rescan
  // of the same registers.
  const Matching rescan = svc.engine().network().extract_matching_resilient();
  EXPECT_TRUE(svc.matching() == rescan);
}

// An empty dirty set must leave base unchanged, byte for byte.
TEST(DynQualityExtraction, EmptyDirtySetReturnsBaseUnchanged) {
  const Graph g = gen::gnp(100, 0.06, 67);
  congest::Network net(g, congest::Model::kCongest, 23);
  const IsraeliItaiResult full = israeli_itai(net);
  congest::DegradationReport rep;
  Matching inc = full.matching;
  EXPECT_EQ(net.refresh_matching(std::span<const NodeId>{}, inc, &rep), 0);
  EXPECT_TRUE(inc == full.matching);
  EXPECT_EQ(inc.size(), full.matching.size());
  EXPECT_EQ(rep.crashed_nodes, 0u);
  EXPECT_EQ(rep.dead_registers_healed, 0u);
  EXPECT_EQ(rep.torn_registers_healed, 0u);
}

// Dirty region = the whole node set degenerates to the full rescan,
// byte for byte — even when base is stale garbage.
TEST(DynQualityExtraction, WholeGraphDirtyEqualsFullRescan) {
  const Graph g = gen::gnp(100, 0.06, 71);
  congest::Network net(g, congest::Model::kCongest, 29);
  const IsraeliItaiResult full = israeli_itai(net);
  std::vector<NodeId> everything(static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    everything[static_cast<std::size_t>(v)] = v;
  }
  const Matching rescan = net.extract_matching_resilient();
  Matching inc = full.matching;
  net.refresh_matching(everything, inc);
  EXPECT_TRUE(inc == rescan);
  // With every node dirty, base contributes nothing: an empty base must
  // produce the identical result.
  Matching from_empty(g.node_count());
  net.refresh_matching(everything, from_empty);
  EXPECT_TRUE(from_empty == rescan);
}

// ----------------------------------------- update log corner cases

// max_ops = 0 must not close zero-op epochs forever: the effective cap
// clamps to 1 and the cursor always advances.
TEST(DynQualityUpdateLog, MaxOpsZeroStillAdvancesOneOpEpochs) {
  UpdateLog log;
  EpochLimits limits;
  limits.max_ops = 0;
  limits.max_latency_us = 1'000'000;
  for (int i = 0; i < 3; ++i) {
    log.append(op_at(OpKind::kEdgeInsert, i, i + 1, 10 * i));
  }
  // With the cap clamped to one, an epoch is ready immediately.
  ASSERT_TRUE(log.epoch_ready(limits));
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_GT(log.pending(), 0u);
    const Epoch e = log.close_epoch(limits);
    EXPECT_EQ(e.index, i);
    EXPECT_EQ(e.count, 1u);  // never zero: the cursor must advance
  }
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_FALSE(log.epoch_ready(limits));
}

// A latency-budget close with max_ops = 0 is the historical pathology:
// the budget trips, the op cap allows zero ops, and a naive close spins
// without draining. The clamp makes it a one-op epoch instead.
TEST(DynQualityUpdateLog, LatencyBudgetCloseNeverEmitsZeroOpEpoch) {
  UpdateLog log;
  EpochLimits limits;
  limits.max_ops = 0;
  limits.max_latency_us = 500;
  log.append(op_at(OpKind::kEdgeInsert, 0, 1, 0));
  log.append(op_at(OpKind::kEdgeDelete, 2, 3, 5'000));  // oldest waited 5ms
  ASSERT_TRUE(log.epoch_ready(limits));
  const Epoch first = log.close_epoch(limits);
  EXPECT_EQ(first.count, 1u);
  EXPECT_EQ(first.closed_at, 0u);
  const Epoch second = log.close_epoch(limits);
  EXPECT_EQ(second.count, 1u);
  EXPECT_EQ(second.opened_at, 5'000u);
  EXPECT_EQ(log.pending(), 0u);
}

// Ops sharing one virtual timestamp are indivisible: the close pulls
// them into the same epoch past the op cap, so the epoch boundary is a
// deterministic function of the timestamps alone.
TEST(DynQualityUpdateLog, SameTimestampOpsLandInOneEpoch) {
  UpdateLog log;
  EpochLimits limits;
  limits.max_ops = 2;
  // A crash schedule emitting a whole round's departures at one instant.
  for (int i = 0; i < 5; ++i) {
    log.append(op_at(OpKind::kVertexDepart, i, kNoNode, 100));
  }
  log.append(op_at(OpKind::kEdgeInsert, 5, 6, 250));
  const Epoch burst = log.close_epoch(limits);
  EXPECT_EQ(burst.count, 5u);  // cap was 2; the burst is indivisible
  EXPECT_EQ(burst.opened_at, 100u);
  EXPECT_EQ(burst.closed_at, 100u);
  const Epoch tail = log.close_epoch(limits);
  EXPECT_EQ(tail.count, 1u);
  EXPECT_EQ(tail.opened_at, 250u);
  EXPECT_EQ(log.pending(), 0u);
}

// The pull-in composes with slicing: a cap-sized slice whose boundary
// falls inside a same-timestamp run extends to the run's end, and the
// next epoch starts cleanly after it.
TEST(DynQualityUpdateLog, TimestampPullInComposesWithSlicing) {
  UpdateLog log;
  EpochLimits limits;
  limits.max_ops = 2;
  log.append(op_at(OpKind::kEdgeInsert, 0, 1, 10));
  log.append(op_at(OpKind::kEdgeInsert, 1, 2, 20));
  log.append(op_at(OpKind::kEdgeInsert, 2, 3, 20));  // shares ts with #2
  log.append(op_at(OpKind::kEdgeInsert, 3, 4, 20));  // and so does #4
  log.append(op_at(OpKind::kEdgeInsert, 4, 5, 30));
  const Epoch first = log.close_epoch(limits);
  EXPECT_EQ(first.count, 4u);  // 2 by cap, +2 pulled in at ts 20
  EXPECT_EQ(first.closed_at, 20u);
  const Epoch second = log.close_epoch(limits);
  EXPECT_EQ(second.count, 1u);
  EXPECT_EQ(second.opened_at, 30u);
  EXPECT_EQ(second.index, 1u);
}

// End to end through the repair engine: a same-instant departure burst
// (the crash-schedule shape) arrives as a backlog, the close pulls the
// whole burst past the op cap, and the single burst epoch repairs and
// certifies at the quality floor.
TEST(DynQualityUpdateLog, SimultaneousDepartureBurstRepairsAsOneEpoch) {
  const Graph g = gen::gnp(200, 0.03, 73);
  ServiceOptions so = quality_service_options(2, 73);
  so.limits.max_ops = 2;
  dyn::RepairEngine engine(g, so.repair);
  UpdateLog log;
  log.append(op_at(OpKind::kVertexDepart, 3, kNoNode, 1'000));
  log.append(op_at(OpKind::kVertexDepart, 11, kNoNode, 1'000));
  log.append(op_at(OpKind::kVertexDepart, 17, kNoNode, 1'000));
  log.append(op_at(OpKind::kEdgeInsert, 3, 11, 9'000));
  const Epoch burst = log.close_epoch(so.limits);
  ASSERT_EQ(burst.count, 3u);  // cap was 2; the burst is indivisible
  const EpochReport r1 = engine.apply_epoch(burst, log.ops(burst));
  EXPECT_EQ(r1.ops, 3u);
  ASSERT_TRUE(r1.certificate.has_value());
  EXPECT_TRUE(r1.certificate->valid);
  EXPECT_GE(r1.certificate->ratio, 0.5 - kRatioEps);
  EXPECT_EQ(r1.certificate->matched_dead_nodes, 0u);
  for (const NodeId v : {3, 11, 17}) {
    EXPECT_FALSE(engine.matching().is_matched(v));
  }
  // The trailing op (reviving pair 3-11 is a no-op while both are
  // departed) closes as its own epoch and still certifies.
  const Epoch tail = log.close_epoch(so.limits);
  ASSERT_EQ(tail.count, 1u);
  const EpochReport r2 = engine.apply_epoch(tail, log.ops(tail));
  ASSERT_TRUE(r2.certificate.has_value());
  EXPECT_TRUE(r2.certificate->valid);
  EXPECT_GE(r2.certificate->ratio, 0.5 - kRatioEps);
}

}  // namespace
}  // namespace dmatch
