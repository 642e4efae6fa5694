// Dynamic matching service suite (src/dyn): epoch batching rules,
// universe/liveness bookkeeping, workload determinism, the incremental
// register-extraction overload, per-epoch differential equivalence
// against from-scratch recomputes, cross-thread bit-identity of the
// whole service trajectory, and crash-schedule-driven churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/israeli_itai.hpp"
#include "core/verify.hpp"
#include "dyn/service.hpp"
#include "dyn/workload.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"

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

// ---------------------------------------------------------------- epochs

TEST(DynEpochs, ClosesByOpCount) {
  UpdateLog log;
  EpochLimits limits;
  limits.max_ops = 4;
  limits.max_latency_us = 1'000'000;
  for (int i = 0; i < 3; ++i) {
    log.append(op_at(OpKind::kEdgeInsert, i, i + 1, 10 * i));
    EXPECT_FALSE(log.epoch_ready(limits));
  }
  log.append(op_at(OpKind::kEdgeInsert, 3, 4, 30));
  ASSERT_TRUE(log.epoch_ready(limits));
  const Epoch e = log.close_epoch(limits);
  EXPECT_EQ(e.index, 0u);
  EXPECT_EQ(e.count, 4u);
  EXPECT_EQ(e.opened_at, 0u);
  EXPECT_EQ(e.closed_at, 30u);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_FALSE(log.epoch_ready(limits));
}

TEST(DynEpochs, ClosesByLatencyBudget) {
  UpdateLog log;
  EpochLimits limits;
  limits.max_ops = 1000;
  limits.max_latency_us = 500;
  log.append(op_at(OpKind::kEdgeInsert, 0, 1, 100));
  EXPECT_FALSE(log.epoch_ready(limits));
  log.append(op_at(OpKind::kEdgeDelete, 0, 1, 400));
  EXPECT_FALSE(log.epoch_ready(limits));  // oldest has waited 300us
  log.append(op_at(OpKind::kEdgeInsert, 1, 2, 650));
  ASSERT_TRUE(log.epoch_ready(limits));  // 550us >= 500us
  const Epoch e = log.close_epoch(limits);
  EXPECT_EQ(e.count, 3u);
}

TEST(DynEpochs, OversizedBacklogSplitsIntoMaxOpsSlices) {
  UpdateLog log;
  EpochLimits limits;
  limits.max_ops = 2;
  for (int i = 0; i < 5; ++i) {
    log.append(op_at(OpKind::kEdgeInsert, i, i + 1, i));
  }
  EXPECT_EQ(log.close_epoch(limits).count, 2u);
  EXPECT_EQ(log.close_epoch(limits).count, 2u);
  const Epoch last = log.close_epoch(limits);
  EXPECT_EQ(last.count, 1u);
  EXPECT_EQ(last.index, 2u);
}

// ------------------------------------------------------------- dyn graph

TEST(DynGraphState, ReviveInPlaceNeedsNoRebuild) {
  const Graph g = gen::cycle(6);
  dyn::DynGraph dg(g);
  EXPECT_EQ(dg.live_edge_count(), 6);
  dg.apply(op_at(OpKind::kEdgeDelete, 0, 1, 0));
  EXPECT_FALSE(dg.needs_rebuild());
  EXPECT_EQ(dg.live_edge_count(), 5);
  dg.apply(op_at(OpKind::kEdgeInsert, 0, 1, 1, 2.5));
  EXPECT_FALSE(dg.needs_rebuild());
  EXPECT_EQ(dg.live_edge_count(), 6);
  const EdgeId e = dg.universe().find_edge(0, 1);
  ASSERT_NE(e, kNoEdge);
  EXPECT_TRUE(dg.edge_alive(e));
  EXPECT_DOUBLE_EQ(dg.effective_weight(e), 2.5);
  EXPECT_EQ(dg.generation(), 0u);
}

TEST(DynGraphState, RebuildKeepsOldEdgeIdsAndDeadEdges) {
  const Graph g = gen::path(4);  // edges 0-1, 1-2, 2-3
  dyn::DynGraph dg(g);
  dg.apply(op_at(OpKind::kEdgeDelete, 1, 2, 0));
  dg.apply(op_at(OpKind::kEdgeInsert, 0, 3, 1, 7.0));  // new pair
  ASSERT_TRUE(dg.needs_rebuild());
  const EdgeId old01 = dg.universe().find_edge(0, 1);
  dg.rebuild();
  EXPECT_EQ(dg.generation(), 1u);
  // Old ids survive in place; the dead edge is retained but not alive.
  EXPECT_EQ(dg.universe().find_edge(0, 1), old01);
  const EdgeId dead = dg.universe().find_edge(1, 2);
  ASSERT_NE(dead, kNoEdge);
  EXPECT_FALSE(dg.edge_alive(dead));
  const EdgeId fresh = dg.universe().find_edge(0, 3);
  ASSERT_NE(fresh, kNoEdge);
  EXPECT_TRUE(dg.edge_alive(fresh));
  EXPECT_DOUBLE_EQ(dg.effective_weight(fresh), 7.0);
  // A later flap of the dead pair revives in place - no second rebuild.
  dg.apply(op_at(OpKind::kEdgeInsert, 1, 2, 2));
  EXPECT_FALSE(dg.needs_rebuild());
  EXPECT_TRUE(dg.edge_alive(dead));
}

TEST(DynGraphState, VertexDepartureKillsIncidentEdges) {
  const Graph g = gen::complete(4);
  dyn::DynGraph dg(g);
  dg.apply(op_at(OpKind::kVertexDepart, 2, kNoNode, 0));
  EXPECT_FALSE(dg.vertex_live(2));
  EXPECT_EQ(dg.live_vertex_count(), 3);
  int alive = 0;
  for (EdgeId e = 0; e < dg.universe().edge_count(); ++e) {
    alive += dg.edge_alive(e) ? 1 : 0;
  }
  EXPECT_EQ(alive, 3);  // the triangle on {0,1,3}
  const Graph snap = dg.snapshot();
  EXPECT_EQ(snap.node_count(), 4);
  EXPECT_EQ(snap.edge_count(), 3);
  EXPECT_EQ(snap.degree(2), 0);
  dg.apply(op_at(OpKind::kVertexReturn, 2, kNoNode, 1));
  EXPECT_EQ(dg.live_vertex_count(), 4);
  alive = 0;
  for (EdgeId e = 0; e < dg.universe().edge_count(); ++e) {
    alive += dg.edge_alive(e) ? 1 : 0;
  }
  EXPECT_EQ(alive, 6);  // surviving edges come back with the vertex
}

// -------------------------------------------------------------- workload

TEST(DynWorkload, DeterministicAcrossInstances) {
  const Graph g = gen::gnp(80, 0.08, 5);
  WorkloadOptions wo;
  wo.mode = WorkloadMode::kHotspot;
  wo.seed = 42;
  Workload a(g, wo);
  Workload b(g, wo);
  for (int i = 0; i < 500; ++i) {
    const UpdateOp x = a.next();
    const UpdateOp y = b.next();
    EXPECT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind));
    EXPECT_EQ(x.u, y.u);
    EXPECT_EQ(x.v, y.v);
    EXPECT_EQ(x.at, y.at);
    EXPECT_DOUBLE_EQ(x.w, y.w);
  }
}

TEST(DynWorkload, TimestampsAreMonotone) {
  const Graph g = gen::gnp(50, 0.1, 6);
  WorkloadOptions wo;
  wo.seed = 7;
  Workload w(g, wo);
  std::uint64_t last = 0;
  for (int i = 0; i < 300; ++i) {
    const UpdateOp op = w.next();
    EXPECT_GE(op.at, last);
    last = op.at;
  }
}

TEST(DynWorkload, AdversarialFlapTargetsMatchedEdges) {
  const Graph g = gen::gnp(60, 0.15, 8);
  // A static mate view built greedily over the real edges. (In the
  // service the repair engine replenishes this after every flap; here
  // the fast reinsert delay plays that role so the pool never drains.)
  std::vector<NodeId> mate(60, kNoNode);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    if (mate[static_cast<std::size_t>(ed.u)] == kNoNode &&
        mate[static_cast<std::size_t>(ed.v)] == kNoNode) {
      mate[static_cast<std::size_t>(ed.u)] = ed.v;
      mate[static_cast<std::size_t>(ed.v)] = ed.u;
    }
  }
  WorkloadOptions wo;
  wo.mode = WorkloadMode::kAdversarialFlap;
  wo.session_fraction = 0;          // isolate the flap behavior
  wo.flap_reinsert_delay_us = 500;  // flapped pairs come back quickly
  wo.seed = 9;
  Workload w(g, wo);
  int deletes = 0;
  int matched_deletes = 0;
  for (int i = 0; i < 200; ++i) {
    const UpdateOp op = w.next(mate);
    if (op.kind != OpKind::kEdgeDelete) continue;
    ++deletes;
    if (mate[static_cast<std::size_t>(op.u)] == op.v) ++matched_deletes;
  }
  EXPECT_GT(deletes, 40);
  // Deletions overwhelmingly land on the matching, not on random edges.
  EXPECT_GT(matched_deletes * 10, deletes * 9);
}

// ---------------------------------------- incremental extraction overload

TEST(DynExtraction, IncrementalAgreesWithFullRescan) {
  const Graph g = gen::gnp(120, 0.06, 11);
  congest::Network net(g, congest::Model::kCongest, 77);
  const IsraeliItaiResult full = israeli_itai(net);
  ASSERT_TRUE(full.matching.is_valid(g));

  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    // Tear down a random subset of matched pairs through the registers,
    // then re-extract incrementally with exactly those endpoints dirty.
    std::vector<int> image;
    net.copy_registers(image);
    std::vector<NodeId> dirty;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (full.matching.is_matched(v) && v < full.matching.mate(v) &&
          rng.coin(0.3)) {
        const NodeId u = full.matching.mate(v);
        image[static_cast<std::size_t>(v)] = -1;
        image[static_cast<std::size_t>(u)] = -1;
        dirty.push_back(v);
        dirty.push_back(u);
      }
    }
    std::sort(dirty.begin(), dirty.end());
    net.restore_registers(image);

    Matching inc = full.matching;
    net.refresh_matching(dirty, inc);
    const Matching rescan = net.extract_matching_resilient();
    EXPECT_TRUE(inc == rescan);
    // A dirty superset (extra clean nodes listed) must change nothing.
    std::vector<NodeId> superset = dirty;
    for (NodeId v = 0; v < g.node_count(); v += 7) superset.push_back(v);
    std::sort(superset.begin(), superset.end());
    superset.erase(std::unique(superset.begin(), superset.end()),
                   superset.end());
    Matching inc2 = full.matching;
    net.refresh_matching(superset, inc2);
    EXPECT_TRUE(inc2 == rescan);

    net.set_matching(full.matching);  // restore for the next trial
  }
}

TEST(DynExtraction, TornDirtyRegisterIsHealed) {
  const Graph g = gen::path(3);  // 0-1-2
  congest::Network net(g, congest::Model::kCongest, 5);
  Matching m(3);
  m.add(g, g.find_edge(0, 1));
  net.set_matching(m);
  // Tear node 1's half of the pair: 0 still points at 1.
  std::vector<int> image;
  net.copy_registers(image);
  image[1] = -1;
  net.restore_registers(image);
  const std::vector<NodeId> dirty{1};
  congest::DegradationReport rep;
  Matching healed = m;
  EXPECT_EQ(net.refresh_matching(dirty, healed, &rep), -1);
  // Pair (0,1) involved dirty node 1 and its register no longer claims
  // it, so the pair is gone; node 0's torn register is skipped.
  EXPECT_EQ(healed.size(), 0u);
  EXPECT_TRUE(healed.is_valid(g));
}

// ------------------------------------------------- service differential

ServiceOptions certified_service_options(std::uint64_t seed,
                                         unsigned threads = 1) {
  ServiceOptions so;
  // Small epochs on a sparse graph: the regime where the 2-hop dirty
  // region stays well under the live vertex count and repairs are
  // genuinely incremental.
  so.limits.max_ops = 8;
  so.limits.max_latency_us = 4'000;
  so.repair.fallback_fraction = 0.5;
  so.repair.certify = true;
  so.repair.certify_ratio = true;
  so.repair.num_threads = threads;
  so.repair.seed = seed;
  return so;
}

void run_differential(WorkloadMode mode, std::uint64_t seed) {
  const Graph g = gen::gnp(600, 0.006, seed);
  MatchingService svc(g, certified_service_options(seed));
  WorkloadOptions wo;
  wo.mode = mode;
  wo.seed = seed * 31 + 7;
  Workload w(g, wo);

  const auto& boot = svc.engine().bootstrap_report();
  EXPECT_TRUE(boot.full_recompute);
  EXPECT_TRUE(boot.stats.completed);

  for (int i = 0; i < 400; ++i) {
    (void)svc.submit(w.next(svc.mate_view()));
  }
  (void)svc.flush();
  ASSERT_FALSE(svc.history().empty());

  std::size_t incremental = 0;
  for (const EpochReport& r : svc.history()) {
    ASSERT_TRUE(r.certificate.has_value());
    // The certificate folds in validity, crash-respect AND maximality of
    // the repaired matching on a fresh live snapshot.
    EXPECT_TRUE(r.certificate->valid) << "epoch " << r.epoch.index;
    EXPECT_TRUE(r.certificate->respects_crashes);
    // Maximal matchings are 1/2-approximate; the certificate computes
    // the exact optimum on the surviving subgraph.
    EXPECT_GE(r.certificate->ratio, 0.5) << "epoch " << r.epoch.index;
    if (!r.full_recompute) ++incremental;
  }
  // The small epochs of this stream must mostly repair incrementally.
  EXPECT_GT(incremental, svc.history().size() / 2);

  // Differential half: a from-scratch recompute on the final snapshot
  // satisfies exactly the same invariants, and both being maximal pins
  // their sizes within a factor two of each other.
  const auto cert = svc.engine().certify_now(false);
  EXPECT_TRUE(cert.report.valid);
  EXPECT_TRUE(cert.maximal);
  congest::Network net(cert.graph, congest::Model::kCongest, seed ^ 0xD1F);
  const IsraeliItaiResult scratch = israeli_itai(net);
  const auto scratch_report = verify_matching_invariants(
      cert.graph, scratch.matching, svc.engine().graph().dead_mask());
  EXPECT_TRUE(scratch_report.valid);
  EXPECT_TRUE(scratch.matching.is_maximal(cert.graph));
  EXPECT_LE(cert.matching.size(), 2 * scratch.matching.size());
  EXPECT_LE(scratch.matching.size(), 2 * cert.matching.size());
}

TEST(DynDifferential, UniformChurnEveryEpochCertifies) {
  run_differential(WorkloadMode::kUniform, 3);
  run_differential(WorkloadMode::kUniform, 4);
}

TEST(DynDifferential, HotspotChurnEveryEpochCertifies) {
  run_differential(WorkloadMode::kHotspot, 5);
  run_differential(WorkloadMode::kHotspot, 6);
}

TEST(DynDifferential, AdversarialFlapEveryEpochCertifies) {
  run_differential(WorkloadMode::kAdversarialFlap, 7);
  run_differential(WorkloadMode::kAdversarialFlap, 8);
}

TEST(DynDifferential, FullRecomputeFallbackStaysCertified) {
  const Graph g = gen::gnp(100, 0.06, 21);
  ServiceOptions so = certified_service_options(21);
  so.repair.fallback_fraction = 0.0;  // force the full path every epoch
  MatchingService svc(g, so);
  WorkloadOptions wo;
  wo.seed = 22;
  Workload w(g, wo);
  for (int i = 0; i < 150; ++i) (void)svc.submit(w.next());
  (void)svc.flush();
  ASSERT_FALSE(svc.history().empty());
  for (const EpochReport& r : svc.history()) {
    EXPECT_TRUE(r.full_recompute);
    ASSERT_TRUE(r.certificate.has_value());
    EXPECT_TRUE(r.certificate->valid);
  }
}

// ------------------------------------------------------- deterministic

TEST(DynDeterminism, TrajectoryBitIdenticalAcrossThreadsAndSched) {
  const Graph g = gen::gnp(150, 0.05, 31);
  // 1, 8, 32 and 16 shards.
  const unsigned thread_counts[] = {1, 2, 8, 4};
  std::vector<std::vector<EpochReport>> histories;
  std::vector<Matching> finals;
  for (const unsigned threads : thread_counts) {
    ServiceOptions so;
    so.limits.max_ops = 16;
    so.limits.max_latency_us = 3'000;
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
    }
    EXPECT_TRUE(finals[c] == finals[0]);
  }
}

// ------------------------------------------------------- crash churn

TEST(DynFaultChurn, CrashScheduleDrivesDepartAndReturn) {
  const Graph g = gen::gnp(90, 0.07, 41);
  congest::FaultPlan plan;
  plan.crash_prob = 0.15;
  plan.crash_round_bound = 120;
  plan.restart_prob = 0.7;
  plan.restart_delay = 40;
  plan.seed = 13;
  const std::vector<UpdateOp> churn =
      dyn::churn_from_crash_plan(plan, g.node_count(),
                                 /*horizon_rounds=*/200,
                                 /*us_per_round=*/100);
  ASSERT_FALSE(churn.empty());
  bool saw_return = false;
  for (const UpdateOp& op : churn) {
    ASSERT_TRUE(op.kind == OpKind::kVertexDepart ||
                op.kind == OpKind::kVertexReturn);
    saw_return = saw_return || op.kind == OpKind::kVertexReturn;
  }
  EXPECT_TRUE(saw_return);

  MatchingService svc(g, certified_service_options(41));
  for (const UpdateOp& op : churn) (void)svc.submit(op);
  (void)svc.flush();
  ASSERT_FALSE(svc.history().empty());
  for (const EpochReport& r : svc.history()) {
    ASSERT_TRUE(r.certificate.has_value());
    EXPECT_TRUE(r.certificate->valid);
    // The dead mask in the certificate is exactly the departed set, so
    // validity + respects_crashes says no matched edge touches one.
    EXPECT_TRUE(r.certificate->respects_crashes);
    EXPECT_EQ(r.certificate->matched_dead_nodes, 0u);
  }
}

// ----------------------------------------------------- link profiling

TEST(DynObs, LinkProfilerFollowsUniverseRebuilds) {
  // Uniform churn rebuilds the universe, which puts a larger Graph at
  // the address the link profiler bound to. With link profiling on (the
  // ObsConfig default) the profiler must take the new slot layout, not
  // count past the old one, and report only edges of the current
  // universe.
  constexpr NodeId kNodes = 2000;
  const Graph g = gen::gnp(kNodes, 3.0 / kNodes, 707);
  obs::Observer observer;
  ServiceOptions so;
  so.limits.max_ops = 16;
  so.limits.max_latency_us = 20'000;
  so.repair.quality_k = 1;
  so.repair.num_threads = 1;
  so.repair.seed = 17;
  so.repair.observer = &observer;
  WorkloadOptions wo;
  wo.mode = WorkloadMode::kUniform;
  wo.seed = 19;
  MatchingService svc(g, so);
  Workload w(g, wo);
  while (svc.history().size() < 40) (void)svc.submit(w.next(svc.mate_view()));
  std::size_t rebuilds = 0;
  for (const EpochReport& r : svc.history()) rebuilds += r.rebuilt ? 1 : 0;
  EXPECT_GT(rebuilds, 0u);

  const Graph& universe = svc.engine().graph().universe();
  const auto links = observer.profiler().top_links(
      2 * static_cast<std::size_t>(universe.edge_count()));
  EXPECT_FALSE(links.empty());
  for (const auto& link : links) {
    ASSERT_LT(link.src, universe.node_count());
    EXPECT_NE(universe.find_edge(link.src, link.dst), kNoEdge)
        << link.src << "->" << link.dst;
  }
}

}  // namespace
}  // namespace dmatch
