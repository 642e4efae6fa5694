// Fault-injection subsystem: an inactive FaultPlan must leave the engine
// byte-identical, an active plan must be bit-identical across thread
// counts, every fault class must be observable in the RunStats counters,
// the resilient link layer must mask message faults, and every driver
// must degrade to a valid matching over the surviving nodes.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "congest/async.hpp"
#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "congest/resilient.hpp"
#include "core/wrap_gain.hpp"
#include "core/bipartite_mcm.hpp"
#include "core/general_mcm.hpp"
#include "core/half_mwm.hpp"
#include "core/israeli_itai.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "support/wire.hpp"

namespace dmatch {
namespace {

using congest::CrashEvent;
using congest::DegradationReport;
using congest::FaultPlan;
using congest::kRoundNever;
using congest::Model;
using congest::Network;
using congest::RunStats;

const unsigned kThreadCounts[] = {1, 2, 8};

FaultPlan lossy_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.drop_prob = 0.05;
  plan.duplicate_prob = 0.05;
  plan.delay_prob = 0.1;
  plan.max_delay = 3;
  plan.reorder_prob = 0.2;
  plan.seed = seed;
  return plan;
}

FaultPlan harsh_plan(std::uint64_t seed) {
  FaultPlan plan = lossy_plan(seed);
  plan.crash_prob = 0.05;
  plan.restart_prob = 0.5;
  plan.crash_round_bound = 32;
  plan.restart_delay = 6;
  return plan;
}

void expect_same_stats(const RunStats& a, const RunStats& b,
                       unsigned threads) {
  EXPECT_EQ(a.rounds, b.rounds) << "threads=" << threads;
  EXPECT_EQ(a.messages, b.messages) << "threads=" << threads;
  EXPECT_EQ(a.total_bits, b.total_bits) << "threads=" << threads;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << "threads=" << threads;
  EXPECT_EQ(a.completed, b.completed) << "threads=" << threads;
  EXPECT_EQ(a.round_messages, b.round_messages) << "threads=" << threads;
  EXPECT_EQ(a.dropped_messages, b.dropped_messages) << "threads=" << threads;
  EXPECT_EQ(a.duplicated_messages, b.duplicated_messages)
      << "threads=" << threads;
  EXPECT_EQ(a.delayed_messages, b.delayed_messages) << "threads=" << threads;
  EXPECT_EQ(a.reordered_inboxes, b.reordered_inboxes)
      << "threads=" << threads;
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes) << "threads=" << threads;
  EXPECT_EQ(a.restarted_nodes, b.restarted_nodes) << "threads=" << threads;
}

void expect_same_degradation(const DegradationReport& a,
                             const DegradationReport& b, unsigned threads) {
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << "threads=" << threads;
  EXPECT_EQ(a.contract_tripped, b.contract_tripped) << "threads=" << threads;
  EXPECT_EQ(a.crashed_nodes, b.crashed_nodes) << "threads=" << threads;
  EXPECT_EQ(a.torn_registers_healed, b.torn_registers_healed)
      << "threads=" << threads;
  EXPECT_EQ(a.dead_registers_healed, b.dead_registers_healed)
      << "threads=" << threads;
}

TEST(FaultPlanBasics, DefaultPlanIsInactive) {
  EXPECT_FALSE(FaultPlan{}.any());
  FaultPlan drops;
  drops.drop_prob = 0.01;
  EXPECT_TRUE(drops.any());
  FaultPlan scheduled;
  scheduled.crashes.push_back({0, 3, kRoundNever});
  EXPECT_TRUE(scheduled.any());
}

TEST(FaultPlanBasics, InactivePlanIsByteIdenticalToNoPlan) {
  // Acceptance gate: Options with a default FaultPlan must reproduce the
  // fault-free engine exactly — same stats, same matching, and every
  // fault counter pinned at zero.
  const Graph g = gen::gnp(200, 0.04, 7);
  Network plain(g, Model::kCongest, 7, 48);
  const IsraeliItaiResult expected = israeli_itai(plain);
  for (const unsigned threads : kThreadCounts) {
    Network::Options options;
    options.num_threads = threads;
    options.fault = FaultPlan{};
    Network net(g, Model::kCongest, 7, 48, options);
    EXPECT_FALSE(net.fault_active());
    const IsraeliItaiResult got = israeli_itai(net);
    expect_same_stats(expected.stats, got.stats, threads);
    EXPECT_TRUE(expected.matching == got.matching) << "threads=" << threads;
    EXPECT_EQ(got.stats.dropped_messages, 0u);
    EXPECT_EQ(got.stats.duplicated_messages, 0u);
    EXPECT_EQ(got.stats.delayed_messages, 0u);
    EXPECT_EQ(got.stats.reordered_inboxes, 0u);
    EXPECT_EQ(got.stats.crashed_nodes, 0u);
    EXPECT_EQ(got.stats.restarted_nodes, 0u);
    EXPECT_FALSE(got.degradation.degraded());
  }
}

TEST(FaultDeterminism, IsraeliItaiIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = gen::gnp(250, 0.03, seed);
    Network::Options ref_options;
    ref_options.num_threads = 1;
    ref_options.fault = harsh_plan(seed);
    Network ref(g, Model::kCongest, seed, 48, ref_options);
    const IsraeliItaiResult expected = israeli_itai(ref);
    ASSERT_TRUE(expected.matching.is_valid(g));
    for (const unsigned threads : kThreadCounts) {
      Network::Options options = ref_options;
      options.num_threads = threads;
      Network net(g, Model::kCongest, seed, 48, options);
      const IsraeliItaiResult got = israeli_itai(net);
      expect_same_stats(expected.stats, got.stats, threads);
      expect_same_degradation(expected.degradation, got.degradation, threads);
      EXPECT_TRUE(expected.matching == got.matching)
          << "threads=" << threads << " seed=" << seed;
    }
  }
}

TEST(FaultDeterminism, BipartiteMcmIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = 11;
  const Graph g = gen::bipartite_gnp(40, 40, 0.12, seed);
  const auto side = g.bipartition();
  ASSERT_TRUE(side.has_value());
  BipartiteMcmOptions mcm;
  mcm.k = 2;
  Network::Options ref_options;
  ref_options.num_threads = 1;
  ref_options.fault = lossy_plan(seed);
  ref_options.fault.crash_prob = 0.03;
  Network ref(g, Model::kCongest, seed, 48, ref_options);
  const BipartiteMcmResult expected = bipartite_mcm(ref, *side, mcm);
  ASSERT_TRUE(expected.matching.is_valid(g));
  for (const unsigned threads : kThreadCounts) {
    Network::Options options = ref_options;
    options.num_threads = threads;
    Network net(g, Model::kCongest, seed, 48, options);
    const BipartiteMcmResult got = bipartite_mcm(net, *side, mcm);
    expect_same_stats(expected.stats, got.stats, threads);
    expect_same_degradation(expected.degradation, got.degradation, threads);
    EXPECT_TRUE(expected.matching == got.matching) << "threads=" << threads;
  }
}

TEST(FaultCounters, MessageFaultsAreCounted) {
  // With every message-fault probability cranked up, every counter must
  // fire on a protocol that actually exchanges messages.
  const Graph g = gen::gnp(150, 0.05, 5);
  Network::Options options;
  options.fault = lossy_plan(5);
  options.fault.drop_prob = 0.3;
  options.fault.duplicate_prob = 0.3;
  options.fault.delay_prob = 0.3;
  options.fault.reorder_prob = 0.5;
  Network net(g, Model::kCongest, 5, 48, options);
  const IsraeliItaiResult result = israeli_itai(net);
  EXPECT_TRUE(result.matching.is_valid(g));
  EXPECT_GT(result.stats.dropped_messages, 0u);
  EXPECT_GT(result.stats.duplicated_messages, 0u);
  EXPECT_GT(result.stats.delayed_messages, 0u);
  EXPECT_GT(result.stats.reordered_inboxes, 0u);
  EXPECT_EQ(result.stats.crashed_nodes, 0u);
}

TEST(FaultCounters, TotalDropStillTerminates) {
  // drop_prob = 1: no message ever arrives. The driver must come back
  // with a valid (necessarily empty-ish) matching instead of hanging.
  const Graph g = gen::gnp(80, 0.1, 3);
  Network::Options options;
  options.fault.drop_prob = 1.0;
  options.fault.seed = 3;
  Network net(g, Model::kCongest, 3, 48, options);
  const IsraeliItaiResult result = israeli_itai(net);
  EXPECT_TRUE(result.matching.is_valid(g));
  EXPECT_TRUE(result.degradation.degraded());
  EXPECT_GT(result.stats.dropped_messages, 0u);
}

TEST(FaultCrashes, ScheduledCrashKillsTheNode) {
  // Star graph: crash the hub before it can act; nobody can match.
  const NodeId n = 10;
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v, 1.0});
  const Graph g = Graph::from_edges(n, std::move(edges));
  Network::Options options;
  options.fault.crashes.push_back({0, 0, kRoundNever});
  Network net(g, Model::kCongest, 1, 48, options);
  EXPECT_TRUE(net.fault_active());
  const IsraeliItaiResult result = israeli_itai(net);
  EXPECT_TRUE(net.node_dead(0));
  EXPECT_EQ(result.matching.size(), 0u);
  const MatchingInvariantReport check =
      verify_matching_invariants(g, result.matching, &net);
  EXPECT_TRUE(check.ok()) << check.summary();
}

TEST(FaultCrashes, CrashRestartIsCountedAndRecovers) {
  // A restart-tolerant protocol (stateless chatter with no inter-node
  // expectations): the crash and restart rounds must land in the
  // counters, and both nodes must be alive again at extraction time.
  class Chatter final : public congest::Process {
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
  const Graph g = gen::gnp(60, 0.1, 9);
  Network::Options options;
  options.fault.crashes.push_back({3, 1, 5});
  options.fault.crashes.push_back({7, 2, 8});
  options.fault.seed = 9;
  Network net(g, Model::kCongest, 9, 48, options);
  const RunStats stats = net.run(
      [](NodeId, const Graph&) -> std::unique_ptr<congest::Process> {
        return std::make_unique<Chatter>();
      },
      256);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.crashed_nodes, 2u);
  EXPECT_EQ(stats.restarted_nodes, 2u);
  EXPECT_GT(stats.dropped_messages, 0u);  // deliveries into the dead window
  // Both nodes are back up at extraction time.
  EXPECT_FALSE(net.node_dead(3));
  EXPECT_FALSE(net.node_dead(7));
}

TEST(FaultCrashes, DriverSurvivesCrashRestart) {
  // The israeli-itai driver on the same schedule: a restarted node's
  // fresh protocol state can legitimately trip its neighbors' protocol
  // asserts; the driver must degrade to a valid matching either way.
  const Graph g = gen::gnp(60, 0.1, 9);
  Network::Options options;
  options.fault.crashes.push_back({3, 1, 5});
  options.fault.crashes.push_back({7, 2, 8});
  options.fault.seed = 9;
  Network net(g, Model::kCongest, 9, 48, options);
  const IsraeliItaiResult result = israeli_itai(net);
  EXPECT_TRUE(result.matching.is_valid(g));
  const MatchingInvariantReport report =
      verify_matching_invariants(g, result.matching, &net);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Resilient, NoFaultWrapIsTransparent) {
  // With no faults the resilient wrapper must not change the computed
  // matching: each virtual round sees exactly the fault-free inboxes.
  for (const std::uint64_t seed : {4u, 5u}) {
    const Graph g = gen::gnp(120, 0.05, seed);
    Network plain(g, Model::kCongest, seed, 48);
    plain.run(israeli_itai_factory(), 1 << 12);
    const Matching expected = plain.extract_matching();

    Network wrapped(g, Model::kCongest, seed, 48);
    const RunStats stats = wrapped.run(
        congest::resilient_factory(israeli_itai_factory()),
        congest::resilient_round_budget(1 << 12));
    EXPECT_TRUE(stats.completed);
    EXPECT_TRUE(expected == wrapped.extract_matching()) << "seed=" << seed;
  }
}

TEST(Resilient, MasksMessageFaults) {
  // Drops, duplicates, delays and reorders — but no crashes: the ARQ layer
  // must deliver every virtual-round message, so the protocol still
  // produces a maximal matching.
  const std::uint64_t seed = 17;
  const Graph g = gen::gnp(100, 0.05, seed);
  Network::Options options;
  options.fault = lossy_plan(seed);
  Network net(g, Model::kCongest, seed, 48, options);
  const IsraeliItaiResult result = israeli_itai(net);
  EXPECT_TRUE(result.matching.is_valid(g));
  EXPECT_TRUE(result.matching.is_maximal(g));
  EXPECT_FALSE(result.degradation.contract_tripped);
}

TEST(Resilient, RoundBudgetFormula) {
  // Selective repeat pipelines one virtual round per real round in the
  // steady state; 2x plus a constant covers retransmissions and tails.
  EXPECT_EQ(congest::resilient_round_budget(0), 256);
  EXPECT_EQ(congest::resilient_round_budget(10), 2 * 10 + 256);
  EXPECT_EQ(congest::resilient_round_budget(1 << 30), 1000000000);
}

TEST(Healing, ResilientExtractionMatchesHealedExtraction) {
  // Run the *unwrapped* protocol under faults (its internal asserts may
  // trip — that is part of the scenario), then check that the non-mutating
  // resilient extraction agrees with heal + strict extraction.
  const std::uint64_t seed = 23;
  const Graph g = gen::gnp(120, 0.05, seed);
  Network::Options options;
  options.fault = harsh_plan(seed);
  Network net(g, Model::kCongest, seed, 48, options);
  try {
    net.run(israeli_itai_factory(), 256);
  } catch (const ContractViolation&) {
  } catch (const congest::MessageTooLarge&) {
  }
  DegradationReport soft;
  const Matching via_resilient = net.extract_matching_resilient(&soft);
  EXPECT_TRUE(via_resilient.is_valid(g));
  DegradationReport healed;
  net.heal_registers(&healed);
  const Matching via_heal = net.extract_matching();
  EXPECT_TRUE(via_resilient == via_heal);
  EXPECT_EQ(soft.crashed_nodes, healed.crashed_nodes);
}

// The next two tests check Network's chunk-ordered extraction across
// thread counts. They keep the suite name they were first written under,
// so their test IDs stay stable.
TEST(AsyncParallel, ParallelExtractMatchesSequentialScan) {
  // Build + run at several thread counts; the parallel chunk-ordered
  // extraction must reproduce the sequential matching exactly, and the
  // resilient extraction must tally the same degradation report.
  FaultPlan plan;
  plan.seed = 3;
  plan.crash_prob = 0.1;
  for (const std::uint64_t seed : {2u, 8u}) {
    const Graph g = gen::gnp(400, 0.02, seed);
    Matching ref;
    congest::DegradationReport ref_rep;
    for (const unsigned threads : kThreadCounts) {
      Network::Options options;
      options.num_threads = threads;
      options.fault = plan;
      Network net(g, Model::kCongest, seed, 48, options);
      try {
        net.run(israeli_itai_factory(), 256);
      } catch (const ContractViolation&) {
      } catch (const congest::MessageTooLarge&) {
      }
      congest::DegradationReport rep;
      const Matching m = net.extract_matching_resilient(&rep);
      if (threads == 1) {
        ref = m;
        ref_rep = rep;
      } else {
        EXPECT_TRUE(ref == m) << "threads=" << threads << " seed=" << seed;
        EXPECT_EQ(ref_rep.crashed_nodes, rep.crashed_nodes);
        EXPECT_EQ(ref_rep.dead_registers_healed, rep.dead_registers_healed);
        EXPECT_EQ(ref_rep.torn_registers_healed, rep.torn_registers_healed);
      }
    }
  }
}

TEST(AsyncParallel, StrictExtractAfterHealIdenticalAcrossThreadCounts) {
  // Heal + strict extraction exercise the parallel chunk-ordered scan on
  // a register state shaped by crashes; every thread count must agree
  // with the sequential result and with the resilient scan.
  FaultPlan plan;
  plan.seed = 5;
  plan.crash_prob = 0.15;
  plan.restart_prob = 0.3;
  const Graph g = gen::gnp(300, 0.03, 19);
  Matching ref;
  for (const unsigned threads : kThreadCounts) {
    Network::Options options;
    options.num_threads = threads;
    options.fault = plan;
    Network net(g, Model::kCongest, 19, 48, options);
    try {
      net.run(israeli_itai_factory(), 256);
    } catch (const ContractViolation&) {
    } catch (const congest::MessageTooLarge&) {
    }
    const Matching via_resilient = net.extract_matching_resilient();
    net.heal_registers();
    const Matching via_heal = net.extract_matching();
    EXPECT_TRUE(via_resilient == via_heal) << "threads=" << threads;
    EXPECT_TRUE(via_heal.is_valid(g)) << "threads=" << threads;
    if (threads == 1) {
      ref = via_heal;
    } else {
      EXPECT_TRUE(ref == via_heal) << "threads=" << threads;
    }
  }
}

TEST(Verify, FlagsMatchedDeadNodes) {
  const Graph g = gen::cycle(8);
  Network::Options options;
  options.fault.crashes.push_back({2, 0, kRoundNever});
  Network net(g, Model::kCongest, 1, 48, options);
  net.run(israeli_itai_factory(), 64);  // advance lifetime past round 0

  Matching bad(g.node_count());
  bad.add(g, g.incident_edges(2).front());  // matches dead node 2
  const MatchingInvariantReport report =
      verify_matching_invariants(g, bad, &net);
  EXPECT_TRUE(report.valid);
  EXPECT_FALSE(report.respects_crashes);
  EXPECT_EQ(report.matched_dead_nodes, 1u);
  EXPECT_FALSE(report.ok());
}

TEST(Verify, RatioAgainstSurvivingOptimum) {
  const Graph g = gen::bipartite_gnp(30, 30, 0.15, 2);
  Network net(g, Model::kCongest, 2, 48);
  const IsraeliItaiResult result = israeli_itai(net);
  const MatchingInvariantReport report =
      verify_matching_invariants(g, result.matching, &net, true);
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.optimal_size, report.size);
  EXPECT_GE(report.ratio, 0.5);  // maximal matchings are 1/2-approximate
  EXPECT_LE(report.ratio, 1.0);
}

TEST(Resilient, MasksReorderHeavySchedules) {
  // Reordering at 0.9 with long delays and duplicates: selective repeat
  // reassembles every virtual-round inbox in order, so the protocol must
  // still behave exactly as if the network were reliable.
  const std::uint64_t seed = 21;
  const Graph g = gen::gnp(100, 0.05, seed);
  Network::Options options;
  options.fault.drop_prob = 0.1;
  options.fault.duplicate_prob = 0.3;
  options.fault.delay_prob = 0.4;
  options.fault.max_delay = 5;
  options.fault.reorder_prob = 0.9;
  options.fault.seed = seed;
  Network net(g, Model::kCongest, seed, 48, options);
  const IsraeliItaiResult result = israeli_itai(net);
  EXPECT_TRUE(result.matching.is_valid(g));
  EXPECT_TRUE(result.matching.is_maximal(g));
  EXPECT_FALSE(result.degradation.contract_tripped);
  EXPECT_GT(result.stats.reordered_inboxes, 0u);
}

TEST(Resilient, PipeliningBeatsStopAndWait) {
  // window = 1 degenerates to stop-and-wait; window = 8 pipelines up to a
  // full window per RTT. Under a delay-heavy plan the pipelined run must
  // finish in strictly fewer real rounds — and, because both deliver the
  // identical virtual-round inboxes, with the identical matching.
  const std::uint64_t seed = 13;
  const Graph g = gen::gnp(100, 0.05, seed);
  FaultPlan plan;
  plan.drop_prob = 0.1;
  plan.delay_prob = 0.4;
  plan.max_delay = 4;
  plan.seed = seed;
  const auto run_with = [&](int window) {
    Network::Options options;
    options.num_threads = 1;
    options.fault = plan;
    Network net(g, Model::kCongest, seed, 48, options);
    congest::ResilientOptions ropts;
    ropts.window = window;
    const RunStats stats =
        net.run(congest::resilient_factory(israeli_itai_factory(), ropts),
                congest::resilient_round_budget(1 << 12));
    EXPECT_TRUE(stats.completed) << "window=" << window;
    return std::pair{stats.rounds, net.extract_matching()};
  };
  const auto [rounds_sr, matching_sr] = run_with(8);
  const auto [rounds_sw, matching_sw] = run_with(1);
  EXPECT_LT(rounds_sr, rounds_sw);
  EXPECT_TRUE(matching_sr == matching_sw);
}

TEST(Resilient, LongProtocolSweepsManyWindows) {
  // 300 virtual rounds on every link: the sequence numbers cross the
  // 8-frame window boundary dozens of times (the 20-bit sequence space
  // itself never wraps — ResilientProcess asserts the protocol stays
  // under 2^20 virtual rounds). Every payload must arrive exactly once,
  // in order: each node counts its deliveries.
  constexpr int kRounds = 300;
  class CountingChatter final : public congest::Process {
   public:
    explicit CountingChatter(int* count) : count_(count) {}
    void on_round(congest::Context& ctx,
                  std::span<const congest::Envelope> inbox) override {
      *count_ += static_cast<int>(inbox.size());
      if (ctx.round() < kRounds) {
        BitWriter w;
        w.write_bool(true);
        const congest::Message msg =
            congest::Message::from_writer(std::move(w));
        for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
      }
      halted_ = ctx.round() >= kRounds;
    }
    [[nodiscard]] bool halted() const override { return halted_; }

   private:
    int* count_;
    bool halted_ = false;
  };
  const Graph g = gen::cycle(6);
  std::vector<int> counts(static_cast<std::size_t>(g.node_count()), 0);
  Network::Options options;
  options.fault = lossy_plan(29);
  Network net(g, Model::kCongest, 29, 48, options);
  const RunStats stats = net.run(
      congest::resilient_factory(
          [&counts](NodeId v,
                    const Graph&) -> std::unique_ptr<congest::Process> {
            return std::make_unique<CountingChatter>(
                &counts[static_cast<std::size_t>(v)]);
          }),
      congest::resilient_round_budget(8 * kRounds));
  EXPECT_TRUE(stats.completed);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(counts[static_cast<std::size_t>(v)], 2 * kRounds)
        << "node " << v;
  }
}

TEST(Resilient, WindowedDeterministicAcrossThreadCounts) {
  // The ARQ keeps the engine's bit-identical guarantee for any thread
  // count, including with a non-default window.
  const std::uint64_t seed = 43;
  const Graph g = gen::gnp(150, 0.04, seed);
  congest::ResilientOptions ropts;
  ropts.window = 3;
  Network::Options ref_options;
  ref_options.num_threads = 1;
  ref_options.fault = harsh_plan(seed);
  Network ref(g, Model::kCongest, seed, 48, ref_options);
  const RunStats expected = ref.run(
      congest::resilient_factory(israeli_itai_factory(), ropts),
      congest::resilient_round_budget(1 << 12));
  const Matching expected_m = ref.extract_matching_resilient();
  for (const unsigned threads : kThreadCounts) {
    Network::Options options = ref_options;
    options.num_threads = threads;
    Network net(g, Model::kCongest, seed, 48, options);
    const RunStats got = net.run(
        congest::resilient_factory(israeli_itai_factory(), ropts),
        congest::resilient_round_budget(1 << 12));
    expect_same_stats(expected, got, threads);
    EXPECT_TRUE(expected_m == net.extract_matching_resilient())
        << "threads=" << threads;
  }
}

TEST(AsyncFaults, MessageFaultCountersObservable) {
  // A fault plan handed to the alpha synchronizer must actually fire (no
  // silent no-op path) and be visible in AsyncStats.
  class Chatter final : public congest::Process {
   public:
    void on_round(congest::Context& ctx,
                  std::span<const congest::Envelope>) override {
      if (ctx.round() < 12) {
        BitWriter w;
        w.write_bool(true);
        const congest::Message msg =
            congest::Message::from_writer(std::move(w));
        for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
      }
      halted_ = ctx.round() >= 12;
    }
    [[nodiscard]] bool halted() const override { return halted_; }

   private:
    bool halted_ = false;
  };
  const Graph g = gen::gnp(80, 0.06, 41);
  congest::AsyncOptions aopt;
  aopt.fault = lossy_plan(41);
  const congest::AsyncRunResult result = congest::run_synchronized(
      g,
      [](NodeId, const Graph&) -> std::unique_ptr<congest::Process> {
        return std::make_unique<Chatter>();
      },
      41, 256, aopt);
  EXPECT_TRUE(result.stats.completed);
  EXPECT_GT(result.stats.dropped_messages, 0u);
  EXPECT_GT(result.stats.duplicated_messages, 0u);
  EXPECT_GT(result.stats.delayed_messages, 0u);
  EXPECT_GT(result.stats.reordered_inboxes, 0u);
}

TEST(AsyncFaults, AgreesWithEngineUnderDrops) {
  // The alpha synchronizer draws the identical per-message fault hashes
  // as the round engine, so a drops-only plan produces bit-identical
  // histories: same drop count, same healed matching.
  const Graph g = gen::gnp(120, 0.06, 7);
  FaultPlan plan;
  plan.drop_prob = 0.1;
  plan.seed = 11;
  Network::Options nopt;
  nopt.fault = plan;
  Network net(g, Model::kCongest, 7, 48, nopt);
  const RunStats sync_stats = net.run(israeli_itai_factory(), 4096);
  const Matching sync_m = net.extract_matching_resilient();

  congest::AsyncOptions aopt;
  aopt.fault = plan;
  const congest::AsyncRunResult async_result =
      congest::run_synchronized(g, israeli_itai_factory(), 7, 4096, aopt);
  EXPECT_EQ(sync_stats.dropped_messages, async_result.stats.dropped_messages);
  EXPECT_TRUE(sync_m == async_result.matching);
  const MatchingInvariantReport check = verify_matching_invariants(
      g, async_result.matching, async_result.dead_nodes);
  EXPECT_TRUE(check.ok()) << check.summary();
}

TEST(AsyncFaults, AgreesWithEngineUnderCrashRestart) {
  // Crash / crash-restart schedules are drawn from the plan seed alone,
  // so both executors agree on who dies when — and on the healed result.
  const Graph g = gen::gnp(120, 0.06, 7);
  FaultPlan plan;
  plan.drop_prob = 0.05;
  plan.crashes.push_back({3, 4, 20});
  plan.crashes.push_back({10, 6, kRoundNever});
  plan.crashes.push_back({55, 2, 12});
  plan.seed = 9;
  Network::Options nopt;
  nopt.fault = plan;
  Network net(g, Model::kCongest, 7, 48, nopt);
  const RunStats sync_stats = net.run(israeli_itai_factory(), 4096);
  net.heal_registers(nullptr);
  const Matching sync_m = net.extract_matching();

  congest::AsyncOptions aopt;
  aopt.fault = plan;
  const congest::AsyncRunResult async_result =
      congest::run_synchronized(g, israeli_itai_factory(), 7, 4096, aopt);
  EXPECT_EQ(sync_stats.dropped_messages, async_result.stats.dropped_messages);
  EXPECT_EQ(sync_stats.restarted_nodes, async_result.stats.restarted_nodes);
  EXPECT_TRUE(sync_m == async_result.matching);
  ASSERT_EQ(async_result.dead_nodes.size(),
            static_cast<std::size_t>(g.node_count()));
  EXPECT_TRUE(async_result.dead_nodes[10]);  // never restarts
  EXPECT_FALSE(async_result.dead_nodes[3]);  // restarted at round 20
  const MatchingInvariantReport check = verify_matching_invariants(
      g, async_result.matching, async_result.dead_nodes);
  EXPECT_TRUE(check.ok()) << check.summary();
}

// --- aborted rounds: a tripped round leaves no layout behind ----------

struct Trip : std::runtime_error {
  Trip() : std::runtime_error("trip") {}
};

/// Israeli–Itai, except that `thrower` throws when it steps round `round`:
/// the nodes stepped before it in that round have already drawn from
/// their RNG streams, and which ones those are depends on the shard
/// layout and, above one thread, on timing.
class TrippedIsraeliItai final : public congest::Process {
 public:
  TrippedIsraeliItai(std::unique_ptr<congest::Process> inner, bool thrower,
                     int round)
      : inner_(std::move(inner)), thrower_(thrower), round_(round) {}
  void on_round(congest::Context& ctx,
                std::span<const congest::Envelope> inbox) override {
    if (thrower_ && ctx.round() == round_) throw Trip();
    inner_->on_round(ctx, inbox);
  }
  [[nodiscard]] bool halted() const override { return inner_->halted(); }

 private:
  std::unique_ptr<congest::Process> inner_;
  bool thrower_;
  int round_;
};

/// Three tripped Israeli–Itai runs on one Network, then the driver on
/// what they left: everything the four runs leave behind.
struct TripHistory {
  std::vector<std::uint64_t> rounds;  // lifetime rounds of each tripped run
  std::vector<std::vector<int>> registers;  // after each tripped run
  IsraeliItaiResult final_run;
  std::string metrics_json;
  std::vector<obs::TraceEvent> trace;
};

TripHistory trip_history(const Graph& g, const FaultPlan& plan,
                         unsigned threads) {
  // (thrower, run-local round) of each tripped run.
  const std::pair<NodeId, int> trips[] = {{97, 2}, {61, 4}, {120, 2}};
  obs::Observer observer;
  Network::Options options;
  options.num_threads = threads;
  options.fault = plan;
  options.observer = &observer;
  Network net(g, Model::kCongest, 29, 48, options);
  TripHistory h;
  const congest::ProcessFactory inner = israeli_itai_factory();
  for (const auto& [thrower, round] : trips) {
    const std::uint64_t before = net.lifetime_rounds();
    const congest::ProcessFactory factory = [&, thrower = thrower,
                                             round = round](NodeId v,
                                                            const Graph& gg) {
      return std::make_unique<TrippedIsraeliItai>(inner(v, gg), v == thrower,
                                                  round);
    };
    EXPECT_THROW((void)net.run(factory, 64), Trip) << "threads=" << threads;
    h.rounds.push_back(net.lifetime_rounds() - before);
    net.copy_registers(h.registers.emplace_back());
  }
  h.final_run = israeli_itai(net);
  std::ostringstream metrics;
  observer.metrics().write_json(metrics);
  h.metrics_json = metrics.str();
  h.trace = observer.trace_sink().merged();
  return h;
}

TEST(FaultRollback, TrippedRunsLeaveNoLayoutTrace) {
  // The round rollback contract: an aborted round restores the
  // registers, the RNG streams and the restart bookkeeping, so the
  // runs after it see the same state whichever nodes the aborted round
  // happened to step first. Repeated at every thread count, since above
  // one thread which nodes stepped before the trip is a matter of timing.
  const Graph g = gen::gnp(180, 0.04, 29);
  FaultPlan plan = harsh_plan(29);
  // A batch of nodes crashes at lifetime round 3 and restarts in round 6,
  // the round the second run trips in: whether a restarting node stepped
  // (and so consumed its one register reset) before the trip must not
  // show either.
  for (NodeId v = 3; v < g.node_count(); v += 7) {
    plan.crashes.push_back({v, 3, 6});
  }
  const TripHistory ref = trip_history(g, plan, 1);
  // Each run trips in its thrower's round; the rounds before it count.
  EXPECT_EQ(ref.rounds, (std::vector<std::uint64_t>{2, 4, 2}));
  EXPECT_TRUE(ref.final_run.matching.is_valid(g));
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " repeat=" << repeat);
      const TripHistory got = trip_history(g, plan, threads);
      EXPECT_EQ(got.rounds, ref.rounds);
      EXPECT_TRUE(got.registers == ref.registers);
      EXPECT_TRUE(got.final_run.matching == ref.final_run.matching);
      expect_same_stats(ref.final_run.stats, got.final_run.stats, threads);
      expect_same_degradation(ref.final_run.degradation,
                              got.final_run.degradation, threads);
      EXPECT_EQ(got.metrics_json, ref.metrics_json);
      EXPECT_TRUE(got.trace == ref.trace) << "trace multiset diverged";
    }
  }
}

TEST(Checkpoint, RetriesTransientContractTrip) {
  // A black box whose internal assert trips on the first attempt only:
  // run_stage_checkpointed must roll the registers back to the stage
  // boundary, replay, and come back with the checkpointed matching
  // intact — no abort reaches the caller.
  class Tripping final : public congest::Process {
   public:
    explicit Tripping(bool trip) : trip_(trip) {}
    void on_round(congest::Context&,
                  std::span<const congest::Envelope>) override {
      DMATCH_ASSERT(!trip_);  // the recoverable black-box contract
      halted_ = true;
    }
    [[nodiscard]] bool halted() const override { return halted_; }

   private:
    const bool trip_;
    bool halted_ = false;
  };
  const Graph g = gen::cycle(8);
  Network::Options options;
  options.num_threads = 1;
  options.fault.drop_prob = 0.05;
  options.fault.seed = 3;
  Network net(g, Model::kCongest, 3, 48, options);
  Matching initial(g.node_count());
  initial.add(g, 0);
  net.set_matching(initial);

  auto runs = std::make_shared<int>(0);
  congest::ProcessFactory factory =
      [runs](NodeId v, const Graph&) -> std::unique_ptr<congest::Process> {
    if (v == 0) ++*runs;
    return std::make_unique<Tripping>(*runs == 1 && v == 0);
  };
  congest::DegradationReport degradation;
  const RunStats stats = run_stage_checkpointed(net, factory, 16,
                                                /*max_attempts=*/3,
                                                degradation);
  EXPECT_EQ(*runs, 2);  // attempt 1 tripped, attempt 2 succeeded
  EXPECT_TRUE(degradation.contract_tripped);
  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(net.extract_matching() == initial);
}

TEST(Checkpoint, DeltaRestoreByteIdenticalToFullSnapshot) {
  // The delta restore must reproduce the captured raw register image
  // exactly — byte-identical to a full snapshot rewrite — while
  // touching only the registers the aborted stage drifted.
  const Graph g = gen::gnp(40, 0.15, 5);
  Network::Options options;
  options.num_threads = 2;
  Network net(g, Model::kCongest, 9, 48, options);
  Matching initial(g.node_count());
  net.set_matching(initial);

  const StageCheckpoint checkpoint = StageCheckpoint::capture(net);
  ASSERT_EQ(checkpoint.registers.size(),
            static_cast<std::size_t>(g.node_count()));

  // Drift the registers: a few rounds of the raw protocol match nodes.
  (void)net.run(israeli_itai_factory(), 6);
  std::vector<int> drifted;
  net.copy_registers(drifted);
  std::size_t expect_dirty = 0;
  for (std::size_t i = 0; i < drifted.size(); ++i) {
    if (drifted[i] != checkpoint.registers[i]) ++expect_dirty;
  }
  ASSERT_GT(expect_dirty, 0u);  // the drift actually happened

  const std::size_t dirty = checkpoint.restore(net);
  EXPECT_EQ(dirty, expect_dirty);
  std::vector<int> restored;
  net.copy_registers(restored);
  EXPECT_TRUE(restored == checkpoint.registers);  // byte-identical image
  EXPECT_TRUE(net.extract_matching() == initial);

  // Idempotent: a clean state replays nothing.
  EXPECT_EQ(checkpoint.restore(net), 0u);
}

TEST(Torture, HalfMwmCrashRestartSweep) {
  // Acceptance gate: half_mwm completes with a valid matching under
  // every crash-restart torture schedule with zero assert-aborts — both
  // the main network and the black box run the full fault plan, with
  // checkpoint/restart recovery inside every stage.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    for (const bool dominant : {false, true}) {
      HalfMwmOptions options;
      options.seed = seed;
      options.max_iterations_override = 5;
      options.black_box = dominant
                              ? HalfMwmOptions::BlackBox::kLocallyDominant
                              : HalfMwmOptions::BlackBox::kClassGreedy;
      options.fault = harsh_plan(seed);
      options.fault.crash_prob = 0.1;
      options.fault.restart_prob = 0.7;
      const Graph g = gen::with_uniform_weights(
          gen::gnp(60, 0.08, seed), 1.0, 9.0, seed);
      const HalfMwmResult result = half_mwm(g, options);
      EXPECT_TRUE(result.matching.is_valid(g))
          << "seed=" << seed << " dominant=" << dominant;
      ASSERT_EQ(result.dead_nodes.size(),
                static_cast<std::size_t>(g.node_count()));
      const MatchingInvariantReport check = verify_matching_invariants(
          g, result.matching, result.dead_nodes, /*compute_ratio=*/true);
      EXPECT_TRUE(check.ok())
          << check.summary() << " seed=" << seed << " dominant=" << dominant;
    }
  }
}

TEST(Drivers, GeneralMcmDegradesGracefully) {
  GeneralMcmOptions options;
  options.k = 2;
  options.seed = 31;
  options.patience = 5;
  options.fault = harsh_plan(31);
  const Graph g = gen::gnp(60, 0.08, 31);
  const GeneralMcmResult result = general_mcm(g, options);
  EXPECT_TRUE(result.matching.is_valid(g));
  EXPECT_GT(result.iterations, 0);
}

TEST(Drivers, HalfMwmDegradesGracefully) {
  HalfMwmOptions options;
  options.seed = 37;
  options.max_iterations_override = 6;
  options.fault = harsh_plan(37);
  const Graph g =
      gen::with_uniform_weights(gen::gnp(60, 0.08, 37), 1.0, 9.0, 37);
  const HalfMwmResult result = half_mwm(g, options);
  EXPECT_TRUE(result.matching.is_valid(g));
  EXPECT_GT(result.iterations, 0);
}

}  // namespace
}  // namespace dmatch
