// Hostile-network transport suite: the loss-recovery accelerators
// (XOR-parity FEC and speculative retransmit) must actually recover —
// fewer real rounds than the plain ARQ under loss, zero cost without it
// — and the heavy-tailed Pareto delay model must stay inside every
// determinism contract: bit-identical matchings, RunStats, metrics and
// traces across thread counts (and so shard counts) and both executors,
// with the re-derived K = 4 RTO never declaring a merely-slow link dead.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "congest/async.hpp"
#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "congest/resilient.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "support/sched.hpp"

namespace dmatch {
namespace {

using congest::DelayModel;
using congest::FaultPlan;
using congest::Model;
using congest::Network;
using congest::ResilientOptions;
using congest::RunStats;

const unsigned kThreadCounts[] = {1, 2, 8};

FaultPlan drop_plan(double drop, std::uint64_t seed) {
  FaultPlan plan;
  plan.drop_prob = drop;
  plan.seed = seed;
  return plan;
}

FaultPlan heavy_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.drop_prob = 0.03;
  plan.delay_prob = 0.25;
  plan.max_delay = 16;
  plan.delay_model = DelayModel::kPareto;
  plan.pareto_alpha = 1.1;
  plan.seed = seed;
  return plan;
}

std::string metrics_json(const obs::Observer& ob) {
  std::ostringstream out;
  ob.metrics().write_json(out);
  return out.str();
}

/// One resilient Israeli–Itai run with everything observable attached.
struct TransportRun {
  Matching matching;
  RunStats stats;
  std::string metrics;
  std::vector<obs::TraceEvent> trace;
  std::uint64_t fec_parity = 0;
  std::uint64_t fec_reconstructions = 0;
  std::uint64_t spec_retransmits = 0;
  std::uint64_t spurious_rx = 0;
  std::uint64_t useful_rx = 0;
  std::uint64_t dead_links = 0;
};

TransportRun run_transport(const Graph& g, const FaultPlan& plan,
                           const ResilientOptions& ropts, unsigned threads,
                           std::uint64_t proto_seed = 9) {
  obs::Observer ob;
  Network::Options options;
  options.num_threads = threads;
  options.fault = plan;
  options.observer = &ob;
  Network net(g, Model::kCongest, proto_seed, 48, options);
  TransportRun r;
  r.stats = net.run(congest::resilient_factory(israeli_itai_factory(), ropts),
                    congest::resilient_round_budget(1 << 12));
  r.matching = net.extract_matching_resilient();
  r.metrics = metrics_json(ob);
  r.trace = ob.trace_sink().merged();
  const auto& ids = ob.ids();
  r.fec_parity = ob.metrics().merged_value(ids.fec_parity_sent);
  r.fec_reconstructions = ob.metrics().merged_value(ids.fec_reconstructions);
  r.spec_retransmits = ob.metrics().merged_value(ids.arq_spec_retransmits);
  r.spurious_rx = ob.metrics().merged_value(ids.arq_spurious_rx);
  r.useful_rx = ob.metrics().merged_value(ids.arq_useful_rx);
  r.dead_links = ob.metrics().merged_value(ids.arq_dead_links);
  return r;
}

TEST(Fec, ReconstructionRecoversDropsFaster) {
  // The point of FEC: at drop = 0.1 the parity frames let receivers fill
  // single-loss holes without RTO waits, so the run must (a) actually
  // reconstruct, and (b) finish in strictly fewer real rounds than the
  // plain window-8 ARQ on the same fault history.
  const Graph g = gen::gnp(96, 0.05, 3);
  const FaultPlan plan = drop_plan(0.1, 3 * 557);
  const TransportRun plain = run_transport(g, plan, {}, 2);
  ResilientOptions fec;
  fec.fec_group = 8;
  const TransportRun armed = run_transport(g, plan, fec, 2);
  ASSERT_TRUE(plain.stats.completed);
  ASSERT_TRUE(armed.stats.completed);
  EXPECT_TRUE(armed.matching == plain.matching);
  EXPECT_GT(armed.fec_parity, 0u);
  EXPECT_GT(armed.fec_reconstructions, 0u);
  EXPECT_LT(armed.stats.rounds, plain.stats.rounds);
}

TEST(Fec, LosslessRoundsUnchanged) {
  // Parity frames ride only otherwise-idle rounds, and a fault-free
  // pipeline has none before the final drain — so arming FEC (and spec
  // retransmit) on a lossless link must not change the round count or
  // the matching. Parity may still be emitted during the drain (those
  // rounds are idle), but nothing is ever lost, so no reconstruction
  // and no speculative resend may ever happen.
  const Graph g = gen::gnp(96, 0.05, 5);
  const TransportRun plain = run_transport(g, drop_plan(0.0, 11), {}, 2);
  ResilientOptions armed_opts;
  armed_opts.fec_group = 8;
  armed_opts.spec_retx = 2;
  const TransportRun armed = run_transport(g, drop_plan(0.0, 11), armed_opts, 2);
  EXPECT_EQ(armed.stats.rounds, plain.stats.rounds);
  EXPECT_TRUE(armed.matching == plain.matching);
  EXPECT_EQ(armed.fec_reconstructions, 0u);
  EXPECT_EQ(armed.spec_retransmits, 0u);
}

TEST(SpecRetransmit, ClassifiedAndDeterministic) {
  // Under drop-heavy traffic the speculative modes must fire and the
  // receiver must classify the resulting arrivals (spurious duplicates
  // vs useful gap fills) — and every counter must be bit-identical
  // across thread counts, because spec decisions are pure functions of
  // the (deterministic) ack/sack history.
  const Graph g = gen::gnp(96, 0.05, 7);
  const FaultPlan plan = drop_plan(0.1, 77);
  ResilientOptions opts;
  opts.spec_retx = 2;
  const TransportRun base = run_transport(g, plan, opts, 1);
  ASSERT_TRUE(base.stats.completed);
  EXPECT_GT(base.spec_retransmits, 0u);
  EXPECT_GT(base.spurious_rx + base.useful_rx, 0u);
  for (const unsigned threads : kThreadCounts) {
    const TransportRun run = run_transport(g, plan, opts, threads);
    EXPECT_TRUE(run.matching == base.matching) << "threads=" << threads;
    EXPECT_EQ(run.metrics, base.metrics) << "threads=" << threads;
    EXPECT_TRUE(run.trace == base.trace) << "threads=" << threads;
  }
}

TEST(HeavyTail, ParetoDelaysIdenticalAcrossExecutors) {
  // The Pareto delay-amount draw is a pure hash shared by both
  // executors: running the same ARQ-wrapped protocol (the wrapper
  // masks the delays, so both runs quiesce) under the same plan, the
  // round engine and the alpha synchronizer must report the exact same
  // delayed/dropped counts and converge to the same matching.
  const Graph g = gen::gnp(80, 0.1, 13);
  const FaultPlan plan = heavy_plan(131);
  const auto factory =
      congest::resilient_factory(israeli_itai_factory(), ResilientOptions{});
  const int budget = congest::resilient_round_budget(1 << 12);
  Network::Options options;
  options.num_threads = 2;
  options.fault = plan;
  Network net(g, Model::kCongest, 9, 48, options);
  const RunStats engine = net.run(factory, budget);
  const Matching engine_matching = net.extract_matching_resilient();
  ASSERT_TRUE(engine.completed);
  ASSERT_TRUE(engine_matching.is_valid(g));
  EXPECT_GT(engine.delayed_messages, 0u);

  congest::AsyncOptions aopts;
  aopts.fault = plan;
  const auto async = run_synchronized(g, factory, 9, budget, aopts);
  ASSERT_TRUE(async.stats.completed);
  EXPECT_EQ(async.stats.dropped_messages, engine.dropped_messages);
  EXPECT_EQ(async.stats.delayed_messages, engine.delayed_messages);
  EXPECT_TRUE(async.matching == engine_matching);
}

TEST(HeavyTail, RtoToleratesTailDelaysWithoutDeadLinks) {
  // Delay-only heavy-tailed plan (no drops): with the re-derived
  // K = 4 RTO a tail sample must never exhaust retries into a false
  // link death — the run completes with a valid matching and zero
  // arq.dead_links, even though timeout retransmits may fire.
  const Graph g = gen::gnp(96, 0.05, 17);
  FaultPlan plan = heavy_plan(171);
  plan.drop_prob = 0;  // pure delay: nothing is ever actually lost
  ResilientOptions opts;
  opts.rto_var_mult = 4;
  const TransportRun run = run_transport(g, plan, opts, 2);
  ASSERT_TRUE(run.stats.completed);
  EXPECT_TRUE(run.matching.is_valid(g));
  EXPECT_GT(run.stats.delayed_messages, 0u);
  EXPECT_EQ(run.dead_links, 0u);
}

TEST(Rto, RederivedMultCutsSpuriousTimeouts) {
  // The re-derivation itself: on a pure-delay Pareto plan nothing is
  // ever lost, so every timeout retransmit is by definition spurious.
  // The heavy-tail K = 4 value must fire strictly fewer of them than
  // the classic K = 2 (derived for near-constant RTTs) at essentially
  // the same round count. Note no K eliminates them: delays near the
  // truncation bound outrun any srtt + K*rttvar estimate, which is why
  // tail recovery is delegated to FEC / speculative retransmit instead
  // of ever-larger multipliers.
  const Graph g = gen::gnp(96, 0.05, 23);
  FaultPlan plan = heavy_plan(231);
  plan.drop_prob = 0;
  const auto timeouts_at = [&](int mult) {
    obs::Observer ob;
    Network::Options options;
    options.num_threads = 1;
    options.fault = plan;
    options.observer = &ob;
    Network net(g, Model::kCongest, 9, 48, options);
    ResilientOptions opts;
    opts.rto_var_mult = mult;
    const RunStats stats =
        net.run(congest::resilient_factory(israeli_itai_factory(), opts),
                congest::resilient_round_budget(1 << 12));
    EXPECT_TRUE(stats.completed) << "rto_var_mult=" << mult;
    return std::pair{
        ob.metrics().merged_value(ob.ids().arq_timeout_retransmits),
        stats.rounds};
  };
  const auto [spurious_k2, rounds_k2] = timeouts_at(2);
  const auto [spurious_k4, rounds_k4] = timeouts_at(4);
  EXPECT_LT(spurious_k4, spurious_k2);
  // The conservatism is nearly free in rounds on a pure-delay plan.
  EXPECT_LE(rounds_k4, rounds_k2 + rounds_k2 / 10);
}

TEST(HeavyTail, FullArmorBitIdenticalAcrossThreads) {
  // The acceptance gate: FEC + speculative retransmit under the
  // heavy-tailed plan plus crash-restart, byte-identical matchings,
  // RunStats-derived metrics and traces for every thread count (1, 8
  // and 32 shards).
  const Graph g = gen::gnp(80, 0.1, 19);
  FaultPlan plan = heavy_plan(191);
  plan.crash_prob = 0.04;
  plan.restart_prob = 0.5;
  plan.crash_round_bound = 48;
  plan.restart_delay = 6;
  ResilientOptions opts;
  opts.fec_group = 8;
  opts.spec_retx = 2;
  opts.rto_var_mult = 4;  // the re-derived heavy-tail RTO
  const TransportRun base = run_transport(g, plan, opts, 1);
  EXPECT_TRUE(base.matching.is_valid(g));
  for (const unsigned threads : kThreadCounts) {
    const TransportRun run = run_transport(g, plan, opts, threads);
    EXPECT_TRUE(run.matching == base.matching) << "threads=" << threads;
    EXPECT_EQ(run.metrics, base.metrics) << "threads=" << threads;
    EXPECT_TRUE(run.trace == base.trace) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace dmatch
