// Scheduler suite (ctest label `sched`): the work-stealing fork-join
// dispatcher behind the round engine, plus the layout-independence
// contract — matchings, stats and observability artifacts must be
// byte-identical for any thread count, and so for any shard count and
// any order in which workers claim the shards, with and without fault
// injection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "support/sched.hpp"
#include "support/slab.hpp"

namespace dmatch {
namespace {

using congest::FaultPlan;
using congest::Model;
using congest::Network;
using support::balanced_part_of;
using support::balanced_range;
using support::BalancedRange;
using support::SchedOptions;
using support::Scheduler;

// One, eight and 32 shards: plan_tasks gives one shard at one worker and
// four per worker otherwise.
constexpr unsigned kThreadCounts[] = {1, 2, 8};

// --- balanced partition ----------------------------------------------

TEST(BalancedRangeTest, TilesAndBalances) {
  for (const std::size_t count : {0u, 1u, 7u, 8u, 9u, 64u, 1000u}) {
    for (const unsigned parts : {1u, 2u, 3u, 7u, 8u, 64u}) {
      std::size_t covered = 0;
      std::size_t min_len = count + 1, max_len = 0;
      for (unsigned p = 0; p < parts; ++p) {
        const BalancedRange r = balanced_range(count, parts, p);
        EXPECT_EQ(r.begin, covered) << "gap/overlap at part " << p;
        EXPECT_LE(r.begin, r.end);
        const std::size_t len = r.end - r.begin;
        min_len = std::min(min_len, len);
        max_len = std::max(max_len, len);
        covered = r.end;
      }
      EXPECT_EQ(covered, count) << "count=" << count << " parts=" << parts;
      // Balanced remainder: no two ranges differ by more than one item.
      EXPECT_LE(max_len - min_len, 1u)
          << "count=" << count << " parts=" << parts;
    }
  }
}

TEST(BalancedRangeTest, PartOfIsInverse) {
  for (const std::size_t count : {1u, 7u, 9u, 64u, 1000u}) {
    for (const unsigned parts : {1u, 2u, 3u, 7u, 8u, 64u}) {
      for (std::size_t i = 0; i < count; ++i) {
        const unsigned p = balanced_part_of(count, parts, i);
        const BalancedRange r = balanced_range(count, parts, p);
        EXPECT_TRUE(r.begin <= i && i < r.end)
            << "count=" << count << " parts=" << parts << " i=" << i;
      }
    }
  }
}

// --- dispatch semantics ----------------------------------------------

TEST(SchedulerTest, PlanTasks) {
  Scheduler one(1);
  EXPECT_EQ(one.plan_tasks(0), 1u);
  EXPECT_EQ(one.plan_tasks(1 << 20), 1u);  // one worker steps one shard
  Scheduler sched(4);
  EXPECT_EQ(sched.workers(), 4u);
  EXPECT_EQ(sched.plan_tasks(0), 1u);  // never zero shards
  EXPECT_EQ(sched.plan_tasks(3), 3u);  // never more tasks than items
  EXPECT_EQ(sched.plan_tasks(1 << 20), 4u * Scheduler::kBlocksPerWorker);
}

TEST(SchedulerTest, RunsEveryTaskExactlyOnce) {
  for (const unsigned threads : kThreadCounts) {
    Scheduler sched(threads);
    // Odd task counts exercise the remainder split and task counts below
    // the worker count leave some owners nothing but stealing; repeated
    // dispatches exercise generation and claim-flag reuse.
    for (const unsigned tasks : {1u, 5u, 7u, 64u}) {
      std::vector<std::atomic<int>> hits(tasks);
      for (auto& h : hits) h.store(0);
      for (int repeat = 0; repeat < 3; ++repeat) {
        sched.run_tasks(tasks, [&](unsigned t) {
          hits[t].fetch_add(1, std::memory_order_relaxed);
        });
      }
      for (unsigned t = 0; t < tasks; ++t) {
        EXPECT_EQ(hits[t].load(), 3)
            << "threads=" << threads << " tasks=" << tasks << " t=" << t;
      }
    }
  }
}

TEST(SchedulerTest, RethrowsLowestTaskIndex) {
  for (const unsigned threads : {1u, 8u}) {
    Scheduler sched(threads);
    try {
      sched.run_tasks(16, [](unsigned t) {
        if (t == 5 || t == 11) {
          throw std::runtime_error("task " + std::to_string(t));
        }
      });
      FAIL() << "expected rethrow, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 5") << "threads=" << threads;
    }
    // The scheduler must stay usable after a failed dispatch.
    std::atomic<int> ran{0};
    sched.run_tasks(4, [&](unsigned) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
  }
}

TEST(SchedulerTest, ProfileCountersAccount) {
  SchedOptions opts;
  opts.profile = true;
  Scheduler sched(4, opts);
  sched.reset_profile();
  constexpr unsigned kTasks = 16;
  constexpr int kRepeats = 5;
  for (int i = 0; i < kRepeats; ++i) {
    sched.run_tasks(kTasks, [](unsigned) {});
  }
  ASSERT_EQ(sched.task_service_ns().size(), kTasks);
  ASSERT_EQ(sched.worker_task_counts().size(), sched.workers());
  const std::uint64_t total =
      std::accumulate(sched.worker_task_counts().begin(),
                      sched.worker_task_counts().end(), std::uint64_t{0});
  EXPECT_EQ(total, static_cast<std::uint64_t>(kTasks) * kRepeats);
  sched.reset_profile();
  const std::uint64_t after =
      std::accumulate(sched.worker_task_counts().begin(),
                      sched.worker_task_counts().end(), std::uint64_t{0});
  EXPECT_EQ(after, 0u);
}

// --- slab layout ------------------------------------------------------

TEST(ShardSlabTest, ViewsTileTheLogicalIndexSpace) {
  support::ShardSlab<int> slab;
  for (const std::size_t count : {1u, 7u, 64u, 129u}) {
    for (const unsigned shards : {1u, 2u, 5u, 8u}) {
      slab.reset(count, shards, -1);
      EXPECT_EQ(slab.count(), count);
      for (unsigned s = 0; s < slab.shards(); ++s) {
        int* view = slab.shard_view(s);
        const BalancedRange r = slab.range(s);
        for (std::size_t i = r.begin; i < r.end; ++i) {
          EXPECT_EQ(view[i], -1);
          view[i] = static_cast<int>(i);
        }
        // Segments are cache-line aligned: no two shards share a line.
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view + r.begin) % 64, 0u);
      }
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(slab.at(i), static_cast<int>(i));
      }
      std::vector<int> out;
      slab.copy_to(out);
      ASSERT_EQ(out.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(out[i], static_cast<int>(i));
      }
    }
  }
}

// --- layout independence of executor results -------------------------

struct EngineRun {
  Matching matching;
  congest::RunStats stats;
  std::string metrics_json;
  std::string trace_jsonl;
};

EngineRun run_engine(const Graph& g, unsigned threads, const FaultPlan& plan) {
  obs::Observer observer;
  Network::Options options;
  options.num_threads = threads;
  options.fault = plan;
  options.observer = &observer;
  Network net(g, Model::kCongest, 5, 48, options);
  EngineRun out;
  out.stats = net.run(israeli_itai_factory(), 512);
  out.matching =
      plan.any() ? net.extract_matching_resilient() : net.extract_matching();
  std::ostringstream metrics;
  observer.metrics().write_json(metrics);
  out.metrics_json = metrics.str();
  std::ostringstream trace;
  observer.trace_sink().write_jsonl(trace);
  out.trace_jsonl = trace.str();
  return out;
}

TEST(SchedDeterminism, EngineIdenticalAcrossThreads) {
  const Graph g = gen::gnp(96, 5.0 / 96, 2);
  FaultPlan faulty;
  faulty.drop_prob = 0.05;
  faulty.duplicate_prob = 0.03;
  faulty.seed = 7;
  for (const FaultPlan& plan : {FaultPlan{}, faulty}) {
    const EngineRun ref = run_engine(g, 1, plan);
    for (const unsigned threads : kThreadCounts) {
      const EngineRun got = run_engine(g, threads, plan);
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " faulty=" << plan.any());
      EXPECT_TRUE(got.matching == ref.matching);
      EXPECT_EQ(got.stats.rounds, ref.stats.rounds);
      EXPECT_EQ(got.stats.messages, ref.stats.messages);
      EXPECT_EQ(got.stats.total_bits, ref.stats.total_bits);
      EXPECT_EQ(got.stats.dropped_messages, ref.stats.dropped_messages);
      EXPECT_EQ(got.stats.duplicated_messages, ref.stats.duplicated_messages);
      // Byte-identical observability artifacts — the strongest form of
      // the layout-independence claim.
      EXPECT_EQ(got.metrics_json, ref.metrics_json);
      EXPECT_EQ(got.trace_jsonl, ref.trace_jsonl);
    }
  }
}

TEST(SchedDeterminism, ProfilingDoesNotPerturbResults) {
  // profile=true records wall-clock service times; with no observer
  // attached it must not change any deterministic output.
  const Graph g = gen::gnp(64, 5.0 / 64, 4);
  const EngineRun ref = run_engine(g, 1, FaultPlan{});
  Network::Options options;
  options.num_threads = 8;
  options.sched.profile = true;
  Network net(g, Model::kCongest, 5, 48, options);
  const congest::RunStats stats = net.run(israeli_itai_factory(), 512);
  EXPECT_TRUE(net.extract_matching() == ref.matching);
  EXPECT_EQ(stats.rounds, ref.stats.rounds);
  EXPECT_EQ(stats.messages, ref.stats.messages);
  // The profile itself must be populated (one slot per shard).
  EXPECT_EQ(net.scheduler().task_service_ns().size(), net.num_shards());
}

}  // namespace
}  // namespace dmatch
