// Fork-join scheduler for the round engine, its only sharded executor.
//
// The round engine's rounds and its
// extraction scans all run the same workload shape: a fixed set of shard
// tasks dispatched from a single driver thread. `Scheduler` runs them by
// claim-flag work stealing. Ownership of tasks is the balanced contiguous
// layout over the workers, and each task carries an atomic claim flag: a
// worker drains its own range in ascending order, then scans the other
// workers' ranges in descending order and steals the tasks still
// unclaimed, so a worker whose shards ran light takes over the tail of a
// hot one. Stealing reorders *execution*, never *results*: every task
// writes only its own deterministic state slot (shard), and all
// cross-shard merges in the engine go through canonical key order.
//
// Shard plan: plan_tasks() returns how many tasks a count of items should
// be split into, a function of (count, workers) alone — one task at one
// worker, so a 1-thread run steps one shard on the calling thread with no
// claim traffic, and min(count, 4 × workers) otherwise, so a worker has
// blocks to steal. The engine fixes its shard count once at construction
// from plan_tasks(), so shard layout never depends on the round-by-round
// schedule.
//
// Exceptions thrown by tasks are captured per task index and the lowest
// index is rethrown after the dispatch barrier, so error propagation is
// deterministic regardless of execution order.
//
// Memory model: everything the driver wrote before run_tasks() happens-
// before workers observe the task, and everything workers wrote during
// run_tasks() happens-before run_tasks() returns (both through the mutex
// handshake).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dmatch::support {

struct SchedOptions {
  /// Record per-task service time (steady_clock) and per-worker task
  /// counts. Off by default: profiling output is wall-clock dependent and
  /// must never leak into deterministic artifacts unless asked for.
  bool profile = false;
};

/// Balanced contiguous partition of `count` items into `parts` ranges:
/// every range gets floor(count/parts) items and the first count%parts
/// ranges get one extra. A pure function of (count, parts, index) so every
/// sharded component computes the identical layout.
struct BalancedRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

[[nodiscard]] constexpr BalancedRange balanced_range(std::size_t count,
                                                     unsigned parts,
                                                     unsigned index) noexcept {
  if (parts <= 1) return {0, count};
  const std::size_t base = count / parts;
  const std::size_t rem = count % parts;
  const std::size_t i = index;
  const std::size_t begin = i * base + (i < rem ? i : rem);
  return {begin, begin + base + (i < rem ? 1 : 0)};
}

/// Inverse of balanced_range: the part owning item `index` (< count).
[[nodiscard]] constexpr unsigned balanced_part_of(std::size_t count,
                                                  unsigned parts,
                                                  std::size_t index) noexcept {
  if (parts <= 1 || count == 0) return 0;
  const std::size_t base = count / parts;
  const std::size_t rem = count % parts;
  const std::size_t big = rem * (base + 1);
  if (index < big) return static_cast<unsigned>(index / (base + 1));
  return static_cast<unsigned>(rem + (index - big) / base);
}

class Scheduler {
 public:
  /// Task blocks per worker when there is more than one worker.
  static constexpr unsigned kBlocksPerWorker = 4;

  /// `num_threads` logical workers; 0 is promoted to 1. Spawns
  /// num_threads - 1 OS threads; the caller of run_tasks() is worker 0.
  explicit Scheduler(unsigned num_threads, SchedOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] unsigned workers() const noexcept { return workers_; }

  /// How many tasks `count` items should be split into: 1 at one worker,
  /// min(count, kBlocksPerWorker * workers) otherwise. Always >= 1.
  /// Executors call this once and freeze the result as their shard count.
  [[nodiscard]] unsigned plan_tasks(std::size_t count) const noexcept;

  /// Execute task(t) exactly once for every t in [0, num_tasks) and block
  /// until all complete. The caller participates as worker 0. If any task
  /// throws, the exception for the lowest task index is rethrown after the
  /// barrier. Not reentrant.
  void run_tasks(unsigned num_tasks, const std::function<void(unsigned)>& task);

  /// Cumulative per-task service nanoseconds since the last
  /// reset_profile(); empty unless SchedOptions::profile. Indexed by task
  /// id.
  [[nodiscard]] const std::vector<std::uint64_t>& task_service_ns()
      const noexcept {
    return task_ns_;
  }
  /// Cumulative tasks executed per worker since the last reset_profile();
  /// empty unless SchedOptions::profile.
  [[nodiscard]] const std::vector<std::uint64_t>& worker_task_counts()
      const noexcept {
    return worker_tasks_;
  }
  void reset_profile();

 private:
  void worker_loop(unsigned w);
  void execute(unsigned w);
  void run_one(unsigned w, unsigned t);
  void rethrow_lowest();

  unsigned workers_;
  SchedOptions options_;
  std::vector<std::thread> threads_;

  // Dispatch state, published under mu_.
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* task_ = nullptr;
  unsigned num_tasks_ = 0;
  std::uint64_t generation_ = 0;
  unsigned pending_workers_ = 0;
  bool stop_ = false;

  std::unique_ptr<std::atomic<std::uint8_t>[]> claims_;
  unsigned claims_cap_ = 0;

  std::vector<std::exception_ptr> errors_;
  std::vector<std::uint64_t> task_ns_;
  std::vector<std::uint64_t> worker_tasks_;
};

}  // namespace dmatch::support
