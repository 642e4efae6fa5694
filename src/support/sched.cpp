#include "support/sched.hpp"

#include <chrono>

namespace dmatch::support {

Scheduler::Scheduler(unsigned num_threads, SchedOptions options)
    : workers_(num_threads == 0 ? 1 : num_threads), options_(options) {
  threads_.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

unsigned Scheduler::plan_tasks(std::size_t count) const noexcept {
  if (workers_ == 1 || count == 0) return 1;
  const std::size_t blocks =
      static_cast<std::size_t>(workers_) * kBlocksPerWorker;
  return static_cast<unsigned>(count < blocks ? count : blocks);
}

void Scheduler::run_one(unsigned w, unsigned t) {
  using clock = std::chrono::steady_clock;
  clock::time_point t0;
  const bool prof = options_.profile;
  if (prof) t0 = clock::now();
  try {
    (*task_)(t);
  } catch (...) {
    errors_[t] = std::current_exception();
  }
  if (prof) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count();
    task_ns_[t] += static_cast<std::uint64_t>(ns);
    ++worker_tasks_[w];
  }
}

void Scheduler::execute(unsigned w) {
  const unsigned nt = num_tasks_;
  // Own range ascending, then the victims' ranges descending, so thieves
  // collide with owners at the far end of each range last.
  const BalancedRange own = balanced_range(nt, workers_, w);
  for (std::size_t t = own.begin; t < own.end; ++t) {
    if (claims_[t].exchange(1, std::memory_order_acq_rel) == 0) {
      run_one(w, static_cast<unsigned>(t));
    }
  }
  for (unsigned k = 1; k < workers_; ++k) {
    const unsigned victim = (w + k) % workers_;
    const BalancedRange vr = balanced_range(nt, workers_, victim);
    for (std::size_t t = vr.end; t > vr.begin; --t) {
      if (claims_[t - 1].exchange(1, std::memory_order_acq_rel) == 0) {
        run_one(w, static_cast<unsigned>(t - 1));
      }
    }
  }
}

void Scheduler::worker_loop(unsigned w) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    execute(w);
    {
      std::lock_guard lock(mu_);
      if (--pending_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void Scheduler::rethrow_lowest() {
  for (std::exception_ptr& e : errors_) {
    if (e) {
      std::exception_ptr out = e;
      e = nullptr;
      std::rethrow_exception(out);
    }
  }
}

void Scheduler::reset_profile() {
  task_ns_.assign(task_ns_.size(), 0);
  worker_tasks_.assign(worker_tasks_.size(), 0);
}

void Scheduler::run_tasks(unsigned num_tasks,
                          const std::function<void(unsigned)>& task) {
  if (num_tasks == 0) return;
  task_ = &task;
  num_tasks_ = num_tasks;
  errors_.assign(num_tasks, nullptr);
  if (options_.profile) {
    if (task_ns_.size() < num_tasks) task_ns_.resize(num_tasks, 0);
    if (worker_tasks_.size() < workers_) worker_tasks_.resize(workers_, 0);
  }
  if (workers_ == 1 || num_tasks == 1) {
    for (unsigned t = 0; t < num_tasks; ++t) run_one(0, t);
  } else {
    if (claims_cap_ < num_tasks) {
      claims_ = std::make_unique<std::atomic<std::uint8_t>[]>(num_tasks);
      claims_cap_ = num_tasks;
    }
    for (unsigned t = 0; t < num_tasks; ++t) {
      claims_[t].store(0, std::memory_order_relaxed);
    }
    {
      std::lock_guard lock(mu_);
      pending_workers_ = workers_ - 1;
      ++generation_;
    }
    start_cv_.notify_all();
    execute(0);
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
  }
  task_ = nullptr;
  rethrow_lowest();
}

}  // namespace dmatch::support
