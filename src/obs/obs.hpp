// Observability façade for the simulator: one Observer owns a
// MetricsRegistry, a TraceSink, and a CongestionProfiler, and hands the
// engine per-shard single-writer ShardObs handles.
//
// Cost model (the E21 contract):
//  * not attached — every hook is `if (observer == nullptr)`-guarded, a
//    single predictable branch on the round loop and nothing at all on
//    the per-message path (the engine caches a null ShardObs*);
//  * compiled out — building with -DDMATCH_OBS_DISABLED removes every
//    hook at preprocessing time via the DMATCH_OBS() macro, proving the
//    zero-cost claim by construction;
//  * enabled — per-message work is two array adds (profiler) plus three
//    (bits histogram); per-round work is a handful of trace appends and
//    slab snapshots only under active fault plans.
//
// Determinism: all recorded values derive from (round clock, node/slot
// ids, fault-plan hashes), never from shard layout or wall time, and
// every merge is commutative — so merged metrics are byte-identical and
// merged traces event-set-identical across num_threads. Partially
// executed aborted rounds (contract trips under faults) are rolled back
// via RoundMark so they never leak layout-dependent events.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

#ifndef DMATCH_OBS_DISABLED
#define DMATCH_OBS(...) __VA_ARGS__
#else
#define DMATCH_OBS(...)
#endif

namespace dmatch::obs {

struct ObsConfig {
  bool metrics = true;
  bool trace = true;
  bool profile_links = true;
  std::size_t top_k = 16;  // hot-links report size
  /// Bounded-memory link profiling: 0 records exact per-slot totals
  /// (O(m) words); > 0 folds traffic into per-shard count-min sketches
  /// of this width instead (rounded up to a power of two, O(shards x
  /// width) words regardless of graph size). Sketch reports are
  /// byte-identical across thread counts; per-link values are CMS
  /// overestimates, exact absent double-row collisions. CLI:
  /// --profile-sketch.
  std::size_t profile_sketch = 0;
  /// Bounded-memory tracing: keep only the (canonically) newest
  /// `trace_capacity` events across the whole sink, compacted by the
  /// driver at committed round boundaries. 0 = unbounded. The retained
  /// set is byte-identical across thread counts and shard counts for the
  /// same cap, and capped traces agree with uncapped ones on every
  /// retained event.
  std::size_t trace_capacity = 0;
};

/// Dense ids of the metrics every run records, registered up front so
/// all runs sharing an Observer agree on the layout. Naming convention:
/// `subsystem.metric` (see docs/PROTOCOLS.md "Telemetry").
struct StdMetricIds {
  using Id = MetricsRegistry::Id;
  Id engine_rounds, engine_messages, engine_bits, engine_runs;
  Id engine_max_message_bits;            // gauge
  Id engine_message_bits_hist;           // histogram (per-message bits)
  Id engine_round_messages_hist;         // histogram (messages per round)
  Id fault_dropped, fault_duplicated, fault_delayed, fault_reordered;
  Id fault_crashed, fault_restarted;
  Id arq_fast_retransmits, arq_timeout_retransmits, arq_dead_links;
  Id arq_spec_retransmits;                // SACK-hole + eager-tail resends
  Id arq_spurious_rx, arq_useful_rx;      // receiver-side retransmit verdicts
  Id fec_parity_sent, fec_reconstructions;
  Id checkpoint_captures, checkpoint_rollbacks, checkpoint_heals;
  Id checkpoint_dirty_registers;  // registers replayed by delta restores
  Id sched_shard_service_ns;  // histogram; fed only under SchedOptions::profile
  Id async_events, async_payload_messages, async_control_messages;
  Id async_virtual_rounds;
  // Dynamic matching service (src/dyn): epoch lifecycle + repair modes.
  Id dyn_epochs, dyn_incremental_repairs, dyn_full_recomputes, dyn_rebuilds;
  Id dyn_dirty_nodes_hist, dyn_epoch_ops_hist;  // histograms
  // Beyond-maximal repair (dyn/augment, quality_k >= 2).
  Id dyn_augment_runs, dyn_augment_escalations;
  Id dyn_augment_iterations_hist, dyn_augment_gained_hist;  // histograms
};

class Observer;

/// Per-engine-shard handle: everything reachable from it has a single
/// writer (the worker owning the shard, or the driver thread for the
/// shard the driver writes, conventionally 0 while workers are parked).
class ShardObs {
 public:
  std::uint64_t now = 0;  // global round clock, set by the engine per round

  void trace(EventType type, std::uint32_t actor, std::uint64_t a = 0,
             std::uint64_t b = 0) {
    if (events_ != nullptr) {
      events_->push({now, actor, static_cast<std::uint16_t>(type), a, b});
    }
  }
  /// Like trace() but with an explicit timestamp (events reconstructed
  /// after the fact, e.g. crash schedules and async virtual rounds).
  void trace_at(std::uint64_t t, EventType type, std::uint32_t actor,
                std::uint64_t a = 0, std::uint64_t b = 0) {
    if (events_ != nullptr) {
      events_->push({t, actor, static_cast<std::uint16_t>(type), a, b});
    }
  }

  void count(MetricsRegistry::Id id, std::uint64_t v = 1) {
    if (registry_ != nullptr) registry_->add(shard_, id, v);
  }
  void gauge_max(MetricsRegistry::Id id, std::uint64_t v) {
    if (registry_ != nullptr) registry_->set_max(shard_, id, v);
  }
  void observe(MetricsRegistry::Id id, std::uint64_t v) {
    if (registry_ != nullptr) registry_->observe(shard_, id, v);
  }

  /// Per-message hot path: link profiling + message-size histogram.
  /// Both sinks are pre-resolved to raw slab pointers at begin_run() so
  /// the whole hook is three adds with no pointer chasing: the profiler
  /// pair is interleaved onto one cache line, and the histogram's
  /// count/sum slots are NOT touched here — the executor already tracks
  /// per-round message/bit deltas and bulk-adds them once per round via
  /// bits_hist_totals(), so only the bucket add carries per-message
  /// information.
  void link_message(std::size_t slot, std::uint32_t bits) {
    if (link_ != nullptr) {
      std::uint64_t* const p = link_ + 2 * slot;
      p[0] += 1;
      p[1] += bits;
    } else if (sketch_ != nullptr) {
      // Sketch mode: four adds into this shard's private CMS slab.
      // Columns are pure hashes of the slot id, so the merged sketch is
      // layout-independent exactly like the exact array.
      const std::size_t stride = 2 * (sketch_mask_ + 1);
      const std::size_t c0 =
          2 * CongestionProfiler::sketch_col(slot, 0, sketch_mask_);
      const std::size_t c1 =
          2 * CongestionProfiler::sketch_col(slot, 1, sketch_mask_);
      sketch_[c0] += 1;
      sketch_[c0 + 1] += bits;
      sketch_[stride + c1] += 1;
      sketch_[stride + c1 + 1] += bits;
    }
    if (bits_hist_ != nullptr) {
      bits_hist_[2 + MetricsRegistry::bucket_of(bits)] += 1;
    }
  }

  /// Driver-side completion of link_message(): adds a round's message
  /// count and bit total to the message-bits histogram's count/sum
  /// slots. Sums commute, so splitting the histogram between shard
  /// workers (buckets) and the driver (totals) merges identically.
  void bits_hist_totals(std::uint64_t count, std::uint64_t sum) {
    if (bits_hist_ != nullptr) {
      bits_hist_[0] += count;
      bits_hist_[1] += sum;
    }
  }

  [[nodiscard]] const StdMetricIds& ids() const noexcept { return *ids_; }
  [[nodiscard]] Observer* owner() const noexcept { return owner_; }

 private:
  friend class Observer;
  Observer* owner_ = nullptr;
  const StdMetricIds* ids_ = nullptr;
  unsigned shard_ = 0;
  TraceSink::ShardBuf* events_ = nullptr;  // null if tracing disabled
  MetricsRegistry* registry_ = nullptr;        // null if metrics disabled
  std::uint64_t* link_ = nullptr;       // profiler's interleaved link array;
                                        // null unless this run's graph is
                                        // the bound one (and exact mode)
  std::uint64_t* sketch_ = nullptr;     // this shard's CMS slab (sketch mode)
  std::size_t sketch_mask_ = 0;         // sketch width - 1
  std::uint64_t* bits_hist_ = nullptr;  // this shard's message-bits
                                        // histogram slots; null if metrics
                                        // disabled
};

class Observer {
 public:
  explicit Observer(ObsConfig config = {});

  [[nodiscard]] const ObsConfig& config() const noexcept { return config_; }
  [[nodiscard]] const StdMetricIds& ids() const noexcept { return ids_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] TraceSink& trace_sink() noexcept { return trace_; }
  [[nodiscard]] const TraceSink& trace_sink() const noexcept { return trace_; }
  [[nodiscard]] CongestionProfiler& profiler() noexcept { return profiler_; }
  [[nodiscard]] const CongestionProfiler& profiler() const noexcept {
    return profiler_;
  }

  /// Attach an engine run: size per-shard state and decide whether this
  /// run's graph is link-profiled. Driver thread, between runs. Returns
  /// true if the run should feed the link profiler.
  bool begin_run(unsigned num_shards, const Graph& g);
  [[nodiscard]] ShardObs* shard(unsigned s) { return shards_[s].get(); }

  // --- global round clock -------------------------------------------
  // One monotonic count of executed simulator rounds across every run
  // (engine or async) the Observer saw, advanced by the driver thread.
  // Aborted rounds do not advance it, mirroring Network lifetime
  // accounting, so timestamps are replay-stable across thread counts.
  [[nodiscard]] std::uint64_t clock() const noexcept { return clock_; }
  void advance_clock(std::uint64_t rounds = 1) {
    clock_ += rounds;
    // Committed round boundary, workers quiescent: the bounded-memory
    // trace compaction point (no-op while under 2x the cap).
    if (config_.trace && config_.trace_capacity != 0) trace_.maybe_compact();
  }

  // --- driver-side conveniences (shard 0, current clock) -------------
  void phase_begin(std::string_view name, std::uint64_t index = 0);
  void phase_end(std::string_view name, std::uint64_t index = 0);
  void instant(EventType type, std::uint64_t a = 0, std::uint64_t b = 0);

 private:
  void ensure_handles(unsigned n);

  ObsConfig config_;
  MetricsRegistry metrics_;
  TraceSink trace_;
  CongestionProfiler profiler_;
  StdMetricIds ids_{};
  std::vector<std::unique_ptr<ShardObs>> shards_;
  std::uint64_t clock_ = 0;
};

}  // namespace dmatch::obs
