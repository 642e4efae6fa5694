// Deterministic structured tracing for the simulator stack.
//
// A TraceSink collects fixed-size binary TraceEvent records into
// per-shard buffers (single writer each: the engine worker that owns the
// shard, or the driver thread for shard 0), so the hot path is a vector
// append with no lock and no formatting. merged() collates the buffers
// into one canonically ordered stream: events sort by
// (t, type, actor, a, b), all of which are pure functions of the run
// (round clock, node/slot ids, fault-plan decisions) and never of the
// shard layout, so the merged trace of a run is identical for every
// Network::Options::num_threads. tools/trace_summarize diffs two such
// streams to check exactly that.
//
// Exports: Chrome trace_event JSON (loadable in chrome://tracing or
// Perfetto: phases as B/E duration slices, rounds as counter tracks,
// everything else as instants) and one-event-per-line JSONL for
// scripting and determinism diffing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dmatch::obs {

enum class EventType : std::uint16_t {
  kRoundStart = 0,       // a = nodes scheduled this round
  kRoundEnd = 1,         // a = messages sent this round, b = bits
  kPhaseBegin = 2,       // a = interned phase name, b = driver index (iter/ell)
  kPhaseEnd = 3,         // a = interned phase name, b = driver index
  kArqFastRetransmit = 4,     // actor = node, a = port, b = vround
  kArqTimeoutRetransmit = 5,  // actor = node, a = port, b = vround
  kArqLinkDead = 6,           // actor = node, a = port, b = cause (0 = retries
                              // exhausted, 1 = silence limit)
  kFaultDrop = 7,       // actor = receiver, a = receiver slot, b = round
  kFaultDuplicate = 8,  // actor = receiver, a = receiver slot, b = extra delay
  kFaultDelay = 9,      // actor = receiver, a = receiver slot, b = extra delay
  kFaultReorder = 10,   // actor = reordered receiver
  kCrash = 11,          // actor = crashed node
  kRestart = 12,        // actor = restarted node
  kCheckpointCapture = 13,   // a = attempt index
  kCheckpointRollback = 14,  // a = attempt index, b = cause (0 = contract,
                             // 1 = over-cap message)
  kCheckpointHeal = 15,      // a = torn registers healed, b = dead healed
  kSchedShard = 16,          // actor = shard, a = service ns (profile only;
                             // wall-clock, never in deterministic output)
  kArqSpecRetransmit = 17,   // actor = node, a = port, b = vround (SACK-hole
                             // or eager-tail speculative retransmit)
  kFecParity = 18,           // actor = node, a = port, b = base vround of the
                             // protected group
  kFecReconstruct = 19,      // actor = node, a = port, b = reconstructed vround
  kDynEpoch = 20,            // a = ops in the epoch, b = epoch index
  kDynRepair = 21,           // a = dirty-region size, b = 0 incremental /
                             // 1 full recompute (fallback)
  kDynRebuild = 22,          // a = universe edge count after the rebuild,
                             // b = generation
  kDynAugment = 23,          // a = pairs gained by the beyond-maximal
                             // augment stage, b = 1 if a boundary leftover
                             // escalated it to a whole-graph pass
  kTypeCount = 24,
};

/// Name of an event type as it appears in exports ("round.start", ...).
[[nodiscard]] const char* event_type_name(EventType t) noexcept;

struct TraceEvent {
  std::uint64_t t = 0;        // global round clock (see Observer)
  std::uint32_t actor = 0;    // node id / 0 for engine- or driver-level
  std::uint16_t type = 0;     // EventType
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class TraceSink {
 public:
  // Cache-line-aligned so two workers appending to neighboring buffers
  // do not share a line through the vector headers. Workers only ever
  // append; bounded-memory eviction never happens on the hot path.
  // Instead the driver thread compacts the sink between rounds (see
  // maybe_compact()): all buffers are merged into the canonical order
  // and only the newest `capacity()` events survive. Because both the
  // merged multiset and the compaction trigger (total retained count at
  // a round boundary) are pure functions of the run, the retained set is
  // byte-identical across thread counts (and shard counts) — the same
  // layout-independence contract as unbounded traces, with memory
  // bounded by ~2x the cap plus one round's burst.
  struct alignas(64) ShardBuf {
    std::vector<TraceEvent> events;
    std::uint64_t appended = 0;  // lifetime appends, including evicted

    void push(const TraceEvent& e) {
      ++appended;
      events.push_back(e);
    }
  };

  /// Grow to at least `n` single-writer buffers. Driver thread only,
  /// never while engine workers are running. Existing buffers keep their
  /// addresses (they are heap-boxed), so cached pointers stay valid.
  void ensure_shards(unsigned n);

  /// Bound the whole sink to the (canonically) newest `cap` events
  /// (0 restores unbounded growth). Driver thread only. Shrinking an
  /// over-full sink compacts immediately.
  void set_capacity(std::size_t cap);
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// Bounded-memory compaction point, driver thread only, workers
  /// quiescent (the Observer calls this from advance_clock(), i.e. at
  /// committed round boundaries). When more than 2x the capacity is
  /// retained, merge every buffer canonically and keep the newest
  /// `capacity()` events. The 2x hysteresis amortizes the merge-sort to
  /// O(log cap) per append.
  void maybe_compact();

  /// Rollback support for aborted rounds: a Mark is the buffer length,
  /// rewinding truncates. Compaction only runs at committed round
  /// boundaries, so it can never intervene between mark and rewind.
  struct Mark {
    std::uint64_t appended = 0;
    std::size_t size = 0;
  };
  [[nodiscard]] Mark mark(unsigned shard) const;
  void rewind(unsigned shard, Mark&& m);

  [[nodiscard]] std::vector<TraceEvent>& buffer(unsigned shard) {
    return shards_[shard]->events;
  }
  [[nodiscard]] ShardBuf& shard_buf(unsigned shard) { return *shards_[shard]; }
  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  /// Intern a phase name (driver thread only). Stable: the same name
  /// always returns the same id within one sink.
  std::uint32_t intern(std::string_view name);
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// Events currently retained (== appended_count() while unbounded).
  [[nodiscard]] std::uint64_t event_count() const noexcept;
  /// Lifetime appends across all shards, including ring-evicted events.
  [[nodiscard]] std::uint64_t appended_count() const noexcept;

  /// All events, canonically ordered (see file comment): identical for
  /// every thread count, so two merged() streams can be compared with ==.
  [[nodiscard]] std::vector<TraceEvent> merged() const;

  /// Chrome trace_event JSON array ("[" ... "]").
  void write_chrome_json(std::ostream& out) const;
  /// One canonical JSON object per line, in merged() order.
  void write_jsonl(std::ostream& out) const;

 private:
  void compact_to(std::size_t keep);

  std::vector<std::unique_ptr<ShardBuf>> shards_;
  std::vector<std::string> names_;
  std::size_t cap_ = 0;  // 0 = unbounded
};

}  // namespace dmatch::obs
