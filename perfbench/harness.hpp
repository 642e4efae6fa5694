// Shared machinery of the end-to-end benchmark: run configuration, the
// metric table every workload reports into, outside-in process counters
// (a counting global operator new and getrusage), and the in-memory span
// recorder of the traced mode.
//
// The benchmark drives the library only through public entry points;
// every span here is opened by benchmark code around a call into one
// layer, never inside the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "congest/network.hpp"

namespace perfbench {

// --- configuration ---------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke size: the same workload shape on a small graph with a few
  /// ops (the benchmark's own tests).
  bool smoke = false;
  /// Where the traced mode writes its spans (JSON lines); empty = none.
  std::string spans_out;
};

/// Fixed op count of a run: a pure function of --seconds and the
/// workload's nominal rate on a 4-core x86 box, never of the clock, so a
/// run replays exactly. Smoke runs use `smoke_ops`.
[[nodiscard]] std::size_t op_count(const RunConfig& cfg, double ops_per_second,
                                   std::size_t smoke_ops);

/// Independent 64-bit seeds derived from the workload seed: stream
/// `stream` (graph, op algorithm seeds, workload generator) element `i`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t i = 0);

// --- clock ----------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- outside-in process counters -------------------------------------------

/// Process-wide allocation counters fed by the benchmark binary's
/// replacement of the global operator new. Counting is off until
/// enabled (the untraced mode never pays for it) and is kept per thread,
/// so the engine's workers never contend on a shared counter line.
struct AllocTotals {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
void enable_alloc_counting();
[[nodiscard]] AllocTotals alloc_totals();

/// Suspends allocation counting on the calling thread while alive (the
/// span recorder's own bookkeeping is not the program's allocation).
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;

 private:
  bool saved_;
};

/// getrusage(RUSAGE_SELF): minor page faults and context switches
/// (voluntary + involuntary) of the whole process.
struct ProcCounters {
  std::uint64_t minor_faults = 0;
  std::uint64_t ctx_switches = 0;
};
[[nodiscard]] ProcCounters proc_counters();

/// Counter deltas across a region of code.
struct CounterSample {
  AllocTotals alloc;
  ProcCounters proc;
};
[[nodiscard]] CounterSample sample_counters();
struct CounterDelta {
  std::uint64_t allocs = 0, alloc_bytes = 0, minor_faults = 0,
                ctx_switches = 0;
  void add(const CounterSample& before, const CounterSample& after);
};

/// VmHWM of this process in MiB.
[[nodiscard]] double peak_rss_mib();

// --- spans -----------------------------------------------------------------

/// One closed span. Ids are 1-based; parent 0 = a root. `op` is the op
/// the span belongs to (0 = outside any op); `thread` tells spans of
/// concurrent threads apart.
struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t op = 0;
  std::uint32_t thread = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store of the traced mode. Spans nest through a
/// per-thread cursor: a Span opened on a thread is the child of the
/// innermost span still open there. A thread started inside a span
/// adopts it with Adopt.
class Tracer {
 public:
  [[nodiscard]] std::uint32_t next_id() { return ++last_id_; }
  /// Stores a closed span.
  void emit(const SpanRecord& r);
  /// Records an already-timed interval as a child of the calling
  /// thread's innermost open span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  std::atomic<std::uint32_t> last_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// Sets the op id of spans opened on the calling thread.
void set_current_op(std::uint32_t op);
/// The calling thread's innermost open span (0 = none) and op.
[[nodiscard]] std::uint32_t current_span();
[[nodiscard]] std::uint32_t current_op();

class Span {
 public:
  Span(Tracer& tracer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return rec_.id; }

 private:
  Tracer& tracer_;
  SpanRecord rec_;
  std::uint32_t saved_;
};

/// Makes `span` the calling thread's innermost open span for this
/// object's lifetime: a span recorded after the fact (Tracer::emit), or
/// one open on the thread that started this one. `thread` labels the
/// spans opened meanwhile.
class Adopt {
 public:
  Adopt(std::uint32_t span, std::uint32_t op, std::uint32_t thread);
  ~Adopt();
  Adopt(const Adopt&) = delete;
  Adopt& operator=(const Adopt&) = delete;

 private:
  std::uint32_t saved_span_, saved_op_, saved_thread_;
};

/// Self time of every span (duration minus the union of its children's
/// intervals) summed per layer — the name up to its first '.' — over all
/// spans. Checks that children lie inside their parent and that
/// children on the parent's thread do not overlap, so on each thread the
/// self times of an op's spans add up to the op's wall time; returns an
/// error message on the first violation, empty on success.
struct Rollup {
  std::map<std::string, double> self_s;  // layer -> seconds
  std::string error;
};
[[nodiscard]] Rollup rollup(const std::vector<SpanRecord>& spans);

/// Writes one JSON object per span, then one rollup line.
void write_spans(const std::string& path, const std::vector<SpanRecord>& spans,
                 const Rollup& r);

/// Summed duration in seconds of the spans with each name.
[[nodiscard]] std::map<std::string, double> seconds_by_name(
    const std::vector<SpanRecord>& spans);

// --- results ----------------------------------------------------------------

/// One workload run's outcome. Metrics are addressed by name; main()
/// emits exactly the table of BENCHMARK.json for the run's mode and
/// reports any end-to-end metric a workload did not set.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // each makes the run incorrect
  std::map<std::string, double> values;

  void set(const std::string& name, double v) { values[name] = v; }
  void fail_op(const std::string& why) {
    ++failed;
    problems.push_back(why);
  }
  void problem(const std::string& why) { problems.push_back(why); }
};

/// Closes a traced run: checks span nesting, sets trace.overhead_frac
/// (traced over untraced median op latency, minus 1) and the per-layer
/// self-time rollup trace.self_s.<layer> per op, and writes the spans.
void finish_trace(Outcome& out, const RunConfig& cfg,
                  const std::vector<SpanRecord>& spans, std::size_t ops,
                  double untraced_p50_s, double traced_p50_s);

/// Counts the processes a factory creates and times the construction
/// sweep of one run: a fault-free engine calls the factory once per node
/// it owns, in node order, on the thread that called run, before the
/// first round.
struct FactoryProbe {
  std::size_t calls = 0;
  std::uint64_t created = 0;
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;
};

/// `inner` wrapped to feed `probe`; `nodes` is the number of calls of
/// one sweep, after which the end of the sweep is stamped.
[[nodiscard]] dmatch::congest::ProcessFactory probed(
    dmatch::congest::ProcessFactory inner, FactoryProbe& probe,
    std::size_t nodes);

/// Everything RunStats records of a fault-free run, compared exactly.
[[nodiscard]] bool same_run_stats(const dmatch::congest::RunStats& a,
                                  const dmatch::congest::RunStats& b);

// --- small statistics -------------------------------------------------------

[[nodiscard]] double median(std::vector<double> xs);
/// The highest percentile with at least 10 samples beyond it, as a
/// nearest-rank sample: the 11th largest (p99 of 1000, p93.3 of 150,
/// p80 of 50). With 10 samples or fewer the maximum stands in.
[[nodiscard]] double tail(std::vector<double> xs);
[[nodiscard]] double sum(const std::vector<double>& xs);

/// Median wall seconds of `reps` calls of `fn`.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(t);
}

/// Per-op wall seconds of `ops` ops each run `replays` times in
/// pass-major order (every op once, then every op again), so the runs of
/// one op lie far apart in time; an op's latency is the median of its
/// runs, which keeps a burst of interference from another tenant of the
/// machine out of the result. `op(i, pass)` runs op i, checks it outside
/// its timed section and returns its seconds, or a negative value when
/// it failed.
template <typename Op>
std::vector<double> replayed_latencies(std::size_t ops, int replays, Op&& op) {
  std::vector<std::vector<double>> runs(ops);
  for (int r = 0; r < replays; ++r) {
    for (std::size_t i = 0; i < ops; ++i) {
      const double s = op(i, r);
      if (s >= 0) runs[i].push_back(s);
    }
  }
  std::vector<double> lat;
  for (const std::vector<double>& xs : runs) {
    if (!xs.empty()) lat.push_back(median(xs));
  }
  return lat;
}

// --- workloads ----------------------------------------------------------------

Outcome run_static_alg3(const RunConfig& cfg);
Outcome run_serve(const RunConfig& cfg, bool flap);
Outcome run_mp_ii(const RunConfig& cfg);

}  // namespace perfbench
