#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <unordered_map>

// --- counting global operator new ---------------------------------------------
//
// Per-thread counter slots: a slot is written only by its owning thread
// (plain relaxed load + store, no locked instruction on the hot path) and
// summed by readers after the program's own synchronization (thread
// joins, the engine's dispatch barrier) has ordered the writes.

namespace {

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> bytes{0};
};

constexpr std::size_t kSlots = 1024;
AllocSlot g_slots[kSlots];
std::atomic<std::size_t> g_slots_used{0};
std::atomic<bool> g_counting{false};
thread_local AllocSlot* t_slot = nullptr;
thread_local bool t_paused = false;

AllocSlot* my_slot() {
  if (t_slot == nullptr) {
    const std::size_t i = g_slots_used.fetch_add(1, std::memory_order_relaxed);
    // Past the last slot threads share slot 0; its plain load + store
    // could then lose an increment, so the table is sized far above the
    // thread count of any run (one engine worker per op at most).
    t_slot = &g_slots[i < kSlots ? i : 0];
  }
  return t_slot;
}

inline void count_alloc(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed) || t_paused) return;
  AllocSlot* s = my_slot();
  s->calls.store(s->calls.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  s->bytes.store(s->bytes.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
}

void* checked_malloc(std::size_t n) {
  count_alloc(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t n, std::align_val_t al) {
  count_alloc(n);
  const auto a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return checked_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return checked_aligned(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return checked_aligned(n, al);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  try {
    return checked_aligned(n, al);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::size_t op_count(const RunConfig& cfg, double ops_per_second,
                     std::size_t smoke_ops) {
  if (cfg.smoke) return smoke_ops;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(cfg.seconds * ops_per_second)));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t i) {
  // splitmix64 finalizer over a mix of the three inputs.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL +
                    (i + 1) * 0x8cb92ba72f3d8dd7ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void enable_alloc_counting() {
  g_counting.store(true, std::memory_order_relaxed);
}

AllocTotals alloc_totals() {
  AllocTotals t;
  const std::size_t used =
      std::min(kSlots, g_slots_used.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < used; ++i) {
    t.calls += g_slots[i].calls.load(std::memory_order_relaxed);
    t.bytes += g_slots[i].bytes.load(std::memory_order_relaxed);
  }
  return t;
}

AllocPause::AllocPause() : saved_(t_paused) { t_paused = true; }
AllocPause::~AllocPause() { t_paused = saved_; }

ProcCounters proc_counters() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcCounters c;
  c.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  c.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return c;
}

CounterSample sample_counters() { return {alloc_totals(), proc_counters()}; }

void CounterDelta::add(const CounterSample& before,
                       const CounterSample& after) {
  allocs += after.alloc.calls - before.alloc.calls;
  alloc_bytes += after.alloc.bytes - before.alloc.bytes;
  minor_faults += after.proc.minor_faults - before.proc.minor_faults;
  ctx_switches += after.proc.ctx_switches - before.proc.ctx_switches;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// --- spans -------------------------------------------------------------------

namespace {

struct Cursor {
  std::uint32_t span = 0;
  std::uint32_t op = 0;
  std::uint32_t thread = 0;
};
thread_local Cursor t_cursor;

}  // namespace

void Tracer::emit(const SpanRecord& r) {
  const AllocPause pause;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(r);
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  SpanRecord r;
  r.id = next_id();
  r.parent = t_cursor.span;
  r.op = t_cursor.op;
  r.thread = t_cursor.thread;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  emit(r);
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out = spans_;
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

void set_current_op(std::uint32_t op) { t_cursor.op = op; }

Span::Span(Tracer& tracer, const char* name)
    : tracer_(tracer), saved_(t_cursor.span) {
  rec_.id = tracer_.next_id();
  rec_.parent = t_cursor.span;
  rec_.op = t_cursor.op;
  rec_.thread = t_cursor.thread;
  rec_.name = name;
  t_cursor.span = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  rec_.end_ns = now_ns();
  t_cursor.span = saved_;
  tracer_.emit(rec_);
}

std::uint32_t current_span() { return t_cursor.span; }
std::uint32_t current_op() { return t_cursor.op; }

Adopt::Adopt(std::uint32_t span, std::uint32_t op, std::uint32_t thread)
    : saved_span_(t_cursor.span),
      saved_op_(t_cursor.op),
      saved_thread_(t_cursor.thread) {
  t_cursor = Cursor{span, op, thread};
}

Adopt::~Adopt() { t_cursor = Cursor{saved_span_, saved_op_, saved_thread_}; }

Rollup rollup(const std::vector<SpanRecord>& spans) {
  Rollup out;
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.end_ns < s.start_ns && out.error.empty()) {
      out.error = std::string("span ") + s.name + " ends before it starts";
    }
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) {
      if (out.error.empty()) {
        out.error = std::string("span ") + s.name + " has no closed parent";
      }
      continue;
    }
    children[it->second].push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
    // Union of the children's intervals, and the nesting checks.
    std::int64_t covered = 0;
    std::int64_t run_begin = 0, run_end = 0;
    bool open = false;
    std::int64_t same_thread_end = p.start_ns;
    for (const std::size_t k : kids) {
      const SpanRecord& c = spans[k];
      if ((c.start_ns < p.start_ns || c.end_ns > p.end_ns) &&
          out.error.empty()) {
        out.error = std::string("span ") + c.name + " leaves its parent " +
                    p.name;
      }
      if (c.thread == p.thread) {
        if (c.start_ns < same_thread_end && out.error.empty()) {
          out.error = std::string("span ") + c.name + " overlaps a sibling";
        }
        same_thread_end = std::max(same_thread_end, c.end_ns);
      }
      if (open && c.start_ns <= run_end) {
        run_end = std::max(run_end, c.end_ns);
      } else {
        if (open) covered += run_end - run_begin;
        run_begin = c.start_ns;
        run_end = c.end_ns;
        open = true;
      }
    }
    if (open) covered += run_end - run_begin;
    const std::int64_t self = (p.end_ns - p.start_ns) - covered;
    const std::string name = p.name;
    out.self_s[name.substr(0, name.find('.'))] +=
        static_cast<double>(self) * 1e-9;
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans,
                 const Rollup& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"op\":%u,\"thread\":%u,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.id, s.parent, s.op, s.thread, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "{\"self_s_by_layer\":{");
  bool first = true;
  for (const auto& [layer, secs] : r.self_s) {
    std::fprintf(f, "%s\"%s\":%.9f", first ? "" : ",", layer.c_str(), secs);
    first = false;
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

std::map<std::string, double> seconds_by_name(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return out;
}

void finish_trace(Outcome& out, const RunConfig& cfg,
                  const std::vector<SpanRecord>& spans, std::size_t ops,
                  double untraced_p50_s, double traced_p50_s) {
  const Rollup r = rollup(spans);
  if (!r.error.empty()) out.problem("trace: " + r.error);
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  for (const char* layer : {"bench", "graph", "congest", "core", "dyn", "mp"}) {
    const auto it = r.self_s.find(layer);
    out.set(std::string("trace.self_s.") + layer,
            it == r.self_s.end() ? 0.0 : it->second * per_op);
  }
  out.set("trace.overhead_frac",
          untraced_p50_s > 0 ? traced_p50_s / untraced_p50_s - 1.0 : 0.0);
  if (!cfg.spans_out.empty()) write_spans(cfg.spans_out, spans, r);
}

dmatch::congest::ProcessFactory probed(dmatch::congest::ProcessFactory inner,
                                       FactoryProbe& probe, std::size_t nodes) {
  return [inner = std::move(inner), &probe, nodes](dmatch::NodeId v,
                                                   const dmatch::Graph& g) {
    if (probe.calls == 0) probe.first_ns = now_ns();
    auto proc = inner(v, g);
    if (proc != nullptr) ++probe.created;
    if (++probe.calls == nodes) probe.last_ns = now_ns();
    return proc;
  };
}

bool same_run_stats(const dmatch::congest::RunStats& a,
                    const dmatch::congest::RunStats& b) {
  return a.rounds == b.rounds && a.messages == b.messages &&
         a.total_bits == b.total_bits &&
         a.max_message_bits == b.max_message_bits &&
         a.completed == b.completed && a.round_messages == b.round_messages;
}

// --- statistics -----------------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double tail(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  return xs.size() <= 10 ? xs.back() : xs[xs.size() - 11];
}

double sum(const std::vector<double>& xs) {
  double s = 0;
  for (const double x : xs) s += x;
  return s;
}

}  // namespace perfbench
