// E21 -- observability overhead: wall time of engine workloads with no
// Observer attached vs a fully enabled Observer (metrics + trace + link
// profiler). The claim (docs/PROTOCOLS.md "Telemetry"): full
// observation slows the round loop of the paper's protocols by < 5%, an
// unattached Observer costs one branch per round (indistinguishable
// from baseline), and -DDMATCH_OBS_DISABLED removes every hook at
// preprocessing time -- the compiled-out arm is reported here when the
// binary is built that way, and is zero-cost by construction.
//
// Each cell times 21 interleaved (baseline, observed) pairs and reports
// the median per-pair overhead with its quartiles; the verdict on the
// claim comes from the quartiles, so a spread wider than the bound reads
// "unresolved" instead of passing or failing by chance.
//
// Two workloads:
//  * protocol -- Israeli-Itai maximal matching, the representative
//    round loop the < 5% claim is about (real per-node compute, real
//    message mix);
//  * flood -- every node sends on every port every round, an
//    adversarial lower bound on per-message baseline work that isolates
//    the hook's raw cost (reported for transparency; it may exceed the
//    protocol number since the baseline does almost nothing per
//    message).
#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "congest/network.hpp"
#include "core/israeli_itai.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "support/table.hpp"
#include "support/wire.hpp"

using namespace dmatch;

namespace {

using congest::Context;
using congest::Envelope;
using congest::Message;
using congest::Model;
using congest::Network;
using congest::Process;

/// Same flooding workload as E18: every node sends on every port each
/// round, so the run is dominated by the per-message path the observer
/// hooks (routing + link profiling + bits histogram).
class Flood final : public Process {
 public:
  explicit Flood(int rounds) : rounds_(rounds) {}

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    (void)inbox;
    if (ctx.round() < rounds_) {
      BitWriter w;
      w.write(static_cast<std::uint64_t>(ctx.round()), 32);
      const Message msg = Message::from_writer(std::move(w));
      for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, msg);
    }
    halted_ = ctx.round() >= rounds_;
  }

  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  int rounds_;
  bool halted_ = false;
};

constexpr double kBound = 0.05;  // the claimed overhead bound

Network::Options observed_options(obs::Observer* observer) {
  Network::Options opt;
  opt.num_threads = 1;
#ifndef DMATCH_OBS_DISABLED
  opt.observer = observer;
#else
  (void)observer;
#endif
  return opt;
}

double flood_once(const Graph& g, int rounds, obs::Observer* observer) {
  Network net(g, Model::kLocal, 1, 48, observed_options(observer));
  const auto start = std::chrono::steady_clock::now();
  (void)net.run(
      [rounds](NodeId, const Graph&) { return std::make_unique<Flood>(rounds); },
      rounds + 2);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double protocol_once(const Graph& g, obs::Observer* observer) {
  Network net(g, Model::kCongest, 21, 48, observed_options(observer));
  const auto start = std::chrono::steady_clock::now();
  (void)israeli_itai(net);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Interleaved (baseline, observed) pairs after one warm-up run; the arm
/// that runs first alternates from pair to pair, so drift on a shared
/// machine and the cache state one run leaves hit both arms alike. Each
/// pair gives one overhead, observed / baseline - 1; the cell reports
/// their median and quartiles (nearest rank) and each arm's median time.
struct Timing {
  double base = 0;
  double observed = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Timing time_pairs(int pairs, obs::Observer* observer,
                  const std::function<double(obs::Observer*)>& run) {
  run(nullptr);  // warm-up: pool, mailboxes, allocator
  std::vector<double> base, observed, overhead;
  for (int i = 0; i < pairs; ++i) {
    double b = 0;
    double o = 0;
    if (i % 2 == 0) {
      b = run(nullptr);
      o = run(observer);
    } else {
      o = run(observer);
      b = run(nullptr);
    }
    base.push_back(b);
    observed.push_back(o);
    overhead.push_back(o / b - 1.0);
  }
  const auto quantile = [](std::vector<double> xs, double q) {
    std::sort(xs.begin(), xs.end());
    return xs[static_cast<std::size_t>(
        q * static_cast<double>(xs.size() - 1) + 0.5)];
  };
  return {quantile(base, 0.5), quantile(observed, 0.5),
          quantile(overhead, 0.25), quantile(overhead, 0.5),
          quantile(overhead, 0.75)};
}

/// The < 5 % claim, read from one cell's quartiles: met when even the
/// upper quartile is below the bound, not met when even the lower one is
/// above it, unresolved when the bound lies between them.
enum class Verdict { kMet, kUnresolved, kNotMet };  // rising severity
Verdict verdict(const Timing& t) {
  if (t.q3 < kBound) return Verdict::kMet;
  if (t.q1 > kBound) return Verdict::kNotMet;
  return Verdict::kUnresolved;
}
const char* name(Verdict v) {
  constexpr const char* kNames[] = {"met", "unresolved", "not met"};
  return kNames[static_cast<int>(v)];
}

}  // namespace

int main() {
  bench::banner("E21",
                "full observation slows the protocol round loop by < 5%");
  bench::JsonReport report("obs_overhead");

#ifdef DMATCH_OBS_DISABLED
  std::cout << "built with -DDMATCH_OBS_DISABLED: every hook is compiled "
               "out,\noverhead is 0% by construction (both arms below run "
               "the identical\nbaseline path).\n\n";
#endif

  const int pairs = 21;

  struct CellSpec {
    const char* workload;
    NodeId n;
    std::function<double(obs::Observer*)> run;
  };
  std::vector<CellSpec> cells;
  for (const NodeId n : {100000, 300000}) {
    const auto g = std::make_shared<Graph>(gen::gnp(n, 8.0 / n, 7));
    cells.push_back(
        {"protocol", n, [g](obs::Observer* ob) { return protocol_once(*g, ob); }});
  }
  for (const NodeId n : {20000, 60000}) {
    const auto g = std::make_shared<Graph>(gen::gnp(n, 8.0 / n, 7));
    cells.push_back({"flood", n, [g](obs::Observer* ob) {
                       return flood_once(*g, 12, ob);
                     }});
  }

  Table table({"workload", "n", "baseline s", "observed s", "overhead q1",
               "median", "q3", "< 5 %", "events/run", "messages/run"});
  // The claim is about the protocol rows: the most severe verdict among
  // them.
  Verdict claim = Verdict::kMet;
  for (const CellSpec& spec : cells) {
    // Fresh fully enabled Observer per cell so buffers do not carry
    // over between measurements.
    obs::Observer ob;
    const Timing t = time_pairs(pairs, &ob, spec.run);
    // The Observer accumulates over the cell's observed runs; report one
    // run's share.
    const std::uint64_t events = ob.trace_sink().event_count() / pairs;
    const std::uint64_t messages =
        ob.metrics().merged_value(ob.ids().engine_messages) / pairs;
    if (std::string_view(spec.workload) == "protocol") {
      claim = std::max(claim, verdict(t));
    }

    table.row()
        .cell(spec.workload)
        .cell(std::int64_t{spec.n})
        .cell(t.base, 4)
        .cell(t.observed, 4)
        .cell(t.q1, 4)
        .cell(t.median, 4)
        .cell(t.q3, 4)
        .cell(name(verdict(t)))
        .cell(static_cast<std::int64_t>(events))
        .cell(static_cast<std::int64_t>(messages));
    std::ostringstream cell;
    cell << "{\"experiment\":\"E21\",\"workload\":\"" << spec.workload
         << "\",\"n\":" << spec.n << ",\"pairs\":" << pairs
         << ",\"baseline_seconds\":" << t.base
         << ",\"observed_seconds\":" << t.observed
         << ",\"overhead\":" << t.median << ",\"overhead_q1\":" << t.q1
         << ",\"overhead_q3\":" << t.q3 << ",\"verdict\":\"" << name(verdict(t))
         << "\",\"trace_events_per_run\":" << events
         << ",\"messages_per_run\":" << messages << ",\"compiled_out\":"
#ifdef DMATCH_OBS_DISABLED
         << "true"
#else
         << "false"
#endif
         << "}";
    std::cout << cell.str() << "\n";
    report.cell(cell.str());
  }
  std::cout << "\n";
  table.print(std::cout);
  const std::string written = report.write();
  if (!written.empty()) std::cout << "\nwrote " << written << "\n";
  std::cout << "\nClaim (overhead < " << kBound
            << " on every protocol row): " << name(claim) << "\n";
  bench::footer(
      "Reading: each overhead is one interleaved (baseline, observed) pair, "
      "and the\ntimes are each arm's median. A row's verdict is met when its "
      "upper quartile\nis below 0.05, not met when its lower quartile is "
      "above 0.05, and unresolved\notherwise. The flood rows bound the "
      "hook's raw cost against a baseline that\ndoes almost nothing per "
      "message. An unattached Observer is a single branch\nper round and "
      "measures as baseline.");
  return 0;
}
