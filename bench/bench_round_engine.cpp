// E18 -- simulator throughput: nodes stepped per second vs. engine thread
// count. The round engine is a BSP superstep executor; this bench measures
// raw engine scaling (a fixed-round flooding protocol, so algorithmic
// randomness does not perturb the work per round) on G(n, p) with constant
// expected degree 8, n in {1e4, 1e5}, and on a Barabasi-Albert graph of
// the same n and average degree, whose hubs give a few shards far more
// messages to route than the rest (the skew work stealing absorbs).
// Alongside the table it emits one machine-readable JSON line per
// configuration for plotting/CI tracking.
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
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
using congest::RunStats;

/// Floods a small message on every port for a fixed number of rounds, so
/// every node is stepped in every round and the engine does n steps and
/// ~n*deg message routings per round.
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

struct Sample {
  double seconds = 0;
  RunStats stats;
};

Sample run_once(const Graph& g, unsigned threads, int rounds) {
  Network net(g, Model::kLocal, 1, 48, Network::Options{threads});
  const auto start = std::chrono::steady_clock::now();
  Sample s;
  s.stats = net.run(
      [rounds](NodeId, const Graph&) { return std::make_unique<Flood>(rounds); },
      rounds + 2);
  s.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  return s;
}

}  // namespace

int main() {
  bench::banner("E18", "round-engine throughput scales with worker threads");

  const int rounds = 10;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  bench::JsonReport report("round_engine");
  Table table({"graph", "n", "threads", "rounds", "messages", "seconds",
               "node steps/s", "speedup vs 1T"});
  struct Instance {
    const char* family;
    NodeId n;
  };
  for (const Instance& inst : {Instance{"gnp", 10000}, Instance{"gnp", 100000},
                               Instance{"ba", 100000}}) {
    const NodeId n = inst.n;
    const std::string family = inst.family;
    const Graph g = family == "ba" ? gen::barabasi_albert(n, 4, 7)
                                   : gen::gnp(n, 8.0 / n, 7);
    double base_seconds = 0;
    for (const unsigned threads : thread_counts) {
      // Warm-up run builds the pool and faults in the mailboxes; the
      // second run is the measured one.
      run_once(g, threads, 2);
      const Sample s = run_once(g, threads, rounds);
      if (threads == 1) base_seconds = s.seconds;
      const double steps =
          static_cast<double>(n) * static_cast<double>(s.stats.rounds);
      const double steps_per_sec = steps / s.seconds;
      const double speedup = base_seconds / s.seconds;
      table.row()
          .cell(family)
          .cell(std::int64_t{n})
          .cell(std::int64_t{threads})
          .cell(static_cast<std::int64_t>(s.stats.rounds))
          .cell(static_cast<std::int64_t>(s.stats.messages))
          .cell(s.seconds, 3)
          .cell(steps_per_sec, 0)
          .cell(speedup, 2);
      std::ostringstream cell;
      cell << "{\"bench\":\"round_engine\",\"graph\":\"" << family
           << "\",\"n\":" << n
           << ",\"threads\":" << threads << ",\"rounds\":" << s.stats.rounds
           << ",\"messages\":" << s.stats.messages
           << ",\"seconds\":" << s.seconds
           << ",\"node_steps_per_sec\":" << steps_per_sec
           << ",\"speedup_vs_1t\":" << speedup
           << ",\"hardware_concurrency\":" << hw << "}";
      std::cout << cell.str() << "\n";
      report.cell(cell.str());
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  const std::string written = report.write();
  if (!written.empty()) std::cout << "\nwrote " << written << "\n";

  bench::footer(
      "Reading: node steps/s should scale with threads up to the machine's "
      "core count (speedup >= 2x at 4 threads on n = 1e5 when >= 4 cores "
      "are available), on the skewed-degree ba rows too; identical "
      "`rounds`/`messages` columns across thread counts witness the "
      "engine's determinism contract.");
  return 0;
}
