// Multi-process CONGEST launcher: runs the Israeli–Itai matching
// protocol sharded across OS processes (or threads over the loopback
// hub), the command-line face of src/mp.
//
// Usage: dmatch_mp [options]
//   --procs K          number of ranks (default 2)
//   --transport T      tcp = one OS process per rank over a localhost
//                      mesh (default); loopback = one thread per rank
//                      over in-process queues
//   --gen SPEC         gnp:N,P | bip:NX,NY,P | cycle:N | tree:N | ba:N,M
//                      (default gnp:64,0.06)
//   --seed S           randomness seed (default 1)
//   --rounds R         round budget (default 256)
//   --base-port P      first TCP port, rank r listens on P+r (default 23700)
//   --heartbeat-ms MS  failure-detector recv deadline (default 2000)
//   --retries N        heartbeats before declaring a rank dead (default 2)
//   --kill-rank R      worker R stops participating at --kill-round and
//   --kill-round N     SIGKILLs itself (tcp) / goes silent (loopback),
//                      demonstrating detection + register healing
//   --fault-drop P, --fault-dup P, --fault-delay P, --fault-reorder P,
//   --fault-crash P, --fault-restart P, --fault-seed S, --max-delay D
//                      deterministic fault plan, same semantics as
//                      dmatch_cli (identical histories at any procs)
//   --trace-out PREFIX write PREFIX.rank<r>.jsonl per rank (a killed
//                      rank's stays empty); merge them with
//                      `trace_summarize --merge OUT PREFIX.*.jsonl`
//   --metrics-out FILE rank 0's merged metrics registry as JSON (equals
//                      the single-process export byte for byte)
//
// Exit code: 0 on success, 1 if the protocol tripped, 2 on usage errors
// (a file that cannot be written among them: every output file is opened
// before any rank runs), 3 if a rank failed with an error.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "args.hpp"
#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "core/israeli_itai.hpp"
#include "mp/engine.hpp"
#include "mp/transport.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace {

using namespace dmatch;

using tools::Args;

congest::FaultPlan parse_fault_plan(const Args& args) {
  congest::FaultPlan plan;
  plan.drop_prob = args.num("fault-drop", 0.0);
  plan.duplicate_prob = args.num("fault-dup", 0.0);
  plan.delay_prob = args.num("fault-delay", 0.0);
  plan.reorder_prob = args.num("fault-reorder", 0.0);
  plan.crash_prob = args.num("fault-crash", 0.0);
  plan.restart_prob = args.num("fault-restart", 0.0);
  plan.seed = args.num<std::uint64_t>("fault-seed", 1);
  plan.max_delay = args.num("max-delay", 3);
  return plan;
}

struct RankConfig {
  unsigned procs = 2;
  std::uint64_t seed = 1;
  int rounds = 256;
  congest::FaultPlan fault;
  mp::GroupOptions group;
  int kill_rank = -1;
  int kill_round = -1;
  bool tcp = true;
  std::string trace_prefix;
};

/// The output files, all opened in main before any rank runs (see
/// Args::write_file): one trace log per rank and rank 0's metrics.
struct Outputs {
  std::vector<std::ofstream> traces;  // empty without --trace-out
  std::ofstream metrics;              // closed without --metrics-out
};

/// Run one rank to completion; returns its MpResult. Writes this rank's
/// trace log (all ranks) and the metrics/summary outputs (rank 0). A
/// forked rank leaves through _exit, so each file is closed here.
mp::MpResult run_rank(unsigned rank, const Graph& g, const RankConfig& cfg,
                      mp::Transport& transport, Outputs& out) {
  const bool want_obs = !out.traces.empty() || out.metrics.is_open();
  std::unique_ptr<obs::Observer> observer;
  if (want_obs) {
    obs::ObsConfig oc;
    oc.profile_links = false;
    observer = std::make_unique<obs::Observer>(oc);
  }

  mp::MpOptions options;
  options.fault = cfg.fault;
  options.observer = observer.get();
  options.group = cfg.group;
  if (cfg.kill_rank == static_cast<int>(rank)) {
    options.die_at_round = cfg.kill_round;
  }
  mp::MpEngine engine(g, congest::Model::kCongest, cfg.seed, 48, transport,
                      options);
  const mp::MpResult result = engine.run(israeli_itai_factory(), cfg.rounds);

  if (result.simulated_death && cfg.tcp) {
    // Die like a crashed worker: the kernel resets the TCP links and the
    // survivors' failure detector takes it from there.
    ::raise(SIGKILL);
  }
  if (!out.traces.empty() && observer != nullptr &&
      !result.simulated_death) {
    observer->trace_sink().write_jsonl(out.traces[rank]);
    out.traces[rank].close();
  }
  if (rank == 0) {
    if (out.metrics.is_open() && observer != nullptr) {
      observer->metrics().write_json(out.metrics);
      out.metrics.close();
    }
    std::cout << "graph: n=" << g.node_count() << " m=" << g.edge_count()
              << " procs=" << cfg.procs
              << " transport=" << (cfg.tcp ? "tcp" : "loopback")
              << "\nmatching: size=" << result.matching.size()
              << " weight=" << result.matching.weight(g)
              << "\ncost: rounds=" << result.stats.rounds
              << " messages=" << result.stats.messages
              << " total_bits=" << result.stats.total_bits
              << " max_message_bits=" << result.stats.max_message_bits
              << "\n";
    std::size_t dead_ranks = 0;
    std::cout << "ranks: dead=[";
    for (unsigned p = 0; p < result.dead_ranks.size(); ++p) {
      if (result.dead_ranks[p] == 0) continue;
      if (dead_ranks++ > 0) std::cout << ",";
      std::cout << p;
    }
    std::cout << "]\n";
    const congest::DegradationReport& d = result.degradation;
    std::cout << "degradation: {\"degraded\": "
              << (d.degraded() ? "true" : "false")
              << ", \"budget_exhausted\": "
              << (d.budget_exhausted ? "true" : "false")
              << ", \"contract_tripped\": "
              << (d.contract_tripped ? "true" : "false")
              << ", \"crashed_nodes\": " << d.crashed_nodes
              << ", \"torn_registers_healed\": " << d.torn_registers_healed
              << ", \"dead_registers_healed\": " << d.dead_registers_healed
              << "}\n";
    if (!cfg.trace_prefix.empty()) {
      std::cout << "traces: " << cfg.trace_prefix
                << ".rank<r>.jsonl (merge: trace_summarize --merge OUT "
                << cfg.trace_prefix << ".rank*.jsonl)\n";
    }
  }
  return result;
}

int run_tcp(const Graph& g, const RankConfig& cfg, std::uint16_t base_port,
            Outputs& out) {
  std::vector<pid_t> children;
  for (unsigned r = 1; r < cfg.procs; ++r) {
    const pid_t pid = ::fork();
    DMATCH_EXPECTS(pid >= 0);
    if (pid == 0) {
      try {
        mp::TcpTransport transport(r, cfg.procs, base_port);
        (void)run_rank(r, g, cfg, transport, out);
      } catch (const std::exception& e) {
        std::cerr << "rank " << r << ": " << e.what() << "\n";
        ::_exit(3);
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  int exit_code = 0;
  try {
    mp::TcpTransport transport(0, cfg.procs, base_port);
    const mp::MpResult result = run_rank(0, g, cfg, transport, out);
    if (result.tripped) exit_code = 1;
  } catch (const std::exception& e) {
    std::cerr << "rank 0: " << e.what() << "\n";
    exit_code = 3;
  }
  for (const pid_t pid : children) {
    int wstatus = 0;
    (void)::waitpid(pid, &wstatus, 0);
  }
  return exit_code;
}

int run_loopback(const Graph& g, const RankConfig& cfg, Outputs& out) {
  mp::LoopbackHub hub(cfg.procs);
  std::vector<mp::MpResult> results(cfg.procs);
  std::vector<char> failed(cfg.procs, 0);
  std::vector<std::thread> threads;
  for (unsigned r = 0; r < cfg.procs; ++r) {
    threads.emplace_back([&, r] {
      try {
        results[r] = run_rank(r, g, cfg, hub.endpoint(r), out);
      } catch (const std::exception& e) {
        std::cerr << "rank " << r << ": " << e.what() << "\n";
        failed[r] = 1;
      }
      if (results[r].simulated_death) hub.kill(r);
    });
  }
  for (auto& t : threads) t.join();
  if (std::find(failed.begin(), failed.end(), 1) != failed.end()) return 3;
  return results[0].tripped ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args("dmatch_mp", argc, argv, 1,
                  {"procs", "transport", "gen", "seed", "rounds", "base-port",
                   "heartbeat-ms", "retries", "kill-rank", "kill-round",
                   "fault-drop", "fault-dup", "fault-delay", "fault-reorder",
                   "fault-crash", "fault-restart", "fault-seed", "max-delay",
                   "trace-out", "metrics-out"});
  RankConfig cfg;
  cfg.procs = args.num<unsigned>("procs", 2);
  cfg.seed = args.num<std::uint64_t>("seed", 1);
  cfg.rounds = args.num("rounds", 256, [](int r) { return r >= 0; }, ">= 0");
  cfg.fault = parse_fault_plan(args);
  cfg.group.heartbeat_timeout_ms = args.num(
      "heartbeat-ms", 2000, [](int ms) { return ms > 0; }, "> 0");
  cfg.group.recv_retries =
      args.num("retries", 2, [](int r) { return r >= 1; }, ">= 1");
  cfg.kill_rank = args.num("kill-rank", -1);
  cfg.kill_round = args.num("kill-round", -1);
  cfg.trace_prefix = args.get("trace-out");
  const std::string transport = args.get("transport", "tcp");
  cfg.tcp = transport == "tcp";
  if (!cfg.tcp && transport != "loopback") {
    args.usage("--transport: expected tcp | loopback");
  }
  if (cfg.procs == 0 || cfg.procs > 64) args.usage("--procs: must be 1..64");
  const auto base_port = args.num<std::uint16_t>("base-port", 23700);
  Outputs out;
  if (!cfg.trace_prefix.empty()) {
    for (unsigned r = 0; r < cfg.procs; ++r) {
      out.traces.push_back(args.write_file(
          "--trace-out",
          cfg.trace_prefix + ".rank" + std::to_string(r) + ".jsonl"));
    }
  }
  if (const std::string path = args.get("metrics-out"); !path.empty()) {
    out.metrics = args.write_file("--metrics-out", path);
  }
  const Graph g =
      tools::generate(args, args.get("gen", "gnp:64,0.06"), cfg.seed);
  if (!cfg.tcp) return run_loopback(g, cfg, out);
  return run_tcp(g, cfg, base_port, out);
}
