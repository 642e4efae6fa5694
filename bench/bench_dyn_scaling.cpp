// E28 -- region-sized quality epochs: how the dynamic service's epoch
// cost scales with the graph. The service runs on G(n, 3/n) at 16 ops
// per epoch for n in {2e3, 2e4, 2e5, 2e6} x {uniform, flap} churn x
// quality_k in {1, 2}, and reports the p50/p95 epoch latency and the
// median of every apply_epoch phase (EpochReport::phase_ns): ops and
// rebuild, region expansion, repair, augment, leftover sweep (write-back
// included) and the whole epoch.
//
// The claim under test: on flap churn at k = 2 — the epochs the leftover
// sweep used to scan the whole graph for — every phase bounded by the
// change (expand, repair, augment, sweep) costs about the same at every
// n, growing < 2x from n = 2e4 to n = 2e5. What still grows with n is
// named in the output: uniform churn inserts pairs the universe has never
// seen, so every uniform epoch rebuilds the universe and the Network
// (the ops phase), and every epoch sums the matching's weight over all
// nodes (in the total only).
//
// Certification sits outside the timing: at sampled epochs and at the
// end, the live snapshot must hold a valid maximal matching and, for
// k = 2, no augmenting path of length <= 3 (the global reference
// enumerator), which by Lemma 3.2 certifies ratio >= 1 - 1/k without the
// exact optimum.
//
// Emits one JSON line per cell and writes BENCH_dyn_scaling.json at the
// repo root.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dyn/service.hpp"
#include "dyn/workload.hpp"
#include "graph/augmenting.hpp"
#include "graph/generators.hpp"
#include "support/table.hpp"

using namespace dmatch;

namespace {

constexpr double kAverageDegree = 3.0;
constexpr std::size_t kEpochOps = 16;
constexpr std::size_t kWarmupEpochs = 4;
constexpr std::size_t kEpochs = 48;  // measured, after the warm-up
constexpr std::size_t kCertifyEvery = 16;

struct CellResult {
  std::vector<double> lat_ms;                           // per epoch
  std::vector<std::vector<double>> phase_ms =
      std::vector<std::vector<double>>(dyn::kEpochPhases);
  std::size_t rebuilt = 0;
  std::size_t escalated = 0;
  std::size_t full = 0;
  std::size_t certified = 0;
  bool cert_ok = true;
  double setup_s = 0;

  [[nodiscard]] double phase(std::size_t p) const {
    return dyn::percentile(phase_ms[p], 0.5);
  }
};

bool certify(const dyn::MatchingService& svc, int quality_k) {
  const auto cert = svc.engine().certify_now(false);
  if (!cert.report.ok() || !cert.maximal) return false;
  return quality_k < 2 ||
         enumerate_augmenting_paths(cert.graph, cert.matching,
                                    2 * quality_k - 1, 1)
             .empty();
}

CellResult run_cell(NodeId n, dyn::WorkloadMode mode, int quality_k) {
  CellResult r;
  const auto t0 = std::chrono::steady_clock::now();
  const Graph g = gen::gnp(n, kAverageDegree / n, 7);
  dyn::ServiceOptions so;
  so.limits.max_ops = kEpochOps;
  so.limits.max_latency_us = ~0ull;  // close epochs by op count only
  so.repair.quality_k = quality_k;
  so.repair.num_threads = 1;
  so.repair.seed = 3;
  dyn::MatchingService svc(g, so);
  r.setup_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  dyn::WorkloadOptions wo;
  wo.mode = mode;
  wo.seed = 5;
  dyn::Workload w(g, wo);

  const std::size_t total = kWarmupEpochs + kEpochs;
  while (svc.history().size() < total) {
    const std::size_t before = svc.history().size();
    svc.submit(w.next(svc.mate_view()));
    const std::size_t closed = svc.history().size();
    if (closed > before && closed > kWarmupEpochs &&
        (closed - kWarmupEpochs) % kCertifyEvery == 0) {
      r.cert_ok = r.cert_ok && certify(svc, quality_k);
      ++r.certified;
    }
  }
  r.cert_ok = r.cert_ok && certify(svc, quality_k);
  ++r.certified;

  const auto& h = svc.history();
  for (std::size_t i = kWarmupEpochs; i < h.size(); ++i) {
    const dyn::EpochReport& e = h[i];
    r.lat_ms.push_back(e.repair_seconds * 1e3);
    for (std::size_t p = 0; p < dyn::kEpochPhases; ++p) {
      r.phase_ms[p].push_back(static_cast<double>(e.phase_ns[p]) * 1e-6);
    }
    r.rebuilt += e.rebuilt ? 1 : 0;
    r.escalated += e.augment_escalated ? 1 : 0;
    r.full += e.full_recompute ? 1 : 0;
  }
  return r;
}

std::string cell_json(NodeId n, const char* mode, int quality_k,
                      const CellResult& r) {
  std::ostringstream out;
  out << "{\"experiment\": \"E28\", \"n\": " << n << ", \"mode\": \"" << mode
      << "\", \"quality_k\": " << quality_k << ", \"epoch_ops\": " << kEpochOps
      << ", \"epochs\": " << r.lat_ms.size() << ", \"rebuilt\": " << r.rebuilt
      << ", \"escalated\": " << r.escalated << ", \"full\": " << r.full
      << ", \"setup_s\": " << r.setup_s
      << ", \"p50_ms\": " << dyn::percentile(r.lat_ms, 0.50)
      << ", \"p95_ms\": " << dyn::percentile(r.lat_ms, 0.95)
      << ", \"phase_p50_ms\": {";
  for (std::size_t p = 0; p < dyn::kEpochPhases; ++p) {
    out << (p == 0 ? "" : ", ") << "\"" << dyn::kEpochPhaseNames[p]
        << "\": " << r.phase(p);
  }
  out << "}, \"certified_epochs\": " << r.certified
      << ", \"certified\": " << (r.cert_ok ? "true" : "false") << "}";
  return out.str();
}

}  // namespace

int main() {
  bench::banner("E28",
                "region-sized quality epochs: epoch latency and per-phase "
                "cost of the dynamic service from n = 2e3 to 2e6");

  bench::JsonReport report("dyn_scaling");
  Table table({"n", "mode", "k", "p50 ms", "p95 ms", "ops", "expand",
               "repair", "augment", "sweep", "total", "rebuilt", "esc",
               "cert"});
  const NodeId sizes[] = {2000, 20000, 200000, 2000000};
  const struct {
    dyn::WorkloadMode mode;
    const char* name;
  } modes[] = {{dyn::WorkloadMode::kUniform, "uniform"},
               {dyn::WorkloadMode::kAdversarialFlap, "flap"}};
  // flap_k2[i]: the flap, k = 2 cell at sizes[i], for the growth lines.
  std::vector<CellResult> flap_k2;
  std::vector<CellResult> uniform_k1;
  bool all_certified = true;
  for (const NodeId n : sizes) {
    for (const auto& m : modes) {
      for (const int k : {1, 2}) {
        CellResult r = run_cell(n, m.mode, k);
        table.row()
            .cell(static_cast<std::uint64_t>(n))
            .cell(m.name)
            .cell(static_cast<std::uint64_t>(k))
            .cell(dyn::percentile(r.lat_ms, 0.50), 3)
            .cell(dyn::percentile(r.lat_ms, 0.95), 3)
            .cell(r.phase(dyn::kPhaseOps), 3)
            .cell(r.phase(dyn::kPhaseExpand), 3)
            .cell(r.phase(dyn::kPhaseRepair), 3)
            .cell(r.phase(dyn::kPhaseAugment), 3)
            .cell(r.phase(dyn::kPhaseSweep), 3)
            .cell(r.phase(dyn::kPhaseTotal), 3)
            .cell(static_cast<std::uint64_t>(r.rebuilt))
            .cell(static_cast<std::uint64_t>(r.escalated))
            .cell(r.cert_ok ? "OK" : "BAD");
        report.cell(cell_json(n, m.name, k, r));
        all_certified = all_certified && r.cert_ok;
        std::cout << "# n=" << n << " " << m.name << " k=" << k
                  << ": p50 " << dyn::percentile(r.lat_ms, 0.50) << " ms, "
                  << r.rebuilt << " rebuilt, cert "
                  << (r.cert_ok ? "OK" : "BAD") << "\n";
        if (m.mode == dyn::WorkloadMode::kAdversarialFlap && k == 2) {
          flap_k2.push_back(std::move(r));
        } else if (m.mode == dyn::WorkloadMode::kUniform && k == 1) {
          uniform_k1.push_back(std::move(r));
        }
      }
    }
  }
  std::cout << "\n";
  table.print(std::cout);

  // Growth of each phase median on flap k = 2 and uniform k = 1, from
  // one size to the next (10x more nodes each step).
  std::ostringstream growth;
  bool bounded_ok = true;
  const auto grow = [&](const char* label, const std::vector<CellResult>& rs) {
    growth << "\n" << label << " phase growth per 10x n:";
    for (std::size_t p = 0; p < dyn::kEpochPhases; ++p) {
      growth << "\n  " << dyn::kEpochPhaseNames[p] << ":";
      for (std::size_t i = 1; i < rs.size(); ++i) {
        const double x =
            rs[i].phase(p) / std::max(rs[i - 1].phase(p), 1e-6);
        growth << " " << sizes[i - 1] << "->" << sizes[i] << " "
               << x << "x";
      }
    }
  };
  grow("flap k=2", flap_k2);
  grow("uniform k=1", uniform_k1);
  for (const std::size_t p : {dyn::kPhaseExpand, dyn::kPhaseRepair,
                              dyn::kPhaseAugment, dyn::kPhaseSweep}) {
    // sizes[1] = 2e4 -> sizes[2] = 2e5.
    const double x = flap_k2[2].phase(p) / std::max(flap_k2[1].phase(p), 1e-6);
    bounded_ok = bounded_ok && x < 2.0;
  }
  std::cout << growth.str() << "\n";

  const std::string path = report.write();
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";

  bench::footer(
      std::string("Reading: on flap churn at k = 2 the phases bounded by "
                  "the change (expand, repair, augment, sweep) grow ") +
      (bounded_ok ? "< 2x" : ">= 2x (CLAIM FAILS)") +
      " from n = 2e4 to 2e5, and every sampled epoch " +
      (all_certified ? "certifies" : "DOES NOT certify") +
      ". The growth lines name what still scales with n: the universe "
      "rebuild under uniform churn (ops phase), and the weight sum in "
      "every epoch's total.");
  return 0;
}
