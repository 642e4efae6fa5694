#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from fresh bench output.

Usage:
    cmake --build build
    for b in build/bench/*; do $b > /tmp/$(basename $b).out 2>&1; done
    python3 tools/regen_experiments.py [--out EXPERIMENTS.md] [--dir /tmp]

Each experiment entry pairs a prose claim/expectation block with the
verbatim table the corresponding bench binary printed.
"""
import argparse
import json
import pathlib
import sys

HEADER = """# EXPERIMENTS — paper claims vs. measurements

The paper ("Improved Distributed Approximate Matching", JACM 2015; see the
title-collision note in DESIGN.md) is a theory paper with **no measured
tables or figures**. Its evaluation-grade content is the set of theorem
statements. This file therefore defines one experiment per theorem-level
claim (plus the application, ablations, and extension experiments), names
the bench binary that regenerates it, and records what the paper guarantees
next to what the simulator measures. Regenerate everything with:

```sh
cmake -B build -G Ninja && cmake --build build
for b in build/bench/*; do $b > /tmp/$(basename $b).out 2>&1; done
python3 tools/regen_experiments.py
```

All tables below are verbatim bench output (seeds fixed inside each
binary, so reruns reproduce them bit-for-bit on the same toolchain).
Because our substrate is a simulator rather than the authors' model
analysis, the claims to check are *shapes and bounds*: who wins, how
quantities scale, and that no guarantee is ever violated.

---

"""

ENTRIES = [
    ("bench_bipartite_ratio", "E1 — Theorem 3.10 (approximation)",
     "**Paper claim.** In bipartite graphs a `(1 − 1/k)`-MCM is computed w.h.p.\n"
     "(our adaptive phases make the bound deterministic; see DESIGN.md note 3).\n\n"
     "**Expectation.** `min ratio >= 1 − 1/k` in every row; ratios approach 1 as\n"
     "k grows.  **Measured:** holds with large slack everywhere.\n"),
    ("bench_bipartite_rounds", "E2 — Theorem 3.10 (rounds)",
     "**Paper claim.** `O(k^3 log Δ + k^2 log n)` rounds.\n\n"
     "**Expectation.** At fixed k and constant expected degree, rounds/log2(n)\n"
     "stays bounded over a 64x range of n; at fixed n, rounds grow with k and\n"
     "then flatten once `2k − 1` exceeds the longest augmenting path the\n"
     "instance has.  **Measured:** both hold.\n"),
    ("bench_general_ratio", "E3 — Theorem 3.15 (approximation, general graphs)",
     "**Paper claim.** `(1 − 1/k)`-MCM on arbitrary graphs via the red/blue\n"
     "bipartite reduction.\n\n"
     "**Expectation.** Bound respected on odd cycles, cliques, power-law and\n"
     "near-regular graphs — the structures bipartite algorithms cannot touch\n"
     "directly.  **Measured:** every ratio clears its bound; odd cycles (the\n"
     "hardest case for the sampling) land ≈0.96–0.98.\n"),
    ("bench_general_iters", "E4 — Theorem 3.15 (sampling budget)",
     "**Paper claim.** `2^(2k+1)(k+1) ln k` color-sampling iterations suffice\n"
     "w.h.p.\n\n"
     "**Expectation.** The adaptive runs (which stop only after an exact oracle\n"
     "certifies no augmenting path of length ≤ 2k−1 remains) should finish far\n"
     "below the exponential budget, confirming the budget is a worst-case\n"
     "guarantee, not typical behaviour.  **Measured:** 1–2 orders of magnitude\n"
     "below budget; the needed-samples trend still grows with k.\n"),
    ("bench_weighted_ratio", "E5 — Theorem 4.5 (approximation, weighted)",
     "**Paper claim.** `(1/2 − ε)`-MWM for any ε > 0.\n\n"
     "**Expectation.** Measured ratios never fall below `1/2 − ε` against exact\n"
     "optima (Hungarian on bipartite; the exponential oracle on small general\n"
     "graphs), and typically sit far above, since the worst case needs the\n"
     "series-path structure of Section 4's closing remark.\n"
     "**Measured:** min ratios ≈0.88–0.92, bound never violated.\n"),
    ("bench_weighted_rounds", "E6 — Theorem 4.5 (rounds)",
     "**Paper claim.** `O(log(1/ε) · log n)` rounds with the PODC 2007 black\n"
     "box; our class-greedy stand-in costs an extra `log n` factor (DESIGN.md\n"
     "note 5), so the shape under test is: iterations ∝ `ln(2/ε)`, rounds\n"
     "polylog in n.  **Measured:** the fixed schedule matches the `ln(2/ε)`\n"
     "formula exactly and per-n growth is polylogarithmic.\n"),
    ("bench_baseline_ii", "E7 — Israeli–Itai baseline and the improvement over it",
     "**Paper claim (background).** II gives a `1/2`-MCM in `O(log n)` rounds;\n"
     "the paper's contribution is closing most of the remaining gap.\n\n"
     "**Expectation.** II ratios ≈0.85–0.95 (well above its 1/2 guarantee but\n"
     "clearly below 1); our k=4 algorithm shrinks the deficit to below 1/k.\n"
     "**Measured:** deficit shrinks by 13–21×.\n"),
    ("bench_message_bits", "E8 — CONGEST compliance (message sizes)",
     "**Paper claim.** Theorems 3.10/3.15/4.5 use `O(log n)`-bit messages;\n"
     "Theorem 3.7 (LOCAL) needs `O((|V|+|E|) log n)`-bit messages (Lemma 3.4).\n\n"
     "**Expectation.** CONGEST algorithms' max message size is a constant\n"
     "number of machine words independent of n; the LOCAL algorithm blows\n"
     "through the cap.  **Measured:** 2–130 bits vs thousands for LOCAL.\n"),
    ("bench_local_generic", "E9 — Theorem 3.7 (LOCAL generic algorithm)",
     "**Paper claim.** `(1 − ε)`-MCM in `O(ε⁻³ log n)` LOCAL rounds.\n\n"
     "**Expectation.** Same quality as the CONGEST pipeline (both implement\n"
     "Algorithm 1) at much larger message sizes; phase retries (the w.h.p.\n"
     "failure path) should be rare.  **Measured:** bounds met, zero retries.\n"),
    ("bench_switch", "E10 — Figure 1 application (switch scheduling)",
     "**Paper claim (motivation).** Better matchings raise switch throughput;\n"
     "PIM/iSLIP (the production schedulers) are II-family maximal matchings.\n\n"
     "**Expectation.** Near saturation, our scheduler tracks the centralized\n"
     "maximum while II and iSLIP accumulate delay and backlog; the weighted\n"
     "schedulers (Hungarian max-weight and Theorem 4.5's distributed\n"
     "approximation of it) serve the longest queues.\n"
     "**Measured:** at 0.98 uniform load the delay/backlog gap is ≈2×.\n"),
    ("bench_ablation_blackbox", "E11 — Ablation: Algorithm 5 black box",
     "**Design question.** Theorem 4.5 needs a polylog-round constant-factor\n"
     "box; is the extra machinery worth it over the simple locally-dominant\n"
     "rule?\n\n"
     "**Expectation.** Locally-dominant gives better per-iteration quality but\n"
     "Θ(n) rounds on a decreasing-weight chain; class-greedy stays polylog.\n"
     "**Measured:** the chain costs the dominant box hundreds of rounds at\n"
     "n=128 (linear), exactly the failure mode the PODC 2007 box avoids.\n"),
    ("bench_ablation_budget", "E12 — Ablation: fixed w.h.p. budgets vs adaptive oracle",
     "**Design question.** What do the paper's fixed `c log N` (Lemma 3.9) and\n"
     "`2^(2k+1)(k+1) ln k` (Algorithm 4) budgets cost relative to oracle-checked\n"
     "termination?\n\n"
     "**Measured:** identical quality; fixed budgets pay ~45× (phases) and\n"
     "~13× (sampling loop) more rounds.\n"),
    ("bench_micro_solvers", "E13 — Reference-solver and simulator microbenchmarks",
     "**Role.** The centralized oracles must be fast enough to sit inside the\n"
     "sweeps; google-benchmark timings with asymptotic fits, plus end-to-end\n"
     "simulator throughput (one full Israeli–Itai run per iteration).\n"),
    ("bench_local_mwm", "E14 — Section 4 Remark: (1 − ε)-MWM in the LOCAL model",
     "**Paper claim.** A `(1 − ε)`-MWM is computable in `O(ε⁻⁴ log² n)` LOCAL\n"
     "time by adapting Hougardy–Vinkemeier (also Nieberg [2008]).\n\n"
     "**Expectation.** Quality beats Algorithm 5 and meets the k/(k+1)\n"
     "certificate (Lemma 4.2 at the adaptive stopping point); message sizes\n"
     "grow with the view, which is why the paper leaves small-message\n"
     "(1−ε)-MWM open.  **Measured:** ratios ≈1.0, message blow-up visible.\n"),
    ("bench_synchronizer", "E15 — Footnote 2: synchrony is WLOG (α synchronizer)",
     "**Paper claim.** The synchronous assumption costs nothing thanks to\n"
     "Awerbuch's α synchronizer.\n\n"
     "**Expectation.** Protocols executed over the asynchronous event network\n"
     "through the synchronizer produce *identical* results (also asserted\n"
     "bit-for-bit by the test suite), paying one ACK per payload and one SAFE\n"
     "per edge per pulse.  **Measured:** identical results, ~20–30× message\n"
     "overhead, zero extra virtual rounds.\n"),
    ("bench_convergence", "E16 — Convergence curves (Lemmas 3.3 and 3.13)",
     "**Paper claim.** After exhausting augmenting paths of length ≤ ell the\n"
     "matching is a `1 − 2/(ell+3)` approximation (Lemma 3.3); Algorithm 4's\n"
     "deficit contracts geometrically per sampling iteration (Lemma 3.13).\n\n"
     "**Measured:** phase-by-phase ratios run ahead of the certified schedule;\n"
     "the general reduction finds most of the matching in the first few\n"
     "iterations, converging geometrically.\n"),
    ("bench_b_matching", "E17 — Extension: capacitated (c-)matching",
     "**Context.** The related-work section points to the c-matching\n"
     "generalization ([Koufogiannakis & Young 2011]) and the cellular-coverage\n"
     "application built on this paper's algorithm ([Patt-Shamir et al. 2012]).\n"
     "We implement b-matching via the Tutte gadget over the Theorem 3.15\n"
     "matcher.\n\n"
     "**Measured:** validity by construction, ratios tracking the\n"
     "plain-matching experiments, at a constant-factor larger simulated graph.\n"),
    ("bench_round_engine", "E18 — Simulator scaling: the parallel sharded round engine",
     "**Claim (engineering, not the paper's).** A CONGEST round is a BSP\n"
     "superstep, so the sharded round engine should produce bit-identical\n"
     "rounds/messages for any worker-thread count and scale\n"
     "node-steps-per-second with threads up to the core count.\n\n"
     "**Expectation.** `rounds`/`messages` constant down each `n` block;\n"
     "`speedup vs 1T` ≥ 2 at 4 threads on `n = 1e5` on ≥ 4 cores, on the\n"
     "skewed-degree Barabási–Albert (`ba`) row too. The flood's 32-bit\n"
     "messages live inline in their mailbox slots, so no worker calls the\n"
     "allocator per message. Also writes `BENCH_round_engine.json` at the\n"
     "repo root.\n"),
    ("bench_fault_ratio", "E19/E20 — Graceful degradation and ARQ round overhead",
     "**Claim (engineering, not the paper's).** E19: under injected drops and\n"
     "crashes the drivers terminate within budget, return valid matchings that\n"
     "match no crashed node, and lose quality only by about the dead fraction.\n"
     "E20: the selective-repeat link layer stays within ~2× real rounds of the\n"
     "fault-free baseline through drop = 0.05 where the window-1\n"
     "stop-and-wait degenerate collapses; the window-16 arm records whether\n"
     "the full 16-bit SACK window closes the drop = 0.1 gap of window 8.\n"
     "Also writes `BENCH_fault_ratio.json` at the repo root.\n"),
    ("bench_obs_overhead", "E21 — Observability overhead (src/obs)",
     "**Claim (engineering, not the paper's).** Full observation (metrics +\n"
     "trace + link profiler) slows the protocol round loop by < 5%; an\n"
     "unattached Observer costs one branch per round; building with\n"
     "`-DDMATCH_OBS_DISABLED` compiles every hook out (0% by construction).\n\n"
     "**Expectation.** Each cell times 21 interleaved (baseline, observed)\n"
     "pairs and reports the median per-pair overhead with its quartiles. A\n"
     "row's verdict is met when the upper quartile is below 0.05, not met\n"
     "when the lower quartile is above 0.05, and unresolved otherwise; the\n"
     "claim line takes the most severe verdict of the protocol rows. The\n"
     "flood rows bound the hook's raw per-message cost against a near-empty\n"
     "baseline. Also writes `BENCH_obs_overhead.json` at the repo root.\n"),
    ("bench_mp_scaling",
     "E25 — Multi-process sharding: scaling, flush traffic, and losing a worker (src/mp)",
     "**Claim (engineering, not the paper's).** The multi-process engine\n"
     "splits one simulation across ranks without giving up anything: at any\n"
     "rank count the matching and `RunStats` are bit-identical to the\n"
     "single-process run, the cross-shard data plane is one batched ROUND\n"
     "frame per alive peer per round, and losing a worker mid-run degrades\n"
     "(heartbeat detection, register healing, a verify-clean survivor\n"
     "matching) instead of corrupting or hanging.\n\n"
     "**Expectation.** `identical` reads yes in every scaling cell; the\n"
     "kill cell verifies clean. One run lasts ~10 ms and back-to-back runs\n"
     "spread up to 2×, so rounds/s is the median of 41 runs per cell with\n"
     "its interquartile range. Also writes `BENCH_mp_scaling.json` at the\n"
     "repo root.\n"),
    ("bench_dyn_churn", "E26 — Dynamic matching service under churn (src/dyn)",
     "**Claim (engineering, not the paper's).** Re-matching only the k-hop\n"
     "dirty region around each epoch's updates — boundary pairs frozen, run\n"
     "cost proportional to the region — beats recomputing from scratch\n"
     "wherever the per-epoch churn is small relative to the graph, at zero\n"
     "quality cost: both engines end every epoch certified maximal.\n\n"
     "**Expectation.** At churn ≤ 1% of the edges per epoch the incremental\n"
     "engine wins p50 and p99 epoch repair latency in every workload profile\n"
     "(uniform / hotspot / adversarial-flap); at 5% the dirty region covers\n"
     "most of the graph, the engine falls back to full recompute, and the\n"
     "two columns converge. `cert` reads OK in every cell. Also writes\n"
     "`BENCH_dyn_churn.json` at the repo root.\n"),
    ("bench_dyn_quality",
     "E27 — Beyond-maximal quality ladder under churn (src/dyn/augment)",
     "**Claim (engineering, built on the paper's Algorithm 1/3).** After\n"
     "each epoch's incremental Israeli–Itai repair restores maximality,\n"
     "re-running the augmenting stack restricted to the widened\n"
     "(2k−1)-hop arena — plus a host-side sweep for boundary-crossing\n"
     "leftover paths — holds every epoch at ratio ≥ 1 − 1/k against the\n"
     "exact live optimum, and the quality ladder rides the same\n"
     "dirty-region machinery, so its incremental latency stays within a\n"
     "small constant of the maximal-only path.\n\n"
     "**Expectation.** At churn ≤ 1% every certified epoch holds\n"
     "`min ratio ≥ floor` for k ∈ {2, 3} with the incremental p99 repair\n"
     "latency within 3× of the k = 1 incremental path; `invalid_epochs`\n"
     "is 0 in every cell (incremental AND forced-full engines). At 5%\n"
     "churn the widened arena covers most of the graph and the fallback\n"
     "takes over — quality still certifies. Also writes\n"
     "`BENCH_dyn_quality.json` at the repo root.\n"),
    ("bench_dyn_scaling",
     "E28 — Region-sized quality epochs: epoch cost from n = 2e3 to 2e6 (src/dyn)",
     "**Claim (engineering, not the paper's).** Every epoch of the\n"
     "dynamic service costs what its change touches: the leftover sweep\n"
     "starts from the epoch's changed nodes, the repair and augment runs\n"
     "spawn their regions only, and the per-node scratch is reset by\n"
     "stamp, so on flap churn at k = 2 the expand, repair, augment and\n"
     "sweep phases barely move while n grows 1000×.\n\n"
     "**Expectation.** G(n, 3/n), 16 ops per epoch, 48 measured epochs per\n"
     "cell after 4 warm-up epochs, n ∈ {2e3, 2e4, 2e5, 2e6} × {uniform,\n"
     "flap} × k ∈ {1, 2}; p50/p95 epoch latency and the median of every\n"
     "`EpochReport::phase_ns` phase. The growth lines name what still\n"
     "scales with n: the universe rebuild of uniform churn (ops phase: an\n"
     "in-place append to the universe and a rebind of its one Network,\n"
     "both still linear in n + m) and the weight sum in every epoch's\n"
     "total. Every sampled epoch\n"
     "certifies (valid, maximal, and for k = 2 no augmenting path of\n"
     "length ≤ 3 on the live snapshot). Also writes\n"
     "`BENCH_dyn_scaling.json` at the repo root.\n"),
]

SUMMARY = """## Summary

| Experiment | Claim | Verdict |
|---|---|---|
| E1 | bipartite ratio ≥ 1 − 1/k | holds, deterministic, large slack |
| E2 | rounds O(k³ log Δ + k² log n) | log-in-n flat over 64x, poly-in-k then saturates |
| E3 | general ratio ≥ 1 − 1/k | holds on all families incl. odd cycles |
| E4 | 2^(2k) sampling budget | conservative; adaptive ≪ budget |
| E5 | weighted ratio ≥ 1/2 − ε | holds, typically ≥ 0.88 |
| E6 | iterations ∝ ln(2/ε), rounds polylog(n) | matches formula exactly |
| E7 | II = 1/2-MCM in O(log n) | ~0.87 measured; deficit shrunk 13–21× |
| E8 | O(log n)-bit messages | ≤ 130 bits constant; LOCAL blows up |
| E9 | LOCAL (1−ε)-MCM | quality met; message price visible |
| E10 | switch motivation | delay/backlog gap opens at high load |
| E11 | black-box choice | chain exposes Θ(n) rounds of dominant box |
| E12 | fixed vs adaptive budgets | same quality, 13–45× round premium |
| E13 | oracle/simulator speed | fast enough for all sweeps |
| E14 | (1−ε)-MWM LOCAL remark | certificate met, ratios ≈ 1.0 |
| E15 | synchrony WLOG | identical results; measured overhead |
| E16 | convergence schedules | Lemma 3.3/3.13 shapes reproduced |
| E17 | c-matching extension | reduction preserves quality |
| E18 | round-engine scaling | thread-count-invariant results; with inline message words 3.16× / 2.79× at 4 threads on n = 1e5 (gnp / ba) and > 1× at n = 1e4 on the 4-core box |
| E19 | graceful degradation under faults | drops fully masked by ARQ; crashes cost ≈ the dead fraction; 0 invalid matchings |
| E20 | selective-repeat ARQ overhead | ~1.03× lossless, ≤ 2× through 5 % drops; window 16 does NOT close the 10 %-drop gap (loss-recovery-bound) |
| E21 | observability overhead | < 5 % on the protocol round loop unresolved on the 4-core box (the quartiles of 21 interleaved pairs straddle the bound); 0 % compiled out |
| E22 | sharded async executor scaling (retired) | its last record: 4.87× at 4 threads on n = 2e4; the executor now runs one event queue on one thread, with unchanged results |
| E25 | multi-process sharding (src/mp) | procs 1/2/4 bit-identical to single-process; kill cell verifies clean; rounds/s as a median of 41 runs with quartiles |
| E26 | dynamic matching under churn (src/dyn) | incremental dirty-region repair beats full recompute on p50 and p99 at ≤ 1% churn in every profile; falls back past the region threshold at 5%; every epoch certified maximal |
| E27 | beyond-maximal quality ladder under churn (src/dyn/augment) | every certified epoch at ≤ 1% churn holds ratio ≥ 1 − 1/k for k ∈ {2, 3}; incremental p99 stays within 3× of the k = 1 path; 0 invalid matchings |
| E28 | region-sized quality epochs (src/dyn) | uniform churn's universe rebuild is an in-place append and a Network rebind: the k = 1 ops phase fell 5.9× / 4.2× / 3.1× at n = 2e4 / 2e5 / 2e6 (1.00 / 20.5 / 381 ms), still O(n + m); the flap k = 2 < 2× growth check reads CLAIM FAILS because the n = 2e4 flap cells got faster in the same process (perfbench flap unchanged); every sampled epoch certifies |

No experiment violated a guarantee. Absolute round counts are simulator
artifacts (constants depend on protocol framing); every *scaling* claim of
the paper reproduces.
"""


def bench_json_section() -> str:
    """Index the machine-readable BENCH_*.json result files at the repo
    root (written by the bench binaries themselves, schema
    {"bench", "commit", "machine", "cells": [...]})."""
    root = pathlib.Path(__file__).resolve().parent.parent
    files = sorted(root.glob("BENCH_*.json"))
    if not files:
        return ""
    section = (
        "\n## Machine-readable results\n\n"
        "Written at the repo root by the bench binaries (schema\n"
        '`{"bench", "commit", "machine", "cells": [...]}` — the `machine`\n'
        "object records `hardware_concurrency`, so timing cells are\n"
        "interpretable off-box; a `-dirty` commit means the files were\n"
        "recorded from uncommitted changes on top of that commit):\n\n"
        "| file | bench | commit | cells |\n|---|---|---|---|\n"
    )
    for f in files:
        try:
            data = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError):
            section += f"| {f.name} | (unreadable) | | |\n"
            continue
        section += (
            f"| {f.name} | {data.get('bench', '?')} "
            f"| {data.get('commit', '?')} | {len(data.get('cells', []))} |\n"
        )
    return section


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument("--dir", default="/tmp")
    args = parser.parse_args()

    outs = {}
    for f in pathlib.Path(args.dir).glob("bench_*.out"):
        outs[f.stem] = f.read_text()

    doc = HEADER
    missing = []
    for stem, title, blurb in ENTRIES:
        doc += f"## {title}\n\nBinary: `build/bench/{stem}`\n\n{blurb}\n"
        body = outs.get(stem)
        if body is None:
            missing.append(stem)
            body = "(run the binary to regenerate)\n"
        doc += "```\n" + body.strip() + "\n```\n\n---\n\n"
    doc += SUMMARY
    doc += bench_json_section()

    pathlib.Path(args.out).write_text(doc)
    print(f"wrote {args.out} ({len(doc)} bytes)")
    if missing:
        print("missing bench outputs:", ", ".join(missing), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
