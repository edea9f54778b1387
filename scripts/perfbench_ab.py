#!/usr/bin/env python3
"""A/B comparison of two checkouts on the application benchmark (perfbench).

Runs `perfbench/run.py` of a BASE and a NEW checkout in ten pairs for every
workload and seed, at the run length BENCHMARK.json fixes, alternating
which side runs first so slow phases of a shared host hit both sides alike;
then three traced pairs per workload (first seed) for the per-layer
metrics.  Prints markdown tables:

  * end-to-end metrics: median and quartiles per side, the change of the
    medians, the pairs NEW won, whether the change exceeds the base runs'
    interquartile range, and whether the benchmark's gain rule (NEW wins at
    least nine of ten pairs and the medians differ by more than that
    range) holds;
  * exact counters: equal on both sides (team_steps reported apart);
  * per-layer medians of the traced runs, with the 4-lane solve time the
    lane sweep measured (the 1-lane p50 over hypercube.team.speedup_4v1).

    scripts/perfbench_ab.py BASE NEW [--workloads=a,b] [--seeds=101,8675309]

Each checkout builds its own benchmark on first use (see
perfbench/README.md).  Every run's end-to-end values go to stderr as it
finishes, the tables to stdout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

E2E = ("solve_ms_p50", "setup_s", "peak_rss_mb")
PAIRS = 10         # the benchmark's gain rule is stated over ten pairs
WINS_NEEDED = 9
TRACED_PAIRS = 3
LAYERS = ("core.extract.us_p50", "comm.broadcast_auto.us_p50",
          "hypercube.exchange_msg.ns_p50", "hypercube.team.steps",
          "hypercube.team.speedup_4v1", "fault.exchange_overhead.ns")
FOUR_LANE = "4-lane solve ms"


def run_seconds(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return int(json.load(f)["run_seconds"])


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.splitlines()
    result = json.loads(out[-1])
    if not result.get("correct") or result.get("failed"):
        sys.exit("%s: %s seed %d reported an incorrect or failed solve"
                 % (checkout, workload, seed))
    exact = next(json.loads(l[len("exact "):]) for l in out
                 if l.startswith("exact "))
    m = {k: v["value"] for k, v in result["metrics"].items()}
    sys.stderr.write("%s %s seed %d trace %d: %s\n" % (
        checkout, workload, seed, trace,
        " ".join("%s=%.6g" % (k, m[k]) for k in E2E if k in m)))
    if trace:
        # sim_us_per_wall_s is sim µs over the 1-lane p50 of the same run.
        p50_ms = 1e3 * m["sim_us_per_solve"] / m["hypercube.sim_us_per_wall_s"]
        m[FOUR_LANE] = p50_ms / m["hypercube.team.speedup_4v1"]
    return m, exact


def alternating(base, new, workload, seed, seconds, trace, pairs):
    b, n = [], []
    for i in range(pairs):
        order = ((base, b), (new, n)) if i % 2 == 0 else ((new, n), (base, b))
        for checkout, into in order:
            into.append(run(checkout, workload, seed, seconds, trace))
    return b, n


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--workloads", default="gauss_lu,simplex_lp_faults,cg_dense")
    ap.add_argument("--seeds", default="101,8675309")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = run_seconds(args.new)
    if run_seconds(args.base) != seconds:
        sys.exit("BASE and NEW fix different run lengths")

    print("End to end: %d pairs per workload and seed, %d s runs."
          % (PAIRS, seconds))
    print()
    print("| workload | seed | metric | base median [q1, q3] "
          "| new median [q1, q3] | change | pairs won | beyond base IQR "
          "| gain rule met |")
    print("|---|---|---|---|---|---|---|---|---|")
    exact_rows = []
    for w in workloads:
        for seed in seeds:
            base, new = alternating(args.base, args.new, w, seed, seconds, 0,
                                    PAIRS)
            for m in E2E:
                b = [r[0][m] for r in base]
                n = [r[0][m] for r in new]
                mb, mn = statistics.median(b), statistics.median(n)
                won = sum(1 for x, y in zip(b, n) if y < x)
                (b1, b3), (n1, n3) = quartiles(b), quartiles(n)
                beyond = abs(mn - mb) > b3 - b1
                met = won >= WINS_NEEDED and mn < mb and beyond
                print("| %s | %d | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] "
                      "| %+.1f%% | %d/%d | %s | %s |"
                      % (w, seed, m, mb, b1, b3, mn, n1, n3,
                         100.0 * (mn - mb) / mb, won, PAIRS,
                         "yes" if beyond else "no", "yes" if met else "no"))
            sys.stdout.flush()
            eb, en = base[0][1], new[0][1]
            same = all(r[1][k] == eb[k] for r in base + new for k in eb
                       if k != "team_steps")
            exact_rows.append((w, seed, same, eb["team_steps"],
                               en["team_steps"], eb["sim_us"]))

    print()
    print("| workload | seed | exact counters equal in every run "
          "(all but team_steps) | sim µs | team_steps base → new |")
    print("|---|---|---|---|---|")
    for w, seed, same, tb, tn, sim in exact_rows:
        print("| %s | %d | %s | %s | %d → %d |"
              % (w, seed, "yes" if same else "**no**", sim, tb, tn))

    print()
    print("Per layer: medians of %d traced pairs at seed %d, base → new."
          % (TRACED_PAIRS, seeds[0]))
    print()
    cols = LAYERS + (FOUR_LANE,)
    print("| workload | " + " | ".join(cols) + " |")
    print("|---|" + "---|" * len(cols))
    for w in workloads:
        base, new = alternating(args.base, args.new, w, seeds[0], seconds, 1,
                                TRACED_PAIRS)
        cells = ["%.4g → %.4g"
                 % (statistics.median(r[0][k] for r in base),
                    statistics.median(r[0][k] for r in new)) for k in cols]
        print("| %s | %s |" % (w, " | ".join(cells)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
