"""Check that the benchmark is steady enough to judge a change.

Usage (from the repository root):

    python3 bench/steadiness.py [workload ...]

For each workload (all of BENCHMARK.json by default) it makes two sets of
ten untraced runs, each run with another seed.  For every end-to-end
metric and set it prints the distance between the first and third
quartile of the run values as a share of their median (quartiles as
``statistics.quantiles(values, n=4)`` gives them).  It flags a spread
wider than the metric's bound, except for ``setup_s``, and a second-set
median worse than the first set's by more than the bound: the two checks
a change's benchmark runs must pass.  Two traced runs per workload check
that the exact counts repeat identically.  Every run must report
``correct`` with no failed operation.  Exits 1 on any flag.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from run import EXACT_COUNTS  # noqa: E402

RUNS = 10
SETS = 2
TRACE_RUNS = 2
FIRST_SEED = 1000


def one_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    flags = []
    seed = FIRST_SEED
    for wl in workloads:
        firsts = {}
        for s in range(SETS):
            results = []
            t0 = time.monotonic()
            for _ in range(RUNS):
                res = one_run(spec, wl, seed, 0)
                seed += 1
                results.append(res)
                if not res["correct"] or res["failed"]:
                    flags.append(f"{wl}: seed {seed - 1} correct={res['correct']} "
                                 f"failed={res['failed']}/{res['attempted']}")
            print(f"{wl:16s} set {s} {RUNS} runs, "
                  f"{(time.monotonic() - t0) / RUNS:.1f} s per run", flush=True)
            for m in spec["end_to_end"]:
                vals = [r["metrics"][m["name"]]["value"] for r in results]
                med, sp = spread(vals)
                line = (f"{wl:16s} set {s} {m['name']:12s} median {med:.4f} {m['unit']:3s} "
                        f"spread {sp:.4f} = {sp / m['bound']:.2f} of bound {m['bound']}")
                if s == 0:
                    firsts[m["name"]] = med
                else:
                    worse = (med - firsts[m["name"]]) / firsts[m["name"]]
                    line += f", {worse:+.4f} against set 0"
                    if worse > m["bound"]:
                        flags.append(line)
                        line += "  <-- median worse than set 0 by more than the bound"
                if m["name"] != "setup_s" and sp > m["bound"]:
                    flags.append(line)
                    line += "  <-- spread wider than the bound"
                print(f"{line}\n    values {[round(v, 4) for v in vals]}", flush=True)
        counts = []
        for _ in range(TRACE_RUNS):
            res = one_run(spec, wl, seed, 1)
            seed += 1
            if not res["correct"]:
                flags.append(f"{wl}: traced run seed {seed - 1} not correct")
            counts.append({k: res["metrics"][k]["value"] for k in EXACT_COUNTS})
        same = all(c == counts[0] for c in counts)
        print(f"{wl:16s} exact counts over {TRACE_RUNS} traced runs: "
              f"{'identical' if same else 'DIFFER'} {counts[0]}", flush=True)
        if not same:
            flags.append(f"{wl}: exact counts differ: {counts}")
    for f in flags:
        print("FLAG", f)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
