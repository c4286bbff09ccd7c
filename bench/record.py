"""Record the expected outputs that bench/run.py checks every run against.

Usage (from the repository root, at the commit whose outputs are the
reference):

    python3 bench/record.py

Runs one untraced repetition of every workload and writes
bench/expected.json: N and the error of every (eps, p) cell and the
fitted rate b per eps for the studies, exit code and element and node
counts of every mesh for the sweep.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, WORKLOADS, run_child, scratch_dir


def record(name: str, workload: dict, work_dir: str) -> dict:
    spec = {"src": str(ROOT / "src"), "work_dir": work_dir, "commands": workload["commands"],
            "trace": False}
    res = run_child(spec, timeout=600)
    if "crash" in res:
        raise RuntimeError(f"{name}: {res['crash']}")
    out: dict = {"cells": [], "b": {}, "meshes": []}
    for rec in res["commands"]:
        if rec["error"] or (rec["argv"][0] == "study" and rec["exit"] != 0):
            raise RuntimeError(f"{name}: {rec['argv']} failed: {rec['error'] or rec['exit']}")
        argv = rec["argv"]
        if argv[0] == "study":
            out["cells"] += rec["cells"]
            out["b"].update(rec["b"])
        else:
            key = [argv[argv.index("--domain") + 1], int(argv[argv.index("-L") + 1])]
            out["meshes"].append(key + [{"exit": rec["exit"], "elements": rec["elements"],
                                         "nodes": rec["nodes"]}])
    out = {k: v for k, v in out.items() if v}
    out["ops_per_rep"] = len(out.get("cells", [])) + len(out.get("meshes", []))
    return out


def main() -> int:
    with scratch_dir() as work_dir:
        expected = {name: record(name, wl, work_dir) for name, wl in WORKLOADS.items()}
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
