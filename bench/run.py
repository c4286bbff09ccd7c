"""hpbl benchmark driver.

Usage (from the repository root):

    python3 bench/run.py --workload square-p --seed 1 --seconds 30 --trace 0

Each repetition runs the workload's ``hpbl`` command lines through
``hpbl.cli.main`` in a fresh child process (bench/child.py), so every
repetition pays the module-level caches as a command-line user does.
Every output is checked against bench/expected.json, the outputs that
bench/record.py recorded at the commit that added the benchmark.
wall_s is scaled by a fixed calibration job that each child times right
after its commands (see CAL_REF_S).

With ``--trace 0`` the last line of standard output is a JSON object
whose metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` untraced and traced repetitions alternate and the metrics
are the per-layer ones.  The seed only shuffles the traced/untraced
order inside a run, never the inputs.  Exit status is 0 when a result was printed, 2 when the program
under test could not even be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

_STUDY_LAYERS = ["fem.solve", "fem.assemble", "fem.DofMap", "macro.build_geo_bl_mesh",
                 "study.export", "layouts.builtin_layout"]

# Each workload is a fixed input size; "layers" lists the layers that must
# record spans on it in a traced run (a zero there means a layer was
# renamed or bypassed and its metrics would silently read 0).
WORKLOADS = {
    # few elements (104 at p=4, 200 at p=6), high p (N up to 12321): Jacobi-CG
    # and high-p element kernels dominate.  pmax stops at 7 so that five or more
    # repetitions fit in a run (pmax 8 fitted four, and ten runs spread by 0.13)
    "square-p": {
        "commands": [["study", "--domain", "square", "--eps", "1e-2", "1e-4",
                      "--pmax", "7", "--out", "{out}"]],
        "layers": _STUDY_LAYERS + ["fem.error_norms"],
        "ref_solves": 0,
    },
    # balanced layers give ~900 low-p elements per mesh: per-element Python
    # loops in assemble and error_norms dominate, the solve is <10%
    "square-balanced": {
        "commands": [["study", "--domain", "square", "--eps", "1e-3", "1e-4",
                      "--pmax", "4", "--norm", "balanced", "--layers", "balanced",
                      "--out", "{out}"]],
        "layers": _STUDY_LAYERS + ["fem.error_norms"],
        "ref_solves": 0,
    },
    # the only reference-mode path: field_difference_norms point search and
    # the p=6 reference solve.  pmax stops at 4 so that five or more
    # repetitions fit in a run (pmax 5 takes twice as long)
    "slit-reference": {
        "commands": [["study", "--domain", "slit", "--eps", "1e-2", "--pmax", "4",
                      "--mode", "reference", "--out", "{out}"]],
        "layers": _STUDY_LAYERS + ["study.reference_solution", "study.field_difference_norms"],
        "ref_solves": 1,
    },
    # 24 meshes: validate_mesh and meshio dumps, never fem, so it is the
    # no-change control for every fem change.  L stops at 8 so that five or
    # more repetitions fit in a run (L=9 and 10 double it).
    "mesh-sweep": {
        "commands": [["mesh", "--domain", d, "-L", str(L), "--out", "{out}"]
                     for d in ("square", "lshape", "slit") for L in range(1, 9)],
        "layers": ["layouts.builtin_layout", "macro.build_geo_bl_mesh", "macro.validate_mesh",
                   "meshcheck.hanging_nodes", "meshio.write_mesh_svg",
                   "meshio.write_mesh_text"],
        "ref_solves": 0,
    },
}

MIN_REPS = 3  # so the median discards one repetition hit by a burst
# The box's speed switches between states up to ~1.6x apart every few
# seconds with the load of other tenants, for hpbl and for any fixed job
# alike.  wall_s is reported in reference seconds: each child times
# bench/calibrate.py's fixed job right after its commands, and wall_s is
# CAL_REF_S times the median over repetitions of the wall time over that
# repetition's own calibration time.  CAL_REF_S is the job's typical time
# on a 2-core Xeon box (Python 3.11, numpy 2.4, scipy 1.17), so there
# reference seconds read close to seconds.  The raw medians are printed too.
CAL_REF_S = 0.5
ERROR_RTOL = 1e-6  # CG and direct solves agree to ~2e-10

# per-layer metric name -> (layer, field); "s" is self time
LAYER_METRICS = {
    "fem.solve.s": ("fem.solve", "s"),
    "fem.solve.iters": ("fem.solve", "iters"),
    "fem.solve.relres_max": ("fem.solve", "relres_max"),
    "fem.cg.matvec_flops": ("fem.solve", "matvec_flops"),
    "fem.assemble.s": ("fem.assemble", "s"),
    "fem.DofMap.s": ("fem.DofMap", "s"),
    "fem.nnz": ("fem.assemble", "nnz"),
    "fem.ndofs_free": ("fem.DofMap", "ndofs_free"),
    "fem.error_norms.s": ("fem.error_norms", "s"),
    "study.field_difference_norms.s": ("study.field_difference_norms", "s"),
    "study.reference_solution.s": ("study.reference_solution", "s"),
    "study.export.s": ("study.export", "s"),
    "layouts.builtin_layout.s": ("layouts.builtin_layout", "s"),
    "macro.build_geo_bl_mesh.s": ("macro.build_geo_bl_mesh", "s"),
    "macro.elements": ("macro.build_geo_bl_mesh", "elements"),
    "macro.validate_mesh.s": ("macro.validate_mesh", "s"),
    "meshcheck.hanging_nodes.s": ("meshcheck.hanging_nodes", "s"),
    "meshio.write_mesh_svg.s": ("meshio.write_mesh_svg", "s"),
    "meshio.write_mesh_text.s": ("meshio.write_mesh_text", "s"),
}
# computed from sizes, not measured
COMPUTED = {"fem.cg.matvec_flops", "meshio.bytes"}
EXACT_COUNTS = ("macro.elements", "fem.ndofs_free", "fem.nnz", "fem.solve.iters",
                "fem.cg.matvec_flops", "study.reference_solution.solves", "meshio.bytes")


class SetupFailed(RuntimeError):
    """The program under test could not be imported: no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env.pop("PYTHONPATH", None)  # the child imports hpbl from ROOT/src only
    return env


def _spawn(argv: list[str], cwd: str, timeout: float) -> tuple[dict, float]:
    """Run one child interpreter; returns (its last output line as JSON, spawn time)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=cwd, env=child_env(),
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"crash": f"timed out after {timeout:.0f} s"}, t_spawn
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"exit {proc.returncode}: {err.strip()[-2000:]}"}, t_spawn
    return json.loads(lines[-1]), t_spawn


def run_child(spec: dict, timeout: float) -> dict:
    """One repetition; its set-up runs from spawn to the end of the hpbl import."""
    res, t_spawn = _spawn([str(CHILD), json.dumps(spec)], spec["work_dir"], timeout)
    if "crash" not in res:
        res["setup_s"] = res["t_import"] - t_spawn
    return res


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def code_version() -> dict:
    """The git commit of ROOT, or a digest of src/ when ROOT is not a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return {"git_commit": proc.stdout.strip()}
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"src_sha256": source_digest()}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "blas_threads": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **code_version(),
        "seed": seed,
    }


def check_rep(res: dict, workload: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one repetition.

    An operation is one (eps, p) cell of a study or one mesh of the sweep.
    It fails on a nonzero exit code, an exception, or output that differs
    from the recorded one.
    """
    ops = expected["ops_per_rep"]
    if "crash" in res:
        return ops, ops, [f"repetition crashed: {res['crash']}"]
    if res["ref_solves"] != workload["ref_solves"]:
        return ops, ops, [f"reference solves {res['ref_solves']} != "
                          f"{workload['ref_solves']} (a cached reference would fake a gain)"]
    failed, msgs = 0, []
    want_cells = {(e, p): (n, err) for e, p, n, err in expected.get("cells", [])}
    want_b = {float(e): b for e, b in expected.get("b", {}).items()}
    want_meshes = {(d, L): want for d, L, want in expected.get("meshes", [])}
    for rec in res["commands"]:
        argv = rec["argv"]
        if argv[0] == "study":  # each workload has at most one study command
            if rec["error"] or rec["exit"] != 0:
                failed += len(want_cells)
                msgs.append(f"study exit {rec['exit']}: {rec['error']}")
                continue
            got = {(e, p): (n, err) for e, p, n, err in rec["cells"]}
            got_b = {float(e): b for e, b in rec["b"].items()}
            bad = set()
            for key, (n, err) in want_cells.items():
                g = got.get(key)
                if g is None or g[0] != n or not math.isclose(g[1], err, rel_tol=ERROR_RTOL):
                    bad.add(key)
                    msgs.append(f"cell eps={key[0]:g} p={key[1]}: got {g}, want {(n, err)}")
            # a wrong fitted rate fails every cell of its eps
            for e, b in want_b.items():
                if not math.isclose(got_b.get(e, math.nan), b, rel_tol=ERROR_RTOL):
                    bad.update(k for k in want_cells if k[0] == e)
                    msgs.append(f"rate b eps={e:g}: got {got_b.get(e)}, want {b}")
            failed += len(bad)
        else:
            key = (argv[argv.index("--domain") + 1], int(argv[argv.index("-L") + 1]))
            want = want_meshes[key]
            got = {"exit": rec["exit"], **{k: rec.get(k) for k in ("elements", "nodes")}}
            if rec["error"] or got != want:
                failed += 1
                msgs.append(f"mesh {key}: got {got} {rec['error'] or ''}, want {want}")
    return ops, failed, msgs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def layer_values(res: dict) -> dict:
    """Per-layer metric values of one traced repetition (0 where a layer did not run)."""
    layers = res["layers"]
    out = {}
    for metric, (layer, field) in LAYER_METRICS.items():
        info = layers.get(layer, {"self_s": 0.0, "counts": {}})
        out[metric] = info["self_s"] if field == "s" else info["counts"].get(field, 0)
    out["study.reference_solution.solves"] = res["ref_solves"]
    out["meshio.bytes"] = sum(layers.get(l, {"counts": {}})["counts"].get("bytes", 0)
                              for l in ("meshio.write_mesh_svg", "meshio.write_mesh_text"))
    out["trace.unattributed_s"] = res["unattributed_s"]
    return out


def run(name: str, workload: dict, expected: dict, seed: int, seconds: float,
        trace: bool, work_dir: str, log=print) -> dict:
    """Run one benchmark run of a workload; returns the result object."""
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = 170.0  # a run must end within 180 s, whatever --seconds says
    spec = {"src": str(ROOT / "src"), "work_dir": work_dir, "commands": workload["commands"]}

    def elapsed():
        return time.monotonic() - start

    # warm-up, unmeasured: imports hpbl and writes the bytecode caches
    if "crash" in (res := run_child({**spec, "commands": [], "trace": False}, timeout=60)):
        raise SetupFailed(res["crash"])
    reps = {False: [], True: []}
    attempted = failed = 0
    problems: list[str] = []
    # A round is one repetition, or an untraced and a traced one in an
    # order drawn from the seed.  A round starts while at least half of it
    # fits in --seconds, so runs average --seconds whatever the rep length.
    round_time = None
    for rounds in itertools.count():
        if rounds >= (1 if trace else MIN_REPS) and elapsed() + round_time / 2 > seconds:
            break
        if rounds >= 1 and elapsed() + round_time > deadline:
            break
        kinds = [False, True] if trace else [False]
        rng.shuffle(kinds)
        t0 = time.monotonic()
        for traced in kinds:
            res = run_child({**spec, "trace": traced}, timeout=max(deadline - elapsed(), 1.0))
            a, f, msgs = check_rep(res, workload, expected)
            attempted += a
            failed += f
            problems += msgs
            if "crash" not in res:
                reps[traced].append(res)
        round_time = time.monotonic() - t0

    correct = failed == 0
    for msg in problems[:20]:
        log(f"FAIL {msg}")
    plain = reps[False]
    metrics = {}
    if plain:
        cal = [r["cal_s"] for r in plain]
        log(f"calibration job median {statistics.median(cal):.4f} s (n={len(cal)}), "
            f"reference {CAL_REF_S} s")
    if plain and not trace:
        for key, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
            vals = [r[key] for r in plain]
            q1, med, q3 = quartiles(vals)
            if key == "wall_s":  # each repetition over its own calibration time
                value = CAL_REF_S * statistics.median(r["wall_s"] / r["cal_s"] for r in plain)
            else:
                value = med
            metrics[key] = {"value": value, "unit": unit}
            log(f"{key:12s} {value:.4f} {unit} | raw median {med:.4f}  q1 {q1:.4f}  "
                f"q3 {q3:.4f}  min {min(vals):.4f}  (n={len(vals)})")
    log(f"failed_frac  {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    for e, b in sorted(expected.get("b", {}).items(), key=lambda kv: -float(kv[0])):
        got = [r["commands"][0].get("b", {}).get(e) for r in plain]
        log(f"rate b eps={e}: {got[0] if got else None!r} (recorded {b:.4f})")

    traced = reps[True]
    if trace and traced and plain:
        per_rep = [layer_values(r) for r in traced]
        for metric in EXACT_COUNTS:
            seen = {v[metric] for v in per_rep}
            if len(seen) > 1:
                correct = False
                log(f"FAIL {metric} differs between repetitions: {sorted(seen)}")
        for layer in workload["layers"]:
            if any(r["layers"].get(layer, {}).get("spans", 0) == 0 for r in traced):
                correct = False
                log(f"FAIL layer {layer} recorded no spans on {name}")
        wall_plain = statistics.median(r["wall_s"] for r in plain)
        wall_traced = statistics.median(r["wall_s"] for r in traced)
        for metric, unit in per_layer_units().items():
            if metric == "calib_s":
                value = statistics.median(r["cal_s"] for r in plain + traced)
            elif metric == "setup.import_s":
                value = statistics.median(r["setup_s"] for r in plain + traced)
            elif metric == "trace.overhead_s":
                value = wall_traced - wall_plain
            elif metric in EXACT_COUNTS:  # equal in every repetition, checked above
                value = per_rep[0][metric]
            else:
                value = statistics.median(v[metric] for v in per_rep)
            metrics[metric] = {"value": value, "unit": unit}
            tag = " (computed)" if metric in COMPUTED else ""
            log(f"{metric:34s} {value:.6g} {unit}{tag}")
        log(f"wall_s median untraced {wall_plain:.4f} s (n={len(plain)}), "
            f"traced {wall_traced:.4f} s (n={len(traced)})")
    if not plain or (trace and not traced):
        correct = False
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under ROOT/.bench_work for the CLI's output files."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            base.rmdir()


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hpbl" / "cli.py").is_file():
        print(f"error: no program under test at {ROOT / 'src' / 'hpbl'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    print(json.dumps({"environment": environment(args.seed)}))
    print(f"workload {args.workload}: {len(WORKLOADS[args.workload]['commands'])} "
          f"command(s), {expected['ops_per_rep']} operations per repetition, "
          f"{args.seconds:g} s, trace={args.trace}")
    try:
        with scratch_dir() as work_dir:
            result = run(args.workload, WORKLOADS[args.workload], expected, args.seed,
                         args.seconds, bool(args.trace), work_dir)
    except SetupFailed as exc:
        print(f"error: program under test failed to set up: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
