"""One benchmark repetition in a fresh interpreter.

Usage: python3 bench/child.py '<json spec>'

The spec names the source tree to import, the ``hpbl`` command lines to
run and whether to trace.  The child imports ``hpbl.cli``, stamps the
monotonic time at which the import ended, runs each command through
``hpbl.cli.main`` with its standard output captured, and then times the
fixed calibration job (calibrate.py).  It prints one JSON object with
the import stamp, wall time, peak memory, exit codes, parsed outputs,
trace summary and calibration time.

Module-level caches (``study._REF_CACHE``, ``_DOMAIN_CACHE`` and the
``lru_cache`` basis tables) start empty in every repetition, as they do
for a user who runs the command line once.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import resource
import shutil
import sys
import tempfile
import time
import traceback

import calibrate

# (metric prefix, home module, attribute path).  Every loaded hpbl module
# that holds the same function object under that name is patched too,
# because study.py and cli.py import these functions by name.
LAYERS = (
    ("fem.assemble", "hpbl.fem", "assemble"),
    ("fem.DofMap", "hpbl.fem", "DofMap.__init__"),
    ("fem.solve", "hpbl.fem", "LinearSystem.solve"),
    ("fem.error_norms", "hpbl.fem", "error_norms"),
    ("study.reference_solution", "hpbl.study", "reference_solution"),
    ("study.field_difference_norms", "hpbl.study", "field_difference_norms"),
    ("study.export", "hpbl.study", "export"),
    ("layouts.builtin_layout", "hpbl.layouts", "builtin_layout"),
    ("macro.build_geo_bl_mesh", "hpbl.macro", "build_geo_bl_mesh"),
    ("macro.validate_mesh", "hpbl.macro", "validate_mesh"),
    ("meshcheck.hanging_nodes", "hpbl.meshcheck", "hanging_nodes"),
    ("meshio.write_mesh_svg", "hpbl.meshio", "write_mesh_svg"),
    ("meshio.write_mesh_text", "hpbl.meshio", "write_mesh_text"),
)

# Layers wrapped in every repetition, traced or not: they carry the
# reference-solve count that the cache-honesty check needs, and they are
# entered a few dozen times per repetition, so their cost is negligible.
CACHE_LAYERS = ("study.reference_solution", "fem.solve")


def _solve_counts(args, kwargs, result):
    _, stats = result
    iters = int(stats["iterations"])
    return {
        "iters": iters,
        "relres": float(stats["relres"]),
        # computed, not measured: one CSR matvec per CG iteration
        "matvec_flops": 2 * int(args[0].matrix.nnz) * iters,
    }


def _written_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


COUNTERS = {
    "fem.assemble": lambda a, k, r: {"nnz": int(r.matrix.nnz)},
    "fem.DofMap": lambda a, k, r: {"ndofs_free": int(a[0].nfree)},
    "fem.solve": _solve_counts,
    "macro.build_geo_bl_mesh": lambda a, k, r: {"elements": len(r.elements)},
    "meshio.write_mesh_svg": _written_bytes,
    "meshio.write_mesh_text": _written_bytes,
}


class Tracer:
    """In-memory spans with parent ids, recorded by wrappers around layer calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "t0": time.perf_counter(),
                "t1": None,
                "counts": {},
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, names):
        """Patch each named layer at its home and at every lookup site."""
        for name, home, attr in LAYERS:
            if name not in names:
                continue
            owner = sys.modules[home]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)  # AttributeError names a renamed layer
            wrapped = self.wrap(name, original, COUNTERS.get(name))
            setattr(owner, leaf, wrapped)
            if path:
                continue  # methods are looked up through their class
            for modname, mod in list(sys.modules.items()):
                if modname.startswith("hpbl") and getattr(mod, leaf, None) is original:
                    setattr(mod, leaf, wrapped)

    def summary(self) -> dict:
        """Per-layer span count, total self time and summed counts."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["t1"] - s["t0"]
        out: dict = {}
        for s in self.spans:
            layer = out.setdefault(s["name"], {"spans": 0, "self_s": 0.0, "counts": {}})
            layer["spans"] += 1
            layer["self_s"] += (s["t1"] - s["t0"]) - child_time[s["id"]]
            for key, val in s["counts"].items():
                if key == "relres":
                    layer["counts"]["relres_max"] = max(layer["counts"].get("relres_max", 0.0), val)
                else:
                    layer["counts"][key] = layer["counts"].get(key, 0) + val
        return out

    def top_level_s(self) -> float:
        return sum(s["t1"] - s["t0"] for s in self.spans if s["parent"] is None)

    def reference_solves(self) -> int:
        """fem.solve spans nested (at any depth) inside study.reference_solution."""
        n = 0
        for s in self.spans:
            if s["name"] != "fem.solve":
                continue
            p = s["parent"]
            while p is not None and self.spans[p]["name"] != "study.reference_solution":
                p = self.spans[p]["parent"]
            n += p is not None
        return n


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _study_outputs(out_dir):
    cells = [
        [float(r["eps"]), int(r["p"]), int(r["N"]), float(r["error"])]
        for r in _read_csv(os.path.join(out_dir, "results.csv"))
    ]
    rates = {r["eps"]: float(r["b"]) for r in _read_csv(os.path.join(out_dir, "rates.csv"))}
    return {"cells": cells, "b": rates}


_MESH_LINE = re.compile(r"^elements=(\d+) nodes=(\d+)$", re.M)


def _mesh_outputs(stdout):
    m = _MESH_LINE.search(stdout)
    return {"elements": int(m.group(1)), "nodes": int(m.group(2))} if m else {}


def run_commands(spec, tracer, cli_main):
    """Run each command line; returns (wall seconds, per-command records)."""
    wall = 0.0
    records = []
    for argv_t in spec["commands"]:
        out_dir = tempfile.mkdtemp(dir=spec["work_dir"])
        argv = [a.replace("{out}", out_dir) for a in argv_t]
        buf = io.StringIO()
        rec = {"argv": argv_t, "exit": None, "error": None}
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rec["exit"] = cli_main(argv)
        except Exception:  # a crashing command is a failed operation, not a crashed run
            rec["error"] = traceback.format_exc(limit=3)
        wall += time.perf_counter() - t0
        if rec["error"] is None:
            try:
                if argv[0] == "study":
                    rec.update(_study_outputs(out_dir))
                else:
                    rec.update(_mesh_outputs(buf.getvalue()))
            except (OSError, KeyError, ValueError) as exc:
                rec["error"] = f"unreadable output: {exc!r}"
        shutil.rmtree(out_dir, ignore_errors=True)
        records.append(rec)
    return wall, records


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import hpbl.cli

    t_import = time.monotonic()
    src_file = os.path.realpath(hpbl.cli.__file__)
    if not src_file.startswith(os.path.realpath(spec["src"]) + os.sep):
        raise RuntimeError(f"imported hpbl from {src_file}, not from {spec['src']}")

    tracer = Tracer()
    tracer.install(set(l[0] for l in LAYERS) if spec["trace"] else CACHE_LAYERS)
    wall, records = run_commands(spec, tracer, hpbl.cli.main)
    result = {
        "t_import": t_import,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": records,
        "ref_solves": tracer.reference_solves(),
    }
    if spec["trace"]:
        result["layers"] = tracer.summary()
        result["unattributed_s"] = wall - tracer.top_level_s()
    # after the peak memory is read, so that it cannot change it
    result["cal_s"] = calibrate.seconds()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
