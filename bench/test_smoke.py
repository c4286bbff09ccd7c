"""Smoke tests of the benchmark driver at tiny sizes.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402

TINY = {
    "commands": [
        ["study", "--domain", "square", "--eps", "1e-2", "--pmax", "3", "--out", "{out}"],
        ["mesh", "--domain", "square", "-L", "1", "--out", "{out}"],
    ],
    "layers": ["fem.solve", "fem.assemble", "fem.DofMap", "fem.error_norms",
               "macro.validate_mesh", "meshio.write_mesh_svg"],
    "ref_solves": 0,
}


def test_self_time_excludes_child_spans():
    tr = child.Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.05))
    outer = tr.wrap("outer", lambda: (time.sleep(0.02), inner()))
    outer()
    assert [s["parent"] for s in tr.spans] == [None, 0]
    summary = tr.summary()
    assert summary["inner"]["spans"] == summary["outer"]["spans"] == 1
    assert 0.045 <= summary["inner"]["self_s"] < 0.09
    assert 0.015 <= summary["outer"]["self_s"] < 0.045


@pytest.fixture
def restore_hpbl():
    import hpbl.cli  # noqa: F401  (loads every module a layer lives in)
    import hpbl.fem

    modules = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("hpbl")}
    methods = [(cls, attr, vars(cls)[attr]) for cls, attr in
               ((hpbl.fem.LinearSystem, "solve"), (hpbl.fem.DofMap, "__init__"))]
    yield
    for name, saved in modules.items():
        vars(sys.modules[name]).update(saved)
    for cls, attr, fn in methods:
        setattr(cls, attr, fn)


def test_layers_patched_where_they_are_looked_up(restore_hpbl):
    import hpbl.cli
    import hpbl.fem
    import hpbl.study

    original = hpbl.fem.assemble
    tr = child.Tracer()
    tr.install({name for name, _, _ in child.LAYERS})
    for mod in (hpbl.fem, hpbl.study, hpbl.cli):
        assert mod.assemble.__wrapped__ is original
    assert hpbl.cli.write_mesh_svg.__wrapped__ is hpbl.meshio.write_mesh_svg.__wrapped__
    assert hpbl.macro.hanging_nodes.__wrapped__ is hpbl.meshcheck.hanging_nodes.__wrapped__


def test_tiny_run_is_correct_then_catches_a_wrong_output(tmp_path):
    expected = record.record("tiny", TINY, str(tmp_path))
    assert expected["ops_per_rep"] == 3 + 1
    res = run.run("tiny", TINY, expected, seed=0, seconds=0, trace=True,
                  work_dir=str(tmp_path), log=lambda *_: None)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == set(run.per_layer_units())
    assert res["metrics"]["macro.elements"]["value"] > 0
    assert res["metrics"]["meshio.bytes"]["value"] > 0

    expected["cells"][1][3] *= 1.0 + 1e-5
    res = run.run("tiny", TINY, expected, seed=0, seconds=0, trace=False,
                  work_dir=str(tmp_path), log=lambda *_: None)
    assert not res["correct"]
    assert res["failed"] == run.MIN_REPS  # one bad cell per repetition
    assert set(res["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_nan_outputs_fail():
    expected = {"ops_per_rep": 3, "b": {"0.01": 1.2},
                "cells": [[0.01, 1, 9, 0.3], [0.01, 2, 121, 0.04], [0.01, 3, 529, 0.003]]}

    def rep(cells, b):
        return {"ref_solves": 0, "commands": [{"argv": ["study"], "exit": 0, "error": None,
                                               "cells": cells, "b": {"0.01": b}}]}

    cells = [list(c) for c in expected["cells"]]
    assert run.check_rep(rep(cells, 1.2), TINY, expected)[:2] == (3, 0)
    cells[0][3] = float("nan")  # p=1 is not in the fit, so b can stay right
    assert run.check_rep(rep(cells, 1.2), TINY, expected)[:2] == (3, 1)
    cells[0][3] = expected["cells"][0][3]
    assert run.check_rep(rep(cells, float("nan")), TINY, expected)[:2] == (3, 3)


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "square-p", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
