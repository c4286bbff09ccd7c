import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hpbl
from hpbl import cli
from hpbl.study import ExperimentConfig


def test_mesh_command(tmp_path, capsys):
    rc = cli.main(["mesh", "--domain", "square", "--sigma", "0.25", "-L", "2",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "elements=" in out
    assert (tmp_path / "mesh_square.svg").exists()
    assert (tmp_path / "mesh_square.txt").exists()


def test_mesh_command_rejects_bad_sigma(capsys):
    rc = cli.main(["mesh", "--domain", "square", "--sigma", "1.5"])
    assert rc == 2


def test_mesh_command_rejects_layers_past_double_precision(capsys):
    rc = cli.main(["mesh", "--domain", "square", "--sigma", "0.25", "-L", "26"])
    assert rc == 2
    assert "sigma^n = 0.25^26 is below 2^-50" in capsys.readouterr().err


def test_solve_rejects_layers_past_double_precision(capsys):
    # the balanced rule at eps=1e-8 asks for L = n = 27 at sigma=0.25
    rc = cli.main(["solve", "--domain", "square", "--eps", "1e-8", "--layers", "balanced",
                   "-p", "2"])
    assert rc == 2
    assert "eps=1e-08 at p=2: sigma^n = 0.25^27 is below 2^-50" in capsys.readouterr().err


def test_solve_command(capsys):
    rc = cli.main(["solve", "--domain", "square", "--eps", "0.01", "-p", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "energy" in out


@pytest.mark.parametrize("source", ["flags", "config"])
def test_solve_rejects_several_eps(tmp_path, capsys, source):
    if source == "flags":
        args = ["--eps", "1e-2", "1e-3"]
    else:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"eps": [1e-2, 1e-3]}))
        args = ["--config", str(cfgfile)]
    rc = cli.main(["solve", "--domain", "square", "-p", "2", *args])
    assert rc == 2
    captured = capsys.readouterr()
    assert "one eps" in captured.err and "got 2" in captured.err
    assert "eps=" not in captured.out


def test_solve_reference_mode_reports_errors(capsys):
    rc = cli.main(["solve", "--domain", "lshape", "--eps", "1e-2", "-p", "2",
                   "--mode", "reference"])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("energy")]
    assert len(line) == 1 and "error =" in line[0]
    err = float(line[0].split("=")[1])
    assert math.isfinite(err) and err > 0.0


@pytest.mark.parametrize("command", [["solve", "-p", "2"], ["study", "--pmax", "3"]],
                         ids=["solve", "study"])
def test_solve_reports_solver_failure(monkeypatch, capsys, command):
    import hpbl.fem

    def boom(*args, **kwargs):
        raise RuntimeError("no convergence")

    monkeypatch.setattr(hpbl.fem, "solve_cg", boom)
    rc = cli.main([*command, "--domain", "square", "--eps", "0.01"])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--pmax", "5"], ["--norm", "l2"]])
def test_solve_rejects_study_only_flags(flag, capsys):
    # solve runs one degree (-p) and prints every norm
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--domain", "square", "--eps", "1e-2", "-p", "2", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_solve_rejects_manufactured_mode_off_the_square(capsys):
    rc = cli.main(["solve", "--domain", "lshape", "--eps", "1e-3", "-p", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "manufactured" in err and "lshape" in err and "--mode reference" in err


def test_study_command_with_config(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"domain": "square", "eps": [0.1], "p_max": 3}))
    rc = cli.main(["study", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                   "--zero-timings"])
    assert rc == 0
    assert (tmp_path / "o" / "results.csv").exists()
    # flag overrides win over the file
    rc = cli.main(["study", "--config", str(cfgfile), "--pmax", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "b=" in out
    # p_max=4 fits over p=2..4, i.e. three points; the file alone gives two
    assert "over 3 points" in out


@pytest.mark.parametrize("command", ["solve", "study"])
def test_every_flag_stores_into_a_config_field(command):
    # _config_from copies flags into ExperimentConfig by dest, so a dest that
    # misses its field would be dropped without a word
    dests = set(vars(cli.build_parser().parse_args([command]))) - {"command", "func"}
    fields = set(ExperimentConfig.__dataclass_fields__)
    assert dests <= fields | {"config", "p", "out", "zero_timings"}


# every field a flag can set: the value in the file and the flag overriding it
_FILE = {"domain": "square", "eps": [0.01], "sigma": 0.25, "mode": "reference", "layers": "p",
         "p_max": 4, "norm": "energy"}
_FLAGS = {"domain": (["--domain", "lshape"], "lshape"), "eps": (["--eps", "1e-3"], (1e-3,)),
          "sigma": (["--sigma", "0.3"], 0.3), "mode": (["--mode", "manufactured"], "manufactured"),
          "layers": (["--layers", "corner-only"], "corner-only"), "p_max": (["--pmax", "5"], 5),
          "norm": (["--norm", "l2"], "l2")}


@pytest.mark.parametrize("command, field", [
    (command, field) for command in ("solve", "study") for field in _FLAGS
    if command == "study" or field not in ("p_max", "norm")  # solve has -p and every norm
])
def test_flag_overrides_its_config_file_field(tmp_path, command, field):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(_FILE))
    flag, value = _FLAGS[field]
    cfg = cli._config_from(cli.build_parser().parse_args([command, "--config", str(cfgfile),
                                                          *flag]))
    want = {**_FILE, "eps": tuple(_FILE["eps"]), field: value}
    if command == "solve":
        want["p_min"] = want["p_max"] = 3  # -p, whose default is 3
    assert {k: getattr(cfg, k) for k in want} == want


def test_an_empty_flag_value_reaches_validation(capsys):
    rc = cli.main(["study", "--domain", "", "--eps", "1e-2"])
    assert rc == 2
    assert "domain ''" in capsys.readouterr().err


def test_study_rejects_unknown_config_keys(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"domain": "square", "epsilon": [0.1]}))
    rc = cli.main(["study", "--config", str(cfgfile)])
    assert rc == 2


@pytest.mark.parametrize("source", ["flag", "file"])
def test_study_with_a_repeated_eps_exits_2_before_solving(monkeypatch, tmp_path, capsys, source):
    def no_run(cfg):
        raise AssertionError("the study ran before its repeated eps was rejected")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    if source == "flag":
        rc = cli.main(["study", "--domain", "square", "--eps", "1e-2", "1e-3", "0.01"])
    else:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"domain": "square", "eps": [1e-2, 1e-3, 0.01]}))
        rc = cli.main(["study", "--config", str(cfgfile)])
    assert rc == 2
    assert "eps 0.01 is given twice" in capsys.readouterr().err


@pytest.mark.parametrize("pmax", ["1", "2"])
def test_study_with_fewer_than_3_degrees_exits_2_before_solving(monkeypatch, capsys, pmax):
    def no_run(cfg):
        raise AssertionError("the study ran before its degree range was rejected")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    rc = cli.main(["study", "--domain", "square", "--eps", "1e-2", "--pmax", pmax])
    assert rc == 2
    err = capsys.readouterr().err
    assert "p_min=1" in err and f"p_max={pmax}" in err


@pytest.mark.parametrize("command, flag", [("mesh", "--domain"), ("study", "--config"),
                                           ("fit", "--csv")])
def test_a_directory_for_an_input_file_exits_2(tmp_path, capsys, command, flag):
    rc = cli.main([command, flag, str(tmp_path)])
    assert rc == 2
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg, named",
    [
        ("study", [0.01], "JSON object"),
        ("study", {"eps": 0.01}, "eps"),
        ("study", {"eps": ["0.01"]}, "eps"),
        ("study", {"eps": []}, "eps"),
        ("study", {"eps": [float("nan")]}, "eps"),
        ("study", {"p_max": "3"}, "p_max"),
        ("study", {"p_min": 1.0}, "p_min"),
        ("study", {"p_max": True}, "p_max"),
        ("study", {"c1": None}, "c1"),
        ("study", {"c1": float("nan")}, "c1"),
        ("study", {"domain": ["square"], "mode": "reference"}, "domain"),
        # keys that name no ExperimentConfig field, rejected as unknown
        ("study", {"allow_large_eps": 1}, "allow_large_eps"),
        ("study", {"solver": "lu"}, "solver"),
        ("solve", {"eps": [0.01], "sigma": "0.3"}, "sigma"),
    ],
)
def test_config_values_of_the_wrong_kind_exit_2(tmp_path, capsys, monkeypatch, command, cfg, named):
    import hpbl.study

    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before the config was rejected")

    monkeypatch.setattr(hpbl.study, "build_geo_bl_mesh", no_mesh)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(cfgfile)])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_fit_command(tmp_path, capsys):
    csv = tmp_path / "results.csv"
    csv.write_text(
        "domain,eps,sigma,p,N,error,iters,seconds\n"
        "square,0.1,0.25,1,9,1.0,3,0.0\n"
        "square,0.1,0.25,2,121,0.1,5,0.0\n"
        "square,0.1,0.25,3,529,0.01,7,0.0\n"
    )
    rc = cli.main(["fit", "--csv", str(csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "b=2.3026" in out


def test_fit_skips_blank_lines(tmp_path, capsys):
    csv = tmp_path / "results.csv"
    csv.write_text(
        "domain,eps,sigma,p,N,error,iters,seconds\n"
        "square,0.1,0.25,1,9,1.0,3,0.0\n"
        "\n"
        "square,0.1,0.25,2,121,0.1,5,0.0\n"
        "square,0.1,0.25,3,529,0.01,7,0.0\n"
        "\n"
    )
    rc = cli.main(["fit", "--csv", str(csv)])
    assert rc == 0
    assert "b=2.3026" in capsys.readouterr().out


def test_fit_reads_back_a_study(tmp_path, capsys):
    rc = cli.main(["study", "--domain", "square", "--eps", "1e-2", "--pmax", "3",
                   "--out", str(tmp_path), "--zero-timings"])
    assert rc == 0
    (b,) = [w for w in capsys.readouterr().out.split() if w.startswith("b=")]
    assert cli.main(["fit", "--csv", str(tmp_path / "results.csv")]) == 0
    assert f"domain=square eps=0.01: {b} " in capsys.readouterr().out


def test_fit_rejects_short_row(tmp_path, capsys):
    csv = tmp_path / "results.csv"
    csv.write_text(
        "domain,eps,sigma,p,N,error,iters,seconds\n"
        "square,0.1,0.25,1,9,1.0,3,0.0\n"
        "square,0.1,0.25,2,121\n"
    )
    rc = cli.main(["fit", "--csv", str(csv)])
    assert rc == 2
    assert f"{csv} line 3: expected 8 fields, got 5" in capsys.readouterr().err


def test_fit_rejects_a_repeated_row(tmp_path, capsys):
    # a second row for one (domain, eps, p), eps written another way
    csv = tmp_path / "results.csv"
    csv.write_text(
        "domain,eps,sigma,p,N,error,iters,seconds\n"
        "square,0.1,0.25,1,9,1.0,3,0.0\n"
        "square,0.1,0.25,2,121,0.1,5,0.0\n"
        "square,0.1,0.25,3,529,0.01,7,0.0\n"
        "square,1e-1,0.25,2,121,0.1,5,0.0\n"
    )
    rc = cli.main(["fit", "--csv", str(csv)])
    assert rc == 2
    assert f"{csv} line 5: a second row for domain square, eps 1e-1, p 2" in capsys.readouterr().err


def test_fit_rejects_malformed_header(tmp_path):
    csv = tmp_path / "results.csv"
    csv.write_text("p,error\n1,1.0\n")
    rc = cli.main(["fit", "--csv", str(csv)])
    assert rc == 2


# the unit square as a config-file layout of 2 x 2 quads
_SQUARE_2X2 = {
    "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
    "macro": {
        "nodes": [[0, 0], [0.5, 0], [1, 0], [0, 0.5], [0.5, 0.5], [1, 0.5],
                  [0, 1], [0.5, 1], [1, 1]],
        "quads": [[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]],
    },
}


# the square [0, 2]^2 as 2 x 2 quads, its boundary walk listing (1, 0) twice
_SQUARE_2X2_REPEATED = {
    "vertices": [[0, 0], [1, 0], [1, 0], [2, 0], [2, 2], [0, 2]],
    "macro": {"nodes": [[2 * x, 2 * y] for x, y in _SQUARE_2X2["macro"]["nodes"]],
              "quads": _SQUARE_2X2["macro"]["quads"]},
}


# the unit square, triangulated
_SQUARE_TRIANGLES = {"vertices": _SQUARE_2X2["vertices"],
                     "triangulation": {"points": _SQUARE_2X2["vertices"],
                                       "triangles": [[0, 1, 2], [0, 2, 3]]}}

# the L-shape of the built-in layout as a fan of 45-degree triangles about
# its re-entrant corner (0, 0), the second listed clockwise
_LSHAPE_FAN = {
    "vertices": [[0, 0], [1, 0], [1, 1], [-1, 1], [-1, -1], [0, -1]],
    "triangulation": {
        "points": [[0, 0], [1, 0], [1, 1], [-1, 1], [-1, -1], [0, -1], [0, 1], [-1, 0]],
        "triangles": [[0, 1, 2], [0, 6, 2], [0, 6, 3], [0, 3, 7], [0, 7, 4], [0, 4, 5]],
    },
}


def _one_quad(vertices, nodes):
    return {"vertices": vertices, "macro": {"nodes": nodes, "quads": [[0, 1, 2, 3]]}}


def test_custom_domain_config(tmp_path):
    path = tmp_path / "dom.json"
    path.write_text(json.dumps(_SQUARE_2X2))
    rc = cli.main(["mesh", "--domain", str(path), "-L", "1"])
    assert rc == 0


# malformed layout files and the text the error must name
_MALFORMED = {
    "no vertices": ({"macro": _SQUARE_2X2["macro"]}, '"vertices"'),
    "quad of 3 corners": ({**_SQUARE_2X2, "macro": {**_SQUARE_2X2["macro"], "quads": [
        [0, 1, 4, 3], [1, 2, 5], [3, 4, 7, 6], [4, 5, 8, 7]]}}, "quad 1"),
    "assignment past the last quad": ({**_SQUARE_2X2, "assignments": [{"quad": 7}]}, "quad 7"),
    "unknown kind": ({**_SQUARE_2X2, "assignments": [{"quad": 0, "kind": "bogus"}]}, "'bogus'"),
    "retired half kind": ({**_SQUARE_2X2, "assignments": [{"quad": 0, "kind": "corner_half"}]},
                          "'corner_half'"),
    "top-level list": ([_SQUARE_2X2], '"vertices"'),
    "macro without nodes": ({**_SQUARE_2X2, "macro": {"quads": _SQUARE_2X2["macro"]["quads"]}},
                            'section "macro" has no "nodes"'),
    "macro without quads": ({**_SQUARE_2X2, "macro": {"nodes": _SQUARE_2X2["macro"]["nodes"]}},
                            'section "macro" has no "quads"'),
    "triangulation without points": ({"vertices": _SQUARE_2X2["vertices"],
                                      "triangulation": {"triangles": [[0, 1, 2], [0, 2, 3]]}},
                                     'section "triangulation" has no "points"'),
    "triangulation without triangles": ({"vertices": _SQUARE_2X2["vertices"],
                                         "triangulation": {"points": _SQUARE_2X2["vertices"]}},
                                        'section "triangulation" has no "triangles"'),
    "assignment without quad": ({**_SQUARE_2X2, "assignments": [{"quad": 0}, {"kind": "trivial"}]},
                                'section "assignments" item 1 has no "quad"'),
    "zero-length edge": (_SQUARE_2X2_REPEATED, "polygon vertex 2 repeats vertex 1"),
    "triangle past the last point": (
        {**_SQUARE_TRIANGLES, "triangulation": {**_SQUARE_TRIANGLES["triangulation"],
                                                "triangles": [[0, 1, 2], [0, 2, 7]]}},
        "triangulation triangles [1] need 3 point indices below 4"),
    "triangle of 4 indices": (
        {**_SQUARE_TRIANGLES, "triangulation": {**_SQUARE_TRIANGLES["triangulation"],
                                                "triangles": [[0, 1, 2], [0, 2, 3, 1]]}},
        "triangulation triangles [1] need 3 point indices below 4"),
    # quads that assign_refinement_patterns rejects, one per message
    "quad on 4 boundary edges": (_one_quad(_SQUARE_2X2["vertices"], _SQUARE_2X2["vertices"]),
                                 "macro quad 0 has 4 boundary edges"),
    "quad on 3 boundary edges": ({"vertices": [[0, 0], [2, 0], [2, 1], [0, 1]], "macro": {
        "nodes": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]],
        "quads": [[0, 1, 4, 3], [1, 2, 5, 4]]}}, "macro quad 0 has 3 boundary edges"),
    "quad on 2 opposite boundary edges": (
        _one_quad([[0, 0], [2, 0], [2, 1], [0, 1]], [[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]]),
        "macro quad 0 touches the boundary along two opposite edges"),
    # within the boundary tolerance, 1e-13 outside the bottom edge
    "quad on 2 boundary edges off a vertex": (
        _one_quad(_SQUARE_2X2["vertices"], [[0.25, 0], [0.5, -1e-13], [0.75, 0], [0.5, 0.5]]),
        "macro quad 0 has two boundary edges whose common corner is not a polygon vertex"),
    "quad on a whole polygon edge": (
        _one_quad(_SQUARE_2X2["vertices"], [[0, 0], [1, 0], [0.75, 0.5], [0.25, 0.5]]),
        "macro quad 0 has one boundary edge with polygon vertices at both ends"),
    "quad on an edge and a corner": (
        _one_quad(_SQUARE_2X2["vertices"], [[0.25, 0], [0.75, 0], [1, 0.5], [0.5, 1]]),
        "macro quad 0 has a boundary edge plus extra boundary contact"),
    "quad at 4 isolated corners": (
        _one_quad(_SQUARE_2X2["vertices"], [[0.5, 0], [1, 0.5], [0.5, 1], [0, 0.5]]),
        "macro quad 0 touches the boundary at 4 isolated corners"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_layout_file_exits_2(tmp_path, capsys, case):
    cfg, named = _MALFORMED[case]
    path = tmp_path / "dom.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["mesh", "--domain", str(path)]) == 2
    assert named in capsys.readouterr().err


def _every_command_exits_2(tmp_path, capsys, cfg, named):
    path = tmp_path / "dom.json"
    path.write_text(json.dumps(cfg))
    solver_args = ["--mode", "reference", "--eps", "1e-2"]
    for command in (["mesh"], ["study", "--pmax", "3", *solver_args], ["solve", "-p", "2", *solver_args]):
        capsys.readouterr()
        assert cli.main([*command, "--domain", str(path)]) == 2
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["mixed_half", "corner_half", "corner_half_flip"])
def test_retired_half_kinds_fail_at_load(tmp_path, capsys, kind):
    # half-cell kinds fit no quad and are no pattern kind: every command names one at load
    _every_command_exits_2(tmp_path, capsys, {**_SQUARE_2X2, "assignments": [{"quad": 0, "kind": kind}]},
                           f"'{kind}'")


def test_zero_length_edge_fails_at_load(tmp_path, capsys):
    # a repeated boundary vertex once meshed and solved, with two angle-2pi
    # warnings; every command now names it at load
    _every_command_exits_2(tmp_path, capsys, _SQUARE_2X2_REPEATED,
                           "polygon vertex 2 repeats vertex 1: a zero-length edge")


@pytest.mark.parametrize("case", ["triangle past the last point", "triangle of 4 indices"])
def test_malformed_triangle_table_fails_at_load(tmp_path, capsys, case):
    # an index past the last point once ended in an IndexError traceback
    _every_command_exits_2(tmp_path, capsys, *_MALFORMED[case])


def test_corner_inside_a_triangle_edge_fails_at_load(tmp_path, capsys):
    # the re-entrant corner (0, 0) lies inside the edge from (-1, 0) to
    # (1, 0), so a sector there spans pi; the last two triangles are clockwise
    cfg = {"vertices": _LSHAPE_FAN["vertices"], "triangulation": {
        "points": [[0, 0], [1, 0], [1, 1], [-1, 1], [-1, -1], [0, -1], [-1, 0]],
        "triangles": [[6, 1, 2], [6, 2, 3], [0, 4, 6], [0, 5, 4]]}}
    _every_command_exits_2(tmp_path, capsys, cfg, "cannot satisfy the corner condition at vertex 0")


def test_triangulated_layout_runs_every_command(tmp_path):
    path = tmp_path / "dom.json"
    path.write_text(json.dumps(_LSHAPE_FAN))
    for command in (["mesh", "-L", "2"],
                    ["solve", "--mode", "reference", "--eps", "1e-2", "-p", "2"],
                    ["study", "--mode", "reference", "--eps", "1e-2", "--pmax", "3"]):
        assert cli.main([*command, "--domain", str(path)]) == 0, command


@pytest.mark.parametrize("override", [{"rotation": 2}, {"kind": "trivial"}])
def test_study_and_solve_refuse_an_invalid_layout(tmp_path, capsys, override):
    # a clean layout solves; one quad turned or left unrefined leaves
    # hanging nodes or exposed facets, which mesh reports and study and
    # solve must refuse rather than solve on
    args = ["--mode", "reference", "--eps", "1e-2"]
    path = tmp_path / "dom.json"
    path.write_text(json.dumps(_SQUARE_2X2))
    assert cli.main(["solve", "-p", "2", "--domain", str(path), *args]) == 0
    path.write_text(json.dumps({**_SQUARE_2X2, "assignments": [{"quad": 0, **override}]}))
    assert cli.main(["mesh", "--domain", str(path)]) == 2
    for command in (["study", "--pmax", "3"], ["solve", "-p", "2"]):
        capsys.readouterr()
        assert cli.main([*command, "--domain", str(path), *args]) == 2
        assert "invalid mesh of" in capsys.readouterr().err


_LAZY_IMPORTS_SCRIPT = """
import contextlib, io, json, sys

LAZY = ("scipy", "numpy.polynomial", "hpbl.stars")  # hpbl.stars: only a DofMap needs it

def lazy_modules():
    return sorted(m for m in sys.modules if any(m == k or m.startswith(k + ".") for k in LAZY))

out_dir, csv = sys.argv[1], sys.argv[2]
import hpbl.cli
seen = {"import": [0, lazy_modules()]}
with contextlib.redirect_stdout(io.StringIO()):
    rc = hpbl.cli.main(["mesh", "--domain", "lshape", "-L", "2", "--out", out_dir])
    seen["mesh"] = [rc, lazy_modules()]
    rc = hpbl.cli.main(["fit", "--csv", csv])
    seen["fit"] = [rc, lazy_modules()]
    try:
        hpbl.cli.main(["--help"])
    except SystemExit as exc:
        seen["help"] = [exc.code, lazy_modules()]
    rc = hpbl.cli.main(["solve", "-p", "2", "--eps", "1e-2"])
    seen["solve"] = [rc, lazy_modules()]
    rc = hpbl.cli.main(["study", "--pmax", "3", "--eps", "1e-2", "--out", out_dir])
    seen["study"] = [rc, lazy_modules()]
print(json.dumps(seen))
"""


def test_mesh_fit_and_help_load_no_scipy(tmp_path):
    csv = tmp_path / "results.csv"
    csv.write_text(
        "domain,eps,sigma,p,N,error,iters,seconds\n"
        "square,0.1,0.25,1,9,1.0,3,0.0\n"
        "square,0.1,0.25,2,121,0.1,5,0.0\n"
        "square,0.1,0.25,3,529,0.01,7,0.0\n"
    )
    src = str(Path(hpbl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORTS_SCRIPT, str(tmp_path / "out"), str(csv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert list(seen) == ["import", "mesh", "fit", "help", "solve", "study"]
    for step, (rc, modules) in seen.items():
        assert rc == 0, step
        assert modules == [] or step in ("solve", "study"), (step, modules)
    for step in ("solve", "study"):
        assert "hpbl.stars" in seen[step][1]  # with the first DofMap
        assert "numpy.polynomial" in seen[step][1]  # with its Gauss-Lobatto rules
        assert not [m for m in seen[step][1] if m.split(".")[0] == "scipy"], step  # numpy CG


_CACHE_SCRIPT = """
import contextlib, io, json, sys

from hpbl import cli, fem, gausslobatto

with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["study", "--domain", "square", "--eps", "1e-2", "--pmax", "4",
                   "--out", sys.argv[1]])
print(json.dumps([rc, fem._tables.cache_info(), gausslobatto.gauss_legendre_rule.cache_info()]))
"""


def test_study_builds_each_table_once(tmp_path):
    # a fresh process: p = 1..4 asks for q + 2 and q + 3 points per direction
    # on both shapes (16 tables, from the Gauss-Legendre rules m = 3..7),
    # and each of them is built exactly once however often it is read
    src = str(Path(hpbl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _CACHE_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, tables, rules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    (hits, misses, _, size), (rule_hits, rule_misses, _, rule_size) = tables, rules
    assert misses == size == 16 and hits > 0
    assert rule_misses == rule_size == 5 and rule_hits > 0
