import dataclasses
import json
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

import hpbl.layouts
import hpbl.macro
from hpbl import fem, study
from hpbl.fem import assemble, interpolate
from hpbl.macro import assign_refinement_patterns, build_geo_bl_mesh
from hpbl.meshio import mesh_svg
from hpbl.oracles import ManufacturedSolution
from hpbl.patches import PatchKind, PatchParams
from hpbl.study import (
    ConvergenceTable,
    ExperimentConfig,
    Row,
    export,
    field_difference_norms,
    fit_exponential,
    mesh_for,
    read_results,
    reference_solution,
    run_cell,
    run_experiment,
)

from helpers import field_difference_oracle


def _table(errors, ps=None):
    ps = ps or list(range(1, len(errors) + 1))
    rows = [Row(p=p, N=10 * p, error=e, iters=0, seconds=0.0) for p, e in zip(ps, errors)]
    return ConvergenceTable("square", 0.1, 0.25, "energy", "manufactured", rows)


def test_fit_geometric_sequence():
    fit = fit_exponential(_table([1.0, 0.1, 0.01]))
    assert fit.b == pytest.approx(math.log(10.0), abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.C == pytest.approx(10.0, rel=1e-9)


def test_fit_flat_sequence():
    fit = fit_exponential(_table([1.0, 1.0, 1.0]))
    assert fit.b == 0.0
    assert fit.r2 == 1.0


def test_fit_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_exponential(_table([1.0, 0.1, 0.0]))


def test_fit_skips_p1():
    # the p=1 row must not influence the fit
    a = fit_exponential(_table([1e9, 0.1, 0.01, 0.001]))
    b = fit_exponential(_table([1e-9, 0.1, 0.01, 0.001]))
    assert a.b == pytest.approx(b.b, abs=1e-12)
    assert a.b == pytest.approx(math.log(10.0), abs=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(eps=(2.0,)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(norm="sup").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(p_min=3, p_max=2).validate()
    with pytest.raises(ValueError, match="eps 0.01 is given twice"):
        ExperimentConfig(eps=[1e-2, 1e-3, 0.01]).validate()


def test_run_experiment_small():
    cfg = ExperimentConfig(domain="square", eps=(1e-2,), p_min=1, p_max=3)
    (table,) = run_experiment(cfg)
    assert [r.p for r in table.rows] == [1, 2, 3]
    ns = [r.N for r in table.rows]
    assert ns == sorted(ns)
    errs = [r.error for r in table.rows]
    assert errs[2] < errs[1] < errs[0]


@pytest.mark.parametrize("domain, layers, mode, p_max, builds", [
    ("square", "p", "manufactured", 3, 3),
    ("square", "corner-only", "manufactured", 3, 3),
    ("slit", "p", "reference", 2, 6),  # one mesh per cell and one per reference
])
def test_cells_sharing_a_mesh_match_one_eps_studies(monkeypatch, domain, layers, mode, p_max,
                                                    builds):
    # the eps values of one degree share its mesh and element data; every
    # row equals, bit for bit, the row of a study of that eps alone
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return build_geo_bl_mesh(*args, **kwargs)

    cfg = ExperimentConfig(domain=domain, eps=(1e-1, 1e-3), p_max=p_max, layers=layers, mode=mode)
    with monkeypatch.context() as m:
        m.setattr(study, "build_geo_bl_mesh", counting)
        both = run_experiment(cfg)
    assert len(built) == builds
    assert [t.eps for t in both] == list(cfg.eps)
    for table in both:
        (alone,) = run_experiment(dataclasses.replace(cfg, eps=(table.eps,)))
        assert [(r.p, r.N, r.error, r.iters) for r in table.rows] == \
            [(r.p, r.N, r.error, r.iters) for r in alone.rows]


def test_sharing_a_mesh_across_eps_holds_little_memory():
    # a group keeps one DofMap's element data and solves all its cells
    # before their norms; the traced peak of a two-eps study stays within
    # 10% of the larger one-eps study's
    def peak(cfg):
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cfg = ExperimentConfig(domain="square", eps=(1e-2, 1e-4), p_max=5)
    run_experiment(cfg)  # warm: basis tables and the layout
    both = peak(cfg)
    alone = max(peak(dataclasses.replace(cfg, eps=(eps,))) for eps in cfg.eps)
    assert both <= 1.1 * alone


def test_reference_is_deterministic():
    cfg = ExperimentConfig(domain="square", eps=(1e-1,), p_min=1, p_max=2,
                           mode="reference")
    a = reference_solution(cfg, 1e-1)
    b = reference_solution(cfg, 1e-1)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_config_file_layout_is_classified_once(tmp_path):
    # a config file without an "assignments" section is classified when it
    # is loaded, and every later mesh reuses the cached assignments
    nodes = [[x, y] for y in (0, 0.5, 1) for x in (0, 0.5, 1)]
    path = tmp_path / "dom.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "macro": {"nodes": nodes, "quads": [[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]]},
    }))
    cfg = ExperimentConfig(domain=str(path), eps=(0.1,))
    spy = mock.Mock(wraps=assign_refinement_patterns)
    with mock.patch.object(hpbl.layouts, "assign_refinement_patterns", spy), \
            mock.patch.object(hpbl.macro, "assign_refinement_patterns", spy):
        meshes = [mesh_for(cfg, p, 0.1) for p in (1, 2)]
    assert spy.call_count == 1
    assert [a.kind for a in meshes[1].assignments] == [a.kind for a in study.load_domain(str(path))[2]]


def test_rewritten_config_file_gets_new_layout_and_reference(tmp_path):
    def write(width):
        nodes = [[width * x, y] for y in (0, 0.5, 1) for x in (0, 0.5, 1)]
        path.write_text(json.dumps({
            "vertices": [[0, 0], [width, 0], [width, 1], [0, 1]],
            "macro": {"nodes": nodes,
                      "quads": [[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]]},
        }))

    path = tmp_path / "dom.json"
    cfg = ExperimentConfig(domain=str(path), eps=(0.1,), p_max=3, mode="reference")
    write(1.0)
    run_experiment(cfg)
    poly1 = study.load_domain(str(path))[0]
    ref1 = reference_solution(cfg, 0.1)
    write(2.0)  # same path, other geometry
    run_experiment(cfg)
    poly2 = study.load_domain(str(path))[0]
    ref2 = reference_solution(cfg, 0.1)
    assert poly1.area() == pytest.approx(1.0) and poly2.area() == pytest.approx(2.0)
    assert ref1.mesh.nodes[:, 0].max() == pytest.approx(1.0)
    assert ref2.mesh.nodes[:, 0].max() == pytest.approx(2.0)


def test_reference_dominates_balanced_meshes(monkeypatch):
    # balanced layers at eps=1e-4 give L=14 on every graded mesh; the
    # reference must be at least that refined.  The solve is stubbed out to
    # return the reference mesh.
    monkeypatch.setattr(study, "_solve_cell", lambda config, mesh, q, eps: (mesh, {}, None))
    cfg = ExperimentConfig(domain="square", eps=(1e-4,), p_max=3, layers="balanced",
                           mode="reference")
    ref_mesh = reference_solution(cfg, 1e-4)
    assert ref_mesh.params.L >= 14
    for p in range(cfg.p_min, cfg.p_max + 1):
        graded = mesh_for(cfg, p, 1e-4).params
        assert ref_mesh.params.L >= graded.L and ref_mesh.params.n >= graded.n


def test_coarser_reference_raises(monkeypatch):
    # a layer rule that gives the reference fewer layers than a graded mesh
    # stops the study with RuntimeError, also under python -O
    # (L, n) = (4, 4) at p = 1 falling to (0, 0) at the reference degree 5
    monkeypatch.setattr(study, "_layer_counts", lambda config, p, eps: (5 - p, 5 - p))
    cfg = ExperimentConfig(domain="square", eps=(1e-2,), p_max=3, mode="reference")
    with pytest.raises(RuntimeError, match="coarser than"):
        reference_solution(cfg, 1e-2)


def test_field_difference_vanishes_for_same_field():
    cfg = ExperimentConfig(domain="square", eps=(1e-1,), p_min=1, p_max=2)
    mesh = mesh_for(cfg, 2, 1e-1)
    ms = ManufacturedSolution(1e-1)
    fld, _ = assemble(mesh, 2, 1e-1, 1.0, ms.f).solve()
    d = field_difference_norms(fld, fld, 1e-1, 1.0)
    for v in d.values():
        assert v < 1e-12


def test_field_difference_of_linear_interpolants_vanishes():
    # the slit meshes at L=n=1 and L=n=6 are not nested: fine elements
    # straddle the coarse TENSOR diagonal
    cfg = ExperimentConfig(domain="slit", mode="reference")
    coarse = interpolate(mesh_for(cfg, 1, 1e-2), 1, lambda x, y: x + 2 * y)
    fine = interpolate(mesh_for(cfg, 6, 1e-2), 6, lambda x, y: x + 2 * y)
    d = field_difference_norms(fine, coarse, 1e-2, 1.0)
    for v in d.values():
        assert v < 1e-11


def test_field_difference_tracks_true_error():
    # |u_ref - u_p| in energy should be close to the true error of u_p,
    # provided both solve the same load (manufactured mode here)
    from hpbl.fem import error_norms

    cfg = ExperimentConfig(domain="square", eps=(1e-1,), p_min=1, p_max=2)
    eps = 1e-1
    ms = ManufacturedSolution(eps)
    ref = reference_solution(cfg, eps)
    mesh = mesh_for(cfg, 2, eps)
    fld, _ = assemble(mesh, 2, eps, 1.0, ms.f).solve()
    true = error_norms(fld, ms.value_grad, eps, 1.0)["energy"]
    approx = field_difference_norms(ref, fld, eps, 1.0)["energy"]
    assert approx == pytest.approx(true, rel=0.05)


@pytest.mark.parametrize("domain", ["slit", "lshape"])
def test_field_difference_matches_per_call_oracle(domain):
    # the reference's side is formed once and reused for p = 1..3; each
    # norm equals the per-call path's bit for bit
    cfg = ExperimentConfig(domain=domain, eps=(1e-2,), p_max=3, mode="reference")
    ref = reference_solution(cfg, 1e-2)
    for p in (1, 2, 3):
        fld, _, norms = run_cell(cfg, p, 1e-2, ref)
        assert norms == field_difference_oracle(ref, fld, 1e-2, 1.0)
    # another c forms another side; a callable c is evaluated at the points
    def c(x, y):
        return 1.0 + x * x

    assert field_difference_norms(ref, fld, 1e-2, c) == field_difference_oracle(ref, fld, 1e-2, c)
    # a diffusion field enters the energy norm's flux (the oracle forms it
    # as one matmul per point: the energy agrees to 1e-14, the rest bit for
    # bit); the side is formed again when only diffusion changes and kept
    # while (c, diffusion) repeats
    D = np.array([[2.0, 0.3], [0.3, 0.5]])

    def diffusion(p):
        return D * (2.0 + p[:, :1, None])

    for cc in (c, 1.0):
        field_difference_norms(ref, fld, 1e-2, cc)
        side = ref._fine
        got = field_difference_norms(ref, fld, 1e-2, cc, diffusion)
        assert ref._fine is not side
        want = field_difference_oracle(ref, fld, 1e-2, cc, diffusion)
        assert got["energy"] == pytest.approx(want["energy"], rel=1e-14, abs=0.0)
        assert all(got[k] == want[k] for k in ("l2", "h1", "balanced"))
        side = ref._fine
        assert field_difference_norms(ref, fld, 1e-2, cc, diffusion) == got
        assert ref._fine is side


@pytest.mark.parametrize("layers", ["p", "balanced", "corner-only"])
@pytest.mark.parametrize("domain", ["square", "lshape", "slit"])
def test_field_difference_matches_per_point_path(domain, layers):
    # located and tabulated once per pattern pair, the norms of a reference
    # minus graded fields equal those of every point located on its own,
    # bit for bit; random coefficients on the study's meshes, the square at
    # L = 0 (corner-only) with no rectangles among them
    rng = np.random.default_rng(7)
    cfg = ExperimentConfig(domain=domain, eps=(1e-2, 1e-3), p_max=3, mode="reference",
                           layers=layers)
    for eps in cfg.eps:
        dm = fem.DofMap(mesh_for(cfg, 5, eps), 5)
        ref = fem.DiscreteField(dm, rng.standard_normal(dm.ndofs))
        for p in (1, 2, 3):
            dm = fem.DofMap(mesh_for(cfg, p, eps), p)
            fld = fem.DiscreteField(dm, rng.standard_normal(dm.ndofs))
            assert field_difference_norms(ref, fld, eps, 1.0) == field_difference_oracle(
                ref, fld, eps, 1.0)


def test_field_difference_splits_quads_by_the_coarse_pattern():
    # a coarse mesh whose quads of one fine pattern carry two patterns (one
    # quad made trivial, same rotation): the pair, not the fine pattern
    # alone, decides whose points are located
    poly, macro = hpbl.layouts.builtin_layout("slit")
    fine_asn = assign_refinement_patterns(macro, poly)
    groups = {}
    for qid, a in enumerate(fine_asn):
        groups.setdefault((a.kind, a.flip, a.layers_from_L), []).append(qid)
    qid = next(qs[1] for key, qs in groups.items() if key[0] is not PatchKind.TRIVIAL and qs[1:])
    coarse_asn = list(fine_asn)
    coarse_asn[qid] = dataclasses.replace(fine_asn[qid], kind=PatchKind.TRIVIAL)
    rng = np.random.default_rng(3)
    fields = []
    for asn, (L, q) in ((fine_asn, (3, 4)), (coarse_asn, (2, 2))):
        mesh = build_geo_bl_mesh(macro, poly, PatchParams(sigma=0.25, L=L, n=L), asn)
        dm = fem.DofMap(mesh, q)
        fields.append(fem.DiscreteField(dm, rng.standard_normal(dm.ndofs)))
    ref, fld = fields
    want = field_difference_oracle(ref, fld, 1e-2, 1.0)
    assert field_difference_norms(ref, fld, 1e-2, 1.0) == want


def test_slit_locates_each_pattern_pair_once(monkeypatch):
    # the slit bench study: each graded field locates only the points of
    # each (reference, graded) pattern pair's first quad, one locator each
    cfg = ExperimentConfig(domain="slit", eps=(1e-2,), p_max=4, mode="reference")
    ref = reference_solution(cfg, 1e-2)
    located, locate = [], fem._PatternLocator.locate

    def counted(self, qids, pat):
        located.append(len(pat))
        return locate(self, qids, pat)

    monkeypatch.setattr(fem._PatternLocator, "locate", counted)
    for p in (1, 2, 3, 4):
        fld, _, _ = run_cell(cfg, p, 1e-2, ref)
        side = ref._fine[1]
        pairs = {}
        for qid, (a, b) in enumerate(zip(ref.mesh.assignments, fld.mesh.assignments)):
            key = (a.kind, a.flip, a.layers_from_L, b.kind, b.flip, b.layers_from_L)
            pairs.setdefault(key, qid)
        want = int(side.count[:, list(pairs.values())].sum())
        assert located[-1] == want
        assert (len(pairs), want, len(side.qids)) == (6, 10624, 35584)
    assert len(located) == 4


def test_reference_side_is_formed_once_per_eps(monkeypatch):
    # the reference mesh is mapped once per shape by its assembly and once
    # per shape for the norms of all graded fields; each graded field
    # builds one point locator; the last eps's reference is gone before
    # the next reference solve
    mapped, located, refs, ref_meshes = [], [], [], []
    geometry, locator, solve = fem.element_geometry, fem._PatternLocator, study.reference_solution

    def counted_geometry(mesh, shape, ref_pts):
        mapped.append((mesh, shape))
        return geometry(mesh, shape, ref_pts)

    class CountedLocator(locator):
        def __init__(self, mesh, qids):
            located.append(mesh)
            super().__init__(mesh, qids)

    def counted_solve(config, eps):
        assert all(r() is None for r in refs)
        ref = solve(config, eps)
        refs.append(weakref.ref(ref))
        ref_meshes.append(ref.mesh)
        return ref

    monkeypatch.setattr(fem, "element_geometry", counted_geometry)
    monkeypatch.setattr(fem, "_PatternLocator", CountedLocator)
    monkeypatch.setattr(study, "reference_solution", counted_solve)
    cfg = ExperimentConfig(domain="lshape", eps=(1e-1, 1e-2), p_max=3, mode="reference")
    tables = run_experiment(cfg)
    assert len(ref_meshes) == 2
    for mesh in ref_meshes:
        assert sorted(s for m, s in mapped if m is mesh) == ["r", "r", "t", "t"]
    graded = [t.meshes[p] for t in tables for p in (1, 2, 3)]
    assert len(located) == len(graded) == 6
    assert all(a is b for a, b in zip(located, graded))


def test_field_difference_rejects_other_macro_nodes():
    # the same 2 x 2 quads on the unit square and on a square of width 2:
    # f = x interpolates exactly on both, but the layouts differ
    def field(width):
        nodes = [[width * x, width * y] for y in (0, 0.5, 1) for x in (0, 0.5, 1)]
        polygon, macro, assignments = hpbl.layouts.from_config({
            "vertices": [[0, 0], [width, 0], [width, width], [0, width]],
            "macro": {"nodes": nodes,
                      "quads": [[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]]},
        })
        mesh = build_geo_bl_mesh(macro, polygon, PatchParams(0.25, 1, 1), assignments)
        return interpolate(mesh, 2, lambda x, y: x)

    one, two = field(1.0), field(2.0)
    assert np.array_equal(one.mesh.oriented, two.mesh.oriented)
    with pytest.raises(ValueError, match="different macro layouts"):
        field_difference_norms(two, one, 1e-2, 1.0)
    with pytest.raises(ValueError, match="different macro layouts"):
        field_difference_norms(one, two, 1e-2, 1.0)


def test_export_files(tmp_path):
    cfg = ExperimentConfig(domain="square", eps=(1e-1, 1e-2), p_min=1, p_max=3)
    tables = run_experiment(cfg)
    fits = [fit_exponential(t) for t in tables]
    out = tmp_path / "out"
    paths = export(tables, fits, str(out), config=cfg, zero_timings=True)
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == [
        "convergence.svg",
        "mesh_square_p1.svg",
        "mesh_square_p2.svg",
        "mesh_square_p3.svg",
        "rates.csv",
        "results.csv",
    ]
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "domain,eps,sigma,p,N,error,iters,seconds"
    assert len(lines) == 1 + 6  # two eps times three p

    # deterministic bytes on a rerun (timings zeroed)
    tables2 = run_experiment(cfg)
    out2 = tmp_path / "out2"
    paths2 = export(tables2, [fit_exponential(t) for t in tables2], str(out2),
                    config=cfg, zero_timings=True)
    for p1, p2 in zip(sorted(paths), sorted(paths2)):
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_reference_study_builds_each_mesh_once_and_exports_them(monkeypatch, tmp_path):
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return build_geo_bl_mesh(*args, **kwargs)

    monkeypatch.setattr(study, "build_geo_bl_mesh", counting)
    cfg = ExperimentConfig(domain="lshape", eps=(1e-2, 1e-3), p_min=1, p_max=2, mode="reference")
    paths = export(run_experiment(cfg), None, str(tmp_path), config=cfg)
    assert len(built) == len(cfg.eps) * 2 + len(cfg.eps)  # each (eps, p) cell and reference
    monkeypatch.undo()
    for p in (1, 2):
        (path,) = [x for x in paths if x.endswith(f"mesh_lshape_p{p}.svg")]
        with open(path) as fh:
            assert fh.read() == mesh_svg(mesh_for(cfg, p, cfg.eps[0]))


def test_export_empty_table(tmp_path):
    t = ConvergenceTable("square", 0.1, 0.25, "energy", "manufactured", [])
    paths = export([t], None, str(tmp_path / "e"))
    csv = [p for p in paths if p.endswith("results.csv")][0]
    assert open(csv).read() == "domain,eps,sigma,p,N,error,iters,seconds\n"


@pytest.mark.parametrize("zero_timings", [False, True])
def test_results_csv_round_trip(tmp_path, zero_timings):
    # written out of (domain, eps) order; errors that a decimal print would round
    keys = [("square", 1e-2), ("lshape", 0.1), ("square", 1e-3)]
    tables = [
        ConvergenceTable(dom, eps, 0.25, "energy", "reference", [
            Row(p=p, N=9 * p * p + k, error=math.pi ** -p / (k + 3), iters=5 * p + k,
                seconds=0.125 * p)
            for p in (1, 2, 3)
        ])
        for k, (dom, eps) in enumerate(keys)
    ]
    export(tables, None, str(tmp_path), zero_timings=zero_timings)
    back = read_results(str(tmp_path / "results.csv"))
    want = sorted(tables, key=lambda t: (t.domain, t.eps))
    assert [(t.domain, t.eps, t.sigma) for t in back] == [(t.domain, t.eps, t.sigma) for t in want]
    for got, t in zip(back, want):
        rows = [Row(r.p, r.N, r.error, r.iters, 0.0 if zero_timings else r.seconds)
                for r in t.rows]
        assert got.rows == rows


def test_balanced_layers_satisfy_scale_resolution():
    from hpbl.macro import scale_resolution_L

    cfg = ExperimentConfig(domain="square", eps=(1e-3,), layers="balanced",
                           norm="balanced", p_min=2, p_max=2)
    mesh = mesh_for(cfg, 2, 1e-3)
    # sigma^L <= eps^2, i.e. L >= 2 |log eps| / |log sigma|
    assert mesh.params.L >= scale_resolution_L(0.25, 1e-6, 1.0)
    assert mesh.params.n >= mesh.params.L
