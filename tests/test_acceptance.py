"""End-to-end acceptance checks, one test per numbered claim.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
check.  Each test also prints a summary line with the measured numbers
(visible with -s) and asserts a wall-clock budget, so a regression that
makes the code orders of magnitude slower fails loudly.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from hpbl.fem import assemble, error_norms, interpolate
from hpbl.layouts import builtin_layout
from hpbl.macro import scale_resolution_L, validate_mesh
from hpbl.meshcheck import conformity_violations
from hpbl.oracles import ManufacturedSolution
from hpbl.patches import (
    PatchKind,
    PatchParams,
    build_pattern,
)
from hpbl.reference import rect_basis, tri_basis
from hpbl.study import (
    ConvergenceTable,
    ExperimentConfig,
    Row,
    fit_exponential,
    mesh_for,
    run_experiment,
)

from helpers import (
    BoundaryLayerFn,
    CornerSingularityFn,
    evaluate,
    lebesgue_constant,
    patch_metrics,
    patch_sums,
    pattern_mesh,
    sup_errors,
)

SIGMAS = (0.1, 0.25, 0.5)
EPS4 = (1e-1, 1e-2, 1e-3, 1e-4)

ORIGIN_RULE_KINDS = (PatchKind.TENSOR, PatchKind.MIXED)


def _tiled_area(patch):
    """Sum of element areas by the shoelace formula, grouped by shape."""
    total = 0.0
    for shape in ("t", "r"):
        xy = patch.nodes[patch.conn[shape]]
        x, y = xy[..., 0], xy[..., 1]
        xr, yr = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        total += float(np.abs((x * yr - xr * y).sum(axis=1)).sum()) / 2.0
    return total


def _coarse_quarter(entries):
    """First quarter of (order_key, value) entries, sorted by key."""
    entries = sorted(entries, key=lambda kv: kv[0])
    take = max(1, len(entries) // 4)
    return [v for _, v in entries[:take]], [v for _, v in entries]


def test_01_patch_catalog_invariants():
    t0 = time.perf_counter()
    built = 0
    worst_defect = 0.0
    # distance-to-boundary ratios per sigma: triangles vs h, rectangles vs
    # h_min, and (mixed/tensor rectangles) distance-to-origin vs h_max
    ratios = {s: {"tri": [], "rect": [], "origin": []} for s in SIGMAS}
    sums = {}
    for sigma in SIGMAS:
        for L in range(0, 9):
            for n in range(L, 13):
                params = PatchParams(sigma=sigma, L=L, n=n)
                key = L + n
                for kind in PatchKind:
                    patch = build_pattern(kind, params)
                    built += 1
                    defect = abs(_tiled_area(patch) - 1.0)
                    worst_defect = max(worst_defect, defect)
                    assert defect < 1e-12
                    assert conformity_violations(patch.nodes, patch) == []
                    mets = patch_metrics(patch)
                    for met in mets:
                        if met.dist_gamma is not None and not met.touches_gamma:
                            if met.shape == "t":
                                ratios[sigma]["tri"].append((key, met.dist_gamma / met.h))
                            else:
                                ratios[sigma]["rect"].append(
                                    (key, met.dist_gamma / met.h_min)
                                )
                        if kind in ORIGIN_RULE_KINDS and met.shape == "r":
                            ratios[sigma]["origin"].append(
                                (key, met.dist_origin / met.h_max)
                            )
                    for eps in (1e-6, 1e-3, 1.0):
                        s = patch_sums(mets, 1.0, 1.0, eps)
                        sums.setdefault((sigma, kind), []).append((key, s))
    # a single positive distance constant per sigma, not degrading as the
    # patterns refine: the worst ratio over the whole sweep stays within a
    # factor two of the worst ratio over the coarsest quarter
    c_dist = {}
    for sigma in SIGMAS:
        per_rule = []
        for rule, pairs in ratios[sigma].items():
            assert pairs, f"no {rule} dichotomy samples for sigma={sigma}"
            coarse, full = _coarse_quarter(pairs)
            assert min(full) > 0.0
            assert min(full) >= 0.5 * min(coarse)
            per_rule.append(min(full))
        c_dist[sigma] = min(per_rule)
    # the four summability quantities stay bounded over the sweep: the max
    # is at most twice the max over the coarsest quarter, per kind
    for (sigma, kind), entries in sums.items():
        for name in ("triangle_sum", "rect_sum", "triangle_exp_sum", "rect_exp_sum"):
            coarse, full = _coarse_quarter([(k, s[name]) for k, s in entries])
            assert max(full) <= 2.0 * max(coarse) + 1e-15, (sigma, kind, name)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    cd = ", ".join(f"{s}:{c_dist[s]:.3f}" for s in SIGMAS)
    print(
        f"check 1: PASS — {built} patterns tile (defect<{worst_defect:.1e}), "
        f"conform; c_dist {cd}; sums bounded ({dt:.1f}s)"
    )


def test_02_polynomial_reproduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    xs = np.linspace(0.0, 1.0, 29)
    X, Y = np.meshgrid(xs, xs)
    sq_pts = np.column_stack([X.ravel(), Y.ravel()])
    tr_pts = np.column_stack([sq_pts[:, 0], sq_pts[:, 0] * sq_pts[:, 1]])  # y <= x
    worst_sq = worst_tr = 0.0
    for q in range(1, 11):
        for _ in range(20):
            c = rng.uniform(-1.0, 1.0, (q + 1, q + 1))
            f = lambda x, y, c=c: npp.polyval2d(x, y, c)
            basis = rect_basis(q)
            vals = basis.tabulate(sq_pts)[0] @ f(*basis.nodes.T)
            err = np.abs(vals - f(sq_pts[:, 0], sq_pts[:, 1]))
            worst_sq = max(worst_sq, float(err.max()))

            ct = c.copy()
            i, j = np.indices(ct.shape)
            ct[i + j > q] = 0.0  # total degree <= q
            g = lambda x, y, ct=ct: npp.polyval2d(x, y, ct)
            basis = tri_basis(q)
            vals = basis.tabulate(tr_pts)[0] @ g(*basis.nodes.T)
            err = np.abs(vals - g(tr_pts[:, 0], tr_pts[:, 1]))
            worst_tr = max(worst_tr, float(err.max()))
    assert worst_sq < 1e-12
    assert worst_tr < 1e-12
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(
        f"check 2: PASS — 200 random polynomials per cell reproduced "
        f"(square {worst_sq:.1e}, triangle {worst_tr:.1e}; {dt:.1f}s)"
    )


def test_03_lebesgue_constant_growth():
    t0 = time.perf_counter()
    ratio = {q: lebesgue_constant(q) / math.log(q + 1) for q in (4, 8, 16, 32)}
    base = ratio[4]
    assert all(r <= 1.5 * base for r in ratio.values())
    assert all(r >= base / 1.5 for r in ratio.values())
    dt = time.perf_counter() - t0
    assert dt < 10.0
    pairs = ", ".join(f"q={q}:{r:.3f}" for q, r in ratio.items())
    print(f"check 3: PASS — Lebesgue/log(q+1) stays near {base:.3f} ({pairs}; {dt:.1f}s)")


def test_04_boundary_layer_interpolation_rates():
    t0 = time.perf_counter()
    bs = {}
    for eps in EPS4:
        L = scale_resolution_L(0.25, eps, 1.0)
        mesh = pattern_mesh(PatchKind.BOUNDARY_LAYER, PatchParams(0.25, L, L))
        f = BoundaryLayerFn(1.0, eps)
        rows = []
        for q in range(2, 11):
            ev, eg = sup_errors(interpolate(mesh, q, f.value), f.value, f.grad, n=120)
            rows.append(Row(p=q, N=(q + 1) * (L + 1), error=ev + eps * eg, iters=0, seconds=0.0))
        fit = fit_exponential(ConvergenceTable("bl-patch", eps, 0.25, "sup", "layer", rows))
        assert fit.b > 0.0
        assert fit.r2 >= 0.9
        bs[eps] = fit.b
    spread = max(bs.values()) / min(bs.values())
    assert spread < 2.0
    dt = time.perf_counter() - t0
    assert dt < 120.0
    rates = ", ".join(f"{e:g}:{b:.2f}" for e, b in bs.items())
    print(f"check 4: PASS — layer interpolation rates b {rates}, spread {spread:.2f} ({dt:.1f}s)")


def test_05_corner_singularity_interpolation_rates():
    t0 = time.perf_counter()
    f = CornerSingularityFn(0.5)
    ns = list(range(2, 9))
    errs = []
    for n in ns:
        mesh = pattern_mesh(PatchKind.CORNER, PatchParams(0.25, 0, n))
        ev, _ = sup_errors(interpolate(mesh, 8, f.value), f.value, n=150)
        errs.append(ev)
    slope = float(np.polyfit(ns, np.log(errs), 1)[0])
    target = 0.5 * math.log(0.25)  # sigma^{n(1-beta)} with beta = 1/2
    assert abs(slope - target) <= 0.25 * abs(target)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(
        f"check 5: PASS — corner error slope {slope:.4f} vs {target:.4f} "
        f"(off by {abs(slope - target) / abs(target):.1%}; {dt:.1f}s)"
    )


def test_06_single_element_center_value():
    t0 = time.perf_counter()
    mesh = pattern_mesh(PatchKind.TRIVIAL, PatchParams(sigma=0.5, L=0, n=0))
    fld, _ = assemble(mesh, 2, 1.0, 1.0, 1.0).solve()
    center = float(evaluate(fld, np.array([[0.5, 0.5]]))[0])
    assert center == pytest.approx(25.0 / 336.0, abs=1e-12)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"check 6: PASS — center value {center:.12f} = 25/336 ({dt:.2f}s)")


@pytest.fixture(scope="module")
def square_energy_sweep():
    """Shared manufactured-solution runs: square, q = L = n = p, p = 1..6."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(domain="square", eps=EPS4, p_min=1, p_max=6)
    runs = []
    for eps in EPS4:
        ms = ManufacturedSolution(eps)
        for p in range(1, 7):
            mesh = mesh_for(cfg, p, eps)
            assert mesh.params.L == p and mesh.params.n == p
            fld, _ = assemble(mesh, p, eps, 1.0, ms.f).solve()
            e_fem = error_norms(fld, ms.value_grad, eps, 1.0)["energy"]
            itp = interpolate(mesh, p, lambda x, y: ms.value_grad(x, y)[0], dofmap=fld.dofmap)
            e_itp = error_norms(itp, ms.value_grad, eps, 1.0)["energy"]
            runs.append(
                {"eps": eps, "p": p, "N": fld.dofmap.nfree, "fem": e_fem, "itp": e_itp}
            )
    return {"runs": runs, "seconds": time.perf_counter() - t0}


def test_07_energy_convergence_on_square(square_energy_sweep):
    t0 = time.perf_counter()
    runs = square_energy_sweep["runs"]
    fits = {}
    for eps in EPS4:
        rows = [
            Row(p=r["p"], N=r["N"], error=r["fem"], iters=0, seconds=0.0)
            for r in runs
            if r["eps"] == eps
        ]
        fit = fit_exponential(ConvergenceTable("square", eps, 0.25, "energy", "mfd", rows))
        assert fit.b > 0.0
        assert fit.r2 >= 0.9
        fits[eps] = fit
    at_p5 = [r["fem"] for r in runs if r["p"] == 5]
    spread = max(at_p5) / min(at_p5)
    assert spread < 10.0
    dt = square_energy_sweep["seconds"] + time.perf_counter() - t0
    assert dt < 600.0
    rates = ", ".join(f"{e:g}:b={f.b:.2f},r2={f.r2:.3f}" for e, f in fits.items())
    print(f"check 7: PASS — energy rates {rates}; p=5 spread {spread:.2f} ({dt:.1f}s)")


def test_08_galerkin_beats_interpolant(square_energy_sweep):
    worst = 0.0
    for r in square_energy_sweep["runs"]:
        assert r["fem"] <= r["itp"] * (1.0 + 1e-10), (r["eps"], r["p"])
        worst = max(worst, r["fem"] / r["itp"])
    print(
        f"check 8: PASS — discrete solution never beaten by its interpolant "
        f"(worst ratio {worst:.4f} over {len(square_energy_sweep['runs'])} runs)"
    )


def test_09_lshape_and_slit_domains():
    t0 = time.perf_counter()
    fits = {}
    for name in ("lshape", "slit"):
        cfg = ExperimentConfig(
            domain=name, eps=(1e-2,), p_min=1, p_max=5, mode="reference"
        )
        for p in range(1, 6):
            report = validate_mesh(mesh_for(cfg, p, 1e-2))
            assert report.clean, (name, p, report.violations)
        (table,) = run_experiment(cfg)
        fit = fit_exponential(table)
        assert fit.b > 0.0
        fits[name] = fit
    dt = time.perf_counter() - t0
    assert dt < 900.0
    rates = ", ".join(f"{k}:b={f.b:.2f},r2={f.r2:.3f}" for k, f in fits.items())
    print(f"check 9: PASS — meshes valid p=1..5 and rates {rates} ({dt:.1f}s)")


def test_10_balanced_norm_convergence():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        domain="square", eps=EPS4, p_min=1, p_max=6, norm="balanced", layers="balanced"
    )
    for eps in EPS4:
        mesh = mesh_for(cfg, 1, eps)
        need = 2.0 * abs(math.log(eps)) / abs(math.log(0.25))
        assert mesh.params.L >= need - 1e-9
    tables = run_experiment(cfg)
    fits = {}
    for table in tables:
        fit = fit_exponential(table)
        assert fit.b > 0.0
        fits[table.eps] = fit
    dt = time.perf_counter() - t0
    assert dt < 600.0
    rates = ", ".join(f"{e:g}:b={f.b:.2f}" for e, f in fits.items())
    print(f"check 10: PASS — balanced-norm rates {rates} ({dt:.1f}s)")


EPS_SCALE = (1e-2, 1e-4, 1e-6, 1e-8)


@pytest.fixture(scope="module")
def square_scale_sweep():
    """Shared energy-norm studies on the square, p = 1..6, eps down to 1e-8:
    under ``layers="scale"`` (sigma^L <= c1 eps, n = max(p, L)) and under
    ``corner-only``, the negative control."""
    t0 = time.perf_counter()
    tables = {layers: run_experiment(ExperimentConfig(domain="square", eps=EPS_SCALE, p_min=1,
                                                      p_max=6, layers=layers))
              for layers in ("scale", "corner-only")}
    return {"tables": tables, "seconds": time.perf_counter() - t0}


def test_11_robust_exponential_convergence_on_scale_resolving_meshes(square_scale_sweep):
    # the paper's claim on the square: once the mesh resolves the length
    # scale eps, the energy error decays like exp(-b p) with b independent of
    # eps (measured r2 >= 0.994, max b / min b 1.19), and at each p the
    # error does not grow as eps shrinks; corner layers alone do not resolve
    # the boundary layers (measured b <= 0.33)
    t0 = time.perf_counter()
    scale = square_scale_sweep["tables"]["scale"]
    fits = {t.eps: fit_exponential(t) for t in scale}
    for eps, fit in fits.items():
        assert fit.r2 >= 0.98, (eps, fit)
    bs = [fit.b for fit in fits.values()]
    assert max(bs) / min(bs) <= 1.5, bs
    for p in range(1, 7):
        errors = [next(r.error for r in t.rows if r.p == p) for t in scale]
        assert all(b <= a for a, b in zip(errors, errors[1:])), (p, errors)
    control = {t.eps: fit_exponential(t).b for t in square_scale_sweep["tables"]["corner-only"]}
    assert all(b < 0.5 for b in control.values()), control
    dt = square_scale_sweep["seconds"] + time.perf_counter() - t0
    assert dt < 600.0
    rates = ", ".join(f"{e:g}:b={f.b:.2f},r2={f.r2:.3f}" for e, f in fits.items())
    print(f"check 11: PASS — scale-rule energy rates {rates}; b ratio {max(bs) / min(bs):.2f}; "
          f"corner-only b <= {max(control.values()):.2f} ({dt:.1f}s)")
