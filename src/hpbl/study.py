"""Convergence experiments: p sweeps on layer-adapted meshes.

A study fixes a domain, sigma, and a list of eps values, then for each
polynomial degree p and eps solves

    -eps^2 lap(u) + u = f,  u = 0 on the boundary,

with elements of degree q = p on a mesh of L layers of n elements
each.  The layer rule sets (L, n): ``p`` takes L = n = p, ``corner-only``
L = 0 and n = p, ``balanced`` the smallest L >= p with sigma^L <= c1
eps^2 and n = L, and ``scale`` the smallest L with sigma^L <= c1 eps (the
energy norm's length scale) and n = max(p, L), so only under
``balanced`` and ``scale`` does the mesh depend on eps.  Errors are measured either against the closed-form
manufactured solution or against a once-computed higher-order reference
solve on the same macro layout, and fitted to C exp(-b p) (or
C exp(-b N^(1/4)) in dof mode) by least squares on the log.

Cells run p by p.  The eps values whose layer counts agree at p form a
group that shares one mesh and one ``DofMap`` with the element data
that do not depend on eps; the group solves its cells, then measures
their errors, and its data go before the next group starts.  In
reference mode the cells run eps by eps, one to a group, so that one
reference solution is held at a time.  Each table keeps its rows in p
order either way.
"""

from __future__ import annotations

import csv
import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .fem import DiscreteField, DofMap, assemble, error_norms
from .layouts import builtin_layout, layout_names, load_config
from .macro import (Mesh, assign_refinement_patterns, build_geo_bl_mesh, scale_resolution_L,
                    validate_mesh)
from .meshio import convergence_svg, mesh_svg
from .oracles import ManufacturedSolution
from .patches import PatchParams

__all__ = [
    "ExperimentConfig",
    "Row",
    "ConvergenceTable",
    "RateFit",
    "run_experiment",
    "run_cell",
    "load_domain",
    "reference_solution",
    "fit_exponential",
    "field_difference_norms",
    "export",
    "read_results",
    "mesh_for",
]

_NORMS = ("energy", "balanced", "h1", "l2")
_MODES = ("manufactured", "reference")
_LAYERS = ("p", "balanced", "corner-only", "scale")
# the type each scalar field must hold, since a config file can give any JSON value
_TYPES = {"domain": str, "sigma": float, "p_min": int, "p_max": int, "c1": float, "norm": str,
          "mode": str, "layers": str}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}
# the columns of results.csv, as export writes them and read_results reads them
_COLUMNS = ("domain", "eps", "sigma", "p", "N", "error", "iters", "seconds")


def _has_type(value, kind) -> bool:
    """isinstance, except that a bool is no number and an int is a float."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True)
class ExperimentConfig:
    domain: str = "square"  # square | lshape | slit | path to a config file
    eps: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    sigma: float = 0.25
    p_min: int = 1
    p_max: int = 6
    c1: float = 1.0
    norm: str = "energy"
    mode: str = "manufactured"
    layers: str = "p"  # p: L=n=p; balanced: L so sigma^L <= eps^2; corner-only: L=0; scale: sigma^L <= eps

    def validate(self) -> None:
        for name, kind in _TYPES.items():
            value = getattr(self, name)
            if not _has_type(value, kind):
                raise ValueError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
        eps = self.eps
        if not (isinstance(eps, (list, tuple)) and eps and all(_has_type(e, float) for e in eps)):
            raise ValueError(f"eps must be a non-empty list of numbers, got {eps!r}")
        if self.p_min < 1 or self.p_max < self.p_min:
            raise ValueError("need 1 <= p_min <= p_max")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0,1)")
        if not self.c1 > 0.0:
            raise ValueError("c1 must be positive")
        for i, e in enumerate(eps):
            if not 0.0 < e <= 1.0:
                raise ValueError(f"eps entries must lie in (0, 1], got {e!r}")
            if e in eps[:i]:
                raise ValueError(f"eps {e!r} is given twice")
        if self.norm not in _NORMS:
            raise ValueError(f"norm must be one of {_NORMS}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.mode == "manufactured" and self.domain != "square":
            raise ValueError(
                f"mode 'manufactured' solves for an oracle that holds only on the unit "
                f"square, not on domain {self.domain!r}; use --mode reference"
            )
        if self.layers not in _LAYERS:
            raise ValueError(f"layers must be one of {_LAYERS}")
        p_top = self.p_max + 2 if self.mode == "reference" else self.p_max  # the finest mesh
        for e in eps:
            try:
                PatchParams(self.sigma, *_layer_counts(self, p_top, e))
            except ValueError as exc:
                raise ValueError(f"eps={e:g} at p={p_top}: {exc}") from None


@dataclass
class Row:
    p: int
    N: int          # dimension of the homogeneous hp space
    error: float
    iters: int      # skeleton CG iterations (bubbles are condensed out)
    seconds: float


@dataclass
class ConvergenceTable:
    domain: str
    eps: float
    sigma: float
    norm: str
    mode: str
    rows: list[Row] = field(default_factory=list)
    meshes: dict = field(default_factory=dict, repr=False, compare=False)  # p -> the mesh solved on

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]


@dataclass
class RateFit:
    mode: str   # "p" or "N^{1/4}"
    C: float
    b: float
    r2: float
    npoints: int


# ---------------------------------------------------------------------------
# mesh and solve plumbing

_DOMAIN_CACHE: dict = {}


def _domain_key(name: str):
    """A built-in layout's name, or a config file's path with a digest of its bytes."""
    if name in layout_names():
        return name
    with open(name, "rb") as fh:
        return name, hashlib.sha256(fh.read()).hexdigest()


def load_domain(name: str):
    """(polygon, macro, assignments) of a built-in layout or a config file, cached."""
    key = _domain_key(name)
    if key not in _DOMAIN_CACHE:
        if name in layout_names():
            polygon, macro = builtin_layout(name)
            _DOMAIN_CACHE[key] = (polygon, macro, assign_refinement_patterns(macro, polygon))
        else:
            _DOMAIN_CACHE[key] = load_config(name)
    return _DOMAIN_CACHE[key]


def _layer_counts(config: ExperimentConfig, p: int, eps: float) -> tuple[int, int]:
    """(L, n) for a degree-p run."""
    if config.layers == "p":
        return p, p
    if config.layers == "corner-only":
        return 0, p
    # sigma^L <= c1 eps^k: k = 1 is the energy norm's scale; balanced-norm
    # runs resolve eps^2 and take at least p layers
    k = 2 if config.layers == "balanced" else 1
    L = max(p if k == 2 else 0, scale_resolution_L(config.sigma, eps**k, config.c1))
    return L, max(p, L)


def mesh_for(config: ExperimentConfig, p: int, eps: float) -> Mesh:
    """The degree-p mesh; ValueError if a config-file layout's mesh is invalid."""
    polygon, macro, assignments = load_domain(config.domain)
    L, n = _layer_counts(config, p, eps)
    params = PatchParams(sigma=config.sigma, L=L, n=n)
    mesh = build_geo_bl_mesh(macro, polygon, params, assignments)
    if config.domain not in layout_names():
        bad = validate_mesh(mesh).violations
        if bad:
            raise ValueError(f"invalid mesh of {config.domain} at L={L}, n={n}: {bad[0]} "
                             f"(and {len(bad) - 1} more violations)")
    return mesh


def _solve_cell(config: ExperimentConfig, mesh: Mesh, q: int, eps: float,
                dofmap: DofMap | None = None):
    ms = ManufacturedSolution(eps)
    f = ms.f if config.mode == "manufactured" else 1.0
    try:
        fld, stats = assemble(mesh, q, eps, 1.0, f, dofmap=dofmap).solve()
    except RuntimeError as exc:
        raise RuntimeError(f"solver failed at p={q}, eps={eps:g}: {exc}") from exc
    return fld, stats, ms


def _cell_norms(config: ExperimentConfig, fld: DiscreteField, ms, eps: float, ref) -> dict:
    if config.mode == "manufactured":
        return error_norms(fld, ms.value_grad, eps, 1.0)
    return field_difference_norms(ref, fld, eps, 1.0)


def run_cell(config: ExperimentConfig, p: int, eps: float, ref: DiscreteField | None = None):
    """Mesh, solve and error norms of one (p, eps) cell.

    ``ref`` is the reference solution in reference mode and unused in
    manufactured mode.  Returns (field, solver stats, norms).
    """
    fld, stats, ms = _solve_cell(config, mesh_for(config, p, eps), p, eps)
    return fld, stats, _cell_norms(config, fld, ms, eps, ref)


def _groups(config: ExperimentConfig) -> list[tuple[int, list]]:
    """The cells of a study in run order, as (p, eps values) groups whose
    cells share one mesh: p by p, the eps values with equal layer counts
    together.  In reference mode eps by eps, one cell a group, so that
    one reference is held at a time."""
    ps = range(config.p_min, config.p_max + 1)
    if config.mode == "reference":
        return [(p, [eps]) for eps in config.eps for p in ps]
    groups = []
    for p in ps:
        by_counts: dict = {}
        for eps in config.eps:
            by_counts.setdefault(_layer_counts(config, p, eps), []).append(eps)
        groups += [(p, group) for group in by_counts.values()]
    return groups


def _run_group(config: ExperimentConfig, p: int, group: list, ref, tables: dict) -> None:
    """Append the rows of the cells (p, eps in ``group``) to their tables.

    The cells share one mesh and one ``DofMap``, which keeps their
    element data; the first cell builds them inside its ``seconds``.  All
    cells are solved before their errors are measured, so the norm
    geometry the DofMap keeps is not held while the next cell assembles.
    """
    t0 = time.perf_counter()
    mesh = mesh_for(config, p, group[0])
    dofmap = DofMap(mesh, p)
    solved = []
    for eps in group:
        solved.append((eps, *_solve_cell(config, mesh, p, eps, dofmap), time.perf_counter() - t0))
        t0 = time.perf_counter()
    for eps, fld, stats, ms, seconds in solved:
        t0 = time.perf_counter()
        norms = _cell_norms(config, fld, ms, eps, ref)
        tables[eps].rows.append(Row(
            p=p,
            N=fld.dofmap.nfree,
            error=float(norms[config.norm]),
            iters=stats["iterations"],
            seconds=seconds + time.perf_counter() - t0,
        ))
        tables[eps].meshes[p] = mesh


def run_experiment(config: ExperimentConfig) -> list[ConvergenceTable]:
    """One ConvergenceTable per eps, rows over p = p_min..p_max.

    Cells run group by group (``_groups``, ``_run_group``), and a group's
    fields and mesh data go before the next group starts.
    """
    config.validate()
    tables = {eps: ConvergenceTable(domain=config.domain, eps=eps, sigma=config.sigma,
                                    norm=config.norm, mode=config.mode) for eps in config.eps}
    ref = ref_eps = None
    for p, group in _groups(config):
        if config.mode == "reference" and group[0] != ref_eps:
            ref = None  # the last eps's reference and the side its norms kept go before this solve
            ref_eps = group[0]
            ref = reference_solution(config, ref_eps)
        _run_group(config, p, group, ref, tables)
    for table in tables.values():
        ns = table.column("N")
        if any(b < a for a, b in zip(ns, ns[1:])):
            raise RuntimeError(f"dof count not nondecreasing in p: {ns}")
    return list(tables.values())


def reference_solution(config: ExperimentConfig, eps: float) -> DiscreteField:
    """Higher-order solve (q = p_max + 2, layers by the study's rule at that
    degree, so at least as refined as every graded mesh)."""
    p_ref = config.p_max + 2
    mesh = mesh_for(config, p_ref, eps)
    graded = [_layer_counts(config, p, eps) for p in range(config.p_min, config.p_max + 1)]
    if not all(L <= mesh.params.L and n <= mesh.params.n for L, n in graded):
        raise RuntimeError(
            f"reference mesh (L={mesh.params.L}, n={mesh.params.n}) is coarser than {graded}")
    fld, _, _ = _solve_cell(config, mesh, p_ref, eps)
    return fld


# ---------------------------------------------------------------------------
# comparing fields that live on different refinements of one macro layout


def field_difference_norms(ref: DiscreteField, fld: DiscreteField, eps: float, c,
                           diffusion=None) -> dict:
    """Norms of ref - fld for fields on two refinements of one macro layout.

    Integration runs over the finer field's elements (the reference) at
    q_ref + 2 points per direction, with the coarser field evaluated at
    the same pattern points (``DiscreteField.difference_norms``).  The
    reference's side, its element maps, values, gradients and data there,
    is formed on the first call per c and diffusion and kept on ``ref``, so
    the graded fields of one eps pay only for locating and evaluating
    themselves, each in one macro quad per pair of patterns (reference,
    graded) that the quads carry.  Fields whose macro quads or macro node
    coordinates differ raise ``ValueError``.
    """
    return ref.difference_norms(fld, eps, c, diffusion)


# ---------------------------------------------------------------------------
# rate fits and export


def fit_exponential(table: ConvergenceTable, mode: str = "p") -> RateFit:
    """Least squares of log(error) against p (or N^(1/4)); rows with p >= 2."""
    if mode not in ("p", "N^{1/4}"):
        raise ValueError("mode must be 'p' or 'N^{1/4}'")
    if len(table.rows) < 3:
        raise ValueError("need at least 3 rows to fit")
    rows = [r for r in table.rows if r.p >= 2]
    if any(r.error <= 0.0 for r in rows):
        raise ValueError("nonpositive errors cannot be fitted")
    x = np.array([r.p if mode == "p" else r.N ** 0.25 for r in rows])
    y = np.log([r.error for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(
        mode=mode, C=float(np.exp(intercept)), b=float(-slope) + 0.0, r2=r2, npoints=len(rows)
    )


def export(
    tables: list[ConvergenceTable],
    fits: list[RateFit] | None,
    out_dir: str,
    config: ExperimentConfig | None = None,
    zero_timings: bool = False,
) -> list[str]:
    """Write results.csv, rates.csv, a convergence plot, and mesh renderings.

    Given ``config``, the meshes of the first table (the ones its rows
    were solved on, as ``run_experiment`` records them) are rendered.
    All output bytes are deterministic for fixed inputs, except that the
    measured seconds column reflects real time; pass zero_timings=True to
    blank it when byte-identical reruns matter.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "results.csv")
    lines = [",".join(_COLUMNS)]
    for t in tables:
        for r in t.rows:
            secs = 0.0 if zero_timings else r.seconds
            lines.append(
                f"{t.domain},{t.eps:g},{t.sigma:g},{r.p},{r.N},{r.error!r},{r.iters},{secs:.3f}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    written.append(path)

    if fits:
        path = os.path.join(out_dir, "rates.csv")
        lines = ["domain,eps,mode,C,b,r2,npoints"]
        for t, ft in zip(tables, fits):
            lines.append(
                f"{t.domain},{t.eps:g},{ft.mode},{ft.C!r},{ft.b!r},{ft.r2!r},{ft.npoints}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)

    if tables:
        series = [
            (f"eps={t.eps:g}", t.column("p"), t.column("error")) for t in tables
        ]
        path = os.path.join(out_dir, "convergence.svg")
        with open(path, "w") as fh:
            fh.write(convergence_svg(series))
        written.append(path)

    if config is not None and tables:
        stem = os.path.splitext(os.path.basename(config.domain))[0]
        for p in sorted({r.p for r in tables[0].rows}):
            path = os.path.join(out_dir, f"mesh_{stem}_p{p}.svg")
            with open(path, "w") as fh:
                fh.write(mesh_svg(tables[0].meshes[p]))
            written.append(path)
    return written


def read_results(path: str) -> list[ConvergenceTable]:
    """The tables of a results.csv that ``export`` wrote, sorted by (domain, eps).

    Blank lines are skipped; a header other than ``_COLUMNS``, a row of
    another length or a second row for one (domain, eps, p) is a
    ValueError.  Norm and mode are not in the file.
    """
    tables: dict[tuple, ConvergenceTable] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != _COLUMNS:
            raise ValueError(f"unexpected CSV header: {','.join(header)}")
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(_COLUMNS):
                raise ValueError(f"{path} line {reader.line_num}: "
                                 f"expected {len(_COLUMNS)} fields, got {len(cells)}")
            dom, eps, sigma, p, N, err, iters, secs = cells
            key = (dom, float(eps))
            if key not in tables:
                tables[key] = ConvergenceTable(
                    domain=dom, eps=float(eps), sigma=float(sigma), norm="?", mode="?"
                )
            if any(row.p == int(p) for row in tables[key].rows):
                raise ValueError(f"{path} line {reader.line_num}: a second row for "
                                 f"domain {dom}, eps {eps}, p {p}")
            tables[key].rows.append(
                Row(p=int(p), N=int(N), error=float(err), iters=int(iters), seconds=float(secs))
            )
    return [tables[key] for key in sorted(tables)]
