"""Command line driver.

Subcommands:
    mesh   build one layer-adapted mesh, validate it, dump text + SVG
    solve  single solve at one (p, eps), print sizes and error norms
    study  full p sweep over an eps list; writes CSV, rate fits, SVGs
    fit    recompute rate fits from a previously written results.csv

Options can come from a JSON config file (--config) with the same keys
as ExperimentConfig; command line flags override the file.  Each solve
and study flag stores into the ExperimentConfig field of its name.  Exit
codes: 0 success, 2 invalid input or mesh validation failure, 3 solver
failure (any RuntimeError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .fem import assemble  # noqa: F401  (callers look the layer up here too)
from .macro import build_geo_bl_mesh, validate_mesh
from .meshio import write_mesh_svg, write_mesh_text
from .patches import PatchParams
from .study import (
    ExperimentConfig,
    export,
    fit_exponential,
    load_domain,
    read_results,
    reference_solution,
    run_cell,
    run_experiment,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3


def _config_from(args) -> ExperimentConfig:
    """The config file's fields, then every flag given, each into the field of its dest."""
    known = set(ExperimentConfig.__dataclass_fields__)
    fields = {}
    if args.config is not None:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            kind = type(raw).__name__
            raise ValueError(f"config file {args.config} must hold a JSON object, not {kind}")
        bad = set(raw) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        fields.update(raw)
    given = vars(args)
    fields.update({k: v for k, v in given.items() if k in known and v is not None})
    if given.get("p") is not None:  # solve runs the one degree
        fields["p_min"] = fields["p_max"] = given["p"]
    cfg = ExperimentConfig(**fields)
    cfg.validate()
    return replace(cfg, eps=tuple(float(e) for e in cfg.eps))


def cmd_mesh(args) -> int:
    polygon, macro, assignments = load_domain(args.domain)
    params = PatchParams(sigma=args.sigma, L=args.L, n=args.n if args.n is not None else args.L)
    mesh = build_geo_bl_mesh(macro, polygon, params, assignments)
    report = validate_mesh(mesh)
    print(f"domain={args.domain} sigma={args.sigma} L={params.L} n={params.n}")
    print(f"elements={mesh.element_count()} nodes={mesh.node_count()}")
    for w in report.warnings:
        print(f"warning: {w}")
    for v in report.violations:
        print(f"violation: {v}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.splitext(os.path.basename(args.domain))[0]
        base = os.path.join(args.out, f"mesh_{stem}")
        write_mesh_text(mesh, base + ".txt")
        write_mesh_svg(mesh, base + ".svg")
        print(f"wrote {base}.txt and {base}.svg")
    return EXIT_OK if report.clean else EXIT_INVALID


def cmd_solve(args) -> int:
    cfg = _config_from(args)
    if len(cfg.eps) != 1:
        raise ValueError(f"solve takes one eps, got {len(cfg.eps)}; use study for several")
    (eps,) = cfg.eps
    ref = reference_solution(cfg, eps) if cfg.mode == "reference" else None
    fld, stats, norms = run_cell(cfg, args.p, eps, ref)
    print(f"p={args.p} eps={eps:g} N={fld.dofmap.nfree} iters={stats['iterations']}")
    for k in ("l2", "h1", "energy", "balanced"):
        print(f"{k:9s} error = {norms[k]:.6e}")
    return EXIT_OK


def cmd_study(args) -> int:
    cfg = _config_from(args)
    if cfg.p_max - cfg.p_min + 1 < 3:  # fit_exponential needs three rows
        raise ValueError(f"study needs at least 3 degrees to fit a rate, "
                         f"got p_min={cfg.p_min} p_max={cfg.p_max}")
    tables = run_experiment(cfg)
    fits = [fit_exponential(t) for t in tables]
    for t, ft in zip(tables, fits):
        print(f"eps={t.eps:g}: b={ft.b:.4f} r2={ft.r2:.4f} over {ft.npoints} points")
    if args.out:
        paths = export(tables, fits, args.out, config=cfg, zero_timings=args.zero_timings)
        for p in paths:
            print(f"wrote {p}")
    return EXIT_OK


def cmd_fit(args) -> int:
    mode = "p" if args.mode == "p" else "N^{1/4}"
    for t in read_results(args.csv):
        ft = fit_exponential(t, mode=mode)
        print(f"domain={t.domain} eps={t.eps:g}: b={ft.b:.4f} r2={ft.r2:.4f} C={ft.C:.4g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hpbl", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mesh", help="build, validate, and dump one mesh")
    pm.add_argument("--domain", default="square", help="square|lshape|slit|config file")
    pm.add_argument("--sigma", type=float, default=0.25)
    pm.add_argument("-L", type=int, default=2, help="boundary layer count")
    pm.add_argument("-n", type=int, default=None, help="corner layer count (default: L)")
    pm.add_argument("--out", default=None, help="directory for text/SVG dumps")
    pm.set_defaults(func=cmd_mesh)

    # the flags solve and study share; each dest is an ExperimentConfig field
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config")
    shared.add_argument("--domain")
    shared.add_argument("--eps", type=float, nargs="+")
    shared.add_argument("--sigma", type=float)
    shared.add_argument("--mode")
    shared.add_argument("--layers")

    ps = sub.add_parser("solve", parents=[shared], help="single solve at one degree")
    ps.add_argument("-p", type=int, default=3, help="polynomial degree / layer count")
    ps.set_defaults(func=cmd_solve)

    pt = sub.add_parser("study", parents=[shared], help="full convergence sweep")
    pt.add_argument("--pmax", type=int, dest="p_max", metavar="PMAX")
    pt.add_argument("--norm")
    pt.add_argument("--out", default=None, help="output directory")
    pt.add_argument("--zero-timings", action="store_true", dest="zero_timings",
                    help="blank the seconds column for byte-identical output")
    pt.set_defaults(func=cmd_study)

    pf = sub.add_parser("fit", help="rate fits from a results.csv")
    pf.add_argument("--csv", required=True)
    pf.add_argument("--mode", choices=["p", "dof"], default="p")
    pf.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
