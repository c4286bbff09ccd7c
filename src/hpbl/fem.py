"""Continuous hp finite elements on refined macro meshes.

Degrees of freedom follow the nodal bases: one per mesh node, q-1 per
facet (ordered away from the facet's lower-numbered node, so the two
elements sharing it agree), and the rest interior to elements.  Edge
restrictions of both the tensor and the triangle basis are univariate
Lagrange interpolants on Gauss-Lobatto points of the same degree,
which makes the glued space H1-conforming also across the
rectangle/triangle interfaces inside the patterns.

The assembled problem is

    eps^2 (A grad u, grad v) + (c u, v) = (f, v),   u = 0 on the boundary,

with A a symmetric 2x2 diffusion field (identity when omitted).  Element
geometry comes batched per shape from ``macro.element_geometry``, the
only place element maps and Jacobians are computed, ``_integrate`` is
the one norm kernel behind every error and energy norm, and
``DiscreteField.at_pattern`` is the one point locator.

Solves use static condensation.  ``assemble`` eliminates each element's
bubbles (its interior dofs) from the element block, batched per shape
(one Cholesky factorization of all bubble blocks checks that they are
positive definite, one batched solve forms S_ii^-1 [S_ib | l_i]), and
assembles the Schur complement on the skeleton: the node and facet
dofs, which ``DofMap`` numbers before every bubble.
``LinearSystem.solve`` runs CG (or a direct solve) on the skeleton only
and recovers the bubbles element by element, so reported CG iterations
count skeleton iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .macro import Mesh, element_geometry, element_placements
from .meshcheck import facet_incidence
from .reference import rect_basis, rect_quadrature, tri_basis, tri_quadrature

__all__ = [
    "DofMap",
    "LinearSystem",
    "DiscreteField",
    "assemble",
    "solve_cg",
    "interpolate",
    "energy_norm",
    "error_norms",
]


@lru_cache(maxsize=64)
def _tables(shape: str, q: int, m: int):
    """Quadrature points/weights and basis value/gradient tables."""
    basis = rect_basis(q) if shape == "r" else tri_basis(q)
    pts, w = rect_quadrature(m) if shape == "r" else tri_quadrature(m)
    return pts, w, basis.eval(pts), basis.grad(pts)


_POINTS = 4096  # points located and evaluated together
_TESTS = 1 << 16  # point-element pairs in one containment test
_TOL = 1e-9  # containment slack in reference coordinates


def _basis_for(shape: str, q: int):
    return rect_basis(q) if shape == "r" else tri_basis(q)


class DofMap:
    """Global numbering: mesh nodes, then facet interiors, then bubbles."""

    def __init__(self, mesh: Mesh, q: int):
        if q < 1:
            raise ValueError("polynomial degree must be at least 1")
        self.mesh = mesh
        self.q = q
        nv = len(mesh.nodes)
        per_edge = q - 1

        facets = sorted(facet_incidence(mesh.elements).keys())
        self.facet_offset = {}
        off = nv
        for f in facets:
            self.facet_offset[f] = off
            off += per_edge
        self.nskeleton = off  # node and facet dofs; bubbles follow

        self.elem_dofs: list[np.ndarray] = []
        for el in mesh.elements:
            basis = _basis_for(el.shape, q)
            gd = np.empty(basis.ndofs, dtype=np.int64)
            nc = len(el.nodes)
            for k, loc in enumerate(basis.corner_ids):
                gd[loc] = el.nodes[k]
            for k in range(nc):
                a, b = el.nodes[k], el.nodes[(k + 1) % nc]
                locs = basis.edge_ids[k][1:-1]
                start = self.facet_offset[(min(a, b), max(a, b))]
                ids = np.arange(start, start + per_edge)
                gd[locs] = ids if a < b else ids[::-1]
            ni = len(basis.interior_ids)
            gd[basis.interior_ids] = np.arange(off, off + ni)
            off += ni
            self.elem_dofs.append(gd)
        self.ndofs = off

        dirichlet = np.zeros(self.ndofs, dtype=bool)
        for a, b in mesh.boundary_facets:
            dirichlet[a] = dirichlet[b] = True
            start = self.facet_offset[(a, b)]
            dirichlet[start : start + per_edge] = True
        self.dirichlet = dirichlet
        self.free = np.nonzero(~dirichlet)[0]
        self.free_index = np.full(self.ndofs, -1, dtype=np.int64)
        self.free_index[self.free] = np.arange(len(self.free))
        self._points = None

    @property
    def nfree(self) -> int:
        return len(self.free)

    def stacked_dofs(self, ids: np.ndarray, nbasis: int) -> np.ndarray:
        """Global dofs of same-shape elements ``ids``, (len(ids), nbasis)."""
        stacked = np.array([self.elem_dofs[ei] for ei in ids], dtype=np.int64)
        return stacked.reshape(len(ids), nbasis)

    def dof_points(self) -> np.ndarray:
        """Physical coordinates of every degree of freedom."""
        if self._points is None:
            pts = np.empty((self.ndofs, 2))
            for shape in ("r", "t"):
                nodes = _basis_for(shape, self.q).nodes
                ids, _, phys, _, _ = element_geometry(self.mesh, shape, nodes)
                pts[self.stacked_dofs(ids, len(nodes))] = phys
            self._points = pts
        return self._points


def _field_at(fn, pts: np.ndarray) -> np.ndarray:
    """Evaluate a scalar field given as callable f(x, y) or constant."""
    if callable(fn):
        return np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float) * np.ones(len(pts))
    return float(fn) * np.ones(len(pts))


@dataclass
class LinearSystem:
    """The assembled system and its condensed skeleton form.

    ``matrix`` and ``rhs`` are the system on all free dofs.  ``skeleton``
    and ``skeleton_rhs`` are the Schur complement and condensed load on
    the free skeleton dofs, which lead the free numbering.  ``bubbles``
    holds per shape the bubble dofs (E, ni), the free index of each
    interface dof (E, nb - ni; -1 where constrained) and X = S_ii^-1
    [S_ib | l_i] split into ``Xb`` (E, ni, nb - ni) and ``Xl`` (E, ni),
    so that u_i = Xl - Xb u_b.
    """

    dofmap: DofMap
    matrix: sp.csr_matrix  # free x free, symmetric positive definite
    rhs: np.ndarray
    skeleton: sp.csr_matrix
    skeleton_rhs: np.ndarray
    bubbles: list

    def solve(self, method: str = "cg", tol: float = 1e-12, maxiter: int | None = None):
        """Solve the skeleton, then back-substitute the bubbles.

        Returns (DiscreteField over all dofs, stats); the stats describe
        the skeleton solve.
        """
        A, b = self.skeleton, self.skeleton_rhs
        if method == "cg":
            x, iters, relres = solve_cg(A, b, tol=tol, maxiter=maxiter)
            stats = {"method": "cg", "iterations": iters, "relres": relres}
        elif method == "direct":
            x = spla.spsolve(A.tocsc(), b) if len(b) else np.zeros(0)  # spsolve rejects 0x0
            stats = {"method": "direct", "iterations": 0, "relres": 0.0}
        else:
            raise ValueError(f"unknown solve method {method!r}")
        coeffs = np.zeros(self.dofmap.ndofs)
        coeffs[self.dofmap.free[: len(x)]] = x
        xb = np.append(x, 0.0)  # free index -1 (constrained) reads the trailing 0
        for dofs, fb, Xb, Xl in self.bubbles:
            coeffs[dofs] = Xl - (Xb @ xb[fb][..., None])[..., 0]
        return DiscreteField(self.dofmap, coeffs), stats


def _free_coo(fg: np.ndarray, S: np.ndarray):
    """(rows, cols, vals) of blocks S (E, n, n) on free indices fg (E, n), -1 dropped."""
    pair = (fg[:, :, None] >= 0) & (fg[:, None, :] >= 0)
    rows = np.broadcast_to(fg[:, :, None], S.shape)[pair]
    cols = np.broadcast_to(fg[:, None, :], S.shape)[pair]
    return rows, cols, S[pair]


def _csr(parts, n: int) -> sp.csr_matrix:
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _not_positive_definite(S: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return True
    return False


def assemble(
    mesh: Mesh,
    q: int,
    eps: float,
    c,
    f,
    diffusion=None,
) -> LinearSystem:
    """Assemble eps^2 (A grad u, grad v) + (c u, v) = (f, v) on the free dofs.

    ``c`` and ``f`` are scalar fields (constants or callables f(x, y));
    ``diffusion`` maps quadrature points to (n, 2, 2) symmetric matrices,
    or is None for the identity.  Quadrature uses q + 2 points per
    direction.  The element bubbles are then condensed out; a bubble
    block that is not positive definite raises ``RuntimeError`` naming
    the lowest such element.
    """
    dofmap = DofMap(mesh, q)
    m = q + 2
    eps2 = eps * eps

    geo = {shape: element_geometry(mesh, shape, _tables(shape, q, m)[0]) for shape in ("r", "t")}
    bad = [ei for ids, _, _, det, _ in geo.values() for ei in ids[np.any(det <= 0.0, axis=1)]]
    if bad:
        raise ValueError(f"element {min(bad)} has a non-positive Jacobian")

    blocks, parts = [], []
    b = np.zeros(dofmap.ndofs)
    finite = True
    for shape, (ids, _, phys, det, invJ) in geo.items():
        _, w, B, G = _tables(shape, q, m)
        ne, (npts, nb) = len(ids), B.shape
        wdet = w * det
        flat = phys.reshape(-1, 2)
        # stiffness G^T (w det J^-1 A J^-T) G, with G stacked as (points x 2, nbasis)
        wJ = wdet[..., None, None] * invJ
        if diffusion is not None:
            wJ = wJ @ np.asarray(diffusion(flat), dtype=float).reshape(ne, npts, 2, 2)
        coef = wJ @ np.swapaxes(invJ, -1, -2)
        Gs = np.swapaxes(G, 1, 2)
        K = Gs.reshape(2 * npts, nb).T @ (coef @ Gs).reshape(ne, 2 * npts, nb)
        cw = _field_at(c, flat).reshape(ne, npts) * wdet
        M = (B.T * cw[:, None, :]) @ B
        S = eps2 * K + M
        S = 0.5 * (S + np.swapaxes(S, 1, 2))
        load = (_field_at(f, flat).reshape(ne, npts) * wdet) @ B
        finite = finite and bool(np.all(np.isfinite(S)) and np.all(np.isfinite(load)))

        gd = dofmap.stacked_dofs(ids, nb)
        fg = dofmap.free_index[gd].astype(np.int32)
        parts.append(_free_coo(fg, S))
        b += np.bincount(gd.ravel(), weights=load.ravel(), minlength=dofmap.ndofs)
        blocks.append((_basis_for(shape, q).interior_ids, ids, gd, fg, S, load))

    if not finite:
        raise ValueError("assembled matrix or load vector is not finite; check c, f and diffusion")
    A = _csr(parts, dofmap.nfree)
    del parts

    # static condensation: S_bb - S_bi X_b and l_b - S_bi X_l on the skeleton
    nskel = int(np.searchsorted(dofmap.free, dofmap.nskeleton))
    parts, bubbles, bad = [], [], []
    bs = np.zeros(nskel)
    for ii, ids, gd, fg, S, load in blocks:
        ib = np.setdiff1d(np.arange(S.shape[1]), ii)
        fb = fg[:, ib]
        schur, cload = S[:, ib[:, None], ib], load[:, ib]
        if ii.size:
            Sii, Sbi = S[:, ii[:, None], ii], S[:, ib[:, None], ii]
            if _not_positive_definite(Sii):
                bad += [ids[k] for k in range(len(ids)) if _not_positive_definite(Sii[k])]
                continue
            X = np.linalg.solve(Sii, np.concatenate([np.swapaxes(Sbi, 1, 2), load[:, ii, None]], 2))
            Xb, Xl = X[..., :-1], X[..., -1]
            schur = schur - Sbi @ Xb
            schur = 0.5 * (schur + np.swapaxes(schur, 1, 2))
            cload = cload - (Sbi @ Xl[..., None])[..., 0]
            bubbles.append((gd[:, ii], fb, Xb, Xl))
        parts.append(_free_coo(fb, schur))
        bs += np.bincount(fb[fb >= 0], weights=cload[fb >= 0], minlength=nskel)
    if bad:
        raise RuntimeError(f"element {min(bad)} has a bubble block that is not positive definite")
    return LinearSystem(dofmap, A, b[dofmap.free], _csr(parts, nskel), bs, bubbles)


def solve_cg(A: sp.csr_matrix, b: np.ndarray, tol: float = 1e-12, maxiter=None):
    """Jacobi-preconditioned conjugate gradients.

    Returns (x, iterations, relative residual); raises if the tolerance
    is not reached within the iteration cap, and at once on breakdown
    (a non-finite residual or p.Ap <= 0).
    """
    n = len(b)
    if maxiter is None:
        maxiter = max(1000, 10 * n)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix diagonal must be positive for Jacobi scaling")
    x = np.zeros(n)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    relres = 1.0
    for it in range(1, maxiter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if not pAp > 0.0:
            raise RuntimeError(
                f"cg breakdown at iteration {it}: p.Ap = {pAp:.3e}, matrix not positive definite"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        relres = float(np.linalg.norm(r)) / bnorm
        if not math.isfinite(relres):
            raise RuntimeError(f"cg breakdown at iteration {it}: residual is not finite")
        if relres <= tol:
            return x, it, relres
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(f"cg failed to converge: relres={relres:.3e} after {maxiter} iterations")


class DiscreteField:
    """A function in the hp space, stored by its global coefficients."""

    def __init__(self, dofmap: DofMap, coeffs: np.ndarray):
        self.dofmap = dofmap
        self.mesh = dofmap.mesh
        self.q = dofmap.q
        self.coeffs = np.asarray(coeffs, dtype=float)

    def __call__(self, points) -> np.ndarray:
        """Evaluate at physical points.

        Newton's method inverts every macro bilinear map at every point at
        once; a point belongs to the lowest-numbered macro quad whose
        inverse image lies in the unit square within 1e-10.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        bil = self.mesh.quad_map(np.arange(len(self.mesh.oriented)))
        st = np.full((len(points), len(self.mesh.oriented), 2), 0.5)
        with np.errstate(all="ignore"):  # points outside a quad may diverge
            for _ in range(30):
                r = bil(st) - points[:, None, :]
                (a, b), (c, d) = np.moveaxis(bil.jacobian(st), (-2, -1), (0, 1))
                step = np.stack([d * r[..., 0] - b * r[..., 1], a * r[..., 1] - c * r[..., 0]], -1)
                st = st - step / (a * d - b * c)[..., None]
            res = np.linalg.norm(bil(st) - points[:, None, :], axis=-1)
            ok = (res < 1e-10) & np.all((st >= -1e-10) & (st <= 1.0 + 1e-10), axis=-1)
        lost = ~ok.any(axis=1)
        if lost.any():
            raise ValueError(f"point {points[np.argmax(lost)]} not found in any element")
        qids = np.argmax(ok, axis=1)
        return self.at_pattern(qids, st[np.arange(len(points)), qids])[0]

    def at_pattern(self, qids, pat):
        """Values (P,) and physical gradients (P, 2) at pattern points.

        Point k lies in macro quad ``qids[k]`` at pattern coordinates
        ``pat[k]``.  It belongs to the lowest-numbered element of that quad
        that contains it within ``_TOL``, with reference coordinates
        clipped to [0, 1]; the gradient jumps across facets (the TENSOR
        diagonal among them), so this rule fixes the side a point on a
        facet takes.  Points go in blocks of ``_POINTS``, each tested
        against as many elements at once as ``_TESTS`` allows, so memory
        grows with the number of points, not with points x elements.
        """
        qids = np.asarray(qids, dtype=np.int64)
        pat = np.asarray(pat, dtype=float)
        els = self.mesh.elements
        macro_of = np.array([el.macro_id for el in els], dtype=np.int64)
        tri = np.array([el.shape == "t" for el in els])
        origin = np.empty((len(els), 2))
        inv = np.empty((len(els), 2, 2))
        for shape in ("r", "t"):
            ids, place = element_placements(self.mesh, shape)
            origin[ids], inv[ids] = place.origin, place.inv
        members = {qid: np.flatnonzero(macro_of == qid) for qid in np.unique(qids)}

        vals = np.empty(len(pat))
        grads = np.empty((len(pat), 2))
        for lo in range(0, len(pat), _POINTS):
            sl = slice(lo, lo + _POINTS)
            q, p = qids[sl], pat[sl]
            eids = np.empty(len(p), dtype=np.int64)
            ref = np.empty((len(p), 2))
            for qid in np.unique(q):
                todo, cand = np.flatnonzero(q == qid), members[qid]
                while todo.size and cand.size:
                    test, cand = np.split(cand, [max(1, _TESTS // todo.size)])
                    d = p[todo, None, :] - origin[test]
                    r0 = d[..., 0] * inv[test, 0, 0] + d[..., 1] * inv[test, 0, 1]
                    r1 = d[..., 0] * inv[test, 1, 0] + d[..., 1] * inv[test, 1, 1]
                    top = np.where(tri[test], r0, 1.0)
                    inside = (r0 >= -_TOL) & (r0 <= 1.0 + _TOL) & (r1 >= -_TOL) & (r1 <= top + _TOL)
                    hit = inside.any(axis=1)
                    first = inside[hit].argmax(axis=1)
                    eids[todo[hit]] = test[first]
                    ref[todo[hit]] = np.column_stack([r0[hit, first], r1[hit, first]])
                    todo = todo[~hit]
                if todo.size:
                    raise ValueError(
                        f"{todo.size} points not located in macro quad {qid}; "
                        "fields must share the macro layout"
                    )
            ref = np.clip(ref, 0.0, 1.0)
            v = np.empty(len(p))
            gref = np.empty((len(p), 2))
            for shape in ("r", "t"):
                sel = np.flatnonzero(tri[eids] == (shape == "t"))
                basis = _basis_for(shape, self.q)
                used, row = np.unique(eids[sel], return_inverse=True)
                co = self.coeffs[self.dofmap.stacked_dofs(used, basis.ndofs)][row]
                v[sel] = np.einsum("pn,pn->p", basis.eval(ref[sel]), co)
                gref[sel] = np.einsum("pnd,pn->pd", basis.grad(ref[sel]), co)
            # reference -> pattern gradients, then through the macro quad map
            gpat = gref[:, None, :] @ inv[eids]
            vals[sl] = v
            grads[sl] = (gpat @ np.linalg.inv(self.mesh.quad_map(q).jacobian(p)))[:, 0, :]
        return vals, grads


def interpolate(mesh: Mesh, q: int, fn, dofmap: DofMap | None = None) -> DiscreteField:
    """Nodal interpolant of fn(x, y) in the hp space (boundary values kept)."""
    dm = dofmap if dofmap is not None else DofMap(mesh, q)
    pts = dm.dof_points()
    coeffs = np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float)
    return DiscreteField(dm, coeffs)


# ---------------------------------------------------------------------------
# norms


def _integrate(field: DiscreteField, eps, c, diffusion=None, order=None, subtract=None) -> dict:
    """The norm kernel: l2, h1, energy and balanced norms of field - subtract.

    ``subtract(ids, pat, phys)``, when given, returns the values (E, P)
    and physical gradients (E, P, 2) to subtract at the quadrature points
    of the same-shape elements ``ids``, whose pattern and physical
    coordinates are ``pat`` and ``phys`` (E, P, 2).  Quadrature uses
    q + 3 points per direction unless ``order`` overrides it.
    """
    q = field.q
    m = order if order is not None else q + 3
    l2 = h1 = flux_sq = mass = 0.0
    for shape in ("r", "t"):
        pts, w, B, G = _tables(shape, q, m)
        ids, pat, phys, det, invJ = element_geometry(field.mesh, shape, pts)
        ne, (npts, nb) = len(ids), B.shape
        wdet = w * det
        co = field.coeffs[field.dofmap.stacked_dofs(ids, nb)]
        vals = co @ B.T
        gref = (co @ np.swapaxes(G, 0, 1).reshape(nb, 2 * npts)).reshape(ne, npts, 1, 2)
        grads = (gref @ invJ)[..., 0, :]
        if subtract is not None:
            sub_vals, sub_grads = subtract(ids, pat, phys)
            vals = vals - sub_vals
            grads = grads - sub_grads
        flat = phys.reshape(-1, 2)
        gsq = np.sum(grads * grads, axis=-1)
        l2 += float(np.sum(wdet * vals * vals))
        h1 += float(np.sum(wdet * gsq))
        flux = grads
        if diffusion is not None:
            Ap = np.asarray(diffusion(flat), dtype=float).reshape(ne, npts, 2, 2)
            flux = (grads[..., None, :] @ Ap)[..., 0, :]
        flux_sq += float(np.sum(wdet * np.sum(flux * grads, axis=-1)))
        mass += float(np.sum(wdet * _field_at(c, flat).reshape(ne, npts) * vals * vals))
    return {
        "l2": math.sqrt(l2),
        "h1": math.sqrt(h1),
        "energy": math.sqrt(eps * eps * flux_sq + mass),
        "balanced": math.sqrt(eps * h1 + l2),
    }


def energy_norm(field: DiscreteField, eps: float, c, diffusion=None, order=None) -> float:
    """sqrt(eps^2 (A grad u, grad u) + (c u, u))."""
    return _integrate(field, eps, c, diffusion, order)["energy"]


def error_norms(
    field: DiscreteField,
    exact,
    exact_grad,
    eps: float,
    c,
    diffusion=None,
    order=None,
) -> dict:
    """Norms of u_h - u for a smooth exact solution.

    Returns l2, h1 seminorm, the energy norm
    sqrt(eps^2 |A^(1/2) grad e|^2 + |c^(1/2) e|^2), and the balanced norm
    sqrt(eps |grad e|^2 + |e|^2).
    """

    def exact_at(ids, pat, phys):
        flat = phys.reshape(-1, 2)
        grads = np.broadcast_to(exact_grad(flat[:, 0], flat[:, 1]), flat.shape)
        return _field_at(exact, flat).reshape(phys.shape[:2]), grads.reshape(phys.shape)

    return _integrate(field, eps, c, diffusion, order, subtract=exact_at)
