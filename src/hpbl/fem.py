"""Continuous hp finite elements on refined macro meshes.

Degrees of freedom follow the nodal bases: one per mesh node, q-1 per
facet and the rest interior to elements (``DofMap``).  Edge restrictions
of both the tensor and the triangle basis are univariate Lagrange
interpolants on Gauss-Lobatto points of the same degree, which makes the
glued space H1-conforming also across the rectangle/triangle interfaces
inside the patterns.

The problem is eps^2 (A grad u, grad v) + (c u, v) = (f, v), u = 0 on
the boundary, with A a symmetric 2x2 diffusion field (identity when
omitted).  Element geometry comes batched per shape from
``macro.element_geometry``: one Jacobian per element where the macro
quads are parallelograms (every built-in layout), else one per point,
applied to row vectors by ``_times``.  Per-point work runs on x and y
planes, (E, P) each; (..., 2) arrays stay at API boundaries and in
matmuls.  ``error_norms`` and ``DiscreteField.difference_norms`` share
one norm kernel, ``_at_points`` and ``_integrals``, and
``DiscreteField.at_pattern`` is the one point locator.

Solves work class by class: the geometric meshes repeat a few pattern
elements under a few macro maps, so ``assemble`` condenses the bubbles
once per class of equal elements, and the skeleton CG is preconditioned
by vertex-star blocks (``hpbl.stars``), one per class of equal stars
(237 for the 562 stars of the slit's q = 6 reference mesh).  A
``DofMap`` keeps what of its (mesh, q) does not depend on eps, so the
cells of a study that share a mesh form it once.  The skeleton matrix
is never formed: CG applies it element by element from copies of the
class Schur complements (``_Skeleton``), so solves need numpy alone.
``hpbl.stars`` loads with the first ``DofMap``, so commands that build
none (``hpbl mesh``, ``fit``, ``--help``) do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gausslobatto import read_only
from .macro import (REF_CORNERS, Mesh, element_geometry, element_points, inverse_2x2,
                    jacobian_points, placement_for)
from .meshcheck import facet_incidence
from .reference import rect_basis, rect_quadrature, tri_basis, tri_quadrature

__all__ = [
    "DofMap",
    "LinearSystem",
    "DiscreteField",
    "assemble",
    "solve_cg",
    "interpolate",
    "error_norms",
]


def _basis_for(shape: str, q: int):
    return rect_basis(q) if shape == "r" else tri_basis(q)


@lru_cache(maxsize=64)
def _tables(shape: str, q: int, m: int):
    """Quadrature points (P, 2) and weights (P,), m per direction, and the
    basis values (P, nbasis) and gradients (P, nbasis, 2) there from one
    ``tabulate`` pass; every array is shared and read-only."""
    pts, w = rect_quadrature(m) if shape == "r" else tri_quadrature(m)
    return pts, w, *read_only(*_basis_for(shape, q).tabulate(pts))


@lru_cache(maxsize=64)
def _ref_blocks(shape: str, q: int):
    """Blocks of the reference element at q + 2 points per direction: the
    stiffness matrices R_ab = G_a^T diag(w) G_b flattened to (4, nb^2), row
    2 a + b, and the mass matrix M_ref = B^T diag(w) B.  An affine element
    with constant c and A = I has the block eps^2 sum_ab (det J^-1 J^-T)_ab
    R_ab + c det M_ref (Kirby & Logg, ACM TOMS 32, 2006).  Plain matmuls:
    both shapes at q = 1..7 take 0.5 ms in a fresh process, an einsum
    4.3 ms (2-core box), which every command pays again."""
    _, w, B, G = _tables(shape, q, q + 2)
    Ga = np.moveaxis(G, 2, 0)  # (2, P, nb)
    R = (np.swapaxes(Ga, 1, 2) * w)[:, None] @ Ga[None]  # (2, 2, nb, nb)
    return read_only(R.reshape(4, -1), (B.T * w) @ B)


@lru_cache(maxsize=64)
def _split(shape: str, q: int):
    """The interior (bubble) basis ids and the interface ids, sorted; read-only."""
    basis = _basis_for(shape, q)
    interface = np.ones(basis.ndofs, dtype=bool)
    interface[basis.interior_ids] = False
    return read_only(basis.interior_ids, np.flatnonzero(interface))


_POINTS = 4096  # points located and evaluated together
_ENTRIES = 1 << 16  # element-matrix entries formed and condensed together
_TOL = 1e-9  # containment slack in reference coordinates
_NOT_FINITE = "assembled matrix or load vector is not finite; check c, f and diffusion"


class DofMap:
    """Global numbering: mesh nodes, then facet interiors, then bubbles.

    ``dofs[shape]`` is the (E, nbasis) table of global dofs of the
    elements of one shape, row k for the k-th such element in element
    order (the order of the ids from ``element_geometry``).  Facets are
    the sorted (min, max) node pairs of ``facet_incidence``; facet f owns
    dofs nv + (q-1) f + [0, q-1), read backwards by an element that
    traverses it from its higher-numbered node.  Bubbles follow in
    element order.  The facets used once carry the Dirichlet condition.
    ``stars`` and ``corners`` are the skeleton preconditioner's vertex
    stars and where each element corner lies in them (``stars.layout``).
    """

    def __init__(self, mesh: Mesh, q: int):
        if q < 1:
            raise ValueError("polynomial degree must be at least 1")
        self.mesh = mesh
        self.q = q
        nv = len(mesh.nodes)
        facets = facet_incidence(mesh)

        def facet_dofs(f):
            return nv + (q - 1) * f[..., None] + np.arange(q - 1)

        self.nskeleton = nv + (q - 1) * len(facets.pairs)  # node and facet dofs; bubbles follow
        nbubble = {s: len(_basis_for(s, q).interior_ids) for s in mesh.conn}
        counts = np.empty(mesh.element_count(), dtype=np.int64)
        for s, ids in mesh.eid.items():
            counts[ids] = nbubble[s]
        first = self.nskeleton + np.cumsum(counts) - counts  # each element's first bubble
        self.ndofs = self.nskeleton + int(counts.sum())

        self.dofs = {}
        for s, t in mesh.conn.items():  # edge k of an element runs from node k to node k + 1
            basis = _basis_for(s, q)
            gd = np.empty((len(t), basis.ndofs), dtype=np.int64)
            gd[:, basis.corner_ids] = t
            edge = facet_dofs(facets.facet[np.isin(facets.elem, mesh.eid[s])].reshape(t.shape))
            edge = np.where((t > np.roll(t, -1, axis=1))[..., None], edge[..., ::-1], edge)
            gd[:, np.array([e[1:-1] for e in basis.edge_ids])] = edge
            gd[:, basis.interior_ids] = first[mesh.eid[s]][:, None] + np.arange(nbubble[s])
            self.dofs[s] = gd

        once = np.flatnonzero(facets.count == 1)
        dirichlet = np.zeros(self.ndofs, dtype=bool)
        dirichlet[facets.pairs[once]] = True
        dirichlet[facet_dofs(once)] = True
        self.dirichlet = dirichlet
        self.free = np.nonzero(~dirichlet)[0]
        self.free_index = np.full(self.ndofs, -1, dtype=np.int64)
        self.free_index[self.free] = np.arange(len(self.free))
        from .stars import layout  # loaded with the first DofMap

        self.stars, self.corners = layout(self, facets.pairs)
        self._points = None
        self._classes = None  # ((c, diffusion), ``_classes``) of the last assemble
        self._norm = {}  # shape -> (physical points, w det, inverse Jacobians) at q + 3 points

    @property
    def nfree(self) -> int:
        return len(self.free)

    def classes(self, c, diffusion=None) -> tuple:
        """``_classes``: per shape the ``_ElementClasses`` that ``assemble``
        reads, and their star classes.

        Formed on the first call and kept for later calls with the same
        ``c`` and ``diffusion``, so cells that assemble on one mesh and
        degree share them; callables must not change in between.
        """
        key = (c if callable(c) else float(c), diffusion)
        if self._classes is None or self._classes[0] != key:
            self._classes = None  # the old classes go before the new ones are formed
            self._classes = key, _classes(self, c, diffusion)
        return self._classes[1]

    def norm_geometry(self, shape: str):
        """Physical points (E, P, 2), w det (E, P) and inverse Jacobians
        of one shape's elements at q + 3 points per direction, the points
        of the norm kernel; formed on first use and kept.  The inverse
        Jacobians are (E, 1, 2, 2) where ``element_geometry`` gives one per
        element (parallelogram macro quads), else (E, P, 2, 2)."""
        if shape not in self._norm:
            pts, w = _tables(shape, self.q, self.q + 3)[:2]
            _, _, phys, det, invJ = element_geometry(self.mesh, shape, pts)
            self._norm[shape] = phys, w * det, invJ
        return self._norm[shape]

    def dof_points(self) -> np.ndarray:
        """Physical coordinates of every degree of freedom."""
        if self._points is None:
            pts = np.empty((self.ndofs, 2))
            for shape, gd in self.dofs.items():
                _, bil, pat = element_points(self.mesh, shape, _basis_for(shape, self.q).nodes)
                pts[gd] = bil(pat)
            self._points = pts
        return self._points


def _times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Row vectors (E, P, k, 2) times 2x2 matrices given per point (E, P,
    2, 2) or per element (E, 1, 2, 2), as from ``element_geometry``.  Per
    element it is one matmul over all P k rows of an element, which gives
    the per-point products bit for bit."""
    if mat.shape[1] == rows.shape[1]:
        return rows @ mat
    e, p, k, _ = rows.shape  # explicit sizes: a shape may have no elements
    return (rows.reshape(e, p * k, 2) @ mat[:, 0]).reshape(rows.shape)


def _field_at(fn, pts: np.ndarray) -> np.ndarray:
    """Evaluate a scalar field given as callable f(x, y) or constant."""
    if callable(fn):
        return np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float) * np.ones(len(pts))
    return float(fn) * np.ones(len(pts))


@dataclass
class LinearSystem:
    """The assembled system, condensed onto the skeleton.

    ``matrix`` and ``rhs`` are the Schur complement, as a ``_Skeleton``,
    and the condensed load on the free skeleton dofs, which lead the free
    numbering; the system on all free dofs is never formed.  ``classes``
    holds per shape each element's class (E,) and the classes' Schur
    complements on the interface dofs (classes, nb - ni, nb - ni).
    ``bubbles`` holds per shape the bubble dofs (E, ni), the free index of
    each interface dof (E, nb - ni; the skeleton size where constrained),
    each element's class, X_b = S_ii^-1 S_ib per class and X_l = S_ii^-1
    l_i per element (E, ni), so that u_i = X_l - X_b u_b.  ``stars``
    holds their ``stars.classes``.
    """

    dofmap: DofMap
    matrix: _Skeleton  # free skeleton x free skeleton, symmetric positive definite
    rhs: np.ndarray
    classes: dict
    bubbles: list
    stars: tuple

    def solve(self):
        """Solve the skeleton by CG on the vertex-star blocks of
        ``stars.blocks``, then back-substitute the bubbles.

        Returns (DiscreteField over all dofs, stats); the stats describe
        the skeleton solve.
        """
        from .stars import blocks

        x, iters, relres = solve_cg(self.matrix, self.rhs, stars=blocks(self))
        return self.field(x), {"iterations": iters, "relres": relres}

    def field(self, x: np.ndarray) -> DiscreteField:
        """The field whose free skeleton dofs hold ``x``, bubbles back-substituted."""
        coeffs = np.zeros(self.dofmap.ndofs)
        coeffs[self.dofmap.free[: len(x)]] = x
        xb = np.append(x, 0.0)  # a constrained dof's free index reads the trailing 0
        for dofs, fb, cls, Xb, Xl in self.bubbles:
            for e in _chunks(len(dofs), max(2, _ENTRIES // (Xb.shape[1] * Xb.shape[2]))):
                coeffs[dofs[e]] = Xl[e] - (Xb[cls[e]] @ xb[fb[e]][..., None])[..., 0]
        return DiscreteField(self.dofmap, coeffs)


class _Skeleton:
    """The skeleton matrix, applied element by element (Hughes, Levit &
    Winget, Comput. Methods Appl. Mech. Engrg. 36, 1983).

    ``blocks`` holds per shape the free indices (E, k) of the interface
    dofs, constrained ones sent to the padding slot n, and each element's
    copy of its class Schur complement (E, k, k).  ``A @ x`` gathers x,
    with a 0 in the padding slot, per element, multiplies once per shape
    and sums by one ``np.bincount``; ``nnz`` is the number of block
    entries one product multiplies.
    """

    def __init__(self, n: int, blocks):
        self.shape = (n, n)
        self.blocks = blocks
        self.at = np.concatenate([fb.ravel() for fb, _ in blocks])
        self.nnz = sum(S.size for _, S in blocks)

    def _sum(self, per_element) -> np.ndarray:
        y = np.bincount(self.at, weights=np.concatenate(per_element), minlength=self.shape[0] + 1)
        return y[:-1]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.append(x, 0.0)
        return self._sum([(S @ x[fb][..., None]).ravel() for fb, S in self.blocks])

    def diagonal(self) -> np.ndarray:
        return self._sum([np.diagonal(S, axis1=1, axis2=2).ravel() for _, S in self.blocks])


def _not_positive_definite(S: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return True
    return False


def _chunks(n: int, step: int):
    """Slices covering range(n) in steps of ``step``, a one-element remainder
    joining the last: numpy takes another matmul kernel for the strided S_bi
    of a one-element batch, which moves the last bits."""
    edges = [*range(0, max(n - 1, 1), step), n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


@dataclass
class _ElementClasses:
    """The elements of one shape at q + 2 points per direction, sorted into
    classes whose keys are bitwise equal.

    ``phys`` (E, P, 2) and ``wdet`` (E, P) are the physical points and
    w det.  ``key`` (classes, 5 P') is laid out like the Jacobians: per
    element (P' = 1) where they are per element, c is a constant and
    there is no diffusion field, holding det J^-1 J^-T (4) and c det (1),
    which ``assemble`` combines with ``_ref_blocks``; else per point (P'
    = P), holding w det J^-1 A J^-T (4 P) and c w det (P) for quadrature.
    The rows of J^-1 are multiplied by J^-T in ``_times`` either way.
    ``first`` each class's first element, ``cls`` each element's class,
    ``order`` the elements class by class and ``start`` (classes + 1)
    where each class begins in ``order``.
    """

    phys: np.ndarray
    wdet: np.ndarray
    key: np.ndarray
    first: np.ndarray
    cls: np.ndarray
    order: np.ndarray
    start: np.ndarray


def _classes(dofmap: DofMap, c, diffusion) -> tuple:
    """``_ElementClasses`` per shape and their ``stars.classes``;
    ValueError names the lowest element with a non-positive Jacobian.
    The inverse Jacobians go once the keys are formed."""
    from . import stars

    mesh, q = dofmap.mesh, dofmap.q
    geo = {s: element_geometry(mesh, s, _tables(s, q, q + 2)[0]) for s in ("r", "t")}
    bad = [ei for ids, _, _, det, _ in geo.values() for ei in ids[np.any(det <= 0.0, axis=1)]]
    if bad:
        raise ValueError(f"element {min(bad)} has a non-positive Jacobian")
    out = {}
    for shape in ("r", "t"):
        _, _, phys, det, invJ = geo.pop(shape)
        wdet = _tables(shape, q, q + 2)[1] * det
        ne, npts = wdet.shape
        # per element where the block is the reference one: an affine map, constant c, A = I
        affine = invJ.shape[1] == 1 and diffusion is None and not callable(c)
        scale = det if affine else wdet  # the weights go into the reference blocks
        nk = scale.shape[1]
        flat = phys.reshape(-1, 2)
        key = np.empty((ne, 5 * nk))
        wJ = scale[..., None, None] * invJ
        if diffusion is not None:
            wJ = wJ @ np.asarray(diffusion(flat), dtype=float).reshape(ne, npts, 2, 2)
        key[:, : 4 * nk] = _times(wJ, np.swapaxes(invJ, -1, -2)).reshape(ne, 4 * nk)
        del wJ, invJ
        key[:, 4 * nk :] = (float(c) if affine else _field_at(c, flat).reshape(ne, npts)) * scale
        key += 0.0  # -0.0 and 0.0 alike
        _, first, cls = np.unique(key.view(np.dtype((np.void, key.itemsize * key.shape[1])))[:, 0],
                                  return_index=True, return_inverse=True)
        out[shape] = _ElementClasses(phys, wdet, key[first], first, cls,
                                     np.argsort(cls, kind="stable"),
                                     np.concatenate([[0], np.cumsum(np.bincount(cls))]))
    return out, stars.classes(dofmap, {s: cl.cls for s, cl in out.items()})


def assemble(
    mesh: Mesh,
    q: int,
    eps: float,
    c,
    f,
    diffusion=None,
    dofmap: DofMap | None = None,
) -> LinearSystem:
    """Assemble eps^2 (A grad u, grad v) + (c u, v) = (f, v), condensed
    onto the free skeleton dofs.

    ``c`` and ``f`` are scalar fields (constants or callables f(x, y));
    ``diffusion`` maps quadrature points to (n, 2, 2) symmetric matrices,
    or is None for the identity.  Quadrature uses q + 2 points per
    direction.  The element bubbles are condensed out block by block; a
    bubble block that is not positive definite raises ``RuntimeError``
    naming the lowest such element, after every block was checked to be
    finite.  The physical points, w det and classes do not depend on eps
    or f: given the ``dofmap`` of (mesh, q), assemble takes them, with
    their star classes, from ``DofMap.classes``, which keeps them for
    the next call.  Without one it builds its own DofMap and keeps
    nothing, so a field that outlives its solve holds no element data.

    The elements of a shape fall into classes whose keys are bitwise equal
    (``_ElementClasses``); a class's block comes from the reference blocks
    (``_ref_blocks``) on affine elements with a constant c and no diffusion
    field, else by quadrature.  A class's block is formed, checked for finite
    entries and a positive definite bubble block, and condensed once; its
    Schur complement and X_b = S_ii^-1 S_ib go on the system.  What stays
    per element is the load, X_l = S_ii^-1 l_i, the condensed load l_b -
    X_b^T l_i (S is symmetric) and the element's copy of its class's Schur
    complement, which the skeleton matrix (``_Skeleton``) multiplies.
    Classes run in chunks of about ``_ENTRIES`` block entries (and at
    least two blocks), and the elements of each chunk of classes, class by
    class, again in such chunks.  Peak memory is the returned system (8
    bytes per element Schur complement entry in the skeleton matrix), the
    element classes, and one chunk's blocks, a few times ``_ENTRIES``
    doubles.  No entry depends on the chunk size.
    """
    if dofmap is None:
        dofmap = DofMap(mesh, q)
        classes, stars = _classes(dofmap, c, diffusion)  # nothing to share them with
    elif dofmap.mesh is mesh and dofmap.q == q:
        classes, stars = dofmap.classes(c, diffusion)
    else:
        raise ValueError("dofmap belongs to another mesh or degree")
    eps2 = eps * eps

    # per shape: free indices of the interface dofs, nskel where constrained
    nskel = int(np.searchsorted(dofmap.free, dofmap.nskeleton))
    slot = np.where(dofmap.free_index >= 0, dofmap.free_index, nskel)
    fbs = {s: slot[dofmap.dofs[s][:, _split(s, q)[1]]] for s in classes}
    bs = np.zeros(nskel + 1)
    schurs, bubbles, bad = {}, [], []
    for shape, cl in classes.items():
        _, _, B, G = _tables(shape, q, q + 2)
        (ii, ib), fb = _split(shape, q), fbs[shape]
        ids, (ne, npts), nb, ni = mesh.eid[shape], cl.wdet.shape, B.shape[1], ii.size
        load = (_field_at(f, cl.phys.reshape(-1, 2)).reshape(ne, npts) * cl.wdet) @ B
        if not np.all(np.isfinite(load)):
            raise ValueError(_NOT_FINITE)
        key, first, cls = cl.key, cl.first, cl.cls

        per_element = key.shape[1] == 5
        if per_element:
            R, M = _ref_blocks(shape, q)
        else:
            Gs = np.swapaxes(G, 1, 2)
            Gt = Gs.reshape(2 * npts, nb).T
        Xb, Xl = np.empty((len(first), ni, ib.size)), np.empty((ne, ni))
        schurs[shape] = cls, np.empty((len(first), ib.size, ib.size))
        cload = load[:, ib]
        step = max(2, _ENTRIES // (nb * nb))
        for k in _chunks(len(first), step):
            if per_element:  # stiffness sum_ab (det J^-1 J^-T)_ab R_ab, mass c det M_ref
                S = eps2 * (key[k, :4] @ R).reshape(-1, nb, nb) + key[k, 4, None, None] * M
            else:
                # stiffness G^T (w det J^-1 A J^-T) G, with G stacked as (points x 2, nbasis)
                K = Gt @ (key[k, : 4 * npts].reshape(-1, npts, 2, 2) @ Gs).reshape(-1, 2 * npts, nb)
                S = eps2 * K + (B.T * key[k, None, 4 * npts :]) @ B  # + mass
                del K  # before the next chunk forms its stiffness
            S = 0.5 * (S + np.swapaxes(S, 1, 2))
            if not np.all(np.isfinite(S)):
                raise ValueError(_NOT_FINITE)

            # static condensation: S_bb - S_bi X_b, with [X_b | S_ii^-1] = S_ii^-1 [S_ib | I]
            schur = S[:, ib[:, None], ib]
            if ni:
                Sii, Sbi = S[:, ii[:, None], ii], S[:, ib[:, None], ii]
                if _not_positive_definite(Sii):
                    bad += [ids[first[k][j]] for j in range(len(Sii))
                            if _not_positive_definite(Sii[j])]
                    continue
                eye = np.broadcast_to(np.eye(ni), Sii.shape)
                Y = np.linalg.solve(Sii, np.concatenate([np.swapaxes(Sbi, 1, 2), eye], 2))
                Xb[k] = Y[:, :, : ib.size]
                schur = schur - Sbi @ Y[:, :, : ib.size]
                schur = 0.5 * (schur + np.swapaxes(schur, 1, 2))
            schurs[shape][1][k] = schur

            if not ni:
                continue
            members = cl.order[cl.start[k.start] : cl.start[k.stop]]
            for e in _chunks(len(members), step):
                el = members[e]
                li = load[el][:, ii]
                Xl[el] = (Y[cls[el] - k.start, :, ib.size :] @ li[..., None])[..., 0]
                cload[el] -= (li[:, None, :] @ Xb[cls[el]])[:, 0]
        if ni:
            bubbles.append((dofmap.dofs[shape][:, ii], fb, cls, Xb, Xl))
        bs += np.bincount(fb.ravel(), weights=cload.ravel(), minlength=nskel + 1)
    if bad:
        raise RuntimeError(f"element {min(bad)} has a bubble block that is not positive definite")
    skeleton = _Skeleton(nskel, [(fbs[s], S[cls]) for s, (cls, S) in schurs.items()])
    return LinearSystem(dofmap, skeleton, bs[:nskel], schurs, bubbles, stars)


def solve_cg(A, b: np.ndarray, stars, tol: float = 1e-12, maxiter=None):
    """Conjugate gradients, preconditioned by additive Schwarz on stars.

    ``A`` needs ``A @ x`` and ``A.diagonal()``.  ``stars`` holds per star
    size s the indices of the stars (m, s), the distinct blocks (k, s, s)
    and the block of each star (m,); the preconditioner is z = sum_v R_v^T
    A_v^-1 R_v r over the stars v, with A_v the dense block of A on a
    star's indices (overlapping vertex stars: Pavarino, Numer. Math. 66,
    1994).  Each distinct block is inverted once per call, batched, and
    the inverses are gathered per star for the apply.  The stopping rule
    is the unpreconditioned ||r|| / ||b|| <= tol.  Returns (x, iterations,
    relative residual); raises if the tolerance is not reached within the
    iteration cap, and at once on breakdown (a non-finite residual, a
    singular star block, r.z <= 0 or p.Ap <= 0).
    """
    n = len(b)
    if maxiter is None:
        maxiter = max(1000, 10 * n)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0
    if np.any(A.diagonal() <= 0.0):
        raise ValueError("matrix diagonal must be positive")
    if not math.isfinite(bnorm):
        raise RuntimeError("cg breakdown at iteration 1: residual is not finite")
    blocks = []  # per star size: indices (m, s) and inverse blocks (m, s, s)
    for D, S, which in stars:
        try:  # intp indices: numpy would cast int32 ones at every gather and bincount
            blocks.append((D.astype(np.intp), np.linalg.inv(S)[which]))
        except np.linalg.LinAlgError:
            raise RuntimeError("cg breakdown at iteration 1: preconditioner is singular") from None
    at = np.concatenate([D.ravel() for D, _ in blocks])

    def precondition(r):
        y = [(inv @ r[D][..., None]).ravel() for D, inv in blocks]
        return np.bincount(at, weights=np.concatenate(y), minlength=n)

    x = np.zeros(n)
    r = b.copy()
    relres = 1.0
    for it in range(1, maxiter + 1):
        z = precondition(r)
        rz_new = float(r @ z)
        if not rz_new > 0.0:
            raise RuntimeError(
                f"cg breakdown at iteration {it}: preconditioner not positive definite")
        p = z if it == 1 else z + (rz_new / rz) * p
        rz = rz_new
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
    raise RuntimeError(f"cg failed to converge: relres={relres:.3e} after {maxiter} iterations")


class DiscreteField:
    """A function in the hp space, stored by its global coefficients."""

    def __init__(self, dofmap: DofMap, coeffs: np.ndarray):
        self.dofmap = dofmap
        self.mesh = dofmap.mesh
        self.q = dofmap.q
        self.coeffs = np.asarray(coeffs, dtype=float)
        self._fine = None  # ((c, diffusion), _FineSide) of the last difference_norms call

    def at_pattern(self, qids, pat, same=None):
        """Values (P,) and pattern-frame gradients (P, 2) at pattern points.

        Point k lies in macro quad ``qids[k]`` at pattern coordinates
        ``pat[k]``.  It belongs to the lowest-numbered element of that quad
        that contains it within ``_TOL``, with reference coordinates
        clipped to [0, 1]; the gradient jumps across facets (the TENSOR
        diagonal among them), so this rule fixes the side a point on a
        facet takes.  ``_PatternLocator`` finds that element among the few
        candidates of the point's pattern cell; the bases' point
        ``factors`` are formed once per located point and ``contract``ed
        with the coefficients in blocks of ``_POINTS``: time and memory
        grow with the number of points, not with points x elements.  The
        gradients are taken in the pattern frame; the inverse Jacobian of
        the macro quad map at ``pat`` takes them to physical ones (row
        vector times matrix).

        ``same`` = (first, src) locates and tabulates only the points
        ``first``; point k takes the location of point ``first[src[k]]``,
        its element moved by the two quads' element offsets.  The caller
        vouches that both lie at bitwise-equal pattern coordinates in quads
        that carry one pattern object of this field's mesh, so the result
        is the one without ``same``, where each quad is its own group.
        """
        qids = np.asarray(qids, dtype=np.int64)
        pat = np.asarray(pat, dtype=float)
        first, src = same if same is not None else (np.arange(len(pat)),) * 2
        quad = qids[first]
        loc = _PatternLocator(self.mesh, quad)
        found, ref = loc.locate(quad, pat[first])
        eids = found[src] + (loc.offset[qids] - loc.offset[quad[src]])
        vals = np.empty(len(pat))
        grads = np.empty((len(pat), 2))
        for shape in ("r", "t"):
            basis = _basis_for(shape, self.q)
            at = np.flatnonzero(loc.tri[found] == (shape == "t"))
            table = basis.factors(ref[at])
            row = np.empty(len(first), dtype=np.int64)
            row[at] = np.arange(len(at))
            sel = np.flatnonzero(loc.tri[eids] == (shape == "t"))
            for lo in range(0, len(sel), _POINTS):
                k = sel[lo : lo + _POINTS]
                e = eids[k]
                co = self.coeffs[self.dofmap.dofs[shape][loc.slot[e]]]
                r = row[src[k]]
                vals[k], gref = basis.contract([t[r] for t in table], co)
                grads[k] = (gref[:, None, :] @ loc.inv[e])[:, 0, :]  # reference -> pattern
        return vals, grads

    def difference_norms(self, coarse: DiscreteField, eps: float, c, diffusion=None) -> dict:
        """``error_norms`` of self - coarse, a field on the same macro layout.

        The integral runs over this field's elements at q + 2 points per
        direction.  This field's side of it (``_FineSide``) is formed on
        the first call and kept for later calls with the same ``c`` and
        ``diffusion``, so a reference compared with several coarse fields
        is mapped and evaluated once; its coefficients must not change in
        between.  The
        coarse field is located and tabulated once per pair of patterns
        that a macro quad carries in the two meshes.
        """
        mesh = coarse.mesh
        if not (np.array_equal(self.mesh.oriented, mesh.oriented)
                and np.array_equal(self.mesh.macro.nodes, mesh.macro.nodes)):
            raise ValueError("fields live on different macro layouts")
        key = (c if callable(c) else float(c), diffusion)
        if self._fine is None or self._fine[0] != key:
            self._fine = None  # the old side goes before the new one is formed
            self._fine = key, _FineSide(self, c, diffusion)
        return self._fine[1].norms(coarse, eps)


class _FineSide:
    """A field's side of the norms of its difference with coarser fields.

    At q + 2 quadrature points per direction on the field's elements,
    rectangles first: each point's macro quad ``qids`` (N,) and pattern
    coordinates ``pat`` (N, 2), and per shape the macro map's inverse
    Jacobians, (E, 1, 2, 2) on parallelogram quads (``jacobian_points``),
    else (E, P, 2, 2), w det and, from ``_at_points``, the field's values
    and physical gradients, c w det (c itself for a constant c) and A (None
    without a diffusion field).
    Physical points and element Jacobians are dropped once used.

    Elements are numbered quad by quad, so a shape's points of a quad are
    one slice, ``start``/``count`` (2, Q), and quads that share a pattern
    object (``patterns``, the mesh's list) hold bitwise-equal pattern
    points in the same order.  ``norms`` locates and tabulates a coarse
    field only in the first quad of each (fine, coarse) pattern pair,
    through one ``at_pattern`` call.
    """

    def __init__(self, field: DiscreteField, c, diffusion):
        mesh, q = field.mesh, field.q
        sizes = [len(mesh.eid[s]) * len(_tables(s, q, q + 2)[1]) for s in ("r", "t")]
        self.qids = np.empty(sum(sizes), dtype=np.int64)
        self.pat = np.empty((sum(sizes), 2))
        self.patterns = mesh.patterns
        self.count = np.empty((2, len(mesh.patterns)), dtype=np.int64)
        self.parts = []
        end = 0
        for i, (shape, n) in enumerate(zip(("r", "t"), sizes)):
            pts, w = _tables(shape, q, q + 2)[:2]
            _, pat, phys, det, invJ = element_geometry(mesh, shape, pts)
            wdet = w * det
            vals, grads, cw, A = _at_points(field, shape, q + 2, phys, wdet, invJ, c, diffusion)
            del phys, invJ
            bil = mesh.quad_map(mesh.macro_id[shape][:, None])
            _, jinv = inverse_2x2(bil.jacobian(jacobian_points(mesh, shape, pat)))
            sl = slice(end, end + n)
            self.qids[sl] = np.repeat(mesh.macro_id[shape], len(w))
            self.pat[sl] = pat.reshape(n, 2)
            self.count[i] = len(w) * np.bincount(mesh.macro_id[shape], minlength=len(mesh.patterns))
            self.parts.append((sl, jinv, wdet, cw, A, vals, grads))
            end = sl.stop
        self.start = np.cumsum(self.count).reshape(self.count.shape) - self.count

    def norms(self, coarse: DiscreteField, eps: float) -> dict:
        cvals, cgrads = coarse.at_pattern(self.qids, self.pat, self._same(coarse.mesh))
        sums = np.zeros(4)
        for sl, jinv, wdet, cw, A, vals, grads in self.parts:
            v = vals - cvals[sl].reshape(vals.shape)
            g = grads - _times(cgrads[sl].reshape(*vals.shape, 1, 2), jinv)[..., 0, :]
            sums += _integrals(wdet, cw, A, v, g)
        return _norm_dict(eps, *sums)

    def _same(self, coarse: Mesh):
        """``at_pattern``'s (first, src) on a coarse mesh: the points of each
        (fine, coarse) pattern pair's first quad, and each point's row
        among them."""
        seen = {}
        rep = np.array([seen.setdefault((id(a), id(b)), qid)
                        for qid, (a, b) in enumerate(zip(self.patterns, coarse.patterns))])
        reps = np.flatnonzero(rep == np.arange(len(rep)))
        count = self.count[:, reps]
        row = np.zeros(self.count.shape, dtype=np.int64)  # where a first quad's points start
        row[:, reps] = np.cumsum(count).reshape(count.shape) - count
        first = _ranges(self.start[:, reps].ravel(), count.ravel())
        return first, _ranges(row[:, rep].ravel(), self.count.ravel())


class _PatternLocator:
    """Point location by pattern cell in the macro quads ``qids`` of a mesh.

    Holds per element, in element order, its shape (``tri``), its row in
    ``DofMap.dofs[shape]`` (``slot``) and its affine placement: a
    ``frame`` row holds the origin, then the inverse matrix (``inv``) row
    by row; and per macro quad of the mesh the id of its first element
    (``offset``), since elements are numbered quad by quad.  Cells, and
    the element corner boxes that pick their candidates, are formed only
    for the quads ``qids``, the ones whose points are located.  The sorted unique x and
    y coordinates of each quad's pattern nodes cut its pattern frame into
    cells, and each element of the quad is a candidate of every cell that
    its corner bounding box touches.  The box is widened by the
    containment slack ``_TOL * sum|mat|``, doubled to cover rounding in
    the reference coordinates, plus a few ulps for rounding in the box
    itself, so a cell's candidates include every element that can contain
    one of its points within ``_TOL``.
    """

    def __init__(self, mesh: Mesh, qids: np.ndarray):
        n = mesh.element_count()
        self.tri = np.empty(n, dtype=bool)
        self.frame = np.empty((n, 6))
        self.slot = np.empty(n, dtype=np.int64)
        macro_of = np.empty(n, dtype=np.int64)
        lo, hi = np.empty((n, 2)), np.empty((n, 2))  # corner boxes, of the quads qids only
        located = np.isin(np.arange(len(mesh.oriented)), qids)
        for shape, corners in REF_CORNERS.items():
            ids, place = mesh.eid[shape], placement_for(shape, mesh.ref[shape])
            self.tri[ids] = shape == "t"
            macro_of[ids] = mesh.macro_id[shape]
            self.frame[ids] = np.column_stack([place.origin, place.inv.reshape(-1, 4)])
            self.slot[ids] = np.arange(len(ids))
            sel = located[mesh.macro_id[shape]]
            mat = place.mat[sel]
            xy = place.origin[sel][:, None, :] + corners @ np.swapaxes(mat, 1, 2)
            widen = 2.0 * _TOL * np.abs(mat).sum(axis=(1, 2)) + 8.0 * np.finfo(float).eps
            lo[ids[sel]] = xy.min(axis=1) - widen[:, None]
            hi[ids[sel]] = xy.max(axis=1) + widen[:, None]
        self.inv = self.frame[:, 2:].reshape(n, 2, 2)
        self.offset = np.searchsorted(macro_of, np.arange(len(mesh.oriented)))  # quad by quad

        self.lines = {}  # quad -> (inner x lines, inner y lines, id of its first cell)
        rows = [np.empty((0, 3), dtype=np.int64)]  # (element, first, last cell) per element x cell
        ncells = 0
        for qid in np.unique(qids):
            # cell i lies between lines i and i + 1; the outer lines only bound the frame
            xs, ys = (np.unique(c)[1:-1] for c in mesh.patterns[qid].nodes.T)
            self.lines[qid] = (xs, ys, ncells)
            m = np.flatnonzero(macro_of == qid)
            x0, x1 = np.searchsorted(xs, lo[m, 0]), np.searchsorted(xs, hi[m, 0], side="right")
            y0, y1 = np.searchsorted(ys, lo[m, 1]), np.searchsorted(ys, hi[m, 1], side="right")
            wx = x1 - x0 + 1
            row = ncells + _ranges(x0, wx) * (len(ys) + 1)
            y0, y1 = np.repeat(y0, wx), np.repeat(y1, wx)
            rows.append(np.column_stack([np.repeat(m, wx), row + y0, row + y1]))
            ncells += (len(xs) + 1) * (len(ys) + 1)
        elem, first, last = np.concatenate(rows).T
        owner = np.repeat(elem, last - first + 1)
        cells = _ranges(first, last - first + 1)
        self.cand = owner[np.lexsort((owner, cells))]  # per cell, ascending element ids
        self.count = np.bincount(cells, minlength=ncells)
        self.start = np.cumsum(self.count) - self.count

    def locate(self, qids: np.ndarray, pat: np.ndarray):
        """Element (P,) and clipped reference coordinates (P, 2) of each point.

        A point's cell comes from two ``searchsorted`` calls; its
        candidates are then tested in ascending element id, one column at
        a time over the points not yet found, in blocks of ``_POINTS``.
        """
        cell = np.empty(len(pat), dtype=np.int64)
        order = np.argsort(qids, kind="stable")
        bounds = np.searchsorted(qids[order], list(self.lines), side="right")
        for (xs, ys, first), k in zip(self.lines.values(), np.split(order, bounds[:-1])):
            # a point on a line takes the cell above it
            ix = np.searchsorted(xs, pat[k, 0], side="right")
            cell[k] = first + ix * (len(ys) + 1) + np.searchsorted(ys, pat[k, 1], side="right")
        eids = np.empty(len(pat), dtype=np.int64)
        ref = np.empty((len(pat), 2))
        for lo in range(0, len(pat), _POINTS):
            todo = np.arange(lo, min(lo + _POINTS, len(pat)))
            x, y = pat[todo, 0], pat[todo, 1]
            start, count = self.start[cell[todo]], self.count[cell[todo]]
            col = 0
            while todo.size:
                lost = todo[count <= col]
                if lost.size:
                    raise ValueError(
                        f"{lost.size} points not located, the first in macro quad "
                        f"{qids[lost[0]]}; fields must share the macro layout"
                    )
                e = self.cand[start + col]
                f = self.frame[e]
                d0, d1 = x - f[:, 0], y - f[:, 1]
                r0 = d0 * f[:, 2] + d1 * f[:, 3]
                r1 = d0 * f[:, 4] + d1 * f[:, 5]
                top = np.where(self.tri[e], r0, 1.0)
                inside = (r0 >= -_TOL) & (r0 <= 1.0 + _TOL) & (r1 >= -_TOL) & (r1 <= top + _TOL)
                eids[todo[inside]] = e[inside]
                ref[todo[inside], 0], ref[todo[inside], 1] = r0[inside], r1[inside]
                out = ~inside
                todo, x, y, start, count = todo[out], x[out], y[out], start[out], count[out]
                col += 1
        return eids, np.clip(ref, 0.0, 1.0)


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integer ranges start[i] + [0, count[i]), concatenated."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def interpolate(mesh: Mesh, q: int, fn, dofmap: DofMap | None = None) -> DiscreteField:
    """Nodal interpolant of fn(x, y) in the hp space (boundary values kept)."""
    dm = dofmap if dofmap is not None else DofMap(mesh, q)
    pts = dm.dof_points()
    coeffs = np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float)
    return DiscreteField(dm, coeffs)


# ---------------------------------------------------------------------------
# norms


def _at_points(field: DiscreteField, shape: str, m: int, phys, wdet, invJ, c, diffusion):
    """A field and the problem data at one shape's points, m per direction,
    given their physical points (E, P, 2), w det (E, P) and inverse
    Jacobians (``element_geometry``): the field's values (E, P) and
    physical gradients (E, P, 2), c w det (E, P) for a callable c, else c
    as a float, and A's entries a00, a01, a10, a11 as (E, P) planes, or
    None without a diffusion field."""
    _, _, B, G = _tables(shape, field.q, m)
    co = field.coeffs[field.dofmap.dofs[shape]]
    ne, (npts, nb) = len(co), B.shape
    G = np.swapaxes(G, 0, 1).reshape(nb, 2 * npts)
    grads = _times((co @ G).reshape(ne, npts, 1, 2), invJ)[..., 0, :]
    flat = phys.reshape(-1, 2)
    A = None
    if diffusion is not None:
        A = np.moveaxis(np.asarray(diffusion(flat), dtype=float).reshape(ne, npts, 4), -1, 0)
    cw = wdet * _field_at(c, flat).reshape(ne, npts) if callable(c) else float(c)
    return co @ B.T, grads, cw, A


def _integrals(wdet, cw, A, v, g) -> np.ndarray:
    """The integrals of v^2, |g|^2, A g . g and c v^2 over one shape's elements,
    from values v (E, P), gradients g (E, P, 2) and ``_at_points``' data; a
    constant c scales the integral of v^2."""
    gx, gy = g[..., 0], g[..., 1]
    h1 = float(np.sum(wdet * (gx * gx + gy * gy)))
    flux = h1
    if A is not None:
        a00, a01, a10, a11 = A
        flux = float(np.sum(wdet * ((gx * a00 + gy * a10) * gx + (gx * a01 + gy * a11) * gy)))
    l2 = float(np.sum(wdet * v * v))
    mass = cw * l2 if isinstance(cw, float) else float(np.sum(cw * v * v))
    return np.array([l2, h1, flux, mass])


def _norm_dict(eps, l2, h1, flux_sq, mass) -> dict:
    """The four norms from the integrals of v^2, |grad v|^2, A grad v . grad v and c v^2."""
    return {
        "l2": math.sqrt(l2),
        "h1": math.sqrt(h1),
        "energy": math.sqrt(eps * eps * flux_sq + mass),
        "balanced": math.sqrt(eps * h1 + l2),
    }


def error_norms(
    field: DiscreteField,
    exact,
    eps: float,
    c,
    diffusion=None,
) -> dict:
    """Norms of u_h - u for a smooth exact solution u, or for u = 0 when
    ``exact`` is None, at q + 3 points per direction (``norm_geometry``).
    ``exact(x, y)`` returns u (N,) and grad u (N, 2) from one evaluation.

    Returns l2, h1 seminorm, the energy norm
    sqrt(eps^2 |A^(1/2) grad e|^2 + |c^(1/2) e|^2), and the balanced norm
    sqrt(eps |grad e|^2 + |e|^2).
    """
    sums = np.zeros(4)
    for shape in ("r", "t"):
        phys, wdet, invJ = field.dofmap.norm_geometry(shape)
        vals, grads, cw, A = _at_points(field, shape, field.q + 3, phys, wdet, invJ, c, diffusion)
        if exact is not None:
            flat = phys.reshape(-1, 2)
            u, du = exact(*flat.T)
            vals = vals - np.broadcast_to(u, len(flat)).reshape(vals.shape)
            grads = grads - np.broadcast_to(du, flat.shape).reshape(phys.shape)
        sums += _integrals(wdet, cw, A, vals, grads)
    return _norm_dict(eps, *sums)
