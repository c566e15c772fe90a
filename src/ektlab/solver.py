"""Finite element solver for constant-mean-curvature graphs over disk charts.

The vertical-graph equation for z = u(x, y) in the cylinder model is the
Euler-Lagrange equation of the convex area functional

    E[u] = integral lambda^2 W dx dy,
    W = sqrt(1 + alpha^2 + beta^2),
    alpha = u_x / lambda + tau y,   beta = u_y / lambda - tau x,

so the solver minimizes E with P1 elements and a damped Newton iteration.
Quadrature uses the three edge midpoints (exact for quadratics), with lambda
frozen at each quadrature point.  The Hessian contribution per quadrature
point is b_i^T (I - v v^T / W^2) b_j / W with v = (alpha, beta), which is
symmetric positive definite, so Newton with an Armijo backtracking line
search converges globally.

Newton is simplified (Deuflhard, Newton Methods for Nonlinear Problems,
ch. 2): the LU factorization of the Hessian is kept for as long as the
iterates contract, Theta = |du_{k+1}| / |du_k| <= 1/4, and refactored as
soon as Theta rises above 1/4.  A stale step solves with an older SPD
Hessian, so it is still a descent direction, and the same Armijo search
and |grad E| < tol stop apply.  Round-off limits what the energy can
show: when the Armijo term _ARMIJO |slope| of a step falls below
eps |E|, a stale step is refactored instead of taken, and a fresh step
is taken whole, because the line search would only compare noise.  The
energy so decreases strictly until that point; the last steps before
|grad E| < tol may move it by a few ulps either way.

Each factorization works in one nested-dissection order per mesh
(George 1973): recursive coordinate bisection over the element edges,
each separator numbered after the two halves it splits, computed for all
parts of one level at once.  The free nodes
are taken in that order, so the Hessian block is assembled already
permuted, and SuperLU factors it symmetrically, without pivoting, which
is safe because the block is SPD.

Each iterate costs one tilt (alpha, beta, W) evaluation.  The assembly
holds the tilt of the last array it evaluated, and the Armijo trial that
is accepted is the next iterate, so its gradient and Hessian reuse the
tilt its energy computed.  The two largest transients of a solve, the
free-free pattern build and the factorization, never meet the held tilt:
the pattern is built before the first tilt, and the Hessian drops the
tilt before its block is factorized.  The element geometry and the
free-free pattern depend on the mesh alone, so a Jenkins-Serrin sweep
builds one assembly per mesh for its whole M schedule, and drops it when
the sweep returns.

The element arrays are stored component-major, as (3, E) rows: the basis
gradients bx, by, the quadrature points qx, qy and lambda there (Anjam and
Valdman, Appl. Math. Comput. 267 (2015) 252-263).  So the tilt, energy,
gradient, Hessian coefficients and H v work on contiguous rows of E
entries, not on strided (E, 3) columns.  The scatters stay element-major:
each element's three gradient or H v entries and nine Hessian entries are
written into an (E, 3) or (E, 3, 3) buffer, so np.bincount and np.add.at
add them element by element, corner by corner, and every sum is added in
the same order whatever the storage layout.

Jenkins-Serrin sweeps solve the same problem for an increasing schedule of
far-side data M with zero data on the two sides through p0.  The first M
starts from the same problem solved on the triangle meshed at 4h and
interpolated onto the fine nodes (nested iteration), or from zeros when
that coarse pass fails.  Each later M starts from the Euler predictor
along the tangent du/dM of the last solution (Allgower and Georg,
Introduction to Numerical Continuation Methods, ch. 2): differentiating
grad_f E(u) = 0 in M gives H_ff du_f = -(H v)_f, where v = du/dM on the
fixed nodes is m_sign on the far side and 0 elsewhere, and one triangular
solve with the last LU of that Newton solve gives du_f.  Truncation nodes
(when an ideal vertex was cut off) carry no data: they stay free (natural
boundary condition).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay, cKDTree

from .spaces import (GeometryError, SpaceParams, build_triangle,
                     conformal_factor_xy, min_metric_distance)
from .mesh import TAGS, TriangulatedDomain, triangulate

__all__ = [
    "SolverError", "GraphSolution",
    "solve_dirichlet", "solve_jenkins_serrin",
    "distance_d", "distance_d_single", "rho_estimate", "rho_estimate_single",
    "richardson_extrapolate",
    "boundary_theta_prime",
    "solution_csv_lines", "solution_report_dict",
]

_ARMIJO = 1e-4
_TOL = 1e-9         # |grad E| over the free nodes that ends Newton
_MAX_ITERS = 60
_T_MIN = 1e-6
_THETA = 0.25       # largest contraction |du_{k+1}| / |du_k| that keeps the LU
_EPS = float(np.finfo(float).eps)
_ND_LEAF = 16       # parts this small are not dissected further
_N_RAYS = 32        # rays of the theta' probe fan over p2


class SolverError(RuntimeError):
    """Solver failure; ``context`` holds the numbers that reproduce it
    (M, iteration, residual, energy, step norm where they apply)."""

    def __init__(self, message: str, **context):
        self.message = message
        self.context = context
        detail = ", ".join(f"{k}={v!r}" for k, v in context.items())
        super().__init__(f"{message} ({detail})" if context else message)


def _tilt(u_x, u_y, lam, x, y, tau: float):
    """Frame components (alpha, beta) and W of the tilt at (x, y), lam = lambda."""
    alpha = u_x / lam + tau * y
    beta = u_y / lam - tau * x
    return alpha, beta, np.sqrt(1.0 + alpha * alpha + beta * beta)


@dataclass
class GraphSolution:
    domain: TriangulatedDomain
    u: np.ndarray
    params: SpaceParams
    residual_norm: float
    newton_iters: int
    M: Optional[float] = None
    discretization_failure: bool = False
    # E at each Newton iterate: strictly decreasing, except within the
    # energy's round-off eps |E| near convergence
    energy_history: List[float] = field(default_factory=list)
    _grads: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None,
                                                            repr=False)

    def _gradients(self) -> Tuple[np.ndarray, np.ndarray]:
        """Nodal chart gradient (area-weighted average of the element
        gradients) and energy gradient of u, both from one assembly."""
        if self._grads is None:
            dom = self.domain
            asm = _Assembly(dom, self.params)
            # corner-major, as one scatter per corner would add them
            idx = dom.elements.T.ravel()
            wt = np.bincount(idx, np.tile(asm.area, 3), dom.n_nodes)
            acc = np.column_stack([
                np.bincount(idx, np.tile(gc * asm.area, 3), dom.n_nodes) / wt
                for gc in asm.element_gradients(self.u)])
            _, g = asm.energy_grad(np.asarray(self.u, dtype=float))
            self._grads = (acc, g)
        return self._grads

    def nu(self) -> np.ndarray:
        """Per-node angle function nu = 1/W from the nodal gradients."""
        g = self._gradients()[0]
        x, y = self.domain.nodes.T
        lam = conformal_factor_xy(x, y, self.params.kappa)
        _, _, w = _tilt(g[:, 0], g[:, 1], lam, x, y, self.params.tau)
        return 1.0 / w


class _Assembly:
    """Precomputed element data for the area functional on one mesh.

    lu is the last LU the last Newton solve on this assembly factored, or
    None.  A Jenkins-Serrin sweep solves with it once, for the tangent of
    that solution, and drops it before the next M's Newton starts; after
    the last M it drops it unused.  Every Newton solve drops the LU it
    finds before it factorizes, so one LU is alive at a time.

    bx, by (the basis gradients), qx, qy (the quadrature points) and lam
    (lambda there) are (3, E) rows: row i is corner i, or the midpoint of
    the edge from corner i to corner i + 1, of every element.
    """

    def __init__(self, domain: TriangulatedDomain, params: SpaceParams):
        self.domain = domain
        self.params = params
        nodes, elems = domain.nodes, domain.elements
        x = nodes[:, 0][elems.T]                            # (3, E)
        y = nodes[:, 1][elems.T]
        area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
        if np.any(area2 <= 0):
            raise SolverError("mesh contains non-CCW or degenerate elements")
        self.area = area2 / 2.0
        # the five rows share one allocation: as five arrays they raised the
        # peak RSS of js-fine by 2.1 MB through heap layout (medians of 12)
        self.bx, self.by, self.qx, self.qy, self.lam = np.empty((5,) + x.shape)
        nxt, prv = [1, 2, 0], [2, 0, 1]
        # grad phi_i = rot90(p_{i+2} - p_{i+1}) / (2A)
        np.divide(-(y[prv] - y[nxt]), area2, out=self.bx)
        np.divide(x[prv] - x[nxt], area2, out=self.by)
        # edge midpoints as quadrature points, weight 1/3 each
        np.divide(x + x[nxt], 2.0, out=self.qx)
        np.divide(y + y[nxt], 2.0, out=self.qy)
        self.lam[...] = conformal_factor_xy(self.qx, self.qy, params.kappa)
        self.elems = elems
        self.n = domain.n_nodes
        self._pattern = None
        self._held = None   # (u, tilt at u) of the last array evaluated
        self.lu = None

    def element_gradients(self, u: np.ndarray):
        """(u_x, u_y) per element, each of shape (E,)."""
        ue = u[self.elems.T]                                # (3, E)
        return _rowsum(ue * self.bx), _rowsum(ue * self.by)

    def _tilted(self, u):
        gx, gy = self.element_gradients(u)
        return _tilt(gx, gy, self.lam, self.qx, self.qy, self.params.tau)

    def _held_tilt(self, u):
        """(alpha, beta, W) at u, held until the next array: an accepted
        Armijo trial is the next iterate, whose gradient and Hessian then
        reuse the tilt its energy computed."""
        if self._held is None or not np.array_equal(self._held[0], u):
            self._held = None  # the old tilt goes before the new one is made
            self._held = (np.array(u, dtype=float), self._tilted(u))
        return self._held[1]

    def _energy(self, w):
        return float(np.sum(self.area / 3.0 * _rowsum(self.lam ** 2 * w)))

    def energy(self, u: np.ndarray) -> float:
        return self._energy(self._held_tilt(u)[2])

    def energy_grad(self, u: np.ndarray):
        alpha, beta, w = self._held_tilt(u)
        coef = self.area / 3.0
        # local gradient: g_i = A/3 sum_q lam_q (alpha_q b_ix + beta_q b_iy) / W_q;
        # one buffer holds each ratio in turn, rounded as coef * (lam a / w)
        t = self.lam * alpha
        t /= w
        t *= coef
        sx = _rowsum(t)
        np.multiply(self.lam, beta, out=t)
        t /= w
        t *= coef
        sy = _rowsum(t)
        del t
        return self._energy(w), self._scatter(sx, sy)

    def _scatter(self, sx, sy):
        """Nodal sums of the element vectors sx b_x + sy b_y.  The products
        are written into an element-major (E, 3) buffer through its
        transpose, so np.bincount adds them element by element, corner by
        corner."""
        out = np.empty(self.elems.shape)
        rows = out.T                                        # (3, E) view
        np.multiply(sx, self.bx, out=rows)
        rows += sy * self.by
        return np.bincount(self.elems.ravel(), weights=out.ravel(),
                           minlength=self.n)

    def _free_pattern(self, free: np.ndarray):
        """CSC pattern of the free-free block and the slot of each element
        entry in it (dropped entries go to the extra slot nnz)."""
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[free] = np.arange(free.size)
        rows = pos[np.repeat(self.elems, 3, axis=1)].ravel()
        cols = pos[np.tile(self.elems, (1, 3))].ravel()
        kept = (rows >= 0) & (cols >= 0)
        # column-major keys, so np.unique sorts the entries into CSC order
        keys, slot = np.unique(cols[kept] * free.size + rows[kept],
                               return_inverse=True)
        slots = np.full(rows.size, keys.size, dtype=np.int32)
        slots[kept] = slot
        indptr = np.zeros(free.size + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // free.size, minlength=free.size),
                  out=indptr[1:])
        return free, (keys % free.size).astype(np.int32), indptr, slots

    def pattern(self, free: np.ndarray):
        """The free-free pattern, built once per free set: once per mesh
        for a Jenkins-Serrin schedule, whose every M fixes the same nodes."""
        if self._pattern is None or not np.array_equal(self._pattern[0], free):
            self._pattern = self._free_pattern(free)
        return self._pattern

    def hessian_vector(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """H(u) v over all nodes, element by element:
        (H_e v_e)_i = b_i . M_e (b^T v_e), with M_e = [[hxx, hxy], [hxy,
        hyy]] as in hessian, so no element block is formed.  Reads the held
        tilt at u and keeps it."""
        # hessian's M_e lines, repeated: a helper shared with hessian frees
        # the tilt before the fill, and under glibc malloc that heap layout
        # raised the peak RSS of `figure sweep-d --H 0.4` by 0.2 MB, and by
        # 0.3 MB again on the (3, E) rows (medians of 8 runs each)
        alpha, beta, w = self._held_tilt(u)
        coef = self.area / 3.0
        w3 = w ** 3
        hxx = _rowsum(coef * (1.0 / w - alpha ** 2 / w3))
        hxy = _rowsum(coef * (-alpha * beta / w3))
        hyy = _rowsum(coef * (1.0 / w - beta ** 2 / w3))
        gx, gy = self.element_gradients(v)
        return self._scatter(hxx * gx + hxy * gy, hxy * gx + hyy * gy)

    def tangent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """du/dM at the solution u of the last Newton solve when its data
        move by v per unit M (v is 0 on the free nodes): du = v, except
        H_ff du_f = -(H v)_f on that solve's free nodes, solved with the
        LU it left (a new one if it left none), which is then dropped."""
        free = self._pattern[0]
        rhs = -self.hessian_vector(u, v)[free]
        lu = self.lu if self.lu is not None else _factorize(self.hessian(u, free))
        self.lu = None
        du = v.copy()
        du[free] = lu.solve(rhs)
        return du

    def hessian(self, u: np.ndarray, free: np.ndarray) -> sp.csc_matrix:
        """Free-free block of the Hessian; the pattern is built once per
        free set and each call fills only the values.  The held tilt is
        dropped: the block goes to a factorization, whose workspace is the
        largest transient of a solve."""
        _, indices, indptr, slots = self.pattern(free)
        alpha, beta, w = self._held_tilt(u)
        self._held = None
        coef = self.area / 3.0
        # M_q = (I - v v^T / W^2) / W per quadrature point (lambda^2 cancels)
        w3 = w ** 3
        hxx = _rowsum(coef * (1.0 / w - alpha ** 2 / w3))
        hxy = _rowsum(coef * (-alpha * beta / w3))
        hyy = _rowsum(coef * (1.0 / w - beta ** 2 / w3))
        bx, by = self.bx, self.by
        # b gradients are constant per element, so sum the quadrature first;
        # h_ij = p_i bx_j + q_i by_j with (p, q) = [[hxx, hxy], [hxy, hyy]] b
        p = hxx * bx + hxy * by
        q = hxy * bx + hyy * by
        # C order, so h.ravel() below is a view: einsum's default output
        # here runs e fastest, and its ravel would copy all 9E entries
        h = np.einsum("ie,je->eij", p, bx, order="C")       # (E, 3, 3)
        h += np.einsum("ie,je->eij", q, by)
        # np.add.at adds in slot order as np.bincount does, without
        # bincount's int64 copy of the 9E int32 slots (1.3 MB on js-fine)
        data = np.zeros(indices.size + 1)
        np.add.at(data, slots, h.ravel())
        return sp.csc_matrix((data[:-1], indices, indptr),
                             shape=(free.size, free.size))


def _rowsum(a: np.ndarray) -> np.ndarray:
    """Sum over the three quadrature points of a (3, E) array: its rows,
    added left to right as the element-major a.T.sum(axis=1) would add
    them, on contiguous rows."""
    return a[0] + a[1] + a[2]


def _nd_order(domain: TriangulatedDomain) -> np.ndarray:
    """Nested-dissection order of all nodes of domain, computed once per
    mesh."""
    return domain.cached("nd_order",
                         lambda: _dissect(domain.nodes, domain.elements))


def _dissect(pts: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Nested-dissection order of the nodes pts of the triangles elements.

    A part of more than _ND_LEAF nodes splits at the median of its longer
    coordinate extent; its separator is the low nodes with a neighbour in
    the high half.  The part is numbered as its low half less the
    separator, then its high half, each ordered the same way, then the
    separator; nodes of a leaf or a separator go by index.  All parts of
    one level split at once: each node collects one base-3 digit per level
    (low 0, high 1, separator 2, and 0 once settled), and the order sorts
    the nodes by those digits.  A level costs a few sorts of its nodes, so
    no per-part arrays are made.
    """
    n = pts.shape[0]
    a, b = elements.ravel(), elements[:, [1, 2, 0]].ravel()
    code = np.zeros(n, dtype=np.int64)
    part = np.zeros(n, dtype=np.int64)
    ids = np.arange(n)      # nodes of the parts still to split
    while True:
        # by part, then by index within a part
        ids = ids[np.argsort(part[ids], kind="stable")]
        p = part[ids]
        first = np.ones(ids.size, dtype=bool)
        first[1:] = p[1:] != p[:-1]
        size = np.diff(np.append(np.flatnonzero(first), ids.size))
        big = size > _ND_LEAF
        ids = ids[np.repeat(big, size)]
        if ids.size == 0:
            return np.argsort(code, kind="stable")
        size = size[big]
        start = np.cumsum(size) - size
        seg = np.repeat(np.arange(size.size), size)
        x = pts[ids]
        ext = np.maximum.reduceat(x, start) - np.minimum.reduceat(x, start)
        coord = np.where((ext[:, 1] > ext[:, 0])[seg], x[:, 1], x[:, 0])
        o = np.lexsort((coord, seg))
        high = np.zeros(n, dtype=bool)
        high[ids[o[np.arange(ids.size) - start[seg] >= (size // 2)[seg]]]] = True
        # the edges inside one part that is still split
        active = np.zeros(n, dtype=bool)
        active[ids] = True
        keep = active[a] & active[b]
        a, b = a[keep], b[keep]
        sep = np.zeros(n, dtype=bool)
        sep[a[high[b] & ~high[a]]] = True
        sep[b[high[a] & ~high[b]]] = True
        code *= 3
        code[ids] += np.where(sep[ids], 2, high[ids])
        part = 2 * part + high
        ids = ids[~sep[ids]]
        keep = ~sep[a] & ~sep[b] & (high[a] == high[b])
        a, b = a[keep], b[keep]


def _factorize(h: sp.csc_matrix):
    """LU of the free-free Hessian block in its given order.

    E is convex, so the block is SPD: symmetric elimination in any order
    meets positive pivots, and SuperLU may keep the nested-dissection order
    (NATURAL) and the diagonal pivots (diag_pivot_thresh = 0) without
    pivoting for stability.  Panels of one column keep SuperLU's dense
    workspace to one column: on these meshes that factors faster and
    lowers the peak memory of a factorization by 1 to 3 MB.  Should
    round-off still break a pivot, the factorization falls back to
    SuperLU's default, partial pivoting in its own column order.
    """
    try:
        return splu(h, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                    panel_size=1, options=dict(SymmetricMode=True))
    except RuntimeError:
        return splu(h)


def _below_roundoff(energy: float, slope: float) -> bool:
    """True when the Armijo term of the full step, _ARMIJO |slope|, lies
    below the round-off eps |E| of the energy, so E cannot rank the step."""
    return -_ARMIJO * slope < _EPS * abs(energy)


def _armijo(asm: _Assembly, u: np.ndarray, free: np.ndarray,
            step: np.ndarray, energy: float, slope: float):
    """u + t step on the free nodes for the first t = 1, 1/2, ... >= _T_MIN
    that passes the Armijo test, or None when none does.  A step whose
    Armijo term lies below the energy's round-off is taken whole: there
    the test compares noise, and E may rise by a few ulps."""
    t = 1.0
    while t >= _T_MIN:
        trial = u.copy()
        trial[free] += t * step
        if (_below_roundoff(energy, slope)
                or asm.energy(trial) <= energy + _ARMIJO * t * slope):
            return trial
        t /= 2.0
    return None


def _newton(asm: _Assembly, u0: np.ndarray, fixed: np.ndarray):
    """Damped simplified Newton from u0 with u[fixed] held; returns
    (u, residual, iterations, energy history).

    The free nodes are taken in the mesh's nested-dissection order.  Each
    iteration first solves with the last LU.  That stale step is taken
    only while the iterates contract, |step| <= _THETA |previous step|,
    and while its Armijo term _ARMIJO |slope| stays above the round-off
    eps |E| of the energy, below which no decrease can show; otherwise the
    Hessian is refactored at u and the step solved again.  A stale step
    whose line search stalls gets one retry with a fresh factorization.
    Stops when |grad E| over the free nodes falls below _TOL.  The energy
    history decreases strictly until a step falls below the round-off of
    E; such a step is taken whole and may change E by a few ulps.  The
    last LU factored is left in asm.lu (None if the start had converged).
    """
    asm.lu = None  # the LU a previous solve left: peak RSS holds one LU
    is_free = np.ones(asm.n, dtype=bool)
    is_free[fixed] = False
    if not is_free.any():
        raise SolverError("no free nodes to solve for")
    order = _nd_order(asm.domain)
    free = order[is_free[order]]
    # the pattern is built before any tilt is held, so the two never overlap
    asm.pattern(free)
    u = u0.copy()
    energies = []
    lu, step_norm = None, 0.0
    for it in range(_MAX_ITERS + 1):
        energy, g = asm.energy_grad(u)
        energies.append(energy)
        rhs = -g[free]
        res = float(np.linalg.norm(rhs))
        if res < _TOL:
            asm.lu = lu
            return u, res, it, energies
        if it == _MAX_ITERS:
            raise SolverError(f"Newton did not reach tol={_TOL:g}",
                              iteration=it, residual=res, energy=energy,
                              step_norm=step_norm)
        last_norm = step_norm
        for fresh in ((True,) if lu is None else (False, True)):
            if fresh:
                lu = None  # free the old factors first: peak RSS holds one LU
                lu = _factorize(asm.hessian(u, free))
            step = lu.solve(rhs)
            step_norm = float(np.linalg.norm(step))
            slope = -float(rhs @ step)
            if not fresh and (step_norm > _THETA * last_norm
                              or _below_roundoff(energy, slope)):
                continue
            trial = _armijo(asm, u, free, step, energy, slope)
            if trial is not None:
                u = trial
                break
        else:
            raise SolverError("line search stalled; Hessian may be inconsistent",
                              iteration=it, residual=res, energy=energy,
                              step_norm=step_norm)


BoundaryValue = Union[float, Callable[[np.ndarray, np.ndarray], np.ndarray]]


def _dirichlet_arrays(domain: TriangulatedDomain,
                      boundary_values: Mapping[str, BoundaryValue]):
    """The fixed nodes in ascending order and their values; a callable is
    evaluated once per tag, on the chart coordinates of its nodes."""
    fixed = np.zeros(domain.n_nodes, dtype=bool)
    vals = np.zeros(domain.n_nodes)
    for t, tag in enumerate(TAGS):
        if tag not in boundary_values:
            continue
        at = domain.tags == t
        v = boundary_values[tag]
        vals[at] = v(*domain.nodes[at].T) if callable(v) else v
        if not np.isfinite(vals[at]).all():
            raise SolverError(f"non-finite Dirichlet value on {tag}")
        fixed |= at
    fixed = np.flatnonzero(fixed)
    return fixed, vals[fixed]


def solve_dirichlet(domain: TriangulatedDomain,
                    boundary_values: Mapping[str, BoundaryValue],
                    params: SpaceParams,
                    initial: Optional[np.ndarray] = None,
                    assembly: Optional[_Assembly] = None) -> GraphSolution:
    """Minimize graph area in the space params subject to per-tag Dirichlet
    data.

    params is required: the mesh holds geometry only.  Tags missing from
    boundary_values stay free (natural boundary).  Values may be reals or
    callables f(x, y), which receive the arrays of chart coordinates of all
    nodes with that tag at once and return one value per node.  assembly,
    when given, is an _Assembly of domain and params kept across solves on
    one mesh; a new one is built otherwise.
    """
    if assembly is None:
        assembly = _Assembly(domain, params)
    elif assembly.domain is not domain or assembly.params != params:
        raise SolverError("the assembly belongs to another mesh or space")
    u, res, iters, energies = _dirichlet_newton(assembly, boundary_values,
                                                initial)
    return GraphSolution(domain=domain, u=u, params=params, residual_norm=res,
                         newton_iters=iters, energy_history=energies)


def _dirichlet_newton(asm: _Assembly,
                      boundary_values: Mapping[str, BoundaryValue],
                      initial: Optional[np.ndarray]):
    """Newton on asm's mesh for per-tag Dirichlet data from initial (zeros
    when None); returns what _newton does."""
    domain = asm.domain
    fixed, vals = _dirichlet_arrays(domain, boundary_values)
    u0 = np.zeros(domain.n_nodes) if initial is None else np.asarray(initial, float).copy()
    if u0.shape != (domain.n_nodes,):
        raise SolverError("initial guess has the wrong shape")
    if fixed.size:
        u0[fixed] = vals
    return _newton(asm, u0, fixed)


def _linear_interpolant(points: np.ndarray, values: np.ndarray):
    """xi -> values interpolated linearly over the Delaunay triangulation
    of points, NaN outside its hull.

    The arithmetic is LinearNDInterpolator's: barycentric c0, c1 from the
    simplex transform, c2 = 1 - c0 - c1, and the three terms summed left
    to right, so the result matches it bit for bit.
    """
    tri = Delaunay(points)

    def at(xi: np.ndarray) -> np.ndarray:
        s = tri.find_simplex(xi)
        t = tri.transform[s]                                # (n, 3, 2)
        dx = xi[:, 0] - t[:, 2, 0]
        dy = xi[:, 1] - t[:, 2, 1]
        c0 = t[:, 0, 0] * dx + t[:, 0, 1] * dy
        c1 = t[:, 1, 0] * dx + t[:, 1, 1] * dy
        v = values[tri.simplices[s]]
        out = c0 * v[:, 0] + c1 * v[:, 1] + (1.0 - c0 - c1) * v[:, 2]
        out[s < 0] = np.nan
        return out
    return at


def _locate(nodes: np.ndarray, triangles: np.ndarray, values: np.ndarray,
            xi: np.ndarray) -> np.ndarray:
    """values interpolated linearly over triangles at the points xi, NaN at
    a point that no triangle holds.

    Only the triangles whose bounding box meets the box of xi are tested,
    and zero-area ones (qhull can emit them on collinear nodes) are skipped.
    Each point takes the triangle whose smallest barycentric coordinate is
    largest, so a point on an edge or at a node takes one of its triangles;
    down to -100 eps counts as inside, as in qhull's find_simplex.  The
    pass holds a (points, triangles) array: meant for a few hundred points
    in a small region.
    """
    out = np.full(xi.shape[0], np.nan)
    p = nodes[triangles]                                    # (T, 3, 2)
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    use = np.abs(det) > 1e-14
    use &= np.all((p.min(axis=1) <= xi.max(axis=0))
                  & (p.max(axis=1) >= xi.min(axis=0)), axis=1)
    if not use.any():
        return out
    p0, e1, e2, det = p[use, 0], e1[use], e2[use], det[use]
    dx = xi[:, :1] - p0[:, 0]                               # (points, triangles)
    dy = xi[:, 1:] - p0[:, 1]
    c1 = (dx * e2[:, 1] - dy * e2[:, 0]) / det
    c2 = (dy * e1[:, 0] - dx * e1[:, 1]) / det
    c0 = 1.0 - c1 - c2
    best = np.argmax(np.minimum(np.minimum(c0, c1), c2), axis=1)
    rows = np.arange(xi.shape[0])
    c0, c1, c2 = c0[rows, best], c1[rows, best], c2[rows, best]
    hit = np.minimum(np.minimum(c0, c1), c2) >= -100.0 * np.finfo(float).eps
    v = values[triangles[use][best]]
    out[hit] = (c0 * v[:, 0] + c1 * v[:, 1] + c2 * v[:, 2])[hit]
    return out


def _coarse_start(domain: TriangulatedDomain,
                  boundary_values: Mapping[str, BoundaryValue],
                  params: SpaceParams) -> Optional[np.ndarray]:
    """Nested-iteration start: the same Dirichlet problem solved from zeros
    on the triangle meshed at 4h, interpolated linearly onto the nodes of
    domain (a node outside the coarse hull takes its nearest coarse node).

    None when the coarse mesh fails or has no free node, or its Newton
    fails: the coarse pass only predicts, so the caller then starts from
    zeros.
    """
    try:
        coarse = triangulate(domain.triangle, 4 * domain.target_h,
                             domain.r_trunc)
        u = _dirichlet_newton(_Assembly(coarse, params), boundary_values,
                              None)[0]
    except (GeometryError, SolverError):
        return None
    guess = _linear_interpolant(coarse.nodes, u)(domain.nodes)
    outside = np.isnan(guess)
    if outside.any():
        guess[outside] = u[cKDTree(coarse.nodes).query(domain.nodes[outside])[1]]
    return guess


def _far_side_distance(domain: TriangulatedDomain,
                       pts: np.ndarray) -> np.ndarray:
    """Metric distance from each of pts to the nearest far-side node."""
    far = domain.nodes[domain.nodes_with_tag("side_p1p2")]
    return min_metric_distance(pts, far, domain.triangle.kappa)


def solve_jenkins_serrin(a: float, b: float, k: int, H: float,
                         M_schedule: Sequence[float], target_h: float,
                         R_trunc: Optional[float] = None,
                         m_sign: int = 1) -> List[GraphSolution]:
    """Solve the triangle problem (0 on the p0 sides, m_sign*M on the far side)
    for an increasing schedule of M.

    The first solve starts from the same problem solved on the triangle
    meshed at 4h (nested iteration), or from zeros when that coarse mesh or
    its Newton fails or it has no free node.  Every later solve starts from
    the Euler predictor u1 + (M - M1) du/dM at the last solution u1, whose
    tangent du/dM is one triangular solve with the last LU of u1's Newton
    (_Assembly.tangent).  Newton corrects the prediction.

    H in [0, 1/2]; H = 0 runs the product-space minimal analogue (kappa = -1,
    tau = 0).  Returns one GraphSolution per M.
    """
    if not (0.0 <= H <= 0.5):
        raise SolverError("H must lie in [0, 1/2]")
    if m_sign not in (1, -1):
        raise SolverError("m_sign must be +1 or -1")
    ms = [float(m) for m in M_schedule]
    if not ms or any(m <= 0 for m in ms) or any(y <= x for x, y in zip(ms, ms[1:])):
        raise SolverError("M_schedule must be positive and strictly increasing")
    params = SpaceParams.from_h(H)
    domain = triangulate(build_triangle(a, b, k, params.kappa), target_h,
                         R_trunc)
    # one assembly for the schedule: every M has the same mesh and free set
    asm = _Assembly(domain, params)
    # du/dM on the fixed nodes: the far side's data is m_sign M
    v = np.where(domain.tags == TAGS.index("side_p1p2"), m_sign, 0.0)
    sols: List[GraphSolution] = []
    for m in ms:
        data = {"side_p0p1": 0.0, "side_p0p2": 0.0, "side_p1p2": m_sign * m}
        if sols:
            guess = sols[-1].u + (m - sols[-1].M) * du_dm
        else:
            guess = _coarse_start(domain, data, params)
        try:
            sol = solve_dirichlet(domain, data, params=params, initial=guess,
                                  assembly=asm)
        except SolverError as exc:
            raise SolverError(exc.message, M=m, **exc.context) from exc
        sol.M = m
        if sols:
            drop = float(np.min((sol.u - sols[-1].u) * m_sign))
            if drop < -1e-8:
                sol.discretization_failure = True
        sols.append(sol)
        if m < ms[-1]:
            du_dm = asm.tangent(sol.u, v)
    asm.lu = None  # no tangent after the last M
    return sols


def _ray_profile(sol: GraphSolution, tag: str):
    """Metric radii and nu along one of the legs through p0.

    nu on the leg is recovered from the variational boundary flux of the
    energy gradient rather than from one-sided nodal gradient averages:
    for a converged solution, the gradient entry at a Dirichlet node equals
    the lumped conormal flux lambda * (alpha, beta) . n / W weighted by the
    hat-function boundary mass.  Both legs are chart rays through the
    origin, so the tangential tilt tau*(y, -x).t vanishes identically and
    nu = sqrt(1 - p^2) with p the normalized flux.  This is second-order
    accurate where the plain nodal average is first-order.
    """
    dom = sol.domain
    idx = dom.nodes_with_tag(tag)
    origin = np.nonzero(dom.node_metric_radius < 1e-12)[0]
    idx = np.concatenate([idx, origin[~np.isin(origin, idx)]])
    order = np.argsort(dom.node_metric_radius[idx])
    idx = idx[order]
    rads = dom.node_metric_radius[idx]
    nu = sol.nu()[idx]

    edges = dom.boundary_edges()
    edges = edges[np.isin(edges, idx).all(axis=1)]
    if len(edges) < 2:
        return rads, nu
    g = sol._gradients()[1]
    lam = conformal_factor_xy(dom.nodes[:, 0], dom.nodes[:, 1], sol.params.kappa)
    # the lambda weight of the flux integrand is pulled out at the node
    weight = _boundary_mass(dom.nodes, edges)
    # the flux is garbage inside the mesh-width layer along the far side
    # (data jump M over one element); fall back to nodal values there
    far = _far_side_distance(dom, dom.nodes[idx])
    # corners (p0; p2 or the truncation crossing) mix fluxes from two
    # boundary pieces, keep the nodal value there
    flux = ~((weight[idx] <= 0) | (far < 8.0 * dom.target_h))
    flux[[0, -1]] = False
    i = idx[flux]
    p = g[i] / (lam[i] * weight[i])
    nu[flux] = np.sqrt(np.maximum(1.0 - p * p, 0.0))
    return rads, nu


def _boundary_mass(nodes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Lumped hat-function mass of the boundary edges (i, j) at each node,
    in the chart measure: half of every edge's length goes to each end,
    summed in edge order, i then j per edge."""
    half = 0.5 * np.hypot(*(nodes[edges[:, 0]] - nodes[edges[:, 1]]).T)
    weight = np.zeros(nodes.shape[0])
    np.add.at(weight, edges.ravel(), np.repeat(half, 2))
    return weight


def distance_d_single(sol: GraphSolution) -> float:
    """Integral of nu along the p0-p2 side, the conjugate arclength d."""
    rads, nu = _ray_profile(sol, "side_p0p2")
    return float(np.trapezoid(nu, rads))


def rho_estimate_single(sol: GraphSolution) -> float:
    """Integral of nu along the p0-p1 side."""
    rads, nu = _ray_profile(sol, "side_p0p1")
    return float(np.trapezoid(nu, rads))


def richardson_extrapolate(vals: Sequence[float]) -> float:
    """Limit estimate from per-M values over an increasing M schedule."""
    # Richardson step from the last two truncation levels: assuming the
    # M-truncation error roughly halves per doubling, the limit sits one
    # increment beyond the final value.
    vals = [float(v) for v in vals]
    if len(vals) == 1:
        return vals[0]
    return 2.0 * vals[-1] - vals[-2]


def _refined(solutions: Sequence[GraphSolution], single) -> float:
    """single over an increasing M schedule, Richardson-refined from the
    last two truncation levels."""
    if not solutions:
        raise SolverError("empty solution sequence")
    return richardson_extrapolate([single(s) for s in solutions[-2:]])


def distance_d(solutions: Sequence[GraphSolution]) -> float:
    """Richardson-refined integral of nu along the p0-p2 side."""
    return _refined(solutions, distance_d_single)


def rho_estimate(solutions: Sequence[GraphSolution]) -> float:
    """distance_d for the p0-p1 side."""
    return _refined(solutions, rho_estimate_single)


def boundary_theta_prime(sol: GraphSolution) -> np.ndarray:
    """Sampled conormal-angle derivative s -> theta'(s) over the vertex p2,
    which must be finite.

    Over p2, where the zero side p0p2 meets the capped side, the level
    curves of u fan out along chart rays, so the horizontal part of the
    graph normal points anti-radially: the angle theta at fiber height s is
    (up to an additive constant) the chart angle of the ray whose height
    intercept is s.  Each of _N_RAYS rays in the fan is probed for u alone;
    the intercept comes from a least-squares line over radii 4h..12h (the
    nodal gradient itself is self-similarly noisy at radii proportional to
    h and never converges there).  theta' is a windowed regression slope of
    the (intercept, ray angle) cloud.  Rows are (s, theta_prime).

    u is interpolated linearly on the Delaunay triangles of the mesh nodes
    (TriangulatedDomain.delaunay_triangles: the elements and the hull fill
    the mesher cut away, so no second triangulation is built), and all
    _N_RAYS x 9 probe points are located in one pass.

    Rays that exit the domain, break intercept monotonicity, or land within
    30% of the data cap are dropped; what survives is the resolved range,
    and fewer than _N_RAYS // 3 survivors raise SolverError.
    """
    dom = sol.domain
    tri = dom.triangle
    if tri.b_infinite:
        raise SolverError("p2 is ideal; no vertex fiber to probe")
    v = np.array(tri.p2)
    h = dom.target_h
    # adjacent boundary directions: toward p0 and along the far side
    d0 = -v / np.hypot(*v)
    far_idx = dom.nodes_with_tag("side_p1p2")
    far_pts = dom.nodes[far_idx]
    dist = np.hypot(*(far_pts - v).T)
    q = far_pts[np.argmin(np.where(dist > 1e-12, dist, np.inf))]
    d1 = (q - v) / np.hypot(*(q - v))
    a0 = math.atan2(d0[1], d0[0])
    a1 = math.atan2(d1[1], d1[0])
    a1 = a0 + ((a1 - a0 + math.pi) % (2.0 * math.pi) - math.pi)
    lam_v = float(conformal_factor_xy(v[0], v[1], tri.kappa))
    rad_metric = h * np.arange(4.0, 12.5, 1.0)
    rad_chart = rad_metric / lam_v
    angs = a0 + np.linspace(0.08, 0.92, _N_RAYS) * (a1 - a0)
    dirs = np.array([[math.cos(ang), math.sin(ang)] for ang in angs])
    pts = v + rad_chart[:, None] * dirs[:, None, :]         # (rays, radii, 2)
    u_rays = _locate(dom.nodes, dom.delaunay_triangles(), sol.u,
                     pts.reshape(-1, 2)).reshape(_N_RAYS, -1)
    u_top = float(np.max(np.abs(sol.u)))
    s0s, th0s = [], []
    s_seen = []
    for ang, uu in zip(angs, u_rays):
        ok = np.isfinite(uu)
        if ok.sum() < 4:
            continue
        s_seen.extend(uu[ok].tolist())
        s0 = np.polyfit(rad_metric[ok], uu[ok], 1)[1]
        if not 0.0 < abs(s0) < 0.7 * u_top:
            continue
        if s0s and abs(s0) <= abs(s0s[-1]):
            continue
        s0s.append(s0)
        th0s.append(ang + math.pi)
    if len(s0s) < _N_RAYS // 3:
        lo = min(s_seen) if s_seen else float("nan")
        hi = max(s_seen) if s_seen else float("nan")
        raise SolverError(
            f"insufficient near-vertex resolution: only {len(s0s)} usable rays; "
            f"sampled heights cover [{lo:.4g}, {hi:.4g}]",
            target_h=h, nodes=dom.n_nodes, rays=_N_RAYS)
    s = np.array(s0s)
    th = np.array(th0s)
    tp = np.empty_like(s)
    for i in range(len(s)):
        lo = max(0, i - 3)
        hi = min(len(s), i + 4)
        tp[i] = np.polyfit(s[lo:hi], th[lo:hi], 1)[0]
    return np.column_stack([s, tp])


def solution_csv_lines(sol: GraphSolution) -> List[str]:
    """CSV dump of the solution: one row per node, full float precision."""
    dom = sol.domain
    tri = dom.triangle
    nu = sol.nu()
    head = [
        f"# a={_side_repr(tri.a)} b={_side_repr(tri.b)} k={tri.k} "
        f"H={sol.params.tau!r} kappa={tri.kappa!r}",
        f"# M={sol.M!r} residual_norm={sol.residual_norm!r} "
        f"newton_iters={sol.newton_iters}",
        "x,y,u,nu,tag",
    ]
    names = TAGS + ("",)  # tag -1, an interior node, prints ""
    x, y = dom.nodes.T
    return head + [f"{xi!r},{yi!r},{ui!r},{ni!r},{names[t]}"
                   for xi, yi, ui, ni, t in zip(
                       x.tolist(), y.tolist(), sol.u.tolist(), nu.tolist(),
                       dom.tags.tolist())]


def _side_repr(v: float):
    return "inf" if math.isinf(v) else repr(float(v))


def solution_report_dict(solutions: Sequence[GraphSolution]) -> dict:
    """Report of the last solve with the d and rho estimates of the sweep;
    discretization_failure is true when u dropped as M grew anywhere in it.

    cauchy_indicator is the Cauchy divergence indicator max |u_{M_last} -
    u_{M_prev}| over the nodes whose metric distance to the far side is at
    least half the largest such distance (never empty), or None for a
    single solution.
    """
    sol = solutions[-1]
    tri = sol.domain.triangle
    cauchy = None
    if len(solutions) >= 2:
        far = _far_side_distance(sol.domain, sol.domain.nodes)
        mask = far >= 0.5 * far.max()
        cauchy = float(np.max(np.abs(sol.u[mask] - solutions[-2].u[mask])))
    return {
        "a": "inf" if tri.a_infinite else float(tri.a),
        "b": "inf" if tri.b_infinite else float(tri.b),
        "k": int(tri.k),
        "H": float(sol.params.tau),
        "M": None if sol.M is None else float(sol.M),
        "residual_norm": float(sol.residual_norm),
        "newton_iters": int(sol.newton_iters),
        "d_estimate": distance_d(solutions),
        "rho_estimate": rho_estimate(solutions),
        "cauchy_indicator": cauchy,
        "discretization_failure": any(s.discretization_failure
                                      for s in solutions),
    }
