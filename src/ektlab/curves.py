"""Prescribed-curvature curves in the hyperbolic plane and symmetry assembly.

The curves live in the Poincare disk of curvature -1 (chart radius 1).
The march runs in the hyperboloid model <p, p> = -1, p0 > 0, with
<u, v> = -u0 v0 + u1 v1 + u2 v2: the frame F = [gamma, T, N] of a
unit-speed curve with signed geodesic curvature kg lies in SO(2,1) and
solves

    F' = F A(s),    A = E1 + kg(s) R,

with E1 = e01 + e10 and R = e21 - e12 (e_ij the matrix units), so that
gamma' = T, T' = gamma + kg N and N' = -kg T.  N is T turned by +pi/2 in
the chart, which makes a counterclockwise circle of hyperbolic radius rho
carry kg = coth(rho) > 0.  The disk point is z = (p1 + i p2) / (1 + p0).

One step of length h is the fourth-order Magnus step with kg at the two
Gauss points, k1 and k2:

    F <- F exp(Omega),
    Omega = h E1 + (h/2)(k1 + k2) R - (sqrt(3)/12) h^2 (k2 - k1) B,

with B = e02 + e20; the last term is the commutator h^2 sqrt(3)/12 [A1, A2]
(Iserles, Munthe-Kaas, Norsett & Zanna, Acta Numerica 9 (2000) 215-365;
Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151-238).  exp(Omega) has
a closed form, so a step is exact when kg is constant (geodesics, circles,
equidistants, horocycles) up to round-off, and halving the step cuts
endpoint errors about 16x otherwise.  The steps of one array pass multiply
into the frames as a blocked prefix product.

assemble_domain tiles a curve by the dihedral group of order 2k.  Image
endpoints within chart distance 1e-8 are joined, that relation is closed
transitively by boolean matrix products, and a junction of exactly two
endpoints joins their images.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .spaces import GeometryError

__all__ = [
    "PlanarCurve",
    "AssembledBoundary",
    "integrate_prescribed_curvature",
    "kg_critical",
    "assemble_domain",
    "distance_to_geodesic_diameter",
]

# march step and arclength cap of the figures, the CLI's --step and --s-cap
DEFAULT_STEP = 5e-4
DEFAULT_S_CAP = 60.0
_EPS_IDEAL = 1e-6
# steps per array pass of the march, and the Gauss-point offset sqrt(3)/6
_CHUNK = 4096
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_MINKOWSKI = np.array([-1.0, 1.0, 1.0])


def distance_to_geodesic_diameter(x, y, axis_angle: float = 0.0):
    """Signed hyperbolic distance to the diameter at the given angle.

    Positive on the left of the oriented diameter; used as the equidistant
    oracle: points at chart position z have distance
    asinh(2 d_e / (1 - |z|^2)) where d_e is the signed Euclidean distance
    to the line.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d_e = y * math.cos(axis_angle) - x * math.sin(axis_angle)
    return np.arcsinh(2.0 * d_e / (1.0 - x * x - y * y))


@dataclass(frozen=True)
class PlanarCurve:
    """Unit-speed sampled curve in the unit disk.

    The arrays hold arclength and point per sample; kg_samples holds the
    prescribed curvature at each sample, kg(s).
    """

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    kg_samples: np.ndarray
    truncated_reason: Optional[str] = None

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])


def _initial_frame(point: Tuple[float, float], angle: float) -> np.ndarray:
    """Columns gamma, T, N on the hyperboloid at a disk point whose unit
    tangent has chart angle `angle`; N is T turned by +pi/2."""
    x, y = float(point[0]), float(point[1])
    u = 1.0 - x * x - y * y
    cols = [[(2.0 - u) / u, 2.0 * x / u, 2.0 * y / u]]
    for c, s in ((math.cos(angle), math.sin(angle)),
                 (-math.sin(angle), math.cos(angle))):
        w = 2.0 * (x * c + y * s) / u
        cols.append([w, c + x * w, s + y * w])
    return np.array(cols).T


def _step_increments(h: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """exp(Omega) - I of each step, (n, 3, 3), for the fourth-order Magnus
    exponent Omega = a E1 + b R + c B with a = h, b = h (k1 + k2) / 2 and
    c = -sqrt(3) h^2 (k2 - k1) / 12.

    Omega^3 = q Omega with q = a^2 - b^2 + c^2, so exp(Omega) =
    I + f1(q) Omega + f2(q) Omega^2.  f1 and f2 are Taylor series to q^3
    for |q| < 1e-3 (remainder below 3e-18) and sinh or sin forms otherwise.
    The identity is left out so that round-off stays relative to the step.
    """
    a = h
    b = 0.5 * h * (k1 + k2)
    c = -0.5 * _GAUSS_OFFSET * h * h * (k2 - k1)
    q = a * a - b * b + c * c
    f1 = 1.0 + q * (1.0 / 6.0 + q * (1.0 / 120.0 + q / 5040.0))
    f2 = 0.5 + q * (1.0 / 24.0 + q * (1.0 / 720.0 + q / 40320.0))
    big = np.abs(q) >= 1e-3
    if big.any():
        qb = q[big]
        t = np.sqrt(np.abs(qb))
        grow = np.where(qb > 0.0, np.sinh(t), np.sin(t))
        half = np.where(qb > 0.0, np.sinh(0.5 * t), np.sin(0.5 * t))
        f1[big] = grow / t
        f2[big] = 2.0 * half * half / np.abs(qb)
    fa, fb, fc = f1 * a, f1 * b, f1 * c
    ab, ac, bc = f2 * a * b, f2 * a * c, f2 * b * c
    m = np.empty(h.shape + (3, 3))
    m[:, 0, 0] = f2 * (a * a + c * c)
    m[:, 0, 1] = fa + bc
    m[:, 0, 2] = fc - ab
    m[:, 1, 0] = fa - bc
    m[:, 1, 1] = f2 * (a * a - b * b)
    m[:, 1, 2] = ac - fb
    m[:, 2, 0] = fc + ab
    m[:, 2, 1] = fb + ac
    m[:, 2, 2] = f2 * (c * c - b * b)
    return m


def _prefix_frames(frame: np.ndarray, steps: np.ndarray):
    """Points frame (I + steps[0]) ... (I + steps[j]) e0 for every j, and
    the last such frame.

    The n steps fill the rows of a w x w table (w = ceil(sqrt n), padded by
    zeros); one pass over the columns forms every row's prefix products,
    still less I, as (I + A)(I + B) - I = A + B + AB, and one pass over the
    rows carries the frame from row to row.  The carried frames are put
    back on the group before use.
    """
    n = steps.shape[0]
    w = math.isqrt(n - 1) + 1
    rows = -(-n // w)
    table = np.zeros((rows * w, 3, 3))
    table[:n] = steps
    table = table.reshape(rows, w, 3, 3)
    for j in range(1, w):
        table[:, j] += table[:, j - 1] + table[:, j - 1] @ table[:, j]
    carry = np.empty((rows, 3, 3))
    carry[0] = frame
    for i in range(1, rows):
        carry[i] = carry[i - 1] + carry[i - 1] @ table[i - 1, -1]
    carry = _regroup(carry)
    points = table[..., 0] @ np.swapaxes(carry, 1, 2) + carry[:, None, :, 0]
    last = carry[-1] + carry[-1] @ table[-1, (n - 1) % w]
    return points.reshape(-1, 3)[:n], _regroup(last)


def _regroup(frames: np.ndarray) -> np.ndarray:
    """Frames (..., 3, 3) with their columns gamma, T, N made
    Lorentz-orthonormal again by Gram-Schmidt in
    <u, v> = -u0 v0 + u1 v1 + u2 v2, which removes the round-off that
    products of many steps accumulate off the group."""
    def dot(u, v):
        return np.sum(u * _MINKOWSKI * v, axis=-1, keepdims=True)

    g, t, n = np.moveaxis(frames, -1, 0)
    g = g / np.sqrt(-dot(g, g))
    t = t + dot(t, g) * g
    t = t / np.sqrt(dot(t, t))
    n = n + dot(n, g) * g - dot(n, t) * t
    return np.stack([g, t, n / np.sqrt(dot(n, n))], axis=-1)


def _arclengths(s: float, n: int, s_end: float, step: float) -> np.ndarray:
    """s and up to n samples after it of s += min(step, s_end - s), which
    ends once that step is below 1e-15.  Full steps are one running sum;
    the short steps before s_end follow it one by one."""
    grid = np.add.accumulate(np.concatenate(([s], np.full(n, step))))
    short = np.flatnonzero(s_end - grid[:-1] < step)
    if short.size == 0:
        return grid
    out = grid[:short[0] + 1].tolist()
    while len(out) <= n:
        h = min(step, s_end - out[-1])
        if h < 1e-15:
            break
        out.append(out[-1] + h)
    return np.array(out)


def integrate_prescribed_curvature(kg: Callable[[np.ndarray], np.ndarray],
                                   s_range: Tuple[float, float],
                                   init_point: Tuple[float, float],
                                   init_angle: float,
                                   step: float = DEFAULT_STEP,
                                   s_cap: float = DEFAULT_S_CAP) -> PlanarCurve:
    """March the Frenet frame with prescribed kg(s) forward from the initial
    data at s_range[0] to s_range[1].

    kg takes an array of arclengths and returns an array of the same shape.
    Steps are fourth-order Magnus steps (module docstring), _CHUNK to an
    array pass; each pass calls kg once, on its samples and Gauss points.
    A step is `step` long, except the short steps min(step, s_end - s) that
    end a finite range.  An unbounded end s_range[1] = inf stops at
    boundary proximity 1 - |p| < _EPS_IDEAL or at arclength s_cap; that
    stop, or a sample that is not finite inside the disk, is recorded in
    truncated_reason.
    """
    if not step >= 1e-14:
        raise GeometryError("integration step must be at least 1e-14")
    s0, s_end = s_range
    if not s0 < s_end or math.isinf(s0):
        raise GeometryError("s_range must run forward from a finite start")
    if math.hypot(*init_point) >= 1.0:
        raise GeometryError("initial point outside the open unit disk")
    cap = s_cap if math.isinf(s_end) else math.inf
    n_max = int(math.ceil(min(cap, s_end - s0) / step)) + 1
    frame = _initial_frame(init_point, init_angle)
    s_parts = [np.array([float(s0)])]
    xy_parts = [np.array([[float(init_point[0]), float(init_point[1])]])]
    kg_parts = [kg(s_parts[0])]
    reason = None
    done = 0
    while done < n_max:
        n = min(_CHUNK, n_max - done)
        grid = _arclengths(float(s_parts[-1][-1]), n, s_end, step)
        m = grid.size - 1
        if m == 0:
            break
        h = np.diff(grid)
        mid = grid[:-1] + 0.5 * h
        k_new, k1, k2 = kg(np.stack(
            [grid[1:], mid - _GAUSS_OFFSET * h, mid + _GAUSS_OFFSET * h]))
        # a frame that overflows gives non-finite samples, which stop the
        # march below as "left disk numerically"
        with np.errstate(all="ignore"):
            p, frame = _prefix_frames(frame, _step_increments(h, k1, k2))
            xy = p[:, 1:] / (1.0 + p[:, :1])
        r = np.hypot(xy[:, 0], xy[:, 1])
        left = ~(r < 1.0)
        ideal = 1.0 - r < _EPS_IDEAL
        hits = np.flatnonzero(left | ideal | (grid[1:] - s0 >= cap))
        keep = m
        if hits.size:
            i = hits[0]
            keep = i if left[i] else i + 1
            reason = ("left disk numerically" if left[i] else
                      "ideal boundary" if ideal[i] else "arclength cap")
        s_parts.append(grid[1:keep + 1])
        xy_parts.append(xy[:keep])
        kg_parts.append(k_new[:keep])
        done += m
        if reason is not None or m < n:
            break
    xy = np.concatenate(xy_parts)
    return PlanarCurve(s=np.concatenate(s_parts), x=xy[:, 0], y=xy[:, 1],
                       kg_samples=np.concatenate(kg_parts),
                       truncated_reason=reason)


def kg_critical(s, mu: float):
    """Geodesic curvature 1 + 4 mu (1+2mu)^2 / (16 mu^2 + (1+2mu)^4 s^2)."""
    if abs(mu) <= 0.5:
        raise GeometryError("kg_critical needs |mu| > 1/2")
    s = np.asarray(s, dtype=float)
    p = (1.0 + 2.0 * mu) ** 2
    out = 1.0 + 4.0 * mu * p / (16.0 * mu * mu + p * p * s * s)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AssembledBoundary:
    """Dihedral orbit of a fundamental curve, merged into boundary chains."""

    pieces: List[np.ndarray]
    closed: bool
    max_gap: Optional[float]

    @property
    def segment_count(self) -> int:
        return sum(p.shape[0] - 1 for p in self.pieces)


def _same_points(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b coincide on the 1e-9 grid, in the same or the opposite order."""
    qa = np.round(a * 1e9).astype(np.int64)
    qb = np.round(b * 1e9).astype(np.int64)
    return np.array_equal(qa, qb) or np.array_equal(qa, qb[::-1])


def assemble_domain(fundamental_curve: PlanarCurve, k: int) -> AssembledBoundary:
    """Tile the boundary by the dihedral group of order 2k.

    The group is generated by the rotation through 2 pi / k and the
    reflection across the x-axis; the fundamental curve must start on one of
    the k mirror rays (or at the origin).  Coincident images are deduplicated
    and chains are merged at simple (degree-2) junctions.
    """
    if k < 2 or int(k) != k:
        raise GeometryError("k must be an integer >= 2")
    pts = fundamental_curve.points
    x0, y0 = pts[0]
    r0 = math.hypot(x0, y0)
    if r0 > 1e-12:
        ang = math.atan2(y0, x0) % (math.pi / k)
        if min(ang, math.pi / k - ang) * r0 > 1e-8:
            raise GeometryError("fundamental curve must start on a symmetry ray")
    images = []
    for j in range(k):
        rot = 2.0 * math.pi * j / k
        cr, sr = math.cos(rot), math.sin(rot)
        R = np.array([[cr, -sr], [sr, cr]])
        for mirror in (False, True):
            p = pts.copy()
            if mirror:
                p[:, 1] = -p[:, 1]
            p = p @ R.T
            # coinciding images share their end points, so only a match
            # there compares every point
            if any(_same_points(p[[0, -1]], q[[0, -1]]) and _same_points(p, q)
                   for q in images):
                continue
            images.append(p)
    merged = _merge_chains(images)
    gaps = []
    closed = len(merged) > 0
    for chain in merged:
        gap = float(np.hypot(*(chain[0] - chain[-1])))
        gaps.append(gap)
        if gap > 1e-8:
            closed = False
    return AssembledBoundary(pieces=merged, closed=closed,
                             max_gap=max(gaps) if gaps else None)


def _merge_chains(images: List[np.ndarray]) -> List[np.ndarray]:
    """Join pieces at shared endpoints, but only across degree-2 junctions.

    Endpoint 2i is the start of piece i and 2i + 1 its end.  The closure of
    the 1e-8 relation keeps integrator-level jitter between symmetric
    images from splitting a junction.
    """
    ends = np.array([p[e] for p in images for e in (0, -1)])
    diff = ends[:, None, :] - ends[None, :, :]
    joined = np.hypot(diff[..., 0], diff[..., 1]) <= 1e-8
    while True:
        closure = joined @ joined
        if np.array_equal(closure, joined):
            break
        joined = closure
    used = [False] * len(images)
    chains = []
    for start in range(len(images)):
        if used[start]:
            continue
        used[start] = True
        seq = [(start, True)]  # (piece, forward)
        for tail in (True, False):
            while True:
                piece, forward = seq[-1] if tail else seq[0]
                end = 2 * piece + (forward == tail)
                junction = np.flatnonzero(joined[end])
                if junction.size != 2:
                    break
                mate = int(junction[junction != end][0])
                if used[mate // 2]:
                    break
                used[mate // 2] = True
                # a tail grows by a piece that starts at the junction, a
                # head by one that ends there
                seq.insert(len(seq) if tail else 0,
                           (mate // 2, (mate % 2 == 0) == tail))
        arrs = []
        for n_, (piece, forward) in enumerate(seq):
            arr = images[piece] if forward else images[piece][::-1]
            arrs.append(arr if n_ == 0 else arr[1:])
        chains.append(np.vstack(arrs))
    return chains
