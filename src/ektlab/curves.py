"""Prescribed-curvature curves in the hyperbolic plane and symmetry assembly.

Conjugate symmetry curves of the vertical-plane boundaries live in the
Poincare disk of curvature -1 (chart radius 1).  A unit-speed curve with
tangent angle phi and signed geodesic curvature kg satisfies

    x' = (1 - r^2) cos(phi) / 2,
    y' = (1 - r^2) sin(phi) / 2,
    phi' = kg(s) - x sin(phi) + y cos(phi),

which is the conformal Frenet system for the metric 2|dz|/(1-|z|^2); the
sign convention makes a counterclockwise circle of hyperbolic radius rho
carry kg = coth(rho) > 0.  Integration is one-step Heun with a fixed step,
so halving the step cuts endpoint errors about 4x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.sparse.csgraph import connected_components

from .spaces import GeometryError

__all__ = [
    "PlanarCurve",
    "AssembledBoundary",
    "integrate_prescribed_curvature",
    "kg_critical",
    "conjugate_vertical_boundary",
    "assemble_domain",
    "distance_to_geodesic_diameter",
]

_DEFAULT_STEP = 5e-4
_EPS_IDEAL = 1e-6
_DEFAULT_S_CAP = 60.0


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
    prescribed curvature at each sample.
    """

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    kg_samples: np.ndarray
    truncated_reason: Optional[str] = None
    total_turning: Optional[float] = None

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])


def integrate_prescribed_curvature(kg: Callable[[float], float],
                                   s_range: Tuple[float, float],
                                   init_point: Tuple[float, float],
                                   init_angle: float,
                                   step: float = _DEFAULT_STEP,
                                   s_cap: float = _DEFAULT_S_CAP) -> PlanarCurve:
    """March the disk Frenet system with prescribed kg(s) forward from the
    initial data at s_range[0] to s_range[1].

    One Heun step per sample, calling kg once per step: its value at the
    new s is the corrector's k2, the new sample's kg and the next step's k1.
    An unbounded end s_range[1] = inf stops at boundary proximity
    1 - |p| < _EPS_IDEAL or at arclength s_cap; that stop, or a step that
    leaves the disk, is recorded in truncated_reason.
    """
    if not step >= 1e-14:
        raise GeometryError("integration step must be at least 1e-14")
    s0, s_end = s_range
    if not s0 < s_end or math.isinf(s0):
        raise GeometryError("s_range must run forward from a finite start")
    if math.hypot(*init_point) >= 1.0:
        raise GeometryError("initial point outside the open unit disk")
    n_max = int(math.ceil((s_cap if math.isinf(s_end) else s_end - s0)
                          / step)) + 1
    s = s0
    x, y, phi = float(init_point[0]), float(init_point[1]), float(init_angle)
    k1 = float(kg(s0))
    out_s = [s0]
    out_xy = [(x, y)]
    out_kg = [k1]
    reason = None
    for _ in range(n_max):
        h = min(step, s_end - s)
        if h < 1e-15:
            break
        cos1, sin1 = math.cos(phi), math.sin(phi)
        fac = 0.5 * (1.0 - x * x - y * y)
        fx1, fy1, fphi1 = fac * cos1, fac * sin1, k1 - x * sin1 + y * cos1
        px, py, pphi = x + h * fx1, y + h * fy1, phi + h * fphi1
        k2 = float(kg(s + h))
        cos2, sin2 = math.cos(pphi), math.sin(pphi)
        fac = 0.5 * (1.0 - px * px - py * py)
        half = 0.5 * h
        nx = x + half * (fx1 + fac * cos2)
        ny = y + half * (fy1 + fac * sin2)
        nphi = phi + half * (fphi1 + (k2 - px * sin2 + py * cos2))
        r = math.hypot(nx, ny)
        if r >= 1.0:
            reason = "left disk numerically"
            break
        s, x, y, phi, k1 = s + h, nx, ny, nphi, k2
        out_s.append(s)
        out_xy.append((x, y))
        out_kg.append(k1)
        if 1.0 - r < _EPS_IDEAL:
            reason = "ideal boundary"
            break
        if math.isinf(s_end) and s - s0 >= s_cap:
            reason = "arclength cap"
            break
    xy = np.array(out_xy)
    return PlanarCurve(s=np.array(out_s), x=xy[:, 0], y=xy[:, 1],
                       kg_samples=np.array(out_kg), truncated_reason=reason)


def kg_critical(s, mu: float):
    """Geodesic curvature 1 + 4 mu (1+2mu)^2 / (16 mu^2 + (1+2mu)^4 s^2)."""
    if abs(mu) <= 0.5:
        raise GeometryError("kg_critical needs |mu| > 1/2")
    s = np.asarray(s, dtype=float)
    p = (1.0 + 2.0 * mu) ** 2
    out = 1.0 + 4.0 * mu * p / (16.0 * mu * mu + p * p * s * s)
    return float(out) if out.ndim == 0 else out


def conjugate_vertical_boundary(theta_prime_fn: Callable[[float], float],
                                H: float,
                                s_range: Tuple[float, float],
                                init: Tuple[Tuple[float, float], float],
                                step: float = _DEFAULT_STEP,
                                s_cap: float = _DEFAULT_S_CAP) -> PlanarCurve:
    """Symmetry curve conjugate to a vertical fiber: kg(s) = 2H - theta'(s).

    Records the total turning (trapezoid of theta' over the realized range).
    """
    if not 0.0 <= H <= 0.5:
        raise GeometryError("H must lie in [0, 1/2]")
    init_point, init_angle = init
    curve = integrate_prescribed_curvature(
        lambda s: 2.0 * H - theta_prime_fn(s), s_range, init_point, init_angle,
        step=step, s_cap=s_cap)
    total = float(np.trapezoid(2.0 * H - curve.kg_samples, curve.s))
    return replace(curve, total_turning=total)


@dataclass(frozen=True)
class AssembledBoundary:
    """Dihedral orbit of a fundamental curve, merged into boundary chains."""

    pieces: List[np.ndarray]
    closed: bool
    max_gap: Optional[float]

    @property
    def segment_count(self) -> int:
        return sum(p.shape[0] - 1 for p in self.pieces)


def _canonical_key(pts: np.ndarray) -> tuple:
    q = np.round(pts * 1e9).astype(np.int64)
    fwd = q.tobytes()
    rev = q[::-1].tobytes()
    return min(fwd, rev)


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
    seen = set()
    for j in range(k):
        rot = 2.0 * math.pi * j / k
        cr, sr = math.cos(rot), math.sin(rot)
        R = np.array([[cr, -sr], [sr, cr]])
        for mirror in (False, True):
            p = pts.copy()
            if mirror:
                p[:, 1] = -p[:, 1]
            p = p @ R.T
            key = _canonical_key(p)
            if key in seen:
                continue
            seen.add(key)
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

    Endpoints are clustered by chart distance <= 1e-8, so integrator-level
    jitter between symmetric images cannot split a junction.
    """
    idents = [(idx, end) for idx in range(len(images)) for end in (0, -1)]
    pts = np.array([images[idx][end] for idx, end in idents])
    diff = pts[:, None, :] - pts[None, :, :]
    _, labels = connected_components(np.hypot(diff[..., 0], diff[..., 1]) <= 1e-8,
                                     directed=False)
    cluster_of = dict(zip(idents, labels.tolist()))
    members: dict = {}
    for ident, label in cluster_of.items():
        members.setdefault(label, []).append(ident)

    def endpoint_id(piece_idx, orient, which):
        if orient == +1:
            return (piece_idx, 0 if which == "head" else -1)
        return (piece_idx, -1 if which == "head" else 0)

    used = [False] * len(images)
    chains = []
    for start in range(len(images)):
        if used[start]:
            continue
        used[start] = True
        seq = [(start, +1)]
        for which, grow_tail in (("tail", True), ("head", False)):
            while True:
                pi, orient = seq[-1] if grow_tail else seq[0]
                ident = endpoint_id(pi, orient, which)
                mem = members[cluster_of[ident]]
                if len(mem) != 2:
                    break
                other = [m for m in mem if m != ident]
                if len(other) != 1 or used[other[0][0]]:
                    break
                oi, oe = other[0]
                used[oi] = True
                if grow_tail:
                    seq.append((oi, +1 if oe == 0 else -1))
                else:
                    seq.insert(0, (oi, +1 if oe == -1 else -1))
        arrs = []
        for n_, (pi, orient) in enumerate(seq):
            arr = images[pi] if orient == +1 else images[pi][::-1]
            arrs.append(arr if n_ == 0 else arr[1:])
        chains.append(np.vstack(arrs))
    return chains
