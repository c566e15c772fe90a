"""Cylinder-model geometry of the homogeneous spaces E(kappa, tau).

The base M2(kappa) is the disk of radius 2/sqrt(-kappa) (the whole plane for
kappa = 0) carrying the conformal metric lambda^2 (dx^2 + dy^2) with
lambda = (1 + kappa (x^2+y^2)/4)^(-1).  The total space adds a fiber
coordinate z and the orthonormal frame

    E1 = lambda^(-1) d/dx - tau y d/dz,
    E2 = lambda^(-1) d/dy + tau x d/dz,
    E3 = d/dz  (the vertical Killing direction).

A chart point of the base is an (x, y) pair of floats and a sampled path an
(n, 2) array.  This module holds the parameter record, the conformal factor,
geodesic triangles of the base, and the hyperbolic-trigonometry helpers
shared by the mesher and the curve integrators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "SpaceParams",
    "GeodesicTriangle",
    "conformal_factor_xy",
    "law_of_cosines",
    "build_triangle",
    "interior_angle_at_p2",
    "interior_angle_threshold_b",
    "chart_radius",
    "metric_radius",
    "metric_distance",
    "min_metric_distance",
]

_PAIR_BLOCK = 1 << 16


class GeometryError(ValueError):
    """Raised for inputs outside the geometric domain of an operation."""


@dataclass(frozen=True)
class SpaceParams:
    """Parameters (kappa, tau) of E(kappa, tau)."""

    kappa: float
    tau: float

    @classmethod
    def from_h(cls, h: float) -> "SpaceParams":
        """Space E(4H^2-1, H) paired with H-surfaces in H2xR, 0 <= H <= 1/2."""
        if not 0.0 <= h <= 0.5:
            raise GeometryError(f"H must lie in [0, 1/2], got {h}")
        return cls(kappa=4.0 * h * h - 1.0, tau=h)


def conformal_factor_xy(x, y, kappa: float):
    """Vectorized lambda over coordinate arrays (no domain check)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 1.0 / (1.0 + kappa * (x * x + y * y) / 4.0)


# -- hyperbolic chart helpers -------------------------------------------------
#
# For kappa < 0 every formula reduces to the unit Poincare disk through the
# rescaling w = z * delta / 2, with metric lengths carrying a 1/delta factor.

def chart_radius(distance: float, kappa: float) -> float:
    """Chart radius of the metric circle of given radius around the origin."""
    if kappa == 0.0:
        return distance
    delta = math.sqrt(-kappa)
    if math.isinf(distance):
        return 2.0 / delta
    return (2.0 / delta) * math.tanh(distance * delta / 2.0)


def metric_radius(r, kappa: float):
    """Inverse of chart_radius: metric distance from the origin (vectorized).

    Chart radii at or past the ideal circle clip to a large finite distance.
    """
    r = np.asarray(r, dtype=float)
    if kappa == 0.0:
        return r.copy()
    delta = math.sqrt(-kappa)
    return (2.0 / delta) * np.arctanh(np.clip(r * delta / 2.0, 0.0, 1.0 - 1e-16))


def metric_distance(p: np.ndarray, q: np.ndarray, kappa: float) -> np.ndarray:
    """Metric distance in M2(kappa), kappa <= 0, between chart points p and
    q (..., 2), broadcast together.  Pairs at or past the ideal circle clip
    to a large finite distance."""
    if kappa == 0.0:
        return np.sqrt(((p - q) ** 2).sum(axis=-1))
    delta = math.sqrt(-kappa)
    z = (p[..., 0] + 1j * p[..., 1]) * delta / 2.0
    w = (q[..., 0] + 1j * q[..., 1]) * delta / 2.0
    t = np.clip(np.abs(z - w) / np.abs(1.0 - np.conj(z) * w), 0.0, 1.0 - 1e-16)
    return (2.0 / delta) * np.arctanh(t)


def min_metric_distance(pts: np.ndarray, ref: np.ndarray, kappa: float) -> np.ndarray:
    """Metric distance from each chart point of pts (n, 2) to the nearest
    point of ref (m, 2) in M2(kappa), kappa <= 0.

    Rows of pts go through in blocks of about _PAIR_BLOCK pairs, so memory
    stays linear in n; each row's minimum is independent of the others.
    """
    pts = np.asarray(pts, dtype=float)
    ref = np.asarray(ref, dtype=float)
    rows = max(1, _PAIR_BLOCK // max(1, len(ref)))
    out = np.empty(len(pts))
    for start in range(0, len(pts), rows):
        block = pts[start:start + rows, None, :]
        out[start:start + rows] = metric_distance(block, ref, kappa).min(axis=1)
    return out


# -- geodesic triangles -------------------------------------------------------

def law_of_cosines(a: float, b: float, k: int, kappa: float) -> float:
    """Length of the side opposite the wedge angle pi/k.

    Hyperbolic law of cosines for kappa < 0 (with delta = sqrt(-kappa)),
    Euclidean for kappa = 0.  Requires finite a, b.
    """
    if not (a > 0 and b > 0) or math.isinf(a) or math.isinf(b):
        raise GeometryError("law_of_cosines needs finite positive side lengths")
    if k < 2:
        raise GeometryError("wedge parameter k must be an integer >= 2")
    gamma = math.pi / k
    if kappa == 0.0:
        return math.sqrt(a * a + b * b - 2.0 * a * b * math.cos(gamma))
    delta = math.sqrt(-kappa)
    c = (math.cosh(a * delta) * math.cosh(b * delta)
         - math.sinh(a * delta) * math.sinh(b * delta) * math.cos(gamma))
    return math.acosh(max(c, 1.0)) / delta


@dataclass(frozen=True)
class GeodesicTriangle:
    """Triangle T_{a,b} with vertex p0 at the origin and wedge angle pi/k.

    p1 = (x, y) sits on the positive x-axis at distance a, p2 on the pi/k ray
    at distance b.  Infinite side lengths mark ideal vertices: for kappa < 0 the
    vertex is placed exactly on the boundary circle, for kappa = 0 its
    coordinates are infinite and only the ray direction is meaningful.
    """

    a: float
    b: float
    k: int
    kappa: float
    p1: tuple[float, float]
    p2: tuple[float, float]
    ell: float

    @property
    def a_infinite(self) -> bool:
        return math.isinf(self.a)

    @property
    def b_infinite(self) -> bool:
        return math.isinf(self.b)


def build_triangle(a: float, b: float, k: int, kappa: float) -> GeodesicTriangle:
    """Place T_{a,b} in the chart of M2(kappa); at most one side may be
    infinite."""
    if kappa > 0:
        raise GeometryError("only kappa <= 0 bases are supported")
    if k < 2 or int(k) != k:
        raise GeometryError("k must be an integer >= 2")
    if not (a > 0 and b > 0):
        raise GeometryError("side lengths must be positive")
    if math.isinf(a) and math.isinf(b):
        raise GeometryError("both sides infinite: the wedge T_inf_inf is not a triangle")
    gamma = math.pi / k
    r1 = chart_radius(a, kappa)
    r2 = chart_radius(b, kappa)
    for name, side, r in (("a", a, r1), ("b", b, r2)):
        if kappa < 0 and not math.isinf(side) and r >= 2.0 / math.sqrt(-kappa):
            raise GeometryError(f"side {name} = {side:g} is finite but its "
                                "vertex rounds onto the ideal circle")
    p1 = (r1, 0.0)
    p2 = (r2 * math.cos(gamma), r2 * math.sin(gamma))
    if math.isinf(a) or math.isinf(b):
        ell = math.inf
    else:
        ell = law_of_cosines(a, b, k, kappa)
    return GeodesicTriangle(a=a, b=b, k=int(k), kappa=kappa,
                            p1=p1, p2=p2, ell=ell)


def interior_angle_at_p2(b: float, k: int, kappa: float) -> float:
    """Interior angle beta of T_{inf,b} at the finite vertex p2.

    Solves cosh(b delta) = (1 + cos(pi/k) cos(beta)) / (sin(pi/k) sin(beta))
    in closed form: with A = cosh(b delta) sin(pi/k) and B = cos(pi/k) the
    relation reads A sin(beta) - B cos(beta) = 1, so
    beta = atan2(B, A) + asin(1/hypot(A, B)).  The doubled angle 2 beta is the
    interior angle of the reflected domain at p2.
    """
    if kappa >= 0:
        raise GeometryError("the one-ideal-vertex relation needs kappa < 0")
    # b = 0 is the degenerate limit where the formula stays continuous
    # (it gives beta = pi - pi/k - asin-term, exactly pi/2 when k = 2)
    if not (b >= 0) or math.isinf(b):
        raise GeometryError("b must be finite and nonnegative")
    if k < 2:
        raise GeometryError("k must be an integer >= 2")
    delta = math.sqrt(-kappa)
    gamma = math.pi / k
    big_a = math.cosh(b * delta) * math.sin(gamma)
    big_b = math.cos(gamma)
    hyp = math.hypot(big_a, big_b)
    if hyp < 1.0:
        raise GeometryError("geometric inconsistency: no interior angle in (0, pi)")
    beta = math.atan2(big_b, big_a) + math.asin(1.0 / hyp)
    if not (0.0 < beta < math.pi):
        raise GeometryError("geometric inconsistency: angle outside (0, pi)")
    return beta


def interior_angle_threshold_b(k: int, H: float) -> float:
    """The b value where the p2 interior angle of T_{inf,b} in
    M2(4H^2 - 1) reaches pi/2."""
    if not 0.0 <= H < 0.5:
        raise GeometryError("threshold needs H in [0, 1/2)")
    delta = math.sqrt(1.0 - 4.0 * H * H)
    return math.acosh(1.0 / math.sin(math.pi / k)) / delta
