"""Horizontal lifts and holonomy of closed base curves.

Horizontality along a base path means z' = -lambda tau (y x' - x y').  Along
a straight chart segment the factor (y x' - x y') is constant, so each
segment contributes -tau (y0 dx - x0 dy) times the line integral of lambda.
On a straight chord lambda = 4/q(t) with q quadratic in t, so that integral
is an atanh in closed form, exact up to round-off.

For a closed curve the end-height gap equals 2 tau times the enclosed metric
area: div(lambda (x, y)/2) = lambda^2 makes Area = oint lambda (x dy - y dx)/2
exact, which is the same 1-form the lift integrates.  The area routine
deliberately uses a different quadrature (midpoint shoelace on subdivided
segments) so the two sides of the holonomy identity stay independent.

A path is an (n, 2) array of chart samples, n >= 2.  Every function checks it
before any work: finite samples, each inside the model disk (|z| < 2/sqrt(-kappa)
for kappa < 0; the disk is convex, so the chords stay inside too), and no two
consecutive samples equal.
"""
from __future__ import annotations

import math

import numpy as np

from .spaces import GeometryError, SpaceParams, conformal_factor_xy

__all__ = [
    "horizontal_lift",
    "holonomy_gap",
    "enclosed_area",
    "circle_path",
]

_AREA_SEG = 5e-4    # chart length of the subdivided segments in enclosed_area
_CIRCLE_SEGS = 20001


def _as_xy(path, params: SpaceParams) -> np.ndarray:
    """The path as a checked (n, 2) float array."""
    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise GeometryError(f"a path needs shape (n >= 2, 2), got {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise GeometryError(f"path has a non-finite point at sample {bad[0]}")
    bad = np.flatnonzero(_q(pts, params.kappa) <= 0.0)   # only for kappa < 0
    if bad.size:
        ideal = 2.0 / math.sqrt(-params.kappa)
        raise GeometryError(f"path sample {bad[0]} lies on or outside the "
                            f"ideal circle |z| = {ideal}")
    if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
        raise GeometryError("consecutive path samples must be distinct")
    return pts


def _q(pts: np.ndarray, kappa: float) -> np.ndarray:
    """4/lambda = 4 + kappa |z|^2 per sample, positive inside the model disk."""
    return 4.0 + kappa * (pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1])


def horizontal_lift(path, z0: float, params: SpaceParams) -> np.ndarray:
    """Lift a sampled base path horizontally, starting at height z0.

    Returns the height z at each of the n samples of the (n, 2) path.  On
    the chord p -> p + d, lambda = 4/q(t) with q(t) = alpha + beta t +
    gamma t^2 (alpha = q(0), beta = 2 kappa p.d, gamma = kappa |d|^2), so
    int_0^1 lambda dt = 8 atanh(r/s)/r with s = 2 alpha + beta =
    q(0) + q(1) - gamma and r^2 = beta^2 - 4 alpha gamma =
    -4 kappa (4 |d|^2 + kappa (p x d)^2).  For kappa < 0, s > r >= 0 and
    atanh(r/s) = log1p(r (s + r) / (2 q(0) q(1)))/2 has no cancellation and
    stays finite next to the ideal circle.  r = 0 leaves 8/s, exactly 1 at
    kappa = 0; kappa > 0 makes r imaginary and the atanh an arctan.
    """
    pts = _as_xy(path, params)
    k = params.kappa
    seg = pts[1:] - pts[:-1]
    # y0 dx - x0 dy is constant along each straight segment
    cross = pts[:-1, 1] * seg[:, 0] - pts[:-1, 0] * seg[:, 1]
    q = _q(pts, k)
    d2 = seg[:, 0] * seg[:, 0] + seg[:, 1] * seg[:, 1]
    s = q[:-1] + q[1:] - k * d2
    r = np.sqrt(np.abs(4.0 * k * (4.0 * d2 + k * cross * cross)))
    if k > 0.0:
        angle = np.arctan2(r, s)
    else:
        angle = 0.5 * np.log1p(r * (s + r) / (2.0 * q[:-1] * q[1:]))
    lam_int = np.divide(8.0 * angle, r, out=8.0 / s, where=r > 0.0)
    dz = -params.tau * cross * lam_int
    return z0 + np.concatenate(([0.0], np.cumsum(dz)))


def _closed_xy(path, params: SpaceParams) -> np.ndarray:
    pts = _as_xy(path, params)
    if not np.allclose(pts[0], pts[-1], rtol=0.0, atol=1e-9):
        raise GeometryError("the path must be closed (first == last sample)")
    return pts


def holonomy_gap(path, params: SpaceParams) -> float:
    """End-height minus start-height of the lift of a closed (n, 2) path."""
    z = horizontal_lift(_closed_xy(path, params), 0.0, params)
    return float(z[-1] - z[0])


def enclosed_area(path, params: SpaceParams) -> float:
    """Signed metric area enclosed by a closed (n, 2) chart polygon.

    Midpoint shoelace weighted by lambda after subdividing every segment
    into ceil(length / _AREA_SEG) equal parts, all segments at once.
    Counterclockwise traversal is positive.
    """
    pts = _closed_xy(path, params)
    seg = pts[1:] - pts[:-1]
    parts = np.maximum(1, np.ceil(np.hypot(seg[:, 0], seg[:, 1]) / _AREA_SEG)).astype(int)
    which = np.repeat(np.arange(len(seg)), parts)
    n = parts[which]
    j = np.arange(len(which)) - np.repeat(np.cumsum(parts) - parts, parts)
    # the sub-segment ends at t = j/n and (j + 1)/n, the last one at exactly 1
    t0 = j * (1.0 / n)
    t1 = np.where(j + 1 == n, 1.0, (j + 1) * (1.0 / n))
    p, d = pts[which], seg[which]
    a = p + t0[:, None] * d
    b = p + t1[:, None] * d
    mid = (a + b) / 2.0
    lam = conformal_factor_xy(mid[:, 0], mid[:, 1], params.kappa)
    cross = a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]
    return float(np.sum(lam * cross)) / 2.0


def circle_path(radius: float, clockwise: bool = False) -> np.ndarray:
    """Closed polygonal circle about the origin with _CIRCLE_SEGS segments,
    as an (_CIRCLE_SEGS + 1, 2) array (first sample repeated last)."""
    t = np.linspace(0.0, 2.0 * math.pi, _CIRCLE_SEGS + 1)
    if clockwise:
        t = t[::-1]
    pts = radius * np.column_stack([np.cos(t), np.sin(t)])
    pts[-1] = pts[0]
    return pts
