"""Horizontal lifts and holonomy of closed base curves.

Horizontality along a base path means z' = -lambda tau (y x' - x y').  Along
a straight chart segment the factor (y x' - x y') is constant, so each
segment contributes -tau (y0 dx - x0 dy) times the line integral of lambda,
which is evaluated with nested Gauss rules and refined wherever the embedded
error estimate exceeds the local tolerance.

For a closed curve the end-height gap equals 2 tau times the enclosed metric
area: div(lambda (x, y)/2) = lambda^2 makes Area = oint lambda (x dy - y dx)/2
exact, which is the same 1-form the lift integrates.  The area routine
deliberately uses a different quadrature (midpoint shoelace on subdivided
segments) so the two sides of the holonomy identity stay independent.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .spaces import BasePoint, GeometryError, SpaceParams, conformal_factor_xy

__all__ = [
    "horizontal_lift",
    "holonomy_gap",
    "enclosed_area",
    "circle_path",
]

# nodes/weights on [0, 1]
_GL3_X, _GL3_W = np.polynomial.legendre.leggauss(3)
_GL5_X, _GL5_W = np.polynomial.legendre.leggauss(5)
_GL3_X = (_GL3_X + 1.0) / 2.0
_GL3_W /= 2.0
_GL5_X = (_GL5_X + 1.0) / 2.0
_GL5_W /= 2.0

_LOCAL_TOL = 1e-8
_MAX_DEPTH = 30
_AREA_SEG = 5e-4    # chart length of the subdivided segments in enclosed_area
_CIRCLE_SEGS = 20001


def _as_xy(path: Sequence[BasePoint]) -> np.ndarray:
    pts = np.array([[p.x, p.y] for p in path], dtype=float)
    if pts.ndim != 2 or len(pts) < 2:
        raise GeometryError("need at least two path samples")
    if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
        raise GeometryError("consecutive path samples must be distinct")
    return pts

def _lambda_line_integral(p: np.ndarray, q: np.ndarray, params: SpaceParams,
                          depth: int = 0) -> float:
    """int_0^1 lambda(p + t(q-p)) dt with a GL5/GL3 error estimate."""

    def gl(nodes, weights):
        xs = p[0] + nodes * (q[0] - p[0])
        ys = p[1] + nodes * (q[1] - p[1])
        return float(np.dot(weights, conformal_factor_xy(xs, ys, params.kappa)))

    fine = gl(_GL5_X, _GL5_W)
    if abs(fine - gl(_GL3_X, _GL3_W)) <= _LOCAL_TOL or depth >= _MAX_DEPTH:
        if depth >= _MAX_DEPTH:
            raise GeometryError("step-size underflow in horizontal lift")
        return fine
    mid = (p + q) / 2.0
    return (_lambda_line_integral(p, mid, params, depth + 1)
            + _lambda_line_integral(mid, q, params, depth + 1)) / 2.0


def horizontal_lift(path: Sequence[BasePoint], z0: float,
                    params: SpaceParams) -> list:
    """Lift a sampled base path horizontally, starting at height z0.

    Returns one SpacePoint per input sample.  The connection form is linear
    in the velocity, so the per-segment increment is exact up to the
    quadrature of lambda along the segment.
    """
    from .spaces import SpacePoint

    pts = _as_xy(path)
    seg = pts[1:] - pts[:-1]
    # y0 dx - x0 dy is constant along each straight segment
    cross = pts[:-1, 1] * seg[:, 0] - pts[:-1, 0] * seg[:, 1]

    if params.kappa == 0.0:
        lam_int = np.ones(len(seg))
    else:
        # vectorized GL5 first, adaptive fallback where the GL3 check fails
        xs = pts[:-1, 0][:, None] + _GL5_X[None, :] * seg[:, 0][:, None]
        ys = pts[:-1, 1][:, None] + _GL5_X[None, :] * seg[:, 1][:, None]
        fine = conformal_factor_xy(xs, ys, params.kappa) @ _GL5_W
        xs3 = pts[:-1, 0][:, None] + _GL3_X[None, :] * seg[:, 0][:, None]
        ys3 = pts[:-1, 1][:, None] + _GL3_X[None, :] * seg[:, 1][:, None]
        coarse = conformal_factor_xy(xs3, ys3, params.kappa) @ _GL3_W
        lam_int = fine
        bad = np.abs(fine - coarse) > _LOCAL_TOL
        for i in np.nonzero(bad)[0]:
            lam_int[i] = _lambda_line_integral(pts[i], pts[i + 1], params)

    dz = -params.tau * cross * lam_int
    z = z0 + np.concatenate(([0.0], np.cumsum(dz)))
    return [SpacePoint(x, y, zz) for (x, y), zz in zip(pts, z)]


def holonomy_gap(path: Sequence[BasePoint], params: SpaceParams) -> float:
    """End-height minus start-height of the lift of a closed base path."""
    pts = _as_xy(path)
    if not np.allclose(pts[0], pts[-1], rtol=0.0, atol=1e-9):
        raise GeometryError("holonomy needs a closed path (first == last sample)")
    lifted = horizontal_lift(path, 0.0, params)
    return lifted[-1].z - lifted[0].z


def enclosed_area(path: Sequence[BasePoint], params: SpaceParams) -> float:
    """Signed metric area enclosed by a closed chart polygon.

    Midpoint shoelace weighted by lambda after subdividing every segment to
    chart length <= _AREA_SEG.  Counterclockwise traversal is positive.
    """
    pts = _as_xy(path)
    if not np.allclose(pts[0], pts[-1], rtol=0.0, atol=1e-9):
        raise GeometryError("enclosed_area needs a closed path")
    total = 0.0
    for p, q in zip(pts[:-1], pts[1:]):
        n = max(1, int(math.ceil(math.hypot(*(q - p)) / _AREA_SEG)))
        t = np.linspace(0.0, 1.0, n + 1)
        xs = p[0] + t * (q[0] - p[0])
        ys = p[1] + t * (q[1] - p[1])
        xm = (xs[:-1] + xs[1:]) / 2.0
        ym = (ys[:-1] + ys[1:]) / 2.0
        lam = conformal_factor_xy(xm, ym, params.kappa)
        cross = xs[:-1] * ys[1:] - xs[1:] * ys[:-1]
        total += float(np.sum(lam * cross)) / 2.0
    return total


def circle_path(radius: float, clockwise: bool = False) -> list:
    """Closed polygonal circle about the origin with _CIRCLE_SEGS segments
    (first sample repeated last)."""
    t = np.linspace(0.0, 2.0 * math.pi, _CIRCLE_SEGS + 1)
    if clockwise:
        t = t[::-1]
    xs = radius * np.cos(t)
    ys = radius * np.sin(t)
    xs[-1], ys[-1] = xs[0], ys[0]
    return [BasePoint(x, y) for x, y in zip(xs, ys)]
