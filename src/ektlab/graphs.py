"""Mean curvature of vertical graphs in E(kappa, tau).

A graph z = u(x, y) over the base chart has frame-gradient components

    alpha = u_x / lambda + tau y,      beta = u_y / lambda - tau x,

W = sqrt(1 + alpha^2 + beta^2), angle function nu = 1/W, and mean curvature

    2 H = lambda^(-2) [ d/dx (lambda alpha / W) + d/dy (lambda beta / W) ],

the Euler-Lagrange operator of the area functional int lambda^2 W dx dy.
Closed-form reference graphs ship with exact partial derivatives so that the
operator can be probed independently of any finite-difference error.
"""
from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .spaces import SpaceParams, conformal_factor_xy

__all__ = [
    "tilt",
    "graph_gradient",
    "mean_curvature_from_partials",
    "graph_mean_curvature",
    "umbrella_graph",
    "shear_graph",
    "arctan_graph",
]

PartialStack = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
ClosedFormGraph = Callable[[np.ndarray, np.ndarray], PartialStack]


def tilt(u_x, u_y, lam, x, y, tau: float):
    """Frame components (alpha, beta) and W of the tilt at (x, y), lam = lambda."""
    alpha = u_x / lam + tau * y
    beta = u_y / lam - tau * x
    return alpha, beta, np.sqrt(1.0 + alpha * alpha + beta * beta)


def graph_gradient(x, y, u_x, u_y, params: SpaceParams):
    """tilt at (x, y), with lambda computed there."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = conformal_factor_xy(x, y, params.kappa)
    return tilt(u_x, u_y, lam, x, y, params.tau)


def mean_curvature_from_partials(x, y, u_x, u_y, u_xx, u_xy, u_yy,
                                 params: SpaceParams):
    """Pointwise mean curvature from first and second partials of u.

    All derivative combinations are expanded analytically, so the only error
    is that of the supplied partials.  Returns H (not 2H).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    kappa, tau = params.kappa, params.tau
    lam = conformal_factor_xy(x, y, kappa)
    lam_x = -lam * lam * kappa * x / 2.0
    lam_y = -lam * lam * kappa * y / 2.0

    alpha, beta, w = tilt(u_x, u_y, lam, x, y, tau)
    # d(1/lam)/dx = kappa x / 2, so alpha_x = u_xx/lam + u_x kappa x / 2 etc.
    alpha_x = u_xx / lam + u_x * kappa * x / 2.0
    alpha_y = u_xy / lam + u_x * kappa * y / 2.0 + tau
    beta_x = u_xy / lam + u_y * kappa * x / 2.0 - tau
    beta_y = u_yy / lam + u_y * kappa * y / 2.0

    w_x = (alpha * alpha_x + beta * beta_x) / w
    w_y = (alpha * alpha_y + beta * beta_y) / w

    div = (lam_x * alpha / w + lam * alpha_x / w - lam * alpha * w_x / (w * w)
           + lam_y * beta / w + lam * beta_y / w - lam * beta * w_y / (w * w))
    return div / (2.0 * lam * lam)


def graph_mean_curvature(graph: ClosedFormGraph, x, y, params: SpaceParams):
    """Mean curvature of a closed-form graph at sample points.

    ``graph`` returns the stack (u, u_x, u_y, u_xx, u_xy, u_yy); see the
    factory functions below.
    """
    _, u_x, u_y, u_xx, u_xy, u_yy = graph(np.asarray(x, float), np.asarray(y, float))
    return mean_curvature_from_partials(x, y, u_x, u_y, u_xx, u_xy, u_yy, params)


# -- closed-form reference graphs ---------------------------------------------

def umbrella_graph() -> ClosedFormGraph:
    """The zero function: the minimal umbrella centered at the origin."""

    def stack(x: np.ndarray, y: np.ndarray) -> PartialStack:
        z = np.zeros_like(x)
        return z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy()

    return stack


def shear_graph(params: SpaceParams) -> ClosedFormGraph:
    """u = tau x y, the fiber-invariant minimal graph for kappa = 0."""
    tau = params.tau

    def stack(x: np.ndarray, y: np.ndarray) -> PartialStack:
        zero = np.zeros_like(x)
        return tau * x * y, tau * y, tau * x, zero, np.full_like(x, tau), zero.copy()

    return stack


def arctan_graph(params: SpaceParams) -> ClosedFormGraph:
    """u = (2 tau/kappa) arctan(2xy / (4/kappa + x^2 - y^2)) for kappa < 0.

    With w = x + iy the argument equals Im(w^2 + 4/kappa) / Re(w^2 + 4/kappa),
    so u = (2 tau/kappa) Im log(4/kappa + w^2) up to a constant on the disk,
    and all partials follow from the holomorphic derivative: for g = Im f,
    g_x = Im f', g_y = Re f', g_xx = Im f'', g_xy = Re f'', g_yy = -Im f''.
    """
    if params.kappa >= 0:
        raise ValueError("the arctan graph needs kappa < 0")
    kappa, tau = params.kappa, params.tau
    scale = 2.0 * tau / kappa

    def stack(x: np.ndarray, y: np.ndarray) -> PartialStack:
        w = x + 1j * y
        q = 4.0 / kappa + w * w
        # 4/kappa + x^2 - y^2 < 0 strictly on the disk, so the plain arctan
        # of the ratio is continuous and matches the displayed branch.
        u = scale * np.arctan(2.0 * x * y / (4.0 / kappa + x * x - y * y))
        fp = 2.0 * w / q
        fpp = (8.0 / kappa - 2.0 * w * w) / (q * q)
        u_x = scale * fp.imag
        u_y = scale * fp.real
        u_xx = scale * fpp.imag
        u_xy = scale * fpp.real
        u_yy = -scale * fpp.imag
        return u, u_x, u_y, u_xx, u_xy, u_yy

    return stack
