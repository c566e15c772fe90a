"""Invariant audit: fast cross-module health checks with a pass/fail table.

Each row measures one structural invariant (closed-form agreement, symmetry,
monotonicity, convergence order) and compares it against its documented
threshold.  The table is what `ektlab audit` prints; any failing row makes
the command exit nonzero.  The fault-injection mode is the negative control
of helicoid-residuals-mu-quarter alone: that row checks the profile of the
member mu + eps against the slope law and ODE of mu.  Every member solves
the ODE, and only the first integral tells them apart, so the row failing
shows that the first-integral check has teeth.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

import numpy as np

from . import curves, graphs, helicoid, solver
from .spaces import (SpaceParams, conformal_factor_xy,
                     interior_angle_at_p2, interior_angle_threshold_b,
                     law_of_cosines, metric_distance)

__all__ = ["AuditRow", "run_audit", "format_table"]

_SEED = 20260814


@dataclass
class AuditRow:
    name: str
    passed: bool
    measured: float
    threshold: str


def _check_conformal_factor_xy() -> Tuple[float, bool]:
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for kappa in (0.0, -0.75, -1.0):
        lim = 0.9 * (2.0 / math.sqrt(-kappa)) if kappa < 0 else 3.0
        for _ in range(50):
            x, y = rng.uniform(-lim / 2, lim / 2, size=2)
            direct = 1.0 / (1.0 + kappa * (x * x + y * y) / 4.0)
            worst = max(worst, abs(conformal_factor_xy(x, y, kappa) - direct))
    return worst, worst < 1e-15


def _check_closed_form_graphs() -> Tuple[float, bool]:
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for kappa in (0.0, -0.75, -1.0):
        for tau in (0.0, 0.5):
            params = SpaceParams(kappa=kappa, tau=tau)
            forms = [graphs.umbrella_graph()]
            if kappa == 0.0:
                forms.append(graphs.shear_graph(params))
            else:
                forms.append(graphs.arctan_graph(params))
            lim = 0.8 * (2.0 / math.sqrt(-kappa)) if kappa < 0 else 2.0
            pts = rng.uniform(-lim / 2, lim / 2, size=(40, 2))
            for g in forms:
                h = graphs.graph_mean_curvature(g, pts[:, 0], pts[:, 1], params)
                worst = max(worst, float(np.max(np.abs(h))))
    return worst, worst < 1e-8


def _check_law_of_cosines() -> Tuple[float, bool]:
    worst = 0.0
    for kappa in (-0.36, -1.0):
        for k in (2, 3):
            s = law_of_cosines(1.0, 2.0, k, kappa) - law_of_cosines(2.0, 1.0, k, kappa)
            worst = max(worst, abs(s))
            inc_a = law_of_cosines(1.2, 1.0, k, kappa) - law_of_cosines(1.0, 1.0, k, kappa)
            inc_b = law_of_cosines(1.0, 1.2, k, kappa) - law_of_cosines(1.0, 1.0, k, kappa)
            if inc_a <= 0 or inc_b <= 0:
                worst = max(worst, 1.0)
    # curvature correction scales like |kappa| a b ell, so the flat-limit
    # comparison needs sub-unit sides to sit below 1e-6 at kappa = -1e-4
    a, b = 0.3, 0.4
    flat = math.sqrt(a * a + b * b - 2.0 * a * b * math.cos(math.pi / 3))
    near = law_of_cosines(a, b, 3, -1e-4)
    worst = max(worst, abs(near - flat))
    return worst, worst < 1e-6


def _check_angle_threshold() -> Tuple[float, bool]:
    worst = 0.0
    for H in (0.1, 0.4):
        kappa = 4.0 * H * H - 1.0
        for k in (2, 3, 4, 6):
            b_star = interior_angle_threshold_b(k, H)
            beta = interior_angle_at_p2(b_star, k, kappa)
            worst = max(worst, abs(beta - math.pi / 2.0))
    return worst, worst < 1e-10


def _check_helicoid_oddness() -> Tuple[float, bool]:
    worst = 0.0
    for mu in (-3.0, -0.3, 2.0):
        for x in (0.3, 1.1, 2.7):
            worst = max(worst, abs(helicoid.g_mu(-x, mu) + helicoid.g_mu(x, mu)))
        t = helicoid.t_mu(mu)
        vs = [0.3 * min(t, 3.0), 0.7 * min(t, 3.0)]
        prof = helicoid.invert_profile(mu, vs + [-v for v in vs])
        f = dict(zip(prof.v.tolist(), prof.f.tolist()))
        for v in vs:
            worst = max(worst, abs(f[v] + f[-v]))
    return worst, worst < 1e-12


def _check_half_period() -> Tuple[float, bool]:
    pos = [helicoid.t_mu(m) for m in (0.6, 1.0, 2.0, 5.0, 10.0)]
    neg = [helicoid.t_mu(m) for m in (-10.0, -5.0, -2.0, -1.0, -0.6)]
    ok = all(b < a for a, b in zip(pos, pos[1:]))
    ok &= all(b > a for a, b in zip(neg, neg[1:]))
    ok &= pos[-1] < 0.5 * pos[1]
    margin = min(min(a - b for a, b in zip(pos, pos[1:])),
                 min(b - a for a, b in zip(neg, neg[1:])))
    return margin, ok


def _check_inversion_identity() -> Tuple[float, bool]:
    worst = 0.0
    for mu in (-3.0, -0.8, 0.25, 1.7):
        t = helicoid.t_mu(mu)
        grid = np.linspace(-0.85, 0.85, 9) * min(t, 4.0)
        prof = helicoid.invert_profile(mu, grid)
        for v, f in zip(prof.v, prof.f):
            worst = max(worst, abs(helicoid.g_mu(float(f), mu) - v))
    return worst, worst < 1e-9


def _check_residuals_quarter(fault_eps: float) -> Tuple[float, bool]:
    worst = 0.0
    for mu in (0.25, -0.25):
        grid = helicoid.residual_grid(mu, spacing=1e-3, fraction=0.9, window=2.0)
        # fault_eps != 0 is the negative control: another member's profile
        prof = replace(helicoid.invert_profile(mu + fault_eps, grid), mu=mu)
        worst = max(worst, helicoid.minimality_residual(prof))
        worst = max(worst, helicoid.first_integral_residual(prof))
    return worst, worst < 1e-6


def _check_curvature_identity() -> Tuple[float, bool]:
    rng = np.random.default_rng(_SEED + 2)
    mus = np.where(rng.random(200) < 0.5, -1.0, 1.0) * rng.uniform(0.5 + 1e-9, 20.0, 200)
    ss = rng.uniform(-30.0, 30.0, 200)
    worst = 0.0
    for s, mu in zip(ss, mus):
        worst = max(worst, abs(curves.kg_critical(s, mu)
                               + helicoid.theta_prime(s, mu) - 1.0))
    return worst, worst < 1e-12


def _check_angle_range() -> Tuple[float, bool]:
    prof = helicoid.invert_profile(-3.0, np.linspace(-0.4, 0.4, 21))
    u, v = np.meshgrid(np.linspace(-3.0, 3.0, 25), prof.v)
    nu = helicoid.angle_function(u, v, prof)
    axis = (np.abs(u) <= 1e-12) & (np.abs(v) <= 1e-12)
    worst = float(np.max(np.abs(nu[axis] - 1.0), initial=0.0))
    ok = bool(np.all(nu <= 1.0 + 1e-12) and np.all(nu[~axis] < 1.0))
    return worst, ok and worst < 1e-12


def _check_integrator_order() -> Tuple[float, bool]:
    # kg_critical(mu = 3) from the catenoid start, to s = 10: each halving of
    # the step moves the endpoint about 16x less than the one before
    mu = 3.0
    r0 = math.tanh(helicoid.vertex_base_distance(mu) / 2.0)
    ends = []
    for step in (4e-2, 2e-2, 1e-2):
        c = curves.integrate_prescribed_curvature(
            lambda s: curves.kg_critical(s, mu), (0.0, 10.0), (r0, 0.0),
            -math.pi / 2.0, step=step)
        ends.append(2.0 * c.points[-1])  # the radius-2 chart of curvature -1
    moves = metric_distance(np.array(ends[:-1]), np.array(ends[1:]), -1.0)
    ratio = moves[0] / moves[1]
    return ratio, 12.0 <= ratio <= 20.0


def _check_constant_kg_exact() -> Tuple[float, bool]:
    # constant kg is integrated exactly: the geodesic through 0 reaches
    # r = tanh(s/2) at s = 2, and a full circle of radius 0.8 closes
    geo = curves.integrate_prescribed_curvature(
        np.zeros_like, (0.0, 2.0), (0.0, 0.0), 0.0, step=1e-3)
    rho = 0.8
    circle = curves.integrate_prescribed_curvature(
        lambda s: np.full_like(s, 1.0 / math.tanh(rho)),
        (0.0, 2.0 * math.pi * math.sinh(rho)), (math.tanh(rho / 2.0), 0.0),
        math.pi / 2.0, step=1e-3)
    worst = max(abs(geo.x[-1] - math.tanh(1.0)),
                float(np.hypot(*(circle.points[-1] - circle.points[0]))))
    return worst, worst < 1e-12


def _check_dihedral_closure() -> Tuple[float, bool]:
    # quarter of a hyperbolic circle about the origin closes under k=2
    rho = 1.0
    kg = 1.0 / math.tanh(rho)
    r0 = math.tanh(rho / 2.0)
    quarter = math.pi / 2.0 * math.sinh(rho)
    c = curves.integrate_prescribed_curvature(
        lambda s: np.full_like(s, kg), (0.0, quarter), (r0, 0.0), math.pi / 2.0,
        step=2e-4)
    asm = curves.assemble_domain(c, 2)
    return asm.max_gap, asm.closed and asm.max_gap <= 1e-8


def _check_solver_roundtrip() -> Tuple[float, bool]:
    sols = solver.solve_jenkins_serrin(1.0, 1.0, 2, 0.4, [2.0, 4.0], 0.05)
    last = sols[-1]
    nu = last.nu()
    if np.any(nu <= 0.0) or np.any(nu > 1.0 + 1e-9):
        return float(np.max(nu)), False
    imax = int(np.argmax(nu))
    off = float(last.domain.node_metric_radius[imax])
    desc = all(b <= a + 1e-12 for a, b in
               zip(last.energy_history, last.energy_history[1:]))
    d_val = solver.distance_d_single(last)
    bounded = d_val <= 1.0  # nu <= 1 along a side of length b = 1
    return off, desc and bounded and off <= last.domain.target_h + 1e-12


_CHECKS: List[Tuple[str, str, Callable[..., Tuple[float, bool]]]] = [
    ("conformal-factor-closed-form", "< 1e-15", _check_conformal_factor_xy),
    ("closed-form-graph-residuals", "< 1e-8", _check_closed_form_graphs),
    ("law-of-cosines-properties", "< 1e-6", _check_law_of_cosines),
    ("interior-angle-threshold", "< 1e-10", _check_angle_threshold),
    ("helicoid-oddness", "< 1e-12", _check_helicoid_oddness),
    ("half-period-monotonicity", "margin > 0", _check_half_period),
    ("profile-inversion-identity", "< 1e-9", _check_inversion_identity),
    ("helicoid-residuals-mu-quarter", "< 1e-6", _check_residuals_quarter),
    ("critical-curvature-identity", "< 1e-12", _check_curvature_identity),
    ("angle-function-range", "nu <= 1, max at 0", _check_angle_range),
    ("frenet-integrator-order", "ratio in [12, 20]", _check_integrator_order),
    ("frenet-constant-kg-exact", "< 1e-12", _check_constant_kg_exact),
    ("dihedral-assembly-closure", "gap <= 1e-8", _check_dihedral_closure),
    ("solver-nu-energy-distance", "max-nu at p0", _check_solver_roundtrip),
]


def run_audit(fault_eps: float = 0.0) -> List[AuditRow]:
    """Run every invariant check; a nonzero fault_eps shifts the member that
    helicoid-residuals-mu-quarter inverts, and only that row."""
    rows = []
    for name, thresh, fn in _CHECKS:
        if fn is _check_residuals_quarter:
            fn = functools.partial(fn, fault_eps)
        try:
            measured, ok = fn()
        except Exception as exc:  # an invariant check must never crash the table
            rows.append(AuditRow(name, False, float("nan"), f"raised {type(exc).__name__}"))
            continue
        rows.append(AuditRow(name, bool(ok), float(measured), thresh))
    return rows


def format_table(rows: List[AuditRow]) -> str:
    width = max(len(r.name) for r in rows)
    lines = []
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  measured={r.measured:.6e}  ({r.threshold})")
    n_fail = sum(not r.passed for r in rows)
    lines.append(f"{n_fail} of {len(rows)} checks failed" if n_fail
                 else f"all {len(rows)} checks passed")
    return "\n".join(lines)
