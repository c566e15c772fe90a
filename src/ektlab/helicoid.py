"""The one-parameter family of ruled minimal graphs in Nil3 = E(0, 1/2).

Each member is parametrized as X(u, v) = (u, v, u * slope(v)) and is foliated
by horizontal straight lines.  The profile f is the inverse of the odd
monotone quadrature

    g_mu(x) = (1/2) int_0^x [ 1 + c sqrt(4+y^2) / sqrt(4+c^2 y^2) ] dy,
    c = (1+2mu)/(1-2mu),

with f(0) = 0 and f'(0) = 1 - 2mu.  For |mu| <= 1/2 the graph is entire
(half-period t_mu infinite); otherwise f blows up at the finite half-period
t_mu and the surface contains the vertical fibers over (0, +-t_mu).

f is found for all samples at once by Halley's method on Psi(x) =
|int_0^x integrand|, an incomplete elliptic integral in closed form (one
Carlson R_D), inside closed-form bounds, so f(v) depends on mu and v alone:
the module holds no state that a call could change.  g_mu,
by adaptive quadrature, is the independent reference it is checked against;
t_mu = Psi(inf) is a complete elliptic integral.  Only g_mu,
blowup_half_period and vertex_base_distance_quadrature import scipy.integrate,
in their bodies, so importing this module does not load it.

Sign conventions in this chart: the sampled profile column h = (v - f)/2
follows the published parametrization and feeds sigma = lim h'/(1+h^2)
= (1+2mu)^2/(4mu), while the height field that actually satisfies the
minimal-graph equation is z = u * (f(v) - v)/2 = -u h(v); the latter is
exposed as model_height and backs the strip solver test and the OBJ export.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .spaces import GeometryError

__all__ = [
    "QuadratureError",
    "HelicoidProfile",
    "c_of_mu",
    "g_mu",
    "t_mu",
    "blowup_half_period",
    "invert_profile",
    "residual_grid",
    "minimality_residual",
    "first_integral_residual",
    "sigma",
    "theta_prime",
    "theta_prime_fn",
    "model_height",
    "vertex_base_distance",
    "vertex_base_distance_quadrature",
    "profile_csv_lines",
]


class QuadratureError(ArithmeticError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


def c_of_mu(mu: float) -> float:
    if mu == 0.5:
        raise GeometryError("c is undefined at mu = 1/2 (constant profile)")
    return (1.0 + 2.0 * mu) / (1.0 - 2.0 * mu)


def _slope(y2: np.ndarray, mu: float) -> np.ndarray:
    """Slope integrand I as a function of y^2 (even in y): the raw form
    (1 + c sqrt(4+y^2)/sqrt(4+c^2 y^2))/2 for c >= 0; for c < 0, where that
    cancels at large y, 2m/(4+c^2 y^2 + |c| sqrt((4+c^2y^2)(4+y^2))) with
    m = 1 - c^2 = -8mu/(1-2mu)^2 taken from mu, free of cancellation."""
    c = c_of_mu(mu)
    if c >= 0.0:
        return 0.5 * (1.0 + c * np.sqrt(4.0 + y2) / np.sqrt(4.0 + c * c * y2))
    den = 4.0 + c * c * y2 + abs(c) * np.sqrt((4.0 + c * c * y2) * (4.0 + y2))
    return 2.0 * (-8.0 * mu / (1.0 - 2.0 * mu) ** 2) / den


def g_mu(x: float, mu: float) -> float:
    """Odd slope quadrature from 0 to x, absolute tolerance 1e-10."""
    c_of_mu(mu)  # undefined at mu = 1/2
    if x == 0.0:
        return 0.0
    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(lambda y: float(_slope(y * y, mu)),
                                  0.0, abs(x), epsabs=1e-12, epsrel=1e-12,
                                  limit=200)
    if err > 1e-10:
        raise QuadratureError("g_mu quadrature did not converge", err)
    return math.copysign(1.0, x) * val


def t_mu(mu: float) -> float:
    """Half-period of the profile: infinite iff |mu| <= 1/2.

    Otherwise y = 2 tan(theta) and an integration by parts turn the improper
    integral of |integrand| into (|1-c^2|/|c|) times the complete elliptic
    integral int_0^(pi/2) cos^2 / sqrt(1 - (1-c^2) sin^2) = (c^2/3) R_D(0, 1, c^2)
    (DLMF 19.25.1), so

        t_mu = 8 |mu| |1+2mu| / (3 |1-2mu|^3) R_D(0, 1, c^2),

    with |1 - c^2| = 8|mu|/(1-2mu)^2 taken from mu, free of cancellation.
    """
    if abs(mu) <= 0.5:
        return math.inf
    from scipy.special import elliprd
    c = c_of_mu(mu)
    scale = 8.0 * abs(mu) * abs(1.0 + 2.0 * mu) / (3.0 * abs(1.0 - 2.0 * mu) ** 3)
    return scale * float(elliprd(0.0, 1.0, c * c))


def blowup_half_period(mu: float, f_stop: float = 1e8) -> float:
    """Half-period located by integrating the profile ODE to blow-up.

    Independent of the quadrature route: starting from f(0) = 0,
    f'(0) = 1 - 2mu, the system v(f), q(f) = f'(v(f)) with
    dv/df = 1/q, dq/df = 2 f (q-1)(q-2) / ((4+f^2) q) is integrated until
    |f| = f_stop, and the pole location follows from the asymptote
    f ~ A/(t - v): t = v_end + f_end/q_end up to O(f_stop^-3).
    """
    if abs(mu) <= 0.5:
        return math.inf
    sign = 1.0 if mu < -0.5 else -1.0  # f -> +inf for mu < -1/2, else -inf

    def rhs(f, y):
        v, q = y
        return [1.0 / q, 2.0 * f * (q - 1.0) * (q - 2.0) / ((4.0 + f * f) * q)]

    from scipy import integrate
    sol = integrate.solve_ivp(rhs, (0.0, sign * f_stop), [0.0, 1.0 - 2.0 * mu],
                              method="DOP853", rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise ArithmeticError(f"profile ODE integration failed: {sol.message}")
    v_end, q_end = sol.y[0, -1], sol.y[1, -1]
    return float(v_end + sign * f_stop / q_end)


def _f_prime_rhs(f, c: float):
    """Profile slope from the conserved quantity, as a function of f."""
    f = np.asarray(f, dtype=float)
    s1 = np.sqrt(4.0 + c * c * f * f)
    s2 = np.sqrt(4.0 + f * f)
    return 2.0 * s1 / (s1 + c * s2)


_BLOCK = 2 ** 14   # samples per Newton block, which bounds its temporaries
_NEWTON_ITERS = 50


def _psi(x: np.ndarray, mu: float, c: float, m: float) -> np.ndarray:
    """Psi(x) = |int_0^x I| in closed form, I the slope integrand and
    m = 1 - c^2 taken from mu: y = 2 tan(theta) and DLMF 19.21's connection
    formulas fold all but one Carlson R_D into x I(x), so int_0^x I =
    x I(x) - c m x^3 R_D(4+x^2, 4, 4+c^2 x^2)/3.  Where I cancels (c < 0)
    both terms carry the sign of m; the grouping stays finite to x = 2e100."""
    from scipy.special import elliprd
    rd = elliprd(4.0 + x * x, 4.0, 4.0 + (c * x) ** 2)
    return np.abs(x * _slope(x * x, mu) - x * ((c * x) * (m * x) * rd) / 3.0)


def _invert_psi(w: np.ndarray, mu: float, t: float) -> np.ndarray:
    """The x >= 0 with Psi(x) = w, by Newton on (Psi - w)/sqrt(|I|) (Halley's
    method, its gain capped at 2) clipped to a bracket: |I| lies between
    I(0) = 1/|1-2mu| and its limit, 1 for |mu| < 1/2, else 0 with
    |I(y)| <= |m|/(c^2 y^2), so x is in [w/max, w/min] (min >= 1/2), or
    in [w |1-2mu|, |m|/(c^2 (t - w))] (started there past t/2) when t is
    finite.  The bracket and the steps read mu and w alone.  A sample stops
    once |Psi(x) - w| <= 4 eps w, or x stops moving or two-cycles at Psi's
    round-off floor."""
    c, m = c_of_mu(mu), -8.0 * mu / (1.0 - 2.0 * mu) ** 2
    i0 = 1.0 / abs(1.0 - 2.0 * mu)
    s0 = 1.0 if mu < 0.5 else -1.0  # sign of the integrand
    if math.isinf(t):
        lo, hi, x = w / max(i0, 1.0), w / min(i0, 1.0), w / i0
    else:
        lo, hi = w / i0, abs(m) / (c * c * (t - w))
        x = np.where(w > t / 2.0, hi, lo)
    x_prev = np.full_like(w, np.nan)
    todo = np.arange(w.size)
    for _ in range(_NEWTON_ITERS):
        xt, wt = x[todo], w[todo]
        err = _psi(xt, mu, c, m) - wt
        i, q = np.abs(_slope(xt * xt, mu)), 4.0 + (c * xt) ** 2
        di = s0 * 2.0 * c * m * (xt / np.sqrt(4.0 + xt * xt)) / q / np.sqrt(q)  # |I|'
        step = err / i / np.maximum(1.0 - 0.5 * err * di / (i * i), 0.5)
        x_next = np.clip(xt - step, lo[todo], hi[todo])
        done = ((np.abs(err) <= 4.0 * np.finfo(float).eps * wt) | (x_next == xt)
                | (x_next == x_prev[todo]))
        x_prev[todo] = xt
        x[todo] = np.where(done, xt, x_next)
        todo = todo[~done]
        if todo.size == 0:
            return x
    raise QuadratureError(f"profile inversion stalled (mu={mu!r})",
                          float(np.max(np.abs(err[~done]))))


def _profile_values(mu: float, t: float, v: np.ndarray) -> np.ndarray:
    """f on an array of any shape, each sample solved on its own: 0 at the
    pole of c, mu = 1/2; else Halley on the closed-form Psi in blocks of
    _BLOCK, so f(v) depends on v alone (at mu = 0 and -1/2 the integrand
    is constant, 1 and 1/2, and the first iterate gives f = v and 2v)."""
    outside = ~(np.abs(v) < t)
    if np.any(outside):
        raise GeometryError(f"{np.count_nonzero(outside)} sample(s) outside "
                            f"the open domain |v| < t_mu = {t}")
    if mu == 0.5:
        return np.zeros_like(v)
    w = np.abs(v).ravel()
    x = np.empty_like(w)
    for i in range(0, w.size, _BLOCK):
        x[i:i + _BLOCK] = _invert_psi(w[i:i + _BLOCK], mu, t)
    s0 = 1.0 if mu < 0.5 else -1.0  # sign of the integrand
    return np.where(v * s0 < 0.0, -1.0, 1.0) * x.reshape(v.shape)


@dataclass(frozen=True)
class HelicoidProfile:
    """Sampled profile of one family member.

    The stored arrays hold v, f(v) and h(v) = (v - f)/2 per sample.
    ``sigma`` is None at mu = 0 (the umbrella, no fiber).
    """

    mu: float
    t_mu: float
    v: np.ndarray
    f: np.ndarray
    h: np.ndarray
    sigma: Optional[float] = None

    def f_many(self, v) -> np.ndarray:
        """Profile values on an array of any shape inside |v| < t_mu."""
        return _profile_values(self.mu, self.t_mu, np.asarray(v, dtype=float))


def invert_profile(mu: float, v_grid: Sequence[float]) -> HelicoidProfile:
    """Solve g_mu(f) = v on a grid and assemble the profile record.

    Samples with |v| >= t_mu are rejected (the profile only exists on the
    open interval).  mu = 1/2, the pole of c, short-circuits to f = 0.
    """
    v = np.asarray(v_grid, dtype=float)
    t = t_mu(mu)
    f = _profile_values(mu, t, v)
    h = (v - f) / 2.0
    return HelicoidProfile(mu=mu, t_mu=t, v=v, f=f, h=h,
                           sigma=None if mu == 0.0 else sigma(mu))


def residual_grid(mu: float, spacing: float = 1e-3, fraction: float = 0.9,
                  window: float = 2.0) -> np.ndarray:
    """Symmetric uniform grid |v| <= fraction * t_mu (or <= window if entire)."""
    t = t_mu(mu)
    vmax = window if math.isinf(t) else fraction * t
    n = int(math.floor(vmax / spacing))
    return spacing * np.arange(-n, n + 1)


def _uniform_spacing(v: np.ndarray) -> float:
    dv = np.diff(v)
    if v.size < 5:
        raise GeometryError("need at least 5 profile samples for differences")
    if np.max(np.abs(dv - dv[0])) > 1e-9 * max(abs(dv[0]), 1e-30):
        raise GeometryError("residuals need a uniform sample grid")
    return float(dv[0])


def minimality_residual(profile: HelicoidProfile) -> float:
    """Max interior defect of (4+f^2) f'' = 2 f (f'-1)(f'-2), centered differences."""
    dv = _uniform_spacing(profile.v)
    f = profile.f
    fp = (f[2:] - f[:-2]) / (2.0 * dv)
    fpp = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (dv * dv)
    fm = f[1:-1]
    res = (4.0 + fm * fm) * fpp - 2.0 * fm * (fp - 1.0) * (fp - 2.0)
    return float(np.max(np.abs(res)))


def first_integral_residual(profile: HelicoidProfile) -> float:
    """Max defect of the conserved slope law f' = 2 s1/(s1 + c s2)."""
    if profile.mu == 0.5:
        raise GeometryError("first integral not applicable at mu = 1/2")
    dv = _uniform_spacing(profile.v)
    c = c_of_mu(profile.mu)
    f = profile.f
    fp = (f[2:] - f[:-2]) / (2.0 * dv)
    rhs = _f_prime_rhs(f[1:-1], c)
    return float(np.max(np.abs(fp - rhs)))


def sigma(mu: float) -> float:
    """Limit rotation speed sigma = (1+2mu)^2 / (4mu); undefined at mu = 0."""
    if mu == 0.0:
        raise GeometryError("sigma is undefined at mu = 0")
    return (1.0 + 2.0 * mu) ** 2 / (4.0 * mu)


def theta_prime_fn(mu: float) -> Callable[[np.ndarray], np.ndarray]:
    """s -> theta_prime(s, mu) with the mu check and sigma done once; an
    array of s in, an array of the same shape out (the Frenet march calls
    it once per array pass, on its samples and Gauss points)."""
    if abs(mu) <= 0.5:
        raise GeometryError("theta_prime needs |mu| > 1/2 (no vertical fiber otherwise)")
    sg = sigma(mu)
    return lambda s: -sg / (1.0 + sg * sg * s * s)


def theta_prime(s, mu: float):
    """Normal rotation speed -sigma/(1 + sigma^2 s^2) along the vertex fiber."""
    out = theta_prime_fn(mu)(np.asarray(s, dtype=float))
    return float(out) if out.ndim == 0 else out


# -- the minimal model graph --------------------------------------------------

def model_height(u, v, profile: HelicoidProfile):
    """Height field u * (f(v) - v)/2 of the minimal member over the (u, v) chart."""
    v = np.asarray(v, dtype=float)
    out = np.asarray(u, dtype=float) * (profile.f_many(v) - v) / 2.0
    return float(out) if np.ndim(out) == 0 else out


def vertex_base_distance(mu: float) -> float:
    """Base distance from the origin to the fiber projection, closed form.

    Equals int_0^inf 2 |g'(x)| / sqrt(4+x^2) dx; the two asinh terms
    telescope to |ln|c||.
    """
    if abs(mu) <= 0.5:
        raise GeometryError("needs |mu| > 1/2 (no finite fiber otherwise)")
    return abs(math.log(abs(c_of_mu(mu))))


def vertex_base_distance_quadrature(mu: float) -> float:
    """Quadrature route for the base distance (dual check of the closed form)."""
    if abs(mu) <= 0.5:
        raise GeometryError("needs |mu| > 1/2")

    def f_head(x: float) -> float:
        return 2.0 * abs(float(_slope(x * x, mu))) / math.sqrt(4.0 + x * x)

    def f_tail(t: float) -> float:
        return f_head(1.0 / t) / (t * t)

    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head, _ = integrate.quad(f_head, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
        tail, _ = integrate.quad(f_tail, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return head + tail


def profile_csv_lines(profile: HelicoidProfile):
    """CSV export, yielded line by line: metadata comments, then v,f,h rows
    (deterministic)."""
    sig = "" if profile.sigma is None else f"{profile.sigma!r}"
    yield from (f"# mu={profile.mu!r}", f"# t_mu={profile.t_mu!r}",
                f"# sigma={sig}", "v,f,h")
    for v, f, h in zip(profile.v, profile.f, profile.h):
        yield f"{float(v)!r},{float(f)!r},{float(h)!r}"
