"""Ruled minimal family in Nil_3: profiles, half-periods, residual grids.

The half-period regression table below was frozen from the adaptive
quadrature of the profile's inverse g_mu; the dual blow-up oracle
(ODE integration of f to |f| = 1e8 with asymptotic tail) must agree
independently, which is what pins the constants.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ektlab import helicoid as hc
from ektlab.spaces import GeometryError

# frozen half-periods t_mu (see module docstring); keys are mu
HALF_PERIODS = {
    0.6: 2.776361582296484,
    1.0: 1.414884430505956,
    2.0: 0.718952834494823,
    3.0: 0.489761666129083,
    5.0: 0.300651228449861,
    10.0: 0.153436784649660,
    -0.6: 10.805121223712087,
    -1.0: 2.498348127732517,
    -2.0: 0.930068238684340,
    -3.0: 0.579836416473443,
    -5.0: 0.332424303680106,
    -10.0: 0.161312913278438,
}


@pytest.mark.parametrize("mu,expected", sorted(HALF_PERIODS.items()))
def test_half_period_regression_table(mu, expected):
    assert hc.t_mu(mu) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mu", [0.8, 2.0, -1.3, -4.0])
def test_half_period_dual_route_agreement(mu):
    """Quadrature of the inverse profile vs ODE blow-up detection."""
    assert hc.blowup_half_period(mu) == pytest.approx(hc.t_mu(mu), abs=1e-8)


@pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, -0.5, -0.3])
def test_half_period_infinite_inside_the_strip(mu):
    assert math.isinf(hc.t_mu(mu))


@pytest.mark.parametrize("mu", [-0.5001, -0.500001, -0.5000000001])
def test_half_period_next_to_the_strip_edge(mu):
    """As mu -> -1/2 from below, c -> 0 and t_mu |c| -> 1: the elliptic
    integral is finite and accurate right up to the edge."""
    t = hc.t_mu(mu)
    assert math.isfinite(t)
    assert abs(t * abs(hc.c_of_mu(mu)) - 1.0) <= 1e-7


@pytest.mark.parametrize("mu", [1e6, -1e6, 1e9, -1e9, 1e12, -1e12])
def test_half_period_far_out_approaches_pi_over_2_mu(mu):
    """As |mu| -> inf, c -> -1 and the integrand tends to (1 - c^2)/(4 + y^2),
    so t_mu = pi/(2|mu|) (1 + O(1/|mu|))."""
    assert abs(2.0 * abs(mu) * hc.t_mu(mu) / math.pi - 1.0) <= 1.0 / abs(mu)


def test_half_period_next_to_the_edge_matches_the_blowup_oracle():
    assert hc.blowup_half_period(-0.5001) == pytest.approx(hc.t_mu(-0.5001), rel=1e-9)


def test_c_sigma_closed_forms():
    for mu in (0.7, 1.0, 3.0, -0.8, -2.5):
        assert hc.c_of_mu(mu) == pytest.approx((1 + 2 * mu) / (1 - 2 * mu))
        assert hc.sigma(mu) == pytest.approx((1 + 2 * mu) ** 2 / (4 * mu))
    assert hc.c_of_mu(0.0) == 1.0
    with pytest.raises(GeometryError):
        hc.c_of_mu(0.5)


def test_theta_prime_closed_form_and_parity():
    for mu in (0.7, -3.0):
        s = np.linspace(-2, 2, 41)
        sig = hc.sigma(mu)
        expected = -sig / (1 + sig**2 * s**2)
        got = np.array([hc.theta_prime(t, mu) for t in s])
        assert np.allclose(got, expected, rtol=1e-14)
        assert np.allclose(got, got[::-1])  # even in s
    # sign dictionary: sigma > 0 for mu > 1/2, sigma < 0 for mu < -1/2
    assert hc.theta_prime(0.0, 3.0) < 0 < hc.theta_prime(0.0, -3.0)


def test_scalar_theta_prime_matches_the_array_path():
    s = np.linspace(-60.0, 60.0, 2401)
    for mu in (0.7, 3.0, -3.0):
        fn = hc.theta_prime_fn(mu)
        scalar = [fn(float(t)) for t in s]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(scalar, hc.theta_prime(s, mu))
    with pytest.raises(GeometryError):
        hc.theta_prime_fn(0.5)


def test_vertex_base_distance_closed_form_vs_quadrature():
    for mu in (0.8, 3.0, -0.7, -3.0, -10.0):
        exact = abs(math.log(abs(hc.c_of_mu(mu))))
        assert hc.vertex_base_distance(mu) == pytest.approx(exact, rel=1e-14)
        assert hc.vertex_base_distance_quadrature(mu) == \
            pytest.approx(exact, rel=1e-9)
    assert hc.vertex_base_distance(3.0) == pytest.approx(math.log(7 / 5))


def test_invert_profile_identity_and_oddness():
    mu = -2.0
    t = hc.t_mu(mu)
    v = np.linspace(-0.9 * t, 0.9 * t, 201)
    prof = hc.invert_profile(mu, v)
    assert prof.mu == mu and prof.t_mu == pytest.approx(t)
    # g(f(v)) = v to near machine precision
    back = np.array([hc.g_mu(f, mu) for f in prof.f])
    assert np.max(np.abs(back - v)) < 1e-11
    # f is odd: f(-v) = -f(v)
    assert np.max(np.abs(prof.f + prof.f[::-1])) < 1e-11
    # h carries the displayed sign (v - f)/2
    assert np.allclose(prof.h, (v - prof.f) / 2.0)


def test_residual_grid_windows():
    v = hc.residual_grid(3.0, spacing=1e-3, fraction=0.9, window=2.0)
    t = hc.t_mu(3.0)
    assert abs(v).max() <= 0.9 * t + 1e-12
    assert np.allclose(np.diff(v), 1e-3)
    v_inf = hc.residual_grid(0.25, spacing=1e-3, fraction=0.9, window=2.0)
    assert abs(v_inf).max() == pytest.approx(2.0)


@pytest.mark.parametrize("mu", [0.25, -0.25])
def test_residuals_vanish_on_gentle_members(mu):
    v = hc.residual_grid(mu, spacing=1e-3, fraction=0.9, window=2.0)
    prof = hc.invert_profile(mu, v)
    assert hc.minimality_residual(prof) < 1e-6
    assert hc.first_integral_residual(prof) < 1e-6


def test_special_members():
    v = np.linspace(-1, 1, 101)
    umbrella = hc.invert_profile(0.0, v)
    assert np.max(np.abs(umbrella.f - v)) < 1e-14  # f = v, zero height
    assert umbrella.sigma is None
    inv = hc.invert_profile(0.5, v)
    assert np.max(np.abs(inv.f)) == 0.0  # constant profile f = 0
    assert hc.minimality_residual(inv) == 0.0
    with pytest.raises(GeometryError):
        hc.first_integral_residual(inv)
    # mu = -1/2 gives f = 2v (slope-two invariant member)
    inv2 = hc.invert_profile(-0.5, v)
    assert np.max(np.abs(inv2.f - 2 * v)) < 1e-12


@pytest.mark.parametrize("mu,slope", [(0.0, 1.0), (-0.5, 2.0)])
def test_constant_slope_members_invert_to_v_and_2v_bit_for_bit(mu, slope):
    # the inversion's first iterate is exact where the integrand is constant
    v = np.concatenate([hc.residual_grid(mu), np.linspace(-2e3, 2e3, 100001),
                        [0.0, 1e-300, 5e-324, 1e100, -1e100, 2.0, -2.0]])
    f = hc.invert_profile(mu, v).f
    assert f.tobytes() == (slope * v).tobytes()


def test_model_height():
    mu = 1.0
    v = np.linspace(-1.2, 1.2, 401)
    prof = hc.invert_profile(mu, v)
    # model height is the ruled graph u (f(v) - v)/2
    z = hc.model_height(2.0, 0.7, prof)
    assert z == pytest.approx(2.0 * (float(prof.f_many(0.7)) - 0.7) / 2.0)


def test_half_period_monotonicity_both_branches():
    pos = [hc.t_mu(m) for m in (0.6, 1.0, 2.0, 5.0, 10.0)]
    assert all(x > y for x, y in zip(pos, pos[1:]))
    neg = [hc.t_mu(m) for m in (-0.6, -1.0, -2.0, -5.0, -10.0)]
    assert all(x > y for x, y in zip(neg, neg[1:]))


@settings(max_examples=30, deadline=None)
@given(mu=st.one_of(st.floats(0.55, 20.0), st.floats(-20.0, -0.55)),
       frac=st.floats(0.05, 0.85))
def test_profile_inversion_property(mu, frac):
    """g(f(v)) = v holds across the blow-up window on both branches."""
    t = hc.t_mu(mu)
    v = np.array([frac * t])
    prof = hc.invert_profile(mu, v)
    assert hc.g_mu(prof.f[0], mu) == pytest.approx(float(v[0]), abs=1e-10)


def test_profile_csv_lines_schema():
    prof = hc.invert_profile(1.0, np.linspace(-1, 1, 5))
    lines = list(hc.profile_csv_lines(prof))
    assert lines[0] == "# mu=1.0"
    assert lines[1].startswith("# t_mu=1.4148844305")
    assert lines[2] == "# sigma=2.25"
    assert lines[3] == "v,f,h"
    assert len(lines) == 4 + 5
    v0, f0, h0 = (float(tok) for tok in lines[4].split(","))
    assert v0 == -1.0 and f0 == pytest.approx(-prof.f[-1])


def test_audit_fault_fails_only_the_quarter_residual_row():
    """The negative control: the profile of mu + eps, checked against the
    slope law of mu, fails its row and no other; eps = 0 passes it."""
    from ektlab.audit import run_audit

    name = "helicoid-residuals-mu-quarter"
    dirty = run_audit(1e-3)
    assert [r.name for r in dirty if not r.passed] == [name]
    assert next(r for r in dirty if r.name == name).measured > 1e-4
    clean = next(r for r in run_audit(0.0) if r.name == name)
    assert clean.passed and clean.measured < 1e-6


@pytest.mark.parametrize("mu", [-20.0, -3.0, -0.51, 0.25, 0.501, 1.0, 20.0])
def test_profile_of_a_sample_does_not_depend_on_its_batch(mu):
    """f_many on a batch, on a shuffled batch and one sample at a time."""
    rng = np.random.default_rng(7)
    lim = 0.99 * min(hc.t_mu(mu), 3.0)
    prof = hc.invert_profile(mu, np.linspace(-lim, lim, 5))
    v = np.concatenate(([0.0, lim, -lim], rng.uniform(-lim, lim, 300)))
    batch = prof.f_many(v)
    perm = rng.permutation(v.size)
    shuffled = np.empty_like(v)
    shuffled[perm] = prof.f_many(v[perm])
    single = np.array([prof.f_many(x) for x in v])
    assert np.array_equal(batch, shuffled)
    assert np.array_equal(batch, single)
    assert np.array_equal(batch, hc.invert_profile(mu, v).f)


def test_profile_of_a_sample_does_not_depend_on_its_block():
    """A batch over several Newton blocks, with one sample next to the
    half-period, against single samples."""
    mu = -0.6
    rng = np.random.default_rng(8)
    t = hc.t_mu(mu)
    v = rng.uniform(-0.5 * t, 0.5 * t, 3 * hc._BLOCK)
    v[-1] = 0.999 * t
    prof = hc.invert_profile(mu, v[:5])
    batch = prof.f_many(v)
    picks = np.arange(0, v.size, 997)
    assert np.array_equal(batch[picks], [prof.f_many(x) for x in v[picks]])


@pytest.mark.parametrize("mu", [0.5000001, 0.501, -0.51, -3.0])
def test_inversion_next_to_the_half_period(mu):
    v = 0.99 * hc.t_mu(mu)
    prof = hc.invert_profile(mu, [-v, 0.0, v])
    for vv, f in zip(prof.v, prof.f):
        assert abs(hc.g_mu(float(f), mu) - vv) <= 1e-10
    assert prof.f[1] == 0.0 and prof.f[0] == -prof.f[2]


@pytest.mark.parametrize("mu", [-3.0, -0.5000001, 3.0])
def test_the_last_sample_below_the_half_period_inverts(mu):
    """v = nextafter(t_mu, 0) inverts to a finite f past f at (1 - 1e-12) t.
    Fails at the parent: its Gauss-Legendre Psi table raised "saturates"
    for round-off at all three mu."""
    t = hc.t_mu(mu)
    prof = hc.invert_profile(mu, [(1.0 - 1e-12) * t, np.nextafter(t, 0.0)])
    f = prof.f * (1.0 if mu < 0.5 else -1.0)
    assert np.all(np.isfinite(f)) and 0.0 < f[0] < f[1]


PSI_MUS = [-20.0, 20.0, -3.0, 3.0, -1.5, -0.6, 0.6, -0.51, 0.51, -0.25, 0.25, 0.49]


@pytest.mark.parametrize("mu", PSI_MUS)
def test_closed_form_psi_matches_the_quadrature(mu):
    """Psi against g_mu's adaptive quadrature at 10 seeded x.  Fails at the
    parent, which tabulated Psi and had no _psi."""
    x = 10.0 ** np.random.default_rng(30).uniform(-3.0, 1.5, 10)
    c, m = hc.c_of_mu(mu), -8.0 * mu / (1.0 - 2.0 * mu) ** 2
    psi = hc._psi(x, mu, c, m)
    ref = np.array([abs(hc.g_mu(float(xx), mu)) for xx in x])
    np.testing.assert_allclose(psi, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mu", [-1e6, -1e3, 1e3, 1e6])
def test_inversion_far_out_in_mu(mu):
    """Odd, and g_mu(f) = v to 1e-9 |v| at 0.5 t and 0.99 t.  Passes at the
    parent too."""
    t = hc.t_mu(mu)
    v = np.array([0.5 * t, 0.99 * t, -0.5 * t, -0.99 * t])
    f = hc.invert_profile(mu, v).f
    assert np.all(np.isfinite(f)) and np.array_equal(f[:2], -f[2:])
    for vv, ff in zip(v, f):
        assert abs(hc.g_mu(float(ff), mu) - vv) <= 1e-9 * abs(vv)


def test_newton_stops_on_a_two_cycle_at_the_round_off_floor():
    """Found by a seeded search: this sample's iterates alternate between two
    x with |Psi - w| just over 4 eps w, and without the two-cycle stop the
    inversion stalls.  Passes at the parent, which tabulated Psi."""
    mu, v = 288054.0586006664, 5.383749039471294e-06
    f = hc.invert_profile(mu, [-v, v]).f
    assert f[0] == -f[1] and abs(hc.g_mu(float(f[1]), mu) - v) <= 1e-9 * v


def test_samples_outside_the_open_domain_are_rejected():
    prof = hc.invert_profile(-3.0, [0.1])
    for bad in (prof.t_mu, -prof.t_mu, np.nan, np.inf):
        with pytest.raises(GeometryError):
            prof.f_many([0.2, bad])
        with pytest.raises(GeometryError):
            hc.invert_profile(-3.0, [bad])
    with pytest.raises(GeometryError):
        hc.invert_profile(0.25, [np.nan])
