"""Horizontal lifts and fiber holonomy over closed base loops."""
import math

import numpy as np
import pytest
from scipy import integrate

from ektlab.lifts import (_AREA_SEG, circle_path, enclosed_area, holonomy_gap,
                          horizontal_lift)
from ektlab.spaces import GeometryError, SpaceParams, conformal_factor_xy

NIL = SpaceParams(kappa=0.0, tau=0.5)
H2R = SpaceParams(kappa=-1.0, tau=0.25)
# the audit's holonomy square, by its corners
SQUARE = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)])


def square_path(side: float, n_per_edge: int = 400):
    s = np.linspace(0.0, side, n_per_edge)
    z = np.zeros_like(s)
    return np.vstack([np.column_stack([s, z]),
                      np.column_stack([z + side, s])[1:],
                      np.column_stack([side - s, z + side])[1:],
                      np.column_stack([z, side - s])[1:]])


def _enclosed_area_by_segment(path, params):
    """Reference: the midpoint shoelace of enclosed_area, one segment at a
    time."""
    pts = np.asarray(path, dtype=float)
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


def _random_polygon(seed, n, r_lo, r_hi):
    rng = np.random.default_rng(seed)
    th = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    r = rng.uniform(r_lo, r_hi, n)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    return np.vstack([pts, pts[:1]])


def test_lift_starts_at_z0_and_projects_to_the_path():
    path = circle_path(1.0)
    lift = horizontal_lift(path, 0.7, NIL)
    assert lift[0] == 0.7
    assert lift.shape == (len(path),)


def test_circle_holonomy_matches_area_times_2tau():
    """Vertical gap after one loop = 2 tau x (enclosed metric area)."""
    for r in (0.5, 1.0, 2.0):
        gap = holonomy_gap(circle_path(r), NIL)
        assert gap == pytest.approx(math.pi * r * r, abs=1e-6)


def test_clockwise_loop_flips_the_gap_sign():
    ccw = holonomy_gap(circle_path(1.0), NIL)
    cw = holonomy_gap(circle_path(1.0, clockwise=True), NIL)
    assert cw == pytest.approx(-ccw, rel=1e-9)


def test_square_loop_gap_and_area():
    path = square_path(0.8)
    assert enclosed_area(path, NIL) == pytest.approx(0.64, rel=1e-8)
    assert holonomy_gap(path, NIL) == pytest.approx(2 * NIL.tau * 0.64, abs=1e-7)


def test_corner_square_gap_is_2tau_area_exactly():
    """The lift is exact on straight chords, so the audit's square needs no
    densifying: gap 4.0 = 2 tau area 4.0 to the bit."""
    gap, area = holonomy_gap(SQUARE, NIL), enclosed_area(SQUARE, NIL)
    assert gap == 2.0 * NIL.tau * area == 4.0


def test_off_center_loop_sees_only_its_own_area():
    """Translating the loop moves the connection form but not the gap."""
    gap0 = holonomy_gap(circle_path(0.6), NIL)
    gap1 = holonomy_gap(circle_path(0.6) + [0.9, -0.4], NIL)
    assert gap1 == pytest.approx(gap0, abs=1e-7)


def test_hyperbolic_area_exceeds_euclidean():
    params = H2R
    r = 0.8
    a_hyp = enclosed_area(circle_path(r), params)
    a_euc = enclosed_area(circle_path(r), SpaceParams(kappa=0.0, tau=0.25))
    # inscribed-polygon defect of the 20001-gon is ~1.6e-8 relative
    assert a_euc == pytest.approx(math.pi * r * r, rel=1e-7)
    assert a_hyp > a_euc
    # closed form: hyperbolic disk area 4 pi sinh^2(d/2) at metric radius d
    d = 2.0 * math.atanh(r / 2.0)
    assert a_hyp == pytest.approx(4 * math.pi * math.sinh(d / 2) ** 2, rel=1e-6)
    assert holonomy_gap(circle_path(r), params) == \
        pytest.approx(2 * params.tau * a_hyp, abs=1e-6)


def test_tau_zero_lift_stays_flat():
    params = SpaceParams(kappa=-1.0, tau=0.0)
    assert holonomy_gap(circle_path(1.2), params) == pytest.approx(0.0, abs=1e-12)
    lift = horizontal_lift(circle_path(1.2), 0.0, params)
    assert np.max(np.abs(lift)) < 1e-12


def _chord_increment(p, q, params, points=None, epsrel=1e-13):
    """The lift's increment over the chord p -> q, with int_0^1 lambda dt by
    scipy's adaptive quadrature."""
    d = q - p
    lam, _ = integrate.quad(
        lambda t: float(conformal_factor_xy(p[0] + t * d[0], p[1] + t * d[1],
                                            params.kappa)),
        0.0, 1.0, points=points, epsabs=0.0, epsrel=epsrel, limit=400)
    return -params.tau * (p[1] * d[0] - p[0] * d[1]) * lam


def _disk_point(rng, radius):
    r, a = radius * math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)
    return np.array([r * math.cos(a), r * math.sin(a)])


@pytest.mark.parametrize("kappa", [-0.36, -1.0, -4.0])
def test_chord_increment_matches_quadrature_inside_the_disk(kappa):
    """Chords with both ends inside 0.999 of the ideal radius, every other
    one shortened by a factor 10^[-8, 0]."""
    params = SpaceParams(kappa=kappa, tau=0.5)
    rng = np.random.default_rng(11)
    radius = 0.999 * 2.0 / math.sqrt(-kappa)
    for i in range(40):
        p, q = _disk_point(rng, radius), _disk_point(rng, radius)
        if i % 2:
            q = p + (q - p) * 10.0 ** (-8.0 * i / 39.0)
        z = horizontal_lift(np.array([p, q]), 0.0, params)
        assert z[1] == pytest.approx(_chord_increment(p, q, params), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kappa", [-0.36, -1.0, -4.0])
def test_chord_increment_next_to_the_ideal_circle(kappa):
    """Chords ending within 1e-9 R of the ideal circle |z| = R, where lambda
    peaks near t = 1: finite, and equal to a quadrature refined there."""
    params = SpaceParams(kappa=kappa, tau=0.5)
    rng = np.random.default_rng(12)
    ideal = 2.0 / math.sqrt(-kappa)
    for _ in range(10):
        p = _disk_point(rng, 0.999 * ideal)
        a = rng.uniform(0.0, 2.0 * math.pi)
        r = ideal * (1.0 - 10.0 ** rng.uniform(-10.0, -9.0))
        q = np.array([r * math.cos(a), r * math.sin(a)])
        z = horizontal_lift(np.array([p, q]), 0.0, params)
        ref = _chord_increment(p, q, params, epsrel=1e-8,
                               points=[1.0 - 10.0 ** -k for k in range(2, 10)])
        assert math.isfinite(z[1])
        assert z[1] == pytest.approx(ref, rel=1e-7, abs=0.0)


def test_chord_increment_matches_quadrature_for_positive_kappa():
    """kappa > 0 turns the chord integral's atanh into an arctan."""
    params = SpaceParams(kappa=0.75, tau=0.5)
    rng = np.random.default_rng(13)
    for i in range(20):
        p, q = rng.uniform(-5.0, 5.0, 2), rng.uniform(-5.0, 5.0, 2)
        if i % 2:
            q = p + (q - p) * 1e-6
        z = horizontal_lift(np.array([p, q]), 0.0, params)
        assert z[1] == pytest.approx(_chord_increment(p, q, params), rel=1e-12, abs=0.0)


def test_a_flat_lift_cumulates_the_cross_terms_exactly():
    """At kappa = 0, lambda = 1 and each increment is -tau (y0 dx - x0 dy),
    bit for bit."""
    path = np.cumsum(np.random.default_rng(14).normal(size=(500, 2)), axis=0)
    seg = path[1:] - path[:-1]
    cross = path[:-1, 1] * seg[:, 0] - path[:-1, 0] * seg[:, 1]
    expected = 0.7 + np.concatenate(([0.0], np.cumsum(-NIL.tau * cross)))
    assert np.array_equal(horizontal_lift(path, 0.7, NIL), expected)


def _ngon(radius, n, clockwise=False):
    t = np.linspace(0.0, 2.0 * math.pi, n + 1)
    pts = radius * np.column_stack([np.cos(t), np.sin(t)])
    pts[-1] = pts[0]
    return pts[::-1] if clockwise else pts


# coarse polygons split each segment into many sub-segments, which the
# 20001-gon of circle_path (one or two per segment) does not
@pytest.mark.parametrize("path, kappa", [
    (_ngon(2.0, 1000, clockwise=True), 0.0),
    (_ngon(1.9, 1000), -1.0),
    (_ngon(3.2, 1000), -0.36),
    (SQUARE, 0.0),
    (_random_polygon(7, 40, 0.5, 3.0), -0.36),
    (_random_polygon(8, 60, 0.2, 5.0), 0.0),
], ids=["circle-cw-flat", "circle-k1", "circle-k0.36", "audit-square",
        "polygon-k0.36", "polygon-flat"])
def test_enclosed_area_matches_the_per_segment_loop(path, kappa):
    params = SpaceParams(kappa=kappa, tau=0.5)
    ref = _enclosed_area_by_segment(path, params)
    assert enclosed_area(path, params) == pytest.approx(ref, rel=1e-12, abs=0.0)


def _bad_paths():
    good = circle_path(1.0)
    nan_at_3 = good.copy()
    nan_at_3[3, 1] = np.nan
    inf_at_0 = good.copy()
    inf_at_0[0, 0] = np.inf
    repeat_at_5 = good.copy()
    repeat_at_5[5] = repeat_at_5[4]
    return [
        ("shape", good[:1], NIL),
        ("shape", good[:, :1], NIL),
        ("shape", good.ravel(), NIL),
        ("shape", np.column_stack([good, good[:, :1]]), NIL),
        ("shape", good[None], NIL),
        ("non-finite point at sample 3", nan_at_3, NIL),
        ("non-finite point at sample 0", inf_at_0, H2R),
        ("sample 0 lies on or outside the ideal circle", circle_path(2.0), H2R),
        ("sample 0 lies on or outside the ideal circle", circle_path(2.5), H2R),
        ("sample 0 lies on or outside the ideal circle", circle_path(2.0) * 0.9,
         SpaceParams(kappa=-1.3, tau=0.5)),
        ("distinct", repeat_at_5, NIL),
    ]


@pytest.mark.parametrize("fn", [
    lambda p, params: horizontal_lift(p, 0.0, params), holonomy_gap,
    enclosed_area], ids=["horizontal_lift", "holonomy_gap", "enclosed_area"])
@pytest.mark.parametrize("match, path, params", _bad_paths(), ids=[
    "one-sample", "one-column", "flat", "three-columns", "three-d",
    "nan", "inf", "on-ideal-circle", "outside-ideal-circle",
    "outside-at-kappa-1.3", "repeated-sample"])
def test_a_bad_path_is_rejected_before_any_work(fn, match, path, params):
    with pytest.raises(GeometryError, match=match):
        fn(path, params)


@pytest.mark.parametrize("fn", [holonomy_gap, enclosed_area])
def test_an_open_path_has_no_gap_or_area(fn):
    assert horizontal_lift(circle_path(1.0)[:-5], 0.0, NIL).shape == (19_997,)
    with pytest.raises(GeometryError, match="closed"):
        fn(circle_path(1.0)[:-5], NIL)


def test_the_ideal_circle_only_bounds_negative_kappa():
    assert holonomy_gap(circle_path(2.5), NIL) == pytest.approx(
        math.pi * 2.5 ** 2, abs=1e-6)
    assert math.isfinite(holonomy_gap(circle_path(1.99), H2R))
