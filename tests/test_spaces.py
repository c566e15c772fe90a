"""Base geometry: conformal charts, hyperbolic helpers, geodesic triangles."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ektlab import spaces
from ektlab.spaces import (GeometryError, SpaceParams,
                           build_triangle, chart_radius,
                           conformal_factor_xy, interior_angle_at_p2,
                           law_of_cosines, metric_radius, min_metric_distance)

H2R = SpaceParams(kappa=-1.0, tau=0.0)


def test_space_params_from_h_ties_kappa_and_tau():
    p = SpaceParams.from_h(0.25)
    assert p.kappa == 4 * 0.25**2 - 1
    assert p.tau == 0.25
    with pytest.raises(GeometryError):
        SpaceParams.from_h(0.75)


def test_conformal_factor_matches_formula_and_flat_limit():
    for kappa in (-1.0, -0.75, 0.0):
        lam = conformal_factor_xy(0.3, -0.4, kappa)
        assert lam == 1.0 / (1.0 + kappa * 0.25 / 4.0)
    assert conformal_factor_xy(0.3, -0.4, 0.0) == 1.0


def test_conformal_factor_xy_vectorizes():
    x = np.array([0.0, 0.5, 1.0])
    y = np.zeros(3)
    lam = conformal_factor_xy(x, y, H2R.kappa)
    assert lam.shape == (3,)
    assert np.allclose(lam, 1.0 / (1.0 - x**2 / 4.0))


def test_chart_radius_metric_radius_roundtrip():
    for kappa in (-1.0, -0.36, 0.0):
        for d in (0.1, 0.7, 2.5):
            r = chart_radius(d, kappa)
            assert metric_radius(r, kappa) == pytest.approx(d, rel=1e-13)
    assert chart_radius(math.inf, -1.0) == 2.0


@settings(max_examples=60, deadline=None)
@given(d=st.floats(1e-3, 8.0), kappa=st.floats(-1.0, -1e-3))
def test_chart_radius_stays_inside_the_disk(d, kappa):
    r = chart_radius(d, kappa)
    assert 0.0 < r < 2.0 / math.sqrt(-kappa)
    assert metric_radius(r, kappa) == pytest.approx(d, rel=1e-9)


def test_chart_distance_euclidean_and_poincare():
    p, q = [[0.3, 0.1]], [[-0.2, 0.5]]
    assert min_metric_distance(p, q, 0.0)[0] == \
        pytest.approx(math.hypot(0.5, -0.4))
    # radius-2 disk reduces to the unit Poincare disk under w = z/2
    w1 = complex(*p[0]) / 2
    w2 = complex(*q[0]) / 2
    expected = 2.0 * math.atanh(abs((w1 - w2) / (1 - w1.conjugate() * w2)))
    assert min_metric_distance(p, q, -1.0)[0] == \
        pytest.approx(expected, rel=1e-14)
    # distance from the origin agrees with metric_radius
    assert min_metric_distance([[0.0, 0.0]], [[0.8, 0.0]], -1.0)[0] == \
        pytest.approx(metric_radius(0.8, -1.0))


def _one_shot_min_distance(pts, ref, kappa):
    """The whole n x m table at once: the reference for the row blocks."""
    if kappa == 0.0:
        d2 = ((pts[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
        return np.sqrt(d2.min(axis=1))
    delta = math.sqrt(-kappa)
    z = (pts[:, 0] + 1j * pts[:, 1]) * delta / 2.0
    w = (ref[:, 0] + 1j * ref[:, 1]) * delta / 2.0
    num = np.abs(z[:, None] - w[None, :])
    den = np.abs(1.0 - np.conj(z[:, None]) * w[None, :])
    t = np.clip(num / den, 0.0, 1.0 - 1e-16)
    return (2.0 / delta) * np.arctanh(t).min(axis=1)


@pytest.mark.parametrize("kappa", [0.0, -0.36, -1.0])
def test_min_metric_distance_blocks_match_the_one_shot_table(kappa):
    # 701 x 300 pairs span several row blocks and end on a partial one
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.4, 1.4, (701, 2))
    ref = rng.uniform(-1.4, 1.4, (300, 2))
    assert pts.shape[0] * ref.shape[0] > 2 * spaces._PAIR_BLOCK
    got = min_metric_distance(pts, ref, kappa)
    assert np.array_equal(got, _one_shot_min_distance(pts, ref, kappa))


def test_min_metric_distance_memory_is_linear_in_the_points():
    # the one-shot table of these 8192 x 256 pairs holds 32 MiB per
    # complex temporary
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, (8192, 2))
    ref = rng.uniform(-1.0, 1.0, (256, 2))
    tracemalloc.start()
    try:
        min_metric_distance(pts, ref, -1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_law_of_cosines_flat_limit_and_triangle_inequality():
    a, b, k = 0.3, 0.4, 3
    flat = law_of_cosines(a, b, k, 0.0)
    assert flat == pytest.approx(
        math.sqrt(a * a + b * b - 2 * a * b * math.cos(math.pi / k)))
    # kappa -> 0- tends to the Euclidean value
    soft = law_of_cosines(a, b, k, -1e-6)
    assert soft == pytest.approx(flat, rel=1e-5)
    for kappa in (0.0, -0.75, -1.0):
        ell = law_of_cosines(a, b, k, kappa)
        assert abs(a - b) - 1e-12 <= ell <= a + b + 1e-12


def test_law_of_cosines_rejects_bad_input():
    with pytest.raises(GeometryError):
        law_of_cosines(math.inf, 1.0, 2, -1.0)
    with pytest.raises(GeometryError):
        law_of_cosines(1.0, 1.0, 1, -1.0)


def test_build_triangle_places_vertices_on_the_wedge():
    tri = build_triangle(1.0, 2.0, 3, -0.75)
    assert tri.p1[1] == 0.0 and tri.p1[0] > 0
    # chart radii encode the metric side lengths
    assert metric_radius(tri.p1[0], -0.75) == pytest.approx(1.0, rel=1e-12)
    r2 = math.hypot(*tri.p2)
    assert metric_radius(r2, -0.75) == pytest.approx(2.0, rel=1e-12)
    assert math.atan2(tri.p2[1], tri.p2[0]) == pytest.approx(math.pi / 3)
    assert tri.ell == pytest.approx(law_of_cosines(1.0, 2.0, 3, -0.75))


def test_build_triangle_ideal_vertices():
    tri = build_triangle(math.inf, 1.0, 2, -1.0)
    assert tri.a_infinite and not tri.b_infinite
    assert math.hypot(*tri.p1) == pytest.approx(2.0)  # boundary circle
    assert math.isinf(tri.ell)
    flat = build_triangle(math.inf, 1.0, 2, 0.0)
    assert math.isinf(flat.p1[0])


def test_build_triangle_rejects_a_finite_side_on_the_ideal_circle():
    # at kappa = -0.36 tanh(0.3 s) rounds to 1 from s = 64 on
    assert chart_radius(64.0, -0.36) == 2.0 / 0.6
    with pytest.raises(GeometryError, match=r"side b = 1e\+06 is finite"):
        build_triangle(math.inf, 1e6, 2, -0.36)
    with pytest.raises(GeometryError, match="side a = 64 is finite"):
        build_triangle(64.0, 1.0, 2, -0.36)
    assert build_triangle(1.0, 16.0, 2, -0.36).p2 != (0.0, 0.0)


def test_interior_angle_at_p2_threshold_and_monotonicity():
    # at b* = arccosh(1/sin(pi/k)) / delta the angle is a right angle
    for k in (2, 3, 4, 6):
        for H in (0.1, 0.4):
            kappa = 4 * H * H - 1
            delta = math.sqrt(-kappa)
            b_star = math.acosh(1.0 / math.sin(math.pi / k)) / delta
            assert interior_angle_at_p2(b_star, k, kappa) == \
                pytest.approx(math.pi / 2, abs=1e-12)
    # strictly decreasing in b (ideal p1): wider triangles look sharper
    angles = [interior_angle_at_p2(b, 4, -0.84) for b in (0.2, 0.6, 1.2, 2.5)]
    assert all(x > y for x, y in zip(angles, angles[1:]))
    # degenerate b = 0 is allowed (k = 2 threshold) and gives pi/2
    assert interior_angle_at_p2(0.0, 2, -0.96) == pytest.approx(math.pi / 2)
    with pytest.raises(GeometryError):
        interior_angle_at_p2(-0.1, 2, -0.96)
