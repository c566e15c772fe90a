"""Horizontal lifts and fiber holonomy over closed base loops."""
import math

import numpy as np
import pytest

from ektlab.lifts import (circle_path, enclosed_area, holonomy_gap,
                          horizontal_lift)
from ektlab.spaces import BasePoint, SpaceParams

NIL = SpaceParams(kappa=0.0, tau=0.5)


def square_path(side: float, n_per_edge: int = 400):
    s = np.linspace(0.0, side, n_per_edge)
    pts = []
    pts += [BasePoint(v, 0.0) for v in s]
    pts += [BasePoint(side, v) for v in s[1:]]
    pts += [BasePoint(side - v, side) for v in s[1:]]
    pts += [BasePoint(0.0, side - v) for v in s[1:]]
    return pts


def test_lift_starts_at_z0_and_projects_to_the_path():
    path = circle_path(1.0)
    lift = horizontal_lift(path, 0.7, NIL)
    assert lift[0].z == 0.7
    assert lift[0].x == path[0].x and lift[0].y == path[0].y
    assert len(lift) == len(path)
    xs = np.array([p.x for p in lift])
    assert xs[0] == pytest.approx(xs[-1])


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


def test_off_center_loop_sees_only_its_own_area():
    """Translating the loop moves the connection form but not the gap."""
    gap0 = holonomy_gap(circle_path(0.6), NIL)
    shifted = [BasePoint(p.x + 0.9, p.y - 0.4) for p in circle_path(0.6)]
    gap1 = holonomy_gap(shifted, NIL)
    assert gap1 == pytest.approx(gap0, abs=1e-7)


def test_hyperbolic_area_exceeds_euclidean():
    params = SpaceParams(kappa=-1.0, tau=0.25)
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
    assert max(abs(p.z) for p in lift) < 1e-12
