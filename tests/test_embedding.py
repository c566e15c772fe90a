"""Self-intersection sweep, covered-twice area, SVG export."""
import math

import numpy as np
import pytest

from ektlab.curves import PlanarCurve
from ektlab.embedding import (critical_catenoid_domain, multiplicity_two_area,
                              report_json_dict, self_intersections,
                              write_domain_panels_svg, write_domain_svg)


def curve_from_xy(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    s = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(x), np.diff(y)))])
    return PlanarCurve(s=s, x=x, y=y, phi=np.zeros_like(x),
                       kg_samples=np.zeros_like(x))


def test_figure_eight_has_one_crossing():
    # phase offset keeps the origin crossing in segment interiors
    t = np.linspace(0.3, 0.3 + 2.0 * math.pi, 2000)
    x = 0.6 * np.sin(2 * t) / 2.0
    y = 0.6 * np.sin(t)
    rep = self_intersections(curve_from_xy(x, y))
    assert not rep.embedded
    assert rep.crossings == 1
    (s1, s2, (cx, cy)) = rep.self_intersections[0]
    assert math.hypot(cx, cy) < 1e-6  # the lobes cross at the origin
    assert s1 < s2


def test_convex_loop_is_embedded():
    t = np.linspace(0.0, 2.0 * math.pi, 1501)
    rep = self_intersections(curve_from_xy(0.5 * np.cos(t), 0.3 * np.sin(t)))
    assert rep.embedded
    assert rep.crossings == 0
    assert rep.multiplicity_2_area == 0.0


def test_adjacent_segments_do_not_count_as_crossings():
    # a tight zigzag shares endpoints between neighbors but never crosses
    x = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    y = np.array([0.0, 0.1, 0.0, 0.1, 0.0])
    rep = self_intersections(curve_from_xy(x, y))
    assert rep.embedded


def test_short_segments_are_thinned_before_the_sweep():
    t = np.linspace(0.0, 2.0 * math.pi, 200001)  # ~3e-5 chord length
    x, y = 0.5 * np.cos(t), 0.5 * np.sin(t)
    rep = self_intersections(curve_from_xy(x, y), min_seg=1e-3)
    assert rep.embedded
    assert rep.crossings == 0


def test_multiplicity_two_area_of_a_double_cover():
    """Tracing a circle twice covers its disk twice; area matches chart area."""
    t = np.linspace(0.0, 4.0 * math.pi, 4001)
    pieces = [np.column_stack([0.4 * np.cos(t), 0.4 * np.sin(t)])]
    area = multiplicity_two_area(pieces, grid=512)
    # hyperbolic area of the chart-radius-0.4 disk in the unit Poincare disk
    d = 2.0 * math.atanh(0.4)
    exact = 4.0 * math.pi * math.sinh(d / 2.0) ** 2
    assert area == pytest.approx(exact, rel=0.02)


def test_single_cover_has_no_multiplicity_two_area():
    t = np.linspace(0.0, 2.0 * math.pi, 2001)
    pieces = [np.column_stack([0.4 * np.cos(t), 0.4 * np.sin(t)])]
    assert multiplicity_two_area(pieces, grid=512) == 0.0


def test_near_parallel_pairs_are_uncertain_with_finite_parameters():
    # collinear pieces meeting end to end across a 5e-9 gap
    rep = self_intersections([np.array([[0.0, 0.0], [0.05, 0.0]]),
                              np.array([[0.05 + 5e-9, 0.0], [0.1 + 5e-9, 0.0]])])
    assert rep.crossings == 0
    assert len(rep.uncertain) == 1
    assert rep.uncertain[0] == pytest.approx((0.05, 1.05))
    # parallel pieces overlapping 1e-10 apart
    rep = self_intersections([np.array([[0.0, 0.0], [0.1, 0.0]]),
                              np.array([[0.05, 1e-10], [0.15, 1e-10]])])
    assert rep.crossings == 0
    assert rep.uncertain == [pytest.approx((0.05, 1.1))]


@pytest.mark.parametrize("mu,embedded,crossings", [(-3.0, True, 0),
                                                   (3.0, False, 2)])
def test_critical_catenoid_domain_verdicts(mu, embedded, crossings):
    curve, assembled, rep = critical_catenoid_domain(mu, k=2, step=2e-3)
    assert rep.embedded is embedded
    assert rep.crossings == crossings
    assert rep.symmetry_k == 2
    if not embedded:
        assert rep.multiplicity_2_area > 0.0
        # crossings sit on the x-axis, mirrored
        pts = sorted(p for _, _, p in rep.self_intersections)
        assert pts[0][0] == pytest.approx(-pts[1][0], abs=1e-6)
        assert abs(pts[0][1]) < 1e-6
    else:
        assert rep.multiplicity_2_area == 0.0


def test_critical_catenoid_area_regression():
    """Frozen covered-twice area of the mu=+3 domain (1024^2 winding grid)."""
    _, _, rep = critical_catenoid_domain(3.0, k=2, step=5e-4)
    assert rep.multiplicity_2_area == pytest.approx(0.749355, abs=5e-4)


def test_report_json_dict_fields():
    t = np.linspace(0.0, 2.0 * math.pi, 801)
    rep = self_intersections(curve_from_xy(0.5 * np.cos(t), 0.3 * np.sin(t)))
    d = report_json_dict(rep, total_turning=1.25)
    assert d == {"embedded": True, "crossings": 0,
                 "multiplicity_2_area": 0.0, "total_turning": 1.25}


def test_svg_fill_marks_the_covered_twice_disk(tmp_path):
    double = np.linspace(0.0, 4.0 * math.pi, 4001)
    single = np.linspace(0.0, 2.0 * math.pi, 2001)
    cells = []
    for t in (double, single):
        path = tmp_path / "fill.svg"
        write_domain_svg(str(path), [np.column_stack([0.4 * np.cos(t), 0.4 * np.sin(t)])],
                         {}, fill_grid=256)
        cells.append(path.read_text().count('fill="#b0b0b0"'))
    assert cells[0] * (2.0 / 256) ** 2 == pytest.approx(math.pi * 0.4 ** 2, rel=0.02)
    assert cells[1] == 0


def test_svg_writers_are_deterministic(tmp_path):
    t = np.linspace(0.0, 2.0 * math.pi, 401)
    pieces = [np.column_stack([0.5 * np.cos(t), 0.5 * np.sin(t)])]
    params = {"k": 2, "mu": -3.0}
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_domain_svg(str(p1), pieces, params)
    write_domain_svg(str(p2), pieces, params)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("<?xml")
    assert "<!-- params: k=2 mu=-3.0 -->" in text
    assert "<circle" in text and "<polyline" in text

    panels = [("left", pieces), ("right", pieces)]
    p3 = tmp_path / "c.svg"
    write_domain_panels_svg(str(p3), panels, params, size=300)
    body = p3.read_text()
    assert 'width="600"' in body
    assert body.count("<circle") == 2
    assert ">left<" in body and ">right<" in body
