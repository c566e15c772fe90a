"""Self-intersection sweep, covered-twice area, SVG export."""
import math
import tracemalloc

import numpy as np
import pytest

from ektlab import embedding as emb
from ektlab import helicoid as hc
from ektlab.curves import (DEFAULT_S_CAP, DEFAULT_STEP, assemble_domain,
                           integrate_prescribed_curvature)
from ektlab.embedding import (critical_catenoid_domain, fiber_domain,
                              multiplicity_two_area, report_json_dict,
                              self_intersections, write_domain_panels_svg,
                              write_domain_svg)
from ektlab.solver import (boundary_theta_prime, distance_d,
                           solve_jenkins_serrin)
from ektlab.spaces import GeometryError


def polyline_from_xy(x, y):
    """One polyline piece through the points (x, y)."""
    return [np.column_stack([np.asarray(x, float), np.asarray(y, float)])]


def test_figure_eight_has_one_crossing():
    # phase offset keeps the origin crossing in segment interiors
    t = np.linspace(0.3, 0.3 + 2.0 * math.pi, 2000)
    x = 0.6 * np.sin(2 * t) / 2.0
    y = 0.6 * np.sin(t)
    rep = self_intersections(polyline_from_xy(x, y))
    assert not rep.embedded
    assert rep.crossings == 1
    (s1, s2, (cx, cy)) = rep.self_intersections[0]
    assert math.hypot(cx, cy) < 1e-6  # the lobes cross at the origin
    assert s1 < s2


def test_convex_loop_is_embedded():
    t = np.linspace(0.0, 2.0 * math.pi, 1501)
    rep = self_intersections(polyline_from_xy(0.5 * np.cos(t), 0.3 * np.sin(t)))
    assert rep.embedded
    assert rep.crossings == 0
    assert rep.multiplicity_2_area == 0.0


def test_adjacent_segments_do_not_count_as_crossings():
    # a tight zigzag shares endpoints between neighbors but never crosses
    x = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    y = np.array([0.0, 0.1, 0.0, 0.1, 0.0])
    rep = self_intersections(polyline_from_xy(x, y))
    assert rep.embedded


def test_short_segments_are_thinned_before_the_sweep(monkeypatch):
    t = np.linspace(0.0, 2.0 * math.pi, 200001)  # ~3e-5 chord length
    x, y = 0.5 * np.cos(t), 0.5 * np.sin(t)
    monkeypatch.setattr(emb, "_MIN_SEG", 1e-3)
    rep = self_intersections(polyline_from_xy(x, y))
    assert rep.embedded
    assert rep.crossings == 0


@pytest.mark.parametrize("ell", [
    np.array([0.0, 3e-6, 9e-6, 1e-5, 1.5e-5, 2e-5, 2e-5, 2e-5]),
    np.array([0.0, 3e-6, 9e-6, 1e-5, 1.5e-5, 2e-5, 2.5e-5]),
    np.array([0.0, 3e-6, 9e-6, 1e-5, 1.5e-5, 2e-5]),
    np.array([0.0, 0.0, 0.0]),
    np.array([0.0, 4e-6]),
], ids=["zero-length-tail", "last-inside-a-run", "last-starts-a-run",
        "zero-length", "one-cell"])
def test_thin_keeps_what_unique_keeps(ell):
    _, first = np.unique(np.floor(ell / emb._MIN_SEG), return_index=True)
    if first[-1] != ell.size - 1:
        first = np.append(first, ell.size - 1)
    keep = emb._thin(ell)
    assert keep.dtype == first.dtype
    assert np.array_equal(keep, first)


def test_thin_keeps_what_unique_keeps_on_a_random_polyline():
    rng = np.random.default_rng(5)
    steps = np.where(rng.random(20000) < 0.3, 0.0, 10.0 ** rng.uniform(-8, -4, 20000))
    ell = np.concatenate([[0.0], np.cumsum(steps), np.full(5, np.sum(steps))])
    _, first = np.unique(np.floor(ell / emb._MIN_SEG), return_index=True)
    first = np.append(first, ell.size - 1)
    keep = emb._thin(ell)
    assert 1000 < keep.size < ell.size
    assert np.array_equal(keep, first)


def test_multiplicity_two_area_of_a_double_cover(monkeypatch):
    """Tracing a circle twice covers its disk twice; area matches chart area."""
    t = np.linspace(0.0, 4.0 * math.pi, 4001)
    pieces = [np.column_stack([0.4 * np.cos(t), 0.4 * np.sin(t)])]
    monkeypatch.setattr(emb, "_GRID", 512)
    area, _ = multiplicity_two_area(pieces)
    # hyperbolic area of the chart-radius-0.4 disk in the unit Poincare disk
    d = 2.0 * math.atanh(0.4)
    exact = 4.0 * math.pi * math.sinh(d / 2.0) ** 2
    assert area == pytest.approx(exact, rel=0.02)


def test_multiplicity_two_area_sums_the_full_grid_metric_bit_for_bit(monkeypatch):
    """Evaluating the metric only on the twice-covered cells gives the same
    float as masking the full-grid metric, rim cells beyond r_cut included."""
    t = np.linspace(0.0, 4.0 * math.pi, 4001)
    pieces = [np.column_stack([0.999 * np.cos(t), 0.999 * np.sin(t)])]
    grid, r_cut = 256, 1.0 - 2e-6
    wind, centers = emb._winding_grid(emb._close_chains(pieces), grid)
    c2 = centers * centers
    r2 = c2[None, :] + c2[:, None]
    with np.errstate(divide="ignore"):
        lam2 = np.where(np.sqrt(r2) <= r_cut, 4.0 / (1.0 - r2) ** 2, 0.0)
    full = float(np.sum((lam2 * (2.0 / grid) * (2.0 / grid))[np.abs(wind) >= 2]))
    assert full > 0.0
    monkeypatch.setattr(emb, "_GRID", grid)
    assert multiplicity_two_area(pieces)[0] == full


def test_single_cover_has_no_multiplicity_two_area(monkeypatch):
    t = np.linspace(0.0, 2.0 * math.pi, 2001)
    pieces = [np.column_stack([0.4 * np.cos(t), 0.4 * np.sin(t)])]
    monkeypatch.setattr(emb, "_GRID", 512)
    area, cells = multiplicity_two_area(pieces)
    assert area == 0.0
    assert cells.shape == (0, 2)


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


def test_non_finite_point_is_rejected():
    t = np.linspace(0.0, math.pi, 50)
    piece = np.column_stack([0.5 * np.cos(t), 0.5 * np.sin(t)])
    piece[20, 1] = np.nan
    with pytest.raises(GeometryError,
                       match="piece 1 has a non-finite point at sample 20"):
        self_intersections([piece[:10], piece])


@pytest.fixture(scope="module", params=[-1.5, -3.0])
def solved_strip(request):
    """The strip T(inf, t_mu, 2) at H = 1/2, which the mu-helicoid solves
    exactly, solved by finite elements: (mu, solutions, theta' samples)."""
    mu = request.param
    sols = solve_jenkins_serrin(math.inf, hc.t_mu(mu), 2, 0.5,
                                [2.0, 4.0, 8.0, 16.0, 32.0], 0.05, R_trunc=4.0)
    return mu, sols, boundary_theta_prime(sols[-1])


def test_strip_fiber_with_exact_data_is_embedded(solved_strip):
    mu, _, samples = solved_strip
    _, _, rep = fiber_domain(hc.theta_prime_fn(mu), 0.5,
                             hc.vertex_base_distance(mu), math.pi / 2.0,
                             float(samples[:, 0].max()), 2, DEFAULT_STEP,
                             DEFAULT_S_CAP)
    assert rep.embedded
    assert rep.multiplicity_2_area == 0.0


@pytest.mark.xfail(strict=True, reason="the probed theta' and the finite-"
                   "element d each flip the verdict near H = 1/2 (ROADMAP "
                   "direction 1): 2 crossings where the exact curve has none")
def test_strip_fiber_with_probed_data_matches_the_exact_verdict(solved_strip):
    mu, sols, samples = solved_strip
    s, tp = samples[:, 0], samples[:, 1]
    _, _, rep = fiber_domain(lambda v: np.interp(v, s, tp), 0.5,
                             distance_d(sols), math.pi / 2.0, float(s.max()),
                             2, DEFAULT_STEP, DEFAULT_S_CAP)
    assert rep.crossings == 0


@pytest.mark.parametrize("mu,embedded,crossings", [(-3.0, True, 0),
                                                   (3.0, False, 2)])
def test_critical_catenoid_domain_verdicts(mu, embedded, crossings):
    _, _, rep = critical_catenoid_domain(mu, k=2, step=2e-3)
    assert rep.embedded is embedded
    assert rep.crossings == crossings
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
    rep = self_intersections(polyline_from_xy(0.5 * np.cos(t), 0.3 * np.sin(t)))
    d = report_json_dict(rep, total_turning=1.25)
    assert d == {"embedded": True, "crossings": 0,
                 "multiplicity_2_area": 0.0, "total_turning": 1.25}


def test_svg_fill_marks_the_covered_twice_disk(tmp_path):
    double = np.linspace(0.0, 4.0 * math.pi, 4001)
    single = np.linspace(0.0, 2.0 * math.pi, 2001)
    cells = []
    for t in (double, single):
        path = tmp_path / "fill.svg"
        pieces = [np.column_stack([0.4 * np.cos(t), 0.4 * np.sin(t)])]
        write_domain_svg(str(path), pieces, self_intersections(pieces), {})
        cells.append(path.read_text().count('fill="#b0b0b0"'))
    assert cells[0] * (2.0 / 256) ** 2 == pytest.approx(math.pi * 0.4 ** 2, rel=0.02)
    assert cells[1] == 0


def test_fill_cells_are_the_majority_blocks_of_the_area_raster():
    """A fill cell is a 4 x 4 block of the _GRID raster of the thinned
    pieces with at least 8 pixels covered twice."""
    t = np.linspace(0.0, 4.0 * math.pi, 40001)
    r = 0.5 + 0.3 * np.cos(3.0 * t)
    pieces = [np.column_stack([r * np.cos(t), r * np.sin(t)])]
    rep = self_intersections(pieces)
    _, _, thinned = emb._parametrize(pieces)
    wind, _ = emb._winding_grid(emb._close_chains(thinned), emb._GRID)
    side = emb._GRID // 4
    blocks = (np.abs(wind) >= 2).reshape(side, 4, side, 4).sum(axis=(1, 3))
    expected = np.argwhere(blocks >= 8)
    assert 0 < len(expected) < np.count_nonzero(blocks)
    assert rep.fill_cells.dtype.kind == "i"
    assert np.array_equal(rep.fill_cells, expected)


def test_svg_writers_draw_the_report_without_rasterizing(tmp_path, monkeypatch):
    t = np.linspace(0.0, 4.0 * math.pi, 4001)
    pieces = [np.column_stack([0.4 * np.cos(t), 0.4 * np.sin(t)])]
    rep = self_intersections(pieces)
    assert len(rep.fill_cells) > 0

    def no_raster(*args):
        raise AssertionError("the figure rasterized the boundary again")

    monkeypatch.setattr(emb, "_winding_grid", no_raster)
    write_domain_svg(str(tmp_path / "a.svg"), pieces, rep, {})
    write_domain_panels_svg(str(tmp_path / "b.svg"), [("x", pieces, rep),
                                                      ("y", pieces, rep)], {})
    one = (tmp_path / "a.svg").read_text().count('fill="#b0b0b0"')
    two = (tmp_path / "b.svg").read_text().count('fill="#b0b0b0"')
    assert one == len(rep.fill_cells) and two == 2 * one


def test_svg_writers_are_deterministic(tmp_path, monkeypatch):
    t = np.linspace(0.0, 2.0 * math.pi, 401)
    pieces = [np.column_stack([0.5 * np.cos(t), 0.5 * np.sin(t)])]
    rep = self_intersections(pieces)
    params = {"k": 2, "mu": -3.0}
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_domain_svg(str(p1), pieces, rep, params)
    write_domain_svg(str(p2), pieces, rep, params)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("<?xml")
    assert "<!-- params: k=2 mu=-3.0 -->" in text
    assert "<circle" in text and "<polyline" in text

    panels = [("left", pieces, rep), ("right", pieces, rep)]
    p3 = tmp_path / "c.svg"
    monkeypatch.setattr(emb, "_PANEL_PX", 300)
    write_domain_panels_svg(str(p3), panels, params)
    body = p3.read_text()
    assert 'width="600"' in body
    assert body.count("<circle") == 2
    assert ">left<" in body and ">right<" in body


def _scalar_panel_markup(pieces, fill_cells, dx, label):
    """_panel_markup as its per-cell and per-point loop wrote it, before
    the coordinates were computed as arrays."""
    half = emb._PANEL_PX / 2.0
    side = emb._GRID // 4
    centers = -1.0 + (np.arange(side) + 0.5) * (2.0 / side)
    cell_px = 0.95 * emb._PANEL_PX / side

    def to_px(pts):
        return (pts[:, 0] * 0.95 + 1.0) * half + dx, (1.0 - pts[:, 1] * 0.95) * half

    out = []
    for i, j in fill_cells:
        cx = (centers[j] * 0.95 + 1.0) * half + dx - cell_px / 2.0
        cy = (1.0 - centers[i] * 0.95) * half - cell_px / 2.0
        out.append(f'<rect x="{cx:.2f}" y="{cy:.2f}" width="{cell_px:.2f}" '
                   f'height="{cell_px:.2f}" fill="#b0b0b0" stroke="none"/>')
    out.append(f'<circle cx="{half + dx}" cy="{half}" r="{0.95 * half}" fill="none" '
               'stroke="black" stroke-width="1"/>')
    for p in pieces:
        p = np.asarray(p, dtype=float)
        stride = max(1, p.shape[0] // 4000)
        q = p[::stride] if stride > 1 else p
        if not np.array_equal(q[-1], p[-1]):
            q = np.vstack([q, p[-1]])
        xs, ys = to_px(q)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="#1040a0" '
                   'stroke-width="1.2"/>')
    if label is not None:
        out.append(f'<text x="{half + dx:.2f}" y="{emb._PANEL_PX - 6}" '
                   'font-family="monospace" font-size="14" '
                   f'text-anchor="middle">{label}</text>')
    return out


@pytest.mark.parametrize("n", [3999, 4000, 8001, 240001])
def test_panel_markup_matches_the_scalar_loop(n):
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 4.0 * math.pi, n)
    piece = np.column_stack([0.9 * np.cos(t), 0.9 * np.sin(1.5 * t)])
    piece += rng.normal(scale=1e-3, size=piece.shape)
    side = emb._GRID // 4
    for cells, dx, label in [(np.zeros((0, 2), dtype=np.int64), 0.0, None),
                             (rng.integers(0, side, size=(500, 2)), 720.0, "mu=3")]:
        got = emb._panel_markup([piece, piece[::-1]], cells, dx, label)
        assert got == _scalar_panel_markup([piece, piece[::-1]], cells, dx, label)
        # a panel drawn from the drawn points is the same panel
        drawn = [emb._drawn(piece), emb._drawn(piece[::-1])]
        assert emb._panel_markup(drawn, cells, dx, label) == got


def test_drawn_points_are_a_fixed_point_and_own_their_memory():
    """Cutting a cut piece changes nothing, at every stride boundary."""
    for stride in range(1, 61):
        for n in {max(2, 4000 * stride - 1), 4000 * stride, 4000 * stride + 1,
                  4000 * (stride + 1) - 1}:
            p = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
            q = emb._drawn(p)
            assert np.array_equal(emb._drawn(q), q)
            assert np.array_equal(q[-1], p[-1])
            assert q is p or not np.shares_memory(q, p)


def _all_pairs_reference(pieces, eps_geom=1e-9):
    """The sweep's verdicts from a scalar loop over every segment pair.

    Parameters follow the polyline convention of self_intersections
    (cumulative chart length, pieces offset by length + 1).  Returns the
    crossings, the uncertain list and the length ratio of each crossing
    pair, longer over shorter.
    """
    segs = []
    offset = 0.0
    for n, p in enumerate(pieces):
        ell = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(p, axis=0).T))])
        s = ell + offset
        offset += ell[-1] + 1.0
        for i in range(p.shape[0] - 1):
            dx, dy = p[i + 1] - p[i]
            segs.append((n, i, p[i], dx, dy, float(np.hypot(dx, dy)), s[i], s[i + 1]))
    crossings, uncertain, ratios = [], set(), []
    for a in range(len(segs)):
        n1, i1, a1, d1x, d1y, l1, sa1, sb1 = segs[a]
        for b in range(a + 1, len(segs)):
            n2, i2, a2, d2x, d2y, l2, sa2, sb2 = segs[b]
            if n1 == n2 and abs(i1 - i2) <= 1:
                continue
            rx, ry = a2[0] - a1[0], a2[1] - a1[1]
            denom = d1x * d2y - d1y * d2x
            if abs(denom) <= eps_geom * max(l1 * l2, 1e-300):
                t = min(max((rx * d1x + ry * d1y) / max(l1 * l1, 1e-300), 0.0), 1.0)
                if math.hypot(a1[0] + t * d1x - a2[0], a1[1] + t * d1y - a2[1]) < 10 * eps_geom:
                    s1, s2 = sa1 + t * (sb1 - sa1), sa2
                    uncertain.add((min(s1, s2), max(s1, s2)))
                continue
            t = (rx * d2y - ry * d2x) / denom
            u = (rx * d1y - ry * d1x) / denom
            if not (0.0 < t < 1.0 and 0.0 < u < 1.0):
                continue
            s1, s2 = sa1 + t * (sb1 - sa1), sa2 + u * (sb2 - sa2)
            if min(t, 1.0 - t, u, 1.0 - u) * min(l1, l2) < eps_geom:
                uncertain.add((min(s1, s2), max(s1, s2)))
                continue
            crossings.append((min(s1, s2), max(s1, s2),
                              (a1[0] + t * d1x, a1[1] + t * d1y)))
            ratios.append(max(l1, l2) / min(l1, l2))
    order = sorted(range(len(crossings)), key=crossings.__getitem__)
    return ([crossings[i] for i in order], sorted(uncertain),
            [ratios[i] for i in order])


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_probe_search_matches_all_pairs(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    # a random walk whose step lengths span over two decades, so long and
    # short segments share the candidate search
    steps = 10.0 ** rng.uniform(-3.5, -1.0, 300)
    turn = rng.uniform(0.0, 2.0 * math.pi, 300)
    walk = np.vstack([[0.0, 0.0], np.cumsum(
        np.column_stack([steps * np.cos(turn), steps * np.sin(turn)]), axis=0)])
    walk = 0.9 * (walk - walk.mean(axis=0)) / np.max(np.abs(walk - walk.mean(axis=0)))
    lens = np.hypot(*np.diff(walk, axis=0).T)
    assert lens.max() > 3.0 * lens.mean() and lens.max() > 100.0 * lens.min()
    # a short piece 1e-10 off the middle of the longest step
    i = int(np.argmax(lens))
    d = walk[i + 1] - walk[i]
    normal = np.array([-d[1], d[0]]) / lens[i]
    overlap = np.array([walk[i] + 0.3 * d + 1e-10 * normal,
                        walk[i] + 0.6 * d + 1e-10 * normal])
    # a piece that starts where the walk ends, and one that continues it
    # in a straight line from its shared end point
    bend = np.array([walk[-1], walk[-1] + [0.05, 0.02], walk[-1] + [0.06, 0.1]])
    straight = np.array([bend[-1], bend[-1] + 2.0 * (bend[-1] - bend[-2])])
    # a zero-length first segment on the middle of the second-longest step
    j = int(np.argsort(lens)[-2])
    mid = 0.5 * (walk[j] + walk[j + 1])
    stub = np.array([mid, mid, mid + [0.01, 0.03]])
    pieces = [walk, overlap, bend, straight, stub]

    monkeypatch.setattr(emb, "_GRID", 64)
    monkeypatch.setattr(emb, "_thin", lambda ell: np.arange(ell.size))
    rep = self_intersections(pieces)
    crossings, uncertain, ratios = _all_pairs_reference(pieces)
    assert len(crossings) >= 3 and max(ratios) > 10.0
    # the overlap, the straight continuation and the stub are uncertain;
    # each second entry is the parameter where that piece starts
    starts = np.cumsum([0.0] + [np.hypot(*np.diff(p, axis=0).T).sum() + 1.0
                                for p in pieces[:-1]])
    his = [hi for _, hi in uncertain]
    assert his.count(pytest.approx(starts[1], abs=1e-12)) == 1
    assert his.count(pytest.approx(starts[3], abs=1e-12)) == 1
    assert his.count(pytest.approx(starts[4], abs=1e-12)) == 1
    assert rep.crossings == len(crossings)
    assert rep.uncertain == uncertain
    for (s1, s2, (x, y)), (r1, r2, (rx, ry)) in zip(rep.self_intersections, crossings):
        assert (s1, s2, x, y) == pytest.approx((r1, r2, rx, ry), abs=1e-12, rel=0)
    assert (rep.self_intersections, rep.uncertain) == _scalar_decisions(pieces)


@pytest.mark.parametrize("pieces", [
    [np.array([[0.0, 0.0], [0.5, 0.0]])],
    [np.array([[0.0, 0.0], [0.1, 0.0]]), np.array([[0.0, 0.5], [0.1, 0.5]])],
], ids=["one-segment", "two-far-pieces"])
def test_polyline_without_candidate_pairs_is_embedded(pieces, monkeypatch):
    monkeypatch.setattr(emb, "_GRID", 64)
    rep = self_intersections(pieces)
    assert rep.embedded and rep.uncertain == []


def _swept_pairs(monkeypatch):
    """The (i, j) segment pairs that _candidate_pairs hands to the sweep."""
    swept = []
    search = emb._candidate_pairs

    def recorded(*args):
        first, second = search(*args)
        swept.extend(zip(first.tolist(), second.tolist()))
        return first, second

    monkeypatch.setattr(emb, "_candidate_pairs", recorded)
    return swept


def _scalar_decisions(pieces):
    """The crossing and uncertain lists of self_intersections as its
    per-pair Python loop decided them, before that loop was vectorized."""
    P, S, pieces = emb._parametrize(pieces)
    A, B = P[:-1], P[1:]
    sA, sB = S[:-1], S[1:]
    # each piece's segments, then the junction to the next piece (-1)
    piece_id = np.concatenate([np.append(np.full(p.shape[0] - 1, n), -1)
                               for n, p in enumerate(pieces)])[:-1]
    d = B - A
    lens = np.hypot(d[:, 0], d[:, 1])
    eps = emb._EPS_GEOM
    first, second = emb._candidate_pairs(A, B, d, lens, piece_id, 20 * eps)
    crossings = []
    uncertain = []
    for start in range(0, first.size, emb._PAIR_CHUNK):
        pi_ = first[start:start + emb._PAIR_CHUNK]
        pj_ = second[start:start + emb._PAIR_CHUNK]
        a1, d1 = A[pi_], d[pi_]
        a2, d2 = A[pj_], d[pj_]
        denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        rhs = a2 - a1
        near_par = np.abs(denom) <= eps * np.maximum(lens[pi_] * lens[pj_], 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / denom
            u = (rhs[:, 0] * d1[:, 1] - rhs[:, 1] * d1[:, 0]) / denom
        inside = (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0) & ~near_par
        margin = np.minimum.reduce([t, 1.0 - t, u, 1.0 - u])
        para_t = np.clip((rhs * d1).sum(axis=1) / np.maximum(lens[pi_] ** 2, 1e-300), 0, 1)
        gap = np.hypot(*(a1 + para_t[:, None] * d1 - a2).T)
        t = np.where(near_par, para_t, t)
        u = np.where(near_par, 0.0, u)
        for idx in np.nonzero(inside | (near_par & (gap < 10 * eps)))[0]:
            s1 = sA[pi_[idx]] + t[idx] * (sB[pi_[idx]] - sA[pi_[idx]])
            s2 = sA[pj_[idx]] + u[idx] * (sB[pj_[idx]] - sA[pj_[idx]])
            if near_par[idx] or margin[idx] * min(lens[pi_[idx]], lens[pj_[idx]]) < eps:
                uncertain.append((float(min(s1, s2)), float(max(s1, s2))))
                continue
            pt = a1[idx] + t[idx] * d1[idx]
            lo, hi = sorted((float(s1), float(s2)))
            crossings.append((lo, hi, (float(pt[0]), float(pt[1]))))
    crossings.sort()
    return crossings, sorted(set(uncertain))


def _assert_matches_all_pairs(pieces, monkeypatch):
    """self_intersections on every sample equals the all-pairs loop, bit
    for bit; returns the report."""
    monkeypatch.setattr(emb, "_GRID", 64)
    monkeypatch.setattr(emb, "_thin", lambda ell: np.arange(ell.size))
    rep = self_intersections(pieces)
    crossings, uncertain, _ = _all_pairs_reference(pieces)
    assert rep.self_intersections == crossings
    assert rep.uncertain == uncertain
    assert (rep.self_intersections, rep.uncertain) == _scalar_decisions(pieces)
    return rep


def test_hairpin_turning_past_pi_inside_one_block_crosses_itself(monkeypatch):
    # one loop of a prolate trochoid in 31 segments: it turns by more than
    # pi inside a single 32-segment block
    t = np.linspace(-2.2, 2.2, 32)
    pieces = [0.2 * np.column_stack([t - 1.6 * np.sin(t), 1.0 - 1.6 * np.cos(t)])]
    rep = _assert_matches_all_pairs(pieces, monkeypatch)
    assert rep.crossings == 1


def test_tight_spiral_inside_one_block(monkeypatch):
    # 6 turns of 16 segments, 5e-9 apart, so every block's box holds
    # several turns; matching segments of neighbouring turns are uncertain
    th = np.linspace(0.0, 12.0 * math.pi, 97)
    r = 0.5 + 5e-9 * th / (2.0 * math.pi)
    pieces = [np.column_stack([r * np.cos(th), r * np.sin(th)])]
    rep = _assert_matches_all_pairs(pieces, monkeypatch)
    assert rep.crossings == 0
    assert len(rep.uncertain) >= 80


def test_run_with_a_short_middle_segment_is_not_cleared(monkeypatch):
    # 64 segments of 0.01 turning far less than pi, straight around a 1e-9
    # middle segment: cos(theta/2) * 1e-9 <= 20 * _EPS_GEOM, so the run may
    # not be cleared, and its (31, 33) pair is uncertain
    lens = np.full(64, 0.01)
    lens[32] = 1e-9
    x = np.concatenate([[0.0], np.cumsum(lens)]) - 0.32
    y = 1e-3 * np.maximum(np.abs(x) - 0.015, 0.0) ** 2
    pieces = [np.column_stack([x, y])]
    swept = _swept_pairs(monkeypatch)
    rep = _assert_matches_all_pairs(pieces, monkeypatch)
    assert (31, 33) in swept
    assert rep.crossings == 0
    ell = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pieces[0], axis=0).T))])
    assert rep.uncertain == [(ell[32], ell[33])]


def test_closed_loop_sweeps_its_first_and_last_segments(monkeypatch):
    t = np.linspace(0.0, 2.0 * math.pi, 200)
    loop = np.column_stack([0.5 * np.cos(t), 0.3 * np.sin(t)])
    loop[-1] = loop[0]
    swept = _swept_pairs(monkeypatch)
    rep = _assert_matches_all_pairs([loop], monkeypatch)
    assert (0, 198) in swept
    assert rep.embedded


def test_pieces_that_continue_each_other_in_a_line(monkeypatch):
    pieces = [np.column_stack([np.linspace(-0.8, 0.0, 41), np.full(41, 0.1)]),
              np.column_stack([np.linspace(0.0, 0.8, 41), np.full(41, 0.1)])]
    swept = _swept_pairs(monkeypatch)
    rep = _assert_matches_all_pairs(pieces, monkeypatch)
    # the last segment of the first piece and the first of the second;
    # segment 40 is the zero-length junction between them
    assert (39, 41) in swept
    assert rep.crossings == 0
    assert rep.uncertain == [(pytest.approx(0.8), pytest.approx(1.8))]


def test_crossing_within_eps_of_the_shorter_segments_end_is_uncertain(monkeypatch):
    # the short piece starts 1e-10 below the long one: the crossing is at
    # 1e-8 of the short segment, so margin * shorter length is 1e-10, but
    # margin * longer length would be 1e-8
    pieces = [np.array([[-0.5, 0.0], [0.5, 0.0]]),
              np.array([[0.0, -1e-10], [0.0, 0.01 - 1e-10]]),
              np.array([[0.2, -0.1], [0.2, 0.1]])]
    rep = _assert_matches_all_pairs(pieces, monkeypatch)
    assert rep.crossings == 1 and rep.self_intersections[0][2] == pytest.approx((0.2, 0.0))
    assert rep.uncertain == [(pytest.approx(0.5), pytest.approx(2.0 + 1e-10))]


def test_smooth_boundary_sends_few_pairs_to_the_sweep(monkeypatch):
    """Chain-local pairs of a long smooth curve never reach the sweep: on
    the mu = 3 boundary only the pairs near its two crossings do."""
    # the chains critical_catenoid_domain sweeps, tiled here from its march
    curve = integrate_prescribed_curvature(
        lambda s: 1.0 - hc.theta_prime_fn(3.0)(s), (0.0, math.inf),
        (math.tanh(hc.vertex_base_distance(3.0) / 2.0), 0.0), -math.pi / 2.0,
        step=2e-3, s_cap=20.0)
    assembled = assemble_domain(curve, 2)
    assert sum(p.shape[0] - 1 for p in assembled.pieces) > 40000
    swept = _swept_pairs(monkeypatch)
    _, _, rep = critical_catenoid_domain(3.0, k=2, step=2e-3, s_cap=20.0)
    assert rep.crossings == 2
    assert 2 <= len(swept) <= 36


@pytest.mark.parametrize("pitch,per_turn,min_uncertain", [(8e-8, 499.9, 0),
                                                          (3e-9, 400.5, 1000)])
def test_tight_spiral_decisions_match_the_scalar_loop(pitch, per_turn, min_uncertain,
                                                      monkeypatch):
    """Ten turns of a spiral whose samples drift against the turns: tens of
    thousands of crossings between adjacent turns and, at the smaller pitch,
    near-parallel pairs too, decided as the per-pair loop decided them."""
    monkeypatch.setattr(emb, "_GRID", 64)
    th = np.arange(int(10 * per_turn) + 1) * (2.0 * math.pi / per_turn)
    r = 0.5 + pitch * th / (2.0 * math.pi)
    pieces = [np.column_stack([r * np.cos(th), r * np.sin(th)])]
    rep = self_intersections(pieces)
    crossings, uncertain = _scalar_decisions(pieces)
    assert len(crossings) > 10000 and len(uncertain) >= min_uncertain
    assert rep.self_intersections == crossings
    assert rep.uncertain == uncertain


def _brute_force_winding(loops, centers):
    """Winding number at each pixel center, pixel by pixel: a segment
    counts for row r when min(y0, y1) <= c_r < max(y0, y1), and for the
    pixels whose center is at or right of its crossing x."""
    wind = np.zeros((centers.size, centers.size), dtype=np.int64)
    for loop in loops:
        (x0, y0), (x1, y1) = loop[:-1].T, loop[1:].T
        for r, yr in enumerate(centers):
            on = (np.minimum(y0, y1) <= yr) & (yr < np.maximum(y0, y1))
            tt = (yr - y0[on]) / (y1[on] - y0[on])
            xc = x0[on] + tt * (x1[on] - x0[on])
            sign = np.where(y1[on] > y0[on], 1, -1)
            for c, xp in enumerate(centers):
                wind[r, c] = np.sum(sign[xp >= xc])
    return wind


def _star_polygon(seed):
    rng = np.random.default_rng(seed)
    th = np.sort(rng.uniform(0.0, 4.0 * math.pi, 60))
    r = rng.uniform(0.1, 0.9, 60)
    p = np.column_stack([r * np.cos(th), r * np.sin(th)])
    return np.vstack([p, p[:1]])


_T = np.linspace(0.0, 2.0 * math.pi, 201)
_T2 = np.linspace(0.0, 4.0 * math.pi, 161)


@pytest.mark.parametrize("grid,loop", [
    (32, np.column_stack([0.6 * np.sin(2 * _T) / 2.0, 0.6 * np.sin(_T)])),
    (48, np.column_stack([0.7 * np.cos(_T2), 0.7 * np.sin(_T2)])),
    (64, _star_polygon(8)),
    # vertices on pixel centers of the 32 grid: rows at a vertex and
    # crossings at a center exercise both ends of the counting rule
    (32, -1.0 + (np.array([[4, 4], [20, 4], [20, 12], [12, 20], [4, 12], [4, 4]])
                 + 0.5) * (2.0 / 32)),
], ids=["figure-eight", "circle-twice", "random-star", "center-vertices"])
def test_winding_grid_matches_a_per_pixel_count(grid, loop):
    wind, centers = emb._winding_grid([loop], grid)
    assert wind.shape == (grid, grid)
    ref = _brute_force_winding([loop], centers)
    assert np.any(np.abs(ref) >= 1)
    assert np.array_equal(wind, ref)


_FEW = np.array([[0.0, 0.0], [0.4, 0.4], [0.4, 0.0], [0.0, 0.4],
                 [0.2, -0.2], [0.1, 0.5]])


@pytest.mark.parametrize("split", [False, True], ids=["one-piece", "two-pieces"])
@pytest.mark.parametrize("segments", [1, 2, 3, 4, 5])
def test_candidate_search_on_one_to_five_segments(segments, split, monkeypatch):
    """Odd segment counts pad the block pyramid; one segment has no level
    above the segments.  The verdicts match the all-pairs loop."""
    rng = np.random.default_rng(segments)
    crossings = []
    for pts in [_FEW[:segments + 1]] + [rng.uniform(-0.8, 0.8, (segments + 1, 2))
                                        for _ in range(8)]:
        pieces = [pts[:2], pts[1:]] if split and segments > 1 else [pts]
        crossings.append(_assert_matches_all_pairs(pieces, monkeypatch).crossings)
    assert crossings[0] == [0, 0, 1, 2, 4][segments - 1]


def _bar_and_sides(count, seed):
    """count pieces: the first runs up a bar at x = 0 and steps left, the
    others lie on alternate sides of the bar, the odd ones one segment
    each, so the junction chord from each piece to the next crosses it."""
    rng = np.random.default_rng(seed)
    pieces = [np.array([[0.0, -0.8], [0.0, 0.8], [-0.4, 0.75]])]
    for n in range(1, count):
        m = 2 if n % 2 else int(rng.integers(3, 7))
        side = 1.0 if n % 2 else -1.0
        pieces.append(np.column_stack([side * rng.uniform(0.1, 0.7, m),
                                       rng.uniform(-0.7, 0.7, m)]))
    return pieces


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("count", [2, 3, 4, 5])
def test_junction_chords_between_pieces_are_never_swept(count, seed, monkeypatch):
    """The sweep's segments are views of all pieces' points in one array,
    so the chord from one piece's last point to the next one's first is a
    segment there too.  It crosses the bar, yet no candidate pair holds it,
    and the verdicts match the all-pairs loop over the pieces."""
    pieces = _bar_and_sides(count, seed)
    joined, _, _ = _all_pairs_reference([np.vstack(pieces)])
    held = []
    search = emb._candidate_pairs

    def recorded(A, B, d, lens, piece_id, slack):
        first, second = search(A, B, d, lens, piece_id, slack)
        held.append(np.concatenate([piece_id[first], piece_id[second]]))
        return first, second

    monkeypatch.setattr(emb, "_candidate_pairs", recorded)
    rep = _assert_matches_all_pairs(pieces, monkeypatch)
    # joined into one polyline, each junction chord crosses the bar
    assert len(joined) >= rep.crossings + count - 1
    assert len(held) == 2 and all(np.all(h >= 0) for h in held)


@pytest.mark.parametrize("pieces", [
    [np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([[0.5, 0.5], [0.5, 0.5]])],
    [np.zeros((3, 2)), np.full((2, 2), 0.3), np.full((4, 2), -0.6)],
], ids=["two-pieces", "three-pieces"])
def test_zero_length_pieces_joined_by_long_junctions_are_degenerate(pieces):
    with pytest.raises(GeometryError, match="degenerate polyline"):
        self_intersections(pieces)


@pytest.mark.parametrize("curve,bound_mb", [("spiral", 26), ("double-rose", 66),
                                            ("two-pieces", 52)],
                         ids=["spiral", "double-rose", "two-pieces"])
def test_self_intersections_memory_stays_bounded(curve, bound_mb):
    """200,001 points a piece: the segments are views of one point array,
    the sweep's arrays are gone before the raster, the raster is int32, the
    covered cells' metric is built in one buffer, and level 0 of the pair
    search is read in slices."""
    def polar(r, t):
        return np.column_stack([r * np.cos(t), r * np.sin(t)])

    if curve == "spiral":  # 20 turns: 641,520 covered-twice raster cells
        t = np.linspace(0.0, 40.0 * math.pi, 200001)
        pieces = [polar(0.05 + 0.9 * t / t[-1], t)]
    elif curve == "double-rose":  # traced twice: about 100k near-parallel pairs reach the sweep
        t = np.linspace(0.0, 4.0 * math.pi, 200001)
        pieces = [polar(0.5 + 0.3 * np.cos(3.0 * t), t)]
    else:
        # two open arcs from near the ideal circle to near it again, as the
        # tiled catenoid curves run; they cross once, and about 331k of
        # their samples survive the thinning
        u = np.linspace(-1.0, 1.0, 200001)
        pieces = [polar(0.3 + 0.699 * u * u, phi0 + 1.5 * u) for phi0 in (0.0, 2.0)]
    tracemalloc.start()
    try:
        rep = self_intersections(pieces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.crossings == (1 if curve == "two-pieces" else 0)
    assert peak < bound_mb * 2 ** 20
