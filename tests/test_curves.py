"""Disk Frenet integrator, prescribed-curvature oracles, dihedral assembly.

Oracle curves with known closed forms (geodesics, metric circles,
equidistants, horocycles) pin the integrator; everything else layers on it.
kg maps an array of arclengths to an array of the same shape.
"""
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import ektlab
from ektlab import curves
from ektlab.curves import (DEFAULT_S_CAP, DEFAULT_STEP, PlanarCurve,
                           _merge_chains, assemble_domain,
                           distance_to_geodesic_diameter,
                           integrate_prescribed_curvature, kg_critical)
from ektlab.embedding import fiber_domain
from ektlab.helicoid import vertex_base_distance
from ektlab.spaces import GeometryError, metric_distance, min_metric_distance


def const(k: float):
    """Constant curvature k, as an array like its argument."""
    return lambda s: np.full_like(s, k)


def circle_kg(R: float) -> float:
    return 1.0 / math.tanh(R)


def circle_arc(R: float, arc_fraction: float, step: float = 1e-3):
    """Counterclockwise arc of the metric circle of radius R about 0."""
    length = arc_fraction * 2.0 * math.pi * math.sinh(R)
    return integrate_prescribed_curvature(
        const(circle_kg(R)), (0.0, length),
        (math.tanh(R / 2.0), 0.0), math.pi / 2.0, step=step)


def catenoid_march(step: float, s_end: float):
    """The mu = 3 critical-catenoid curve (kg_critical from the figure's
    start) to arclength s_end."""
    r0 = math.tanh(vertex_base_distance(3.0) / 2.0)
    return integrate_prescribed_curvature(
        lambda s: kg_critical(s, 3.0), (0.0, s_end), (r0, 0.0),
        -math.pi / 2.0, step=step)


def endpoint_distance(a, b) -> float:
    """Hyperbolic distance between the last samples of two disk curves."""
    # the unit disk is the radius-2 chart of curvature -1 scaled by 1/2
    return float(metric_distance(2.0 * a.points[-1], 2.0 * b.points[-1], -1.0))


def test_geodesic_through_origin():
    c = integrate_prescribed_curvature(const(0.0), (0.0, 1.5),
                                       (0.0, 0.0), 0.0, step=1e-3)
    assert np.max(np.abs(c.y)) == 0.0
    assert c.x[-1] == pytest.approx(math.tanh(0.75), abs=1e-7)
    # the unit disk is the radius-2 chart of curvature -1 scaled by 1/2
    end = [[2.0 * c.x[-1], 2.0 * c.y[-1]]]
    assert min_metric_distance([[0.0, 0.0]], end, -1.0)[0] == \
        pytest.approx(1.5, abs=1e-6)


def test_metric_circle_closes_after_one_period():
    R = 1.0
    c = circle_arc(R, 1.0)
    r = np.hypot(c.x, c.y)
    assert np.max(np.abs(r - math.tanh(R / 2.0))) < 1e-6
    assert math.hypot(c.x[-1] - c.x[0], c.y[-1] - c.y[0]) < 1e-6


def test_equidistant_curve_keeps_its_distance():
    D = 0.7
    sh = math.sinh(D)
    y0 = (math.sqrt(1.0 + sh * sh) - 1.0) / sh  # chart height at distance D
    c = integrate_prescribed_curvature(const(-math.tanh(D)), (0.0, 2.0),
                                       (0.0, y0), 0.0, step=1e-3)
    d = distance_to_geodesic_diameter(c.x, c.y)
    assert np.max(np.abs(d - D)) < 1e-6


def test_horocycle_is_a_tangent_euclidean_circle():
    c = integrate_prescribed_curvature(const(1.0), (0.0, 6.0),
                                       (0.0, 0.0), 0.0, step=1e-3)
    drift = np.abs(np.hypot(c.x, c.y - 0.5) - 0.5)
    assert np.max(drift) < 1e-7


def test_integrator_is_fourth_order():
    """On non-constant kg, each halving of the step moves the endpoint
    about 16x less than the halving before."""
    ends = [catenoid_march(step, 10.0) for step in (4e-2, 2e-2, 1e-2)]
    ratio = endpoint_distance(*ends[:2]) / endpoint_distance(*ends[1:])
    assert 12.0 <= ratio <= 20.0


def test_constant_kg_is_integrated_exactly():
    g = integrate_prescribed_curvature(const(0.0), (0.0, 2.0), (0.0, 0.0),
                                       0.0, step=1e-3)
    assert abs(g.x[-1] - math.tanh(1.0)) < 1e-12
    c = circle_arc(0.8, 1.0)
    assert math.hypot(c.x[-1] - c.x[0], c.y[-1] - c.y[0]) < 1e-12


def test_catenoid_march_has_converged_in_the_step(monkeypatch):
    """At the figure's step 5e-4 the mu = 3 point at s = 60 is within 1e-6
    of a run at a quarter of the step, and the marched frames keep
    <gamma, gamma> = -1 on the hyperboloid."""
    drift = []
    prefix = curves._prefix_frames

    def spy(frame, steps):
        p, last = prefix(frame, steps)
        drift.append(np.max(np.abs(p[:, 1] ** 2 + p[:, 2] ** 2
                                   - p[:, 0] ** 2 + 1.0)))
        return p, last

    monkeypatch.setattr(curves, "_prefix_frames", spy)
    coarse = catenoid_march(5e-4, 60.0)
    assert max(drift) < 1e-9
    assert endpoint_distance(coarse, catenoid_march(1.25e-4, 60.0)) < 1e-6


def test_unbounded_ranges_truncate_with_a_reason():
    g = integrate_prescribed_curvature(const(0.0), (0.0, math.inf),
                                       (0.0, 0.0), 0.0, step=1e-3)
    assert g.truncated_reason == "ideal boundary"
    assert 1.0 - math.hypot(g.x[-1], g.y[-1]) < 2e-6
    c = integrate_prescribed_curvature(const(2.0), (0.0, math.inf),
                                       (0.0, 0.0), 0.0, step=1e-3, s_cap=7.0)
    assert c.truncated_reason == "arclength cap"
    assert c.s[-1] == pytest.approx(7.0, abs=1e-2)


def test_bad_integrator_input_is_rejected():
    with pytest.raises(GeometryError):
        integrate_prescribed_curvature(lambda s: 0.0, (1.0, 0.0), (0, 0), 0.0)
    with pytest.raises(GeometryError):
        integrate_prescribed_curvature(lambda s: 0.0, (0.0, 1.0), (1.2, 0), 0.0)
    with pytest.raises(GeometryError):
        integrate_prescribed_curvature(lambda s: 0.0, (0.0, 1.0), (0, 0), 0.0,
                                       step=0.0)
    # the march runs forward from initial data at a finite start
    with pytest.raises(GeometryError):
        integrate_prescribed_curvature(lambda s: 0.0, (-math.inf, math.inf),
                                       (0, 0), 0.0)


def test_kg_is_called_on_arrays_once_per_array_pass():
    calls = []

    def kg(s):
        calls.append(s)
        return 1.0 + s

    c = integrate_prescribed_curvature(kg, (0.0, 10.0), (0.0, 0.0), 0.0,
                                       step=1e-3)
    assert len(c.s) > 2 * curves._CHUNK
    assert all(isinstance(s, np.ndarray) for s in calls)
    assert len(calls) <= math.ceil(len(c.s) / curves._CHUNK) + 1
    assert np.array_equal(c.kg_samples, kg(c.s))


def test_a_step_past_the_ideal_circle_stops_the_march(monkeypatch):
    # a unit hyperbolic step near the ideal circle overshoots it long before
    # 1 - |p| falls below a vanishing _EPS_IDEAL
    monkeypatch.setattr(curves, "_EPS_IDEAL", 1e-300)
    c = integrate_prescribed_curvature(const(0.0), (0.0, math.inf),
                                       (0.0, 0.0), 0.0, step=1.0)
    assert c.truncated_reason == "left disk numerically"
    assert len(c.s) > 2
    assert np.all(np.hypot(c.x, c.y) < 1.0)


def test_kg_critical_matches_one_minus_theta_prime():
    from ektlab.helicoid import theta_prime
    rng = np.random.default_rng(7)
    for _ in range(50):
        mu = rng.uniform(0.51, 20.0) * rng.choice([-1.0, 1.0])
        s = rng.uniform(-5.0, 5.0)
        assert kg_critical(s, mu) == pytest.approx(
            1.0 - theta_prime(s, mu), abs=1e-13)


def test_kg_critical_limits_and_domain():
    # far along the fiber every member turns horocyclic
    assert kg_critical(1e6, 3.0) == pytest.approx(1.0, abs=1e-9)
    assert kg_critical(-1e6, -3.0) == pytest.approx(1.0, abs=1e-9)
    # waist value is 1 + sigma: above 1 on the positive branch, below on the
    # negative (even below -1 for strongly curved members)
    assert kg_critical(0.0, 3.0) > 1.0 > kg_critical(0.0, -3.0)
    assert kg_critical(0.0, -3.0) == pytest.approx(1.0 + 25.0 / (4 * -3.0))
    assert kg_critical(0.0, 3.0) == pytest.approx(1.0 + 49.0 / 12.0)
    with pytest.raises(GeometryError):
        kg_critical(0.0, 0.4)
    arr = kg_critical(np.array([0.0, 1.0]), 2.0)
    assert arr.shape == (2,)


def test_fiber_domain_records_turning():
    # theta' = 0 and H = 1/2 integrates a horocycle and zero turning; with
    # d = 0 the curve starts at the origin.  fiber_domain returns no curve:
    # the march it makes is made again here with its arguments
    turning, _, _ = fiber_domain(const(0.0), 0.5, 0.0, 0.0, 4.0, 2, 1e-3,
                                 DEFAULT_S_CAP)
    assert turning == pytest.approx(0.0, abs=1e-12)
    c = integrate_prescribed_curvature(lambda s: 1.0 - const(0.0)(s),
                                       (0.0, 4.0), (0.0, 0.0), 0.0,
                                       step=1e-3, s_cap=DEFAULT_S_CAP)
    assert np.max(np.abs(np.hypot(c.x, c.y - 0.5) - 0.5)) < 1e-7
    # constant theta' integrates to theta' * length
    turning2, _, _ = fiber_domain(const(0.25), 0.5, 0.0, 0.0, 2.0, 2, 1e-3,
                                  DEFAULT_S_CAP)
    assert turning2 == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(GeometryError):
        fiber_domain(const(0.0), 0.7, 0.0, 0.0, 1.0, 2, DEFAULT_STEP,
                     DEFAULT_S_CAP)


def test_assemble_domain_closes_a_circle_wedge():
    """A (1/2k)-period circle arc between two mirror rays tiles to the circle.

    The chain merge tolerance is 1e-8, so the arc endpoint must land on the
    second ray well within that; constant kg is marched exactly, so only
    round-off separates them.
    """
    k = 3
    arc = circle_arc(1.0, 1.0 / (2 * k), step=1e-4)
    asm = assemble_domain(arc, k)
    assert asm.closed
    assert asm.max_gap < 1e-8
    # the dihedral orbit of the arc reassembles the full metric circle
    assert len(asm.pieces) == 1
    total = sum(p.shape[0] - 1 for p in asm.pieces)
    assert total == pytest.approx(2 * k * (arc.points.shape[0] - 1), abs=2 * k)
    radii = np.hypot(asm.pieces[0][:, 0], asm.pieces[0][:, 1])
    assert np.max(np.abs(radii - math.tanh(0.5))) < 1e-6


def test_assemble_domain_rejects_off_ray_starts():
    arc = integrate_prescribed_curvature(const(0.0), (0.0, 0.5),
                                         (0.3, 0.2), 0.3, step=1e-3)
    with pytest.raises(GeometryError):
        assemble_domain(arc, 4)
    with pytest.raises(GeometryError):
        assemble_domain(arc, 1)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_assemble_domain_drops_coinciding_images(reverse):
    """Images that coincide point for point, in the same or the opposite
    order, are kept once: a ray segment is its own mirror image, and a half
    circle across the x-axis is its own mirror image reversed."""
    t = np.linspace(0.0, 1.0, 201)
    if reverse:
        # the second half is the first mirrored, so the symmetry is exact
        a = math.pi * t[:101]
        x = np.concatenate((0.3 * np.sin(a), 0.3 * np.sin(a[-2::-1])))
        y = np.concatenate((0.3 * np.cos(a), -0.3 * np.cos(a[-2::-1])))
    else:
        x, y = 0.2 + 0.4 * t, np.zeros_like(t)
    curve = PlanarCurve(s=t, points=np.column_stack([x, y]),
                        kg_samples=np.zeros_like(t))
    asm = assemble_domain(curve, 2)
    # four images, two distinct; reversed, the two halves join to a circle
    assert asm.segment_count == 2 * (t.size - 1)
    assert len(asm.pieces) == (1 if reverse else 2)
    assert asm.closed == reverse


def merge_chains_reference(images):
    """The endpoint merge by scipy's connected components: the clusters of
    the <= 1e-8 graph, joined across clusters of exactly two endpoints."""
    idents = [(idx, end) for idx in range(len(images)) for end in (0, -1)]
    pts = np.array([images[idx][end] for idx, end in idents])
    diff = pts[:, None, :] - pts[None, :, :]
    _, labels = connected_components(
        np.hypot(diff[..., 0], diff[..., 1]) <= 1e-8, directed=False)
    members = {}
    for ident, label in zip(idents, labels.tolist()):
        members.setdefault(label, []).append(ident)
    cluster_of = dict(zip(idents, labels.tolist()))
    used = [False] * len(images)
    chains = []
    for start in range(len(images)):
        if used[start]:
            continue
        used[start] = True
        seq = [(start, +1)]
        for grow_tail in (True, False):
            while True:
                pi, orient = seq[-1] if grow_tail else seq[0]
                ident = (pi, -1 if (orient == +1) == grow_tail else 0)
                mem = members[cluster_of[ident]]
                if len(mem) != 2:
                    break
                oi, oe = next(m for m in mem if m != ident)
                if used[oi]:
                    break
                used[oi] = True
                if grow_tail:
                    seq.append((oi, +1 if oe == 0 else -1))
                else:
                    seq.insert(0, (oi, +1 if oe == -1 else -1))
        chains.append(np.vstack([
            (images[pi] if orient == +1 else images[pi][::-1])[n > 0:]
            for n, (pi, orient) in enumerate(seq)]))
    return chains


def merge_chains(images):
    """_merge_chains over the images' end points, writing each image into
    its chain from the list."""
    def write(i, out, forward):
        out[:] = images[i] if forward else images[i][::-1]

    return _merge_chains(np.array([p[e] for p in images for e in (0, -1)]),
                         [p.shape[0] for p in images], write)


def assert_same_chains(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("seed", range(40))
def test_merge_chains_matches_connected_components(seed):
    """Pieces between a few junctions, each endpoint jittered by 1e-12 to
    8e-9, so that some junctions split, some chain through a middle
    endpoint and some meet three or more ends."""
    rng = np.random.default_rng(seed)
    junctions = rng.uniform(-0.5, 0.5, (rng.integers(2, 6), 2))
    images = []
    for _ in range(rng.integers(1, 9)):
        ends = junctions[rng.integers(0, len(junctions), 2)]
        angle = rng.uniform(0.0, 2.0 * math.pi, 2)
        jitter = rng.uniform(1e-12, 8e-9, (2, 1)) * np.column_stack(
            [np.cos(angle), np.sin(angle)])
        mid = rng.uniform(-0.5, 0.5, (rng.integers(1, 4), 2))
        images.append(np.vstack([ends[0] + jitter[0], mid, ends[1] + jitter[1]]))
    assert_same_chains(merge_chains(images), merge_chains_reference(images))


def test_merge_chains_closes_the_junction_relation_transitively():
    # three ends 0.8e-8 apart in a row: the outer two are 1.6e-8 apart,
    # but all three form one junction of degree 3, so nothing joins
    tails = [np.array([[0.0, 0.0]]), np.array([[0.8e-8, 0.0]]),
             np.array([[1.6e-8, 0.0]])]
    images = [np.vstack([[0.1 * n, 0.3], tail]) for n, tail in
              enumerate(tails, 1)]
    got = merge_chains(images)
    assert_same_chains(got, images)
    assert_same_chains(got, merge_chains_reference(images))


def dihedral_images(curve, k):
    """The distinct images of the curve under the dihedral group of order
    2k, each the product of the mirrored or unmirrored points with R.T, as
    assemble_domain formed them when it kept them in a list."""
    images = []
    for j in range(k):
        rot = 2.0 * math.pi * j / k
        R = np.array([[math.cos(rot), -math.sin(rot)],
                      [math.sin(rot), math.cos(rot)]])
        for mirror in (False, True):
            p = curve.points.copy()
            if mirror:
                p[:, 1] = -p[:, 1]
            p = p @ R.T
            if not any(curves._same_points(p, q) for q in images):
                images.append(p)
    return images


def _catenoid_curve(mu, step, s_cap):
    """The fundamental curve of critical_catenoid_domain at mu."""
    from ektlab.helicoid import theta_prime_fn
    return integrate_prescribed_curvature(
        lambda s: 1.0 - theta_prime_fn(mu)(s), (0.0, math.inf),
        (math.tanh(vertex_base_distance(mu) / 2.0), 0.0),
        -math.pi / 2.0 if mu > 0 else math.pi / 2.0, step=step, s_cap=s_cap)


def _half_circle():
    # the second half is the first mirrored: the curve is its own mirror
    # image reversed
    a = math.pi * np.linspace(0.0, 0.5, 101)
    points = 0.3 * np.column_stack([np.concatenate((np.sin(a), np.sin(a[-2::-1]))),
                                    np.concatenate((np.cos(a), -np.cos(a[-2::-1])))])
    t = np.linspace(0.0, 1.0, 201)
    return PlanarCurve(s=t, points=points, kg_samples=np.zeros_like(t))


@pytest.mark.parametrize("case,k", [("catenoid", 2), ("catenoid", 3),
                                    ("catenoid", 5), ("half-circle", 2),
                                    ("circle-wedge", 5)])
def test_assemble_domain_chains_are_the_stacked_images(case, k):
    """Each chain, written image by image into one array, equals the
    images stacked as the old image list stacked them, bit for bit: for the
    mu = 3 catenoid curve at k = 2, 3 and 5, for a curve that is its own
    mirror image reversed (the dedupe path) and for a closed circle."""
    curve = {"catenoid": lambda: _catenoid_curve(3.0, 2e-3, 20.0),
             "half-circle": _half_circle,
             "circle-wedge": lambda: circle_arc(1.0, 1.0 / (2 * k), step=1e-3)}[case]()
    images = dihedral_images(curve, k)
    got = assemble_domain(curve, k).pieces
    assert_same_chains(got, merge_chains_reference(images))
    assert len(images) == (2 if case == "half-circle" else 2 * k)
    if case == "catenoid" and k == 2:
        # the first chain runs the mirror image backwards, into the curve
        n = curve.points.shape[0]
        assert np.array_equal(got[0][:n], images[1][::-1])
        assert np.array_equal(got[0][n - 1:], images[0])


def test_assemble_domain_keeps_no_image_list():
    """Tiling the mu = 3 catenoid curve at the default step (120,001
    points, chains of 7.7 MB) holds the chains and at most one image of
    1.9 MB more: the images are written into the chains, not listed."""
    curve = _catenoid_curve(3.0, DEFAULT_STEP, DEFAULT_S_CAP)
    image_bytes = curve.points.nbytes
    tracemalloc.start()
    try:
        asm = assemble_domain(curve, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chain_bytes = sum(p.nbytes for p in asm.pieces)
    assert image_bytes == 120001 * 16
    assert [p.shape for p in asm.pieces] == [(240001, 2)] * 2
    assert peak < chain_bytes + 1.25 * image_bytes


def test_origin_start_joins_no_image():
    # all 2k images start at the origin, one junction of degree 2k
    k = 3
    arc = integrate_prescribed_curvature(const(0.5), (0.0, 0.5), (0.0, 0.0),
                                         0.3, step=1e-3)
    asm = assemble_domain(arc, k)
    assert len(asm.pieces) == 2 * k
    assert not asm.closed
    for p in asm.pieces:
        np.testing.assert_array_equal(p[0], [0.0, 0.0])
        assert p.shape == arc.points.shape


def test_importing_the_cli_does_not_load_csgraph():
    src = str(pathlib.Path(ektlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ektlab.cli; "
         "print('scipy.sparse.csgraph' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
