"""Triangulations of geodesic triangles: tags, sizing, truncation, mirrors."""
import math

import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree

from ektlab import mesh
from ektlab.mesh import TAGS, triangulate
from ektlab.spaces import (GeometryError, build_triangle, metric_radius,
                           min_metric_distance)


def edge_metric_lengths(dom):
    e = dom.elements
    pairs = np.vstack([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    p = dom.nodes[pairs[:, 0]]
    q = dom.nodes[pairs[:, 1]]
    mid = (p + q) / 2.0
    lam = 1.0 / (1.0 + dom.triangle.kappa * (mid[:, 0] ** 2 + mid[:, 1] ** 2) / 4.0)
    return lam * np.hypot(*(q - p).T)


def test_boundary_edges_are_computed_once_and_read_only():
    dom = triangulate(build_triangle(1.0, 1.5, 3, -0.75), 0.05)
    edges = dom.boundary_edges()
    assert dom.boundary_edges() is edges
    assert not edges.flags.writeable
    e = dom.elements
    pairs = np.sort(np.vstack([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    assert np.array_equal(edges, uniq[counts == 1])


def test_finite_triangle_mesh_basics():
    tri = build_triangle(1.0, 1.5, 3, -0.75)
    dom = triangulate(tri, 0.05)
    assert dom.n_nodes > 200
    assert dom.elements.shape[1] == 3
    # every boundary-edge node carries exactly one tag
    for edge in dom.boundary_edges():
        for n in edge:
            assert dom.tags[n] >= 0
            assert dom.tags[n] < len(TAGS)
    # no truncation tag on a finite triangle
    assert dom.nodes_with_tag("truncation").size == 0
    # signed element areas all positive (consistent orientation)
    p = dom.nodes[dom.elements]
    area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    assert np.all(area2 > 0)


def test_leg_tags_sit_on_their_rays():
    tri = build_triangle(1.0, 1.0, 4, -0.96)
    dom = triangulate(tri, 0.04)
    leg0 = dom.nodes[dom.nodes_with_tag("side_p0p1")]
    assert np.max(np.abs(leg0[:, 1])) < 1e-9
    leg1 = dom.nodes[dom.nodes_with_tag("side_p0p2")]
    ang = math.pi / 4
    assert np.max(np.abs(leg1[:, 0] * math.sin(ang)
                         - leg1[:, 1] * math.cos(ang))) < 1e-8
    # p0 carries the side_p0p1 tag (priority by side order)
    origin = int(np.argmin(np.hypot(dom.nodes[:, 0], dom.nodes[:, 1])))
    assert TAGS[dom.tags[origin]] == "side_p0p1"


def test_edge_lengths_track_target_h():
    tri = build_triangle(1.0, 1.0, 2, -0.75)
    for h in (0.1, 0.05):
        dom = triangulate(tri, h)
        lengths = edge_metric_lengths(dom)
        assert np.median(lengths) == pytest.approx(h, rel=0.35)
        assert lengths.max() < 2.2 * h


def test_refinement_scales_node_count():
    tri = build_triangle(1.0, 1.0, 2, -0.75)
    n1 = triangulate(tri, 0.08).n_nodes
    n2 = triangulate(tri, 0.04).n_nodes
    assert 2.8 < n2 / n1 < 5.5  # ~4x for a 2d mesh


def test_ideal_vertex_needs_truncation():
    tri = build_triangle(math.inf, 1.0, 3, -0.96)
    with pytest.raises(GeometryError):
        triangulate(tri, 0.05)
    dom = triangulate(tri, 0.05, 2.5)
    trunc = dom.nodes_with_tag("truncation")
    assert trunc.size > 0
    r = np.hypot(*dom.nodes[trunc].T)
    assert np.allclose(metric_radius(r[0], -0.96), 2.5, atol=1e-9)
    # all nodes stay inside the truncation radius
    assert dom.node_metric_radius.max() <= 2.5 + 1e-9
    # far side present and strictly inside the disk
    far = dom.nodes_with_tag("side_p1p2")
    assert far.size > 0
    assert np.hypot(*dom.nodes[far].T).max() < 2.0 / math.sqrt(0.96)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("sides", [(math.inf, 4.5), (4.5, math.inf)])
@pytest.mark.parametrize("r_trunc", [4.0, 4.5])
def test_truncation_short_of_the_finite_side_is_refused(sides, k, r_trunc):
    # at R_trunc = 4 the centroid filter used to cut p2 off, leaving nodes
    # up to metric radius 4.0068 and a shortened leg to integrate d along
    with pytest.raises(GeometryError) as err:
        triangulate(build_triangle(*sides, k, -0.36), 0.1, r_trunc)
    assert str(err.value) == (f"R_trunc = {r_trunc:g} does not reach past "
                              "the finite side, which is 4.5 long")


@pytest.mark.parametrize("k", [2, 3])
def test_truncation_just_past_the_finite_side_keeps_p2(k):
    tri = build_triangle(math.inf, 4.5, k, -0.36)
    dom = triangulate(tri, 0.1, 4.6)
    assert np.min(np.hypot(*(dom.nodes - tri.p2).T)) < 1e-12
    assert dom.node_metric_radius.max() <= 4.6 + 1e-9


def test_doubly_ideal_wedge_is_rejected():
    with pytest.raises(GeometryError):
        build_triangle(math.inf, math.inf, 2, -1.0)


def test_flat_half_strip_is_structured():
    tri = build_triangle(math.inf, 1.0, 2, 0.0)
    dom = triangulate(tri, 0.1, 3.0)
    xs = np.unique(dom.nodes[:, 0])
    ys = np.unique(dom.nodes[:, 1])
    assert np.allclose(np.diff(xs), np.diff(xs)[0])
    assert np.allclose(np.diff(ys), np.diff(ys)[0])
    assert dom.n_nodes == xs.size * ys.size
    assert ys[-1] == pytest.approx(1.0)
    assert xs[-1] == pytest.approx(3.0)
    # tag layout: y=0 ray, x=0 wall, y=b far side, x=R truncation
    far = dom.nodes[dom.nodes_with_tag("side_p1p2")]
    assert np.allclose(far[:, 1], 1.0)
    tr = dom.nodes[dom.nodes_with_tag("truncation")]
    assert np.allclose(tr[:, 0], 3.0)


def test_strip_corners_take_the_first_tag_in_TAGS_order():
    dom = triangulate(build_triangle(math.inf, 1.0, 2, 0.0), 0.1, 3.0)
    want = {(0.0, 0.0): "side_p0p1", (3.0, 0.0): "side_p0p1",
            (0.0, 1.0): "side_p0p2", (3.0, 1.0): "side_p1p2"}
    for (x, y), tag in want.items():
        corner = np.flatnonzero((dom.nodes[:, 0] == x) & (dom.nodes[:, 1] == y))
        assert corner.size == 1
        assert TAGS[dom.tags[corner[0]]] == tag
    # every other node of the outer rows and columns has one side to take
    edge = (np.isin(dom.nodes[:, 0], (0.0, 3.0))
            | np.isin(dom.nodes[:, 1], (0.0, 1.0)))
    assert np.all(dom.tags[edge] >= 0) and np.all(dom.tags[~edge] == -1)


def test_strip_matches_the_loop_reference():
    dom = triangulate(build_triangle(math.inf, 1.0, 2, 0.0), 0.1, 3.0)
    xs, ys = np.unique(dom.nodes[:, 0]), np.unique(dom.nodes[:, 1])
    ny = ys.size - 1
    elems, tags = [], []
    for i in range(xs.size - 1):
        for j in range(ny):
            n = i * (ny + 1) + j
            elems += [(n, n + ny + 1, n + ny + 2), (n, n + ny + 2, n + 1)]
    for x, y in dom.nodes:
        cand = [y == 0.0, x == 0.0, y == ys[-1], x == xs[-1]]
        tags.append(cand.index(True) if any(cand) else -1)
    assert dom.elements.dtype == np.array(elems).dtype
    assert np.array_equal(dom.elements, np.array(elems))
    assert dom.tags.tolist() == tags


def test_ideal_b_mesh_mirrors_ideal_a():
    """Swapping which side is infinite reflects the mesh across the bisector."""
    k = 3
    a_dom = triangulate(build_triangle(math.inf, 1.0, k, -0.96), 0.06, 2.0)
    b_dom = triangulate(build_triangle(1.0, math.inf, k, -0.96), 0.06, 2.0)
    assert a_dom.n_nodes == b_dom.n_nodes
    ang = math.pi / k
    z = a_dom.nodes[:, 0] + 1j * a_dom.nodes[:, 1]
    w = np.exp(1j * ang) * np.conj(z)
    mirrored = np.column_stack([w.real, w.imag])
    assert np.allclose(np.sort(mirrored, axis=0), np.sort(b_dom.nodes, axis=0),
                       atol=1e-12)
    # leg tags swap roles under the mirror
    assert (a_dom.nodes_with_tag("side_p0p1").size
            == b_dom.nodes_with_tag("side_p0p2").size)


def test_mirrored_mesh_swaps_the_leg_tags_node_by_node():
    # an ideal-b mesh is the ideal-a mesh reflected, node for node
    k = 3
    a_dom = triangulate(build_triangle(math.inf, 1.0, k, -0.96), 0.06, 2.0)
    b_dom = mesh._mirrored(build_triangle(1.0, math.inf, k, -0.96), 0.06, 2.0)
    w = np.exp(1j * math.pi / k) * np.conj(a_dom.nodes @ [1.0, 1j])
    assert np.allclose(b_dom.nodes, np.column_stack([w.real, w.imag]),
                       atol=1e-12)
    swap = {"side_p0p1": "side_p0p2", "side_p0p2": "side_p0p1"}
    names = TAGS + ("",)
    assert set(a_dom.tags) == {-1, 0, 1, 2, 3}
    assert [names[t] for t in b_dom.tags] == [
        swap.get(names[t], names[t]) for t in a_dom.tags]


def test_check_boundary_raises_on_a_cleared_boundary_tag():
    dom = triangulate(build_triangle(1.0, 1.5, 3, -0.75), 0.1)
    mesh._check_boundary(dom)
    ends = dom.boundary_edges().ravel()
    node = ends[ends.size // 2]
    dom.tags = dom.tags.copy()
    dom.tags[node] = -1
    x, y = dom.nodes[node]
    with pytest.raises(GeometryError,
                       match=rf"untagged boundary node at \({x:.6f}, {y:.6f}\)"):
        mesh._check_boundary(dom)


def test_a_node_in_no_element_is_refused(monkeypatch):
    """A repeated point lies in no Delaunay simplex: the mesh is refused,
    not handed out without it."""
    real, repeated = mesh._collect, []

    def repeat_one(chunks, wedge):
        nodes, tags = real(chunks, wedge)
        repeated.append(nodes[5])
        return np.vstack([nodes, nodes[5]]), np.append(tags, tags[5])

    monkeypatch.setattr(mesh, "_collect", repeat_one)
    with pytest.raises(GeometryError, match="lies in no element") as err:
        triangulate(build_triangle(1.0, 1.5, 3, -0.75), 0.1)
    x, y = repeated[0]
    assert f"node at ({x:.6f}, {y:.6f})" in str(err.value)


@pytest.mark.xfail(strict=True, raises=GeometryError, reason=(
    "_arc samples the far side at chart spacing h/4, which near the ideal "
    "circle leaves its samples up to 5.8 metric units apart (158 of them at "
    "R_trunc = 15): the leg node (3.325767, 0) lies 0.0016 from the true far "
    "side but 2.06 from the nearest sample, so _clear_of keeps it and every "
    "Delaunay triangle around it lies past the far side"))
@pytest.mark.parametrize("r_trunc", [13.0, 15.0, 16.0])
def test_an_ideal_triangle_meshes_at_large_truncation(r_trunc):
    # R_trunc = 12.75 still meshes; every R_trunc tried from 13 on is refused
    dom = triangulate(build_triangle(math.inf, 2.0, 2, -0.36), 0.1, r_trunc)
    assert dom.node_metric_radius.max() <= r_trunc + 1e-9


def test_bad_target_h_rejected():
    tri = build_triangle(1.0, 1.0, 2, -0.75)
    with pytest.raises(GeometryError):
        triangulate(tri, 0.0)
    with pytest.raises(GeometryError, match="target_h must be positive"):
        triangulate(tri, math.nan)


def _collect_loop(chunks, wedge):
    """Reference for mesh._collect: one point at a time through a dict, a
    point repeated to 1e-9 counted once, and the far-side and truncation
    chunks found again by key."""
    def key(p):
        return (round(float(p[0]) * 1e9), round(float(p[1]) * 1e9))
    far_keys = {key(p) for p in chunks[2]}
    trunc_keys = {key(p) for p in chunks[3]}
    nodes, index, tags = [], {}, {}
    for chunk in chunks:
        for p in np.reshape(chunk, (-1, 2)):
            idx = index.setdefault(key(p), len(nodes))
            if idx == len(nodes):
                nodes.append(p)
            r = math.hypot(p[0], p[1])
            cand = []
            if r < 1e-12 or abs(p[1]) < 1e-9 * max(r, 1.0):
                cand.append(0)
            if r < 1e-12 or abs(p[0] * math.sin(wedge)
                                - p[1] * math.cos(wedge)) < 1e-9 * max(r, 1.0):
                cand.append(1)
            if key(p) in far_keys:
                cand.append(2)
            if key(p) in trunc_keys:
                cand.append(3)
            if cand and (idx not in tags or min(cand) < TAGS.index(tags[idx])):
                tags[idx] = TAGS[min(cand)]
    return np.array(nodes), tags


def _spy_on_collect(monkeypatch):
    """The (chunks, wedge) and result of every mesh._collect call."""
    seen = []
    real = mesh._collect

    def spy(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]

    monkeypatch.setattr(mesh, "_collect", spy)
    return seen


def test_collect_matches_the_loop_reference(monkeypatch):
    seen = _spy_on_collect(monkeypatch)
    triangulate(build_triangle(1.0, 1.5, 3, -0.75), 0.05)
    triangulate(build_triangle(1.0, 1.0, 2, 0.0), 0.05)
    triangulate(build_triangle(math.inf, 2.0, 2, -0.36), 0.05, 4.0)
    triangulate(build_triangle(2.0, math.inf, 3, -0.64), 0.05, 4.0)
    assert len(seen) == 4
    for args, (nodes, tags) in seen:
        want_nodes, want_tags = _collect_loop(*args)
        assert nodes.dtype == want_nodes.dtype and tags.dtype == np.int64
        assert np.array_equal(nodes, want_nodes)
        assert {i: TAGS[t] for i, t in enumerate(tags) if t >= 0} == want_tags


def _corpus(n, seed=26):
    """n seeded triangles: ideal a, ideal b and finite in turn, kappa = 0
    for one in four, k from 2 to 6, R_trunc past the finite side."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        kind = i % 3
        kappa = 0.0 if i % 4 == 0 else -float(rng.uniform(0.05, 1.0))
        k = int(rng.integers(2, 7))
        h = float(rng.uniform(0.05, 0.2))
        b = float(rng.uniform(0.3, 2.5))
        if kind == 2:
            yield (float(rng.uniform(0.3, 2.5)), b, k, kappa), h, None
            continue
        if kappa == 0.0 and k == 2:
            k = 3  # the flat ideal k = 2 wedge is the structured strip
        sides = (math.inf, b) if kind == 0 else (b, math.inf)
        yield (*sides, k, kappa), h, b + float(rng.uniform(0.2, 1.5))


@pytest.mark.parametrize("args, h, r_trunc", list(_corpus(48)))
def test_collect_gets_no_repeated_point_and_tags_sides_by_chunk(
        monkeypatch, args, h, r_trunc):
    seen = _spy_on_collect(monkeypatch)
    triangulate(build_triangle(*args), h, r_trunc)
    (chunks, wedge), (nodes, tags) = seen[0]
    assert len(seen) == 1 and len(chunks) == 4
    r = np.hypot(*nodes.T)
    close = cKDTree(nodes).query_pairs(1e-9 * max(r.max(), 1.0))
    assert not close
    on_leg = (np.abs(nodes[:, 1]) < 1e-9 * np.maximum(r, 1.0)) | (
        np.abs(nodes[:, 0] * math.sin(wedge) - nodes[:, 1] * math.cos(wedge))
        < 1e-9 * np.maximum(r, 1.0))
    n_p0, n_rings, n_far, n_trunc = map(len, chunks)
    side = np.repeat([-1, -1, 2, 3], [n_p0, n_rings, n_far, n_trunc])
    assert n_p0 == 1 and n_far >= 2 and (n_trunc > 0) == (r_trunc is not None)
    assert np.array_equal(nodes, np.concatenate(chunks))
    assert np.all(np.where(on_leg, tags < 2, tags == side))


@pytest.mark.parametrize("args, h, r_trunc", [
    ((1.0, 1.0, 2, -0.36), 0.01, None),           # js-fine, H = 0.4
    ((math.inf, 2.0, 2, -0.36), 0.02, 4.0),       # noid, H = 0.4
    ((0.5, 2.0, 2, -0.36), 0.02, None),           # a sweep triangle
    ((1.0, math.inf, 2, -0.36), 0.05, 2.5),       # ideal b: the mirrored path
    ((1.0, 1.5, 3, 0.0), 0.03, None),             # kappa = 0, H = 1/2
    ((1.0, 1.0, 2, -1.0), 0.03, None),            # H = 0
])
def test_ring_filter_matches_the_dense_distance(monkeypatch, args, h, r_trunc):
    tri = build_triangle(*args)
    fast = triangulate(tri, h, r_trunc)
    dropped = []

    def dense(pts, fine, kappa, cut):
        ok = min_metric_distance(pts, fine, kappa) >= cut
        dropped.append(np.count_nonzero(~ok))
        return ok

    monkeypatch.setattr(mesh, "_clear_of", dense)
    ref = triangulate(tri, h, r_trunc)
    assert sum(dropped) > 0  # the filter has ring points to reject
    assert np.array_equal(fast.nodes, ref.nodes)
    assert fast.elements.dtype == ref.elements.dtype
    assert np.array_equal(fast.elements, ref.elements)
    assert np.array_equal(fast.tags, ref.tags)


def _triangle_set(simplices):
    return set(map(tuple, np.sort(simplices, axis=1).tolist()))


@pytest.mark.parametrize("args, h, r_trunc", [
    ((math.inf, 2.0, 2, -0.36), 0.1, 4.0),        # noid, H = 0.4
    ((1.0, 1.0, 2, -0.36), 0.05, None),           # js-fine, H = 0.4
])
def test_delaunay_triangles_are_the_elements_and_the_hull_fill(args, h, r_trunc):
    dom = triangulate(build_triangle(*args), h, r_trunc)
    assert 0 < dom.hull_fill.shape[0] < dom.elements.shape[0] // 10
    tris = dom.delaunay_triangles()
    assert tris.shape[0] == dom.elements.shape[0] + dom.hull_fill.shape[0]
    assert _triangle_set(tris) == _triangle_set(Delaunay(dom.nodes).simplices)


def test_a_mesh_not_cut_from_delaunay_hands_out_qhulls_triangles():
    strip = triangulate(build_triangle(math.inf, 1.0, 2, 0.0), 0.1, 3.0)
    mirrored = triangulate(build_triangle(1.0, math.inf, 2, -0.36), 0.1, 3.0)
    for dom in (strip, mirrored):
        assert dom.hull_fill is None
        assert np.array_equal(dom.delaunay_triangles(),
                              Delaunay(dom.nodes).simplices)
    # the strip's elements are not its Delaunay triangles
    assert _triangle_set(strip.elements) != _triangle_set(Delaunay(strip.nodes).simplices)


def _ring_point_sum(delta, wedge, r, h):
    """Reference: the ring sizes of triangulate's loop, summed ring by ring."""
    rho = h * np.arange(1, int(math.ceil(r / h - 0.4)))
    dphi = h * delta / np.sinh(delta * rho)
    return float(np.sum(np.ceil(wedge / dphi) + 1))


@pytest.mark.parametrize("r", [8.0, 12.0, 15.0])
def test_ring_point_estimate_tracks_the_rings(r):
    # H = 0.4, k = 2, h = 0.1: about 25 k, 283 k and 1.7 M ring points
    est = mesh._ring_points(0.6, math.pi / 2, r, 0.1)
    assert est == pytest.approx(_ring_point_sum(0.6, math.pi / 2, r, 0.1), rel=0.05)


@pytest.mark.parametrize("args, r_trunc, named", [
    ((math.inf, 2.0, 2, -0.36), 40.0, "R_trunc = 40"),  # 5.6e12 ring points
    ((2.0, math.inf, 2, -0.36), 40.0, "R_trunc = 40"),  # the mirrored path
    ((30.0, 30.0, 2, -0.36), None, "a = 30, b = 30"),
])
def test_runaway_meshes_are_refused_before_allocating(monkeypatch, args,
                                                      r_trunc, named):
    def refuse(*a, **k):
        raise AssertionError("meshing started before the point count check")

    monkeypatch.setattr(mesh, "_far_side", refuse)
    with pytest.raises(GeometryError, match=f"{named} at target_h = 0.1 needs "
                       "more than 10,000,000 mesh points"):
        triangulate(build_triangle(*args), 0.1, r_trunc)


def test_point_cap_bounds_rings_and_strip(monkeypatch):
    monkeypatch.setattr(mesh, "_MAX_POINTS", 10 ** 5)
    noid = build_triangle(math.inf, 2.0, 2, -0.36)
    assert triangulate(noid, 0.1, 8.0).n_nodes > 0       # about 25 k ring points
    with pytest.raises(GeometryError, match="R_trunc = 12 at target_h = 0.1"):
        triangulate(noid, 0.1, 12.0)                     # about 283 k
    monkeypatch.setattr(mesh, "_MAX_POINTS", 1000)
    strip = build_triangle(math.inf, 1.0, 2, 0.0)
    assert triangulate(strip, 0.1, 4.0).n_nodes == 41 * 11
    with pytest.raises(GeometryError, match="R_trunc = 4 at target_h = 0.05"):
        triangulate(strip, 0.05, 4.0)                    # 81 x 21 nodes


def _whole_wedge(wedge, m, psi, bound):
    """Reference: every ring over the whole wedge, as first built, for the
    inside test to filter."""
    return np.linspace(0.0, wedge, m + 1)


@pytest.mark.parametrize("args, h, r_trunc", [
    ((math.inf, 2.0, 2, -0.36), 0.02, 4.0),       # noid, H = 0.4
    ((math.inf, 2.0, 2, -0.36), 0.1, 8.0),
    ((1.0, 1.0, 2, -0.36), 0.05, None),           # a finite triangle
    ((1.0, 1.5, 3, 0.0), 0.03, None),             # kappa = 0: a straight far side
    ((math.inf, 1.0, 3, 0.0), 0.05, 3.0),         # kappa = 0, ideal: y < b_y
])
def test_rings_built_inside_the_far_side_match_the_whole_wedge(monkeypatch, args,
                                                               h, r_trunc):
    tri = build_triangle(*args)
    real = mesh._ring_angles
    built = []

    def recorded(*a):
        built.append(real(*a))
        return built[-1]

    monkeypatch.setattr(mesh, "_ring_angles", recorded)
    fast = triangulate(tri, h, r_trunc)
    # each angle once, in order: a ring that no cut reaches stays whole
    assert all(np.all(np.diff(phi) > 0) for phi in built)
    monkeypatch.setattr(mesh, "_ring_angles", _whole_wedge)
    ref = triangulate(tri, h, r_trunc)
    for name in ("nodes", "elements", "tags", "hull_fill"):
        got, want = getattr(fast, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_the_inside_test_gets_only_the_kept_ring_angles(monkeypatch):
    """At H = 0.4, b = 2, R_trunc = 12, h = 0.1 the whole-wedge rings hold
    283 k points for 473 nodes.  Each ring now hands the inside test its
    kept points and at most the round-off margin past each cut end."""
    real = mesh._far_side
    calls = []

    def counted(*args):
        fine, (inside, psi, bound) = real(*args)

        def test(pts):
            ok = inside(pts)
            calls.append((len(pts), int(np.count_nonzero(ok))))
            return ok
        return fine, (test, psi, bound)

    monkeypatch.setattr(mesh, "_far_side", counted)
    dom = triangulate(build_triangle(math.inf, 2.0, 2, -0.36), 0.1, 12.0)
    rings = calls[:-1]  # the last call tests the Delaunay centroids
    assert len(rings) == 119
    assert max(n - kept for n, kept in rings) <= 8
    assert sum(n for n, _ in rings) < 2 * dom.n_nodes


# the four kinds of far side: (triangle args, R_trunc)
_FAR_SIDES = {
    "flat finite": ((1.0, 1.5, 3, 0.0), None),          # a half-plane
    "hyperbolic finite": ((1.0, 1.5, 2, -0.36), None),  # a disk
    "flat ideal": ((math.inf, 1.0, 3, 0.0), 3.0),       # the half-plane y >= b_y
    "hyperbolic ideal": ((math.inf, 2.0, 2, -0.36), 4.0),
}


def _far_region(kind):
    args, r_trunc = _FAR_SIDES[kind]
    tri = build_triangle(*args)
    fine, region = mesh._far_side(tri, r_trunc, 0.05)
    return tri, region, 1.5 * float(np.hypot(*fine.T).max())


@pytest.mark.parametrize("kind", sorted(_FAR_SIDES))
def test_the_inside_test_and_the_ring_cut_describe_one_region(kind):
    tri, (inside, psi, bound), r_max = _far_region(kind)
    wedge = math.pi / tri.k
    rng = np.random.default_rng(27)
    r = rng.uniform(0.01, r_max, 4000)
    phi = rng.uniform(0.0, wedge, 4000)
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    gap = np.cos(phi - psi) - bound(r)
    clear = np.abs(gap) > 1e-9
    ok = inside(pts)
    assert np.array_equal(ok[clear], gap[clear] < 0)
    assert 500 < np.count_nonzero(ok) < 3500  # both sides are sampled


@pytest.mark.parametrize("kind", sorted(_FAR_SIDES))
def test_the_ring_cut_never_drops_a_point_inside(kind):
    tri, (inside, psi, bound), r_max = _far_region(kind)
    wedge = math.pi / tri.k
    rng = np.random.default_rng(270)
    dropped = 0
    for r, m in zip(rng.uniform(0.01, r_max, 200), rng.integers(1, 3000, 200)):
        full = np.linspace(0.0, wedge, m + 1)
        gone = full[~np.isin(full, mesh._ring_angles(wedge, m, psi, bound(r)))]
        pts = np.column_stack([r * np.cos(gone), r * np.sin(gone)])
        assert not inside(pts).any(), (r, m)
        dropped += gone.size
    assert dropped > 0
