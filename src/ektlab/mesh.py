"""Conforming triangulations of geodesic triangles in the disk chart.

Finite triangles T_{a,b} are meshed star-shaped from p0: concentric metric
circles at radius i*h carry nodes at angular spacing matched to the circle
circumference, the curved far side contributes its own arclength-uniform
boundary nodes, and a Delaunay pass filtered by centroid tests produces the
elements.  The region past the far side is one half-plane (a straight
side) or disk (a geodesic circle).  It gives the inside test, and each
ring its arc of angles in the region: a ring is laid out only over the
angles not, by a round-off margin, in that arc, so the points built follow
the kept mesh, not the whole wedge, and the inside test still decides
every point built.  Ring nodes within metric distance 0.4*h of the far
side are dropped (_clear_of).  No point is built twice: the rings lie at
distinct radii and clear of the far side, the truncation arc stops short
of its crossing, and a far side collapsed onto p2 is refused.  So the
nodes are the point sets stacked as built (_collect).  A repeated point
would lie in no Delaunay simplex, and a mesh with a node in no element is
refused, so every node is used and the hull-fill simplices that the filter
drops are kept: the mesh hands out the Delaunay triangles of its nodes
without a second qhull run.  A mesh that would need more than _MAX_POINTS
points is refused before any is allocated.
Ideal vertices (a or b infinite) are cut off by a truncation boundary at
metric distance R_trunc from p0, which must exceed the finite side.  The
flat half-strip (kappa = 0, k = 2, a infinite) gets a structured rectangle
mesh instead, which keeps the refinement study clean.

Boundary tags: side_p0p1 (the phi = 0 ray), side_p0p2 (the phi = pi/k ray),
side_p1p2 (the far side), truncation.  TriangulatedDomain.tags holds one
entry per node, the index into TAGS, or -1 for an interior node.  A node on
two sides takes the one that comes first in TAGS, so a corner takes the
side through p0 when there is a choice and Dirichlet data stays single
valued at corners.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .spaces import (GeometryError, GeodesicTriangle, build_triangle,
                     chart_radius, conformal_factor_xy, metric_distance,
                     metric_radius)

__all__ = ["TriangulatedDomain", "triangulate", "TAGS"]

TAGS = ("side_p0p1", "side_p0p2", "side_p1p2", "truncation")

# cap on the points a mesh may allocate, like cli._MAX_SAMPLES: with an
# ideal vertex the rings grow as exp(delta * R_trunc)
_MAX_POINTS = 10 ** 7


@dataclass
class TriangulatedDomain:
    triangle: GeodesicTriangle
    nodes: np.ndarray
    elements: np.ndarray
    tags: np.ndarray  # per node: index into TAGS, -1 for an interior node
    target_h: float
    r_trunc: Optional[float] = None
    node_metric_radius: np.ndarray = field(default=None, repr=False)
    # Delaunay simplices of the nodes that are not elements, or None
    hull_fill: Optional[np.ndarray] = field(default=None, repr=False)
    _cache: Dict[str, np.ndarray] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.node_metric_radius is None:
            self.node_metric_radius = metric_radius(
                np.hypot(self.nodes[:, 0], self.nodes[:, 1]), self.triangle.kappa)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def nodes_with_tag(self, tag: str) -> np.ndarray:
        return np.flatnonzero(self.tags == TAGS.index(tag))

    def cached(self, key: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
        """compute() once per key for this mesh, handed out read-only."""
        if key not in self._cache:
            value = compute()
            value.setflags(write=False)
            self._cache[key] = value
        return self._cache[key]

    def delaunay_triangles(self) -> np.ndarray:
        """The Delaunay triangles of the nodes: the elements plus the hull
        fill when the mesh was cut from a Delaunay triangulation of these
        nodes, else qhull's simplices (the structured strip, a mirrored
        mesh).  Not cached: the array would outlive its one use."""
        if self.hull_fill is None:
            return Delaunay(self.nodes).simplices
        return np.concatenate([self.elements, self.hull_fill])

    def boundary_edges(self) -> np.ndarray:
        """Edges belonging to exactly one element, as sorted (i, j) rows in
        lexicographic order."""
        return self.cached("boundary_edges", self._find_boundary_edges)

    def _find_boundary_edges(self) -> np.ndarray:
        e = self.elements
        pairs = np.vstack([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])
        pairs = np.sort(pairs, axis=1).astype(np.int64)
        # the key i*n + j orders like the row (i, j) because j < n
        n = np.int64(self.n_nodes)
        keys, counts = np.unique(pairs[:, 0] * n + pairs[:, 1],
                                 return_counts=True)
        keys = keys[counts == 1]
        return np.column_stack([keys // n, keys % n])


def _metric_resample(fine: np.ndarray, kappa: float, spacing: float):
    """Resample a finely sampled chart polyline uniformly in metric length."""
    seg = np.hypot(*np.diff(fine, axis=0).T)
    mid = (fine[1:] + fine[:-1]) / 2.0
    lam = conformal_factor_xy(mid[:, 0], mid[:, 1], kappa)
    cum = np.concatenate([[0.0], np.cumsum(lam * seg)])
    n = max(1, int(round(cum[-1] / spacing)))
    targets = np.linspace(0.0, cum[-1], n + 1)
    out = np.column_stack([np.interp(targets, cum, fine[:, 0]),
                           np.interp(targets, cum, fine[:, 1])])
    out[0], out[-1] = fine[0], fine[-1]
    return out


def _geodesic_circle(p1: np.ndarray, p2: np.ndarray, disk_r: float):
    """Center and radius of the circle orthogonal to the chart boundary."""
    mat = 2.0 * np.vstack([p1, p2])
    rhs = np.array([p1 @ p1 + disk_r ** 2, p2 @ p2 + disk_r ** 2])
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if abs(det) < 1e-14:
        return None  # diameter through the origin
    c = np.linalg.solve(mat, rhs)
    rg = math.sqrt(max(c @ c - disk_r ** 2, 0.0))
    return c, rg


def _half_plane(n, d):
    """The half-plane x . n >= d past a straight far side (n the outward
    unit normal, d > 0 its distance from p0) as (inside, psi, bound)."""
    return (lambda pts: pts @ n < d, math.atan2(n[1], n[0]),
            lambda r: d / r)


def _disk(c, rg):
    """The disk |x - c| <= rg past a circular far side (0 outside it) as
    (inside, psi, bound)."""
    dc = float(np.hypot(*c))
    return (lambda pts: np.hypot(*(pts - c).T) > rg, math.atan2(c[1], c[0]),
            lambda r: (r * r + dc * dc - rg * rg) / (2.0 * r * dc))


def _arc(c, rg, start, end, h):
    """Fine samples of the short arc of |x - c| = rg from start to end, and
    the disk it bounds as _far_side's region."""
    th0, th1 = (math.atan2(*(p - c)[::-1]) for p in (start, end))
    # walk the short way (the arc inside the chart disk)
    dth = (th1 - th0 + math.pi) % (2.0 * math.pi) - math.pi
    n = max(16, int(math.ceil(abs(dth) * rg / (h / 4.0))))
    th = np.linspace(th0, th0 + dth, n)
    fine = np.column_stack([c[0] + rg * np.cos(th), c[1] + rg * np.sin(th)])
    return fine, _disk(c, rg)


def _far_side(triangle: GeodesicTriangle, r_trunc: Optional[float], h: float):
    """The fine far-side polyline (from the a-end toward p2) and the region
    past the far side, a half-plane or a disk, as (inside, psi, bound):
    inside(pts) is false for the points in the region, and the points
    r (cos phi, sin phi) with cos(phi - psi) > bound(r) lie in it."""
    kappa, k = triangle.kappa, triangle.k
    p2 = np.array(triangle.p2)
    if not triangle.a_infinite:
        p1 = np.array(triangle.p1)
        if kappa == 0.0:
            n = max(8, int(math.ceil(np.hypot(*(p2 - p1)) / (h / 4.0))))
            fine = p1 + np.linspace(0.0, 1.0, n)[:, None] * (p2 - p1)
            t = p2 - p1
            normal = np.array([t[1], -t[0]]) / np.hypot(*t)
            normal *= math.copysign(1.0, normal @ p1)  # outward: p0 inside
            return fine, _half_plane(normal, float(normal @ p1))
        cr = _geodesic_circle(p1, p2, 2.0 / math.sqrt(-kappa))
        if cr is None:
            raise GeometryError("degenerate far side through the origin")
        return _arc(*cr, p1, p2, h)
    # ideal a-vertex, r_trunc > 0
    if kappa == 0.0:
        b_y = p2[1]
        x_hi = math.sqrt(max(r_trunc ** 2 - b_y ** 2, 0.0))
        if x_hi <= p2[0]:
            raise GeometryError("R_trunc does not reach past p2")
        n = max(8, int(math.ceil((x_hi - p2[0]) / (h / 4.0))))
        fine = np.column_stack([np.linspace(x_hi, p2[0], n), np.full(n, b_y)])
        return fine, _half_plane(np.array([0.0, 1.0]), b_y)
    disk_r = 2.0 / math.sqrt(-kappa)
    cy = (p2 @ p2 - 2.0 * disk_r * p2[0] + disk_r ** 2) / (2.0 * p2[1])
    c = np.array([disk_r, cy])
    rg = math.sqrt(c @ c - disk_r ** 2)
    # trim the arc at the truncation circle |z| = r_t
    r_t = chart_radius(r_trunc, kappa)
    m = (r_t ** 2 + disk_r ** 2) / 2.0
    cosv = m / (r_t * float(np.hypot(*c)))
    if abs(cosv) > 1.0:
        raise GeometryError("R_trunc does not reach the far side")
    v = math.acos(cosv)
    argc = math.atan2(c[1], c[0])
    cands = []
    for sgn in (1.0, -1.0):
        phi = argc + sgn * v
        z = r_t * np.array([math.cos(phi), math.sin(phi)])
        if -1e-9 <= math.atan2(z[1], z[0]) <= math.pi / k + 1e-9:
            cands.append(z)
    if not cands:
        raise GeometryError("truncation circle misses the far side inside the wedge")
    z_cross = min(cands, key=lambda z: abs(math.atan2(z[1], z[0])))
    return _arc(c, rg, z_cross, p2, h)


def _ring_angles(wedge, m, psi, bound):
    """np.linspace(0, wedge, m + 1), bit for bit, less the angles that lie
    by a margin inside the arc cos(phi - psi) > bound past the far side.

    The arc is cut by two steps and 1e-6 rad at each end, so round-off in
    the bound cannot drop a point the inside test would keep: that test
    still decides every angle built here.  Only the kept index ranges are
    formed, so the cost follows the mesh, not the wedge.
    """
    step = wedge / m
    half = math.acos(min(max(bound, -1.0), 1.0)) - 2.0 * step - 1e-6
    kept = [(0, m + 1)]
    # psi lies in (-pi, pi] and the wedge in [0, pi], so the arc meets it
    # as it is or turned once; an arc of half <= 0 drops nothing
    for centre in (psi, psi + 2.0 * math.pi):
        lo = math.floor((centre - half) / step) + 1     # drop [lo, hi)
        hi = max(lo, math.ceil((centre + half) / step))
        kept = [(a, b) for a0, b0 in kept
                for a, b in ((a0, min(b0, lo)), (max(a0, hi), b0)) if a < b]
    # j * step is what linspace computes, and it sets the last angle to wedge
    phi = np.concatenate([np.arange(a, b) * step for a, b in kept] or [[]])
    if kept and kept[-1][1] == m + 1:
        phi[-1] = wedge
    return phi


def triangulate(triangle: GeodesicTriangle, target_h: float,
                R_trunc: Optional[float] = None) -> TriangulatedDomain:
    """Mesh the (possibly truncated) triangle at metric edge length ~target_h."""
    if not target_h > 0:  # also rejects nan
        raise GeometryError("target_h must be positive")
    if not triangle.a_infinite and not triangle.b_infinite and triangle.ell <= 0:
        raise GeometryError("degenerate triangle with zero far side")
    if triangle.b_infinite:
        return _mirrored(triangle, target_h, R_trunc)
    kappa, k, h = triangle.kappa, triangle.k, target_h
    if kappa == 0.0 and triangle.a_infinite and k == 2:
        return _strip(triangle, h, R_trunc)
    delta = math.sqrt(-kappa) if kappa < 0 else 0.0
    if triangle.a_infinite:
        if R_trunc is None or R_trunc <= 0:
            raise GeometryError("an ideal side needs a positive R_trunc")
        if R_trunc <= triangle.b:  # the truncation would cut p2 off
            raise GeometryError(f"R_trunc = {R_trunc:g} does not reach past the "
                                f"finite side, which is {triangle.b:g} long")
        r_rings, what = R_trunc, f"R_trunc = {R_trunc:g}"
    else:
        # distance from p0 is convex along the far side (kappa <= 0), so
        # the rings reach its farther end
        r_rings = max(triangle.a, triangle.b)
        what = f"a = {triangle.a:g}, b = {triangle.b:g}"
    _check_points(_ring_points(delta, math.pi / k, r_rings, h), what, h)
    fine, (inside_test, psi, bound) = _far_side(triangle, R_trunc, h)
    far_nodes = _metric_resample(fine, kappa, h)
    r_dom = R_trunc if triangle.a_infinite else float(
        np.max(metric_radius(np.hypot(*fine.T), kappa)))

    rings = [np.zeros((0, 2))]
    wedge = math.pi / k
    i = 1
    while i * h < r_dom - 0.4 * h:
        rho = i * h
        r_chart = chart_radius(rho, kappa)
        dphi = h * delta / math.sinh(delta * rho) if delta > 0 else h / rho
        m = max(1, int(math.ceil(wedge / dphi)))
        phi = _ring_angles(wedge, m, psi, bound(r_chart))
        ring = np.column_stack([r_chart * np.cos(phi), r_chart * np.sin(phi)])
        rings.append(ring[inside_test(ring)])
        i += 1
    rings = np.concatenate(rings)
    trunc_nodes = np.zeros((0, 2))
    if triangle.a_infinite:
        r_t = chart_radius(R_trunc, kappa)
        phi_cross = math.atan2(far_nodes[0, 1], far_nodes[0, 0])
        arc_metric = phi_cross * (math.sinh(delta * R_trunc) / delta if delta > 0 else R_trunc)
        n_t = max(1, int(math.ceil(arc_metric / h)))
        phi = np.linspace(0.0, phi_cross, n_t + 1)[:-1]  # crossing node comes from the far side
        trunc_nodes = np.column_stack([r_t * np.cos(phi), r_t * np.sin(phi)])
    nodes, tags = _collect([np.zeros((1, 2)),
                            rings[_clear_of(rings, fine, kappa, 0.4 * h)],
                            far_nodes, trunc_nodes], wedge)
    tri = Delaunay(nodes)
    cent = nodes[tri.simplices].mean(axis=1)
    keep = (cent[:, 1] > -1e-12)
    keep &= (cent[:, 0] * math.sin(wedge) - cent[:, 1] * math.cos(wedge) > -1e-12)
    keep &= inside_test(cent)
    if triangle.a_infinite:
        keep &= np.hypot(cent[:, 0], cent[:, 1]) <= chart_radius(R_trunc, kappa) + 1e-12
    elements = _orient_ccw(nodes, tri.simplices[keep].astype(np.int64))
    dom = TriangulatedDomain(triangle=triangle, nodes=nodes, elements=elements,
                             tags=tags, target_h=h, r_trunc=R_trunc,
                             hull_fill=tri.simplices[~keep])
    _check_boundary(dom)
    return dom


def _ring_points(delta, wedge, r, h):
    """About how many points the rings out to metric radius r hold at
    spacing h: wedge (cosh(delta r) - 1) / (delta h)^2, or wedge r^2 / (2 h^2)
    when delta = 0."""
    if delta == 0:
        return wedge * r * r / 2.0 / h / h
    # cosh overflows past 710, and 700 is far above any cap
    dh = delta * h
    return wedge * (math.cosh(min(delta * r, 700.0)) - 1.0) / dh / dh


def _check_points(count, what, h):
    """GeometryError, before anything is allocated, when a mesh would need
    more than _MAX_POINTS points."""
    if count > _MAX_POINTS:
        raise GeometryError(f"{what} at target_h = {h:g} needs more than "
                            f"{_MAX_POINTS:,} mesh points: raise target_h")


def _clear_of(pts, fine, kappa, cut):
    """The mask min_metric_distance(pts, fine, kappa) >= cut, from near pairs.

    For kappa <= 0 the conformal factor is >= 1, so metric distance is at
    least chart distance: only the pairs inside a chart ball of radius cut
    (padded against round-off) can fall below cut.
    """
    near = cKDTree(pts).sparse_distance_matrix(
        cKDTree(fine), cut * (1.0 + 1e-9), output_type="ndarray")
    i, j = near["i"], near["j"]
    ok = np.ones(len(pts), dtype=bool)
    ok[i[metric_distance(pts[i], fine[j], kappa) < cut]] = False
    return ok


def _first_tag(cand: np.ndarray) -> np.ndarray:
    """Per row of an (n, len(TAGS)) candidate mask, the index of its first
    true column (TAGS order is the priority), or -1 when it has none."""
    return np.where(cand.any(axis=1), cand.argmax(axis=1), -1)


def _collect(chunks, wedge):
    """The chunks (p0, rings, far-side nodes, truncation nodes) stacked as
    built, and each node's tag by TAGS priority: a leg by distance from its
    ray, the other two sides by chunk.  No point repeats: the rings lie at
    distinct radii, _clear_of clears them off the far side, the truncation
    arc leaves its crossing to the far side, and a far side collapsed onto
    p2 is refused.  A repeat would lie in no Delaunay simplex, so
    _check_boundary would refuse the mesh."""
    nodes = np.concatenate(chunks)
    x, y = nodes[:, 0], nodes[:, 1]
    r = np.hypot(x, y)
    at_p0 = r < 1e-12
    scale = 1e-9 * np.maximum(r, 1.0)
    side = np.repeat([-1, -1, 2, 3], [len(c) for c in chunks])
    # one column per tag, in priority order
    cand = np.column_stack([
        at_p0 | (np.abs(y) < scale),
        at_p0 | (np.abs(x * math.sin(wedge) - y * math.cos(wedge)) < scale),
        side == 2, side == 3])
    return nodes, _first_tag(cand)


def _orient_ccw(nodes, elements):
    p = nodes[elements]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    flip = area2 < 0
    elements = elements.copy()
    elements[flip] = elements[flip][:, ::-1]
    return elements[np.abs(area2) > 1e-14]


def _check_boundary(dom: TriangulatedDomain):
    """GeometryError for a node in no element or an untagged boundary node."""
    used = np.zeros(dom.n_nodes, dtype=bool)
    used[dom.elements] = True
    if not used.all():
        p = dom.nodes[np.argmin(used)]
        raise GeometryError(f"node at ({p[0]:.6f}, {p[1]:.6f}) lies in no element")
    ends = dom.boundary_edges().ravel()
    untagged = ends[dom.tags[ends] < 0]
    if untagged.size:
        p = dom.nodes[untagged[0]]
        raise GeometryError(
            f"untagged boundary node at ({p[0]:.6f}, {p[1]:.6f}); "
            "triangulation margins need adjusting")


def _strip(triangle: GeodesicTriangle, h: float,
           R_trunc: Optional[float]) -> TriangulatedDomain:
    """Structured rectangle mesh for the flat half-strip (k=2, a infinite)."""
    if R_trunc is None or R_trunc <= 0:
        raise GeometryError("the strip needs a positive R_trunc")
    b = triangle.b
    _check_points((R_trunc / h + 1.0) * (b / h + 1.0), f"R_trunc = {R_trunc:g}",
                  h)
    nx = max(2, int(round(R_trunc / h)))
    ny = max(2, int(round(b / h)))
    xs = np.linspace(0.0, R_trunc, nx + 1)
    ys = np.linspace(0.0, b, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    # cell (i, j) splits into (i,j)-(i+1,j)-(i+1,j+1) and (i,j)-(i+1,j+1)-(i,j+1)
    ids = np.arange(nodes.shape[0]).reshape(nx + 1, ny + 1)
    c00, c10, c11, c01 = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    elements = np.stack([c00, c10, c11, c00, c11, c01], axis=-1).reshape(-1, 3)
    x, y = nodes.T
    tags = _first_tag(np.column_stack(
        [y == 0.0, x == 0.0, y == ys[-1], x == xs[-1]]))
    return TriangulatedDomain(triangle=triangle, nodes=nodes, elements=elements,
                              tags=tags, target_h=h, r_trunc=R_trunc)


def _mirrored(triangle: GeodesicTriangle, target_h: float,
              R_trunc: Optional[float]) -> TriangulatedDomain:
    """Mesh an ideal-b triangle by reflecting the mirrored ideal-a mesh."""
    swapped = build_triangle(triangle.b, triangle.a, triangle.k, triangle.kappa)
    dom = triangulate(swapped, target_h, R_trunc)
    z = dom.nodes[:, 0] + 1j * dom.nodes[:, 1]
    w = np.exp(1j * (math.pi / triangle.k)) * np.conj(z)
    nodes = np.column_stack([w.real, w.imag])
    # the mirror swaps the legs side_p0p1 (0) and side_p0p2 (1)
    tags = np.where(np.isin(dom.tags, (0, 1)), 1 - dom.tags, dom.tags)
    elements = _orient_ccw(nodes, dom.elements)
    return TriangulatedDomain(triangle=triangle, nodes=nodes, elements=elements,
                              tags=tags, target_h=target_h, r_trunc=R_trunc)
