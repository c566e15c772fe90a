"""Self-intersection detection and coverage multiplicity for disk curves.

fiber_domain takes the rotation speed theta'(s) of a vertical fiber to the
verdict on its conjugate curve: it marches kg = 2H - theta'(s) from the
waist, tiles the curve by the dihedral group of order 2k (assemble_domain)
and judges the tiled boundary (self_intersections).  Of the march and the
tiled chains it keeps only the total turning and the points a figure
draws; the sweep frees each full chain once it has thinned it.

Crossings are found by a vectorized sweep over candidate segment pairs.
The thinned points of all pieces are one array, and segment m runs from
its point m to point m + 1, so the segments are views of it; the junction
segment from one piece's last point to the next piece's first is marked
with piece_id -1 and never swept.  The candidates come from a top-down
refinement of blocks of consecutive segments: block pairs whose bounding
boxes are apart drop out, and so do runs of segments too straight for any
two of them to meet.  Only blocks of 8 segments and up are stored; the
segments and the blocks of 2 and 4 are read from the points for the
surviving pairs only, in slices, and no array of segment differences is
held.  The sweep's arrays are freed before the raster is made, and the
pieces it rasters are views of the same points.
The raster's covered cells get their metric in one buffer.  Covered-twice
regions are measured by winding-number rasterization: open chains are closed
through arcs just inside the ideal circle (pieces and arcs are not stacked
into one array), the segments that cross a scanline add signed crossings
to an int32 raster, and pixels with |winding| >= 2 are summed with the
hyperbolic density (2/(1-r^2))^2.  That
one raster per boundary also gives the SVG fill: a figure cell is a 4 x 4
block of raster pixels of which at least 8 have |winding| >= 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .curves import (DEFAULT_S_CAP, DEFAULT_STEP, assemble_domain,
                     integrate_prescribed_curvature)
from .spaces import GeometryError

__all__ = [
    "EmbeddednessReport",
    "self_intersections",
    "multiplicity_two_area",
    "report_json_dict",
    "write_domain_svg",
    "write_domain_panels_svg",
    "fiber_domain",
    "critical_catenoid_domain",
]

_EPS_GEOM = 1e-9
_MIN_SEG = 1e-5      # chart length below which samples are thinned
_PAIR_CHUNK = 1 << 18
_SEARCH_CHUNK = 1 << 15   # segments or block pairs per slice of the pair search
_GRID = 1024         # cells per side of the covered-twice raster
_PANEL_PX = 720      # SVG panel side


@dataclass(frozen=True)
class EmbeddednessReport:
    """Crossing list, doubly covered hyperbolic area, and the verdict.

    fill_cells holds the (row, column) of each covered-twice cell of the
    figure, an (n, 2) int array on a _GRID // 4 raster, rows in y.
    """

    self_intersections: List[Tuple[float, float, Tuple[float, float]]]
    multiplicity_2_area: float
    embedded: bool
    uncertain: List[Tuple[float, float]]
    fill_cells: np.ndarray

    @property
    def crossings(self) -> int:
        return len(self.self_intersections)


def _thin(ell: np.ndarray) -> np.ndarray:
    """Indices of the samples kept from a polyline with cumulative chart
    length ell: the first in each _MIN_SEG of length, and the last.

    Curves integrated in the hyperbolic metric cluster exponentially near
    the ideal circle; without thinning, one midpoint neighborhood can hold
    thousands of segments and the pair sweep degenerates.  Chords of length
    _MIN_SEG are far below any feature scale of the symmetry curves, so
    crossings and their parameters survive the thinning.
    """
    cell = np.floor(ell / _MIN_SEG)
    # ell is non-decreasing, so each cell's first sample starts a run
    keep = np.flatnonzero(np.concatenate([[True], cell[1:] != cell[:-1]]))
    if keep[-1] != ell.size - 1:
        keep = np.append(keep, ell.size - 1)
    return keep


def _parametrize(pieces: Iterable[np.ndarray]):
    """The thinned points of all pieces as one (n, 2) array P, their
    per-sample parameters as one array S, and the thinned pieces as views
    P[a:b].  A parameter is the cumulative Euclidean chart length, with
    consecutive pieces offset so parameters stay distinct."""
    points, params = [], []
    offset = 0.0
    for n, p in enumerate(pieces):
        p = np.asarray(p, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 2:
            raise GeometryError("each piece needs at least two planar points")
        if not np.isfinite(p).all():
            bad = np.flatnonzero(~np.isfinite(p).all(axis=1))
            raise GeometryError(f"piece {n} has a non-finite point at "
                                f"sample {bad[0]}")
        # the chord lengths and their running sum in the one array ell
        ell = np.empty(p.shape[0])
        ell[0] = 0.0
        np.subtract(p[1:, 0], p[:-1, 0], out=ell[1:])
        np.hypot(ell[1:], np.diff(p[:, 1]), out=ell[1:])
        np.cumsum(ell[1:], out=ell[1:])
        keep = _thin(ell)
        params.append(ell[keep] + offset)
        offset += ell[-1] + 1.0
        del ell
        points.append(p[keep])
        del p  # the caller's chain dies here, once it is thinned
    sizes = [q.shape[0] for q in points]
    P = np.concatenate(points)
    del points
    return P, np.concatenate(params), np.split(P, np.cumsum(sizes)[:-1])


def _pair(f, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """f(x[2m], y[2m + 1]) for each row pair m; an odd last row pairs with itself."""
    h = x.shape[0] // 2
    out = np.empty((x.shape[0] - h,) + x.shape[1:])
    f(x[0:2 * h:2], y[1::2], out=out[:h])
    f(x[2 * h:], y[2 * h:], out=out[h:])
    return out


def _turning(P: np.ndarray, piece_id: np.ndarray) -> np.ndarray:
    """The turning at the vertex after each segment of the points P: the
    absolute wrapped change of direction, and pi next to a junction
    segment and after the last segment.  The directions are read
    _SEARCH_CHUNK segments at a time, so no array of differences is held."""
    A, B = P[:-1], P[1:]
    turn = np.empty(A.shape[0])
    for start in range(0, turn.size, _SEARCH_CHUNK):
        d = B[start:start + _SEARCH_CHUNK] - A[start:start + _SEARCH_CHUNK]
        np.arctan2(d[:, 1], d[:, 0], out=turn[start:start + _SEARCH_CHUNK])
    t = turn[:-1]
    np.subtract(turn[1:], t, out=t)
    t += np.pi
    t %= 2.0 * np.pi
    t -= np.pi
    np.abs(turn, out=turn)
    t[piece_id[1:] != piece_id[:-1]] = np.pi
    turn[-1] = np.pi
    return turn


def _segments(P: np.ndarray, lens: np.ndarray, turn: np.ndarray, seg):
    """Level 0 of the pair search for the segments seg, an index array or
    a slice: their boxes lo and hi, lengths, zero turning inside and the
    turning after each."""
    a, b = P[:-1][seg], P[1:][seg]
    U = turn[seg]
    return np.minimum(a, b), np.maximum(a, b), lens[seg], np.zeros_like(U), U


def _up(level):
    """The next level of the pair search: block m joins blocks 2m and
    2m + 1, or 2m twice if it is the last of an odd count, with
    W = U[2m] + W[2m + 1] and U = U[2m] + U[2m + 1]."""
    lo, hi, mn, W, U = level
    return (_pair(np.minimum, lo, lo), _pair(np.maximum, hi, hi),
            _pair(np.minimum, mn, mn), _pair(np.add, U, W), _pair(np.add, U, U))


def _blocks(P: np.ndarray, lens: np.ndarray, turn: np.ndarray, level: int,
            idx: np.ndarray):
    """The blocks idx of the given level, built by _up from their
    segments, gathered in the order the whole level pairs them, so the
    sums are the same floats.  The second child of the last block of an
    odd count is clamped to the first, which _pair pairs with itself."""
    n = lens.size
    seg = idx
    for L in range(level, 0, -1):
        last = -(-n >> (L - 1)) - 1   # the last block of level L - 1
        seg = np.stack([2 * seg, np.minimum(2 * seg + 1, last)], axis=-1)
    blocks = _segments(P, lens, turn, seg.ravel())
    for _ in range(level):
        blocks = _up(blocks)
    return blocks


def _candidate_pairs(P: np.ndarray, lens: np.ndarray, piece_id: np.ndarray,
                     slack: float) -> Tuple[np.ndarray, np.ndarray]:
    """Segment pairs (i, j), i < j, each once and in no set order, that
    can cross or come within slack of each other.  Segment m runs from
    P[m] to P[m + 1], lens[m] is its length and piece_id[m] its piece, or
    -1 for the junction segment from one piece's last point to the next
    piece's first.  Chain neighbours (j = i + 1) and every pair holding a
    junction segment are left out, so two real segments of different
    pieces are never neighbours.

    Level 0 holds the segments in index order; each block of level L + 1
    joins two of level L, and an odd count repeats its last block, which
    can only overstate that block's turning.  A block carries its bounding
    box, its shortest segment, the turning W at the vertices inside it and
    the turning U at the vertices after each of its segments.  A vertex
    turns by the wrapped change of direction, and by pi on both sides of
    a junction segment, so a run across pieces never clears.  From the top
    block paired with itself, each level drops the block pairs I <= J whose
    boxes are more than slack apart per coordinate, and the pairs with
    J - I <= 1 whose run of segments is cleared: it turns by theta < pi in
    total and cos(theta/2) * (its shortest segment) > slack.  The rest
    split into their 3 (I = J) or 4 child pairs.  At level 0 the box test
    alone decides, and it drops the neighbours and the junction pairs.

    A cleared run is exact to drop: its directions lie within theta/2 of one
    unit vector u, so any points of its segments i and j >= i + 2 are at
    least cos(theta/2) * sum_{i<m<j} len_m > slack apart along u.

    Only levels 3 and up are stored, level 3 built from the segments
    _SEARCH_CHUNK of them at a time, and each is dropped once its pairs
    are split.  Levels 0, 1 and 2 are built by _blocks from P, lens and
    the turning, only for the pairs that reach them, in slices that read
    _SEARCH_CHUNK segments a side; stored, levels 1 and 2 would be three
    quarters of the pyramid.
    """
    n = lens.size
    turn = _turning(P, piece_id)
    top = (n - 1).bit_length()   # the level with a single block
    stored = {}
    if top >= 3:
        count = -(-n >> 3)
        level = (np.empty((count, 2)), np.empty((count, 2)), np.empty(count),
                 np.empty(count), np.empty(count))
        # a slice starts at a multiple of 8 segments, so its blocks pair as
        # the whole level's do
        for start in range(0, n, _SEARCH_CHUNK):
            part = _segments(P, lens, turn, slice(start, start + _SEARCH_CHUNK))
            for _ in range(3):
                part = _up(part)
            for into, block in zip(level, part):
                into[start >> 3:(start >> 3) + block.shape[0]] = block
        stored[3] = level
        for L in range(4, top + 1):
            stored[L] = _up(stored[L - 1])

    def blocks(L, idx):
        if L in stored:
            return [a[idx] for a in stored[L]]
        return _blocks(P, lens, turn, L, idx)

    I = J = np.zeros(1, dtype=np.int64)
    for L in range(top, -1, -1):
        keep = np.empty(I.size, dtype=bool)
        # a slice of pairs reads at most _SEARCH_CHUNK segments a side
        step = _SEARCH_CHUNK if L in stored else _SEARCH_CHUNK >> L
        for start in range(0, I.size, step):
            i, j = I[start:start + step], J[start:start + step]
            lo_i, hi_i, mn_i, W_i, U_i = blocks(L, i)
            lo_j, hi_j, mn_j, W_j, _ = blocks(L, j)
            near = np.all((lo_i <= hi_j + slack) & (lo_j <= hi_i + slack), axis=1)
            if L == 0:
                near &= (i < j - 1) & (piece_id[i] >= 0) & (piece_id[j] >= 0)
            else:
                theta = np.where(i == j, W_i, U_i + W_j)
                near &= ~((j - i <= 1) & (theta < np.pi)
                          & (np.cos(theta / 2.0) * np.minimum(mn_i, mn_j) > slack))
            keep[start:start + step] = near
        I, J = I[keep], J[keep]
        if L == 0:
            return I, J
        stored.pop(L, None)   # no pair reads this level again
        same = I == J
        # (2I, 2I), (2I, 2I + 1), (2I + 1, 2I + 1) for I = J; all four else
        I = np.concatenate([(2 * I[same, None] + [0, 0, 1]).ravel(),
                            (2 * I[~same, None] + [0, 0, 1, 1]).ravel()])
        J = np.concatenate([(2 * J[same, None] + [0, 1, 1]).ravel(),
                            (2 * J[~same, None] + [0, 1, 0, 1]).ravel()])
        inside = J < -(-n >> (L - 1))
        I, J = I[inside], J[inside]


def self_intersections(pieces: Iterable[np.ndarray]) -> EmbeddednessReport:
    """Report transverse crossings and the doubly covered hyperbolic area
    of polyline pieces, each an (n, 2) array of chart points.  The pieces
    are read once, in order, and none is held past its thinning.

    Samples closer than _MIN_SEG in chart length are thinned first.  A
    crossing carries the parameters of its two points: the cumulative chart
    length along the pieces, each piece starting 1 past the end of the one
    before.  Near-tangential configurations (parameter or perpendicular
    clearance within _EPS_GEOM) are listed as uncertain instead of decided.
    The area and the figure's fill cells come from one multiplicity_two_area
    raster of the thinned pieces, which runs after the sweep's arrays and
    the parameters are freed.  The uncertain pairs are kept as one array
    until they are distinct and sorted, and become tuples once.
    """
    P, S, pieces = _parametrize(pieces)
    crossings, uncertain = _sweep(P, S, [p.shape[0] for p in pieces])
    del S
    area, fill_cells = multiplicity_two_area(pieces)
    return EmbeddednessReport(self_intersections=crossings,
                              multiplicity_2_area=area,
                              embedded=not crossings,
                              uncertain=uncertain,
                              fill_cells=fill_cells)


def _sweep(P: np.ndarray, S: np.ndarray, sizes: Sequence[int]):
    """The sorted crossings and the sorted, distinct uncertain pairs of the
    thinned points P with parameters S, as self_intersections reports them;
    sizes are the point counts of the pieces in P, in order.

    Segment m runs from P[m] to P[m + 1]: the segments are views of P,
    and their differences are formed per slice, of the segments for their
    lengths and of the candidate pairs for the sweep.  The junction segment
    from the last point of one piece to the first point of the next
    carries piece_id -1 and is never swept.
    """
    A, B = P[:-1], P[1:]
    sA, sB = S[:-1], S[1:]
    piece_id = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)[:-1]
    piece_id[np.cumsum(sizes)[:-1] - 1] = -1
    lens = np.empty(A.shape[0])
    for start in range(0, lens.size, _SEARCH_CHUNK):
        d = B[start:start + _SEARCH_CHUNK] - A[start:start + _SEARCH_CHUNK]
        np.hypot(d[:, 0], d[:, 1], out=lens[start:start + _SEARCH_CHUNK])
    if not np.any(lens[piece_id >= 0] > 0.0):
        raise GeometryError("degenerate polyline (zero-length segments only)")
    # twice the sweep's 10 * _EPS_GEOM gap, so that round-off in the boxes
    # and the turning cannot drop a pair the sweep reports
    first, second = _candidate_pairs(P, lens, piece_id, 20 * _EPS_GEOM)
    crossings, uncertain = [], []
    # fixed-size slices of the pair list bound the sweep's temporaries
    for start in range(0, first.size, _PAIR_CHUNK):
        pi_, pj_ = first[start:start + _PAIR_CHUNK], second[start:start + _PAIR_CHUNK]
        a1, d1, a2, d2 = A[pi_], B[pi_] - A[pi_], A[pj_], B[pj_] - A[pj_]
        denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        rhs = a2 - a1
        near_par = np.abs(denom) <= _EPS_GEOM * np.maximum(lens[pi_] * lens[pj_], 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / denom
            u = (rhs[:, 0] * d1[:, 1] - rhs[:, 1] * d1[:, 0]) / denom
        inside = (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0) & ~near_par
        margin = np.minimum.reduce([t, 1.0 - t, u, 1.0 - u])
        para_t = np.clip((rhs * d1).sum(axis=1) / np.maximum(lens[pi_] ** 2, 1e-300), 0, 1)
        gap = np.hypot(*(a1 + para_t[:, None] * d1 - a2).T)
        # t and u divide by denom ~ 0 there: report a near-parallel pair at
        # the projection on the first segment and the start of the second
        t = np.where(near_par, para_t, t)
        u = np.where(near_par, 0.0, u)
        hit = np.flatnonzero(inside | (near_par & (gap < 10 * _EPS_GEOM)))
        pi_, pj_, t, u = pi_[hit], pj_[hit], t[hit], u[hit]
        s1 = sA[pi_] + t * (sB[pi_] - sA[pi_])
        s2 = sA[pj_] + u * (sB[pj_] - sA[pj_])
        lo, hi = np.minimum(s1, s2), np.maximum(s1, s2)
        unsure = near_par[hit] | (margin[hit] * np.minimum(lens[pi_], lens[pj_]) < _EPS_GEOM)
        sure = ~unsure
        x, y = (a1[hit[sure]] + t[sure, None] * d1[hit[sure]]).T
        crossings.extend(zip(lo[sure].tolist(), hi[sure].tolist(),
                             zip(x.tolist(), y.tolist())))
        uncertain.append(np.column_stack([lo[unsure], hi[unsure]]))
    # np.unique's rows are distinct and in the lexicographic order of
    # sorted(set(...)) over the same pairs as tuples
    uncertain = np.unique(np.concatenate(uncertain or [np.empty((0, 2))]), axis=0)
    return sorted(crossings), list(map(tuple, uncertain.tolist()))


def _close_chains(pieces: List[np.ndarray]) -> List[np.ndarray]:
    """Close open chains through arcs just inside the ideal circle, as
    polylines whose segments together are those of the closed loops.

    Open ends are assumed to sit near the boundary circle (diverging
    symmetry curves); ends are joined in counterclockwise order, which is
    the non-crossing pairing for boundaries of immersed disks.  A loop of
    pieces and arcs is not stacked into one array: each piece and arc is a
    polyline of its own, and so is the two-point segment from each one's
    last point to the next one's first.
    """
    loops = []
    open_pieces = []
    for p in pieces:
        if np.hypot(*(p[0] - p[-1])) < 1e-8:
            loops.append(p)
        else:
            open_pieces.append(p)
    if not open_pieces:
        return loops
    used = [False] * len(open_pieces)
    for seed in range(len(open_pieces)):
        if used[seed]:
            continue
        chain = [open_pieces[seed]]
        used[seed] = True
        start_pt = open_pieces[seed][0]
        while True:
            cur_end = chain[-1][-1]
            th_end = math.atan2(cur_end[1], cur_end[0])
            best = None
            for i, p in enumerate(open_pieces):
                if used[i]:
                    continue
                for flip in (False, True):
                    q = p[::-1] if flip else p
                    th_s = math.atan2(q[0][1], q[0][0])
                    gap = (th_s - th_end) % (2.0 * math.pi)
                    if best is None or gap < best[0]:
                        best = (gap, i, flip)
            th_close = math.atan2(start_pt[1], start_pt[0])
            gap_close = (th_close - th_end) % (2.0 * math.pi)
            if best is None or gap_close <= best[0]:
                chain.append(_ideal_arc(cur_end, start_pt, gap_close))
                break
            gap, i, flip = best
            q = open_pieces[i][::-1] if flip else open_pieces[i]
            used[i] = True
            chain.append(_ideal_arc(cur_end, q[0], gap))
            chain.append(q)
        for a, b in zip(chain[:-1], chain[1:]):
            loops += [a, np.array([a[-1], b[0]])]
        loops.append(chain[-1])
    return loops


def _ideal_arc(p_from: np.ndarray, p_to: np.ndarray, gap: float) -> np.ndarray:
    """Samples from p_from to p_to through the angle gap, one per 1/2048 turn."""
    r0, r1 = np.hypot(*p_from), np.hypot(*p_to)
    th0 = math.atan2(p_from[1], p_from[0])
    n = max(2, int(math.ceil(gap / (2.0 * math.pi / 2048))) + 1)
    th = th0 + np.linspace(0.0, gap, n)
    rr = np.linspace(r0, r1, n)
    return np.column_stack([rr * np.cos(th), rr * np.sin(th)])


def _winding_grid(loops: Sequence[np.ndarray], grid: int):
    """Winding number of the loops at every pixel center of a grid x grid
    raster of [-1, 1]^2 (rows are y), and the pixel-center coordinates.
    A loop may come as several polylines: the count is a sum over segments.

    A loop segment crosses the scanlines with lo <= y < hi; each crossing
    event (row, x, +-1) counts for the pixels at or right of x.  The raster
    is int32 and summed in place; its events come only from the segments
    that cross a scanline, whose end points are gathered from the loop.
    """
    px = 2.0 / grid
    centers = -1.0 + (np.arange(grid) + 0.5) * px
    wind = np.zeros((grid, grid + 1), dtype=np.int32)
    for loop in loops:
        # searchsorted is monotone: a segment's first row is its ends' lower row
        rows = np.searchsorted(centers, loop[:, 1], side="left")
        counts = np.abs(np.diff(rows))
        seg = np.flatnonzero(counts)
        counts, a, b = counts[seg], loop[seg], loop[seg + 1]
        seg_of = np.repeat(np.arange(seg.size), counts)
        row = np.repeat(np.minimum(rows[seg], rows[seg + 1]) - (np.cumsum(counts) - counts),
                        counts) + np.arange(seg_of.size)
        y0, y1 = a[seg_of, 1], b[seg_of, 1]
        tt = (centers[row] - y0) / (y1 - y0)
        xc = a[seg_of, 0] + tt * (b[seg_of, 0] - a[seg_of, 0])
        col = np.searchsorted(centers, xc, side="left")
        np.add.at(wind, (row, col), np.where(y1 > y0, 1, -1))
    np.cumsum(wind, axis=1, out=wind)
    return wind[:, :-1], centers


def multiplicity_two_area(pieces: Sequence[np.ndarray]) -> Tuple[float, np.ndarray]:
    """Hyperbolic area covered with |winding| >= 2 by the closed-up chains,
    on a _GRID x _GRID raster, and the fill cells of the figure.

    Cells centred beyond chart radius 1 - 2e-6 count no area.  A fill cell
    is a 4 x 4 block of the raster in which at least 8 of the 16 pixels
    have |winding| >= 2; the cells come as (row, column) pairs on the
    _GRID // 4 raster, in row-major order.  The raster is _winding_grid's
    int32 grid, filled from the segments that cross a scanline only.
    """
    loops = _close_chains([np.asarray(p, dtype=float) for p in pieces])
    if not loops:
        return 0.0, np.zeros((0, 2), dtype=np.int64)
    wind, centers = _winding_grid(loops, _GRID)
    px = 2.0 / _GRID
    c2 = centers * centers
    # the metric only on the cells covered twice, in row-major order as a
    # boolean mask would take them: full-grid float arrays cost 8 MB each at
    # grid = 1024
    i, j = np.nonzero((wind >= 2) | (wind <= -2))
    del wind
    i, j = i.astype(np.int32), j.astype(np.int32)
    # r2, 1 - r2, its square and 4 / (...) in one buffer: the same floats
    # as np.where(sqrt(r2) <= r_cut, 4 / (1 - r2) ** 2, 0) * px * px
    lam2 = c2[j]
    lam2 += c2[i]
    rim = np.sqrt(lam2) > 1.0 - 2e-6
    np.subtract(1.0, lam2, out=lam2)
    np.square(lam2, out=lam2)
    np.divide(4.0, lam2, out=lam2)
    lam2[rim] = 0.0
    lam2 *= px
    lam2 *= px
    area = float(np.sum(lam2))
    del lam2, rim
    side = _GRID // 4
    hits = np.bincount((i // 4) * side + j // 4, minlength=side * side)
    return area, np.argwhere(hits.reshape(side, side) >= 8)


def report_json_dict(report: EmbeddednessReport, total_turning: float) -> dict:
    return {
        "embedded": report.embedded,
        "crossings": report.crossings,
        "multiplicity_2_area": report.multiplicity_2_area,
        "total_turning": total_turning,
    }


def _drawn(piece: np.ndarray) -> np.ndarray:
    """The points of a piece that a panel strokes: every
    max(1, n // 4000)-th of its n points, and the last.  Cutting a cut
    piece returns it unchanged; a strided cut is a copy, not a view."""
    p = np.asarray(piece, dtype=float)
    stride = p.shape[0] // 4000
    if stride <= 1:
        return p
    q = p[::stride]
    return q.copy() if np.array_equal(q[-1], p[-1]) else np.vstack([q, p[-1]])


def _panel_markup(pieces: Sequence[np.ndarray], fill_cells: np.ndarray,
                  dx: float, label: Optional[str]) -> List[str]:
    """Markup of one disk panel (fill, ideal circle, strokes) shifted by dx."""
    half = _PANEL_PX / 2.0
    side = _GRID // 4
    centers = -1.0 + (np.arange(side) + 0.5) * (2.0 / side)
    cell_px = 0.95 * _PANEL_PX / side

    def to_px(pts):
        return (pts[:, 0] * 0.95 + 1.0) * half + dx, (1.0 - pts[:, 1] * 0.95) * half

    cxs = (centers[fill_cells[:, 1]] * 0.95 + 1.0) * half + dx - cell_px / 2.0
    cys = (1.0 - centers[fill_cells[:, 0]] * 0.95) * half - cell_px / 2.0
    out = [f'<rect x="{cx:.2f}" y="{cy:.2f}" width="{cell_px:.2f}" '
           f'height="{cell_px:.2f}" fill="#b0b0b0" stroke="none"/>'
           for cx, cy in zip(cxs.tolist(), cys.tolist())]
    out.append(f'<circle cx="{half + dx}" cy="{half}" r="{0.95 * half}" fill="none" '
               'stroke="black" stroke-width="1"/>')
    for p in pieces:
        xs, ys = to_px(_drawn(p))
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))
        out.append(f'<polyline points="{pts}" fill="none" stroke="#1040a0" '
                   'stroke-width="1.2"/>')
    if label is not None:
        out.append(f'<text x="{half + dx:.2f}" y="{_PANEL_PX - 6}" '
                   'font-family="monospace" font-size="14" '
                   f'text-anchor="middle">{label}</text>')
    return out


def write_domain_svg(path: str, pieces: Sequence[np.ndarray],
                     report: EmbeddednessReport, params: dict) -> None:
    """SVG figure: ideal circle, curve strokes, and the covered-twice fill
    of report, the self_intersections report of the pieces.

    The full parameter set is embedded as a comment header; output is
    deterministic for fixed inputs.
    """
    write_domain_panels_svg(path, [(None, pieces, report)], params)


def write_domain_panels_svg(path: str,
                            panels: Sequence[Tuple[Optional[str],
                                                   Sequence[np.ndarray],
                                                   EmbeddednessReport]],
                            params: dict) -> None:
    """Side-by-side disk panels (label, pieces, report) in one deterministic
    SVG; each panel's fill is its report's fill cells."""
    if not panels:
        raise GeometryError("no panels to draw")
    size = _PANEL_PX
    width = size * len(panels)
    header = " ".join(f"{k}={params[k]!r}" for k in sorted(params))
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f"<!-- params: {header} -->",
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{size}" '
           f'viewBox="0 0 {width} {size}">',
           f'<rect width="{width}" height="{size}" fill="white"/>']
    for n, (label, pieces, report) in enumerate(panels):
        out.extend(_panel_markup(pieces, report.fill_cells, float(n * size), label))
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def fiber_domain(theta_prime: Callable[[np.ndarray], np.ndarray], H: float,
                 d: float, phi0: float, s_end: float, k: int, step: float,
                 s_cap: float):
    """March kg(s) = 2H - theta'(s) over [0, s_end] from the waist
    (tanh(d/2), 0) with chart tangent angle phi0, tile the curve by the
    dihedral group of order 2k and judge it.

    s_end = inf runs to the ideal boundary or to arclength s_cap.  Returns
    (total_turning, drawn, report): the trapezoid of theta' over the
    curve's samples, the tiled chains cut to what a panel draws (_drawn),
    and the self_intersections report of the full chains.  The curve dies
    once tiled, and the sweep pops the chains from this function's own
    list, so each dies once it is thinned.
    """
    if not 0.0 <= H <= 0.5:
        raise GeometryError("H must lie in [0, 1/2]")
    curve = integrate_prescribed_curvature(
        lambda s: 2.0 * H - theta_prime(s), (0.0, s_end),
        (math.tanh(d / 2.0), 0.0), phi0, step=step, s_cap=s_cap)
    total_turning = float(np.trapezoid(2.0 * H - curve.kg_samples, curve.s))
    chains = assemble_domain(curve, k).pieces
    del curve
    drawn = [_drawn(p) for p in chains]
    report = self_intersections(chains.pop(0) for _ in range(len(chains)))
    return total_turning, drawn, report


def critical_catenoid_domain(mu: float, k: int = 2,
                             step: float = DEFAULT_STEP,
                             s_cap: float = DEFAULT_S_CAP):
    """Boundary of the conjugate disk domain for the critical catenoid data:
    fiber_domain at H = 1/2 with the exact theta' and d of the mu-helicoid,
    over the full fiber.  Returns (total_turning, drawn, report).

    theta' = -sigma/(1 + sigma^2 s^2) is a spike of width 1/|sigma| at
    s = 0; a step above 0.25/|sigma| cannot resolve it, and is refused.
    """
    from .helicoid import sigma, theta_prime_fn, vertex_base_distance

    theta_prime = theta_prime_fn(mu)  # checks |mu| > 1/2, so sigma != 0
    sg = abs(sigma(mu))
    if step > 0.25 / sg:
        raise GeometryError(f"step {step:g} cannot resolve theta' at mu={mu:g} "
                            f"(|sigma| = {sg:.6g}); the largest step that does "
                            f"is 0.25/|sigma| = {0.25 / sg!r}")
    # theta' is even in s and the initial tangent is vertical, so the s<0
    # half of the fiber is the x-axis mirror of the s>0 half; the dihedral
    # tiling restores it
    return fiber_domain(theta_prime, 0.5, vertex_base_distance(mu),
                        math.pi / 2.0 if mu < 0 else -math.pi / 2.0,
                        math.inf, k, step, s_cap)
