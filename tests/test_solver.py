"""Minimal-graph solver: oracles, monotonicity, distances, vertex fibers."""
import dataclasses
import math
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.interpolate import LinearNDInterpolator, NearestNDInterpolator

from ektlab import helicoid as hc
from ektlab import cli, mesh, solver
from ektlab.mesh import build_triangle, triangulate
from ektlab.solver import (
    SolverError,
    boundary_theta_prime,
    distance_d,
    distance_d_single,
    rho_estimate,
    solution_csv_lines,
    solution_report_dict,
    solve_dirichlet,
    solve_jenkins_serrin,
)
from ektlab.spaces import (GeometryError, SpaceParams, conformal_factor_xy,
                           min_metric_distance)

FLAT_HALF = SpaceParams(kappa=0.0, tau=0.5)
ZERO = {t: 0.0 for t in ("side_p0p1", "side_p0p2", "side_p1p2")}


def flat_triangle(h):
    return triangulate(build_triangle(1.0, 1.0, 2, 0.0), h)


def far_side_distance(dom, pts):
    """Metric distance from each of pts to the nearest far-side node."""
    far = dom.nodes[dom.nodes_with_tag("side_p1p2")]
    return min_metric_distance(pts, far, dom.triangle.kappa)


def leg_nodes(dom, tag):
    """The nodes of the leg tagged tag plus p0, by metric radius."""
    idx = dom.nodes_with_tag(tag)
    origin = np.flatnonzero(dom.node_metric_radius < 1e-12)
    idx = np.concatenate([idx, origin[~np.isin(origin, idx)]])
    return idx[np.argsort(dom.node_metric_radius[idx])]


@pytest.fixture(scope="module")
def dual_sign_solves():
    """T(1,1,2) at H=0.25, far-side data +M and -M."""
    kw = dict(k=2, H=0.25, M_schedule=[2.0], target_h=0.05)
    plus = solve_jenkins_serrin(1.0, 1.0, m_sign=1, **kw)
    minus = solve_jenkins_serrin(1.0, 1.0, m_sign=-1, **kw)
    return plus, minus


@pytest.fixture(scope="module")
def strip_solves():
    """Flat strip of width t_mu(-1.5) with the capped far side."""
    t = hc.t_mu(-1.5)
    return solve_jenkins_serrin(math.inf, t, 2, 0.5, [2.0, 4.0, 8.0], 0.05,
                                R_trunc=4.0)


def test_zero_data_gives_flat_graph():
    sol = solve_dirichlet(flat_triangle(0.05), ZERO, FLAT_HALF)
    assert np.abs(sol.u).max() < 1e-8
    assert sol.newton_iters <= 2
    assert sol.residual_norm < 1e-9


def test_shear_graph_reproduced_at_second_order():
    # u = tau*x*y is an exact solution in the flat space; the discrete
    # minimizer should land within O(h^2) of it
    shear = lambda x, y: 0.5 * x * y
    sup = {}
    for h in (0.05, 0.025):
        dom = flat_triangle(h)
        sol = solve_dirichlet(dom, {t: shear for t in ZERO}, FLAT_HALF)
        exact = 0.5 * dom.nodes[:, 0] * dom.nodes[:, 1]
        sup[h] = float(np.abs(sol.u - exact).max())
    assert sup[0.05] < 1.5e-4
    assert 3.2 < sup[0.05] / sup[0.025] < 4.8


def test_energy_descends_across_newton_steps():
    shear = lambda x, y: 0.5 * x * y
    sol = solve_dirichlet(flat_triangle(0.05), {t: shear for t in ZERO},
                          FLAT_HALF)
    hist = sol.energy_history
    assert len(hist) >= 3
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_raising_boundary_data_never_lowers_solution():
    dom = flat_triangle(0.05)
    low = solve_dirichlet(
        dom, {"side_p0p1": 0.0, "side_p0p2": 0.0, "side_p1p2": 1.0}, FLAT_HALF)
    high = solve_dirichlet(
        dom, {"side_p0p1": 0.2, "side_p0p2": 0.0, "side_p1p2": 2.0}, FLAT_HALF)
    assert np.min(high.u - low.u) >= -1e-10


def test_vertical_field_trivial_distances():
    # tau = 0 with zero data keeps the graph flat, nu == 1, so the two leg
    # integrals reduce to the side lengths a and b
    dom = triangulate(build_triangle(1.0, 1.0, 2, -1.0), 0.05)
    sol = solve_dirichlet(dom, ZERO, SpaceParams(kappa=-1.0, tau=0.0))
    assert np.all(sol.u == 0.0)
    assert distance_d([sol]) == pytest.approx(1.0, abs=1e-12)
    assert rho_estimate([sol]) == pytest.approx(1.0, abs=1e-12)


def test_sign_swap_exchanges_d_and_rho(dual_sign_solves):
    plus, minus = dual_sign_solves
    dp, rp = distance_d(plus), rho_estimate(plus)
    dm, rm = distance_d(minus), rho_estimate(minus)
    # the mirror (x,y) -> (y,x) is orientation reversing, so it carries the
    # +M graph to the -M graph: the legs swap roles rather than match
    assert abs(dp - rm) < 1e-5
    assert abs(rp - dm) < 1e-5
    assert abs(dp - rp) > 0.02


def test_minimal_case_mirror_makes_d_equal_rho():
    sols = solve_jenkins_serrin(1.0, 1.0, 2, 0.0, [2.0], 0.05)
    assert abs(distance_d(sols) - rho_estimate(sols)) < 1e-4


def test_strip_rho_diverges_with_truncation_radius():
    vals = {}
    for R in (3.0, 4.0, 5.0):
        sols = solve_jenkins_serrin(math.inf, 1.0, 2, 0.5,
                                    [2.0, 4.0, 8.0, 16.0], 0.05, R_trunc=R)
        vals[R] = (distance_d(sols), rho_estimate(sols))
    assert vals[4.0][1] - vals[3.0][1] > 0.05
    assert vals[5.0][1] - vals[4.0][1] > 0.05
    # the finite-side leg is insensitive to where the strip is cut
    assert abs(vals[4.0][0] - vals[3.0][0]) < 0.01
    assert abs(vals[5.0][0] - vals[3.0][0]) < 0.01


def test_strip_solution_matches_helicoid_height():
    # Dirichlet data x*(f(y)-y)/2 on a substrip of the mu=-1.5 half-period:
    # the exact solution is the helicoid graph itself
    prof = hc.invert_profile(-1.5, np.linspace(-0.01, 1.06, 4001))
    data_fn = lambda x, y: x * (np.interp(y, prof.v, prof.f) - y) / 2.0
    sup = {}
    for h in (0.05, 0.025):
        dom = triangulate(build_triangle(math.inf, 1.05, 2, 0.0), h,
                          R_trunc=4.0)
        tags = ("side_p0p1", "side_p0p2", "side_p1p2", "truncation")
        sol = solve_dirichlet(dom, {t: data_fn for t in tags}, FLAT_HALF)
        f_y = np.interp(dom.nodes[:, 1], prof.v, prof.f)
        exact = dom.nodes[:, 0] * (f_y - dom.nodes[:, 1]) / 2.0
        away = dom.nodes[:, 0] <= 3.0
        sup[h] = float(np.abs(sol.u - exact)[away].max())
    assert sup[0.05] < 5e-3
    assert 3.2 < sup[0.05] / sup[0.025] < 4.8


def test_vertex_angle_rate_matches_helicoid_oracle():
    # plant the exact helicoid heights on the full-width strip mesh and ask
    # the fiber probe for theta'(s); it must recover -sigma/(1+sigma^2 s^2)
    mu = -1.5
    t = hc.t_mu(mu)
    dom = triangulate(build_triangle(math.inf, t, 2, 0.0), 0.05, R_trunc=4.0)
    y = np.minimum(dom.nodes[:, 1], t - 1e-4)
    f_y = hc.invert_profile(mu, y).f
    sol = solver.GraphSolution(
        domain=dom, u=np.minimum(dom.nodes[:, 0] * (f_y - y) / 2.0, 12.0),
        params=FLAT_HALF, residual_norm=0.0, newton_iters=0)
    samples = boundary_theta_prime(sol)
    s, tp = samples[:, 0], samples[:, 1]
    ref = np.array([hc.theta_prime(v, mu) for v in s])
    assert s.min() < 0.25 and s.max() > 7.0
    assert np.all(tp > 0.0)
    assert np.abs(tp - ref).max() < 5e-2


def test_vertex_angle_rate_on_solved_strip(strip_solves):
    # through the solver the capped side carries an O(h) boundary layer, so
    # only sign, decay and coarse magnitude survive at this resolution
    mu = -1.5
    samples = boundary_theta_prime(strip_solves[-1])
    s, tp = samples[:, 0], samples[:, 1]
    ref = np.array([hc.theta_prime(v, mu) for v in s])
    assert s.min() < 0.4 and s.max() > 4.0
    assert np.all(tp > 0.0)
    assert tp[-5:].mean() < 0.5 * tp[:5].mean()
    assert np.abs(tp - ref).max() < 0.35


def test_vertex_angle_rate_sign_on_a_finite_triangle():
    sols = solve_jenkins_serrin(1.0, 2.0, 2, 0.5, [2.0, 4.0, 8.0], 0.05)
    at_p2 = boundary_theta_prime(sols[-1])
    assert np.all(at_p2[:, 1] > 0.0)


def test_vertex_probe_rejections():
    sols = solve_jenkins_serrin(1.0, math.inf, 2, 0.4, [2.0], 0.1, R_trunc=3.0)
    with pytest.raises(SolverError, match="p2 is ideal"):
        boundary_theta_prime(sols[-1])


def test_vertex_probe_rejects_a_flat_solution():
    # u = 0: every ray's intercept is 0, so every ray is dropped
    dom = triangulate(build_triangle(math.inf, 2.0, 2, -0.36), 0.1, 4.0)
    sol = solver.GraphSolution(domain=dom, u=np.zeros(dom.n_nodes),
                               params=SpaceParams.from_h(0.4),
                               residual_norm=0.0, newton_iters=0)
    with pytest.raises(SolverError, match=r"only 0 usable rays; "
                       r"sampled heights cover \[0, 0\]"):
        boundary_theta_prime(sol)


def test_vertex_probe_builds_no_delaunay_on_a_cut_mesh(monkeypatch):
    sols = solve_jenkins_serrin(math.inf, 2.0, 2, 0.4, [2.0, 4.0], 0.1,
                                R_trunc=4.0)
    built = []
    real = solver.Delaunay

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "Delaunay", counted)
    monkeypatch.setattr(mesh, "Delaunay", counted)
    got = boundary_theta_prime(sols[-1])
    assert built == []
    # the same samples as interpolating over a fresh triangulation
    monkeypatch.setattr(solver, "_locate", lambda nodes, tris, values, xi:
                        LinearNDInterpolator(nodes, values)(xi))
    want = boundary_theta_prime(sols[-1])
    assert got.shape == want.shape and got.shape[0] >= solver._N_RAYS // 3
    assert np.abs(got - want).max() < 1e-13


def test_locate_matches_scipy_within_round_off():
    # qhull's barycentric transforms carry round-off of their own (up to
    # 7e-14 at the nodes of T(1, 1) at h = 0.1, unit normal data), where the
    # locate is exact
    rng = np.random.default_rng(11)
    cut = triangulate(build_triangle(math.inf, 2.0, 2, -0.36), 0.2, 4.0)
    strip = triangulate(build_triangle(math.inf, hc.t_mu(-1.5), 2, 0.0), 0.2,
                        4.0)
    for dom in (cut, strip):
        tris = dom.delaunay_triangles()
        u = rng.normal(size=dom.n_nodes)
        lo, hi = dom.nodes.min(axis=0), dom.nodes.max(axis=0)
        box = rng.uniform(lo - 0.1, hi + 0.1, size=(1500, 2))
        e = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        t = rng.uniform(size=(e.shape[0], 1))
        on_edges = t * dom.nodes[e[:, 0]] + (1.0 - t) * dom.nodes[e[:, 1]]
        want_fn = LinearNDInterpolator(dom.nodes, u)
        for probes in (box, on_edges, dom.nodes):
            got, want = solver._locate(dom.nodes, tris, u, probes), want_fn(probes)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.nanmax(np.abs(got - want)) <= 1e-12 * np.abs(u).max()
        assert 0 < np.isnan(want_fn(box)).sum() < box.shape[0]
        assert np.array_equal(solver._locate(dom.nodes, tris, u, dom.nodes), u)
    far = np.array([[50.0, 50.0], [51.0, 50.0]])
    assert np.isnan(solver._locate(cut.nodes, cut.delaunay_triangles(),
                                   np.zeros(cut.n_nodes), far)).all()


def test_max_nu_sits_at_origin(dual_sign_solves):
    sol = dual_sign_solves[0][-1]
    nu = sol.nu()
    top = sol.domain.nodes[int(np.argmax(nu))]
    assert math.hypot(*top) < 2 * sol.domain.target_h
    assert nu.max() <= 1.0


@pytest.mark.parametrize("a,b,H,r_trunc", [
    (1.0, 1.0, 0.4, None), (math.inf, 2.0, 0.4, 4.0),
    (math.inf, 1.0, 0.5, 4.0), (1.0, 2.0, 0.0, None)])
def test_nu_of_an_affine_graph_is_the_tilt_formula(a, b, H, r_trunc):
    # u = 0.7 x - 0.3 y has the same chart gradient in every element, so
    # the nodal average is that gradient and nu is exact at every node
    dom = triangulate(build_triangle(a, b, 2, 4 * H * H - 1), 0.08, r_trunc)
    params = SpaceParams.from_h(H)
    x, y = dom.nodes.T
    sol = solver.GraphSolution(dom, 0.7 * x - 0.3 * y, params, 0.0, 0)
    lam = 1.0 / (1.0 + params.kappa * (x * x + y * y) / 4.0)
    alpha = 0.7 / lam + params.tau * y
    beta = -0.3 / lam - params.tau * x
    want = 1.0 / np.sqrt(1.0 + alpha * alpha + beta * beta)
    assert np.max(np.abs(sol.nu() - want)) <= 1e-13


def test_warm_started_schedule_grows_with_cap(strip_solves):
    assert len(strip_solves) == 3
    lo, hi = strip_solves[0], strip_solves[-1]
    assert np.min(hi.u - lo.u) > -1e-8
    assert np.max(hi.u - lo.u) > 1.0
    cauchy = solution_report_dict(strip_solves)["cauchy_indicator"]
    assert cauchy is not None
    assert cauchy >= 0.0
    assert not hi.discretization_failure


def test_cauchy_indicator_region(strip_solves):
    # max |u_8 - u_4| over the nodes whose distance to the far side is at
    # least half the largest node distance
    prev, last = strip_solves[-2], strip_solves[-1]
    far = far_side_distance(last.domain, last.domain.nodes)
    mask = far >= 0.5 * far.max()
    assert 0 < mask.sum() < last.domain.n_nodes
    rep = solution_report_dict(strip_solves)
    assert rep["cauchy_indicator"] == np.max(np.abs(last.u - prev.u)[mask])
    assert solution_report_dict(strip_solves[-1:])["cauchy_indicator"] is None


def test_report_dict_and_csv_schema(dual_sign_solves):
    sol = dual_sign_solves[0][-1]
    rep = solution_report_dict([sol])
    assert set(rep) == {"a", "b", "k", "H", "M", "residual_norm",
                        "newton_iters", "d_estimate", "rho_estimate",
                        "cauchy_indicator", "discretization_failure"}
    assert rep["a"] == 1.0 and rep["b"] == 1.0
    assert rep["k"] == 2 and rep["H"] == 0.25 and rep["M"] == 2.0
    lines = solution_csv_lines(sol)
    assert lines[0].startswith("# a=")
    assert lines[2] == "x,y,u,nu,tag"
    body = lines[3:]
    assert len(body) == sol.domain.n_nodes
    x, y, u, nu, tag = body[0].split(",")
    float(x), float(y), float(u), float(nu)
    assert tag in ("", "side_p0p1", "side_p0p2", "side_p1p2", "truncation")


def test_csv_rows_match_the_per_node_formatting(dual_sign_solves):
    sol = dual_sign_solves[0][-1]
    dom, nu = sol.domain, sol.nu()
    names = solver.TAGS + ("",)
    want = [f"{float(dom.nodes[i, 0])!r},{float(dom.nodes[i, 1])!r},"
            f"{float(sol.u[i])!r},{float(nu[i])!r},{names[dom.tags[i]]}"
            for i in range(dom.n_nodes)]
    assert solution_csv_lines(sol)[3:] == want


def test_flux_nu_matches_the_per_node_loop(dual_sign_solves):
    sol = dual_sign_solves[0][-1]
    dom = sol.domain
    g = sol._gradients()[1]
    lam = solver.conformal_factor_xy(*dom.nodes.T, sol.params.kappa)
    far_all = far_side_distance(dom, dom.nodes)
    for tag in ("side_p0p1", "side_p0p2"):
        rads, got = solver._ray_profile(sol, tag)
        idx = leg_nodes(dom, tag)
        edges = dom.boundary_edges()
        edges = edges[np.isin(edges, idx).all(axis=1)]
        weight = solver._boundary_mass(dom.nodes, edges)
        nodal, far = sol.nu()[idx], far_all[idx]
        want = np.empty(len(idx))
        for pos, i in enumerate(idx):
            if (pos == 0 or pos == len(idx) - 1 or weight[i] <= 0
                    or far[pos] < 8.0 * dom.target_h):
                want[pos] = nodal[pos]
                continue
            p = g[i] / (lam[i] * weight[i])
            want[pos] = math.sqrt(max(1.0 - p * p, 0.0))
        assert np.array_equal(rads, dom.node_metric_radius[idx])
        assert np.array_equal(got, want)
        assert 0 < (got != nodal).sum() < len(idx) - 2  # both branches run


def test_far_side_failure_is_not_hidden(dual_sign_solves, monkeypatch):
    # a failure of the far-side distance must surface instead of changing d
    sol = dual_sign_solves[0][-1]

    def out_of_memory(*args, **kwargs):
        raise MemoryError("dense distance table")

    monkeypatch.setattr(solver, "min_metric_distance", out_of_memory)
    with pytest.raises(MemoryError):
        distance_d_single(sol)


def test_far_side_distance_is_measured_at_the_leg_nodes_only(dual_sign_solves,
                                                            monkeypatch):
    sol = dual_sign_solves[0][-1]
    dom = sol.domain
    calls = []
    real = solver.min_metric_distance

    def recorded(pts, ref, kappa):
        calls.append((pts, ref))
        return real(pts, ref, kappa)

    monkeypatch.setattr(solver, "min_metric_distance", recorded)
    distance_d_single(sol)
    solver.rho_estimate_single(sol)
    far = dom.nodes[dom.nodes_with_tag("side_p1p2")]
    assert len(calls) == 2
    for (pts, ref), tag in zip(calls, ("side_p0p2", "side_p0p1")):
        assert np.array_equal(pts, dom.nodes[leg_nodes(dom, tag)])
        assert np.array_equal(ref, far)


def test_sweep_never_measures_every_node(tmp_path, monkeypatch):
    sizes, rows = [], []
    real_solve = cli.solve_jenkins_serrin
    real_distance = solver.min_metric_distance

    def solve(*args, **kwargs):
        sols = real_solve(*args, **kwargs)
        sizes.append(sols[-1].domain.n_nodes)
        return sols

    def distance(pts, ref, kappa):
        rows.append(len(pts))
        return real_distance(pts, ref, kappa)

    monkeypatch.setattr(cli, "solve_jenkins_serrin", solve)
    monkeypatch.setattr(solver, "min_metric_distance", distance)
    assert cli.main(["figure", "sweep-d", "--H", "0.4", "--target-h", "0.04",
                     "--a-grid", "0.5 2", "--b-grid", "1",
                     "--out", str(tmp_path / "o")]) == 0
    assert len(sizes) == 2
    assert len(rows) == 2 * 2 * 2  # one d integral per M, two M per point
    assert max(rows) < min(sizes)


def _js_data(m):
    return {"side_p0p1": 0.0, "side_p0p2": 0.0, "side_p1p2": m}


def _warm_started_sweep(domain, H, ms):
    """The sweep without a predictor: each M starts from the last solution."""
    params = SpaceParams.from_h(H)
    sols, prev = [], None
    for m in ms:
        sol = solve_dirichlet(domain, _js_data(m), params=params, initial=prev)
        sol.M = m
        sols.append(sol)
        prev = sol.u
    return sols


def test_secant_predictor_keeps_d_and_halves_newton_iterations():
    ms = [2.0, 4.0, 8.0, 16.0]
    predicted = solve_jenkins_serrin(1.0, 1.0, 2, 0.4, ms, 0.03)
    plain = _warm_started_sweep(predicted[0].domain, 0.4, ms)
    assert abs(distance_d(predicted) - distance_d(plain)) < 1e-8
    assert abs(rho_estimate(predicted) - rho_estimate(plain)) < 1e-8
    # the first M starts from the 4h coarse solve instead of zeros
    assert predicted[0].newton_iters < plain[0].newton_iters
    after_first = sum(s.newton_iters for s in predicted[1:])
    assert 2 * after_first <= sum(s.newton_iters for s in plain[1:])


def test_nested_start_cuts_the_first_m_iterations():
    first = solve_jenkins_serrin(1.0, 1.0, 2, 0.4, [2.0], 0.03)[0]
    zero = solve_dirichlet(first.domain, _js_data(2.0),
                           params=SpaceParams.from_h(0.4))
    assert first.newton_iters < zero.newton_iters
    assert abs(distance_d_single(first) - distance_d_single(zero)) < 1e-8
    assert (abs(solver.rho_estimate_single(first)
                - solver.rho_estimate_single(zero)) < 1e-8)


def test_nodes_outside_the_coarse_hull_take_the_nearest_coarse_value():
    dom = triangulate(build_triangle(math.inf, 2.0, 2, 4 * 0.4 ** 2 - 1),
                      0.1, 4.0)
    coarse = triangulate(dom.triangle, 0.4, 4.0)
    params = SpaceParams.from_h(0.4)
    guess = solver._coarse_start(dom, _js_data(2.0), params)
    coarse_u = solve_dirichlet(coarse, _js_data(2.0), params=params).u
    outside = np.isnan(LinearNDInterpolator(coarse.nodes, coarse_u)(dom.nodes))
    assert outside.any() and np.all(np.isfinite(guess))
    for i in np.nonzero(outside)[0]:
        nearest = np.argmin(np.hypot(*(coarse.nodes - dom.nodes[i]).T))
        assert guess[i] == coarse_u[nearest]


def test_coarse_mesh_without_free_nodes_falls_back_to_zeros():
    tri = build_triangle(0.5, 0.5, 2, 4 * 0.4 ** 2 - 1)
    coarse = triangulate(tri, 0.4)
    assert coarse.n_nodes == 4 and np.count_nonzero(coarse.tags >= 0) == 4
    sols = solve_jenkins_serrin(0.5, 0.5, 2, 0.4, [2.0, 4.0], 0.1)
    params = SpaceParams.from_h(0.4)
    assert solver._coarse_start(sols[0].domain, _js_data(2.0), params) is None
    zero = solve_dirichlet(sols[0].domain, _js_data(2.0), params=params)
    assert np.array_equal(sols[0].u, zero.u)
    assert sols[0].newton_iters == zero.newton_iters


def test_unmeshable_coarse_triangle_falls_back_to_zeros():
    tri = build_triangle(math.inf, 2.0, 6, -1.0)
    with pytest.raises(GeometryError):
        triangulate(tri, 0.08, 4.0)
    sols = solve_jenkins_serrin(math.inf, 2.0, 6, 0.0, [2.0], 0.02,
                                R_trunc=4.0)
    zero = solve_dirichlet(sols[0].domain, _js_data(2.0),
                           params=SpaceParams.from_h(0.0))
    assert sols[0].residual_norm < 1e-9
    assert np.array_equal(sols[0].u, zero.u)


def _element_major(asm):
    """The assembly's (3, E) rows in the element-major layout they replaced:
    b gradients and quadrature points (E, 3, 2), lambda (E, 3)."""
    bgrad = np.stack([asm.bx.T, asm.by.T], axis=-1)
    qpts = np.stack([asm.qx.T, asm.qy.T], axis=-1)
    return bgrad, qpts, asm.lam.T


def _element_major_tilt(asm, u):
    """(alpha, beta, W) at u as (E, 3) arrays."""
    return tuple(t.T for t in asm._tilted(u))


def _element_hessians(asm, u):
    """Per-element 3x3 Hessians, b (I - v v^T / W^2) b^T / W summed over
    the quadrature points in one einsum."""
    alpha, beta, w = _element_major_tilt(asm, u)
    bgrad = _element_major(asm)[0]
    v = np.stack([alpha, beta], axis=-1)                     # (E, 3q, 2)
    m = (np.eye(2) - v[..., :, None] * v[..., None, :] / w[..., None, None] ** 2)
    m *= (asm.area[:, None] / 3.0 / w)[..., None, None]
    return np.einsum("eid,eqdf,ejf->eij", bgrad, m, bgrad)


def test_free_hessian_matches_the_full_matrix_block():
    dom = flat_triangle(0.1)
    asm = solver._Assembly(dom, FLAT_HALF)
    fixed = dom.nodes_with_tag("side_p1p2")
    free = np.setdiff1d(np.arange(dom.n_nodes), fixed)
    u = np.random.default_rng(3).normal(size=dom.n_nodes)
    got = asm.hessian(u, free)
    e = dom.elements
    full = sp.coo_matrix((_element_hessians(asm, u).ravel(),
                          (np.repeat(e, 3, axis=1).ravel(),
                           np.tile(e, (1, 3)).ravel())),
                         shape=(dom.n_nodes, dom.n_nodes))
    want = full.tocsc()[np.ix_(free, free)]
    assert got.indptr.dtype == np.int32 and got.indices.dtype == np.int32
    assert asm._free_pattern(free)[3].dtype == np.int32
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.max(np.abs(got.data - want.data)) <= 1e-14 * np.max(np.abs(want.data))


def _reference_kernels(asm, u, free):
    """Energy, gradient and Hessian values as first written: .sum(axis=1)
    over the quadrature, np.add.at for the scatter and w ** 3 in each of
    the three Hessian coefficients."""
    alpha, beta, w = _element_major_tilt(asm, u)
    bgrad, _, lam = _element_major(asm)
    energy = float(np.sum(asm.area / 3.0 * np.sum(lam ** 2 * w, axis=1)))
    coef = asm.area[:, None] / 3.0
    sx = (coef * (lam * alpha / w)).sum(axis=1)
    sy = (coef * (lam * beta / w)).sum(axis=1)
    gi = sx[:, None] * bgrad[:, :, 0] + sy[:, None] * bgrad[:, :, 1]
    g = np.zeros(asm.n)
    np.add.at(g, asm.elems.ravel(), gi.ravel())
    c0 = coef * (1.0 / w - alpha ** 2 / w ** 3)
    c1 = coef * (-alpha * beta / w ** 3)
    c2 = coef * (1.0 / w - beta ** 2 / w ** 3)
    hxx, hxy, hyy = (c.sum(axis=1)[:, None] for c in (c0, c1, c2))
    bx, by = bgrad[:, :, 0], bgrad[:, :, 1]
    p = hxx * bx + hxy * by
    q = hxy * bx + hyy * by
    h = p[:, :, None] * bx[:, None, :] + q[:, :, None] * by[:, None, :]
    _, indices, _, slots = asm._free_pattern(free)
    data = np.bincount(slots, weights=h.ravel(), minlength=indices.size + 1)
    return energy, g, data[:-1]


def _reference_nodal_gradients(asm, u):
    eg = np.column_stack(asm.element_gradients(u))
    acc = np.zeros((asm.n, 2))
    wt = np.zeros(asm.n)
    for loc in range(3):
        idx = asm.elems[:, loc]
        np.add.at(acc, idx, eg * asm.area[:, None])
        np.add.at(wt, idx, asm.area)
    return acc / wt[:, None]


def test_assembly_kernels_are_bit_identical_to_the_reference():
    dom = triangulate(build_triangle(1.0, 1.0, 2, 4 * 0.4 ** 2 - 1), 0.08)
    params = SpaceParams.from_h(0.4)
    free = np.flatnonzero(dom.tags < 0)
    u = np.random.default_rng(11).normal(size=dom.n_nodes)
    energy, g, data = _reference_kernels(solver._Assembly(dom, params), u, free)
    asm = solver._Assembly(dom, params)
    # energy first, so the gradient and Hessian reuse its held tilt
    assert asm.energy(u) == energy
    got_energy, got_g = asm.energy_grad(u)
    assert got_energy == energy and np.array_equal(got_g, g)
    assert np.array_equal(asm.hessian(u, free).data, data)
    sol = solver.GraphSolution(domain=dom, u=u, params=params,
                               residual_norm=0.0, newton_iters=0)
    nodal, got_g = sol._gradients()
    assert np.array_equal(nodal, _reference_nodal_gradients(asm, u))
    assert np.array_equal(got_g, g)


def _reference_geometry(dom, params):
    """Area, b gradients, quadrature points and lambda built element-major,
    (E, 3, 2) and (E, 3), one corner at a time as first written."""
    p = dom.nodes[dom.elements]                              # (E, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    b = np.empty((dom.elements.shape[0], 3, 2))
    q = np.empty_like(b)
    for i in range(3):
        d = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        b[:, i, 0] = -d[:, 1]
        b[:, i, 1] = d[:, 0]
        q[:, i] = (p[:, i] + p[:, (i + 1) % 3]) / 2.0
    lam = conformal_factor_xy(q[:, :, 0], q[:, :, 1], params.kappa)
    return area2 / 2.0, b / area2[:, None, None], q, lam


def _reference_hessian_vector(asm, u, v):
    """H(u) v as first written on (E, 3) arrays: the element gradients of v
    by einsum, .sum(axis=1) over the quadrature and np.add.at for the
    scatter."""
    alpha, beta, w = _element_major_tilt(asm, u)
    bgrad = _element_major(asm)[0]
    coef = asm.area[:, None] / 3.0
    hxx = (coef * (1.0 / w - alpha ** 2 / w ** 3)).sum(axis=1)[:, None]
    hxy = (coef * (-alpha * beta / w ** 3)).sum(axis=1)[:, None]
    hyy = (coef * (1.0 / w - beta ** 2 / w ** 3)).sum(axis=1)[:, None]
    gx, gy = np.einsum("ei,eid->ed", v[asm.elems], bgrad).T[:, :, None]
    hv = ((hxx * gx + hxy * gy) * bgrad[:, :, 0]
          + (hxy * gx + hyy * gy) * bgrad[:, :, 1])
    out = np.zeros(asm.n)
    np.add.at(out, asm.elems.ravel(), hv.ravel())
    return out


# (a, b, k, R_trunc): a finite triangle and noid's ideal one
_KERNEL_MESHES = {"finite": (1.0, 1.0, 2, None), "ideal": (math.inf, 2.0, 2, 4.0)}


@pytest.mark.parametrize("H", [0.4, 0.0])
@pytest.mark.parametrize("shape", sorted(_KERNEL_MESHES))
def test_assembly_geometry_is_bit_identical_to_the_element_major_build(shape, H):
    a, b, k, r_trunc = _KERNEL_MESHES[shape]
    dom = triangulate(build_triangle(a, b, k, 4 * H * H - 1), 0.1, r_trunc)
    params = SpaceParams.from_h(H)
    got = (solver._Assembly(dom, params).area,
           *_element_major(solver._Assembly(dom, params)))
    for want, have in zip(_reference_geometry(dom, params), got):
        # tobytes also tells -0.0 from 0.0
        assert have.shape == want.shape and have.tobytes() == want.tobytes()


@pytest.mark.parametrize("H", [0.4, 0.0])
@pytest.mark.parametrize("shape", sorted(_KERNEL_MESHES))
def test_hessian_vector_is_bit_identical_to_the_element_major_kernel(shape, H):
    a, b, k, r_trunc = _KERNEL_MESHES[shape]
    dom = triangulate(build_triangle(a, b, k, 4 * H * H - 1), 0.1, r_trunc)
    asm = solver._Assembly(dom, SpaceParams.from_h(H))
    u, v = np.random.default_rng(29).normal(size=(2, dom.n_nodes))
    assert np.array_equal(asm.hessian_vector(u, v),
                          _reference_hessian_vector(asm, u, v))


def test_a_fresh_assembly_holds_at_most_128_bytes_per_element():
    """bx, by, qx, qy, lam (3 doubles each) and area: 16 doubles per
    element.  The mesh's own arrays, such as elements, are not counted; a
    cached area / 3 or a transposed copy of the elements would not fit."""
    dom = triangulate(build_triangle(math.inf, 2.0, 2, 4 * 0.4 ** 2 - 1),
                      0.05, 4.0)
    asm = solver._Assembly(dom, SpaceParams.from_h(0.4))
    owned = [a for a in vars(dom).values() if isinstance(a, np.ndarray)]
    held = {}
    stack = list(vars(asm).values())
    while stack:
        a = stack.pop()
        if isinstance(a, (tuple, list)):
            stack.extend(a)
        elif isinstance(a, np.ndarray) and not any(np.shares_memory(a, m)
                                                   for m in owned):
            while isinstance(a.base, np.ndarray):
                a = a.base
            held[id(a)] = a.nbytes
    assert sum(held.values()) <= 128 * dom.elements.shape[0]


def test_one_tilt_per_distinct_array_in_a_newton_solve(monkeypatch):
    def record(name, log):
        real = getattr(solver._Assembly, name)

        def wrapped(self, u, *args):
            log.append(np.asarray(u, dtype=float).tobytes())
            return real(self, u, *args)
        monkeypatch.setattr(solver._Assembly, name, wrapped)

    tilts, evaluated = [], []
    record("_tilted", tilts)
    for name in ("energy", "energy_grad", "hessian"):
        record(name, evaluated)
    dom = triangulate(build_triangle(1.0, 1.0, 2, 4 * 0.4 ** 2 - 1), 0.08)
    sol = solve_dirichlet(dom, _js_data(4.0), params=SpaceParams.from_h(0.4))
    assert sol.newton_iters > 2
    assert len(tilts) == len(set(evaluated)) < len(evaluated)


def test_hessian_pattern_is_built_once_per_mesh_over_a_schedule(monkeypatch):
    calls = []
    real = solver._Assembly._free_pattern

    def counted(self, free):
        calls.append(self.domain.n_nodes)
        return real(self, free)

    monkeypatch.setattr(solver._Assembly, "_free_pattern", counted)
    sols = solve_jenkins_serrin(1.0, 1.0, 2, 0.4, [2.0, 4.0, 8.0, 16.0], 0.08)
    assert all(s.newton_iters > 1 for s in sols)
    # one build on the 4h coarse mesh, one on the fine mesh for all four M
    assert len(calls) == 2 and calls[1] == sols[0].domain.n_nodes > calls[0]


def test_no_assembly_of_a_sweep_outlives_it(monkeypatch):
    made = []
    real = solver._Assembly.__init__

    def recorded(self, domain, params):
        made.append(weakref.ref(self))
        real(self, domain, params)

    monkeypatch.setattr(solver._Assembly, "__init__", recorded)
    sols = solve_jenkins_serrin(1.0, 1.0, 2, 0.4, [2.0, 4.0, 8.0], 0.08)
    # the coarse start's and the schedule's; neither is cached on the mesh
    assert len(made) == 2 and len(sols) == 3
    assert [ref() for ref in made] == [None, None]


def test_an_assembly_of_another_mesh_is_refused():
    dom = flat_triangle(0.1)
    with pytest.raises(SolverError, match="another mesh"):
        solve_dirichlet(dom, ZERO, FLAT_HALF,
                        assembly=solver._Assembly(flat_triangle(0.1), FLAT_HALF))
    with pytest.raises(SolverError, match="another mesh"):
        solve_dirichlet(dom, ZERO, FLAT_HALF,
                        assembly=solver._Assembly(dom, SpaceParams(kappa=0.0, tau=0.25)))


def test_linear_interpolant_matches_scipy_bit_for_bit():
    dom = triangulate(build_triangle(1.0, 1.0, 2, 4 * 0.4 ** 2 - 1), 0.05)
    rng = np.random.default_rng(5)
    u = rng.normal(size=dom.n_nodes)
    lo, hi = dom.nodes.min(axis=0), dom.nodes.max(axis=0)
    box = rng.uniform(lo - 0.1, hi + 0.1, size=(4000, 2))
    a, b = dom.elements[:, 0], dom.elements[:, 1]
    t = rng.uniform(size=(a.size, 1))
    on_edges = t * dom.nodes[a] + (1.0 - t) * dom.nodes[b]
    got_fn = solver._linear_interpolant(dom.nodes, u)
    want_fn = LinearNDInterpolator(dom.nodes, u)
    for probes in (box, on_edges, dom.nodes):
        got, want = got_fn(probes), want_fn(probes)
        assert np.array_equal(got, want, equal_nan=True)
    outside = np.isnan(want_fn(box))
    assert 0 < outside.sum() < box.shape[0]   # probes on both sides of the hull
    assert not np.isnan(got_fn(on_edges)).any()


def test_coarse_start_matches_the_scipy_interpolants():
    # an ideal vertex cut at R_trunc: some fine nodes lie outside the
    # coarse hull, so both the linear and the nearest path run
    dom = triangulate(build_triangle(math.inf, 2.0, 2, 4 * 0.4 ** 2 - 1),
                      0.1, 4.0)
    params = SpaceParams.from_h(0.4)
    coarse = triangulate(dom.triangle, 0.4, 4.0)
    coarse_u = solve_dirichlet(coarse, _js_data(2.0), params=params).u
    want = LinearNDInterpolator(coarse.nodes, coarse_u)(dom.nodes)
    outside = np.isnan(want)
    assert outside.any()
    want[outside] = NearestNDInterpolator(coarse.nodes, coarse_u)(
        dom.nodes[outside])
    got = solver._coarse_start(dom, _js_data(2.0), params)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("schedule,builds", [([2.0, 4.0], 2),
                                             ([2.0, 4.0, 8.0, 16.0], 2)],
                         ids=["2-M", "4-M"])
def test_post_processing_builds_one_assembly_per_solution_it_reads(
        monkeypatch, schedule, builds):
    # d and rho read the last two solutions only
    sols = solve_jenkins_serrin(1.0, 1.0, 2, 0.4, schedule, 0.08)
    calls = []
    real = solver._Assembly.__init__

    def counted(self, domain, params):
        calls.append(1)
        real(self, domain, params)

    monkeypatch.setattr(solver._Assembly, "__init__", counted)
    distance_d(sols)
    rho_estimate(sols)
    solution_csv_lines(sols[-1])
    assert len(calls) == builds


def test_boundary_mass_matches_the_edge_loop():
    dom = triangulate(build_triangle(1.0, 1.5, 3, -0.75), 0.05)
    edges = dom.boundary_edges()
    want = np.zeros(dom.n_nodes)
    for i, j in edges:
        ell = float(np.hypot(*(dom.nodes[i] - dom.nodes[j])))
        want[i] += 0.5 * ell
        want[j] += 0.5 * ell
    assert np.array_equal(solver._boundary_mass(dom.nodes, edges), want)


def test_coarse_sweep_completes():
    # warm-started from the bare previous solution, the M = 16 solve on this
    # coarse mesh stalled its line search with the residual at 2.5e-9, just
    # above the absolute tol; a predicted start is close enough
    sols = solve_jenkins_serrin(1, 1, 2, 0.4, [2, 4, 8, 16], 0.08)
    assert [s.M for s in sols] == [2.0, 4.0, 8.0, 16.0]
    assert all(s.residual_norm < 1e-9 for s in sols)
    assert not any(s.discretization_failure for s in sols)


def test_solver_error_carries_its_context(monkeypatch):
    # every trial energy is rejected, so the first line search stalls
    monkeypatch.setattr(solver._Assembly, "energy", lambda self, u: math.inf)
    with pytest.raises(SolverError, match="line search stalled") as info:
        solve_jenkins_serrin(1.0, 1.0, 2, 0.4, [2.0, 4.0], 0.08)
    err = info.value
    assert set(err.context) == {"M", "iteration", "residual", "energy",
                                "step_norm"}
    assert err.context["M"] == 2.0 and err.context["iteration"] == 0
    assert err.context["residual"] > 1e-9
    assert err.context["step_norm"] > 0.0
    assert math.isfinite(err.context["energy"])
    assert "M=2.0" in str(err) and "iteration=0" in str(err)


def test_newton_checks_the_iterate_its_last_step_reaches(monkeypatch):
    dom = triangulate(build_triangle(1.0, 1.0, 2, 4 * 0.4 ** 2 - 1), 0.08)
    solve = lambda: solve_dirichlet(dom, _js_data(4.0), SpaceParams.from_h(0.4))
    n = solve().newton_iters
    assert n > 2
    monkeypatch.setattr(solver, "_MAX_ITERS", n)
    assert solve().newton_iters == n
    monkeypatch.setattr(solver, "_MAX_ITERS", n - 1)
    with pytest.raises(SolverError, match="Newton did not reach") as info:
        solve()
    assert info.value.context["iteration"] == n - 1
    assert info.value.context["residual"] >= 1e-9


def test_solve_input_validation():
    with pytest.raises(SolverError):
        solve_jenkins_serrin(1.0, 1.0, 2, 0.7, [2.0], 0.05)
    with pytest.raises(SolverError):
        solve_jenkins_serrin(1.0, 1.0, 2, 0.25, [2.0, 2.0], 0.05)
    with pytest.raises(SolverError):
        solve_jenkins_serrin(1.0, 1.0, 2, 0.25, [], 0.05)
    with pytest.raises(SolverError):
        solve_jenkins_serrin(1.0, 1.0, 2, 0.25, [2.0], 0.05, m_sign=0)
    with pytest.raises(SolverError):
        distance_d([])
    with pytest.raises(SolverError):
        rho_estimate([])


def test_dirichlet_callables_see_each_tag_once_as_arrays():
    dom = flat_triangle(0.1)
    calls = []

    def shear(x, y):
        calls.append(np.column_stack([x, y]))
        return 0.5 * x * y

    data = {"side_p0p1": 0.0, "side_p0p2": shear, "side_p1p2": shear}
    fixed, vals = solver._dirichlet_arrays(dom, data)
    # one call per tag, in TAGS order, on that tag's nodes in ascending order
    assert len(calls) == 2
    for pts, tag in zip(calls, ("side_p0p2", "side_p1p2")):
        assert np.array_equal(pts, dom.nodes[dom.nodes_with_tag(tag)])
    assert np.array_equal(fixed, np.flatnonzero(dom.tags >= 0))
    x, y = dom.nodes[fixed].T
    on_leg = np.isin(fixed, dom.nodes_with_tag("side_p0p1"))
    assert np.array_equal(vals, np.where(on_leg, 0.0, 0.5 * x * y))
    with pytest.raises(SolverError, match="non-finite Dirichlet value on side_p1p2"):
        solver._dirichlet_arrays(
            dom, {"side_p0p1": 0.0,
                  "side_p1p2": lambda x, y: np.where(x > 0.5, np.nan, 0.0)})
    with pytest.raises(TypeError):
        solve_dirichlet(dom, ZERO)  # the space is not read off the mesh


def _counted_splu(monkeypatch, fail_symmetric=False):
    """Route solver.splu through a counter; with fail_symmetric, the
    symmetric-mode call raises as SuperLU does on a zero pivot."""
    calls = []
    real = solver.splu

    def counted(h, **kwargs):
        calls.append(kwargs)
        if fail_symmetric and kwargs:
            raise RuntimeError("Factor is exactly singular")
        return real(h, **kwargs)

    monkeypatch.setattr(solver, "splu", counted)
    return calls


def test_simplified_newton_factorizes_less_than_it_iterates(monkeypatch):
    calls = _counted_splu(monkeypatch)
    sols = solve_jenkins_serrin(1.0, 1.0, 2, 0.4, [2.0, 4.0, 8.0, 16.0], 0.05)
    # the count includes the coarse start's factorizations
    assert len(calls) < sum(s.newton_iters for s in sols)
    assert all(s.residual_norm < 1e-9 for s in sols)


def test_refactoring_every_iteration_keeps_d_and_rho(monkeypatch):
    ms = [2.0, 4.0, 8.0, 16.0]
    calls = _counted_splu(monkeypatch)
    simplified = solve_jenkins_serrin(1.0, 1.0, 2, 0.4, ms, 0.05)
    n_simplified = len(calls)
    monkeypatch.setattr(solver, "_THETA", 0.0)
    full = solve_jenkins_serrin(1.0, 1.0, 2, 0.4, ms, 0.05)
    assert len(calls) - n_simplified > n_simplified
    assert abs(distance_d(simplified) - distance_d(full)) < 1e-8
    assert abs(rho_estimate(simplified) - rho_estimate(full)) < 1e-8


@pytest.mark.parametrize("H", [0.4, 0.0])
def test_hessian_vector_product_matches_the_full_hessian(H):
    dom = triangulate(build_triangle(1.0, 1.0, 2, 4 * H * H - 1), 0.08)
    params = SpaceParams.from_h(H)
    u, v = np.random.default_rng(23).normal(size=(2, dom.n_nodes))
    every = np.arange(dom.n_nodes)
    want = solver._Assembly(dom, params).hessian(u, every) @ v
    got = solver._Assembly(dom, params).hessian_vector(u, v)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_tangent_is_the_derivative_of_the_solution_in_m():
    dom = triangulate(build_triangle(1.0, 1.0, 2, 4 * 0.4 ** 2 - 1), 0.08)
    params = SpaceParams.from_h(0.4)
    asm = solver._Assembly(dom, params)
    v = np.zeros(dom.n_nodes)  # du/dM of the data _js_data(M)
    v[dom.nodes_with_tag("side_p1p2")] = 1.0
    sol = solve_dirichlet(dom, _js_data(4.0), params=params, assembly=asm)
    assert asm.lu is not None
    tangent = asm.tangent(sol.u, v)
    assert asm.lu is None
    delta = 1e-2
    up, down = (solve_dirichlet(dom, _js_data(4.0 + s), params=params,
                                initial=sol.u).u for s in (delta, -delta))
    central = (up - down) / (2 * delta)
    # the LU the solve left is of an iterate near, not at, the solution
    assert np.max(np.abs(tangent - central)) <= 1e-4 * np.max(np.abs(central))
    # a solve that starts converged leaves no LU; the tangent factorizes at u
    again = solve_dirichlet(dom, _js_data(4.0), params=params,
                            initial=sol.u, assembly=asm)
    assert again.newton_iters == 0 and asm.lu is None
    fresh = asm.tangent(sol.u, v)
    assert np.max(np.abs(fresh - central)) <= 1e-6 * np.max(np.abs(central))


def test_tangent_predictor_factorizes_at_most_twice_per_later_m(monkeypatch):
    calls = _counted_splu(monkeypatch)
    starts = []
    real = solver.solve_dirichlet

    def marked(*args, **kwargs):
        starts.append(len(calls))
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_dirichlet", marked)
    sols = solve_jenkins_serrin(1.0, 1.0, 2, 0.4, [2.0, 4.0, 8.0, 16.0], 0.03)
    # factorizations from each M's solve to the next, its tangent included;
    # the secant predictor took 3, 2, 2 and 7 + 6 + 5 iterations
    per_m = np.diff(starts + [len(calls)])
    assert len(per_m) == 4 and all(per_m[1:] <= 2)
    assert sum(s.newton_iters for s in sols[1:]) <= 14


class _Factors:
    """SuperLU result behind a weak-referenceable handle: the solver keeps
    only what splu returns, so the handle lives exactly as long as the LU."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs)


def test_one_lu_is_alive_at_a_time_and_none_after_the_sweep(monkeypatch):
    made, alive_at_new, tangents = [], [], []
    real_splu, real_tangent = solver.splu, solver._Assembly.tangent

    def wrapped(h, **kwargs):
        alive_at_new.append(sum(ref() is not None for ref in made))
        lu = _Factors(real_splu(h, **kwargs))
        made.append(weakref.ref(lu))
        return lu

    def tangent(self, u, v):
        tangents.append(self.lu is not None)
        return real_tangent(self, u, v)

    monkeypatch.setattr(solver, "splu", wrapped)
    monkeypatch.setattr(solver._Assembly, "tangent", tangent)
    solve_jenkins_serrin(1.0, 1.0, 2, 0.4, [2.0, 4.0, 8.0], 0.05)
    assert len(made) > 3 and alive_at_new == [0] * len(made)
    # one tangent per M but the last, each solved with the LU its solve left
    assert tangents == [True, True]
    assert all(ref() is None for ref in made)
    tangents.clear()
    solve_jenkins_serrin(1.0, 1.0, 2, 0.4, [2.0], 0.05)
    assert tangents == [] and alive_at_new == [0] * len(made)
    assert all(ref() is None for ref in made)


def test_nested_dissection_order_is_one_permutation_per_mesh():
    dom = triangulate(build_triangle(1.0, 1.0, 2, 4 * 0.4 ** 2 - 1), 0.03)
    order = solver._nd_order(dom)
    assert np.array_equal(np.sort(order), np.arange(dom.n_nodes))
    assert solver._nd_order(dom) is order and not order.flags.writeable
    fresh = dataclasses.replace(dom)
    assert np.array_equal(solver._nd_order(fresh), order)
    is_free = dom.tags < 0
    free = order[is_free[order]]
    u = np.random.default_rng(5).normal(size=dom.n_nodes)
    h = solver._Assembly(dom, SpaceParams.from_h(0.4)).hessian(u, free)
    rhs = np.random.default_rng(6).normal(size=free.size)
    x = solver._factorize(h).solve(rhs)
    assert np.linalg.norm(h @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def _recursive_nd(ids, pts, a, b, leaf):
    """Reference nested dissection, one part per call: low half less the
    separator, high half, separator."""
    if ids.size <= leaf:
        return [ids]
    axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
    high = np.zeros(ids.size, dtype=bool)
    high[np.argsort(pts[:, axis], kind="stable")[ids.size // 2:]] = True
    sep = np.zeros(ids.size, dtype=bool)
    sep[a[high[b] & ~high[a]]] = True
    sep[b[high[a] & ~high[b]]] = True
    out = []
    for part in (~high & ~sep, high):
        keep = part[a] & part[b]
        local = np.cumsum(part) - 1
        out += _recursive_nd(ids[part], pts[part], local[a[keep]],
                             local[b[keep]], leaf)
    return out + [ids[sep]]


@pytest.mark.parametrize("h", [0.05, 0.02])
def test_levelwise_dissection_matches_the_recursive_definition(h):
    dom = triangulate(build_triangle(1.0, 1.0, 2, 4 * 0.4 ** 2 - 1), h)
    e = dom.elements
    ref = np.concatenate(_recursive_nd(np.arange(dom.n_nodes), dom.nodes,
                                       e.ravel(), e[:, [1, 2, 0]].ravel(),
                                       solver._ND_LEAF))
    assert np.array_equal(solver._dissect(dom.nodes, e), ref)


def test_failed_symmetric_factorization_falls_back_to_plain_splu(monkeypatch):
    calls = _counted_splu(monkeypatch, fail_symmetric=True)
    sol = solve_dirichlet(flat_triangle(0.1), _js_data(2.0), params=FLAT_HALF)
    assert sol.residual_norm < 1e-9
    assert len(calls) >= 2 and calls[1::2] == [{}] * (len(calls) // 2)
    assert all(kw["permc_spec"] == "NATURAL" for kw in calls[::2])


def test_step_below_energy_round_off_is_taken_whole():
    # the Armijo term 1e-4 * 1e-20 is far below eps * |E|, so the energy,
    # here one ulp higher at every trial, cannot rank the step
    higher = types.SimpleNamespace(energy=lambda u: 1.0 + 2.3e-16)
    u, free, step = np.zeros(3), np.array([0, 2]), np.array([1e-10, -1e-10])
    got = solver._armijo(higher, u, free, step, 1.0, -1e-20)
    assert np.array_equal(got, [1e-10, 0.0, -1e-10])
    assert solver._armijo(higher, u, free, step, 1.0, -1e-6) is None


def test_stalled_stale_step_is_retried_with_a_fresh_factorization(monkeypatch):
    # make every line search on a stale step stall; each iteration then
    # falls through to a fresh factorization and the solve still converges
    events = []
    real_factorize, real_armijo = solver._factorize, solver._armijo

    def factorize(h):
        events.append("factor")
        return real_factorize(h)

    def armijo(*args):
        stale = events[-1] != "factor"
        events.append("stale" if stale else "fresh")
        return None if stale else real_armijo(*args)

    monkeypatch.setattr(solver, "_factorize", factorize)
    monkeypatch.setattr(solver, "_armijo", armijo)
    sol = solve_dirichlet(flat_triangle(0.05), _js_data(2.0), params=FLAT_HALF)
    assert sol.residual_norm < 1e-9
    assert "stale" in events
    assert events.count("fresh") == sol.newton_iters
