"""Graph operator on closed-form minimal graphs with exact partials."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ektlab.graphs import (arctan_graph, graph_gradient,
                           graph_mean_curvature, shear_graph, umbrella_graph)
from ektlab.spaces import SpaceParams

RNG = np.random.default_rng(81423)


def _disk_samples(kappa: float, n: int = 200):
    """Sample points safely inside the model disk (or a box for kappa=0)."""
    rmax = 1.6 / math.sqrt(-kappa) if kappa < 0 else 1.5
    r = rmax * np.sqrt(RNG.uniform(0.02, 1.0, n))
    t = RNG.uniform(0.0, 2.0 * math.pi, n)
    return r * np.cos(t), r * np.sin(t)


@pytest.mark.parametrize("kappa,tau", [(0.0, 0.5), (-0.75, 0.25), (-1.0, 0.5)])
def test_umbrella_is_minimal_everywhere(kappa, tau):
    params = SpaceParams(kappa=kappa, tau=tau)
    x, y = _disk_samples(kappa)
    h = graph_mean_curvature(umbrella_graph(), x, y, params)
    assert np.max(np.abs(h)) < 1e-8


def test_shear_graph_is_minimal_in_nil():
    params = SpaceParams(kappa=0.0, tau=0.5)
    x, y = _disk_samples(0.0)
    h = graph_mean_curvature(shear_graph(params), x, y, params)
    assert np.max(np.abs(h)) < 1e-8


@pytest.mark.parametrize("kappa,tau", [(-0.75, 0.25), (-1.0, 0.5)])
def test_arctan_graph_is_minimal_on_the_disk(kappa, tau):
    params = SpaceParams(kappa=kappa, tau=tau)
    x, y = _disk_samples(kappa)
    h = graph_mean_curvature(arctan_graph(params), x, y, params)
    assert np.max(np.abs(h)) < 1e-8


def test_arctan_graph_rejects_flat_base():
    with pytest.raises(ValueError):
        arctan_graph(SpaceParams(kappa=0.0, tau=0.5))


def test_graph_gradient_matches_partials_algebra():
    params = SpaceParams(kappa=-0.75, tau=0.25)
    x, y = 0.4, -0.3
    u_x, u_y = 0.7, -0.2
    lam = 1.0 / (1.0 + params.kappa * (x * x + y * y) / 4.0)
    alpha, beta, w = graph_gradient(x, y, u_x, u_y, params)
    assert alpha == pytest.approx(u_x / lam + params.tau * y)
    assert beta == pytest.approx(u_y / lam - params.tau * x)
    assert w == pytest.approx(math.sqrt(1 + alpha**2 + beta**2))


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-1.2, 1.2), y=st.floats(-1.2, 1.2),
       tau=st.floats(0.05, 0.5))
def test_arctan_partials_are_internally_consistent(x, y, tau):
    """The complex-analytic partials match central differences of u itself."""
    params = SpaceParams(kappa=-1.0, tau=tau)
    graph = arctan_graph(params)
    xa, ya = np.array([x]), np.array([y])
    u, u_x, u_y, _, _, _ = graph(xa, ya)
    eps = 1e-6
    dx = (graph(xa + eps, ya)[0] - graph(xa - eps, ya)[0]) / (2 * eps)
    dy = (graph(xa, ya + eps)[0] - graph(xa, ya - eps)[0]) / (2 * eps)
    assert dx[0] == pytest.approx(u_x[0], abs=5e-8, rel=1e-5)
    assert dy[0] == pytest.approx(u_y[0], abs=5e-8, rel=1e-5)
