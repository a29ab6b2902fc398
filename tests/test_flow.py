"""Explicit normalized p-Laplacian evolution.

The scheme is forward Euler under a CFL bound; at p=2 it must reproduce
the half-speed heat semi-discretization to round-off, and for eigenfunction
initial data the sup-norm decays at the first eigenvalue's rate (pi^2/8 for
the 1-D Dirichlet cosine on (-1,1), pi^2/2 for its Neumann sibling on
(0,1), the shot radial eigenvalue on a disc).  The discrete comparison
principle and 1-homogeneity hold exactly for smooth ordered data.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from plaplab import flow
from plaplab.fields import ScalarField, build_grid
from plaplab.flow import (
    FlowConfig,
    FlowError,
    cfl_limit,
    decay_rate,
    run_flow,
    step_flow,
)
from plaplab.geometry import Domain
from plaplab.radial import radial_eigen_shoot


@pytest.fixture(scope="module")
def square32():
    return build_grid(Domain.unit_square(), 32)


@pytest.fixture(scope="module")
def sine_mode(square32):
    return ScalarField.from_function(
        square32, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))


# ---------------------------------------------------------------------------
# stability bound and configuration


def test_cfl_limit_values(square32):
    h2 = square32.h ** 2
    assert cfl_limit(square32, 2.0) == pytest.approx(0.4 * h2, rel=1e-14)
    assert cfl_limit(square32, 4.0) == pytest.approx(0.2 * (4.0 / 3.0) * h2,
                                                     rel=1e-14)
    # both degenerate ends run at diffusion coefficient one
    assert cfl_limit(square32, 1.0) == pytest.approx(0.2 * h2, rel=1e-14)
    assert cfl_limit(square32, math.inf) == pytest.approx(0.2 * h2, rel=1e-14)
    with pytest.raises(FlowError):
        cfl_limit(square32, 0.5)


def test_flow_config_validation(square32):
    with pytest.raises(FlowError):
        FlowConfig(bc="periodic")
    with pytest.raises(FlowError):
        FlowConfig(dt=0.0)
    with pytest.raises(FlowError):
        FlowConfig(t_end=0.0)
    with pytest.raises(FlowError):
        FlowConfig(delta=-1.0)
    # NaN and inf pass a sign test: each must be rejected as not finite
    for bad in (math.nan, math.inf):
        for option in ("dt", "delta", "t_end"):
            with pytest.raises(FlowError):
                FlowConfig(**{option: bad})
    cfg = FlowConfig(p=2.0)
    assert cfg.resolve_dt(square32) == pytest.approx(cfl_limit(square32, 2.0))
    with pytest.raises(FlowError):
        FlowConfig(p=2.0, dt=1.0).resolve_dt(square32)


def test_step_rejects_unstable_dt(square32, sine_mode):
    with pytest.raises(FlowError):
        step_flow(sine_mode, 2.0, 2.0 * cfl_limit(square32, 2.0))
    # and a regularization outside [0, inf), at p = 2 and at p != 2
    for p in (2.0, 4.0):
        for delta in (-1e-6, math.inf, math.nan):
            with pytest.raises(FlowError):
                step_flow(sine_mode, p, cfl_limit(square32, p), delta=delta)


def test_neumann_needs_lattice_filling_domain(monkeypatch):
    grid = build_grid(Domain.disc((0.0, 0.0), 1.0), 32)
    u = ScalarField.from_function(grid, lambda x, y: np.ones_like(x))
    with pytest.raises(FlowError):
        step_flow(u, 2.0, cfl_limit(grid, 2.0), bc="neumann")

    def no_step(*args):
        raise AssertionError("a step was taken before the domain check")

    monkeypatch.setattr(flow, "_normalized_stencil", no_step)
    with pytest.raises(FlowError):
        run_flow(u, FlowConfig(p=2.0, bc="neumann", t_end=1.0))


# ---------------------------------------------------------------------------
# exact invariants


def test_zero_data_stays_zero_and_fit_degrades_gracefully(square32):
    zero = ScalarField.from_function(square32, lambda x, y: np.zeros_like(x))
    run = run_flow(zero, FlowConfig(p=3.0, t_end=0.01))
    assert run.final.sup_norm() == 0.0
    assert run.fitted_rate is None and run.fit_r2 is None
    with pytest.raises(FlowError):
        decay_rate(run)


def test_dirichlet_boundary_pinned_throughout(square32, sine_mode):
    run = run_flow(sine_mode, FlowConfig(p=4.0, t_end=0.01),
                   snapshot_times=(0.005,))
    assert np.all(run.final.values[square32.boundary] == 0.0)
    t, snap = run.snapshots[0]
    assert abs(t - 0.005) <= run.dt
    assert np.all(snap.values[square32.boundary] == 0.0)


def test_neumann_preserves_constants_exactly(square32):
    const = ScalarField.from_function(square32, lambda x, y: np.full_like(x, 2.5))
    u = const.copy()
    dt = cfl_limit(square32, 3.0)
    for _ in range(50):
        u = step_flow(u, 3.0, dt, bc="neumann")
    assert np.array_equal(u.values, const.values)


def test_neumann_linear_data_static_away_from_edges(square32):
    lin = ScalarField.from_function(square32, lambda x, y: 2.0 * x - y)
    out = step_flow(lin, 2.0, cfl_limit(square32, 2.0), bc="neumann")
    deep = np.zeros_like(square32.interior)
    deep[2:-2, 2:-2] = True
    assert np.array_equal(out.values[deep], lin.values[deep])


def test_p2_flow_is_half_speed_heat_equation(square32):
    u0 = ScalarField.from_function(
        square32, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        + 0.3 * np.sin(2.0 * np.pi * x) * np.sin(np.pi * y))
    dt = cfl_limit(square32, 2.0)
    h2 = square32.h ** 2
    v = u0.copy()
    w = u0.values.copy()
    for _ in range(200):
        v = step_flow(v, 2.0, dt, delta=0.0)
        lap = np.zeros_like(w)
        lap[1:-1, 1:-1] = (w[2:, 1:-1] + w[:-2, 1:-1] + w[1:-1, 2:]
                           + w[1:-1, :-2] - 4.0 * w[1:-1, 1:-1]) / h2
        w = np.where(square32.interior, w + 0.5 * dt * lap, 0.0)
    assert float(np.max(np.abs(v.values - w))) < 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_p2_neumann_flow_is_mirror_ghost_heat_equation(dim):
    # independent of the flow code: np.pad's reflection gives the ghosts
    if dim == 1:
        grid = build_grid(Domain.interval(0.0, 1.0), 64)
        u0 = ScalarField.from_function(
            grid, lambda x: np.cos(np.pi * x) + 0.4 * x * x)
    else:
        grid = build_grid(Domain.unit_square(), 32)
        u0 = ScalarField.from_function(
            grid, lambda x, y: np.cos(np.pi * x) + 0.3 * np.cos(2.0 * np.pi * y)
            + 0.2 * x * y)
    dt = cfl_limit(grid, 2.0)
    steps = 200
    run = run_flow(u0, FlowConfig(p=2.0, bc="neumann", delta=0.0,
                                  t_end=steps * dt))
    assert len(run.times) == steps + 1
    h2 = grid.h ** 2
    w = u0.values.copy()
    for _ in range(steps):
        g = np.pad(w, 1, mode="reflect")
        if dim == 1:
            lap = (g[2:] + g[:-2] - 2.0 * g[1:-1]) / h2
        else:
            lap = (g[2:, 1:-1] + g[:-2, 1:-1] + g[1:-1, 2:] + g[1:-1, :-2]
                   - 4.0 * g[1:-1, 1:-1]) / h2
        w = w + 0.5 * dt * lap
    assert float(np.max(np.abs(run.final.values - w))) < 1e-12


def _five_point_sum(w):
    """``(u_N - 2u + u_S) + (u_E - 2u + u_W)`` (one term in 1-D) on the
    inner block of ``w``, evaluated left to right."""
    c = np.s_[1:-1]
    if w.ndim == 1:
        return w[2:] - 2.0 * w[c] + w[:-2]
    return ((w[2:, c] - 2.0 * w[c, c] + w[:-2, c])
            + (w[c, 2:] - 2.0 * w[c, c] + w[c, :-2]))


@pytest.mark.parametrize("domain, bc", [("square", "dirichlet"),
                                        ("disc", "dirichlet"),
                                        ("square", "neumann"),
                                        ("interval", "neumann")])
def test_p2_flow_is_the_five_point_heat_step_bit_for_bit(domain, bc):
    # u + dt/(2h^2) (five-point sum), with the collar pinned after each step
    # or the ghosts mirrored by np.pad before it
    u0 = _flow_case(domain)
    grid = u0.grid
    dt = cfl_limit(grid, 2.0)
    steps = 200
    run = run_flow(u0, FlowConfig(p=2.0, bc=bc, t_end=steps * dt))
    assert len(run.times) == steps + 1
    coeff = dt / (2.0 * grid.h * grid.h)
    w = u0.values.copy()
    sups = [float(np.max(np.abs(w)))]
    for _ in range(steps):
        if bc == "neumann":
            w = w + coeff * _five_point_sum(np.pad(w, 1, mode="reflect"))
        else:
            step = w.copy()
            step[(np.s_[1:-1],) * grid.dim] += coeff * _five_point_sum(w)
            w = np.where(grid.interior, step, 0.0)
        sups.append(float(np.max(np.abs(w))))
    assert np.array_equal(run.final.values, w)
    assert np.array_equal(run.sup_trace, sups)


def test_p4_neumann_flow_matches_a_mirror_ghost_oracle():
    # every step rebuilt from np.pad's reflection and the normalized
    # expression in scaled central derivatives, independently of the flat
    # stencil kernel and of the stepper's ghost copies
    grid = build_grid(Domain.unit_square(), 32)
    u0 = ScalarField.from_function(
        grid, lambda x, y: np.cos(np.pi * x) + 0.3 * np.cos(2.0 * np.pi * y)
        + 0.2 * x * y)
    p = 4.0
    dt = cfl_limit(grid, p)
    steps = 100
    run = run_flow(u0, FlowConfig(p=p, bc="neumann", t_end=steps * dt))
    h = grid.h
    w = u0.values.copy()
    for _ in range(steps):
        g = np.pad(w, 1, mode="reflect")
        c = np.s_[1:-1]
        ux = (g[2:, c] - g[:-2, c]) / (2.0 * h)
        uy = (g[c, 2:] - g[c, :-2]) / (2.0 * h)
        uxx = (g[2:, c] - 2.0 * g[c, c] + g[:-2, c]) / h**2
        uyy = (g[c, 2:] - 2.0 * g[c, c] + g[c, :-2]) / h**2
        uxy = (g[2:, 2:] - g[2:, :-2] - g[:-2, 2:] + g[:-2, :-2]) / (4.0 * h**2)
        denom = ux**2 + uy**2 + run.delta**2
        unn = (ux**2 * uxx + 2.0 * ux * uy * uxy + uy**2 * uyy) / denom
        w = w + dt * ((p - 1.0) / p * unn + (uxx + uyy - unn) / p)
    assert float(np.max(np.abs(run.final.values - w))) <= 1e-12 * float(np.max(np.abs(w)))


def test_dirichlet_disc_collar_and_exterior_stay_zero_at_every_snapshot():
    grid = build_grid(Domain.disc((0.0, 0.0), 1.0), 32)
    # nonzero on the collar, so the first step must pin it
    u0 = ScalarField.from_function(
        grid, lambda x, y: np.cos(0.4 * np.pi * np.hypot(x, y)) * (1.0 + 0.3 * x))
    assert np.any(u0.values[grid.boundary] != 0.0)
    dt = cfl_limit(grid, 4.0)
    run = run_flow(u0, FlowConfig(p=4.0, t_end=40 * dt),
                   snapshot_times=dt * np.arange(1, 41))
    assert len(run.snapshots) == 40
    for _, snap in run.snapshots + [(run.times[-1], run.final)]:
        assert np.all(snap.values[~grid.interior] == 0.0)
        assert np.all(snap.values[grid.interior] > 0.0)


def _flow_case(domain: str):
    if domain == "interval":
        grid = build_grid(Domain.interval(0.0, 1.0), 40)
        return ScalarField.from_function(
            grid, lambda x: np.cos(np.pi * x) + 0.5 * x + 0.2)
    if domain == "square":
        grid = build_grid(Domain.unit_square(), 24)
    else:
        grid = build_grid(Domain.disc((0.0, 0.0), 1.0), 24)
    # nonzero on the collar, so the first Dirichlet step must pin it
    return ScalarField.from_function(
        grid, lambda x, y: np.cos(np.pi * x) * (1.0 + 0.5 * y) + 0.3 * x * x)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
@pytest.mark.parametrize("domain, bc", [("interval", "dirichlet"),
                                        ("interval", "neumann"),
                                        ("square", "dirichlet"),
                                        ("square", "neumann"),
                                        ("disc", "dirichlet")])
def test_run_flow_matches_repeated_step_flow(domain, bc, p):
    u0 = _flow_case(domain)
    before = u0.values.copy()
    dt = cfl_limit(u0.grid, p)
    steps = 30
    run = run_flow(u0, FlowConfig(p=p, bc=bc, t_end=steps * dt),
                   snapshot_times=(10 * dt, 20 * dt))
    assert np.array_equal(u0.values, before)
    assert len(run.times) == steps + 1
    u = u0
    by_step = {0: u0}
    sups = [u0.sup_norm()]
    for k in range(1, steps + 1):
        u = step_flow(u, p, dt, run.delta, bc)
        by_step[k] = u
        sups.append(u.sup_norm())
    tol = 1e-14 * max(sups)
    assert float(np.max(np.abs(run.final.values - u.values))) <= tol
    assert np.allclose(run.sup_trace, sups, rtol=0.0, atol=tol)
    assert [t for t, _ in run.snapshots] == [10 * dt, 20 * dt]
    for (_, snap), k in zip(run.snapshots, (10, 20)):
        assert float(np.max(np.abs(snap.values - by_step[k].values))) <= tol
    arrays = [u0.values, run.final.values] + [s.values for _, s in run.snapshots]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_snapshot_at_time_zero_is_initial_data(square32, sine_mode):
    run = run_flow(sine_mode, FlowConfig(p=4.0, t_end=0.01),
                   snapshot_times=(0.0, 0.4 * cfl_limit(square32, 4.0)))
    assert [t for t, _ in run.snapshots] == [0.0, 0.0]
    for _, snap in run.snapshots:
        assert np.array_equal(snap.values, sine_mode.values)
    assert run.sup_trace[0] == sine_mode.sup_norm()


def test_flow_is_one_homogeneous(square32):
    # data whose critical point falls between nodes: the delta=0 ratio is
    # then well conditioned and scaling u by 3 scales every step exactly
    u0 = ScalarField.from_function(
        square32,
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) * (1.0 + 0.5 * x))
    dt = cfl_limit(square32, 4.0)
    a = u0.copy()
    b = ScalarField(square32, 3.0 * u0.values)
    for _ in range(50):
        a = step_flow(a, 4.0, dt, delta=0.0)
        b = step_flow(b, 4.0, dt, delta=0.0)
    assert np.allclose(b.values, 3.0 * a.values, atol=1e-13)


def test_run_flow_relative_delta_keeps_homogeneity(square32, sine_mode):
    # the default regularization scales with the data, so even a node-exact
    # critical point (where the raw ratio is noise) stays scale-covariant
    cfg = FlowConfig(p=4.0, t_end=0.02)
    a = run_flow(sine_mode, cfg)
    b = run_flow(ScalarField(square32, 3.0 * sine_mode.values), cfg)
    assert np.allclose(b.final.values, 3.0 * a.final.values, atol=1e-13)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0, 32.0, math.inf])
def test_comparison_principle_exact_for_smooth_ordered_data(square32, sine_mode, p):
    below = sine_mode.copy()
    above = ScalarField(square32, np.where(
        square32.interior, sine_mode.values + 0.3 * sine_mode.values ** 2, 0.0))
    dt = cfl_limit(square32, p)
    worst = 0.0
    for _ in range(300):
        below = step_flow(below, p, dt, delta=0.0)
        above = step_flow(above, p, dt, delta=0.0)
        worst = max(worst, float(np.max(below.values - above.values)))
    assert worst <= 0.0


# ---------------------------------------------------------------------------
# decay rates against eigenvalues


def test_interval_dirichlet_cosine_decay_rate():
    grid = build_grid(Domain.interval(-1.0, 1.0), 64)
    u0 = ScalarField.from_function(grid, lambda x: np.cos(0.5 * np.pi * x))
    run = run_flow(u0, FlowConfig(p=2.0, t_end=0.8))
    assert run.fitted_rate == pytest.approx(math.pi**2 / 8.0, rel=1e-3)
    assert run.fit_r2 > 0.99999
    assert np.all(np.diff(run.sup_trace) < 0.0)
    assert decay_rate(run) == (run.fitted_rate, run.fit_r2)


def test_interval_neumann_cosine_decay_rate():
    grid = build_grid(Domain.interval(0.0, 1.0), 64)
    u0 = ScalarField.from_function(grid, lambda x: np.cos(np.pi * x))
    run = run_flow(u0, FlowConfig(p=2.0, bc="neumann", t_end=0.2))
    assert run.fitted_rate == pytest.approx(math.pi**2 / 2.0, rel=1e-3)


def test_disc_decay_rate_matches_radial_eigenvalue():
    grid = build_grid(Domain.disc((0.0, 0.0), 0.5), 48)
    u0 = ScalarField.from_function(
        grid, lambda x, y: np.maximum(0.25 - x**2 - y**2, 0.0))
    run = run_flow(u0, FlowConfig(p=4.0, t_end=0.12))
    shot = radial_eigen_shoot(4.0, 2, 0.5)
    assert run.fitted_rate == pytest.approx(shot.eigenvalue, rel=0.1)
    assert run.fit_r2 > 0.999
