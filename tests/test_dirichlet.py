"""Variational Dirichlet solvers: torsion, p-harmonic extension, distance.

Anchors: the p=2 torsion center value has a double-sine-series closed form;
affine functions are p-harmonic for every p and must be reproduced to
round-off; the torsion-vs-distance gap shrinks as p grows; the radial
infinity-torsion profile satisfies its ODE to round-off; the energy, its
gradient and the lumped masses equal an element-by-element P1 loop, and the
gradient is the derivative of the energy; the assembled
Hessian is the derivative of the energy gradient and, at p = 2, the
stiffness of an element-by-element P1 assembly; the factored descent metric
is that Hessian plus, for Neumann, the weight-lumped mass shift (the plain
mass shift at p = 2, bit for bit); the gradient's derivative in p
is a central difference in p of an element-loop gradient, and predicted
torsion stage starts keep the plain start's stop target and final field;
the objective that chose a stage's start is handed to the stage, not
computed again.
Nested torsion (n/2 first, where the lattice nests) reaches the direct
ladder's field, records every level coarsest first and stops no looser than
the coarse level; the colour-wise nodal minimization sweep that smooths a
prolonged high-p start never raises the objective, alone converges to the
torsion solution, runs on nested 2-D torsion at p >= ``SMOOTHING_MIN_P``
only and leaves the fine p = 32 stages short; the delta = 0 polish steps at least once, never
ends above its start and ends where a step stops lowering the residual.
Eisenstat-Walker forcing with a per-LU PCG budget reaches the field of fixed
forcing, keeps every LU within its budget, starts each stage and tangent
solve at ``NEWTON_RTOL`` and decides nothing by timing.
The dofs are the dof mask in nested-dissection order, every Hessian is
canonical CSC, and its LU keeps the fill of that order: none on an interval,
no more than the minimum-degree order on the n = 128 square, and none added
by pivoting at a rough iterate.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from plaplab import dirichlet
from plaplab._variational import VariationalCore, make_core
from plaplab.dirichlet import (
    SolverError,
    continuation_ladder,
    distance_field,
    infinity_torsion_ball,
    solve_p_harmonic,
    solve_p_torsion,
    torsion_infinity_gap,
)
from plaplab.eigen import neumann_eigen_first
from plaplab.fields import ScalarField, build_grid, coarse_grid, prolong
from plaplab.geometry import Domain


# ---------------------------------------------------------------------------
# configuration and continuation


def test_config_validation():
    # every entry point checks its exponent before it solves
    grid = build_grid(Domain.unit_square(), 8)
    for p in (1.0, math.inf):
        with pytest.raises(SolverError):
            solve_p_torsion(grid, p)
        with pytest.raises(SolverError):
            solve_p_harmonic(grid, lambda x, y: x, p)
        with pytest.raises(SolverError):
            torsion_infinity_gap(grid, p)


def test_continuation_ladder_shapes():
    assert continuation_ladder(2.0) == (2.0,)
    assert continuation_ladder(32.0) == (2.0, 4.0, 8.0, 16.0, 32.0)
    down = continuation_ladder(1.1)
    assert down[0] == 2.0 and down[-1] == pytest.approx(1.1)
    assert all(b < a for a, b in zip(down, down[1:]))


# ---------------------------------------------------------------------------
# torsion


def test_torsion_center_matches_series_oracle():
    grid = build_grid(Domain.unit_square(), 64)
    res = solve_p_torsion(grid, p=2.0)
    i = int(np.argmin(np.abs(grid.xs - 0.5)))
    j = int(np.argmin(np.abs(grid.ys - 0.5)))
    assert abs(oracles.torsion_center_series() - oracles.SQUARE_TORSION_CENTER) < 1e-12
    assert res.field.values[i, j] == pytest.approx(oracles.SQUARE_TORSION_CENTER,
                                                  abs=1e-4)
    assert res.optimality_residual < 1e-8
    assert np.all(np.diff(res.energy_history) <= 1e-12)


def test_torsion_is_nonnegative_and_symmetric():
    grid = build_grid(Domain.unit_square(), 32)
    res = solve_p_torsion(grid, p=3.0)
    vals = res.field.values
    assert vals.min() >= -1e-12
    # diagonal (x <-> y) symmetry is exact for the cell-based energy; the
    # mirror symmetry only holds up to the one-sided quadrature's O(h) bias
    assert np.allclose(vals, vals.T, atol=1e-9)
    assert np.allclose(vals, vals[::-1, :], atol=1e-3)


def test_torsion_distance_gap_shrinks_with_p():
    grid = build_grid(Domain.unit_square(), 48)
    g4 = torsion_infinity_gap(grid, 4.0)
    g16 = torsion_infinity_gap(grid, 16.0)
    assert g4.sup_gap == pytest.approx(0.2408, abs=5e-3)
    assert g16.sup_gap < g4.sup_gap
    assert g16.sup_gap < 0.08
    assert g16.gap.sup_norm() == g16.sup_gap


@pytest.mark.parametrize("p", [4.0, 32.0])
def test_interval_torsion_matches_closed_form(p):
    grid = build_grid(Domain.interval(0.0, 1.0), 128)
    res = solve_p_torsion(grid, p=p)
    exact = oracles.interval_torsion(grid.xs, p)
    assert np.max(np.abs(res.field.values - exact)) < 2e-4


def test_interval_p32_torsion_converges_on_a_fine_grid():
    # on the fixed p = 2 metric this stalled at a residual of 2.7e-2
    grid = build_grid(Domain.interval(0.0, 1.0), 512)
    res = solve_p_torsion(grid, p=32.0)
    assert res.optimality_residual <= 1e-3
    assert np.max(np.abs(res.field.values - oracles.interval_torsion(grid.xs, 32.0))) < 2e-4


def test_nonconvergence_raises_with_diagnostics(monkeypatch):
    grid = build_grid(Domain.unit_square(), 32)
    monkeypatch.setattr(dirichlet._Newton, "max_iterations", 2)
    with pytest.raises(SolverError) as exc:
        solve_p_torsion(grid, 32.0)
    # one exact p = 2 step, then two steps at each of p = 4, 8, 16, 32
    assert exc.value.iterations == 9
    assert math.isfinite(exc.value.residual) and exc.value.residual > 0.0
    stage = exc.value.stage
    assert (stage.p, stage.stop, stage.iterations) == (32.0, "max-iterations", 2)
    assert stage.residual == exc.value.residual > stage.target


def test_stage_records_say_why_they_stopped():
    res = solve_p_torsion(build_grid(Domain.unit_square(), 32), p=8.0)
    assert [s.stop for s in res.stages] == ["converged"] * len(res.stages)
    assert all(s.residual <= s.target for s in res.stages)


def test_result_counts_factorizations():
    grid = build_grid(Domain.unit_square(), 32)
    res = solve_p_torsion(grid, p=8.0)
    assert 1 <= res.factorizations <= res.iterations
    assert solve_p_torsion(grid, p=2.0).factorizations == 1


RESIDUAL_DOMAINS = {"square": Domain.unit_square(), "disc": Domain.disc((0.0, 0.0), 1.0)}


@pytest.mark.parametrize("name", list(RESIDUAL_DOMAINS))
@pytest.mark.parametrize("p", [1.5, 3.0, 8.0, 32.0])
def test_torsion_final_residual_contract(name, p):
    # measured at most 7e-9; every stage stops at 1e-8 of its start residual,
    # at most 6e-7 here (energy-stall stops read 6.5e-6 to 1.5e-3)
    grid = build_grid(RESIDUAL_DOMAINS[name], 64)
    assert solve_p_torsion(grid, p=p).optimality_residual <= 1e-6


@pytest.mark.parametrize("name", list(RESIDUAL_DOMAINS))
def test_harmonic_final_residual_contract(name):
    # measured 4.8e-11 (square) and 7.8e-12 (disc), after 2 and 3 delta = 0
    # polish steps; the p = 4 stage ends at 3.0e-10 and 3.8e-7.  The stop
    # target of these cases is 2.14e-6 (square) and 5.13e-6 (disc), so the
    # bound holds because the polish steps on while each step lowers the
    # residual, not on where the last p = 4 step landed
    grid = build_grid(RESIDUAL_DOMAINS[name], 64)
    res = solve_p_harmonic(grid, lambda x, y: np.sin(3 * x) + y, p=4.0)
    assert res.optimality_residual <= 2e-6


def _plain_start_residual(core, v, p, delta):
    """Strong residual of the torsion objective at ``v``: max |grad| / mass
    over the dofs."""
    g = core.energy_grad(v, p, delta)[1] + core.load_grad(np.ones(v.shape))
    return float(np.max(np.abs(g[core.dof_mask]) / core.mass[core.dof_mask]))


def _torsion_energy(core, v, p, delta):
    return core.energy(v, p, delta) - float(np.sum(core.mass * v))


@pytest.mark.parametrize("name", list(RESIDUAL_DOMAINS))
@pytest.mark.parametrize("p", [1.5, 32.0])
def test_predicted_stage_starts_keep_the_plain_start_target(name, p, monkeypatch):
    grid = build_grid(RESIDUAL_DOMAINS[name], 32)
    core = make_core(grid, "dirichlet")
    calls = []
    stage = dirichlet._Newton.stage

    def spy(self, v, p_stage, delta, max_iterations, target, start="plain", strict=False,
            evaluated=None):
        out = stage(self, v, p_stage, delta, max_iterations, target, start, strict, evaluated)
        calls.append((v.copy(), p_stage, delta, target, start, out[0].copy()))
        return out

    def polish_spy(self, v, p_stage, target):
        out = polish(self, v, p_stage, target)
        calls.append((v.copy(), p_stage, 0.0, target, "plain", out[0].copy()))
        return out

    polish = dirichlet._Newton.polish
    monkeypatch.setattr(dirichlet._Newton, "stage", spy)
    monkeypatch.setattr(dirichlet._Newton, "polish", polish_spy)
    res = solve_p_torsion(grid, p=p)
    ladder = len(continuation_ladder(p))
    assert [c[4] for c in calls] == [s.start for s in res.stages]
    assert calls[0][4] == "plain" and any(c[4] != "plain" for c in calls[1:ladder])
    for prev, (v, p_stage, delta, target, start, _) in zip(calls, calls[1:ladder]):
        plain = prev[5]
        assert target == pytest.approx(
            dirichlet.RESIDUAL_RTOL * _plain_start_residual(core, plain, p_stage, delta), rel=1e-12)
        assert _torsion_energy(core, v, p_stage, delta) <= _torsion_energy(core, plain, p_stage, delta)
        assert start == "plain" or not np.array_equal(v, plain)
    # the polish keeps the last stage's target
    assert all(c[3] == calls[ladder - 1][3] for c in calls[ladder:])


@pytest.mark.parametrize("problem, p", [("torsion", 1.5), ("torsion", 32.0), ("neumann", 8.0)])
@pytest.mark.parametrize("n", [32, 64], ids=["direct", "nested"])
def test_stages_are_handed_their_start_objective(problem, p, n, monkeypatch):
    # the objective computed to choose a stage's start is handed to the
    # stage, not computed again: it must be that start's own, bit for bit
    handed = []
    stage = dirichlet._Newton.stage

    def spy(self, v, p_stage, delta, max_iterations, target, start="plain", strict=False,
            evaluated=None):
        if evaluated is not None:
            e, g = self.objective(v, p_stage, delta)
            assert evaluated[0] == e and np.array_equal(evaluated[1], g)
            handed.append(start)
        return stage(self, v, p_stage, delta, max_iterations, target, start, strict, evaluated)

    monkeypatch.setattr(dirichlet._Newton, "stage", spy)
    grid = build_grid(Domain.unit_square(), n)
    res = solve_p_torsion(grid, p=p) if problem == "torsion" else neumann_eigen_first(grid, p=p)
    # every continuation and prolonged stage is handed its start's objective,
    # but for a smoothed (high-p torsion) start; no polish is
    rungs = [s for s in res.stages if s.delta == dirichlet.DELTA or s.p == 2.0]
    smoothing = problem == "torsion" and p >= dirichlet.SMOOTHING_MIN_P
    smoothed = [s for s in rungs if smoothing and s.n != rungs[0].n]
    assert handed == [s.start for s in rungs if s not in smoothed]
    assert len(smoothed) == (n == 64 and smoothing)


@pytest.mark.parametrize("name", list(RESIDUAL_DOMAINS))
@pytest.mark.parametrize("p", [1.2, 1.5, 4.0, 8.0, 32.0])
def test_predicted_starts_reach_the_plain_start_field(name, p, monkeypatch):
    # the direct ladder on the grid itself: the nested start is not a prediction
    monkeypatch.setattr(dirichlet, "coarse_grid", lambda grid: None)
    grid = build_grid(RESIDUAL_DOMAINS[name], 64)
    predicted = solve_p_torsion(grid, p=p).field.values
    monkeypatch.setattr(dirichlet._Newton, "predict",
                        lambda self, v, p, delta, evaluated: (v, "plain", evaluated))
    plain = solve_p_torsion(grid, p=p)
    assert all(s.start == "plain" for s in plain.stages)
    assert np.max(np.abs(predicted - plain.field.values)) <= 1e-9 * np.max(np.abs(plain.field.values))


def test_predicted_starts_halve_the_lus_at_p32():
    # the disc does not nest, so the whole ladder runs on this lattice: 7 LUs
    # with the predictor, 13 from plain starts
    res = solve_p_torsion(build_grid(RESIDUAL_DOMAINS["disc"], 64), p=32.0)
    assert {s.n for s in res.stages} == {64}
    assert res.factorizations <= 8
    assert sum(s.factorizations for s in res.stages) == res.factorizations
    assert sum(s.iterations for s in res.stages) == res.iterations


# ---------------------------------------------------------------------------
# nested torsion and the delta = 0 polish

NESTED_DOMAINS = {"square": Domain.unit_square(),
                  "rectangle": Domain.rectangle(0.0, 0.0, 2.0, 1.0),
                  "interval": Domain.interval(0.0, 1.0)}


@pytest.mark.parametrize("name, p", [*(("square", p) for p in (1.5, 4.0, 8.0, 16.0, 32.0)),
                                     *(("rectangle", p) for p in (1.5, 8.0, 32.0)),
                                     *(("interval", p) for p in (1.5, 32.0))])
def test_nested_torsion_matches_the_direct_ladder(name, p, monkeypatch):
    nested = solve_p_torsion(build_grid(NESTED_DOMAINS[name], 64), p=p)
    assert {s.n for s in nested.stages} == {32, 64}
    monkeypatch.setattr(dirichlet, "coarse_grid", lambda grid: None)
    direct = solve_p_torsion(build_grid(NESTED_DOMAINS[name], 64), p=p)
    assert {s.n for s in direct.stages} == {64}
    scale = np.max(np.abs(direct.field.values))
    assert np.max(np.abs(nested.field.values - direct.field.values)) <= 1e-10 * scale


@pytest.mark.parametrize("domain, n, p", [(Domain.disc((0.0, 0.0), 1.0), 64, 8.0),
                                          (Domain.unit_square(), 63, 8.0),
                                          (Domain.unit_square(), 64, 2.0)],
                         ids=["disc", "odd-n", "p2"])
def test_torsion_that_does_not_nest_takes_the_direct_ladder(domain, n, p):
    # a one-rung ladder (p = 2, one exact step) has nothing to move to n/2
    res = solve_p_torsion(build_grid(domain, n), p=p)
    assert [s.p for s in res.stages] == [*continuation_ladder(p), *([p] if p != 2.0 else [])]
    assert all(s.n == n for s in res.stages)
    assert "prolonged" not in {s.start for s in res.stages}


def test_nested_torsion_records_every_level():
    res = solve_p_torsion(build_grid(Domain.unit_square(), 128), p=8.0)
    ns = [s.n for s in res.stages]
    assert ns == sorted(ns) and ns[0] == 32
    # the coarse lattices hand on their end point at delta = 1e-6 unpolished
    assert [(s.n, s.p, s.delta) for s in res.stages if s.n > 32] == [
        (64, 8.0, 1e-6), (128, 8.0, 1e-6), (128, 8.0, 0.0)]
    assert [(s.p, s.delta) for s in res.stages if s.n == 32] == [
        (p, 0.0 if p == 2.0 else 1e-6) for p in continuation_ladder(8.0)]
    for n in (64, 128):
        coarse = [s for s in res.stages if s.n == n // 2][-1]
        fine = [s for s in res.stages if s.n == n][0]
        assert fine.start in ("prolonged", "rescaled") and fine.stop == "converged"
        assert fine.residual <= fine.target <= coarse.target
    assert res.stages[-1].target == res.stages[-2].target
    assert sum(s.iterations for s in res.stages) == res.iterations
    assert sum(s.factorizations for s in res.stages) == res.factorizations
    assert sum(s.pcg_iterations for s in res.stages) == res.pcg_iterations
    assert res.field.grid.n == 128 and res.optimality_residual == res.stages[-1].residual


@pytest.mark.parametrize("name", list(NESTED_DOMAINS))
@pytest.mark.parametrize("p", [4.0, 32.0])
def test_sweep_never_raises_the_objective(name, p):
    # from the n/2 solution, P1-prolonged: the start of a nested stage
    grid = build_grid(NESTED_DOMAINS[name], 64)
    core = make_core(grid, "dirichlet")
    v = prolong(solve_p_torsion(coarse_grid(grid), p=p).field, grid).values
    rhs = core.mass * np.ones(v.shape)
    delta = dirichlet.DELTA
    swept = core.sweep(v, p, delta, rhs)
    # only the dofs move, and the prolonged start's energy falls
    assert np.array_equal(swept[~core.dof_mask], v[~core.dof_mask])
    assert _torsion_energy(core, swept, p, delta) < _torsion_energy(core, v, p, delta)
    # from the converged field a sweep can only make tiny moves, each kept
    # only where its local energy falls: the objective summed over the whole
    # lattice may differ in its last bits (measured: 1 ulp higher)
    solved = solve_p_torsion(grid, p=p).field.values
    again = core.sweep(solved, p, delta, rhs)
    before = _torsion_energy(core, solved, p, delta)
    assert _torsion_energy(core, again, p, delta) <= before + dirichlet.ENERGY_ROUNDING * abs(before)
    assert np.max(np.abs(again - solved)) <= 1e-6 * np.max(np.abs(solved))
    # far above the solution, where a Newton step on the root of the flux
    # overshoots below zero, the bracket still finds lower energies (without
    # it the 2 x 1 rectangle at p = 32 kept no update)
    high = 3.0 * solved
    assert (_torsion_energy(core, core.sweep(high, p, delta, rhs), p, delta)
            < _torsion_energy(core, high, p, delta))


@pytest.mark.parametrize("name", [*NESTED_DOMAINS, "disc"])
def test_colouring_gives_each_element_one_corner_of_each_colour(name):
    grid = build_grid({**NESTED_DOMAINS, "disc": Domain.disc((0.0, 0.0), 1.0)}[name], 16)
    core = make_core(grid, "dirichlet")
    # the core's elements in its own numbering, named by their node sets
    named = [frozenset(int(corner[i]) for corner in nodes)
             for nodes, _ in core._families for i in range(len(nodes[0]))]
    found = {}
    for dofs, elements, b, bb, owner in core._colouring():
        # one corner of an element per colour: its nodes are independent
        assert len(np.unique(elements)) == len(elements)
        assert np.array_equal(bb, (b * b).sum(axis=0))
        for e, gradient, node in zip(elements, b.T, dofs[owner]):
            found[named[e], int(node)] = gradient
    # together the colours hold every (element, dof corner) pair once, with
    # that corner's hat-function gradient
    dof = core.dof_mask.ravel()
    expected = {(frozenset(nodes), node): gradient
                for nodes, grads, _ in oracles.p1_elements(grid)
                for node, gradient in zip(nodes, grads) if dof[node]}
    assert found.keys() == expected.keys()
    assert sum(len(t[1]) for t in core._colouring()) == len(expected)
    assert all(np.allclose(found[key], expected[key], rtol=1e-12, atol=0.0) for key in expected)


@pytest.mark.parametrize("name", list(NESTED_DOMAINS))
def test_sweeps_alone_reach_the_torsion_solution(name):
    # nonlinear Gauss-Seidel converges to the minimizer of the objective it
    # sweeps: a wrong flux, bracket or colouring would stop elsewhere.  It
    # starts from the p = 2 solution: a node with no flux at all does not
    # move.  A move is kept only where the local energy falls, which resolves
    # the minimizer to about the square root of machine epsilon: the sweeps
    # stall at 4.4e-9 (interval) and 3.9e-9 (square) relative
    grid = build_grid(NESTED_DOMAINS[name], 8)
    core = make_core(grid, "dirichlet")
    v, rhs = solve_p_torsion(grid, p=2.0).field.values, core.mass * np.ones(grid.shape)
    for _ in range(400):
        v = core.sweep(v, 4.0, dirichlet.DELTA, rhs)
    solved = solve_p_torsion(grid, p=4.0).field.values
    assert np.max(np.abs(v - solved)) <= 1e-7 * np.max(np.abs(solved))


def test_smoothed_fine_stages_take_few_newton_steps():
    # measured 8 (n = 64) and 9 (n = 128) steps from the smoothed start,
    # against 25 and 22 from the prolonged start alone
    res = solve_p_torsion(build_grid(Domain.unit_square(), 128), p=32.0)
    fine = [s for s in res.stages if s.n > 32 and s.delta > 0.0]
    assert [s.n for s in fine] == [64, 128]
    assert all(s.iterations <= 12 and s.stop == "converged" for s in fine)


@pytest.mark.parametrize("domain, n, p, sweeps", [
    (Domain.unit_square(), 64, 32.0, 2), (Domain.rectangle(0.0, 0.0, 2.0, 1.0), 128, 16.0, 4),
    (Domain.unit_square(), 64, 8.0, 0), (Domain.interval(0.0, 1.0), 128, 32.0, 0),
    (Domain.unit_square(), 64, 1.5, 0), (Domain.disc((0.0, 0.0), 1.0), 64, 32.0, 0)],
    ids=["square-p32", "rectangle-p16", "square-p8", "interval-p32", "square-p1.5", "disc-p32"])
def test_sweeps_smooth_only_nested_2d_torsion_at_high_p(domain, n, p, sweeps, monkeypatch):
    # SMOOTHING_SWEEPS on each finer lattice of a nested 2-D solve at p >=
    # SMOOTHING_MIN_P; below it, on an interval and on lattices that do not
    # nest no sweep runs, so those solves are the ones without the smoother
    calls = []
    sweep = VariationalCore.sweep

    def spy(self, *args):
        calls.append(self.grid.n)
        return sweep(self, *args)

    monkeypatch.setattr(VariationalCore, "sweep", spy)
    res = solve_p_torsion(build_grid(domain, n), p=p)
    assert len(calls) == sweeps
    assert calls == sorted(calls) and set(calls) <= {s.n for s in res.stages} - {32}


@pytest.mark.parametrize("name", list(RESIDUAL_DOMAINS))
@pytest.mark.parametrize("p", [3.0, 32.0])
def test_polish_steps_and_never_ends_above_its_start(name, p, monkeypatch):
    starts = []
    polish = dirichlet._Newton.polish

    def spy(self, v, p_stage, target):
        starts.append(_plain_start_residual(self.core, v, p_stage, 0.0))
        return polish(self, v, p_stage, target)

    monkeypatch.setattr(dirichlet._Newton, "polish", spy)
    res = solve_p_torsion(build_grid(RESIDUAL_DOMAINS[name], 64), p=p)
    # one polish, on the grid itself, after a ladder on its own lattice
    # (disc) or on n/2 (square)
    [polish] = [s for s in res.stages if s.delta == 0.0 and s.p == p]
    assert res.stages[-1] == polish and polish.n == 64 and len(starts) == 1
    assert polish.iterations >= 1 and polish.start == "plain"
    assert polish.residual <= starts[0]


@pytest.mark.parametrize("name", ["square", "rectangle"])
def test_polish_ends_where_a_step_stops_lowering_the_residual(name):
    # a second polish from the end point keeps it: its one step is discarded.
    # A polish that stopped once a step failed to halve the residual ended
    # here (n = 64, p = 8) after 1 step at 8.6e-12 (square) and 6.4e-12
    # (rectangle), where further steps reach 4.0e-13 and 1.6e-13
    grid = build_grid(NESTED_DOMAINS[name], 64)
    res = solve_p_torsion(grid, p=8.0)
    newton = dirichlet._Newton(make_core(grid, "dirichlet"), np.ones(grid.shape), res.stages)
    v, residual = newton.polish(res.field.values, 8.0, res.stages[-1].target)
    assert np.array_equal(v, res.field.values) and residual == res.optimality_residual
    assert newton.stages[-1].iterations == 1


@pytest.mark.parametrize("name", list(RESIDUAL_DOMAINS))
@pytest.mark.parametrize("p", [1.2, 1.5, 4.0, 8.0, 32.0])
def test_forcing_and_budget_reach_the_fixed_forcing_field(name, p, monkeypatch):
    grid = build_grid(RESIDUAL_DOMAINS[name], 64)
    forced = solve_p_torsion(grid, p=p).field.values
    # the rule before: every Newton system to NEWTON_RTOL, each LU kept until
    # PCG fails
    monkeypatch.setattr(dirichlet, "_forcing", lambda residual, r_old, eta: dirichlet.NEWTON_RTOL)
    monkeypatch.setattr(dirichlet, "LU_PCG_BUDGET", math.inf)
    fixed = solve_p_torsion(grid, p=p).field.values
    assert np.max(np.abs(forced - fixed)) <= 1e-9 * np.max(np.abs(fixed))


def test_identical_solves_agree_bit_for_bit():
    grid = build_grid(Domain.disc((0.0, 0.0), 1.0), 64)
    a, b = solve_p_torsion(grid, p=32.0), solve_p_torsion(grid, p=32.0)
    assert np.array_equal(a.field.values, b.field.values)
    assert a.stages == b.stages


@pytest.mark.parametrize("name, p", [("square", 32.0), ("disc", 1.5)])
def test_newton_solves_follow_the_forcing_and_budget_rules(name, p, monkeypatch):
    events = []
    pcg, factor = dirichlet._pcg, VariationalCore.factor
    direction, stage, predict = (dirichlet._Newton.direction, dirichlet._Newton.stage,
                                 dirichlet._Newton.predict)

    def pcg_spy(H, b, preconditioner, rtol, max_iterations, **kwargs):
        x, its = pcg(H, b, preconditioner, rtol, max_iterations, **kwargs)
        if isinstance(preconditioner, dirichlet._TwoGrid):
            reached = None if x is None else np.linalg.norm(H @ x - b) / np.linalg.norm(b)
            events.append(("two-grid", its, max_iterations, rtol, kwargs, reached))
        else:
            events.append(("pcg", its, max_iterations))
        return x, its

    def factor_spy(matrix):
        events.append(("lu",))
        return factor(matrix)

    def direction_spy(self, v, g, H, eta=dirichlet.NEWTON_RTOL):
        events.append(("direction", eta))
        return direction(self, v, g, H, eta)

    def stage_spy(self, *args, **kwargs):
        events.append(("stage",))
        return stage(self, *args, **kwargs)

    def predict_spy(self, *args):
        events.append(("predict",))
        return predict(self, *args)

    monkeypatch.setattr(dirichlet, "_pcg", pcg_spy)
    monkeypatch.setattr(VariationalCore, "factor", staticmethod(factor_spy))
    monkeypatch.setattr(dirichlet._Newton, "direction", direction_spy)
    monkeypatch.setattr(dirichlet._Newton, "stage", stage_spy)
    monkeypatch.setattr(dirichlet._Newton, "predict", predict_spy)
    res = solve_p_torsion(build_grid(RESIDUAL_DOMAINS[name], 64), p=p)

    # no LU serves more than the budget, and no LU-preconditioned PCG is
    # allowed past it; a two-grid PCG (the finest lattice of the nested
    # square) runs to its own cap and must meet its forcing term, and its
    # first miss is followed by one LU and no more two-grid PCG; each stage's
    # first direction and each tangent solve run at NEWTON_RTOL
    served, first, etas, missed = None, False, [], False
    for event, after in zip(events, events[1:] + [None]):
        if event[0] == "lu":
            served = 0
        elif event[0] == "pcg":
            assert event[2] == min(dirichlet.PCG_MAX_ITERATIONS, dirichlet.LU_PCG_BUDGET - served)
            served += event[1]
            assert served <= dirichlet.LU_PCG_BUDGET
        elif event[0] == "two-grid":
            _, its, cap, rtol, kwargs, reached = event
            assert not missed
            assert cap == dirichlet.TWO_GRID_MAX_ITERATIONS and its <= cap
            assert kwargs == {"accept": rtol}
            if reached is None:
                missed = True
                assert after == ("lu",)
            else:
                # PCG's updated residual against the true one, to rounding
                assert reached <= rtol * (1.0 + 1e-6)
        elif event[0] in ("stage", "predict"):
            first = True
        elif event[0] == "direction":
            assert event[1] == dirichlet.NEWTON_RTOL or not first
            first = False
            etas.append(event[1])
    assert all(0.0 < eta <= dirichlet.FORCING_MAX for eta in etas)
    assert any(eta != dirichlet.NEWTON_RTOL for eta in etas)
    assert any(e[0] == "two-grid" for e in events) == (name == "square")
    assert res.pcg_iterations == sum(e[1] for e in events if e[0] in ("pcg", "two-grid"))
    assert res.pcg_iterations == sum(s.pcg_iterations for s in res.stages)
    assert res.factorizations == sum(e[0] == "lu" for e in events)


TWO_GRID_CASES = {"torsion": ("dirichlet", lambda grid: solve_p_torsion(grid, p=8.0).field),
                  "neumann": ("neumann", lambda grid: neumann_eigen_first(grid, p=8.0).field)}


def _two_grid_case(problem, domain, n):
    """The finest lattice's preconditioning matrix at a p = 8 solution
    (torsion: its Hessian; Neumann: its shifted metric) and the two-grid
    cycle on the coarse lattice's LU of the same matrix at the coarse
    solution, as a nested solve hands it on."""
    bc, solve = TWO_GRID_CASES[problem]
    grid = build_grid(domain, n)
    coarse = coarse_grid(grid)
    fine_core, coarse_core = make_core(grid, bc), make_core(coarse, bc)
    matrix = fine_core.weighted_metric(solve(grid).values, 8.0, dirichlet.DELTA)
    lu = coarse_core.weighted_factor(solve(coarse).values, 8.0, dirichlet.DELTA)
    cycle = dirichlet._TwoGrid(dirichlet._prolongation(coarse_core, fine_core), lu).on(matrix)
    return grid, coarse, matrix, cycle  # the cores hold their grids only weakly


@pytest.mark.parametrize("name", list(NESTED_DOMAINS))
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_prolongation_matrix_is_the_p1_prolongation(name, bc):
    grid = build_grid(NESTED_DOMAINS[name], 16)
    coarse = coarse_grid(grid)
    fine_core, coarse_core = make_core(grid, bc), make_core(coarse, bc)
    values = np.random.default_rng(3).standard_normal(coarse.shape)
    values = np.where(coarse_core.dof_mask, values, 0.0)  # zero Dirichlet data
    expected = prolong(ScalarField(coarse, values), grid).values.ravel()[fine_core.dof_index]
    got = dirichlet._prolongation(coarse_core, fine_core) @ values.ravel()[coarse_core.dof_index]
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("problem", list(TWO_GRID_CASES))
@pytest.mark.parametrize("name", list(NESTED_DOMAINS))
def test_two_grid_cycle_is_symmetric_and_positive_definite(problem, name):
    grid, coarse, matrix, cycle = _two_grid_case(problem, NESTED_DOMAINS[name], 16)
    m = matrix.shape[0]
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(m), rng.standard_normal(m)
    sx, sy = cycle.solve(x), cycle.solve(y)
    assert abs(x @ sy - sx @ y) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(sy)
    # the preconditioned matrix L^T S L (M = L L^T) has a positive spectrum
    # near 1: measured from 0.63-0.98 to 1.00-1.20
    dense = cycle.solve(np.eye(m))
    low = np.linalg.cholesky(matrix.toarray())
    spectrum = np.linalg.eigvalsh(low.T @ (0.5 * (dense + dense.T)) @ low)
    assert 0.3 < spectrum[0] and spectrum[-1] < 1.5
    # a 2-D right-hand side is its columns solved one by one
    block = rng.standard_normal((m, 3))
    assert np.array_equal(cycle.solve(block),
                          np.column_stack([cycle.solve(block[:, k]) for k in range(3)]))


def test_two_grid_miss_falls_back_to_one_lu_that_meets_the_forcing_term(monkeypatch):
    monkeypatch.setattr(dirichlet, "TWO_GRID_MAX_ITERATIONS", 1)
    grid, coarse, _, cycle = _two_grid_case("torsion", Domain.unit_square(), 64)
    core = make_core(grid, "dirichlet")
    v = prolong(solve_p_torsion(coarse, p=8.0).field, grid).values
    newton = dirichlet._Newton(core, np.ones(grid.shape), two_grid=cycle)
    H = core.hessian(v, 8.0, dirichlet.DELTA)
    g = newton.objective(v, 8.0, dirichlet.DELTA)[1]
    b = g.ravel()[core.dof_index]
    eta = 1e-6
    d = newton.direction(v, g, H, eta)
    # one two-grid iteration, then one fresh LU; the cycle is gone
    assert newton.pcg_its == 1 and newton.lus == 1
    assert newton.two_grid is None and newton.factor is not None
    assert np.linalg.norm(H @ d.ravel()[core.dof_index] - b) <= eta * np.linalg.norm(b)
    # the next direction is preconditioned by that LU
    newton.direction(v, g, H, 0.5)
    assert newton.lus == 1 and newton.factor_pcg >= 1


@pytest.mark.parametrize("problem, domain, n, p, rhs_columns", [
    ("torsion", Domain.unit_square(), 128, 8.0, {1}),
    ("torsion", Domain.interval(0.0, 1.0), 128, 32.0, {1}),
    ("neumann", Domain.interval(0.0, 1.0), 128, 8.0, {1, 3}),
    ("neumann", Domain.unit_square(), 64, 8.0, {1, 3}),
    ("torsion", Domain.disc((0.0, 0.0), 1.0), 64, 8.0, set()),
    ("torsion", Domain.unit_square(), 63, 8.0, set()),
    ("torsion", Domain.unit_square(), 64, 2.0, set())],
    ids=["square-torsion", "interval-torsion", "interval-neumann", "square-neumann",
         "disc", "odd-n", "p2"])
def test_only_the_finest_nested_lattice_runs_the_two_grid_cycle(problem, domain, n, p,
                                                                 rhs_columns, monkeypatch):
    # the finest lattice of a nested solve runs on the cycle and factors
    # nothing (the projected PCG of the Neumann pair also solves with a
    # 2-D right-hand side: the residual and both constraint normals);
    # coarser lattices, lattices that do not nest and p = 2 run on LUs
    sizes, columns = set(), set()
    solve = dirichlet._TwoGrid.solve

    def spy(self, b):
        sizes.add(self.matrix.shape[0])
        columns.add(1 if b.ndim == 1 else b.shape[1])
        return solve(self, b)

    monkeypatch.setattr(dirichlet._TwoGrid, "solve", spy)
    grid = build_grid(domain, n)
    res = solve_p_torsion(grid, p=p) if problem == "torsion" else neumann_eigen_first(grid, p=p)
    assert columns == rhs_columns
    fine = [s for s in res.stages if s.n == n]
    if rhs_columns:
        bc = "dirichlet" if problem == "torsion" else "neumann"
        assert sizes == {len(make_core(grid, bc).dof_index)}
        assert sum(s.factorizations for s in fine) == 0 and all(s.pcg_iterations for s in fine)
        assert sum(s.factorizations for s in res.stages if s.n == n // 2) >= 1
    else:
        assert {s.n for s in res.stages} == {n}


def test_forcing_term_is_eisenstat_walker_choice_2():
    rtol, gamma = dirichlet.NEWTON_RTOL, dirichlet.FORCING_GAMMA
    assert dirichlet._forcing(1e-3, 1e-1, rtol) == pytest.approx(gamma * 1e-4)
    # a large previous term keeps the next one from collapsing
    assert dirichlet._forcing(1e-3, 1e-1, 0.5) == pytest.approx(gamma * 0.25)
    assert dirichlet._forcing(1e-3, 1e-1, 0.3) == pytest.approx(gamma * 1e-4)
    assert dirichlet._forcing(2.0, 1.0, rtol) == dirichlet.FORCING_MAX


def test_direction_short_of_its_forcing_keeps_the_lu_within_newton_rtol():
    grid = build_grid(Domain.unit_square(), 32)
    core = make_core(grid, "dirichlet")
    v = solve_p_torsion(grid, p=2.0).field.values
    newton = dirichlet._Newton(core, np.ones(grid.shape))
    newton.factor = core.factor(core.hessian(v, 3.5, 1e-6))  # stale: from p = 3.5
    H = core.hessian(v, 4.0, 1e-6)
    g = newton.objective(v, 4.0, 1e-6)[1]
    b = g.ravel()[core.dof_index]

    def relative_residual(d):
        return np.linalg.norm(H @ d.ravel()[core.dof_index] - b) / np.linalg.norm(b)

    d = newton.direction(v, g, H, eta=1e-30)
    assert newton.lus == 0
    assert newton.pcg_its == newton.factor_pcg == dirichlet.PCG_MAX_ITERATIONS
    assert 1e-30 < relative_residual(d) <= dirichlet.NEWTON_RTOL
    # the budget's last iteration ends above NEWTON_RTOL: a fresh LU solves
    newton.factor_pcg = dirichlet.LU_PCG_BUDGET - 1
    d = newton.direction(v, g, H, eta=1e-30)
    assert newton.lus == 1 and newton.factor_pcg == 0
    assert newton.pcg_its == dirichlet.PCG_MAX_ITERATIONS + 1
    assert relative_residual(d) <= 1e-10


@pytest.mark.parametrize("problem, p", [("torsion", 32.0), ("neumann", 8.0)])
def test_nested_solve_frees_the_coarser_lattices_before_each_finer_stage(problem, p,
                                                                         monkeypatch):
    # only the last LU of a level and the prolongation outlive it: its grid,
    # and the core and engine that hang on it, die before the finer stage
    made, refined = [], []
    coarse, refine = dirichlet.coarse_grid, dirichlet._Newton.refine

    def coarse_spy(grid):
        out = coarse(grid)
        if out is not None:
            made.append((out.n, weakref.ref(out)))
        return out

    def refine_spy(self, v, p_stage):
        n = self.core.grid.n
        gc.collect()
        assert [m for m, grid in made if m < n and grid() is not None] == []
        refined.append(n)
        return refine(self, v, p_stage)

    monkeypatch.setattr(dirichlet, "coarse_grid", coarse_spy)
    monkeypatch.setattr(dirichlet._Newton, "refine", refine_spy)
    grid = build_grid(Domain.unit_square(), 128)
    (solve_p_torsion if problem == "torsion" else neumann_eigen_first)(grid, p=p)
    assert [m for m, _ in made] == [64, 32] and refined == [64, 128]


def test_core_is_freed_with_its_grid():
    grid = build_grid(Domain.unit_square(), 16)
    solve_p_torsion(grid, p=4.0)
    core = weakref.ref(make_core(grid, "dirichlet"))
    assert core() is make_core(grid, "dirichlet")  # one core per (grid, bc)
    del grid
    gc.collect()
    assert core() is None


# ---------------------------------------------------------------------------
# p-harmonic extension


@pytest.mark.parametrize("p", [2.0, 3.5])
def test_affine_boundary_data_reproduced_exactly(p):
    grid = build_grid(Domain.unit_square(), 64)
    res = solve_p_harmonic(grid, lambda x, y: 2.0 * x - y + 0.25, p=p)
    xs, ys = grid.coordinates()
    exact = 2.0 * xs - ys + 0.25
    err = np.max(np.abs(res.field.values - exact)[grid.nonexterior])
    assert err < 1e-12


def test_p2_harmonic_single_preconditioned_step():
    grid = build_grid(Domain.unit_square(), 32)
    res = solve_p_harmonic(grid, lambda x, y: x * x - y * y, p=2.0)
    assert res.iterations <= 2
    xs, ys = grid.coordinates()
    err = np.max(np.abs(res.field.values - (xs * xs - ys * ys))[grid.nonexterior])
    assert err < 1e-10  # harmonic quadratic: exact for the 5-point stencil


@pytest.mark.parametrize("name", list(RESIDUAL_DOMAINS))
@pytest.mark.parametrize("p", [1.5, 4.0])
def test_harmonic_stages_never_predict(name, p, monkeypatch):
    # boundary data break the homogeneity along rays that the predictor
    # rests on: every stage starts from the previous end point, and no
    # tangent right-hand side is formed
    calls = []
    energy_grad_dp = VariationalCore.energy_grad_dp

    def spy(self, *args):
        calls.append(args)
        return energy_grad_dp(self, *args)

    monkeypatch.setattr(VariationalCore, "energy_grad_dp", spy)
    grid = build_grid(RESIDUAL_DOMAINS[name], 32)
    res = solve_p_harmonic(grid, lambda x, y: np.sin(3.0 * x) + y * y + 0.5, p=p)
    assert np.any(res.field.values[grid.boundary] != 0.0)
    ladder = continuation_ladder(p)
    assert len(ladder) >= 2 and [s.p for s in res.stages[:len(ladder)]] == list(ladder)
    assert [s.start for s in res.stages] == ["plain"] * len(res.stages)
    assert calls == []


def test_boundary_values_pinned():
    grid = build_grid(Domain.unit_square(), 24)
    res = solve_p_harmonic(grid, lambda x, y: np.sin(3 * x) + y, p=4.0)
    xs, ys = grid.coordinates()
    gvals = np.sin(3 * xs) + ys
    assert np.allclose(res.field.values[grid.boundary], gvals[grid.boundary],
                       atol=1e-13)


# ---------------------------------------------------------------------------
# distance fields


def test_distance_field_square_closed_form():
    grid = build_grid(Domain.unit_square(), 48)
    d = distance_field(grid)
    xs, ys = grid.coordinates()
    exact = np.minimum(np.minimum(xs, 1.0 - xs), np.minimum(ys, 1.0 - ys))
    assert np.array_equal(d.values[grid.nonexterior], exact[grid.nonexterior])


def test_distance_field_disc_closed_form():
    grid = build_grid(Domain.disc((0.0, 0.0), 1.0), 32)
    d = distance_field(grid)
    xs, ys = grid.coordinates()
    exact = np.maximum(1.0 - np.hypot(xs, ys), 0.0)
    assert np.allclose(d.values[grid.nonexterior], exact[grid.nonexterior],
                       atol=1e-13)


def test_distance_field_interval():
    grid = build_grid(Domain.interval(0.0, 1.0), 16)
    d = distance_field(grid)
    exact = np.minimum(grid.xs, 1.0 - grid.xs)
    assert np.allclose(d.values, exact, atol=1e-15)


# ---------------------------------------------------------------------------
# radial infinity-torsion profile


def test_infinity_torsion_profile_closed_form():
    prof = infinity_torsion_ball(2.0)
    assert prof.coefficient == pytest.approx(3.0 ** (4.0 / 3.0) / 4.0, rel=1e-15)
    assert float(np.max(np.abs(prof.residuals))) < 1e-10
    assert prof.values[0] == pytest.approx(prof.coefficient * 2.0 ** (4.0 / 3.0),
                                           rel=1e-14)
    assert prof.values[-1] == pytest.approx(0.0, abs=1e-14)
    assert np.all(np.diff(prof.values) < 0.0)


def test_infinity_torsion_profile_errors():
    with pytest.raises(SolverError):
        infinity_torsion_ball(0.0)


# ---------------------------------------------------------------------------
# energy Hessian


HESSIAN_DOMAINS = {
    "square": (Domain.unit_square(), 24),
    "disc": (Domain.disc((0.0, 0.0), 1.0), 24),
    "interval": (Domain.interval(0.0, 1.0), 64),
}


def _hessian_case(name, seed, bc="dirichlet"):
    domain, n = HESSIAN_DOMAINS[name]
    grid = build_grid(domain, n)
    core = make_core(grid, bc)
    rng = np.random.default_rng(seed)
    coords = grid.coordinates()
    # a tilt keeps every element gradient near (1, 2), so that the weight
    # floor of the Hessian stays inactive even at p = 32
    tilt = coords[0] + 2.0 * coords[-1] if grid.dim == 2 else coords[0]
    v = np.where(grid.nonexterior, tilt + 0.1 * grid.h * rng.standard_normal(grid.shape), 0.0)
    s = np.where(core.dof_mask, rng.standard_normal(grid.shape), 0.0)
    return grid, core, v, s  # the core holds its grid only weakly


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", list(HESSIAN_DOMAINS))
@pytest.mark.parametrize("p", [1.5, 4.0, 32.0])
def test_energy_gradient_and_mass_match_an_element_loop(name, bc, p):
    grid, core, v, s = _hessian_case(name, seed=int(p * 10) + 1, bc=bc)
    delta = 1e-3
    flat = v.ravel()
    energy, grad, mass = 0.0, np.zeros(flat.size), np.zeros(flat.size)
    for nodes, grads, measure in oracles.p1_elements(grid):
        g = grads.T @ flat[nodes]
        t = float(g @ g) + delta**2
        energy += measure * t ** (p / 2.0) / p
        grad[nodes] += measure * t ** (p / 2.0 - 1.0) * (grads @ g)
        mass[nodes] += measure / len(nodes)
    grad = np.where(core.dof_mask.ravel(), grad, 0.0)
    e, got = core.energy_grad(v, p, delta)
    assert abs(core.energy(v, p, delta) - energy) <= 1e-12 * energy
    assert abs(e - energy) <= 1e-12 * energy
    assert np.max(np.abs(got.ravel() - grad)) <= 1e-12 * np.max(np.abs(grad))
    assert np.max(np.abs(core.mass.ravel() - mass)) <= 1e-12 * np.max(mass)
    # the gradient is the derivative of the energy along s
    eps = 1e-7
    fd = (core.energy(v + eps * s, p, delta) - core.energy(v - eps * s, p, delta)) / (2.0 * eps)
    assert abs(fd - float(np.sum(got * s))) <= 1e-6 * abs(fd)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", list(HESSIAN_DOMAINS))
def test_slopes_are_the_element_difference_operator_bit_for_bit(name, bc):
    grid, core, v, _ = _hessian_case(name, seed=5, bc=bc)
    g, s = core._slopes(v, 1e-3)
    expected = (core._D @ v.ravel()).reshape(grid.dim, -1) / core.h
    assert np.array_equal(g, expected)
    assert np.array_equal(s, (expected * expected).sum(axis=0) + 1e-3 * 1e-3)


@pytest.mark.parametrize("name", list(HESSIAN_DOMAINS))
@pytest.mark.parametrize("p", [1.5, 4.0, 32.0])
def test_hessian_is_derivative_of_energy_gradient(name, p):
    grid, core, v, s = _hessian_case(name, seed=int(p * 10))
    delta, eps = 1e-3, 1e-6
    hess = core.hessian(v, p, delta)
    hs = hess @ s.ravel()[core.dof_index]
    fd = (core.energy_grad(v + eps * s, p, delta)[1]
          - core.energy_grad(v - eps * s, p, delta)[1]).ravel()[core.dof_index] / (2.0 * eps)
    assert np.linalg.norm(hs - fd) <= 1e-6 * np.linalg.norm(fd)
    assert abs(hess - hess.T).max() <= 1e-14 * abs(hess).max()


@pytest.mark.parametrize("name", list(HESSIAN_DOMAINS))
def test_p2_hessian_is_the_stiffness(name):
    grid, core, v, s = _hessian_case(name, seed=2)
    hess = core.hessian(v, 2.0, 0.5)
    stiffness = oracles.p1_stiffness(grid, core.dof_index)
    assert abs(hess - stiffness).max() <= 1e-14 * abs(stiffness).max()
    # the p = 2 gradient is linear: grad E(s) = K s on the dofs
    grad = core.energy_grad(s, 2.0, 0.0)[1].ravel()[core.dof_index]
    assert np.max(np.abs(hess @ s.ravel()[core.dof_index] - grad)) <= 1e-12 * np.max(np.abs(grad))


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", list(HESSIAN_DOMAINS))
@pytest.mark.parametrize("p", [2.0, 4.0, 15.0])
def test_weighted_factor_is_the_shifted_hessian(name, bc, p):
    grid, core, v, s = _hessian_case(name, seed=int(p) + 7, bc=bc)
    delta = 1e-3
    matrix = core.hessian(v, p, delta)
    if bc == "neumann":
        # the weight-lumped mass, element by element: each element gives
        # w_T |T| / (d+1) to each corner, w_T = (|grad v|^2 + delta^2)^((p-2)/2)
        # floored at 1e-12 of its maximum as in the Hessian
        flat = v.ravel()
        elements = list(oracles.p1_elements(grid))
        w = np.array([(float(np.sum((grads.T @ flat[nodes]) ** 2)) + delta**2) ** (p / 2.0 - 1.0)
                      for nodes, grads, _ in elements])
        w = np.maximum(w, 1e-12 * w.max())
        lumped = np.zeros(flat.size)
        for (nodes, _, measure), w_t in zip(elements, w):
            lumped[nodes] += w_t * measure / len(nodes)
        shift = core._neumann_sigma() * sp.diags(lumped[core.dof_index])
        if p == 2.0:
            # w = 1: the shift is the plain mass shift, bit for bit
            mass = core._neumann_sigma() * sp.diags(core.mass.ravel()[core.dof_index])
            assert np.array_equal(core.weighted_metric(v, p, delta).toarray(),
                                  (matrix + mass).toarray())
        matrix = matrix + shift
    expected = spla.spsolve(matrix.tocsc(), s.ravel()[core.dof_index])
    got = core.precond_solve(s, core.weighted_factor(v, p, delta)).ravel()[core.dof_index]
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", list(HESSIAN_DOMAINS))
@pytest.mark.parametrize("p", [1.5, 2.0, 4.0, 32.0])
@pytest.mark.parametrize("delta", [0.0, dirichlet.DELTA])
def test_stencil_assembly_is_the_bincount_assembly_bit_for_bit(name, bc, p, delta):
    grid, core, v, _ = _hessian_case(name, seed=int(p * 10) + 5, bc=bc)
    if delta == 0.0 and p >= 2.0:
        # a constant patch: flat elements, which keep only w I
        v[(slice(0, 8),) * grid.dim] = 0.25
    for got, shifted in ((core.hessian(v, p, delta), False),
                         (core.weighted_metric(v, p, delta), True)):
        data, indices, indptr = oracles.bincount_metric(core, v, p, delta, shifted)
        assert np.array_equal(got.indices, indices)
        assert np.array_equal(got.indptr, indptr)
        assert np.array_equal(got.data, data)  # == does not see the sign of zero
    hessian, shift = core.assemble(v, p, delta)
    assert np.array_equal(hessian.data, core.hessian(v, p, delta).data)
    assert (shift is None) == (bc == "dirichlet")


def _loop_gradient(grid, flat, p, delta):
    """Energy gradient by an element loop; a flat element contributes 0."""
    grad = np.zeros(flat.size)
    for nodes, grads, measure in oracles.p1_elements(grid):
        g = grads.T @ flat[nodes]
        t = float(g @ g) + delta**2
        if t > 0.0:
            grad[nodes] += measure * t ** (p / 2.0 - 1.0) * (grads @ g)
    return grad


@pytest.mark.parametrize("name", ["square", "interval"])
@pytest.mark.parametrize("p, delta", [(1.5, 1e-3), (4.0, 1e-3), (32.0, 1e-3), (2.0, 0.0)])
def test_energy_grad_dp_matches_finite_differences_in_p(name, p, delta):
    grid, core, v, _ = _hessian_case(name, seed=int(p * 10) + 3)
    if delta == 0.0:
        # a constant patch: flat elements, where ln s is -inf at delta = 0
        v[(slice(0, 8),) * grid.dim] = 0.25
    got = core.energy_grad_dp(v, p, delta).ravel()
    assert np.all(np.isfinite(got))
    eps = 1e-6
    fd = (_loop_gradient(grid, v.ravel(), p + eps, delta)
          - _loop_gradient(grid, v.ravel(), p - eps, delta)) / (2.0 * eps)
    fd = np.where(core.dof_mask.ravel(), fd, 0.0)
    assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)


def test_in_place_edit_of_a_hessian_leaves_the_shared_pattern_intact():
    # at p = 2 and v = 0 the couplings along each cell's diagonal are stored
    # zeros, which eliminate_zeros would drop from the pattern every later
    # Hessian of the core is built on
    grid = build_grid(Domain.unit_square(), 16)
    core = make_core(grid, "dirichlet")
    v = np.zeros(grid.shape)
    with pytest.raises(ValueError):
        core.hessian(v, 2.0, 0.0).eliminate_zeros()
    after = core.hessian(v, 2.0, 0.0)
    fresh = VariationalCore(grid, "dirichlet").hessian(v, 2.0, 0.0)
    assert after.nnz == fresh.nnz
    assert np.array_equal(after.indices, fresh.indices)
    assert np.array_equal(after.indptr, fresh.indptr)
    assert np.array_equal(after.data, fresh.data)


def _lu_nnz(factor) -> int:
    return int(factor.L.nnz + factor.U.nnz)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", list(HESSIAN_DOMAINS))
def test_dofs_are_the_mask_and_hessians_are_canonical(name, bc):
    grid, core, v, s = _hessian_case(name, seed=11, bc=bc)
    assert np.array_equal(np.sort(core.dof_index), np.flatnonzero(core.dof_mask.ravel()))
    hess = core.hessian(v, 4.0, 1e-3)
    columns = np.split(hess.indices, hess.indptr[1:-1])
    assert all(np.all(np.diff(rows) > 0) for rows in columns)  # sorted, no duplicates
    # none of these may sort the shared read-only pattern in place
    x = s.ravel()[core.dof_index]
    products = (abs(hess) @ x, hess.T @ x, hess @ x)
    dense = hess.toarray()
    for got, want in zip(products, (np.abs(dense) @ x, dense.T @ x, dense @ x)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if grid.dim == 1:
        # a tridiagonal matrix in natural order has no fill
        assert _lu_nnz(core.factor(hess)) == 4 * len(core.dof_index) - 2


def test_rough_iterate_lu_keeps_the_fill_of_the_order():
    # threshold pivoting on a random iterate at large p swaps rows and
    # multiplies the fill; elimination on the diagonal keeps it
    grid = build_grid(Domain.unit_square(), 48)
    core = make_core(grid, "neumann")
    rng = np.random.default_rng(15)
    v = np.where(grid.nonexterior, rng.standard_normal(grid.shape), 0.0)
    p, delta = 15.0, 1e-3
    factor = core.weighted_factor(v, p, delta)
    assert _lu_nnz(factor) <= 1.3 * _lu_nnz(core.weighted_factor(v, 2.0, delta))
    s = rng.standard_normal(grid.shape)
    expected = spla.spsolve(core.weighted_metric(v, p, delta), s.ravel()[core.dof_index])
    got = core.precond_solve(s, factor).ravel()[core.dof_index]
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_n128_hessian_lu_fill_is_at_most_the_minimum_degree_fill():
    # 1,048,566 L+U nonzeros: SuperLU's MMD_AT_PLUS_A ordering of the same
    # Hessian with diagonal pivots (the fill depends on the pattern only)
    grid = build_grid(Domain.unit_square(), 128)
    core = make_core(grid, "dirichlet")
    v = np.where(grid.interior, np.random.default_rng(32).standard_normal(grid.shape), 0.0)
    assert _lu_nnz(core.factor(core.hessian(v, 32.0, 1e-3))) <= 1_048_566
