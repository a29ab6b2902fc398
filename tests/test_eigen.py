"""First (and exploratory second) eigenpairs of the p-Laplacian.

Anchors: the 1-D Dirichlet root has the closed form
``2 pi (p-1)^(1/p) / (p sin(pi/p))`` (the 1-D Neumann root on a length-2
interval is half of it, and the second pair's root on the unit interval is
twice it), the unit square's p=2 eigenvalue is 2 pi^2, the
unit disc's root is the first Bessel zero, and the whole problem is
exactly scale-covariant.  A hand-computable tent function pins the
discrete Rayleigh quotient's quadrature conventions.
"""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from plaplab import dirichlet, eigen
from plaplab._variational import VariationalCore, make_core
from plaplab.eigen import (
    EigenError,
    diagonal_profile,
    dirichlet_eigen_first,
    neumann_eigen_first,
    nodal_distances,
    p_sweep,
    project_zero_pmean,
    rayleigh_quotient,
    second_dirichlet_eigen_experiment,
)
from plaplab.fields import ScalarField, build_grid
from plaplab.geometry import Domain, scaled


# ---------------------------------------------------------------------------
# quotient primitives


def test_rayleigh_quotient_hand_value_for_tent():
    # tent on [0,1] with n=8: gradient magnitude 1 on every cell (N = 1),
    # lumped masses h at interior nodes give D = (1/8) * 44/64 = 11/128
    grid = build_grid(Domain.interval(0.0, 1.0), 8)
    tent = ScalarField.from_function(grid, lambda x: np.minimum(x, 1.0 - x))
    assert rayleigh_quotient(tent, 2.0) == pytest.approx(128.0 / 11.0, rel=1e-14)


def test_rayleigh_quotient_admissibility_checks():
    grid = build_grid(Domain.unit_square(), 16)
    bad_dirichlet = ScalarField.from_function(grid, lambda x, y: x + 1.0)
    with pytest.raises(EigenError):
        rayleigh_quotient(bad_dirichlet, 2.0, bc="dirichlet")
    with pytest.raises(EigenError):
        rayleigh_quotient(bad_dirichlet, 2.0, bc="neumann")
    zero = ScalarField.from_function(grid, lambda x, y: np.zeros_like(x))
    with pytest.raises(EigenError):
        rayleigh_quotient(zero, 2.0, bc="dirichlet")
    # the exponent: p = 1 (total variation) up to any finite p
    bump = ScalarField.from_function(grid, lambda x, y: x * (1.0 - x) * y * (1.0 - y))
    balanced = project_zero_pmean(ScalarField.from_function(grid, lambda x, y: x), 2.0)
    for bc, field in (("dirichlet", bump), ("neumann", balanced)):
        assert 0.0 < rayleigh_quotient(field, 1.0, bc=bc) < math.inf
        for p in (0.5, -1.0, 0.0, math.inf, -math.inf, math.nan):
            with pytest.raises(EigenError):
                rayleigh_quotient(field, p, bc=bc)


def test_project_zero_pmean_properties():
    grid = build_grid(Domain.unit_square(), 24)
    u = ScalarField.from_function(grid, lambda x, y: x + 0.2 * np.sin(3.0 * y))
    w = project_zero_pmean(u, 3.0)
    # balanced: the Neumann quotient accepts the projected field
    assert rayleigh_quotient(w, 3.0, bc="neumann") > 0.0
    again = project_zero_pmean(w, 3.0)
    assert np.allclose(again.values, w.values, atol=1e-12)
    for p in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(EigenError):
            project_zero_pmean(u, p)


def test_config_validation():
    # every entry point checks each exponent before it solves
    square = Domain.unit_square()
    grid = build_grid(square, 8)
    for p in (1.0, math.inf):
        for solver in (dirichlet_eigen_first, neumann_eigen_first,
                       second_dirichlet_eigen_experiment):
            with pytest.raises(EigenError):
                solver(grid, p)
        with pytest.raises(EigenError):
            p_sweep("dirichlet", square, (2.0, p), 8)
    for p_list in ((), (2.0, 2.0)):
        with pytest.raises(EigenError):
            p_sweep("dirichlet", square, p_list, 8)


@pytest.mark.parametrize("solver", [dirichlet_eigen_first, neumann_eigen_first])
def test_iteration_cap_raises_with_diagnostics(solver, monkeypatch):
    # no stage of a p = 8 solve converges within 3 steps: 3 at each of
    # p = 2, 4 and 8, and the target stage raises with its record
    grid = build_grid(Domain.unit_square(), 16)
    monkeypatch.setattr(eigen._QuotientNewton, "max_iterations", 3)
    with pytest.raises(EigenError) as exc:
        solver(grid, 8.0)
    assert exc.value.iterations == 9
    assert math.isfinite(exc.value.residual) and exc.value.residual > 0.0
    stage = exc.value.stage
    assert (stage.p, stage.stop, stage.iterations) == (8.0, "max-iterations", 3)
    assert stage.residual == exc.value.residual > stage.target


@pytest.mark.parametrize("solver", [dirichlet_eigen_first, neumann_eigen_first])
def test_result_records_every_stage(solver):
    res = solver(build_grid(Domain.unit_square(), 32), p=8.0)
    assert [s.p for s in res.stages] == [2.0, 4.0, 8.0]
    assert [s.delta for s in res.stages] == [0.0, 1e-6, 1e-6]
    assert res.stages[0].start == "plain"
    assert {s.start for s in res.stages[1:]} <= {"plain", "half-tangent", "tangent"}
    assert sum(s.iterations for s in res.stages) == res.iterations
    assert sum(s.factorizations for s in res.stages) == res.factorizations >= 1
    assert sum(s.pcg_iterations for s in res.stages) == res.pcg_iterations
    assert all(s.stop == "converged" and s.residual <= s.target for s in res.stages)
    assert len(res.history) == res.stages[-1].iterations
    assert res.residual < 1e-6


def test_p11_dirichlet_reaches_its_residual():
    # the quotient descent this replaced stopped on a flat quotient at 2.0e-2
    res = dirichlet_eigen_first(build_grid(Domain.unit_square(), 64), p=1.1)
    assert res.residual <= 1e-6
    assert res.stages[-1].stop in ("converged", "rounding")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_p20_neumann_square_factors_few_times(seed):
    # the preconditioner's shift keeps to the Hessian's scale at the nodal
    # line's degenerate corners; one global weight there took 35-37 LUs
    res = neumann_eigen_first(build_grid(Domain.unit_square(), 64), p=20.0, seed=seed)
    assert res.factorizations <= 12
    assert oracles.square_neumann_lower(20.0) <= res.root <= oracles.square_neumann_upper(20.0)


def test_p12_neumann_square_converges():
    # with one global weight in the preconditioner's shift this solve stopped
    # "no-descent" at strong residual 3.0e-4
    res = neumann_eigen_first(build_grid(Domain.unit_square(), 64), p=1.2, seed=0)
    assert res.stages[-1].stop in ("converged", "rounding")
    assert oracles.square_neumann_lower(1.2) <= res.root <= oracles.square_neumann_upper(1.2)


# ---------------------------------------------------------------------------
# Neumann nested iteration


def _direct(grid, p, seed=0):
    """The Neumann pair by continuation on ``grid`` alone, from the kicked ramp."""
    core = make_core(grid, "neumann")
    return eigen._continue(core, eigen._start(core, seed), p)[0]


@pytest.mark.parametrize("domain, n", [(Domain.disc((0.0, 0.0), 1.0), 64),
                                       (Domain.unit_square(), 63)], ids=["disc", "odd-n"])
def test_neumann_lattices_that_do_not_nest_take_the_direct_ladder(domain, n):
    grid = build_grid(domain, n)
    res = neumann_eigen_first(grid, p=4.0)
    assert [(s.n, s.p) for s in res.stages] == [(n, 2.0), (n, 4.0)]
    assert "prolonged" not in {s.start for s in res.stages}
    ref = _direct(grid, 4.0)
    assert (res.root, res.residual, res.iterations) == (ref.root, ref.residual, ref.iterations)
    assert np.array_equal(res.field.values, ref.field.values)


NESTED_DOMAINS = {"square": Domain.unit_square(),
                  "rectangle": Domain.rectangle(0.0, 0.0, 2.0, 1.0),
                  "interval": Domain.interval(-1.0, 1.0)}


@pytest.mark.parametrize("name, p", [*(("square", p) for p in (1.5, 4.0, 15.0, 30.0)),
                                     *(("rectangle", p) for p in (8.0, 15.0)),
                                     *(("interval", p) for p in (3.5, 15.0))])
def test_nested_neumann_root_matches_the_direct_ladder(name, p, monkeypatch):
    domain = NESTED_DOMAINS[name]
    grid = build_grid(domain, 64)
    nested = neumann_eigen_first(grid, p=p)
    assert [s.n for s in nested.stages[-2:]] == [32, 64]
    monkeypatch.setattr(dirichlet, "coarse_grid", lambda grid: None)
    direct = neumann_eigen_first(build_grid(domain, 64), p=p)
    assert {s.n for s in direct.stages} == {64}
    assert nested.root == pytest.approx(direct.root, rel=1e-10)


def test_nested_neumann_records_every_level():
    res = neumann_eigen_first(build_grid(Domain.unit_square(), 64), p=8.0)
    assert [(s.n, s.p) for s in res.stages] == [(32, 2.0), (32, 4.0), (32, 8.0), (64, 8.0)]
    fine, coarse = res.stages[-1], res.stages[-2]
    assert fine.start == "prolonged" and fine.delta == 1e-6
    # the finest lattice runs on the two-grid cycle of the coarse LU
    assert fine.factorizations == 0 and coarse.factorizations >= 1
    assert fine.stop == "converged" and fine.residual <= fine.target <= coarse.target
    assert sum(s.iterations for s in res.stages) == res.iterations
    assert sum(s.factorizations for s in res.stages) == res.factorizations
    assert sum(s.pcg_iterations for s in res.stages) == res.pcg_iterations
    assert len(res.history) == fine.iterations
    assert res.field.grid.n == 64 and res.residual < 1e-6


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name, n", [("square", 24), ("disc", 24), ("interval", 64)])
@pytest.mark.parametrize("p", [1.5, 8.0])
def test_quotient_hessian_and_metric_are_diagonal_updates_of_one_assembly(name, n, bc, p):
    domain = {"square": Domain.unit_square(), "disc": Domain.disc((0.0, 0.0), 1.0),
              "interval": Domain.interval(0.0, 1.0)}[name]
    grid = build_grid(domain, n)
    core = make_core(grid, bc)
    rng = np.random.default_rng(int(p) + n)
    if bc == "neumann":
        v = eigen._diameter_ramp(grid) + 0.01 * rng.standard_normal(grid.shape)
    else:
        v = np.where(grid.interior, 1.0 + 0.01 * rng.standard_normal(grid.shape), 0.0)
    newton = eigen._QuotientNewton(core, p)
    delta = dirichlet.DELTA
    v = newton.retract(np.where(grid.nonexterior, v, 0.0), p)
    q, _ = newton.objective(v, p, delta)
    assert q == p * core.energy(v, p, delta) / core.pnorm_term(v, p)  # the quotient it reuses
    H = newton.hessian(v, p, delta, q)
    weights = eigen._pmean_weights(v, core.mass, p).ravel()[core.dof_index]
    lagrangian = core.hessian(v, p, delta) - sp.diags(q * (p - 1.0) * weights)
    assert np.array_equal(H.toarray(), lagrangian.toarray())
    metric, expected = newton.metric(v, H), core.weighted_metric(v, p, delta)
    assert np.array_equal(metric.indices, expected.indices)
    assert np.array_equal(metric.indptr, expected.indptr)
    assert np.array_equal(metric.data, expected.data)


def test_nested_neumann_assembles_stamps_once_per_hessian(monkeypatch):
    calls = collections.Counter()

    def spy(owner, name, lattice):
        original = getattr(owner, name)

        def wrapper(self, *args):
            calls[name, lattice(self)] += 1
            return original(self, *args)

        monkeypatch.setattr(owner, name, wrapper)

    spy(VariationalCore, "_stencil", lambda core: core.grid.n)
    for name in ("hessian", "metric"):
        spy(eigen._QuotientNewton, name, lambda newton: newton.core.grid.n)
    res = neumann_eigen_first(build_grid(Domain.unit_square(), 64), p=8.0)
    for n in (32, 64):
        # the metric of every direction and LU comes from its Hessian's assembly
        assert calls["metric", n] >= 1
        assert calls["_stencil", n] == calls["hessian", n]
    # the finest stage smooths on the metric once per direction
    assert calls["metric", 64] >= res.stages[-1].iterations >= 1
    assert res.stages[-1].factorizations == 0


@pytest.mark.parametrize("domain, n, p, seeds, atol", [
    (Domain.rectangle(0.0, 0.0, 2.0, 1.0), 128, 32.0, (0, 1, 2, 3), 1e-5),
    (Domain.unit_square(), 128, 15.0, (0, 1), 1e-12),
])
def test_neumann_orientation_does_not_depend_on_the_seed(domain, n, p, seeds, atol):
    # on these centrally symmetric domains max and -min of the eigenfunction
    # tie to rounding, so a positive-maximum rule flipped the field between
    # seeds; the sign of its inner product with the diameter ramp does not tie
    grid = build_grid(domain, n)
    core = make_core(grid, "neumann")
    fields = [neumann_eigen_first(grid, p, seed=seed).field.values for seed in seeds]
    for field in fields:
        assert np.max(np.abs(field - fields[0])) <= atol
        assert np.sum(core.mass * field * eigen._diameter_ramp(grid)) > 0.0


# ---------------------------------------------------------------------------
# p-mean shift (safeguarded Newton) against closed forms and bisection

SHIFT_EXPONENTS = (1.5, 3.0, 15.0, 32.0)


def _shift_inputs():
    """Seeded normal, skewed and one-outlier vectors; a few zero-mass
    nodes carry values far outside, which the shift must ignore."""
    rng = np.random.default_rng(11)
    n = 400
    mass = rng.uniform(0.5, 1.5, n)
    mass[:5] = 0.0
    vecs = {
        "normal": rng.standard_normal(n),
        "skewed": rng.exponential(size=n),
        "outlier": np.r_[0.01 * rng.standard_normal(n - 1), 10.0],
    }
    for v in vecs.values():
        v[:5] = 1e3
    return mass, vecs


@pytest.mark.parametrize("p", SHIFT_EXPONENTS)
def test_pmean_shift_two_point_closed_form(p):
    for x, m in (((-0.3, 1.7), (2.0, 0.5)), ((0.4, 2.5), (0.7, 3.0)),
                 ((-5.0, -1.0), (1.0, 1.0))):
        c = eigen._pmean_shift(np.array(x), np.array(m), p)
        expected = oracles.pmean_shift_two_point(*x, *m, p)
        assert abs(c - expected) <= 2e-12 * (x[1] - x[0])


def test_pmean_shift_exact_zeros_below_p2():
    # the first Newton evaluation sits at c = 0, where all but one node
    # vanish: |0|^(p-2) = inf must not enter the balance as inf * 0
    p = 1.5
    mass = np.linspace(0.5, 1.5, 50)
    vals = np.zeros(50)
    vals[17] = 1.0
    with np.errstate(divide="raise", invalid="raise"):
        c = eigen._pmean_shift(vals, mass, p)
    assert math.isfinite(c)
    rest = float(mass.sum() - mass[17])
    assert abs(c - oracles.pmean_shift_two_point(0.0, 1.0, rest, mass[17], p)) <= 2e-12
    w = vals - c
    bal = np.sum(mass * np.abs(w) ** (p - 1.0) * np.sign(w))
    assert abs(bal) <= 1e-6 * np.sum(mass * np.abs(w) ** (p - 1.0))


def test_pmean_shift_stops_at_float_resolution():
    # a span of a few ulps: a 1e-12-of-span tolerance alone is below the
    # spacing of the values, where midpoints and steps no longer move c
    vals = 1.0 + 1e-14 * np.random.default_rng(5).standard_normal(100)
    mass = np.ones(100)
    for p in SHIFT_EXPONENTS:
        c = eigen._pmean_shift(vals, mass, p)
        assert vals.min() <= c <= vals.max()


@pytest.mark.parametrize("p", SHIFT_EXPONENTS)
def test_pmean_shift_matches_bisection(p, monkeypatch):
    evaluations = []
    weights = eigen._pmean_weights

    def counted(*args):
        evaluations.append(1)
        return weights(*args)

    monkeypatch.setattr(eigen, "_pmean_weights", counted)
    mass, vecs = _shift_inputs()
    for kind, vals in vecs.items():
        evaluations.clear()
        c = eigen._pmean_shift(vals, mass, p)
        expected = oracles.pmean_shift_bisection(vals, mass, p)
        assert abs(c - expected) <= 3e-12 * np.ptp(vals[mass > 0.0]), kind
        # plain bisection needs 41 balance evaluations
        assert len(evaluations) <= 60, kind


# ---------------------------------------------------------------------------
# 1-D closed forms


@pytest.mark.parametrize("p", [2.0, 3.5])
def test_interval_dirichlet_root_closed_form(p):
    grid = build_grid(Domain.interval(0.0, 1.0), 64)
    res = dirichlet_eigen_first(grid, p=p)
    assert res.root == pytest.approx(oracles.pi_p(p), rel=5e-4)
    assert res.field.values.min() >= -1e-12  # first eigenfunction one-signed


def test_interval_dirichlet_refines_toward_closed_form():
    errs = {}
    for n in (64, 128):
        grid = build_grid(Domain.interval(0.0, 1.0), n)
        errs[n] = abs(dirichlet_eigen_first(grid, p=2.0).root - math.pi)
    assert errs[128] < 0.3 * errs[64]  # second-order eigenvalue convergence


@pytest.mark.parametrize("p", [2.0, 3.5])
def test_interval_neumann_root_closed_form(p):
    grid = build_grid(Domain.interval(-1.0, 1.0), 128)
    res = neumann_eigen_first(grid, p=p)
    assert res.root == pytest.approx(oracles.pi_p(p) / 2.0, rel=2e-4)


def test_pi_p_reduces_to_pi():
    assert oracles.pi_p(2.0) == pytest.approx(math.pi, rel=1e-15)


def test_tail_limit_recovers_the_1d_limits():
    dirichlet = {p: oracles.pi_p(p) for p in (8.0, 16.0, 32.0)}
    neumann = {p: oracles.pi_p(p) / math.sqrt(2.0) for p in (8.0, 10.0, 15.0)}
    assert oracles.tail_limit(dirichlet) == pytest.approx(2.0, rel=2e-3)
    assert oracles.tail_limit(neumann) == pytest.approx(math.sqrt(2.0),
                                                        rel=2e-3)


@pytest.mark.parametrize("lower, upper, target, exact_p2", [
    (oracles.square_dirichlet_lower, oracles.square_dirichlet_upper,
     2.0, math.sqrt(2.0) * math.pi),
    (oracles.square_neumann_lower, oracles.square_neumann_upper,
     math.sqrt(2.0), math.pi),
])
def test_square_root_bounds_bracket_and_narrow(lower, upper, target,
                                               exact_p2):
    # the unit square's p = 2 roots are exact: sqrt(2) pi and pi
    assert lower(2.0) < exact_p2 < upper(2.0)
    ps = (2.0, 4.0, 8.0, 16.0, 32.0, 1e4)
    for p in ps:
        # the 1-D closed form on an interval as long as the slab width
        # (Dirichlet) or the diameter (Neumann) is the lower bound itself
        one_d = oracles.pi_p(p) * target / 2.0
        assert lower(p) == pytest.approx(one_d, rel=1e-14)
        assert one_d < upper(p)
    widths = [upper(p) - lower(p) for p in ps]
    assert all(a > b > 0.0 for a, b in zip(widths, widths[1:]))
    # both bounds close in on the p -> oo limit from above
    assert target < lower(1e4) < upper(1e4) < target * (1.0 + 2e-3)


# ---------------------------------------------------------------------------
# 2-D closed forms


def test_square_p2_eigenvalue():
    grid = build_grid(Domain.unit_square(), 48)
    res = dirichlet_eigen_first(grid, p=2.0)
    assert res.raw == pytest.approx(2.0 * math.pi**2, rel=1e-3)
    assert res.field.sup_norm() == pytest.approx(1.0, abs=1e-12)


def test_disc_p2_root_is_first_bessel_zero():
    grid = build_grid(Domain.disc((0.0, 0.0), 1.0), 48)
    res = dirichlet_eigen_first(grid, p=2.0)
    j01 = math.sqrt(2.0 * oracles.bessel_dirichlet_eigenvalue(1))
    assert res.root == pytest.approx(j01, rel=5e-3)


def test_eigenvalue_scale_covariance_is_exact():
    r1 = dirichlet_eigen_first(build_grid(Domain.unit_square(), 32), p=3.0)
    r2 = dirichlet_eigen_first(build_grid(scaled(Domain.unit_square(), 2.0), 32),
                               p=3.0)
    assert r1.root == pytest.approx(2.0 * r2.root, rel=1e-12)


# ---------------------------------------------------------------------------
# sweeps toward the geometric limits


def test_dirichlet_sweep_structure(dirichlet_sweep):
    rep = dirichlet_sweep
    assert rep.problem == "dirichlet"
    assert rep.target == pytest.approx(2.0, rel=1e-12)  # 1/inradius
    ps = [e.p for e in rep.entries]
    assert ps == sorted(ps) == [2.0, 4.0, 8.0, 16.0, 32.0]
    roots = [e.root for e in rep.entries]
    assert all(b < a for a, b in zip(roots, roots[1:]))
    gaps = [e.relative_gap for e in rep.entries]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    payload = rep.to_dict()
    assert payload["limitTarget"] == rep.target
    assert len(payload["entries"]) == 5


def test_neumann_sweep_structure(neumann_sweep):
    rep = neumann_sweep
    assert rep.problem == "neumann"
    assert rep.target == pytest.approx(math.sqrt(2.0), rel=1e-12)  # 2/diameter
    ps = [e.p for e in rep.entries]
    assert ps == sorted(ps) == [2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 15.0]
    roots = [e.root for e in rep.entries]
    assert all(b < a for a, b in zip(roots, roots[1:]))


def test_neumann_below_dirichlet_at_matching_p(dirichlet_sweep, neumann_sweep):
    lam = {e.p: e.root for e in dirichlet_sweep.entries}
    big = {e.p: e.root for e in neumann_sweep.entries}
    for p in (2.0, 4.0, 8.0):
        assert big[p] < lam[p]


# ---------------------------------------------------------------------------
# profiles and nodal structure


def test_diagonal_profile_of_cosine_mode():
    grid = build_grid(Domain.unit_square(), 64)
    u = ScalarField.from_function(grid, lambda x, y: np.cos(np.pi * x))
    prof = diagonal_profile(u)
    assert prof.t[0] == -1.0 and prof.t[-1] == 1.0
    assert float(np.max(np.abs(prof.values))) == pytest.approx(1.0, abs=1e-12)
    assert prof.max_deviation == pytest.approx(oracles.COSINE_LINE_DEVIATION,
                                               abs=2e-3)


def test_diagonal_profile_requires_square():
    grid = build_grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 16)
    u = ScalarField.from_function(grid, lambda x, y: x)
    with pytest.raises(EigenError):
        diagonal_profile(u)


def test_nodal_distances_interval():
    grid = build_grid(Domain.interval(0.0, 1.0), 16)
    u = ScalarField.from_function(grid, lambda x: x - 0.5)
    d_plus, d_minus = nodal_distances(u)
    assert d_plus == pytest.approx(0.5, abs=1e-12)
    assert d_minus == pytest.approx(0.5, abs=1e-12)


def test_nodal_distances_vertical_line():
    grid = build_grid(Domain.unit_square(), 20)
    u = ScalarField.from_function(grid, lambda x, y: x - 0.3)
    d_plus, d_minus = nodal_distances(u)
    assert d_plus == pytest.approx(0.7, abs=1e-12)
    assert d_minus == pytest.approx(0.3, abs=1e-12)


def test_p15_neumann_eigenfunction_diagnostics(neumann_p15_128):
    res = neumann_p15_128
    assert res.p == 15.0 and res.bc == "neumann"
    assert res.field.sup_norm() == pytest.approx(1.0, abs=1e-12)
    assert res.residual < 1e-4
    assert np.all(np.diff(res.history) <= 1e-12)


# ---------------------------------------------------------------------------
# exploratory second eigenpair


def test_second_pair_square_p2_is_degenerate():
    res = second_dirichlet_eigen_experiment(build_grid(Domain.unit_square(), 48),
                                            p=2.0)
    assert res.orientation == "other"  # parallel/diagonal families tie at p=2
    assert res.eigen.raw == pytest.approx(5.0 * math.pi**2, rel=1e-2)


def test_second_pair_rectangle_splits_long_side():
    grid = build_grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 32)
    res = second_dirichlet_eigen_experiment(grid, p=2.0)
    assert res.orientation == "parallel"
    assert res.eigen.raw == pytest.approx(2.0 * math.pi**2, rel=1e-2)


def test_second_pair_square_p6_prefers_diagonal():
    res = second_dirichlet_eigen_experiment(build_grid(Domain.unit_square(), 48),
                                            p=6.0)
    assert res.orientation == "diagonal"
    assert res.eigen.raw > res.eigen.root  # raw = root^6 >> root here


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_second_pair_interval_is_twice_pi_p(p):
    # each half of (0, 1) has the first root 2 pi_p, and the nodal point is
    # the midpoint
    res = second_dirichlet_eigen_experiment(build_grid(Domain.interval(0.0, 1.0), 128), p=p)
    assert res.eigen.root == pytest.approx(2.0 * oracles.pi_p(p), rel=5e-4)
    assert res.orientation == "parallel" and set(res.family_raw) == {"axis"}
    v = res.eigen.field.values
    assert np.array_equal(v, -v[::-1])


def test_second_pair_field_is_the_odd_extension_of_its_half():
    # the diagonal is a symmetry of the P1 mesh: the full-grid quotient of
    # the extended field is the triangle's lambda_1 bit for bit (n = 48)
    square = Domain.unit_square()
    res = second_dirichlet_eigen_experiment(build_grid(square, 48), p=6.0)
    v = res.eigen.field.values
    assert res.orientation == "diagonal" and np.array_equal(v, -v.T)
    triangle = Domain.polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
    assert res.eigen.raw == dirichlet_eigen_first(build_grid(triangle, 48), p=6.0).raw
    assert rayleigh_quotient(res.eigen.field, 6.0) == res.eigen.raw
    # a mid-line reflection maps each cell's split diagonal to the other
    # one, so there the full-grid quotient only approximates raw (measured
    # rel 3.2e-4 at n = 32, 4.2e-5 at n = 64)
    res = second_dirichlet_eigen_experiment(
        build_grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 32), p=4.0)
    v = res.eigen.field.values
    assert res.orientation == "parallel" and np.array_equal(v, -v[::-1, :])
    assert rayleigh_quotient(res.eigen.field, 4.0) == pytest.approx(res.eigen.raw, rel=1e-3)


def test_second_pair_requires_lattice_conforming_halves():
    with pytest.raises(EigenError):
        second_dirichlet_eigen_experiment(build_grid(Domain.disc((0.0, 0.0), 1.0), 32), p=2.0)
    # h = 1/17 puts the horizontal mid-line of the 2 x 1 rectangle off the lattice
    with pytest.raises(EigenError):
        second_dirichlet_eigen_experiment(
            build_grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 34), p=2.0)
