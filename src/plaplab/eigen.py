"""First eigenpairs of the p-Laplacian via projected Newton on the Rayleigh
quotient, and an exploratory second Dirichlet pair from half domains.

The discrete quotient is ``R_p(v) = N(v)/D(v)`` with the numerator summed
over affine elements and the denominator over lumped nodal masses:

    N(v) = sum_T |grad v|^p |T|          D(v) = sum_i m_i |v_i|^p

Each continuation stage minimizes ``R = p E_delta / D`` on ``D = 1`` (for
Neumann problems also zero p-mean, ``sum m_i |v_i|^(p-2) v_i = 0``) by
projected Newton (Absil, Mahony & Sepulchre, 2008) on the torsion solver's
engine (``dirichlet._Newton``, with its forcing terms, LU budget, two-grid
cycle, stop rule and ``EigenError`` on an unconverged target stage); see
:class:`_QuotientNewton`.  Trial points are re-projected to zero p-mean by a
safeguarded Newton solve of ``sum m_i |v_i - c|^(p-2) (v_i - c) = 0`` and
renormalized in L^p.  Dirichlet problems fix v = 0 on the boundary collar
and keep the first eigenfunction nonnegative.

The Neumann pair is solved by nested iteration (Hackbusch, 1985), on the
driver that p-torsion shares (``dirichlet._nested``): on a lattice that
nests in the half-resolution one (``fields.coarse_grid``) the continuation
runs at n/2, recursively down to ``dirichlet.NESTED_MIN_CELLS`` cells, and
the finer lattice starts from the exact P1 prolongation of that
eigenfunction with one stage at the target exponent, so that the ladder's
LUs are paid on the coarse lattices, where they are cheap.  The finest
lattice factors nothing unless a PCG misses: it preconditions with the
two-grid cycle (``dirichlet._TwoGrid``) on the last LU of the lattice
below.  Its ``stages`` span every level, each record naming its lattice's
``n``.  The Dirichlet pairs and ``p_sweep`` run the continuation on their
own lattice.  Every pair is built by ``_QuotientNewton.result``, and its
``iterations``, ``factorizations`` and ``pcg_iterations`` are sums over its
``stages``.

Reported eigenvalues come in two scalings: ``raw`` is the quotient minimum
(the eigenvalue of ``-lap_p u = raw |u|^(p-2) u``) and ``root = raw^(1/p)``,
the scaling that converges to geometric quantities as p grows: 1/inradius
for Dirichlet, 2/diameter for Neumann (:func:`limit_target`).  ``p_sweep``
tabulates the gap to those targets across exponents with warm-started
continuation.  ``second_dirichlet_eigen_experiment`` bounds the second
Dirichlet eigenvalue by the first eigenvalue of a symmetric half domain and
extends the half's eigenfunction oddly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import geometry
from ._variational import VariationalCore, make_core
from .dirichlet import (DELTA, SolverError, StageRecord, _nested, _Newton, _StageTotals,
                        check_exponent, continuation_ladder)
from .fields import Grid, ScalarField, build_grid, sample_at

__all__ = [
    "EigenError",
    "EigenResult",
    "SweepEntry",
    "SweepReport",
    "DiagonalProfile",
    "SecondEigenResult",
    "rayleigh_quotient",
    "project_zero_pmean",
    "dirichlet_eigen_first",
    "neumann_eigen_first",
    "limit_target",
    "p_sweep",
    "diagonal_profile",
    "nodal_distances",
    "second_dirichlet_eigen_experiment",
]


class EigenError(SolverError):
    """Nonconvergence of the shared Newton engine (diagnostics as in
    ``SolverError``) or invalid eigen-solver input.  A subclass of
    ``SolverError``, so a caller that catches ``SolverError`` catches eigen
    failures too."""


#: relative amplitude of the seeded random kick added once to Neumann starts,
#: which breaks the constant trap and orientation symmetries
PERTURBATION = 1e-3


@dataclass
class EigenResult(_StageTotals):
    """First eigenpair in a fixed normalization.

    ``field`` has sup-norm 1.  Dirichlet fields are nonnegative, with a
    positive maximum; Neumann fields have zero p-mean and a positive inner
    product ``sum m v r`` with the diameter ramp ``r``.  ``history`` holds the
    (regularized) quotient after each accepted step of the last stage, and
    ``residual`` the relative quotient-gradient norm ``||grad N - R grad D||
    / ||grad N||`` over the dofs at the returned field.  ``stages`` holds
    the stage records, as in ``SolveResult``, over every lattice of a nested
    Neumann solve (:func:`neumann_eigen_first`); ``iterations``,
    ``factorizations`` and ``pcg_iterations`` are their sums."""

    p: float
    bc: str
    raw: float
    root: float
    field: ScalarField
    history: np.ndarray
    residual: float
    stages: list[StageRecord]


# ---------------------------------------------------------------------------
# quotient and constraint primitives


def rayleigh_quotient(v: ScalarField, p: float, bc: str = "dirichlet") -> float:
    """Discrete Rayleigh quotient ``N(v)/D(v)`` (element-midpoint gradients,
    lumped masses).

    The exponent must satisfy 1 <= p < inf (p = 1: the total-variation
    quotient).  Dirichlet inputs must vanish on the boundary collar and
    Neumann inputs must have (approximately) zero p-mean.  Others raise
    ``EigenError``.
    """
    if not 1.0 <= p < math.inf:
        raise EigenError("Rayleigh quotient requires 1 <= p < inf")
    core = make_core(v.grid, bc)
    vals = v.values
    if bc == "dirichlet":
        if np.any(np.abs(vals[v.grid.boundary]) > 1e-9 * max(v.sup_norm(), 1e-300)):
            raise EigenError("Dirichlet quotient requires zero boundary values")
    else:
        bal = float(np.sum(_pmean_weights(vals, core.mass, p) * vals))
        if abs(bal) > 1e-6 * (core.pnorm_term(vals, p - 1.0) + 1e-300):
            raise EigenError("Neumann quotient requires zero p-mean")
    return _quotient(core, vals, p)


def _pmean_weights(w: np.ndarray, mass: np.ndarray, p: float) -> np.ndarray:
    """Weights ``a = m |w|^(p-2)`` of the p-mean balance ``sum a w``.

    ``a`` is 0 where ``w`` is 0, so that p < 2 gives no ``inf * 0``.
    """
    aw = np.abs(w)
    if p < 2.0:
        return mass * np.power(aw, p - 2.0, out=np.zeros_like(aw), where=aw > 0.0)
    return mass * aw ** (p - 2.0)


def _pmean_shift(vals: np.ndarray, mass: np.ndarray, p: float) -> float:
    """Shift c with ``f(c) = sum m |v - c|^(p-2)(v - c) = 0`` (closed form at
    p = 2) by safeguarded Newton on the strictly decreasing f: every
    evaluation tightens the bracket [min v, max v] by the sign of f, and a
    step that leaves it, or is longer than half the previous move, is
    replaced by its midpoint.  It starts at c = 0 when 0 lies in the bracket
    (trial points are nearly balanced) and stops once the step or the
    bracket is within 1e-12 of the value span (or a few ulps of the values,
    if that is more)."""
    sel = mass > 0.0
    x, m = vals[sel], mass[sel]
    if p == 2.0:
        return float(np.sum(m * x) / np.sum(m))
    lo = float(x.min())
    hi = float(x.max())
    if hi <= lo:
        return lo
    # a few ulps at least, so that every step and midpoint still moves c
    tol = max(1e-12 * (hi - lo), 4.0 * math.ulp(max(abs(lo), abs(hi))))
    c = 0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi)
    move = math.inf
    while True:
        w = x - c
        a = _pmean_weights(w, m, p)
        f = float(a @ w)
        if f > 0.0:
            lo = c
        elif f < 0.0:
            hi = c
        else:
            return c
        step = f / ((p - 1.0) * float(a.sum()))
        if abs(step) <= tol or hi - lo <= tol:
            return min(max(c + step, lo), hi)
        nxt = c + step
        if not lo < nxt < hi or abs(step) > 0.5 * abs(move):
            nxt = 0.5 * (lo + hi)
        move, c = nxt - c, nxt


def project_zero_pmean(v: ScalarField, p: float) -> ScalarField:
    """Subtract the constant that zeroes the weighted p-mean
    ``sum m_i |v_i - c|^(p-2) (v_i - c)``; raises ``EigenError`` unless
    1 < p < inf."""
    p = check_exponent(p, EigenError)
    core = make_core(v.grid, "neumann")
    c = _pmean_shift(v.values, core.mass, p)
    out = np.where(v.grid.nonexterior, v.values - c, 0.0)
    return ScalarField(v.grid, out)


# ---------------------------------------------------------------------------
# descent engine


def _quotient(core: VariationalCore, vals: np.ndarray, p: float) -> float:
    den = core.pnorm_term(vals, p)
    if den <= 0.0:
        raise EigenError("Rayleigh quotient of the zero field is undefined")
    return core.energy(vals, p, 0.0) * p / den


def _quotient_grad(core: VariationalCore, v: np.ndarray, p: float, delta: float):
    """``(p E_delta / D, grad E_delta, m |v|^(p-2) v)``, arrays zeroed off the dofs."""
    e, grad_e = core.energy_grad(v, p, delta)
    flux = np.where(core.dof_mask, _pmean_weights(v, core.mass, p) * v, 0.0)
    return p * e / core.pnorm_term(v, p), grad_e, flux


class _QuotientNewton(_Newton):
    """Projected Newton on ``R = p E_delta / D`` (``p E_delta`` on ``D =
    1``): the gradient is ``g = grad E_delta - R m |v|^(p-2) v`` and the
    Hessian is the Lagrangian's, the energy Hessian less the diagonal ``R
    (p-1) m |v|^(p-2)``, with ``R`` the objective the step has evaluated.
    Directions keep the linearized constraints (normals ``m |v|^(p-2) v``,
    for Neumann also ``m |v|^(p-2)``).  They are preconditioned with the LU
    of the metric, or on the finest lattice of a nested solve with the
    two-grid cycle smoothing on it.  The metric is the energy Hessian of
    the same assembly (``VariationalCore.assemble``), for Neumann plus a
    multiple of the weight-lumped mass on the diagonal, which keeps to the
    Hessian's scale at the corners where a high-p eigenfunction's gradient
    vanishes: each Newton step assembles the stamps once.  Trial points
    are shifted to zero p-mean (Neumann) and normalized to ``D = 1``."""

    error = EigenError
    max_iterations = 4000

    def __init__(self, core: VariationalCore, p: float, prior=(), two_grid=None):
        super().__init__(core, None, prior, two_grid)
        self.at = (p, DELTA)  # (p, delta) of the last Hessian
        self.assembled = None  # its energy Hessian and the metric's diagonal shift

    def objective(self, v, p, delta):
        q, grad_e, flux = _quotient_grad(self.core, v, p, delta)
        return q, grad_e - q * flux

    def hessian(self, v, p, delta, e):
        core, self.at = self.core, (p, delta)
        self.assembled = core.assemble(v, p, delta)
        weights = _pmean_weights(v, core.mass, p).ravel()[core.dof_index]
        return core.plus_diagonal(self.assembled[0], -(e * (p - 1.0) * weights))

    def constraints(self, v):
        core = self.core
        a = _pmean_weights(v, core.mass, self.at[0])
        normals = [a * v, a] if core.bc == "neumann" else [a * v]
        return np.column_stack([n.ravel()[core.dof_index] for n in normals])

    def retract(self, v, p):
        core = self.core
        if core.bc == "neumann":
            v = np.where(core.grid.nonexterior, v - _pmean_shift(v, core.mass, p), 0.0)
        den = core.pnorm_term(v, p)
        if den <= 0.0:
            raise EigenError("eigen iterate collapsed to zero")
        return v / den ** (1.0 / p)

    def metric(self, v, H):
        """The metric of the last Hessian ``H``, at ``v``."""
        return self.core.plus_diagonal(*self.assembled)

    def prolonged_start(self, v, p, delta, evaluated):
        """The prolonged eigenfunction itself, with its objective
        ``evaluated``: the quotient does not see its scale."""
        return v, "prolonged", evaluated

    def predict(self, v, p, delta, evaluated):
        """Whichever of ``v - s (p - p0) w``, retracted, for s = 0
        (``plain``, whose objective at ``(p, delta)`` is ``evaluated``), 1/2
        (``half-tangent``) and 1 (``tangent``) has the lowest quotient at
        ``(p, delta)``, with its kind and objective; ``v`` is the end point
        of the last stage (at ``p0``).  ``-w`` is the tangent ``dv/dp``:
        ``H w = d/dp g``, solved by :meth:`direction` subject to the end
        point's constraints, which absorb ``dR/dp``."""
        core = self.core
        p0, delta0 = self.stages[-1].p, self.stages[-1].delta
        av = np.abs(v)
        log = np.log(av, out=np.zeros_like(av), where=av > 0.0)
        dp = (core.energy_grad_dp(v, p0, delta0)
              - self.energy * log * _pmean_weights(v, core.mass, p0) * v)
        w = self.direction(v, dp, self.end_hessian)
        starts = [(self.retract(v - s * (p - p0) * w, p), kind, evaluated if s == 0.0 else None)
                  for kind, s in (("plain", 0.0), ("half-tangent", 0.5), ("tangent", 1.0))]
        return self._lowest(starts, p, delta)

    def result(self, v):
        """The :class:`EigenResult` at ``v``, the end point of the last
        stage, with a snapshot of the stage records."""
        core, last = self.core, self.stages[-1]
        q, grad_e, flux = _quotient_grad(core, v, last.p, last.delta)
        dofs = core.dof_mask
        residual = (float(np.linalg.norm((grad_e - q * flux)[dofs]))
                    / max(float(np.linalg.norm(grad_e[dofs])), 1e-300))
        raw = _quotient(core, v, last.p)
        # sign convention: a Dirichlet field has a positive maximum; a Neumann
        # field rises along the diameter ramp, whose inner product with it does
        # not tie on symmetric domains as its max and -min do (zero p-mean
        # survives negation)
        if core.bc == "neumann":
            flip = float(np.sum(core.mass * v * _diameter_ramp(core.grid))) < 0.0
        else:
            flip = abs(float(v.min())) > float(v.max())
        if flip:
            v = -v
        ok = core.grid.nonexterior
        out = ScalarField(core.grid, np.where(ok, v / float(np.max(np.abs(v[ok]))), 0.0))
        return EigenResult(p=last.p, bc=core.bc, raw=float(raw),
                           root=float(raw ** (1.0 / last.p)), field=out,
                           history=np.asarray(self.history[len(self.history) - last.iterations:]),
                           residual=residual, stages=list(self.stages))


def _start(core: VariationalCore, seed: int = 0) -> np.ndarray:
    """The p = 2 torsion function (Dirichlet), or a ramp along the diameter
    plus a kick of relative size ``PERTURBATION`` seeded by ``seed``
    (Neumann), which keeps the solve off the constants and off unstable
    symmetry axes."""
    grid = core.grid
    if core.bc == "dirichlet":
        return core.precond_solve(core.mass, core.weighted_factor(np.zeros(grid.shape), 2.0, 0.0))
    v = _diameter_ramp(grid)
    osc = float(v[grid.nonexterior].max() - v[grid.nonexterior].min())
    v = v + PERTURBATION * osc * np.random.default_rng(seed).standard_normal(grid.shape)
    return np.where(grid.nonexterior, v, 0.0)


def _continue(core: VariationalCore, v: np.ndarray, p: float, more=()) -> list[EigenResult]:
    """Minimize the quotient from ``v`` through ``continuation_ladder(p)``,
    then at each exponent of ``more`` in turn, on one engine
    (:meth:`_Newton.continuation`): one result per target."""
    newton = _QuotientNewton(core, p)
    results = []
    for ladder in [continuation_ladder(p), *((q,) for q in more)]:
        v, _ = newton.continuation(v, ladder)
        results.append(newton.result(v))
    return results


def dirichlet_eigen_first(grid: Grid, p: float = 2.0) -> EigenResult:
    """First Dirichlet eigenpair by continuation in p from :func:`_start`.

    Raises ``EigenError`` on an exponent outside 1 < p < inf and on
    nonconvergence (diagnostics attached)."""
    p = check_exponent(p, EigenError)
    core = make_core(grid, "dirichlet")
    return _continue(core, _start(core), p)[0]


def _diameter_ramp(grid: Grid) -> np.ndarray:
    """Linear ramp along the diameter direction (the limit profile's axis)."""
    if grid.dim == 1:
        return grid.coordinates()[0].copy()
    a, b = geometry.diameter_endpoints(grid.domain)
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    d /= np.linalg.norm(d)
    X, Y = grid.coordinates()
    return X * d[0] + Y * d[1]


def neumann_eigen_first(grid: Grid, p: float = 2.0, seed: int = 0) -> EigenResult:
    """First nontrivial Neumann eigenpair by nested iteration
    (``dirichlet._nested``, as p-torsion).  Where the lattice nests in the
    half-resolution one (``fields.coarse_grid``: n even and every shared
    node classified alike, as on squares, rectangles and intervals, not on
    the disc) the pair is first solved at n/2, likewise recursively, and
    the finer lattice runs only the target stage at ``p``
    (``_Newton.refine``) from the P1 prolongation of the coarse
    eigenfunction, to a stop target never looser than the coarse one.  The
    finest lattice preconditions its projected PCG with the two-grid cycle
    (``dirichlet._TwoGrid``) around the last LU of the lattice below and
    factors only after a PCG misses its forcing term.  The coarsest
    lattice, and one that does not nest, runs the continuation of
    :func:`dirichlet_eigen_first` from :func:`_start`, whose kick ``seed``
    seeds.  ``stages`` spans every level, coarsest first (each record's
    ``n`` names its lattice); ``history`` is the fine stage's.  Raises as
    :func:`dirichlet_eigen_first`."""
    p = check_exponent(p, EigenError)
    newton, v, _ = _nested(
        grid, lambda lattice, *nested: _QuotientNewton(make_core(lattice, "neumann"), p, *nested),
        partial(_start, seed=seed), p)
    return newton.result(v)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepEntry:
    p: float
    raw: float
    root: float
    target: float
    relative_gap: float
    iterations: int


@dataclass
class SweepReport:
    """Eigenvalue roots against their geometric limit across exponents."""

    problem: str
    target: float
    entries: list[SweepEntry] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "limitTarget": self.target,
            "entries": [
                {"p": e.p, "raw": e.raw, "root": e.root, "target": e.target,
                 "relativeGap": e.relative_gap, "iterations": e.iterations}
                for e in self.entries
            ],
        }


def limit_target(problem: str, domain: geometry.Domain) -> float:
    """The p -> oo limit of the eigenvalue roots of ``problem``: 1/inradius
    (``"dirichlet"``) or 2/diameter (``"neumann"``)."""
    if problem == "dirichlet":
        return 1.0 / geometry.inradius(domain)
    if problem == "neumann":
        return 2.0 / geometry.diameter(domain)
    raise EigenError(f"unknown eigenproblem {problem!r}")


def sweep_exponents(p_list, error: type[Exception] = EigenError) -> list[float]:
    """The exponents of a sweep, sorted; raises ``error`` unless they are
    nonempty, distinct and each in 1 < p < inf."""
    ps = sorted(check_exponent(p, error) for p in p_list)
    if len(ps) != len(set(ps)) or not ps:
        raise error("p list must be nonempty with distinct entries")
    return ps


def p_sweep(problem: str, domain: geometry.Domain, p_list, n: int,
            seed: int = 0) -> SweepReport:
    """Eigen solves across exponents on one continuation.

    ``problem`` is ``"dirichlet"`` or ``"neumann"``, compared with its
    :func:`limit_target`; ``p_list`` must pass :func:`sweep_exponents`, and
    ``seed`` seeds a Neumann start's kick.  Entries are sorted by p; each
    continues from the previous one through the engine's predictor and
    counts its own steps.
    """
    target = limit_target(problem, domain)
    ps = sweep_exponents(p_list)
    grid = build_grid(domain, n)  # the grid owns its core
    core = make_core(grid, problem)
    report = SweepReport(problem=problem, target=target)
    done = 0
    for p, res in zip(ps, _continue(core, _start(core, seed), ps[0], more=ps[1:])):
        report.entries.append(SweepEntry(p=p, raw=res.raw, root=res.root, target=target,
                                         relative_gap=abs(res.root - target) / target,
                                         iterations=res.iterations - done))
        done = res.iterations
    return report


# ---------------------------------------------------------------------------
# profiles and nodal geometry


@dataclass
class DiagonalProfile:
    """Eigenfunction trace along a square's diagonal.

    ``t`` is arclength normalized to [-1, 1] at 513 equispaced points;
    ``values`` are normalized to sup 1 along the trace.  ``max_deviation``
    is the sup distance to the straight line y = t, minimized over the
    trace's sign (the limit profile is linear in the diameter direction).
    ``diagonal`` records which diagonal carried the larger value span.
    """

    t: np.ndarray
    values: np.ndarray
    max_deviation: float
    diagonal: str


def diagonal_profile(u: ScalarField) -> DiagonalProfile:
    dom = u.grid.domain
    if not dom.is_square():
        raise EigenError("diagonal profile requires a square domain")
    v = dom.vertices
    s = np.linspace(0.0, 1.0, 513)[:, None]
    traces = {}
    for name, (a, c) in (("main", (v[0], v[2])), ("anti", (v[1], v[3]))):
        pts = a[None, :] * (1.0 - s) + c[None, :] * s
        traces[name] = sample_at(u, pts)
    name = max(traces, key=lambda k: float(np.ptp(traces[k])))
    vals = traces[name]
    sup = float(np.max(np.abs(vals)))
    if sup <= 0.0:
        raise EigenError("diagonal trace vanishes identically")
    vals = vals / sup
    t = 2.0 * s[:, 0] - 1.0
    dev = min(float(np.max(np.abs(sgn * vals - t))) for sgn in (1.0, -1.0))
    return DiagonalProfile(t=t, values=vals, max_deviation=dev, diagonal=name)


def nodal_distances(u: ScalarField) -> tuple[float, float]:
    """(d_plus, d_minus): largest distance from a positive (negative) node
    to the discrete nodal set (sign-change crossings, linearly interpolated).
    """
    g = u.grid
    vals = u.values
    ok = g.nonexterior
    pts_nodal = []
    if g.dim == 1:
        xs = g.xs
        sign_change = ok[:-1] & ok[1:] & (vals[:-1] * vals[1:] < 0.0)
        for i in np.flatnonzero(sign_change):
            t = vals[i] / (vals[i] - vals[i + 1])
            pts_nodal.append((xs[i] + t * g.h, 0.0))
        for i in np.flatnonzero(ok & (vals == 0.0)):
            pts_nodal.append((xs[i], 0.0))
        coords = np.column_stack([g.xs, np.zeros_like(g.xs)])
        pos = ok & (vals > 0.0)
        neg = ok & (vals < 0.0)
        pos_pts = coords[pos]
        neg_pts = coords[neg]
    else:
        X, Y = g.coordinates()
        # x-direction edges
        change = ok[:-1, :] & ok[1:, :] & (vals[:-1, :] * vals[1:, :] < 0.0)
        ii, jj = np.nonzero(change)
        t = vals[ii, jj] / (vals[ii, jj] - vals[ii + 1, jj])
        pts_nodal.extend(zip(X[ii, jj] + t * g.h, Y[ii, jj]))
        # y-direction edges
        change = ok[:, :-1] & ok[:, 1:] & (vals[:, :-1] * vals[:, 1:] < 0.0)
        ii, jj = np.nonzero(change)
        t = vals[ii, jj] / (vals[ii, jj] - vals[ii, jj + 1])
        pts_nodal.extend(zip(X[ii, jj], Y[ii, jj] + t * g.h))
        ii, jj = np.nonzero(ok & (vals == 0.0))
        pts_nodal.extend(zip(X[ii, jj], Y[ii, jj]))
        pos = ok & (vals > 0.0)
        neg = ok & (vals < 0.0)
        pos_pts = np.column_stack([X[pos], Y[pos]])
        neg_pts = np.column_stack([X[neg], Y[neg]])
    if not pts_nodal:
        raise EigenError("field has no discrete nodal set")
    nodal = np.asarray(pts_nodal)

    def far(side_pts: np.ndarray) -> float:
        if len(side_pts) == 0:
            return 0.0
        d2 = ((side_pts[:, None, :2] - nodal[None, :, :2]) ** 2).sum(axis=-1)
        return float(np.sqrt(d2.min(axis=1)).max())

    return far(np.atleast_2d(pos_pts)), far(np.atleast_2d(neg_pts))


# ---------------------------------------------------------------------------
# exploratory second eigenvalue


@dataclass
class SecondEigenResult:
    """Second Dirichlet eigenpair from symmetric half domains (exploratory).

    ``eigen`` carries the ``raw``, ``root`` and diagnostics of the lowest
    half-domain first eigenpair (:func:`second_dirichlet_eigen_experiment`)
    and, as ``field``, its eigenfunction extended oddly to the whole grid.
    ``family_raw`` holds each family's ``raw``: ``"axis"`` (halves across a
    mid-line, the lower of two) and, on a square, ``"diagonal"``.
    ``orientation`` is the lower family's nodal-line tag (``"parallel"`` or
    ``"diagonal"``), or ``"other"`` when the two agree within
    ``DEGENERACY_RTOL``.
    """

    eigen: EigenResult
    orientation: str
    family_raw: dict[str, float]


#: Relative split of the family quotients below which they tie (orientation
#: ``"other"``).  On the unit square at p = 2, where the discrete pair is
#: degenerate, the split is at most 2.9e-16 for n in {16, 24, 32, 40, 48,
#: 64, 96}; at n = 48 it grows as 0.042 |p - 2| (4.2e-4 at p = 2.01)
DEGENERACY_RTOL = 1e-12


def second_dirichlet_eigen_experiment(grid: Grid, p: float = 2.0) -> SecondEigenResult:
    """Upper bound for lambda_2 from the first eigenpairs of half domains
    (exploratory).

    By the minimax characterization (Cuesta, de Figueiredo & Gossez, 1999)
    lambda_2 is at most the larger first eigenvalue of the two sets of any
    partition, which for two congruent halves is the half's.  So
    :func:`dirichlet_eigen_first` runs at ``p`` and ``grid.h`` on each
    half that the lattice maps onto its mirror image: the halves of an
    interval; of a rectangle across each mid-line (one of the two on a
    square, where the transpose, a symmetry of the P1 mesh, exchanges
    them); and on a square the triangle below the main diagonal, the one
    diagonal that splits the mesh's cells.  The bound is lambda_2 when an
    optimal partition is symmetric; as p -> oo, lambda_2^(1/p) -> 1/r_2,
    the inverse of the largest radius of two disjoint equal discs
    (Juutinen & Lindqvist, 2005), which is the inradius of the square's
    diagonal halves.  Other domains, and mid-lines off the lattice, raise
    ``EigenError``.
    """
    p = check_exponent(p, EigenError)
    best = {}
    for family, half, reflect in _halves(grid):
        res = dirichlet_eigen_first(half, p)
        if family not in best or res.raw < best[family][0].raw:
            best[family] = (res, half, reflect)
    family_raw = {name: res.raw for name, (res, _, _) in best.items()}
    res, half, reflect = min(best.values(), key=lambda b: b[0].raw)
    # the half's nodes are the grid's first ones along each axis
    e = np.zeros(grid.shape)
    e[tuple(slice(0, s) for s in half.shape)] = res.field.values
    ra, rd = family_raw["axis"], family_raw.get("diagonal", math.inf)
    if abs(ra - rd) <= DEGENERACY_RTOL * min(ra, rd):
        orientation = "other"
    else:
        orientation = "parallel" if ra < rd else "diagonal"
    return SecondEigenResult(eigen=replace(res, field=ScalarField(grid, e - reflect(e))),
                             orientation=orientation, family_raw=family_raw)


def _halves(grid: Grid) -> list[tuple[str, Grid, Callable[[np.ndarray], np.ndarray]]]:
    """``(family, half grid, reflection)`` for each half domain of
    :func:`second_dirichlet_eigen_experiment`.  Each half holds the
    domain's lower-left corner and is built at ``grid.h``; the reflection
    maps a full-grid array onto its mirror image across the half's edge."""
    dom, h = grid.domain, grid.h
    x0, y0, x1, y1 = dom.bounding_box
    if dom.kind == "interval":
        axes = (0,)
    elif (dom.kind == "polygon" and len(dom.vertices) == 4
          and bool(np.all((dom.vertices == (x0, y0)) | (dom.vertices == (x1, y1))))):
        axes = (0,) if dom.is_square() else (0, 1)
    else:
        raise EigenError("the second pair needs an interval or an axis-aligned rectangle")
    halves = []
    for axis in axes:
        lo, hi = (x0, x1) if axis == 0 else (y0, y1)
        cells = (hi - lo) / (2.0 * h)  # lattice cells between an edge and the mid-line
        if abs(cells - round(cells)) > 1e-9:
            raise EigenError("the mid-line is not a lattice line")
        mid = 0.5 * (lo + hi)
        if dom.dim == 1:
            half = geometry.Domain.interval(lo, mid)
        elif axis == 0:
            half = geometry.Domain.rectangle(x0, y0, mid, y1)
        else:
            half = geometry.Domain.rectangle(x0, y0, x1, mid)
        x0h, y0h, x1h, y1h = half.bounding_box
        n = round(max(x1h - x0h, y1h - y0h) / h)
        halves.append(("axis", build_grid(half, n), partial(np.flip, axis=axis)))
    if dom.is_square():
        triangle = geometry.Domain.polygon([(x0, y0), (x1, y0), (x1, y1)])
        halves.append(("diagonal", build_grid(triangle, grid.n), np.transpose))
    return halves
