"""First (and exploratory second) eigenpairs of the p-Laplacian via
projected steepest descent on the Rayleigh quotient.

The discrete quotient is ``R_p(v) = N(v)/D(v)`` with the numerator summed
over affine elements and the denominator over lumped nodal masses:

    N(v) = sum_T |grad v|^p |T|          D(v) = sum_i m_i |v_i|^p

Descent steps follow the preconditioned quotient gradient
``H^{-1}(grad N - R_p grad D)``, where ``H`` is the Hessian of the
regularized p-energy (the 5-point stiffness at p = 2; mass-shifted for
Neumann), factored at the start of every continuation stage and, away from
p = 2, again every ``METRIC_REFRESH`` steps.  Backtracking enforces a
strictly nonincreasing quotient, and iterates are renormalized in L^p after
every step.  A stage that reaches ``max_iterations`` raises ``EigenError``.
Dirichlet problems fix v = 0 on the boundary collar and keep the first
eigenfunction nonnegative; Neumann problems constrain the p-mean to zero,
re-projected each step by a safeguarded Newton solve of
``sum m_i |v_i - c|^(p-2) (v_i - c) = 0``.

Reported eigenvalues come in two scalings: ``raw`` is the quotient minimum
(the eigenvalue of ``-lap_p u = raw |u|^(p-2) u``) and ``root = raw^(1/p)``,
the scaling that converges to geometric quantities as p grows: 1/inradius
for Dirichlet, 2/diameter for Neumann.  ``p_sweep`` tabulates the gap to
those targets across exponents with warm-started continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from ._variational import VariationalCore, make_core
from .dirichlet import check_ladder, continuation_ladder, resolve_cfg
from .fields import FieldError, Grid, ScalarField, build_grid, sample_at

__all__ = [
    "EigenError",
    "EigenConfig",
    "EigenResult",
    "SweepEntry",
    "SweepReport",
    "DiagonalProfile",
    "SecondEigenResult",
    "rayleigh_quotient",
    "project_zero_pmean",
    "dirichlet_eigen_first",
    "neumann_eigen_first",
    "p_sweep",
    "diagonal_profile",
    "nodal_distances",
    "second_dirichlet_eigen_experiment",
]

#: iterations a factored energy Hessian serves before it is rebuilt (p != 2)
METRIC_REFRESH = 12


class EigenError(RuntimeError):
    """Nonconvergence or invalid eigen-solver input.

    A descent stage that makes ``max_iterations`` steps without stopping
    raises it with the stage's ``iterations`` and final ``residual``
    attached.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class EigenConfig:
    """Descent parameters for the Rayleigh-quotient minimization.

    Each stage stops once ``stall_window`` consecutive accepted steps each
    lower the quotient by less than ``tol`` relatively (or no decreasing
    step exists); a stage that makes ``max_iterations`` steps first raises
    ``EigenError``.  ``perturbation`` is the relative amplitude of the seeded
    random kick added once to Neumann starts to break the constant trap and
    orientation symmetries.
    """

    p: float = 2.0
    delta: float = 1e-6
    tol: float = 1e-10
    max_iterations: int = 4000
    stall_window: int = 50
    ladder: tuple[float, ...] | None = None
    seed: int = 0
    perturbation: float = 1e-3

    def __post_init__(self):
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise EigenError("eigen exponent requires 1 < p < inf")
        if self.tol <= 0.0 or self.delta < 0.0:
            raise EigenError("tol must be > 0 and delta >= 0")
        if self.max_iterations < 1:
            raise EigenError("max_iterations must be positive")
        if self.ladder is not None:
            check_ladder(self.ladder, self.p, EigenError)


@dataclass
class EigenResult:
    """First eigenpair in a fixed normalization.

    ``field`` has sup-norm 1 with positive maximum (Dirichlet fields are
    nonnegative, Neumann fields have zero p-mean).  ``history`` is the
    nonincreasing sequence of accepted Rayleigh-quotient values of the last
    stage.  ``residual`` is the relative quotient-gradient norm
    ``||grad N - R grad D|| / ||grad N||`` over the degrees of freedom, at
    the start of the last iteration (not preconditioned).
    """

    p: float
    bc: str
    raw: float
    root: float
    field: ScalarField
    history: np.ndarray
    iterations: int
    residual: float


# ---------------------------------------------------------------------------
# quotient and constraint primitives


def rayleigh_quotient(v: ScalarField, p: float, bc: str = "dirichlet",
                      check: bool = True) -> float:
    """Discrete Rayleigh quotient ``N(v)/D(v)`` (element-midpoint gradients,
    lumped masses).

    With ``check`` on, Dirichlet inputs must vanish on the boundary collar
    and Neumann inputs must have (approximately) zero p-mean.
    """
    core = make_core(v.grid, bc)
    vals = v.values
    if check:
        sup = max(v.sup_norm(), 1e-300)
        if bc == "dirichlet":
            bmask = v.grid.boundary
            if np.any(np.abs(vals[bmask]) > 1e-9 * sup):
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
    p = 2).

    f decreases strictly in c, with ``f'(c) = -(p-1) sum m |v - c|^(p-2)``,
    so the root is found by safeguarded Newton: every evaluation tightens
    the bracket [min v, max v] by the sign of f, and a Newton step that
    leaves the bracket, or is longer than half the previous move (Newton is
    then converging only linearly), is replaced by the bracket midpoint.  It
    starts at c = 0 when 0 lies in the bracket, because projected iterates
    minus a step are nearly balanced, and stops once the step or the
    bracket is within 1e-12 of the value span (or a few ulps of the values,
    if that is more).
    """
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
    ``sum m_i |v_i - c|^(p-2) (v_i - c)``."""
    if not p > 1.0:
        raise EigenError("p-mean projection requires p > 1")
    core = make_core(v.grid, "neumann")
    c = _pmean_shift(v.values, core.mass, p)
    out = np.where(v.grid.nonexterior, v.values - c, 0.0)
    return ScalarField(v.grid, out)


# ---------------------------------------------------------------------------
# descent engine


def _normalize(core: VariationalCore, vals: np.ndarray, p: float) -> np.ndarray:
    den = core.pnorm_term(vals, p)
    if den <= 0.0:
        raise EigenError("eigen iterate collapsed to zero")
    return vals / den ** (1.0 / p)


def _project(core: VariationalCore, vals: np.ndarray, p: float, neumann: bool,
             deflate=None) -> np.ndarray:
    if neumann:
        c = _pmean_shift(vals, core.mass, p)
        vals = np.where(core.grid.nonexterior, vals - c, 0.0)
    if deflate is not None:
        w, wnorm2 = deflate
        coeff = float(np.sum(w * vals)) / wnorm2
        vals = vals - coeff * w
        vals = np.where(core.grid.nonexterior, vals, 0.0)
    return vals


def _quotient(core: VariationalCore, vals: np.ndarray, p: float) -> float:
    den = core.pnorm_term(vals, p)
    if den <= 0.0:
        raise EigenError("Rayleigh quotient of the zero field is undefined")
    return core.energy(vals, p, 0.0) * p / den


def _descend_quotient(core: VariationalCore, v0: np.ndarray, p: float,
                      cfg: EigenConfig, neumann: bool, deflate=None):
    """Monotone preconditioned descent on R_p; returns (v, history, its, residual).

    The metric is the energy Hessian at the stage's start iterate (mass-
    shifted for Neumann), a local LU that dies with the stage.  Away from
    p = 2 it is refactored at the current iterate every ``METRIC_REFRESH``
    iterations, which keeps the steps Newton-like for strongly degenerate
    exponents.  Raises ``EigenError`` when ``cfg.max_iterations`` steps end
    without a stop.
    """
    v = _project(core, v0.copy(), p, neumann, deflate)
    v = _normalize(core, v, p)
    r_cur = _quotient(core, v, p)
    history = [r_cur]
    tau = 1.0
    stall = 0
    it = 0
    gnorm_rel = math.inf
    factor = None
    while it < cfg.max_iterations:
        it += 1
        if factor is None or (p != 2.0 and (it - 1) % METRIC_REFRESH == 0):
            factor = None  # free the old LU before the new one is built
            factor = core.weighted_factor(v, p, cfg.delta)
        _, g_num = core.energy_grad(v, p, cfg.delta)
        g_num = g_num * p  # energy carries 1/p
        g_den = core.pnorm_grad(v, p)
        g = g_num - r_cur * g_den
        d = core.precond_solve(g, factor)
        dmax = float(np.max(np.abs(d)))
        vmax = float(np.max(np.abs(v)))
        if dmax > 4.0 * vmax:
            d *= 4.0 * vmax / dmax
        accepted = False
        t = tau
        for _ in range(50):
            v_try = _normalize(core, _project(core, v - t * d, p, neumann, deflate), p)
            r_try = _quotient(core, v_try, p)
            if r_try < r_cur * (1.0 - 1e-15):
                accepted = True
                break
            t *= 0.5
        # refine: a first-accepted step may overshoot the 1-D minimum (at
        # p = 2 a full preconditioned step leaves high modes undamped), so
        # halve while that still lowers the quotient
        while accepted:
            v_half = _normalize(core,
                                _project(core, v - 0.5 * t * d, p, neumann, deflate), p)
            r_half = _quotient(core, v_half, p)
            if r_half < r_try:
                t, v_try, r_try = 0.5 * t, v_half, r_half
            else:
                break
        gnorm_rel = float(np.linalg.norm(g[core.dof_mask])
                          / max(np.linalg.norm(g_num[core.dof_mask]), 1e-300))
        if not accepted:
            break
        rel_drop = (r_cur - r_try) / max(r_try, 1e-300)
        v, r_cur = v_try, r_try
        history.append(r_cur)
        tau = min(t * 2.0, 1.0)
        stall = stall + 1 if rel_drop < cfg.tol else 0
        if stall >= cfg.stall_window:
            break
    else:
        raise EigenError(f"p = {p:g} quotient descent made {it} steps without a stop "
                         f"(residual {gnorm_rel:.3e})", iterations=it, residual=gnorm_rel)
    return v, history, it, gnorm_rel


def _finalize(core: VariationalCore, vals: np.ndarray, p: float, bc: str,
              history: list, its: int, residual: float) -> EigenResult:
    grid = core.grid
    raw = _quotient(core, vals, p)
    # sign convention: positive maximum (zero p-mean survives negation)
    if abs(float(vals.min())) > float(vals.max()):
        vals = -vals
    sup = float(np.max(np.abs(vals[grid.nonexterior])))
    out = ScalarField(grid, np.where(grid.nonexterior, vals / sup, 0.0))
    hist = np.asarray(history)
    return EigenResult(p=p, bc=bc, raw=float(raw), root=float(raw ** (1.0 / p)),
                       field=out, history=hist, iterations=its,
                       residual=float(residual))


def _continue(core: VariationalCore, v: np.ndarray, cfg: EigenConfig) -> EigenResult:
    """Descend on R_p from ``v`` through the continuation ladder up to
    ``cfg.p``; the result keeps the last stage's history and the iterations
    of all stages."""
    total = 0
    for p_stage in cfg.ladder if cfg.ladder is not None else continuation_ladder(cfg.p):
        stage_cfg = cfg if p_stage == cfg.p else replace(cfg, p=p_stage, ladder=None)
        v, hist, its, residual = _descend_quotient(core, v, p_stage, stage_cfg,
                                                   neumann=core.bc == "neumann")
        total += its
    return _finalize(core, v, cfg.p, core.bc, hist, total, residual)


def dirichlet_eigen_first(grid: Grid, p: float | None = None,
                          cfg: EigenConfig | None = None,
                          v0: np.ndarray | None = None) -> EigenResult:
    """First Dirichlet eigenpair by continuation in p from a torsion start
    (one solve of ``K v = M 1`` with the p = 2 stiffness ``K``)."""
    cfg = resolve_cfg(EigenConfig, cfg, p)
    core = make_core(grid, "dirichlet")
    if v0 is None:
        v = core.precond_solve(core.mass, core.weighted_factor(np.zeros(grid.shape), 2.0, 0.0))
    else:
        v = np.where(grid.interior, np.asarray(v0, dtype=float), 0.0)
    return _continue(core, v, cfg)


def _diameter_ramp(grid: Grid) -> np.ndarray:
    """Linear ramp along the diameter direction (the limit profile's axis)."""
    if grid.dim == 1:
        return grid.coordinates()[0].copy()
    a, b = geometry.diameter_endpoints(grid.domain)
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    d /= np.linalg.norm(d)
    X, Y = grid.coordinates()
    return X * d[0] + Y * d[1]


def neumann_eigen_first(grid: Grid, p: float | None = None,
                        cfg: EigenConfig | None = None,
                        v0: np.ndarray | None = None) -> EigenResult:
    """First nontrivial Neumann eigenpair.

    The start is a ramp along the diameter direction plus a seeded random
    perturbation (relative amplitude ``cfg.perturbation``), so the descent
    neither stalls on constants nor sits on an unstable symmetry axis.
    """
    cfg = resolve_cfg(EigenConfig, cfg, p)
    core = make_core(grid, "neumann")
    if v0 is None:
        v = _diameter_ramp(grid)
        rng = np.random.default_rng(cfg.seed)
        osc = float(v[grid.nonexterior].max() - v[grid.nonexterior].min())
        v = v + cfg.perturbation * osc * rng.standard_normal(grid.shape)
    else:
        v = np.asarray(v0, dtype=float).copy()
    return _continue(core, np.where(grid.nonexterior, v, 0.0), cfg)


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


def p_sweep(problem: str, domain: geometry.Domain, p_list, n: int,
            cfg: EigenConfig | None = None) -> SweepReport:
    """Warm-started eigen solves across exponents.

    ``problem`` is ``"dirichlet"`` (target 1/inradius) or ``"neumann"``
    (target 2/diameter).  Entries are sorted by p; each solve continues from
    the previous exponent's eigenfunction.
    """
    if problem not in ("dirichlet", "neumann"):
        raise EigenError(f"unknown sweep problem {problem!r}")
    ps = sorted(float(p) for p in p_list)
    if len(ps) != len(set(ps)) or not ps:
        raise EigenError("p list must be nonempty with distinct entries")
    grid = build_grid(domain, n)
    if problem == "dirichlet":
        target = 1.0 / geometry.inradius(domain)
    else:
        target = 2.0 / geometry.diameter(domain)
    base = cfg if cfg is not None else EigenConfig(p=ps[0])
    report = SweepReport(problem=problem, target=target)
    prev_field: np.ndarray | None = None
    for p in ps:
        stage = replace(base, p=p, ladder=None if prev_field is None else (p,))
        if problem == "dirichlet":
            res = dirichlet_eigen_first(grid, cfg=stage, v0=prev_field)
        else:
            res = neumann_eigen_first(grid, cfg=stage, v0=prev_field)
        prev_field = res.field.values
        report.entries.append(SweepEntry(p=p, raw=res.raw, root=res.root,
                                         target=target,
                                         relative_gap=abs(res.root - target) / target,
                                         iterations=res.iterations))
    return report


# ---------------------------------------------------------------------------
# profiles and nodal geometry


@dataclass
class DiagonalProfile:
    """Eigenfunction trace along a square's diagonal.

    ``t`` is arclength normalized to [-1, 1]; ``values`` are normalized to
    sup 1 along the trace.  ``max_deviation`` is the sup distance to the
    straight line y = t, minimized over the trace's sign (the limit profile
    is linear in the diameter direction).  ``diagonal`` records which
    diagonal carried the larger value span.
    """

    t: np.ndarray
    values: np.ndarray
    max_deviation: float
    diagonal: str


def diagonal_profile(u: ScalarField, samples: int = 513) -> DiagonalProfile:
    dom = u.grid.domain
    if not dom.is_square():
        raise EigenError("diagonal profile requires a square domain")
    v = dom.vertices
    s = np.linspace(0.0, 1.0, samples)[:, None]
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


def nodal_distances(u: ScalarField, band: float = 0.0) -> tuple[float, float]:
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
        pos = ok & (vals > band)
        neg = ok & (vals < -band)
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
        pos = ok & (vals > band)
        neg = ok & (vals < -band)
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
    """Heuristic second Dirichlet eigenpair (exploratory).

    Two deflated descents run from starts biased toward the two candidate
    nodal orientations (side-parallel and diagonal); each start's symmetry
    class is preserved by the descent, so their converged quotients probe
    the two orientation families independently.  ``orientation`` is the
    lower family's tag (``"parallel"``/``"diagonal"``), or ``"other"`` when
    the families tie within discretization resolution (degenerate pair) or
    the winning field fits neither reflection pattern.  ``scores`` holds the
    winner's odd-symmetry defects per candidate axis; ``family_raw`` the two
    converged quotients.
    """

    eigen: EigenResult
    orientation: str
    scores: dict[str, float]
    family_raw: dict[str, float]


#: Relative quotient split below which the two orientation families are
#: reported as degenerate; absorbs O(h^2) asymmetry of the discretization.
DEGENERACY_RTOL = 1e-3


def second_dirichlet_eigen_experiment(grid: Grid, p: float | None = None,
                                      cfg: EigenConfig | None = None,
                                      first: EigenResult | None = None) -> SecondEigenResult:
    """Minimize R_p deflated against the first eigenfunction (heuristic).

    The constraint ``sum m |u1|^(p-2) u1 u = 0`` is linear in ``u``; iterates
    are projected onto it after each step.  The result is exploratory: the
    deflation is one of several conceivable second-eigenvalue definitions,
    and for symmetric domains the minimizer may be degenerate.
    """
    cfg = resolve_cfg(EigenConfig, cfg, p)
    core = make_core(grid, "dirichlet")
    if first is None:
        first = dirichlet_eigen_first(grid, cfg=cfg)
    u1 = first.field.values
    w = core.mass * np.abs(u1) ** (cfg.p - 1.0) * np.sign(u1)
    w = np.where(grid.interior, w, 0.0)
    wnorm2 = float(np.sum(w * w))
    if wnorm2 <= 0.0:
        raise EigenError("first eigenfunction vanishes; cannot deflate")
    X, Y = grid.coordinates()
    cx = 0.5 * (X[grid.interior].min() + X[grid.interior].max())
    cy = 0.5 * (Y[grid.interior].min() + Y[grid.interior].max())
    ramps = {"axis": X - cx, "diagonal": (X - cx) + (Y - cy)}
    results: dict[str, EigenResult] = {}
    for name, ramp in ramps.items():
        v0 = np.where(grid.interior, ramp * np.abs(u1), 0.0)
        v, hist, its, residual = _descend_quotient(core, v0, cfg.p, cfg,
                                                   neumann=False,
                                                   deflate=(w, wnorm2))
        results[name] = _finalize(core, v, cfg.p, "dirichlet", hist, its, residual)
    ra, rd = results["axis"].raw, results["diagonal"].raw
    winner = results["axis"] if ra <= rd else results["diagonal"]
    scores = _symmetry_scores(winner.field)
    if abs(ra - rd) <= DEGENERACY_RTOL * min(ra, rd):
        oa = _classify_orientation(_symmetry_scores(results["axis"].field))
        od = _classify_orientation(_symmetry_scores(results["diagonal"].field))
        orientation = oa if oa == od else "other"
    else:
        orientation = _classify_orientation(scores)
    return SecondEigenResult(eigen=winner, orientation=orientation, scores=scores,
                             family_raw={"axis": ra, "diagonal": rd})


def _symmetry_scores(u: ScalarField) -> dict[str, float]:
    g = u.grid
    if g.dim != 2:
        raise EigenError("orientation classification requires a 2-D grid")
    v = u.values
    sup = max(u.sup_norm(), 1e-300)
    scores = {
        "vertical": float(np.max(np.abs(v + v[::-1, :]))) / sup,
        "horizontal": float(np.max(np.abs(v + v[:, ::-1]))) / sup,
    }
    if v.shape[0] == v.shape[1]:
        scores["main-diagonal"] = float(np.max(np.abs(v + v.T))) / sup
        scores["anti-diagonal"] = float(np.max(np.abs(v + v[::-1, ::-1].T))) / sup
    return scores


def _classify_orientation(scores: dict[str, float]) -> str:
    axis_best = min(scores.get("vertical", math.inf), scores.get("horizontal", math.inf))
    diag_best = min(scores.get("main-diagonal", math.inf),
                    scores.get("anti-diagonal", math.inf))
    best = min(axis_best, diag_best)
    other = max(axis_best, diag_best)
    if best < 0.25 and (other == math.inf or best < 0.5 * other):
        return "parallel" if axis_best <= diag_best else "diagonal"
    return "other"
