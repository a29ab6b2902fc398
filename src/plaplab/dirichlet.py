"""Variational solvers for p-harmonic and p-torsion boundary-value problems.

``solve_p_harmonic`` minimizes the regularized p-Dirichlet energy

    E(v) = sum_T (1/p) (|grad v|^2 + delta^2)^(p/2) |T|

over interior values with pinned boundary data; ``solve_p_torsion`` adds the
load ``- sum_i m_i v_i`` (right-hand side 1).  Minimization is preconditioned
gradient descent with backtracking line search and p-continuation (a ladder
of intermediate exponents warm-starting each stage).  The search direction
is an inverse metric applied to the energy gradient.  Each stage starts on
the p = 2 stiffness, which at p = 2 makes one step the exact minimizer.
Once that metric has served ``METRIC_REFRESH`` accepted steps and a step
needs a backtrack, it is replaced by the Picard (lagged-diffusivity) metric
``sum_T (|grad v|_T^2 + delta^2)^((p-2)/2) E_T`` at the current iterate, and
so on for each new metric.  A short final polish runs with the
regularization removed.

As p grows the torsion solution approaches the boundary distance function;
``torsion_infinity_gap`` measures that gap.  ``infinity_torsion_ball``
evaluates the closed-form radial solution of ``-lap_inf u = 1`` on a ball,
``u(r) = (3^(4/3)/4)(R^(4/3) - r^(4/3))``, together with the residual of
``u_r^2 u_rr = -1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from ._variational import METRIC_REFRESH, VariationalCore, make_core
from .fields import Grid, ScalarField

__all__ = [
    "SolverError",
    "SolverConfig",
    "SolveResult",
    "TorsionGap",
    "InfinityTorsionProfile",
    "continuation_ladder",
    "solve_p_harmonic",
    "solve_p_torsion",
    "torsion_infinity_gap",
    "infinity_torsion_ball",
    "distance_field",
]

#: closed-form coefficient of the radial infinity-torsion profile
INFINITY_TORSION_COEFFICIENT = 3.0 ** (4.0 / 3.0) / 4.0


class SolverError(RuntimeError):
    """Nonconvergence or invalid solver configuration."""

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class SolverConfig:
    """Descent parameters.

    ``tol`` is the relative energy-decrease threshold: the solver stops once
    ``stall_window`` consecutive accepted steps each decrease the energy by
    less than ``tol`` relatively.  ``delta`` regularizes the gradient norm;
    the final ``polish_iterations`` run with it removed (kept at 1e-12 for
    p < 2 where the unregularized weight is singular).  ``ladder`` overrides
    the automatic p-continuation sequence.
    """

    p: float = 2.0
    delta: float = 1e-6
    tol: float = 1e-12
    max_iterations: int = 2000
    stall_window: int = 8
    polish_iterations: int = 100
    ladder: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise SolverError("solver exponent requires 1 < p < inf")
        if self.delta < 0.0 or self.tol <= 0.0:
            raise SolverError("delta must be >= 0 and tol > 0")
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be positive")
        if self.ladder is not None:
            check_ladder(self.ladder, self.p, SolverError)


def check_ladder(ladder, p: float, error: type[Exception]) -> None:
    """Raise ``error`` unless ``ladder`` is nonempty, strictly monotone and
    ends at the target ``p``."""
    lad = tuple(ladder)
    if not lad:
        raise error("ladder must not be empty")
    if any(b <= a for a, b in zip(lad, lad[1:])) and \
       any(b >= a for a, b in zip(lad, lad[1:])):
        raise error("ladder must be strictly monotone")
    if lad[-1] != p:
        raise error("ladder must end at the target p")


def continuation_ladder(p: float) -> tuple[float, ...]:
    """Exponent ladder from 2 to p: doubling upward, or geometric steps of
    ``p - 1`` downward for targets below 2."""
    if p == 2.0:
        return (2.0,)
    if p > 2.0:
        ladder = [2.0]
        while ladder[-1] * 2.0 < p:
            ladder.append(ladder[-1] * 2.0)
        ladder.append(p)
        return tuple(ladder)
    ladder = [2.0]
    gap = 1.0
    while gap * 0.5 > p - 1.0:
        gap *= 0.5
        ladder.append(1.0 + gap)
    ladder.append(p)
    return tuple(ladder)


@dataclass
class SolveResult:
    """Solution field plus convergence diagnostics.

    ``optimality_residual`` is the sup over degrees of freedom of the energy
    gradient divided by the lumped mass — a nodal strong-form residual in
    the units of the load.
    """

    field: ScalarField
    p: float
    iterations: int
    final_energy: float
    optimality_residual: float
    energy_history: np.ndarray


# ---------------------------------------------------------------------------
# descent engine


def _objective(core: VariationalCore, v, p, delta, load):
    e, g = core.energy_grad(v, p, delta)
    if load is not None:
        e -= float(np.sum(core.mass * load * v))
        g = g + core.load_grad(load)
    return e, g


def _descend(core: VariationalCore, v: np.ndarray, p: float, delta: float,
             cfg: SolverConfig, load, max_iterations: int) -> tuple[np.ndarray, int, float, list]:
    """Preconditioned descent with backtracking; returns (v, its, residual, history).

    The metric starts as the cached p = 2 stiffness.  Once it has served
    ``METRIC_REFRESH`` accepted steps and the last one needed a backtrack, it
    is replaced by the Picard metric of the p-energy at the current iterate.
    """
    e, g = _objective(core, v, p, delta, load)
    history = [e]
    tau = 1.0
    stall = 0
    it = 0
    factor = None  # None: the p = 2 stiffness
    served = 0  # accepted steps on the current metric
    scale_ref = max(float(np.max(np.abs(v[core.dof_mask]), initial=0.0)), 1.0)
    while it < max_iterations:
        it += 1
        d = core.precond_solve(g, factor)
        # cap runaway steps for strongly nonlinear exponents
        dmax = float(np.max(np.abs(d)))
        if dmax > 10.0 * scale_ref:
            d *= 10.0 * scale_ref / dmax
        accepted = False
        t = tau
        for _ in range(60):
            v_try = v - t * d
            e_try, g_try = _objective(core, v_try, p, delta, load)
            if e_try < e - 1e-15 * abs(e):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        rel_drop = (e - e_try) / max(abs(e_try), 1e-300)
        v, e, g = v_try, e_try, g_try
        history.append(e)
        tau = min(t * 2.0, 1.0)
        scale_ref = max(float(np.max(np.abs(v[core.dof_mask]), initial=0.0)), 1.0)
        stall = stall + 1 if rel_drop < cfg.tol else 0
        if stall >= cfg.stall_window:
            break
        served += 1
        if served >= METRIC_REFRESH and t < 1.0:
            factor = None  # free the old LU before the new one is built
            factor = core.weighted_factor(v, p, delta)
            served = 0
    residual = _strong_residual(core, g)
    return v, it, residual, history


def _strong_residual(core: VariationalCore, g: np.ndarray) -> float:
    m = core.mass[core.dof_mask]
    gd = np.abs(g[core.dof_mask])
    safe = np.where(m > 0.0, m, 1.0)
    return float(np.max(gd / safe, initial=0.0))


def _solve(core: VariationalCore, cfg: SolverConfig, boundary_values: np.ndarray,
           load: np.ndarray | None) -> SolveResult:
    grid = core.grid
    ladder = cfg.ladder if cfg.ladder is not None else continuation_ladder(cfg.p)
    v = boundary_values.copy()
    v[core.dof_mask] = 0.0
    total_its = 0
    history: list[float] = []
    # p = 2 stage: quadratic energy, one preconditioned step is exact
    _, g = _objective(core, v, 2.0, 0.0, load)
    v = v - core.precond_solve(g)
    e2, g2 = _objective(core, v, 2.0, 0.0, load)
    total_its += 1
    history.append(e2)
    residual = _strong_residual(core, g2)
    for p_stage in ladder:
        if p_stage == 2.0:
            continue
        v, its, residual, hist = _descend(core, v, p_stage, cfg.delta, cfg, load,
                                          cfg.max_iterations)
        total_its += its
        history.extend(hist[1:])
    if cfg.polish_iterations > 0 and cfg.p != 2.0:
        polish_delta = 0.0 if cfg.p >= 2.0 else 1e-12
        v, its, residual, hist = _descend(core, v, cfg.p, polish_delta, cfg, load,
                                          cfg.polish_iterations)
        total_its += its
        history.extend(hist[1:])
    out = ScalarField(grid, np.where(grid.nonexterior, v, 0.0))
    e_final = history[-1] if history else 0.0
    return SolveResult(field=out, p=cfg.p, iterations=total_its,
                       final_energy=float(e_final),
                       optimality_residual=residual,
                       energy_history=np.asarray(history))


# ---------------------------------------------------------------------------
# public solvers


def _boundary_array(grid: Grid, g) -> np.ndarray:
    vals = np.zeros(grid.shape)
    mask = grid.boundary
    if callable(g):
        coords = grid.coordinates()
        sampled = np.asarray(g(*coords), dtype=float)
        vals[mask] = sampled[mask]
    else:
        arr = np.asarray(g, dtype=float)
        if arr.shape != grid.shape:
            raise SolverError("boundary data array must match the grid shape")
        vals[mask] = arr[mask]
    if not np.all(np.isfinite(vals[mask])):
        raise SolverError("boundary data must be finite")
    return vals


def solve_p_harmonic(grid: Grid, g, cfg: SolverConfig | None = None,
                     p: float | None = None) -> SolveResult:
    """Minimize the p-Dirichlet energy with boundary data ``g``.

    ``g`` is a callable of the node coordinate arrays or a full-shape array;
    it is sampled on the boundary collar.  Raises ``SolverError`` on
    nonconvergence (diagnostics attached).
    """
    cfg = _resolve_cfg(cfg, p)
    core = make_core(grid, "dirichlet")
    return _solve(core, cfg, _boundary_array(grid, g), load=None)


def solve_p_torsion(grid: Grid, cfg: SolverConfig | None = None,
                    p: float | None = None) -> SolveResult:
    """Solve the p-torsion problem (unit load, zero boundary values)."""
    cfg = _resolve_cfg(cfg, p)
    core = make_core(grid, "dirichlet")
    load = np.ones(grid.shape)
    return _solve(core, cfg, np.zeros(grid.shape), load=load)


def _resolve_cfg(cfg: SolverConfig | None, p: float | None) -> SolverConfig:
    if cfg is None:
        cfg = SolverConfig(p=2.0 if p is None else float(p))
    elif p is not None and p != cfg.p:
        cfg = replace(cfg, p=float(p), ladder=None)
    return cfg


# ---------------------------------------------------------------------------
# distance comparison


def distance_field(grid: Grid) -> ScalarField:
    """Boundary distance sampled on the grid (clipped at 0 outside)."""
    coords = grid.coordinates()
    if grid.dim == 1:
        d = geometry.distance_to_boundary(grid.domain, coords[0])
    else:
        pts = np.column_stack([c.ravel() for c in coords])
        d = geometry.distance_to_boundary(grid.domain, pts).reshape(grid.shape)
    return ScalarField(grid, np.where(grid.nonexterior, np.maximum(d, 0.0), 0.0))


@dataclass
class TorsionGap:
    """Sup-norm gap between a p-torsion solution and the distance function."""

    p: float
    sup_gap: float
    gap: ScalarField
    torsion: SolveResult
    distance: ScalarField


def torsion_infinity_gap(grid: Grid, p: float, cfg: SolverConfig | None = None) -> TorsionGap:
    """Solve the p-torsion problem and compare with the distance function.

    ``sup_gap`` is ``max |u_p - d|`` over non-exterior nodes; the nodal gap
    field is returned for inspection and for the limit-equation residual
    checks.
    """
    result = solve_p_torsion(grid, cfg=cfg, p=p)
    dist = distance_field(grid)
    gap_vals = result.field.values - dist.values
    gap = ScalarField(grid, np.where(grid.nonexterior, gap_vals, 0.0))
    return TorsionGap(p=float(p), sup_gap=gap.sup_norm(), gap=gap,
                      torsion=result, distance=dist)


# ---------------------------------------------------------------------------
# closed-form infinity-torsion profile


@dataclass
class InfinityTorsionProfile:
    """Radial profile ``u(r) = c (R^(4/3) - r^(4/3))`` with ODE residuals.

    ``residuals`` holds ``u_r^2 u_rr + 1`` at each positive sample radius
    (the profile satisfies ``u_r^2 u_rr = -1`` for r > 0; the second
    derivative is unbounded at r = 0, consistent with the limited interior
    regularity of the profile).
    """

    R: float
    r: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    coefficient: float = INFINITY_TORSION_COEFFICIENT


def infinity_torsion_ball(R: float, samples: int = 257) -> InfinityTorsionProfile:
    if not (R > 0.0 and math.isfinite(R)):
        raise SolverError("ball radius must be positive and finite")
    if samples < 2:
        raise SolverError("need at least two samples")
    c = INFINITY_TORSION_COEFFICIENT
    r = np.linspace(0.0, R, samples)
    values = c * (R ** (4.0 / 3.0) - r ** (4.0 / 3.0))
    pos = r > 0.0
    u_r = np.zeros_like(r)
    u_rr = np.zeros_like(r)
    u_r[pos] = -c * (4.0 / 3.0) * r[pos] ** (1.0 / 3.0)
    u_rr[pos] = -c * (4.0 / 9.0) * r[pos] ** (-2.0 / 3.0)
    residuals = np.zeros_like(r)
    residuals[pos] = u_r[pos] ** 2 * u_rr[pos] + 1.0
    return InfinityTorsionProfile(R=float(R), r=r, values=values, residuals=residuals)
