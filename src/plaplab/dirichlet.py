"""Variational solvers for p-harmonic and p-torsion boundary-value problems.

``solve_p_harmonic`` minimizes the regularized p-Dirichlet energy

    E(v) = sum_T (1/p) (|grad v|^2 + delta^2)^(p/2) |T|

over interior values with pinned boundary data; ``solve_p_torsion`` adds the
load ``- sum_i m_i v_i`` (right-hand side 1).  The exponent is the only
setting: every solver takes 1 < p < inf (``check_exponent``).  Minimization
is a damped inexact Newton method (``_Newton``) with p-continuation: the
exponents of ``continuation_ladder(p)`` warm-start each stage, after an exact
p = 2 step, and stages away from p = 2 run at delta = ``DELTA``.
Each direction solves the Newton system by PCG to an Eisenstat-Walker
forcing term, on the last LU of a Hessian (each LU serves at most
``LU_PCG_BUDGET`` PCG iterations) or, on the finest lattice of a nested
solve (below), on a two-grid cycle (``_TwoGrid``).  A stage stops once the
strong residual (``SolveResult.optimality_residual``) falls to
``RESIDUAL_RTOL`` of the residual of its plain start (the previous stage's
end point) at its own exponent, or to the level that rounding the iterate
leaves (``ROUNDING_EPSILONS`` machine epsilons of ``|H||v|`` per unit mass),
and makes at most ``_Newton.max_iterations`` Newton steps.  A final polish at
the target exponent (``_Newton.finish``) removes the regularization.  For
p > 2 it takes full delta = 0 Newton steps, the first even below the
rounding level, for as long as each lowers the strong residual, at most
``POLISH_ITERATIONS`` (``_Newton.polish``); for p < 2, where the
unregularized weight is singular, delta is lowered by factors of 100 to
1e-12, each a stage of at most ``POLISH_ITERATIONS`` steps.  A target stage
or polish that ends above both raises ``SolverError``.  Torsion stages after
the first start from a predictor (Allgower & Georg's predictor-corrector
continuation): the lowest-energy of the plain start, its minimizer along its
own ray (the torsion energy with zero boundary data is homogeneous along
rays), and that rescaling of the Euler tangent step.  p-harmonic stages,
whose boundary data break that homogeneity, start plain.

For p != 2, p-torsion is solved by nested iteration (Hackbusch, 1985;
``_nested``, the one driver that the Neumann eigenpair shares): on a lattice
that nests in the half-resolution one (``fields.coarse_grid``) the problem
is first solved at n/2 up to its target stage, recursively down to
``NESTED_MIN_CELLS`` cells, and the finer lattice runs only the target stage
from the exact P1
prolongation of that end point or its rescaling along its ray, and the
polish only on the finest, so that the ladder's LUs are paid on the coarse
lattices.  On a 2-D lattice at p >= ``SMOOTHING_MIN_P`` that start is first
smoothed by ``SMOOTHING_SWEEPS`` sweeps of colour-wise nodal minimization
(``VariationalCore.sweep``, a nonlinear Gauss-Seidel smoother as in Brandt's
FAS, Math. Comp. 31, 1977): the prolongation leaves a high-frequency
residual of 7 to 10 times the load, which a Newton step on the
``|grad v|^(p-2)`` flux removes worst at high p.  The finest lattice makes
no LU unless a two-grid PCG misses its forcing term within
``TWO_GRID_MAX_ITERATIONS``: its Newton systems are preconditioned by damped
Jacobi sweeps on its own matrix around a coarse-grid correction (Brandt,
ibid.) that solves with the last LU of the lattice below, handed on by
``_nested`` with the P1 prolongation as a matrix (``_prolongation``).
Dirichlet p-harmonic solves, lattices that do not nest (the disc, odd n)
and p = 2 (one exact step) run the continuation on their own lattice.
Every solve then ends in ``_Newton.finish`` and ``_Newton.result``.
``SolveResult.stages`` records each stage's start, steps, LUs, PCG
iterations, target, residual, stop reason and lattice ``n``; the result's
``iterations``, ``factorizations`` and ``pcg_iterations`` are sums over
them, and they are the engine's only count.  The eigensolver runs on the
same engine and driver (``eigen._QuotientNewton``).

As p grows the torsion solution approaches the boundary distance function;
``torsion_infinity_gap`` measures that gap.  ``infinity_torsion_ball``
evaluates the closed-form radial solution of ``-lap_inf u = 1`` on a ball,
``u(r) = (3^(4/3)/4)(R^(4/3) - r^(4/3))``, together with the residual of
``u_r^2 u_rr = -1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import geometry
from ._variational import VariationalCore, make_core
from .fields import Grid, ScalarField, coarse_grid, prolong

__all__ = [
    "SolverError",
    "SolveResult",
    "StageRecord",
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
    """Nonconvergence (diagnostics and the failing stage attached) or invalid
    solver input."""

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None, stage: StageRecord | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.stage = stage


def check_exponent(p, error: type[Exception] = SolverError) -> float:
    """``p`` as a float; raises ``error`` unless 1 < p < inf."""
    p = float(p)
    if not (p > 1.0 and math.isfinite(p)):
        raise error("exponent requires 1 < p < inf")
    return p


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


@dataclass(frozen=True)
class StageRecord:
    """One continuation stage or polish: its exponent and regularization,
    its start's kind (``plain``: the previous end point; ``prolonged``: a
    coarser lattice's end point, P1-prolonged by :func:`_nested`;
    ``rescaled``: either of these rescaled along its ray, which a high-p
    torsion stage smooths first, see :meth:`_Newton.refine`; ``tangent``
    and ``half-tangent``: see :meth:`_Newton.predict`), Newton steps, the
    LUs and PCG iterations since the previous stage ended (a tangent
    solve's included), stop target, final strong residual, ``stop``
    (``converged``, ``rounding``, ``stalled``, ``no-descent`` or
    ``max-iterations``) and the ``n`` of its grid."""

    p: float
    delta: float
    start: str
    iterations: int
    factorizations: int
    pcg_iterations: int
    target: float
    residual: float
    stop: str
    n: int


class _StageTotals:
    """The totals of a result's ``stages``: its Newton steps
    (``iterations``), sparse LUs (``factorizations``) and PCG iterations
    (``pcg_iterations``), each the sum over the stage records."""

    stages: list[StageRecord]

    @property
    def iterations(self) -> int:
        return sum(s.iterations for s in self.stages)

    @property
    def factorizations(self) -> int:
        return sum(s.factorizations for s in self.stages)

    @property
    def pcg_iterations(self) -> int:
        return sum(s.pcg_iterations for s in self.stages)


@dataclass
class SolveResult(_StageTotals):
    """Solution field plus convergence diagnostics.

    ``optimality_residual`` is the sup over degrees of freedom of the energy
    gradient divided by the lumped mass — a nodal strong-form residual in
    the units of the load — at the end of the last stage.  ``stages`` holds
    one :class:`StageRecord` per stage and polish, in order, over every
    lattice of a nested solve (:func:`solve_p_torsion`); ``iterations``,
    ``factorizations`` and ``pcg_iterations`` are their sums.
    """

    field: ScalarField
    p: float
    final_energy: float
    optimality_residual: float
    energy_history: np.ndarray
    stages: list[StageRecord]


# ---------------------------------------------------------------------------
# descent engine

#: a stage stops once the strong residual is this fraction of its start value
RESIDUAL_RTOL = 1e-8
#: residuals below this many machine epsilons of ``|H||v|`` per unit mass are
#: rounding noise: a rounding-level change of ``v`` moves the gradient by that
ROUNDING_EPSILONS = 4.0
#: forcing term of each stage's first Newton direction and of each tangent
#: solve, and the relative residual that any PCG iterate must meet
NEWTON_RTOL = 0.1
#: Eisenstat-Walker choice 2: eta = FORCING_GAMMA (r_k / r_{k-1})^2, at most
#: FORCING_MAX
FORCING_GAMMA = 0.9
FORCING_MAX = 0.9
#: PCG iterations per Newton system
PCG_MAX_ITERATIONS = 8
#: PCG iterations one LU serves, counted from its factorization, before the
#: next direction refactors: one Hessian LU costs about as much as 15-28
#: triangular solves at n = 32-192 (one thread of a 2-core x86-64 VM).  A
#: count, not a timer, so that no result depends on timing.  It governs
#: LU-preconditioned PCG only: a two-grid PCG has its own cap,
#: ``TWO_GRID_MAX_ITERATIONS``
LU_PCG_BUDGET = 20
#: relative energy change below which trial energies are rounding noise
ENERGY_ROUNDING = 1e-13
#: safeguard: a stage stops after STALL_WINDOW accepted steps in a row that
#: lower neither the objective by STALL_RTOL relatively nor the residual
STALL_RTOL = 1e-12
STALL_WINDOW = 8
#: Newton steps of each polish stage
POLISH_ITERATIONS = 100
#: colour-wise nodal minimization sweeps (``VariationalCore.sweep``) that
#: smooth the prolonged start of a nested torsion stage on a 2-D lattice
SMOOTHING_SWEEPS = 2
#: the lowest exponent at which they run: below it the stage from the
#: unsmoothed start takes at most 11 Newton steps and the sweeps cost more
#: than the steps they save (measured break-even between p = 12 and 16)
SMOOTHING_MIN_P = 16.0
#: gradient-norm regularization of the stages away from p = 2
DELTA = 1e-6
#: a nested solve (:func:`_nested`) goes down to lattices of at least this
#: many cells along the longest side; on the Neumann pair of fig5 (p = 15,
#: n = 128) floors of 16, 32 and 64 took 0.32-0.34 s, medians of 5 solves
NESTED_MIN_CELLS = 32
#: the two-grid cycle (:class:`_TwoGrid`) of a nested solve's finest lattice:
#: damped Jacobi sweeps before and after its coarse correction, and their
#: damping.  An element matrix is at most its corner count (d + 1) times its
#: diagonal (Cauchy-Schwarz), so any damping below 2/3 keeps the sweeps
#: contracting in the energy norm and the cycle positive definite
TWO_GRID_SWEEPS = 4
TWO_GRID_DAMPING = 0.6
#: PCG iterations per Newton system on the two-grid cycle; a system that
#: misses its forcing term within them sends the lattice back to LUs.  One
#: fine LU costs about 16 cycles at n = 128 and 34 at n = 256, and the last
#: system of the p = 32 torsion stage on the n = 128 square and 2 x 1
#: rectangle (forcing 2e-8 and 3e-9) takes 23 and 25
TWO_GRID_MAX_ITERATIONS = 30


def _forcing(residual: float, r_old: float, eta_old: float) -> float:
    """Eisenstat & Walker's choice 2 of the next forcing term:
    ``FORCING_GAMMA (residual / r_old)^2``, raised to ``FORCING_GAMMA
    eta_old^2`` when that exceeds ``NEWTON_RTOL`` (so that one lucky step
    does not demand an oversolve), and capped at ``FORCING_MAX``."""
    eta = FORCING_GAMMA * (residual / r_old) ** 2
    floor = FORCING_GAMMA * eta_old ** 2
    if floor > NEWTON_RTOL:
        eta = max(eta, floor)
    return min(eta, FORCING_MAX)


class _TwoGrid:
    """Symmetric two-grid preconditioner of a nested solve's finest lattice
    (Brandt, Math. Comp. 31, 1977): ``TWO_GRID_SWEEPS`` damped Jacobi sweeps
    on the fine matrix set by :meth:`on` (damping ``TWO_GRID_DAMPING``), the
    coarse correction ``P F_c^-1 P^T`` with ``prolongation`` ``P`` (coarse
    dofs to fine dofs, :func:`_prolongation`) and ``coarse_lu`` ``F_c``, the
    last LU of the coarse lattice, then the same sweeps again.  ``solve``
    takes 1-D and 2-D right-hand sides, as a SuperLU factor does."""

    def __init__(self, prolongation: sp.csr_matrix, coarse_lu):
        self.prolongation = prolongation
        self.restriction = prolongation.T.tocsr()
        self.coarse_lu = coarse_lu
        self.matrix = self.jacobi = None

    def on(self, matrix: sp.csc_matrix) -> _TwoGrid:
        """Smooth with ``matrix`` from now on; returns the cycle."""
        self.matrix = matrix
        self.jacobi = TWO_GRID_DAMPING / matrix.diagonal()
        return self

    def solve(self, b: np.ndarray) -> np.ndarray:
        jacobi = self.jacobi if b.ndim == 1 else self.jacobi[:, None]
        x = jacobi * b
        for _ in range(TWO_GRID_SWEEPS - 1):
            x += jacobi * (b - self.matrix @ x)
        x += self.prolongation @ self.coarse_lu.solve(self.restriction @ (b - self.matrix @ x))
        for _ in range(TWO_GRID_SWEEPS):
            x += jacobi * (b - self.matrix @ x)
        return x


def _prolongation(coarse: VariationalCore, fine: VariationalCore) -> sp.csr_matrix:
    """The P1 prolongation of :func:`prolong` as a matrix from ``coarse``'s
    dofs to ``fine``'s (both in ``dof_index`` order), ``coarse`` on the
    :func:`coarse_grid` of ``fine``'s grid.  Along each axis a fine node's
    parents are the coarse nodes ``i // 2`` and ``(i + 1) // 2``, each with
    weight 1/2: a shared node twice, an edge midpoint its ends, a cell centre
    the ends of the cell's diagonal.  Coarse nodes that are not dofs carry
    zero (Dirichlet) values and drop out."""
    fine_nodes = np.indices(fine.grid.shape).reshape(fine.grid.dim, -1)[:, fine.dof_index]
    column = np.full(coarse.mass.size, -1)
    column[coarse.dof_index] = np.arange(len(coarse.dof_index))
    parents = np.concatenate([column[np.ravel_multi_index(tuple(nodes), coarse.grid.shape)]
                              for nodes in (fine_nodes // 2, (fine_nodes + 1) // 2)])
    rows = np.tile(np.arange(len(fine.dof_index)), 2)
    keep = parents >= 0
    return sp.csr_matrix((np.full(int(keep.sum()), 0.5), (rows[keep], parents[keep])),
                         shape=(len(fine.dof_index), len(coarse.dof_index)))


def _pcg(H, b: np.ndarray, factor, rtol: float, max_iterations: int, constraints=None,
         accept: float = NEWTON_RTOL):
    """Solve ``H x = b`` to relative residual ``rtol`` by conjugate gradients
    preconditioned with ``factor``, in at most ``max_iterations``
    iterations; returns ``(x, iterations)``.  A solve that stops short (out
    of iterations, or on a nonpositive curvature) still returns its iterate
    if that meets ``accept``, and None for ``x`` otherwise.

    With ``constraints`` (a dof array ``A``) it solves ``H x = b - A y``
    subject to ``A^T x = 0`` by projected PCG (Gould, Hribar & Nocedal, SIAM
    J. Sci. Comput. 23, 2001), which updates each residual ``r`` to ``r - A
    y`` and preconditions it to ``F^-1 (r - A y)``, ``y = (A^T F^-1 A)^-1
    A^T F^-1 r``; a nonpositive first curvature returns the projected
    preconditioned ``b``."""
    x = np.zeros_like(b)
    r = b.copy()
    project = None
    if constraints is None:
        z = factor.solve(r)
    else:  # b and A in one solve, which costs little more than b alone
        z, fa = np.hsplit(factor.solve(np.column_stack([r, constraints])), [1])
        schur = constraints.T @ fa

        def project(r, z):
            y = np.linalg.solve(schur, constraints.T @ z)
            return r - constraints @ y, z - fa @ y

        r, z = project(r, z[:, 0])
    d = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(r))
    r_norm = b_norm
    its = 0
    while its < max_iterations:
        its += 1
        hd = H @ d
        curv = float(d @ hd)
        if not curv > 0.0:
            if project is not None and its == 1:
                return d, its
            break
        alpha = rz / curv
        x += alpha * d
        r -= alpha * hd
        if project is not None:
            r, z = project(r, factor.solve(r))
        r_norm = float(np.linalg.norm(r))
        if r_norm <= rtol * b_norm:
            return x, its
        if project is None:
            z = factor.solve(r)
        rz, rz_old = float(r @ z), rz
        d = z + (rz / rz_old) * d
    return (x if r_norm <= accept * b_norm else None), its


class _Newton:
    """Damped inexact Newton descent on the regularized p-energy.

    The direction solves ``H d = grad E`` with the exact Hessian ``H`` of
    the current stage by PCG to the forcing term ``eta`` (:func:`_forcing`;
    ``NEWTON_RTOL`` for a stage's first direction and for a tangent solve).
    With a ``two_grid`` cycle (:class:`_TwoGrid`, on the finest lattice of a
    nested solve) PCG is preconditioned by it, smoothing with
    :meth:`metric`, and must meet ``eta`` within ``TWO_GRID_MAX_ITERATIONS``;
    on its first miss the cycle is dropped and the engine goes on with LUs.
    Otherwise PCG is preconditioned with the last LU of a Hessian, in at
    most ``PCG_MAX_ITERATIONS`` iterations and no more than the LU has left
    of its ``LU_PCG_BUDGET``.  When no LU is alive, its budget is spent, or
    PCG ends above ``NEWTON_RTOL``, a fresh LU of :meth:`metric` solves it.
    The LU carries over from stage to stage, and at most one is alive.
    Steps are capped and backtracked to a strict energy decrease.

    Subclasses override :meth:`objective`, :meth:`hessian`,
    :meth:`constraints` (normals of linear constraints on the direction),
    :meth:`retract` (onto the constraint set, after each trial step),
    :meth:`metric`, :meth:`predict`, :meth:`prolonged_start`,
    :meth:`result` and ``error``.  For a constrained direction the LU is a
    preconditioner only: a fresh one reruns PCG.  ``max_iterations`` caps
    the Newton steps of each continuation stage.  ``prior``: the stage
    records of a nested solve's coarser lattices, which this engine's
    records continue.  The records are the engine's only count: it keeps
    just the LUs and PCG iterations since the last one (``lus``,
    ``pcg_its``)."""

    error = SolverError
    max_iterations = 2000

    def __init__(self, core: VariationalCore, load, prior=(), two_grid: _TwoGrid | None = None):
        self.core = core
        self.load = load
        self.two_grid = two_grid
        self.factor = None
        self.factor_pcg = 0  # PCG iterations the live LU has served
        self.energy = math.nan
        self.end_hessian = None  # at the end point of the last stage
        self.history: list[float] = []  # energy after each accepted step
        # a nested solve's records start with its coarser lattices'
        self.stages: list[StageRecord] = list(prior)
        self.lus = self.pcg_its = 0  # since the last record

    def objective(self, v, p, delta):
        e, g = self.core.energy_grad(v, p, delta)
        if self.load is not None:
            e -= float(np.sum(self.core.mass * self.load * v))
            g = g + self.core.load_grad(self.load)
        return e, g

    def hessian(self, v, p, delta, e):
        """The Hessian at ``(v, p, delta)``, where the objective is ``e``
        (which the energy Hessian does not need)."""
        return self.core.hessian(v, p, delta)

    def constraints(self, v):
        return None

    def retract(self, v, p):
        return v

    def metric(self, v, H):
        """The positive definite matrix that preconditions ``H`` at ``v``;
        the LU path factors it."""
        return H

    def direction(self, v, g, H, eta=NEWTON_RTOL) -> np.ndarray:
        core = self.core
        b = g.ravel()[core.dof_index]
        A = self.constraints(v)
        constrained = () if A is None else (A,)
        x = None
        budget = LU_PCG_BUDGET - self.factor_pcg
        if self.two_grid is not None:
            x, its = _pcg(H, b, self.two_grid.on(self.metric(v, H)), eta,
                          TWO_GRID_MAX_ITERATIONS, *constrained, accept=eta)
            self.pcg_its += its
            if x is None:  # the first miss: LUs for the rest of this engine's solve
                self.two_grid = None
        elif self.factor is not None and budget > 0:
            x, its = _pcg(H, b, self.factor, eta, min(PCG_MAX_ITERATIONS, budget), *constrained)
            self.factor_pcg += its
            self.pcg_its += its
        if x is None:
            self.factor = None  # free the old LU before the new one is built
            self.factor = self.core.factor(self.metric(v, H))
            self.factor_pcg = 0
            self.lus += 1
            if A is None:
                x = self.factor.solve(b)
            else:  # the LU only preconditions it: rerun PCG, keep what it reaches
                x, its = _pcg(H, b, self.factor, eta, PCG_MAX_ITERATIONS, A, math.inf)
                self.factor_pcg += its
                self.pcg_its += its
        d = np.zeros(v.size)
        d[core.dof_index] = x
        return d.reshape(v.shape)

    def stage(self, v, p, delta, max_iterations, target, start="plain", strict=False,
              evaluated=None):
        """Descend at exponent ``p`` from ``v`` until the strong residual is
        at most ``target`` or the gradient's rounding level, or on a stall
        (``STALL_WINDOW``) or a step that no backtrack makes decrease the
        objective; append a :class:`StageRecord` (``start``: the start's
        kind) and return ``(v, residual)``; ``strict`` raises ``error`` if
        unconverged.  ``evaluated``: the objective ``(e, g)`` at ``(v, p,
        delta)`` when the caller has it.  The end point's Hessian stays in
        ``end_hessian``."""
        core = self.core
        e, g = self.objective(v, p, delta) if evaluated is None else evaluated
        residual = _strong_residual(core, g)
        H = self.hessian(v, p, delta, e)
        tau = 1.0
        eta = NEWTON_RTOL
        stall = 0
        its = 0
        while True:
            floor = _rounding_residual(core, H, v)
            stop = ("converged" if residual <= target else "rounding" if residual <= floor
                    else "stalled" if stall >= STALL_WINDOW
                    else "max-iterations" if its >= max_iterations else None)
            if stop:
                break
            its += 1
            d = self.direction(v, g, H, eta)
            # cap runaway steps for strongly nonlinear exponents
            scale_ref = max(float(np.max(np.abs(v[core.dof_mask]), initial=0.0)), 1.0)
            dmax = float(np.max(np.abs(d)))
            if dmax > 10.0 * scale_ref:
                d *= 10.0 * scale_ref / dmax
            t = tau
            for _ in range(60):
                v_try = self.retract(v - t * d, p)
                e_try, g_try = self.objective(v_try, p, delta)
                if e_try < e - 1e-15 * abs(e):
                    break
                # within the energy's rounding, a step that lowers the
                # residual is still progress
                if (e_try <= e + ENERGY_ROUNDING * abs(e)
                        and _strong_residual(core, g_try) < residual):
                    break
                t *= 0.5
            else:
                stop = "no-descent"
                break
            rel_drop = (e - e_try) / max(abs(e_try), 1e-300)
            v, e, g = v_try, e_try, g_try
            self.history.append(e)
            r_old, residual = residual, _strong_residual(core, g)
            eta = _forcing(residual, r_old, eta)
            H = self.hessian(v, p, delta, e)
            tau = min(t * 2.0, 1.0)
            stall = stall + 1 if rel_drop < STALL_RTOL and residual >= r_old else 0
        self._record(e, H, p, delta, start, its, target, residual, floor, stop, strict)
        return v, residual

    def polish(self, v, p, target):
        """Newton steps at ``(p, 0)`` from ``v`` that remove the
        regularization where the unregularized Hessian is not singular (p >
        2): full steps, the first even below the rounding level, for as long
        as each lowers the strong residual, at most ``POLISH_ITERATIONS``; a
        step that does not is discarded and ends the polish, so where it
        ends does not depend on how fast the steps before converged.
        Appends a :class:`StageRecord` (``stop``: ``converged`` or
        ``rounding`` when it ends at or below ``target`` or the rounding
        level, else ``stalled`` or ``max-iterations``), raises ``error`` if
        it ends above both, and returns ``(v, residual)``."""
        core = self.core
        e, g = self.objective(v, p, 0.0)
        residual = _strong_residual(core, g)
        H = self.hessian(v, p, 0.0, e)
        eta = NEWTON_RTOL
        its = 0
        stop = "stalled"
        while its < POLISH_ITERATIONS:
            its += 1
            v_try = v - self.direction(v, g, H, eta)
            e_try, g_try = self.objective(v_try, p, 0.0)
            r_try = _strong_residual(core, g_try)
            if not r_try < residual:
                break
            v, e, g = v_try, e_try, g_try
            self.history.append(e)
            r_old, residual = residual, r_try
            H = self.hessian(v, p, 0.0, e)
            eta = _forcing(residual, r_old, eta)
        else:
            stop = "max-iterations"
        floor = _rounding_residual(core, H, v)
        stop = "converged" if residual <= target else "rounding" if residual <= floor else stop
        self._record(e, H, p, 0.0, "plain", its, target, residual, floor, stop, strict=True)
        return v, residual

    def _record(self, e, H, p, delta, start, its, target, residual, floor, stop, strict):
        """Close a stage that ended at objective ``e`` and Hessian ``H``:
        append its :class:`StageRecord`, with the LUs and PCG iterations
        since the last one (the start's tangent solve included), and, if
        ``strict``, raise ``error`` when it ended above ``target`` and the
        rounding level ``floor``."""
        self.energy = e
        self.end_hessian = H
        self.stages.append(StageRecord(p=p, delta=delta, start=start, iterations=its,
                                       factorizations=self.lus, pcg_iterations=self.pcg_its,
                                       target=target, residual=residual, stop=stop,
                                       n=self.core.grid.n))
        self.lus = self.pcg_its = 0
        if strict and residual > max(target, floor):
            raise self.error(f"p = {p:g} descent stopped ({stop}) at strong residual "
                             f"{residual:.3e} above the tolerance {target:.3e} and the "
                             f"rounding level {floor:.3e}",
                             iterations=sum(s.iterations for s in self.stages),
                             residual=residual, stage=self.stages[-1])

    def continuation(self, v, ladder):
        """A stage at each exponent of ``ladder`` (delta = 0 at p = 2, else
        ``DELTA``; the last strict), each stopping at ``RESIDUAL_RTOL`` of
        the strong residual of its plain start (the previous end point,
        retracted), and each after the engine's first stage starting from
        :meth:`predict`.  Returns the last stage's ``(v, target)``."""
        for p in ladder:
            delta = 0.0 if p == 2.0 else DELTA
            plain = self.retract(v, p)
            evaluated = self.objective(plain, p, delta)
            target = RESIDUAL_RTOL * _strong_residual(self.core, evaluated[1])
            if self.stages:
                v, start, evaluated = self.predict(v, p, delta, evaluated)
            else:
                v, start = plain, "plain"
            v, _ = self.stage(v, p, delta, self.max_iterations, target, start,
                              strict=p == ladder[-1], evaluated=evaluated)
        return v, target

    def refine(self, v, p):
        """The target stage at ``p`` (delta = 0 at p = 2, else ``DELTA``)
        from ``v``, a coarser lattice's end point prolonged onto this one,
        whose stage records this engine's ``stages`` end with.  It stops at
        ``RESIDUAL_RTOL`` of the strong residual of ``v`` (retracted), but
        never looser than the coarse level's final target, and starts from
        :meth:`prolonged_start`.  For torsion on a 2-D lattice at p >=
        ``SMOOTHING_MIN_P`` that start is first smoothed by
        ``SMOOTHING_SWEEPS`` colour-wise nodal minimization sweeps
        (``VariationalCore.sweep``; Brandt's nonlinear Gauss-Seidel smoother
        of nested iteration): prolongation leaves a high-frequency residual
        that a Newton step on the ``|grad v|^(p-2)`` flux overshoots from
        below and removes only slowly from above.  On an interval the coarse
        solution is nodally exact, so its prolongation's residual is at most
        the load and the stage is short without them.  Returns ``(v,
        target)``."""
        delta = 0.0 if p == 2.0 else DELTA
        v = self.retract(v, p)
        evaluated = self.objective(v, p, delta)
        target = min(RESIDUAL_RTOL * _strong_residual(self.core, evaluated[1]),
                     self.stages[-1].target)
        v, start, evaluated = self.prolonged_start(v, p, delta, evaluated)
        if self.load is not None and p >= SMOOTHING_MIN_P and self.core.grid.dim == 2:
            rhs = self.core.mass * self.load
            for _ in range(SMOOTHING_SWEEPS):
                v = self.core.sweep(v, p, delta, rhs)
            evaluated = None
        v, _ = self.stage(v, p, delta, self.max_iterations, target, start, strict=True,
                          evaluated=evaluated)
        return v, target

    def finish(self, v, p, target):
        """Polish ``v``, the end point of the target stage at ``p``, to its
        stop ``target``, and return the :meth:`result` there: for p > 2 by
        :meth:`polish`; for p < 2, where the unregularized weight is
        singular, by stages at delta = 1e-8, 1e-10 and 1e-12 (factors of 100
        below ``DELTA``) of at most ``POLISH_ITERATIONS`` steps, the last
        strict."""
        if p > 2.0:
            v, _ = self.polish(v, p, target)
        elif p < 2.0:
            for delta in (1e-8, 1e-10, 1e-12):
                v, _ = self.stage(v, p, delta, POLISH_ITERATIONS, target, strict=delta == 1e-12)
        return self.result(v)

    def result(self, v):
        """The :class:`SolveResult` at ``v``, the end point of the last
        stage: its residual, exponent and energy, and every stage record."""
        grid, last = self.core.grid, self.stages[-1]
        return SolveResult(field=ScalarField(grid, np.where(grid.nonexterior, v, 0.0)),
                           p=last.p, final_energy=self.energy, optimality_residual=last.residual,
                           energy_history=np.asarray(self.history), stages=self.stages)

    def prolonged_start(self, v, p, delta, evaluated):
        """Start of :meth:`refine`'s stage from the prolonged ``v`` of a
        zero-boundary torsion solve, whose objective at ``(p, delta)`` is
        ``evaluated``: ``v`` (``prolonged``) or its rescaling along its ray
        (:meth:`rescale`, ``rescaled``), whichever has the lower objective,
        with its kind and its objective."""
        return self._lowest([(v, "prolonged", evaluated), (self.rescale(v, p), "rescaled", None)],
                            p, delta)

    def predict(self, v, p, delta, evaluated):
        """Start of the stage at ``(p, delta)`` from ``v``, the end point of
        the last stage (at ``(p0, delta0)``), whose objective at ``(p,
        delta)`` is ``evaluated``, with its kind and its objective.  Without
        a load (p-harmonic) it is ``v`` itself (``plain``): boundary data
        break the homogeneity along rays.  With one (torsion, whose boundary
        data are zero) it is whichever of ``v``, ``v`` rescaled along its
        ray (:meth:`rescale`) and the rescaled Euler tangent prediction ``v
        - (p - p0) w`` has the lowest objective (``plain``, ``rescaled`` or
        ``tangent``).  ``-w`` is the tangent ``dv/dp``: ``H w = d/dp grad
        E(v; p0, delta0)`` with the end point's Hessian, solved by
        :meth:`direction`."""
        if self.load is None:
            return v, "plain", evaluated
        p0, delta0 = self.stages[-1].p, self.stages[-1].delta
        w = self.direction(v, self.core.energy_grad_dp(v, p0, delta0), self.end_hessian)
        starts = [(v, "plain", evaluated), (self.rescale(v, p), "rescaled", None),
                  (self.rescale(v - (p - p0) * w, p), "tangent", None)]
        return self._lowest(starts, p, delta)

    def _lowest(self, starts, p, delta):
        """The ``(v, kind, (e, g))`` of lowest objective ``e`` at ``(p,
        delta)``, the first on a tie, among ``starts``: ``(v, kind,
        evaluated)`` triples, ``v`` None for a start that does not exist and
        ``evaluated`` None where the objective at ``v`` is not yet known."""
        best = None
        for v, kind, evaluated in starts:
            if v is None:
                continue
            if evaluated is None:
                evaluated = self.objective(v, p, delta)
            if best is None or evaluated[0] < best[2][0]:
                best = (v, kind, evaluated)
        return best

    def rescale(self, v, p):
        """``s* v`` with ``s* = (B/A)^(1/(p-1))``, the minimizer of the
        unregularized torsion energy ``s^p A/p - s B`` along the ray of ``v``
        (``A = sum |grad v|^p |T|``, ``B = sum m load v``); None unless both
        are positive and finite.  The energy is homogeneous along rays only
        for zero boundary data."""
        a = p * self.core.energy(v, p, 0.0)
        b = float(np.sum(self.core.mass * self.load * v))
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            return None
        return (b / a) ** (1.0 / (p - 1.0)) * v


def _rounding_residual(core: VariationalCore, H, v: np.ndarray) -> float:
    """``ROUNDING_EPSILONS`` machine epsilons of ``max_i (|H| |v|)_i / m_i``,
    the strong residual that rounding ``v`` alone can leave."""
    vd = np.abs(v.ravel()[core.dof_index])
    m = core.mass.ravel()[core.dof_index]
    # |H| on H's own (shared, canonical) pattern: abs(H) would copy the
    # pattern and scan it for canonical format at every check
    abs_h = sp.csc_matrix((np.abs(H.data), H.indices, H.indptr), shape=H.shape)
    scale = (abs_h @ vd) / np.where(m > 0.0, m, 1.0)
    return ROUNDING_EPSILONS * np.finfo(float).eps * float(np.max(scale, initial=0.0))


def _strong_residual(core: VariationalCore, g: np.ndarray) -> float:
    m = core.mass[core.dof_mask]
    gd = np.abs(g[core.dof_mask])
    safe = np.where(m > 0.0, m, 1.0)
    return float(np.max(gd / safe, initial=0.0))


def _nested(grid: Grid, engine, start, p: float):
    """Nested iteration (Hackbusch, *Multi-Grid Methods and Applications*,
    1985) to the target stage at ``p``, the one driver of every nested
    solve; ``engine(lattice, prior, two_grid)`` makes a lattice's engine.
    ``grid`` and its half-resolution lattices (:func:`coarse_grid`, while
    they nest and keep ``NESTED_MIN_CELLS`` cells) are solved coarsest
    first: the coarsest by :meth:`_Newton.continuation` over
    ``continuation_ladder(p)`` from ``start(core)``, each finer one by
    :meth:`_Newton.refine` from the exact P1 prolongation (:func:`prolong`)
    of the field of the coarser :meth:`_Newton.result`, its ``prior`` the
    coarser stage records.  On ``grid`` itself ``two_grid`` is the
    :class:`_TwoGrid` of the coarser engine's last live LU and the
    :func:`_prolongation` between the two (None when it ended without an
    LU), elsewhere None.  Only that LU and the prolongation outlive a
    level: its grid, core and engine die before the finer stage.  Returns
    ``grid``'s engine, end point and stop target."""
    lattices = [grid]  # finest first; the last is the one being solved
    while (lattices[-1].n // 2 >= NESTED_MIN_CELLS
           and (coarse := coarse_grid(lattices[-1])) is not None):
        lattices.append(coarse)
    coarse = None  # each grid lives only in ``lattices`` until its level is done
    newton = engine(lattices[-1], (), None)
    v, target = newton.continuation(start(newton.core), continuation_ladder(p))
    while len(lattices) > 1:
        fine = lattices[-2]
        two_grid = None
        if fine is grid and newton.factor is not None:
            two_grid = _TwoGrid(_prolongation(newton.core, make_core(fine, newton.core.bc)),
                                newton.factor)
        v = prolong(newton.result(v).field, fine).values
        newton = engine(fine, newton.stages, two_grid)
        lattices.pop()  # the coarser grid dies with its engine
        v, target = newton.refine(v, p)
    return newton, v, target


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


def solve_p_harmonic(grid: Grid, g, p: float = 2.0) -> SolveResult:
    """Minimize the p-Dirichlet energy with boundary data ``g``.

    ``g`` is a callable of the node coordinate arrays or a full-shape array;
    it is sampled on the boundary collar.  Raises ``SolverError`` on an
    exponent outside 1 < p < inf and on nonconvergence (diagnostics
    attached).
    """
    p = check_exponent(p)
    newton = _Newton(make_core(grid, "dirichlet"), None)
    v, target = newton.continuation(_boundary_array(grid, g), continuation_ladder(p))
    return newton.finish(v, p, target)


def solve_p_torsion(grid: Grid, p: float = 2.0) -> SolveResult:
    """Solve the p-torsion problem (unit load, zero boundary values).

    At p = 2 one exact step on ``grid`` itself solves it.  Otherwise
    :func:`_nested` first solves it, unpolished, on the half-resolution
    lattices where the lattice nests (:func:`coarse_grid`: n even and every
    shared node classified alike, as on squares, rectangles and intervals,
    not on the disc) and ``grid`` runs only the target stage
    (:meth:`_Newton.refine`) on the two-grid cycle (:class:`_TwoGrid`),
    before the polish (:meth:`_Newton.finish`).  ``stages`` spans every
    level, coarsest first (each record's ``n`` names its lattice).  Raises
    as :func:`solve_p_harmonic`.
    """
    p = check_exponent(p)

    def engine(lattice, *nested):
        return _Newton(make_core(lattice, "dirichlet"), np.ones(lattice.shape), *nested)

    if p == 2.0:
        newton = engine(grid)
        v, target = newton.continuation(np.zeros(grid.shape), (p,))
    else:
        newton, v, target = _nested(grid, engine, lambda core: np.zeros(core.grid.shape), p)
    return newton.finish(v, p, target)


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


def torsion_infinity_gap(grid: Grid, p: float) -> TorsionGap:
    """Solve the p-torsion problem (:func:`solve_p_torsion`, nested where the
    lattice nests, so ``torsion.stages`` may span several lattices) and
    compare with the distance function.

    ``sup_gap`` is ``max |u_p - d|`` over non-exterior nodes; the nodal gap
    field is returned for inspection and for the limit-equation residual
    checks.
    """
    result = solve_p_torsion(grid, p)
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


def infinity_torsion_ball(R: float) -> InfinityTorsionProfile:
    """The profile on 257 equispaced radii of [0, R]."""
    if not (R > 0.0 and math.isfinite(R)):
        raise SolverError("ball radius must be positive and finite")
    c = INFINITY_TORSION_COEFFICIENT
    r = np.linspace(0.0, R, 257)
    values = c * (R ** (4.0 / 3.0) - r ** (4.0 / 3.0))
    pos = r > 0.0
    u_r = np.zeros_like(r)
    u_rr = np.zeros_like(r)
    u_r[pos] = -c * (4.0 / 3.0) * r[pos] ** (1.0 / 3.0)
    u_rr[pos] = -c * (4.0 / 9.0) * r[pos] ** (-2.0 / 3.0)
    residuals = np.zeros_like(r)
    residuals[pos] = u_r[pos] ** 2 * u_rr[pos] + 1.0
    return InfinityTorsionProfile(R=float(R), r=r, values=values, residuals=residuals)
