"""Explicit time stepping for the normalized p-Laplacian evolution
``u_t = lap_p^N u`` with decay-rate extraction.

The scheme is forward Euler on the regularized normalized operator.  Its
directional diffusion coefficients are (p-1)/p along the gradient and 1/p
across it, so the admissible step obeys

    dt <= 0.2 h^2 min(p/(p-1), p)

(the 0.2 safety factor absorbs the cross-derivative stencil).  Dirichlet
runs pin the boundary collar to zero; Neumann runs reflect mirror ghosts
across the lattice faces, which realizes the zero-normal-derivative
condition and is available for domains that fill their bounding lattice
(rectangles and intervals).  At p = 2 the normalized operator collapses
algebraically to half the Laplacian, and the trajectory is the 5-point
heat step of diffusivity 1/2, bit for bit; the stencil skips its u_nn part
there to save passes.

``run_flow`` steps in place: it allocates one raw state array (with the
ghost halo for Neumann), the right-hand side, the stencil work buffers, the
pinned-collar mask and the ghost views once per run, and builds a
``ScalarField`` only for snapshots and the final state.  A step evaluates
``dt`` times the stencil on the contiguous flat span of the state and adds
it there, then pins the collar or reflects the ghosts, which also
overwrites what the span left on the halo.  ``step_flow`` takes one step
with the same code on buffers of its own.

Separation of variables links the flow to the eigenvalue problems: from
eigenfunction initial data the sup-norm decays exponentially at the first
eigenvalue of the normalized operator, which ``decay_rate`` recovers by a
least-squares fit of ``log ||u||_inf`` after discarding the transient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, ScalarField, _normalized_stencil, _span_start, _stencil_work

__all__ = [
    "FlowError",
    "FlowConfig",
    "FlowRun",
    "cfl_limit",
    "step_flow",
    "run_flow",
    "decay_rate",
]


class FlowError(RuntimeError):
    """Invalid flow configuration or unusable decay trace."""


def cfl_limit(grid: Grid, p: float) -> float:
    """Largest admissible explicit step ``0.2 h^2 min(p/(p-1), p)``."""
    if not 1.0 <= p:
        raise FlowError("flow requires 1 <= p <= inf")
    if math.isinf(p):
        coeff = 1.0
    elif p == 1.0:
        coeff = 1.0
    else:
        coeff = min(p / (p - 1.0), p)
    return 0.2 * grid.h * grid.h * coeff


@dataclass(frozen=True)
class FlowConfig:
    """Resolved explicit-scheme parameters.

    ``dt = None`` selects the stability bound itself; ``delta = None``
    selects ``1e-6 ||u0||_inf`` at run start.  Configurations violating the
    stability bound are rejected here, not during stepping.
    """

    p: float = 2.0
    bc: str = "dirichlet"
    dt: float | None = None
    delta: float | None = None
    t_end: float = 1.0

    def __post_init__(self):
        if self.bc not in ("dirichlet", "neumann"):
            raise FlowError(f"unknown boundary condition {self.bc!r}")
        if not 1.0 <= self.p:
            raise FlowError("flow requires 1 <= p <= inf")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise FlowError("dt must be positive and finite")
        if self.delta is not None and not 0.0 <= self.delta < math.inf:
            raise FlowError("delta must be nonnegative and finite")
        if not 0.0 < self.t_end < math.inf:
            raise FlowError("t_end must be positive and finite")

    def resolve_dt(self, grid: Grid) -> float:
        limit = cfl_limit(grid, self.p)
        if self.dt is None:
            return limit
        if self.dt > limit * (1.0 + 1e-12):
            raise FlowError(
                f"dt={self.dt:.3e} violates the stability bound {limit:.3e}")
        return self.dt


@dataclass
class FlowRun:
    """Trace of one explicit evolution.

    ``times``/``sup_trace`` record ``||u(t)||_inf`` at every step;
    ``fitted_rate``/``fit_r2`` hold the decay fit when the trace supports
    one (None otherwise).  Dirichlet-0 traces are nonincreasing.
    """

    p: float
    bc: str
    dt: float
    delta: float
    times: np.ndarray
    sup_trace: np.ndarray
    final: ScalarField
    fitted_rate: float | None = None
    fit_r2: float | None = None
    snapshots: list[tuple[float, ScalarField]] = field(default_factory=list)


class _Stepper:
    """Forward-Euler steps taken in place on one raw state array.

    Dirichlet: the state is the grid's value array; after each step the
    pinned collar (every non-interior node) is set back to zero.  Neumann:
    the state carries a one-node halo of mirror ghosts around the grid,
    refreshed after each step by copies between (ghost, source) views built
    once.  A step evaluates the stencil times ``dt`` on the state's flat span
    (``fields._normalized_stencil``) and adds it there; the halo positions
    inside the span that this leaves with garbage are exactly the pinned
    collar or the ghosts, which the boundary update overwrites.  Exterior
    entries are zero either way, so ``sup_norm`` reads the raw state.
    Nothing is allocated per step.
    """

    def __init__(self, u: ScalarField, p: float, dt: float, delta: float, bc: str):
        grid = u.grid
        limit = cfl_limit(grid, p)
        if not 0.0 < dt <= limit * (1.0 + 1e-12):
            raise FlowError(f"dt={dt:.3e} outside (0, {limit:.3e}]")
        if not 0.0 <= delta < math.inf:
            raise FlowError("delta must be nonnegative and finite")
        if bc == "dirichlet":
            self.state = u.values.copy()
            self.nodes = self.state
            self.pinned = ~grid.interior
        elif bc == "neumann":
            if not bool(grid.nonexterior.all()):
                raise FlowError("mirror-ghost reflection needs a lattice-filling domain "
                                "(rectangle or interval)")
            self.state = np.pad(u.values, 1)
            self.nodes = self.state[(np.s_[1:-1],) * grid.dim]
            self.pinned = None
            # axis by axis, so the corner ghosts mirror the corner nodes
            self._mirrors = [(self.state[(np.s_[:],) * axis + (ghost,)],
                              self.state[(np.s_[:],) * axis + (source,)])
                             for axis in range(grid.dim)
                             for ghost, source in ((np.s_[:1], np.s_[2:3]),
                                                   (np.s_[-1:], np.s_[-3:-2]))]
            self._reflect()
        else:
            raise FlowError(f"unknown boundary condition {bc!r}")
        self.grid, self.p, self.dt, self.delta = grid, p, dt, delta
        start = _span_start(self.state)
        self.span = self.state.reshape(-1)[start:self.state.size - start]
        self.rhs = np.empty(self.span.shape)
        self.work = _stencil_work(self.state)

    def _reflect(self) -> None:
        for ghost, source in self._mirrors:
            np.copyto(ghost, source)

    def step(self) -> None:
        _normalized_stencil(self.state, self.grid.h, self.p, self.delta, self.dt,
                            self.rhs, self.work)
        self.span += self.rhs
        if self.pinned is None:
            self._reflect()
        else:
            np.copyto(self.state, 0.0, where=self.pinned)

    def sup_norm(self) -> float:
        return max(float(self.state.max()), -float(self.state.min()))

    def field(self) -> ScalarField:
        return ScalarField(self.grid, self.nodes)


def step_flow(u: ScalarField, p: float, dt: float, delta: float = 0.0,
              bc: str = "dirichlet") -> ScalarField:
    """One forward-Euler step ``u + dt lap_p^N u``.

    Dirichlet: interior nodes evolve, the boundary collar stays pinned at
    zero.  Neumann: every node evolves with mirror-ghost reflection, which
    requires the grid to fill its lattice (no exterior nodes).
    """
    stepper = _Stepper(u, p, dt, delta, bc)
    stepper.step()
    return stepper.field()


def run_flow(u0: ScalarField, cfg: FlowConfig, snapshot_times=()) -> FlowRun:
    """Evolve ``u0`` to ``cfg.t_end``, tracing the sup-norm every step.

    Requested ``snapshot_times`` are honored at the nearest step boundary,
    t = 0 included.  The decay fit is attempted at the end and left as None
    if the trace does not support it.  ``u0`` is not modified; snapshots and
    ``final`` are fields of their own.
    """
    grid = u0.grid
    dt = cfg.resolve_dt(grid)
    delta = cfg.delta if cfg.delta is not None else 1e-6 * u0.sup_norm()
    stepper = _Stepper(u0, cfg.p, dt, delta, cfg.bc)
    steps = max(int(math.ceil(cfg.t_end / dt - 1e-12)), 1)
    want = sorted(set(min(max(t, 0.0), cfg.t_end) for t in snapshot_times))
    times = dt * np.arange(steps + 1)
    trace = np.empty(steps + 1)
    snapshots = []
    for k in range(steps + 1):
        if k > 0:
            stepper.step()
        t = k * dt
        trace[k] = stepper.sup_norm()
        while len(snapshots) < len(want) and want[len(snapshots)] <= t + 0.5 * dt:
            snapshots.append((t, stepper.field()))
    run = FlowRun(p=cfg.p, bc=cfg.bc, dt=dt, delta=delta, times=times,
                  sup_trace=trace, final=stepper.field(), snapshots=snapshots)
    try:
        run.fitted_rate, run.fit_r2 = _fit_decay(times, trace)
    except FlowError:
        pass
    return run


def _fit_decay(times: np.ndarray, trace: np.ndarray) -> tuple[float, float]:
    skip = int(0.2 * len(times))
    t = times[skip:]
    s = trace[skip:]
    if len(t) < 10:
        raise FlowError("need at least 10 samples after the transient window")
    if np.any(s <= 0.0):
        raise FlowError("sup-norm trace reached zero; no exponential fit")
    y = np.log(s)
    slope, intercept = np.polyfit(t, y, 1)
    if slope >= 0.0:
        raise FlowError("sup-norm trace is not decaying")
    fit = slope * t + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return float(-slope), float(r2)


def decay_rate(run: FlowRun) -> tuple[float, float]:
    """(rate, r_squared) of the exponential sup-norm decay.

    Fits ``log ||u||_inf`` by least squares after discarding the first 20%
    of the trace; raises on nondecaying or too-short traces.
    """
    return _fit_decay(run.times, run.sup_trace)
