"""The three benchmark workloads and their correctness checks.

Each workload is one closed loop of repetitions in one process.  A
repetition builds its domain and grid afresh, as a user's session does, so
the p = 2 factorization is paid every time and the cores that
``plaplab._variational`` keeps per grid accumulate in memory.  ``execute``
is the timed part; ``check`` compares its output with an independent oracle
or acceptance bound and is not timed.

Calls go through module attributes (``dirichlet.torsion_infinity_gap``), so
the wrappers that the traced run installs see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from plaplab import cli, dirichlet, eigen, fields, flow, geometry

#: errors that count as a failed repetition instead of ending the run
NUMERIC_ERRORS = (dirichlet.SolverError, eigen.EigenError, flow.FlowError)

#: flow-heat: end time and relative size of the seeded noise on the initial mode
FLOW_T_END = 0.05
FLOW_NOISE = 1e-3


@dataclass
class Outcome:
    """Checked result of one repetition.

    ``residual`` is the workload's accuracy figure (lower is better);
    ``counts`` holds exact per-repetition counts read from the results;
    ``problems`` lists every failed check (empty when the repetition passed).
    """

    residual: float = math.nan
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def _finite(*values) -> bool:
    return all(bool(np.all(np.isfinite(v))) for v in values)


@dataclass(frozen=True)
class Torsion:
    """``torsion_infinity_gap`` on the unit square; the check keeps the
    sup-gap to the distance function at most ``max_gap``."""

    n: int
    p: float
    max_gap: float
    module: ClassVar[str] = "plaplab.dirichlet"

    def execute(self, seed: int, workdir: str):
        grid = fields.build_grid(geometry.Domain.unit_square(), self.n)
        return dirichlet.torsion_infinity_gap(grid, self.p)

    def check(self, tg) -> Outcome:
        res = tg.torsion.optimality_residual
        out = Outcome(residual=res,
                      counts={"dirichlet.iterations": tg.torsion.iterations},
                      notes={"sup_gap": tg.sup_gap})
        if not _finite(tg.sup_gap, res, tg.torsion.field.values):
            out.problems.append("non-finite torsion result")
        elif not 0.0 <= tg.sup_gap <= self.max_gap:
            out.problems.append(f"sup_gap {tg.sup_gap:.6g} outside [0, {self.max_gap:.6g}]")
        return out


@contextlib.contextmanager
def _capture(module, attr: str, sink: list):
    """Record the return values of ``module.attr`` while the block runs
    (nothing is recorded if the module no longer has it)."""
    original = getattr(module, attr, None)
    if original is None:
        yield
        return

    def hook(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, attr, hook)
    try:
        yield
    finally:
        setattr(module, attr, original)


@dataclass(frozen=True)
class Fig5:
    """``plaplab reproduce fig5`` run in-process into a temporary directory."""

    n: int
    module: ClassVar[str] = "plaplab.cli"

    def execute(self, seed: int, workdir: str):
        out_dir = tempfile.mkdtemp(prefix="fig5-", dir=workdir)
        captured: list = []
        argv = ["--seed", str(seed), "reproduce", "fig5", "--grid", str(self.n),
                "--out-prefix", out_dir + os.sep]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                _capture(cli, "neumann_eigen_first", captured):
            rc = cli.main(argv)
        return rc, captured, out_dir, stderr.getvalue()

    def check(self, raw) -> Outcome:
        rc, captured, out_dir, stderr = raw
        out = Outcome()
        try:
            if rc != 0:
                out.problems.append(f"cli exit code {rc}: {stderr.strip()[:200]}")
                return out
            out.counts["cli.artifact_bytes"] = sum(
                os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
            with open(os.path.join(out_dir, "fig5-summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if len(captured) != 1:
            out.problems.append(f"expected one EigenResult from the CLI, saw {len(captured)}")
            return out
        res = captured[0]
        out.residual = res.residual
        out.counts["eigen.iterations"] = res.iterations
        dev = summary["maxDeviationFromLinear"]
        out.notes = {"root": summary["root"], "maxDeviationFromLinear": dev}
        if not _finite(res.root, res.residual, res.field.values, dev):
            out.problems.append("non-finite eigen result")
            return out
        if not dev <= 0.08:  # test_05
            out.problems.append(f"maxDeviationFromLinear {dev:.4g} > 0.08")
        if not math.sqrt(2.0) < summary["root"] < 2.0:
            out.problems.append(f"root {summary['root']:.6g} outside (sqrt 2, 2)")
        if summary["root"] != res.root or summary["grid"] != self.n or summary["p"] != 15.0:
            out.problems.append("summary JSON does not match the in-memory result")
        elif eigen.diagonal_profile(res.field).max_deviation != dev:
            out.problems.append("summary deviation does not match the in-memory field")
        return out


@dataclass(frozen=True)
class FlowHeat:
    """``run_flow`` at p = 2: Dirichlet from sin(pi x) sin(pi y), Neumann
    (mirror ghosts) from cos(pi x), each with seeded noise of relative size
    ``FLOW_NOISE``.  The oracle decay rates are pi^2 and pi^2/2."""

    n: int
    module: ClassVar[str] = "plaplab.flow"

    def execute(self, seed: int, workdir: str):
        grid = fields.build_grid(geometry.Domain.unit_square(), self.n)
        X, Y = grid.coordinates()
        rng = np.random.default_rng(seed)
        runs = []
        for bc, mode, rate in (("dirichlet", np.sin(np.pi * X) * np.sin(np.pi * Y), math.pi ** 2),
                               ("neumann", np.cos(np.pi * X), math.pi ** 2 / 2.0)):
            mode = np.where(grid.nonexterior, mode, 0.0)
            u0 = mode * (1.0 + FLOW_NOISE * rng.standard_normal(grid.shape))
            cfg = flow.FlowConfig(p=2.0, bc=bc, t_end=FLOW_T_END)
            runs.append((bc, mode, rate, u0, flow.run_flow(fields.ScalarField(grid, u0), cfg)))
        return runs

    def check(self, runs) -> Outcome:
        out = Outcome(counts={"flow.steps": 0})
        worst = 0.0
        for bc, mode, rate, u0, run in runs:
            out.counts["flow.steps"] += len(run.times) - 1
            if run.fitted_rate is None or not _finite(run.fitted_rate, run.fit_r2,
                                                      run.final.values):
                out.problems.append(f"{bc}: no finite decay fit")
                continue
            fit_err = abs(run.fitted_rate - rate) / rate
            out.notes[f"{bc}_fit_err"] = fit_err
            if fit_err > 0.03 or run.fit_r2 < 0.999:  # test_10
                out.problems.append(f"{bc}: fitted rate {run.fitted_rate:.6g} "
                                    f"(rel err {fit_err:.2g}), R2 {run.fit_r2:.6g}")
            # Decay of the initial mode's coefficient.  At p = 2 the scheme is
            # linear and symmetric in the trapezoid inner product and the
            # sampled mode is one of its eigenvectors, so the seeded noise
            # cancels and this error is the scheme's own, the same for every
            # seed; the sup-norm fit above moves with the noise.
            w = _trapezoid_weights(*mode.shape)
            ratio = float(np.sum(w * run.final.values * mode) / np.sum(w * u0 * mode))
            mode_err = abs(-math.log(ratio) / run.times[-1] - rate) / rate
            worst = max(worst, mode_err)
        out.residual = worst
        return out


def _trapezoid_weights(rows: int, cols: int) -> np.ndarray:
    """Trapezoid-rule weights on a rows x cols grid of the closed square."""
    def axis(m):
        w = np.ones(m)
        w[0] = w[-1] = 0.5
        return w

    return np.outer(axis(rows), axis(cols))


WORKLOADS = {
    # test_07's bound on the p = 32 gap
    "torsion-p32": Torsion(n=128, p=32.0, max_gap=0.05),
    "neumann-fig5": Fig5(n=128),
    "flow-heat": FlowHeat(n=128),
}


def smoke(workload):
    """The same workload on a small grid, for the harness self-test."""
    return replace(workload, n=24)
