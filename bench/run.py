"""plaplab benchmark: time to an accurate solution on three solver workloads.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

One workload runs per process, as a closed loop: repetitions follow each
other until ``--seconds`` is spent, and at least ``MIN_REPS`` are made.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans recorded around the calls into each layer
(``spans.py``), alternating untraced and traced repetitions of the same
input so that the tracing overhead is measured too.  ``--workload all``
runs every workload both ways, one subprocess each, prints every metric and
writes ``bench/out/all.json``.

End-to-end metrics:

* ``wall_s``: median seconds per repetition, grid build included.
* ``setup_s``: median over ``PROBES`` fresh interpreters of the seconds
  from importing the workload's plaplab module to having the unit square
  and its grid built (``probe.py``).
* ``peak_rss_mb``: this process's maxrss after its ``MIN_REPS``-th
  repetition, with glibc's mmap threshold fixed (``_fix_mmap_threshold``).
* ``residual``: the accuracy a change that is faster because it stops
  earlier would lose.  Torsion: ``SolveResult.optimality_residual``;
  neumann-fig5: ``EigenResult.residual``; flow-heat: the relative error of
  the initial mode's decay rate against pi^2 (Dirichlet) and pi^2/2
  (Neumann), the worse of the two.

Per-layer metrics: ``<layer>.<function>.calls`` and ``.s`` count the spans of
one function and sum their inclusive seconds; ``<layer>.self_s`` is the
layer's time outside the traced functions it calls;
``variational.assembly_s`` is ``weighted_factor`` time less its ``splu``
time; ``accept_ratio`` is iterations per energy evaluation;
``energy_grad.mb_computed`` sums the sizes of its array arguments and
results; ``trace.overhead_s`` is traced minus untraced repetition time.  A
metric whose function the tracer cannot find (``spans.Tracer.absent``) is
printed as ``absent`` and emitted with value null and ``"absent": true``,
never as 0.

Every repetition is checked (``workloads.py``).  A ``SolverError``,
``EigenError``, ``FlowError`` or a failed check counts as a failed
repetition; ``failed``/``attempted`` in the result line is the fail
fraction.  The last line of standard output is the result as one JSON
object.  The program is imported from ``src/`` of the same checkout; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# One BLAS thread (the machine the figures were taken on has two cores);
# set before numpy is first imported, and inherited by the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _fix_mmap_threshold() -> None:
    """Serve every allocation of 8 MiB or more by mmap, returned to the
    system when freed.  By default glibc raises this threshold each time such
    a block is freed, after which large blocks come from the heap and how
    much of it stays resident depends on the order of allocations:
    neumann-fig5's maxrss ranged over 140-188 MiB across seeds, and over
    137-140 MiB with the threshold fixed at 8 MiB.  A 1 MiB threshold held it
    tighter but slowed torsion-p32 by 15-25%, and 32 MiB left it as wide as
    the default.  Does nothing without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    m_mmap_threshold = -3  # from glibc's malloc.h
    mallopt(m_mmap_threshold, 8 << 20)


_fix_mmap_threshold()

#: untraced repetitions made even when --seconds is shorter; peak_rss_mb is
#: read after the MIN_REPS-th, so it counts the same number of cached cores
MIN_REPS = 2
#: fresh interpreters timed for setup_s (the median is reported)
PROBES = 15

#: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "residual": ("1", "lower"),
}

#: name -> (unit, better, spans the value is read from); a metric is reported
#: absent when the tracer cannot find one of its spans
PER_LAYER = {
    "variational.precond_solve.calls": ("count", "lower", ("variational.precond_solve",)),
    "variational.precond_solve.s": ("s", "lower", ("variational.precond_solve",)),
    "dirichlet.iterations": ("count", "lower", ()),
    "variational.energy_grad.calls": ("count", "lower", ("variational.energy_grad",)),
    "variational.energy_grad.s": ("s", "lower", ("variational.energy_grad",)),
    "variational.energy_grad.mb_computed": ("MB", "lower", ("variational.energy_grad",)),
    "dirichlet.accept_ratio": ("ratio", "higher", ("variational.energy_grad",)),
    "variational.splu.calls": ("count", "lower", ("variational.splu",)),
    "variational.splu.s": ("s", "lower", ("variational.splu",)),
    "variational.lu_nnz": ("count", "lower", ("variational.splu",)),
    "variational.weighted_factor.calls": ("count", "lower", ("variational.weighted_factor",)),
    "variational.assembly_s": ("s", "lower", ("variational.weighted_factor",
                                              "variational.splu")),
    "eigen.self_s": ("s", "lower", ()),
    "eigen.iterations": ("count", "lower", ()),
    "eigen.accept_ratio": ("ratio", "higher", ("variational.energy",)),
    "variational.energy.calls": ("count", "lower", ("variational.energy",)),
    "variational.energy.s": ("s", "lower", ("variational.energy",)),
    "fields.normalized_p_laplacian.calls": ("count", "lower", ("fields.normalized_p_laplacian",)),
    "fields.normalized_p_laplacian.s": ("s", "lower", ("fields.normalized_p_laplacian",)),
    "flow.steps": ("count", "lower", ()),
    "flow.self_s": ("s", "lower", ()),
    "fields.build_grid.s": ("s", "lower", ("fields.build_grid",)),
    "geometry.distance_to_boundary.calls": ("count", "lower", ("geometry.distance_to_boundary",)),
    "geometry.distance_to_boundary.s": ("s", "lower", ("geometry.distance_to_boundary",)),
    "dirichlet.distance_field.s": ("s", "lower", ("dirichlet.distance_field",)),
    "dirichlet.self_s": ("s", "lower", ()),
    "cli.self_s": ("s", "lower", ()),
    "cli.artifact_bytes": ("bytes", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
}


def _import_program():
    """Put this checkout's ``src`` first on the path and import plaplab from it."""
    if not os.path.isfile(os.path.join(SRC, "plaplab", "__init__.py")):
        raise SystemExit(f"bench: no plaplab sources under {SRC}")
    sys.path.insert(0, SRC)
    import plaplab

    if not os.path.abspath(plaplab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: plaplab was imported from {plaplab.__file__}, not {SRC}")


def rep_seed(seed: int, k: int) -> int:
    """Input seed of repetition ``k`` of a run started with ``--seed seed``."""
    return seed * 1000 + k


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(wl) -> list[float]:
    """Import-to-grid seconds, each in a fresh interpreter."""
    out = []
    for _ in range(PROBES):
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "probe.py"), wl.module,
                               str(wl.n)], cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def one_rep(wl, seed: int, workdir: str, tracer=None):
    """Time ``wl.execute`` (traced when a tracer is given), then check it."""
    from workloads import NUMERIC_ERRORS, Outcome

    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = wl.execute(seed, workdir)
        else:
            with tracer.installed():
                raw = wl.execute(seed, workdir)
    except NUMERIC_ERRORS as exc:
        return time.perf_counter() - t0, Outcome(problems=[f"{type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - t0
    return wall, wl.check(raw)


def _finite_median(values) -> float | None:
    vals = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(vals) if vals else None


def layer_metrics(tracer, outcome) -> dict:
    """Per-layer values of one traced repetition (``trace.overhead_s`` is
    filled in by the caller); None for a metric whose spans are absent."""
    summary = spans.summarize(tracer.spans)
    by, own = summary["by_name"], summary["layer_self"]

    def get(name, key):
        return by.get(name, {}).get(key, 0)

    counts = outcome.counts
    d_its = counts.get("dirichlet.iterations", 0)
    e_its = counts.get("eigen.iterations", 0)
    grad_calls = get("variational.energy_grad", "calls")
    energy_calls = get("variational.energy", "calls")
    values = {
        "variational.precond_solve.calls": get("variational.precond_solve", "calls"),
        "variational.precond_solve.s": get("variational.precond_solve", "s"),
        "dirichlet.iterations": d_its,
        "variational.energy_grad.calls": grad_calls,
        "variational.energy_grad.s": get("variational.energy_grad", "s"),
        "variational.energy_grad.mb_computed": get("variational.energy_grad", "measure") / 1e6,
        "dirichlet.accept_ratio": d_its / grad_calls if d_its and grad_calls else 0.0,
        "variational.splu.calls": get("variational.splu", "calls"),
        "variational.splu.s": get("variational.splu", "s"),
        "variational.lu_nnz": get("variational.splu", "measure_max"),
        "variational.weighted_factor.calls": get("variational.weighted_factor", "calls"),
        "variational.assembly_s": get("variational.weighted_factor", "s") - spans.child_time_under(
            tracer.spans, "variational.splu", "variational.weighted_factor"),
        "eigen.self_s": own.get("eigen", 0.0),
        "eigen.iterations": e_its,
        "eigen.accept_ratio": e_its / energy_calls if e_its and energy_calls else 0.0,
        "variational.energy.calls": energy_calls,
        "variational.energy.s": get("variational.energy", "s"),
        "fields.normalized_p_laplacian.calls": get("fields.normalized_p_laplacian", "calls"),
        "fields.normalized_p_laplacian.s": get("fields.normalized_p_laplacian", "s"),
        "flow.steps": counts.get("flow.steps", 0),
        "flow.self_s": own.get("flow", 0.0),
        "fields.build_grid.s": get("fields.build_grid", "s"),
        "geometry.distance_to_boundary.calls": get("geometry.distance_to_boundary", "calls"),
        "geometry.distance_to_boundary.s": get("geometry.distance_to_boundary", "s"),
        "dirichlet.distance_field.s": get("dirichlet.distance_field", "s"),
        "dirichlet.self_s": own.get("dirichlet", 0.0),
        "cli.self_s": own.get("cli", 0.0),
        "cli.artifact_bytes": counts.get("cli.artifact_bytes", 0),
    }
    for name, (_, _, needed) in PER_LAYER.items():
        if name in values and any(span in tracer.absent for span in needed):
            values[name] = None
    return values


class Run:
    """Repetitions of one workload and what they measured."""

    def __init__(self, wl, seed: int, seconds: float, workdir: str):
        self.wl, self.seed, self.seconds, self.workdir = wl, seed, seconds, workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lines: list[str] = []

    def rep(self, k: int, tracer=None):
        wall, outcome = one_rep(self.wl, rep_seed(self.seed, k), self.workdir, tracer)
        self.attempted += 1
        self.failed += bool(outcome.problems)
        self.problems += [f"rep {k}: {p}" for p in outcome.problems]
        notes = " ".join(f"{key}={val:.6g}" for key, val in outcome.notes.items())
        self.lines.append(f"  rep {k}{' traced' if tracer else ''}: {wall:.4f} s "
                          f"maxrss={_maxrss_mib():.1f} MiB residual={outcome.residual:.6g} {notes}"
                          f" {'FAIL ' + '; '.join(outcome.problems) if outcome.problems else 'ok'}")
        return wall, outcome

    def untraced(self) -> dict:
        setup = setup_seconds(self.wl)
        walls, residuals, rss = [], [], None
        start = time.perf_counter()
        while len(walls) < MIN_REPS or (time.perf_counter() - start
                                        + statistics.median(walls) <= self.seconds):
            wall, outcome = self.rep(len(walls))
            walls.append(wall)
            residuals.append(outcome.residual)
            if len(walls) == MIN_REPS:
                rss = _maxrss_mib()
        return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                "peak_rss_mb": rss, "residual": _finite_median(residuals)}

    def traced(self) -> tuple[dict, list, list]:
        """Per-layer medians over traced repetitions, the spans of each
        traced repetition, and the names the tracer could not find."""
        self.rep(0)  # warm-up: first-repetition costs stay out of the overhead
        plain, traced, per_rep, records, absent = [], [], [], [], []
        start = time.perf_counter()
        while not plain or (time.perf_counter() - start
                            + statistics.median(p + t for p, t in zip(plain, traced))
                            <= self.seconds):
            k = len(plain) + 1
            plain.append(self.rep(k)[0])
            tracer = spans.Tracer()
            wall, outcome = self.rep(k, tracer)
            traced.append(wall)
            per_rep.append(layer_metrics(tracer, outcome))
            records.append(tracer.records())
            absent = tracer.absent
        values = {name: None if per_rep[0][name] is None
                  else statistics.median(r[name] for r in per_rep) for name in per_rep[0]}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return values, records, absent


def measure(wl, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object of the last output line."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    run = Run(wl, seed, seconds, workdir)
    try:
        if trace:
            values, records, absent = run.traced()
            table = PER_LAYER
            with open(os.path.join(OUT, f"spans-{name}-seed{seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"workload": name, "seed": seed, "absent": absent,
                           "reps": records}, fh)
        else:
            values, absent = run.untraced(), []
            table = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{run.attempted} repetitions, {run.failed} failed")
    for line in run.lines:
        print(line)
    for problem in run.problems:
        print(f"  FAILED {problem}")
    metrics = {}
    for metric, (unit, better, *needed) in table.items():
        value = values[metric]
        metrics[metric] = {"value": value, "unit": unit}
        if needed and any(span in absent for span in needed[0]):
            metrics[metric]["absent"] = True
            shown = "absent"
        else:
            shown = "none" if value is None else format(value, ".6g")
        print(f"  {metric:40s} {shown:>14s} {unit:6s} ({better} is better)")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, one subprocess each."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(trace)], cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"bench: {name} trace {trace} exited with {proc.returncode}")
                return 1
            results.setdefault(name, {})[f"trace{trace}"] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "all.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "seconds": seconds, "results": results}, fh, indent=1)
    ok = all(r["correct"] for res in results.values() for r in res.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for res in results.values()
                                       for r in res.values()),
                      "failed": sum(r["failed"] for res in results.values()
                                    for r in res.values()),
                      "workloads": sorted(results)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    result = measure(WORKLOADS[args.workload], args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
