"""Command-line driver with reproducible run manifests.

Subcommands
-----------
solve      p-harmonic / p-torsion boundary-value solves
eigen      first eigenpair at one exponent
sweep      eigenvalue p-sweep with JSON report
radial     radial closed forms and limits on balls
flow       explicit normalized p-Laplacian evolution traces
cheeger    Cheeger constant and rounded Cheeger set
check      limit-equation residuals and 1-D viscosity checks
reproduce  canonical figure pipelines (fig4, fig5)

Every successful run writes a manifest JSON recording the subcommand, the
options the run read (defaults materialized), sha256 digests of input
files, artifact paths, wall-clock duration, and the package version.  An
option that the chosen task, case or initial condition does not read is a
configuration error.  All randomness sits behind the global ``--seed``
flag, so a rerun with the manifest's configuration reproduces every
CSV/JSON artifact bit-identically.

Exit codes: 0 success; 2 configuration error (usage text on stderr);
1 numerical failure (diagnostic JSON on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .dirichlet import (
    SolverError,
    check_exponent,
    distance_field,
    solve_p_harmonic,
    torsion_infinity_gap,
)
from .eigen import (
    diagonal_profile,
    dirichlet_eigen_first,
    limit_target,
    neumann_eigen_first,
    p_sweep,
    sweep_exponents,
)
from .fields import (
    FieldError,
    GridError,
    ScalarField,
    build_grid,
    field_csv_rows,
    infinity_laplacian,
)
from .flow import FlowConfig, FlowError, run_flow
from .geometry import Domain, GeometryError, cheeger_convex, domain_to_json, load_domain
from .radial import (
    RadialError,
    gaussian_limit_p1,
    normalized_torsion_radial,
    plateau_family,
    radial_eigen_shoot,
    torsion_coefficient,
)
from .viscosity import (
    check_1d_kink,
    check_1d_neumann_bc,
    residual_limit_eigen,
    residual_limit_torsion,
    residual_neumann_system,
    ridge_exclusion_mask,
)

__all__ = ["main"]


class CliConfigError(Exception):
    """Invalid command-line configuration (maps to exit code 2)."""


_CONFIG_ERRORS = (CliConfigError, GeometryError, GridError, FieldError,
                  json.JSONDecodeError, OSError)
_NUMERIC_ERRORS = (SolverError, RadialError, FlowError)  # EigenError is a SolverError


# ---------------------------------------------------------------------------
# deterministic artifact writers


def _g17(x) -> str:
    return "%.17g" % float(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_g17(v) for v in row) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _field_artifact(path: str, f: ScalarField) -> None:
    _write_csv(path, ["x", "y", "value"], field_csv_rows(f))


# ---------------------------------------------------------------------------
# shared argument helpers


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty exponent list")
    return values


def _load_domain_arg(path: str) -> Domain:
    try:
        return load_domain(path)
    except (GeometryError, json.JSONDecodeError, OSError, KeyError, TypeError) as exc:
        raise CliConfigError(f"--domain {path}: {exc}") from exc


def _eigen_first(kind: str, grid, p: float, seed: int):
    """First ``kind`` eigenpair at ``p``; a seed only moves a Neumann start."""
    p = check_exponent(p, CliConfigError)
    if kind == "dirichlet":
        return dirichlet_eigen_first(grid, p)
    return neumann_eigen_first(grid, p, seed=seed)


def _seed_read(args, bc: str | None) -> dict:
    """The manifest entry of ``--seed`` if a run with boundary condition
    ``bc`` reads it: only a Neumann eigen start does."""
    return {"seed": args.seed} if bc == "neumann" else {}


def _engine_counts(res) -> dict:
    """The Newton engine's counts and stage records of a solve or eigen result."""
    return {"iterations": res.iterations, "factorizations": res.factorizations,
            "pcgIterations": res.pcg_iterations,
            "stages": [dataclasses.asdict(s) for s in res.stages]}


#: flag and manifest key of each option that only some cases of its
#: subcommand read
_OPTION_NAMES = {"p": ("--p", "p"), "k": ("--k", "k"), "rho": ("--rho", "rho"),
                 "lam": ("--lambda", "lambda"), "p_list": ("--p-list", "pList"),
                 "grid": ("--grid", "grid"), "init_file": ("--init-file", "initFile")}

#: per case, the options of ``_OPTION_NAMES`` it reads and their defaults
#: (None: no default); radial reads --n and --R in every task
_RADIAL_READS = {"torsion": {"p": 2.0}, "eigen": {"p": 2.0, "k": 1},
                 "gaussian": {"lam": 2.0, "p_list": (1.5, 1.2, 1.1)},
                 "plateau": {"p": None, "rho": None}}
_CHECK_READS = {"kink": {"lam": 1.0}, "neumann-bc": {"lam": 1.0},
                "aronsson": {"grid": 64}, "torsion-limit": {"grid": 64},
                "eigen-limit-1d": {"grid": 64, "lam": 1.0},
                "neumann-limit": {"grid": 64, "lam": 1.0}}
_FLOW_READS = {"eigen": {}, "bump": {}, "file": {"init_file": None}}


def _case_options(args, flag: str, case: str, table: dict) -> dict:
    """Manifest entries of the options that ``case`` reads (``table[case]``),
    defaults filled in, also on ``args``.  An option that only other cases
    of ``table`` read must be unset, else ``CliConfigError``."""
    reads = table[case]
    config = {}
    for dest in dict.fromkeys(d for options in table.values() for d in options):
        name, key = _OPTION_NAMES[dest]
        value = getattr(args, dest)
        if dest in reads:
            if value is None:
                value = reads[dest]
                setattr(args, dest, value)
            config[key] = value
        elif value is not None:
            raise CliConfigError(f"{name} does not apply to {flag} {case}")
    return config


def _require_finite(config: dict) -> None:
    """``CliConfigError`` unless every number of the manifest entries
    ``config``, and of each list among them, is finite."""
    for key, value in config.items():
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise CliConfigError(f"{key} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (config, inputs, artifacts, report,
# summary); main writes the report to --report, the last artifact


def _cmd_solve(args):
    if args.problem == "torsion" and args.boundary is not None:
        raise CliConfigError("--boundary applies only to --problem harmonic")
    boundary = (args.boundary or "aronsson") if args.problem == "harmonic" else None
    dom = _load_domain_arg(args.domain)
    grid = build_grid(dom, args.grid)
    check_exponent(args.p, CliConfigError)
    report: dict = {"problem": args.problem, "p": args.p}
    if args.problem == "torsion":
        gap = torsion_infinity_gap(grid, args.p)
        res = gap.torsion
        report["supGap"] = gap.sup_gap
    else:
        if boundary == "aronsson":
            def data(*coords):
                x, y = coords
                return np.abs(x) ** (4.0 / 3.0) - np.abs(y) ** (4.0 / 3.0)
        else:
            def data(*coords):
                return coords[0] - coords[-1]
        res = solve_p_harmonic(grid, data, args.p)
        report["boundary"] = boundary
    report.update(_engine_counts(res), finalEnergy=res.final_energy,
                  optimalityResidual=res.optimality_residual)
    artifacts = []
    if args.out:
        _field_artifact(args.out, res.field)
        artifacts.append(args.out)
    config = {"problem": args.problem, "p": args.p, "domain": domain_to_json(dom),
              "grid": args.grid, "boundary": boundary}
    summary = (f"solve {args.problem} p={args.p:g}: iterations={res.iterations} "
               f"factorizations={res.factorizations} "
               f"residual={res.optimality_residual:.3e}")
    return config, [args.domain], artifacts, report, summary


def _cmd_eigen(args):
    dom = _load_domain_arg(args.domain)
    grid = build_grid(dom, args.grid)
    res = _eigen_first(args.type, grid, args.p, args.seed)
    target = limit_target(args.type, dom)
    gap = abs(res.root - target) / target
    report = {
        "problem": args.type,
        "domain": domain_to_json(dom),
        "p": res.p,
        "raw": res.raw,
        "root": res.root,
        "target": target,
        "relativeGap": gap,
        "residual": res.residual,
        **_engine_counts(res),
    }
    artifacts = []
    if args.out:
        _field_artifact(args.out, res.field)
        artifacts.append(args.out)
    config = {"type": args.type, "p": args.p, "domain": domain_to_json(dom),
              "grid": args.grid, **_seed_read(args, args.type)}
    summary = (f"eigen {args.type} p={args.p:g}: root={res.root:.6f} "
               f"target={target:.6f} relativeGap={gap:.4f}")
    return config, [args.domain], artifacts, report, summary


def _cmd_sweep(args):
    dom = _load_domain_arg(args.domain)
    sweep_exponents(args.p_list, CliConfigError)
    rep = p_sweep(args.problem, dom, args.p_list, args.grid, seed=args.seed)
    payload = rep.to_dict()
    payload["domain"] = domain_to_json(dom)
    config = {"type": args.problem, "pList": list(args.p_list),
              "domain": domain_to_json(dom), "grid": args.grid,
              **_seed_read(args, args.problem)}
    last = rep.entries[-1]
    summary = (f"sweep {args.problem} p={last.p:g}: root={last.root:.6f} "
               f"relativeGap={last.relative_gap:.4f} ({len(rep.entries)} entries)")
    return config, [args.domain], [], payload, summary


def _cmd_radial(args):
    task = args.task
    config = {"task": task, "n": args.n, "R": args.R,
              **_case_options(args, "--task", task, _RADIAL_READS)}
    _require_finite(config)
    if args.R <= 0.0 or args.n < 1 or (task == "eigen" and args.k < 1):
        raise CliConfigError("--R must be positive, --n and --k at least 1")
    if task == "plateau" and (args.rho is None or args.p is None or not args.p > 2.0):
        raise CliConfigError("the plateau task needs --rho and --p above 2")
    if task == "plateau" and not 0.0 < args.rho < args.R:
        raise CliConfigError("--rho must lie strictly between 0 and --R")
    if task == "torsion":
        prof = normalized_torsion_radial(args.p, args.n, args.R)
        rows = zip(prof.r, prof.values, prof.residual)
        header = ["r", "value", "residual"]
        report = {"task": task, "p": args.p, "n": args.n, "R": args.R,
                  "coefficient": torsion_coefficient(args.p, args.n),
                  "maxResidual": prof.max_residual}
        summary = (f"radial torsion p={args.p:g} n={args.n}: "
                   f"c={report['coefficient']:.6f} maxResidual={prof.max_residual:.3e}")
    elif task == "eigen":
        shot = radial_eigen_shoot(args.p, args.n, args.R, k=args.k)
        rows = zip(shot.r, shot.values)
        header = ["r", "value"]
        report = {"task": task, "p": args.p, "n": args.n, "R": args.R,
                  "index": shot.index, "eigenvalue": shot.eigenvalue,
                  "mismatch": shot.mismatch}
        summary = (f"radial eigen p={args.p:g} n={args.n} k={args.k}: "
                   f"lambda={shot.eigenvalue:.6f}")
    elif task == "gaussian":
        limit = gaussian_limit_p1(args.lam, args.n, args.R, args.p_list)
        shots = [radial_eigen_shoot(p, args.n, args.R, k=1) for p in args.p_list]
        r = shots[0].r
        gauss = np.exp(-limit.lam * r * r / (2.0 * (args.n - 1)))
        cols = [r, gauss] + [s.values for s in shots]
        rows = zip(*cols)
        header = ["r", "gaussian"] + [f"p{p:g}" for p in args.p_list]
        report = {
            "task": task, "n": args.n, "R": args.R, "lambda": limit.lam,
            "formalResidual": limit.formal_residual,
            "boundaryRatio": limit.boundary_ratio,
            "entries": [
                {"p": e.p, "eigenvalue": e.eigenvalue,
                 "supDistanceInterior": e.sup_distance_interior,
                 "layerOnset": e.layer_onset, "layerWidth": e.layer_width}
                for e in limit.entries
            ],
        }
        closest = limit.entries[-1]
        summary = (f"radial gaussian lam={limit.lam:g}: boundaryRatio="
                   f"{limit.boundary_ratio:.4f} supDist(p={closest.p:g})="
                   f"{closest.sup_distance_interior:.4f}")
    else:  # plateau
        prof = plateau_family(args.p, args.n, args.R, args.rho)
        rows = zip(prof.r, prof.values, prof.residual_a)
        header = ["r", "value", "residual"]
        report = {"task": task, "p": args.p, "n": args.n, "R": args.R,
                  "rho": args.rho, "maxResidualA": prof.max_residual_a,
                  "gapToB": prof.gap_to_b}
        summary = (f"radial plateau p={args.p:g} rho={args.rho:g}: "
                   f"gapToB={prof.gap_to_b:.6f}")
    if args.out:
        _write_csv(args.out, header, rows)
    return config, [], [args.out] if args.out else [], report, summary


def _flow_initial(args, grid) -> ScalarField:
    if args.init == "eigen":
        return _eigen_first(args.bc, grid, args.p, args.seed).field
    if args.init == "bump":
        x0, y0, x1, y1 = grid.domain.bounding_box
        width = 0.25 * min(x1 - x0, (y1 - y0) if grid.dim == 2 else (x1 - x0))
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        if grid.dim == 1:
            def shape(x):
                return np.exp(-((x - cx) / width) ** 2)
        else:
            def shape(x, y):
                return np.exp(-(((x - cx) ** 2 + (y - cy) ** 2) / width**2))
        u = ScalarField.from_function(grid, shape)
        if args.bc == "dirichlet":
            u = ScalarField(grid, np.where(grid.interior, u.values, 0.0))
        return u
    # init == "file": rows x,y,value matching grid nodes
    if not args.init_file:
        raise CliConfigError("--init file requires --init-file PATH")
    try:
        data = np.loadtxt(args.init_file, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:  # a cell that is not a number
        raise CliConfigError(f"--init-file {args.init_file}: {exc}") from exc
    if data.shape[1] != 3:
        raise CliConfigError("--init-file must have columns x,y,value")
    vals = np.zeros(grid.shape)
    x0 = grid.xs[0]
    y0 = grid.ys[0] if grid.dim == 2 else 0.0
    for x, y, value in data:
        i = int(round((x - x0) / grid.h))
        j = int(round((y - y0) / grid.h)) if grid.dim == 2 else 0
        idx = (i, j) if grid.dim == 2 else (i,)
        if not (0 <= i < grid.shape[0]) or (grid.dim == 2 and not 0 <= j < grid.shape[1]):
            raise CliConfigError(f"--init-file node ({x:g},{y:g}) is off the grid")
        vals[idx] = value
    return ScalarField(grid, vals)


def _cmd_flow(args):
    init_options = _case_options(args, "--init", args.init, _FLOW_READS)
    dom = _load_domain_arg(args.domain)
    grid = build_grid(dom, args.grid)
    try:
        p = math.inf if args.p == "inf" else float(args.p)
    except ValueError as exc:
        raise CliConfigError(f"--p must be a number or 'inf', got {args.p!r}") from exc
    args.p = p
    try:
        cfg = FlowConfig(p=p, bc=args.bc, dt=args.dt, delta=args.delta,
                         t_end=args.t_end)
        cfg.resolve_dt(grid)
    except FlowError as exc:
        raise CliConfigError(str(exc)) from exc
    if args.bc == "neumann" and not bool(grid.nonexterior.all()):
        raise CliConfigError(
            "--bc neumann needs a lattice-filling domain (rectangle or interval)")
    u0 = _flow_initial(args, grid)
    run = run_flow(u0, cfg)
    artifacts = []
    if args.trace:
        _write_csv(args.trace, ["t", "supNorm"], zip(run.times, run.sup_trace))
        artifacts.append(args.trace)
    report = {"p": p if math.isfinite(p) else "inf", "bc": args.bc,
              "dt": run.dt, "delta": run.delta, "tEnd": args.t_end,
              "finalTime": float(run.times[-1]),
              "steps": len(run.times) - 1, "init": args.init,
              "fittedRate": run.fitted_rate, "fitR2": run.fit_r2}
    config = {"p": report["p"], "bc": args.bc, "domain": domain_to_json(dom),
              "grid": args.grid, "tEnd": args.t_end, "init": args.init,
              "dt": run.dt, "delta": run.delta, **init_options,
              **_seed_read(args, args.bc if args.init == "eigen" else None)}
    rate = "n/a" if run.fitted_rate is None else f"{run.fitted_rate:.6f}"
    summary = f"flow p={p:g} {args.bc}: steps={report['steps']} fittedRate={rate}"
    inputs = [args.domain] + list(init_options.values())
    return config, inputs, artifacts, report, summary


def _cmd_cheeger(args):
    dom = _load_domain_arg(args.domain)
    res = cheeger_convex(dom)
    report = {"h": res.h, "r": res.r, "area": res.area,
              "perimeter": res.perimeter,
              "verificationRatio": res.verification_ratio,
              "innerSet": domain_to_json(res.inner_set)}
    config = {"domain": domain_to_json(dom)}
    return config, [args.domain], [], report, f"cheeger: h={res.h:.9f}"


def _cmd_check(args):
    case = args.case
    config = {"case": case, **_case_options(args, "--case", case, _CHECK_READS)}
    _require_finite(config)
    lam = args.lam
    if case in ("kink", "neumann-bc") and not lam > 0.0:
        raise CliConfigError(f"--lambda must be positive for --case {case}")
    report: dict
    if case == "kink":
        rep = check_1d_kink(lam)
        report = rep.to_dict()
        report["flaggedCount"] = 0
        summary = f"check kink lambda={rep.lam:g}: pass={rep.passed}"
    elif case == "neumann-bc":
        rep = check_1d_neumann_bc(lam)
        report = rep.to_dict()
        report["flaggedCount"] = 0
        summary = f"check neumann-bc lambda={rep.lam:g}: pass={rep.passed}"
    elif case == "aronsson":
        grid = build_grid(Domain.rectangle(0.5, 0.5, 1.5, 1.5), args.grid)
        u = ScalarField.from_function(
            grid, lambda x, y: np.abs(x) ** (4.0 / 3.0) - np.abs(y) ** (4.0 / 3.0))
        tri = infinity_laplacian(u)
        keep = grid.interior & ~tri.flagged
        sup = float(np.max(np.abs(tri.values[keep])))
        report = {"case": case, "supResidual": sup,
                  "flaggedCount": int(np.count_nonzero(tri.flagged)),
                  "witnesses": []}
        summary = f"check aronsson n={args.grid}: supResidual={sup:.3e}"
    elif case == "torsion-limit":
        grid = build_grid(Domain.unit_square(), args.grid)
        rep = residual_limit_torsion(distance_field(grid),
                                     mask=ridge_exclusion_mask(grid))
        report = rep.to_dict()
        report.update({"case": case, "witnesses": []})
        summary = f"check torsion-limit n={args.grid}: supResidual={rep.sup_residual:.3e}"
    elif case == "eigen-limit-1d":
        grid = build_grid(Domain.interval(-1.0, 1.0), args.grid)
        v = ScalarField.from_function(grid, lambda x: 1.0 - np.abs(x))
        rep = residual_limit_eigen(v, lam)
        report = rep.to_dict()
        report.update({"case": case, "witnesses": []})
        summary = f"check eigen-limit-1d: supResidual={rep.sup_residual:.3e}"
    elif case == "neumann-limit":
        grid = build_grid(Domain.rectangle(-1.0, -1.0, 1.0, 1.0), args.grid)
        u = ScalarField.from_function(grid, lambda x, y: x)
        rep = residual_neumann_system(u, lam)
        report = rep.to_dict()
        report.update({"case": case, "witnesses": []})
        summary = (f"check neumann-limit lambda={rep.diagnostics['lambda']:g}: "
                   f"supResidual={rep.sup_residual:.3e} "
                   f"minBranchFloor={rep.diagnostics['minBranchFloorPositive']:.4f}")
    else:  # pragma: no cover - argparse restricts choices
        raise CliConfigError(f"unknown check case {case!r}")
    return config, [], [], report, summary


def _cmd_reproduce(args):
    if args.figure not in ("fig4", "fig5"):
        raise CliConfigError(f"unknown figure tag {args.figure!r} (use fig4 or fig5)")
    dom = Domain.unit_square()
    grid = build_grid(dom, args.grid)
    res = neumann_eigen_first(grid, 15.0, seed=args.seed)
    prefix = args.out_prefix
    artifacts = []
    if args.figure == "fig4":
        field_path = f"{prefix}fig4-field.csv"
        _field_artifact(field_path, res.field)
        artifacts.append(field_path)
        X, Y = grid.coordinates()
        cx = 0.5 * (grid.xs[0] + grid.xs[-1])
        cy = 0.5 * (grid.ys[0] + grid.ys[-1])
        s = (((X - cx) + (Y - cy)) / math.sqrt(2.0))[grid.nonexterior]
        vals = res.field.values[grid.nonexterior]
        order = np.lexsort((vals, s))
        side_path = f"{prefix}fig4-diagonal-sideview.csv"
        _write_csv(side_path, ["s", "value"], zip(s[order], vals[order]))
        artifacts.append(side_path)
        summary = f"reproduce fig4: root={res.root:.6f} nodes={len(vals)}"
    else:
        prof = diagonal_profile(res.field)
        prof_path = f"{prefix}fig5-profile.csv"
        _write_csv(prof_path, ["t", "normalizedValue"], zip(prof.t, prof.values))
        artifacts.append(prof_path)
        summary_path = f"{prefix}fig5-summary.json"
        _write_json(summary_path, {
            "p": 15.0, "grid": args.grid, "samples": len(prof.t),
            "root": res.root, "diagonal": prof.diagonal,
            "maxDeviationFromLinear": prof.max_deviation,
        })
        artifacts.append(summary_path)
        summary = f"reproduce fig5: maxDeviationFromLinear={prof.max_deviation:.4f}"
    config = {"figure": args.figure, "p": 15.0, "grid": args.grid, "seed": args.seed}
    return config, [], artifacts, None, summary


# ---------------------------------------------------------------------------
# parser & dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plaplab",
        description="Numerical laboratory for p-Laplace problems and their "
                    "geometric limits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the symmetry-breaking kick of a Neumann eigen start "
                             "(default 0)")
    parser.add_argument("--manifest", default=None,
                        help="manifest path (default: derived from the first artifact)")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="p-harmonic / p-torsion solves")
    ps.add_argument("--problem", choices=("harmonic", "torsion"), required=True)
    ps.add_argument("--p", type=float, required=True)
    ps.add_argument("--domain", required=True)
    ps.add_argument("--grid", type=int, default=64)
    ps.add_argument("--boundary", choices=("aronsson", "affine"), default=None,
                    help="boundary data for --problem harmonic (default aronsson)")
    ps.add_argument("--out", default=None, help="field CSV path")
    ps.add_argument("--report", default=None, help="report JSON path")
    ps.set_defaults(handler=_cmd_solve)

    pe = sub.add_parser("eigen", help="first eigenpair at one exponent")
    pe.add_argument("--type", choices=("dirichlet", "neumann"), required=True)
    pe.add_argument("--p", type=float, required=True)
    pe.add_argument("--domain", required=True)
    pe.add_argument("--grid", type=int, default=96)
    pe.add_argument("--out", default=None, help="eigenfunction CSV path")
    pe.add_argument("--report", default=None, help="report JSON path")
    pe.set_defaults(handler=_cmd_eigen)

    pw = sub.add_parser("sweep", help="eigenvalue p-sweep against the geometric limit")
    pw.add_argument("--problem", choices=("dirichlet", "neumann"), required=True)
    pw.add_argument("--p-list", type=_float_list, dest="p_list", required=True)
    pw.add_argument("--domain", required=True)
    pw.add_argument("--grid", type=int, default=96)
    pw.add_argument("--report", default=None, help="sweep report JSON path")
    pw.set_defaults(handler=_cmd_sweep)

    pr = sub.add_parser("radial", help="radial profiles on balls")
    pr.add_argument("--task", choices=("torsion", "eigen", "gaussian", "plateau"),
                    required=True)
    pr.add_argument("--p", type=float,
                    help="exponent: torsion, eigen (default 2), plateau (required, above 2)")
    pr.add_argument("--n", type=int, default=2)
    pr.add_argument("--R", type=float, default=1.0)
    pr.add_argument("--k", type=int, help="eigenvalue index: eigen (default 1)")
    pr.add_argument("--rho", type=float, help="plateau radius: plateau (required)")
    pr.add_argument("--lambda", dest="lam", type=float,
                    help="limit eigenvalue: gaussian (default 2)")
    pr.add_argument("--p-list", type=_float_list, dest="p_list",
                    help="exponents: gaussian (default 1.5,1.2,1.1)")
    pr.add_argument("--out", default=None, help="profile CSV path")
    pr.add_argument("--report", default=None, help="report JSON path")
    pr.set_defaults(handler=_cmd_radial)

    pf = sub.add_parser("flow", help="explicit evolution traces")
    pf.add_argument("--p", default="2", help="exponent (number or 'inf')")
    pf.add_argument("--domain", required=True)
    pf.add_argument("--grid", type=int, default=64)
    pf.add_argument("--bc", choices=("dirichlet", "neumann"), default="dirichlet")
    pf.add_argument("--tEnd", dest="t_end", type=float, default=1.0)
    pf.add_argument("--init", choices=("eigen", "bump", "file"), default="eigen")
    pf.add_argument("--init-file", dest="init_file", help="x,y,value CSV: --init file")
    pf.add_argument("--dt", type=float, default=None)
    pf.add_argument("--delta", type=float, default=None)
    pf.add_argument("--trace", default=None, help="sup-norm trace CSV path")
    pf.add_argument("--report", default=None, help="report JSON path")
    pf.set_defaults(handler=_cmd_flow)

    pc = sub.add_parser("cheeger", help="Cheeger constant of a convex domain")
    pc.add_argument("--domain", required=True)
    pc.add_argument("--report", default=None, help="report JSON path")
    pc.set_defaults(handler=_cmd_cheeger)

    pk = sub.add_parser("check", help="limit-equation residuals and viscosity checks")
    pk.add_argument("--case", choices=("aronsson", "torsion-limit", "eigen-limit-1d",
                                       "neumann-limit", "kink", "neumann-bc"),
                    required=True)
    pk.add_argument("--lambda", dest="lam", type=float,
                    help="eigenvalue: all but aronsson, torsion-limit (default 1)")
    pk.add_argument("--grid", type=int, help="resolution: all but kink, neumann-bc (default 64)")
    pk.add_argument("--report", default=None, help="report JSON path")
    pk.set_defaults(handler=_cmd_check)

    pp = sub.add_parser("reproduce", help="canonical figure pipelines")
    pp.add_argument("figure", help="figure tag: fig4 or fig5")
    pp.add_argument("--grid", type=int, default=128)
    pp.add_argument("--out-prefix", dest="out_prefix", default="",
                    help="prefix for artifact paths")
    pp.set_defaults(handler=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        config, inputs, artifacts, report, summary = args.handler(args)
        if getattr(args, "report", None):
            _write_json(args.report, report)
            artifacts.append(args.report)
    except _CONFIG_ERRORS as exc:
        parser.print_usage(sys.stderr)
        print(f"plaplab {args.command}: configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        json.dump({"command": args.command, "error": type(exc).__name__,
                   "message": str(exc)}, sys.stderr, sort_keys=True)
        print(file=sys.stderr)
        return 1
    duration = time.perf_counter() - start
    manifest = {
        "subcommand": args.command,
        "config": config,
        "inputDigests": {path: _sha256(path) for path in inputs},
        "artifacts": list(artifacts),
        "durationSeconds": duration,
        "version": __version__,
    }
    manifest_path = args.manifest or (
        f"{artifacts[0]}.manifest.json" if artifacts
        else f"plaplab-{args.command}-manifest.json")
    _write_json(manifest_path, manifest)
    print(summary)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
