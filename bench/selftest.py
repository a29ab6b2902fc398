"""Smoke self-test of the benchmark harness on small grids.

Usage (from the repository root): ``python3 bench/selftest.py``

Runs every workload with n = 24, untraced and traced, through the same code
as ``run.py``, and checks that

* the end-to-end and per-layer metrics ``run.py`` declares are the ones
  ``BENCHMARK.json`` lists, with the same unit and direction;
* each run emits every declared metric as a finite number with its unit,
  in a result object with exactly the keys the benchmark contract names;
* in every traced repetition no span's children take longer than the span
  itself, so no self time is negative;
* a function the tracer needs but cannot find is reported absent, the
  metrics read from it are emitted as absent (value null), not as 0, and
  uninstalling the tracer restores every function it replaced.

Correctness checks are run and printed but not required here: the acceptance
bounds are set for the full-size grids.  Exits with 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import sys
import types

import run


def fail(message: str) -> None:
    raise SystemExit(f"selftest: FAIL {message}")


def check_declarations() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        ours = {name: spec[:2] for name, spec in declared.items()}
        if listed != ours:
            fail(f"{key} in BENCHMARK.json differs from run.py: "
                 f"{sorted(set(listed.items()) ^ set(ours.items()))}")


def check_result(result: dict, declared: dict, label: str, absent=()) -> None:
    """``absent`` names the metrics that must be marked absent (value null)."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        fail(f"{label}: attempted/failed {result['attempted']}/{result['failed']}")
    if set(result["metrics"]) != set(declared):
        fail(f"{label}: metrics {sorted(set(result['metrics']) ^ set(declared))} missing or extra")
    for name, metric in result["metrics"].items():
        if name in absent:
            if metric != {"value": None, "unit": declared[name][0], "absent": True}:
                fail(f"{label}: {name} should be marked absent, emitted as {metric}")
            continue
        if set(metric) != {"value", "unit"} or metric["unit"] != declared[name][0]:
            fail(f"{label}: {name} emitted as {metric}")
        value = metric["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            fail(f"{label}: {name} = {value!r}")


def check_spans(path: str, label: str) -> None:
    with open(path, encoding="utf-8") as fh:
        reps = json.load(fh)["reps"]
    for records in reps:
        if not records:
            fail(f"{label}: a traced repetition recorded no spans")
        child = [0.0] * len(records)
        for rec in records:
            if rec["parent"] >= 0:
                child[rec["parent"]] += rec["end"] - rec["start"]
        for rec, covered in zip(records, child):
            if covered > rec["end"] - rec["start"] + 1e-9:
                fail(f"{label}: children of {rec['name']} take {covered:.6g} s, "
                     f"the span {rec['end'] - rec['start']:.6g} s")


def _bindings() -> dict:
    """Every function bound in a plaplab module or on VariationalCore."""
    from plaplab import _variational

    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and modname.startswith("plaplab"):
            out.update({(modname, k): v for k, v in vars(mod).items()
                        if isinstance(v, types.FunctionType)})
    for holder in (_variational.VariationalCore, getattr(_variational, "spla", None)):
        if holder is not None:
            out.update({(repr(holder), k): v for k, v in vars(holder).items() if callable(v)})
    return out


def check_absent_and_restore() -> None:
    """Remove ``VariationalCore.weighted_factor`` (flow-heat does not use it),
    then trace flow-heat: the metrics read from it must be marked absent."""
    import spans
    from plaplab import _variational
    from workloads import WORKLOADS, smoke

    needed = {span for spec in run.PER_LAYER.values() for span in spec[2]}
    if not needed <= set(spans.REQUIRED):
        fail(f"spans {sorted(needed - set(spans.REQUIRED))} are not in spans.REQUIRED")
    before = _bindings()
    cls = _variational.VariationalCore
    saved = cls.__dict__["weighted_factor"]
    del cls.weighted_factor
    try:
        tracer = spans.Tracer()
        with tracer.installed():
            if tracer.absent != ["variational.weighted_factor"]:
                fail(f"absent layers reported as {tracer.absent}")
            if _bindings() == before:
                fail("installing the tracer replaced nothing")
        result = run.measure(smoke(WORKLOADS["flow-heat"]), "flow-heat", 7, 0.0, True)
    finally:
        cls.weighted_factor = saved
    if _bindings() != before:
        fail("uninstalling the tracer left functions replaced")
    check_result(result, run.PER_LAYER, "flow-heat without weighted_factor",
                 absent={"variational.weighted_factor.calls", "variational.assembly_s"})


def main() -> int:
    run._import_program()
    from workloads import WORKLOADS, smoke

    check_declarations()
    check_absent_and_restore()
    seed = 7
    for name, workload in WORKLOADS.items():
        wl = smoke(workload)
        for trace, declared in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            label = f"{name} trace {int(trace)}"
            result = run.measure(wl, name, seed, 0.0, trace)
            check_result(result, declared, label)
            print(f"selftest: {label}: {result['attempted']} repetitions, "
                  f"correct={result['correct']}")
        check_spans(os.path.join(run.OUT, f"spans-{name}-seed{seed}.json"), name)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
