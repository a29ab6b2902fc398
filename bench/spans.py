"""In-memory spans around the calls into plaplab's layers.

A :class:`Tracer` replaces, for the duration of a ``with tracer.installed():``
block, every public function of the traced modules, every public method of
``VariationalCore`` and the ``splu`` that ``plaplab._variational`` looks up,
with a wrapper that records one span per call: name, start, end, the index
of the enclosing span, and an optional measurement (computed bytes, LU
nonzeros).  Aliases of a wrapped function in other ``plaplab`` modules (the
``from .x import f`` copies) are replaced too, so a call is traced whichever
namespace it goes through.  Everything is restored when the block exits;
nothing under ``src/`` is edited.

A function that a metric needs but the code no longer has (say, after a
refactor merges two engines) is listed in ``Tracer.absent`` instead of
failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import types

#: layer name -> module whose public functions (``__all__``) are wrapped
LAYER_MODULES = {
    "geometry": "plaplab.geometry",
    "fields": "plaplab.fields",
    "dirichlet": "plaplab.dirichlet",
    "eigen": "plaplab.eigen",
    "flow": "plaplab.flow",
    "cli": "plaplab.cli",
}
VARIATIONAL_MODULE = "plaplab._variational"
VARIATIONAL_CLASS = "VariationalCore"

#: spans the per-layer metrics are computed from
REQUIRED = (
    "variational.precond_solve",
    "variational.energy_grad",
    "variational.energy",
    "variational.weighted_factor",
    "variational.splu",
    "fields.normalized_p_laplacian",
    "fields.build_grid",
    "geometry.distance_to_boundary",
    "dirichlet.distance_field",
)


def _array_bytes(args, out) -> int:
    """Bytes of the array arguments and array results (computed, not measured)."""
    items = list(args) + list(out if isinstance(out, tuple) else (out,))
    return sum(int(a.nbytes) for a in items if hasattr(a, "nbytes") and hasattr(a, "dtype"))


def _lu_nnz(args, out) -> int:
    return int(out.L.nnz + out.U.nnz)


MEASURES = {
    "variational.energy_grad": _array_bytes,
    "variational.splu": _lu_nnz,
}


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, measure]``;
    ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, name: str, fn) -> None:
        """Replace ``fn`` wherever a loaded plaplab module binds it."""
        wrapper = self._wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "plaplab" or modname.startswith("plaplab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        wrapped: set[str] = set()
        for layer, modname in LAYER_MODULES.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == modname:
                    self._patch_function(f"{layer}.{attr}", fn)
                    wrapped.add(f"{layer}.{attr}")
        try:
            var = importlib.import_module(VARIATIONAL_MODULE)
        except ImportError:
            var = None
        cls = getattr(var, VARIATIONAL_CLASS, None)
        if cls is not None:
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and isinstance(fn, types.FunctionType):
                    self._patch(cls, attr, self._wrap(f"variational.{attr}", fn))
                    wrapped.add(f"variational.{attr}")
        if var is not None:
            for attr in getattr(var, "__all__", ()):
                fn = getattr(var, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == VARIATIONAL_MODULE:
                    self._patch_function(f"variational.{attr}", fn)
                    wrapped.add(f"variational.{attr}")
            owner = _splu_owner(var)
            if owner is not None:
                self._patch(owner, "splu", self._wrap("variational.splu", owner.splu))
                wrapped.add("variational.splu")
        self.absent = [name for name in REQUIRED if name not in wrapped]

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -----------------------------------------------------------

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "measure": m}
                for n, s, e, p, m in self.spans]


def _splu_owner(var):
    """The namespace through which ``plaplab._variational`` reaches ``splu``:
    the module itself (``from scipy... import splu``) or a module it binds
    (``import scipy.sparse.linalg as spla``)."""
    if callable(getattr(var, "splu", None)):
        return var
    for value in vars(var).values():
        if isinstance(value, types.ModuleType) and callable(getattr(value, "splu", None)):
            return value
    return None


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive seconds and summed and largest
    measure; per layer: self seconds.  Self time is a span's duration minus
    the durations of its direct children (calls are single-threaded, so
    children cover disjoint parts of the parent)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict[str, dict] = {}
    layer_self: dict[str, float] = {}
    for i, (name, start, end, parent, measure) in enumerate(spans):
        rec = by_name.setdefault(name, {"calls": 0, "s": 0.0, "measure": 0, "measure_max": 0})
        rec["calls"] += 1
        rec["s"] += end - start
        if measure is not None:
            rec["measure"] += measure
            rec["measure_max"] = max(rec["measure_max"], measure)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + (end - start) - child[i]
    return {"by_name": by_name, "layer_self": layer_self}


def child_time_under(spans: list[list], child_name: str, parent_name: str) -> float:
    """Seconds of ``child_name`` spans whose direct parent is ``parent_name``."""
    return sum(end - start for name, start, end, parent, _ in spans
               if name == child_name and parent >= 0 and spans[parent][0] == parent_name)
