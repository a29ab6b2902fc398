"""Exact convex planar geometry: measures, inradius, diameter, inner
parallel sets, boundary distance, and Cheeger constants.

For a convex plane domain the subset minimizing perimeter/area (the Cheeger
set) is an inner parallel body rounded by discs: if ``Omega_{-r}`` denotes
the inner parallel set at offset ``r``, the optimal ``r*`` is the unique
root of ``area(Omega_{-r}) = pi r^2`` in ``(0, inradius)``, the Cheeger set
is the Minkowski sum ``Omega_{-r*} + B_{r*}`` and the Cheeger constant is
``h = 1/r*``.  Steiner's formula makes the construction self-checking:
``perimeter/area`` of the rounded set equals ``1/r*`` exactly at the root.

Supported domains: convex polygons (rectangles included), discs, and 1-D
intervals.  Nonconvex polygons are rejected at construction time.  Signed
boundary distance is positive inside and negative outside.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "Domain",
    "CheegerResult",
    "domain_from_json",
    "domain_to_json",
    "load_domain",
    "measure",
    "inradius",
    "diameter",
    "diameter_endpoints",
    "inner_parallel_set",
    "distance_to_boundary",
    "cheeger_convex",
    "scaled",
]

#: absolute tolerance for offset bisections, relative to the bounding-box scale
BISECTION_TOL = 1e-12

#: relative tolerance for convexity / collinearity tests
_CONVEXITY_TOL = 1e-12


class GeometryError(ValueError):
    """Invalid domain or geometric operation."""


@dataclass(frozen=True)
class Domain:
    """Immutable convex domain: polygon, disc, or interval.

    Polygons store counter-clockwise vertices of shape ``(m, 2)``.  Use the
    class-method constructors; they validate convexity and normalize
    orientation.
    """

    kind: str
    vertices: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None
    a: float | None = None
    b: float | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def polygon(cls, vertices) -> "Domain":
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 plane vertices")
        if not np.all(np.isfinite(pts)):
            raise GeometryError("polygon vertices must be finite")
        area2 = _shoelace2(pts)
        if area2 < 0.0:
            pts = pts[::-1].copy()
            area2 = -area2
        scale = _bbox_scale(pts)
        if area2 <= (_CONVEXITY_TOL * scale) ** 2:
            raise GeometryError("polygon has (near-)zero area")
        _check_convex(pts, scale)
        pts.setflags(write=False)
        return cls(kind="polygon", vertices=pts)

    @classmethod
    def rectangle(cls, x0: float, y0: float, x1: float, y1: float) -> "Domain":
        if not (x1 > x0 and y1 > y0):
            raise GeometryError("rectangle needs x1 > x0 and y1 > y0")
        return cls.polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

    @classmethod
    def unit_square(cls) -> "Domain":
        return cls.rectangle(0.0, 0.0, 1.0, 1.0)

    @classmethod
    def disc(cls, center, radius: float) -> "Domain":
        c = np.asarray(center, dtype=float)
        if c.shape != (2,) or not np.all(np.isfinite(c)):
            raise GeometryError("disc center must be a finite plane point")
        if not (radius > 0.0 and math.isfinite(radius)):
            raise GeometryError("disc radius must be positive and finite")
        c.setflags(write=False)
        return cls(kind="disc", center=c, radius=float(radius))

    @classmethod
    def interval(cls, a: float, b: float) -> "Domain":
        if not (b > a and math.isfinite(a) and math.isfinite(b)):
            raise GeometryError("interval needs finite b > a")
        return cls(kind="interval", a=float(a), b=float(b))

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2

    @property
    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax); for intervals ymin = ymax = 0."""
        if self.kind == "polygon":
            lo = self.vertices.min(axis=0)
            hi = self.vertices.max(axis=0)
            return (lo[0], lo[1], hi[0], hi[1])
        if self.kind == "disc":
            cx, cy = self.center
            r = self.radius
            return (cx - r, cy - r, cx + r, cy + r)
        return (self.a, 0.0, self.b, 0.0)

    def is_square(self) -> bool:
        """True for a polygon with four equal sides and right angles (to
        1e-9 relative)."""
        if self.kind != "polygon" or len(self.vertices) != 4:
            return False
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(e[:, 0], e[:, 1])
        side = lengths.mean()
        if np.max(np.abs(lengths - side)) > 1e-9 * side:
            return False
        dots = np.abs(np.sum(e * np.roll(e, -1, axis=0), axis=1))
        return bool(np.max(dots) <= 1e-9 * side * side)

    def __repr__(self) -> str:  # compact, stable
        if self.kind == "polygon":
            return f"Domain.polygon(<{len(self.vertices)} vertices>)"
        if self.kind == "disc":
            return f"Domain.disc(center={tuple(self.center)}, radius={self.radius})"
        return f"Domain.interval({self.a}, {self.b})"


# ---------------------------------------------------------------------------
# construction helpers


def _shoelace2(pts: np.ndarray) -> float:
    """Twice the signed area of a closed polygon."""
    x, y = pts[:, 0], pts[:, 1]
    return float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _bbox_scale(pts: np.ndarray) -> float:
    ext = pts.max(axis=0) - pts.min(axis=0)
    return float(max(ext[0], ext[1], 1e-300))


def _check_convex(pts: np.ndarray, scale: float) -> None:
    """Require strictly convex CCW vertices (no repeats, no collinear runs)."""
    e = np.roll(pts, -1, axis=0) - pts
    lengths = np.hypot(e[:, 0], e[:, 1])
    if np.min(lengths) <= _CONVEXITY_TOL * scale:
        raise GeometryError("polygon has repeated vertices")
    cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    norm = lengths * np.roll(lengths, -1)
    if np.min(cross / norm) <= _CONVEXITY_TOL:
        raise GeometryError(
            "polygon is not strictly convex (reflex or collinear vertices); "
            f"worst turn {np.min(cross / norm):.3e}"
        )


def _edge_normals(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward normals and offsets of a CCW polygon: edge k is
    ``{x : n_k . x <= b_k}``."""
    e = np.roll(pts, -1, axis=0) - pts
    lengths = np.hypot(e[:, 0], e[:, 1])
    normals = np.column_stack([e[:, 1], -e[:, 0]]) / lengths[:, None]
    offsets = np.sum(normals * pts, axis=1)
    return normals, offsets


# ---------------------------------------------------------------------------
# JSON interface


def domain_from_json(obj) -> Domain:
    """Parse a domain description (dict or JSON text).

    Schemas::

        {"kind": "polygon", "vertices": [[x, y], ...]}
        {"kind": "disc", "center": [x, y], "radius": r}
        {"kind": "interval", "a": a, "b": b}

    ``"rectangle"`` with ``"corners": [[x0, y0], [x1, y1]]`` is accepted as a
    convenience and normalized to a polygon.  Vertex orientation is
    normalized to counter-clockwise; nonconvex polygons are rejected.
    """
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"malformed domain JSON: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise GeometryError("domain JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    try:
        if kind in ("polygon", "convex-polygon"):
            return Domain.polygon(obj["vertices"])
        if kind == "rectangle":
            (x0, y0), (x1, y1) = obj["corners"]
            return Domain.rectangle(x0, y0, x1, y1)
        if kind == "disc":
            return Domain.disc(obj["center"], obj["radius"])
        if kind == "interval":
            return Domain.interval(obj["a"], obj["b"])
    except KeyError as exc:
        raise GeometryError(f"domain JSON missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, GeometryError):
            raise
        raise GeometryError(f"bad domain JSON payload: {exc}") from exc
    raise GeometryError(f"unknown domain kind {kind!r}")


def domain_to_json(d: Domain) -> dict:
    if d.kind == "polygon":
        return {"kind": "polygon", "vertices": [[float(x), float(y)] for x, y in d.vertices]}
    if d.kind == "disc":
        return {"kind": "disc", "center": [float(d.center[0]), float(d.center[1])],
                "radius": float(d.radius)}
    return {"kind": "interval", "a": float(d.a), "b": float(d.b)}


def load_domain(path) -> Domain:
    with open(path, "r", encoding="utf-8") as fh:
        return domain_from_json(fh.read())


# ---------------------------------------------------------------------------
# measures and distances


def measure(d: Domain) -> tuple[float, float]:
    """(area, perimeter).  For intervals: (length, 0.0)."""
    if d.kind == "polygon":
        pts = d.vertices
        e = np.roll(pts, -1, axis=0) - pts
        return (0.5 * _shoelace2(pts), float(np.hypot(e[:, 0], e[:, 1]).sum()))
    if d.kind == "disc":
        return (math.pi * d.radius**2, 2.0 * math.pi * d.radius)
    return (d.b - d.a, 0.0)


def distance_to_boundary(d: Domain, x):
    """Signed distance to the boundary: positive inside, negative outside.

    ``x`` may be a single point or an array of points (last axis of length 2
    for plane domains; scalar coordinates for intervals).  For convex
    domains the inside value is the exact distance; outside, the value is
    the (negative) largest supporting-halfplane violation, which has the
    correct sign and magnitude within a bounded factor near corners.
    """
    if d.kind == "interval":
        x = np.asarray(x, dtype=float)
        out = np.minimum(x - d.a, d.b - x)
        return float(out) if out.ndim == 0 else out
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if d.kind == "disc":
        out = d.radius - np.hypot(pts[:, 0] - d.center[0], pts[:, 1] - d.center[1])
    else:
        normals, offsets = _edge_normals(d.vertices)
        out = np.min(offsets[None, :] - pts @ normals.T, axis=1)
    return float(out[0]) if single else out


def diameter_endpoints(d: Domain):
    """A pair of points realizing the diameter."""
    if d.kind == "polygon":
        pts = d.vertices
        diff = pts[:, None, :] - pts[None, :, :]
        dist2 = np.sum(diff * diff, axis=-1)
        i, j = np.unravel_index(np.argmax(dist2), dist2.shape)
        return pts[i].copy(), pts[j].copy()
    if d.kind == "disc":
        off = np.array([d.radius, 0.0])
        return d.center - off, d.center + off
    return np.array([d.a]), np.array([d.b])


def diameter(d: Domain) -> float:
    p, q = diameter_endpoints(d)
    return float(np.linalg.norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)))


# ---------------------------------------------------------------------------
# inner parallel sets


def _clip_halfplane(pts: np.ndarray, normal: np.ndarray, offset: float,
                    eps: float) -> np.ndarray:
    """Clip a convex polygon against ``{x : normal . x <= offset}``."""
    s = pts @ normal - offset
    keep = s <= eps
    out: list[np.ndarray] = []
    m = len(pts)
    for i in range(m):
        j = (i + 1) % m
        if keep[i]:
            out.append(pts[i])
            if not keep[j]:
                t = s[i] / (s[i] - s[j])
                out.append(pts[i] + t * (pts[j] - pts[i]))
        elif keep[j]:
            t = s[i] / (s[i] - s[j])
            out.append(pts[i] + t * (pts[j] - pts[i]))
    return np.asarray(out, dtype=float).reshape(-1, 2)


def _dedupe_collinear(pts: np.ndarray, scale: float) -> np.ndarray:
    """Merge duplicate vertices and drop collinear ones (1e-12 relative)."""
    tol = 1e-12 * scale
    if len(pts) == 0:
        return pts
    kept: list[np.ndarray] = []
    for p in pts:
        if not kept or np.hypot(*(p - kept[-1])) > tol:
            kept.append(p)
    if len(kept) > 1 and np.hypot(*(kept[0] - kept[-1])) <= tol:
        kept.pop()
    if len(kept) < 3:
        return np.asarray(kept).reshape(-1, 2)
    out: list[np.ndarray] = []
    m = len(kept)
    for i in range(m):
        a, b, c = kept[(i - 1) % m], kept[i], kept[(i + 1) % m]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if abs(cross) > tol * scale:
            out.append(b)
    return np.asarray(out).reshape(-1, 2)


def _inner_polygon_raw(d: Domain, r: float) -> np.ndarray:
    """Raw clipped vertices of the inner parallel polygon at offset r
    (possibly empty; duplicates and collinear runs not merged)."""
    normals, offsets = _edge_normals(d.vertices)
    scale = _bbox_scale(d.vertices)
    eps = 1e-14 * scale
    poly = d.vertices.copy()
    for n, b in zip(normals, offsets):
        poly = _clip_halfplane(poly, n, b - r, eps)
        if len(poly) < 3:
            return poly
    return poly


def inner_parallel_set(d: Domain, r: float) -> Domain | None:
    """Inner parallel set at offset ``r >= 0``; ``None`` when empty.

    Polygons shrink by half-plane intersection (edges may vanish), discs
    shrink to concentric discs, intervals to subintervals.
    """
    if not (r >= 0.0 and math.isfinite(r)):
        raise GeometryError("offset must be finite and nonnegative")
    if d.kind == "disc":
        return Domain.disc(d.center, d.radius - r) if r < d.radius else None
    if d.kind == "interval":
        return Domain.interval(d.a + r, d.b - r) if 2.0 * r < d.b - d.a else None
    if r == 0.0:
        return d
    poly = _inner_polygon_raw(d, r)
    if len(poly) < 3 or 0.5 * _shoelace2(poly) <= 0.0:
        return None
    poly = _dedupe_collinear(poly, _bbox_scale(d.vertices))
    if len(poly) < 3:
        return None
    try:
        return Domain.polygon(poly)
    except GeometryError:
        return None  # degenerate sliver below tolerance


def _inner_area(d: Domain, r: float) -> float:
    """Area of the inner parallel set (0.0 when empty)."""
    if d.kind == "disc":
        return math.pi * (d.radius - r) ** 2 if r < d.radius else 0.0
    poly = _inner_polygon_raw(d, r)
    if len(poly) < 3:
        return 0.0
    return max(0.5 * _shoelace2(poly), 0.0)


def inradius(d: Domain) -> float:
    """Maximal inscribed-ball radius.

    For polygons this is the largest inward offset with a nonempty inner
    parallel set; the half-plane system ``n_k . x <= b_k - r`` is feasible
    exactly for ``r`` up to the inradius, so the value is the optimum of the
    linear program ``max r`` subject to ``n_k . x + r <= b_k`` (solved with
    scipy's LP solver).  Discs and intervals use closed forms.
    """
    if d.kind == "disc":
        return float(d.radius)
    if d.kind == "interval":
        return 0.5 * (d.b - d.a)
    from scipy.optimize import linprog

    normals, offsets = _edge_normals(d.vertices)
    m = len(normals)
    A = np.column_stack([normals, np.ones(m)])
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=A, b_ub=offsets,
                  bounds=[(None, None), (None, None), (0.0, None)],
                  method="highs")
    if not res.success:  # pragma: no cover - feasible for any valid polygon
        raise GeometryError(f"inradius LP failed: {res.message}")
    return float(res.x[2])


# ---------------------------------------------------------------------------
# Cheeger constant


@dataclass(frozen=True)
class CheegerResult:
    """Cheeger constant and set of a convex plane domain.

    ``h`` is the perimeter/area ratio of the optimal subset; ``r = 1/h`` is
    both the rounding radius and the root of ``area(inner set) = pi r^2``;
    ``inner_set`` is the inner parallel body whose ``r``-rounding is the
    Cheeger set; ``area``/``perimeter`` refer to the rounded set and
    ``verification_ratio = perimeter/area`` re-derives ``h`` via Steiner's
    formula as an internal consistency check.
    """

    h: float
    r: float
    inner_set: Domain
    area: float
    perimeter: float
    verification_ratio: float

    def __post_init__(self):
        if not (self.h > 0.0 and self.r > 0.0):
            raise GeometryError("Cheeger constant and radius must be positive")
        if abs(self.h * self.r - 1.0) > 1e-9:
            raise GeometryError("h * r must equal 1")
        if abs(self.verification_ratio - self.h) > 1e-9 * self.h:
            raise GeometryError("perimeter/area of rounded set must reproduce h")


def cheeger_convex(d: Domain) -> CheegerResult:
    """Cheeger constant of a convex polygon or disc.

    Solves ``area(Omega_{-r}) - pi r^2 = 0`` by bracketed bisection on
    ``(0, inradius)`` to ``BISECTION_TOL`` times the bounding-box scale, then
    assembles the rounded set's measures from Steiner's formula:
    ``area = A_inner + P_inner r + pi r^2``, ``perimeter = P_inner + 2 pi r``.
    """
    if d.kind == "interval":
        raise GeometryError("Cheeger construction requires a plane domain")
    if d.kind == "disc":
        r = 0.5 * d.radius
        inner = Domain.disc(d.center, r)
        area = math.pi * d.radius**2
        perimeter = 2.0 * math.pi * d.radius
        return CheegerResult(h=1.0 / r, r=r, inner_set=inner, area=area,
                             perimeter=perimeter, verification_ratio=perimeter / area)
    rin = inradius(d)
    xmin, ymin, xmax, ymax = d.bounding_box
    scale = max(xmax - xmin, ymax - ymin)

    def froot(r: float) -> float:
        return _inner_area(d, r) - math.pi * r * r

    lo, hi = 0.0, rin
    if froot(hi) > 0.0:  # pragma: no cover - impossible for bounded convex sets
        raise GeometryError("Cheeger root bracket failed")
    tol = BISECTION_TOL * max(scale, 1.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if froot(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    inner = inner_parallel_set(d, r)
    if inner is None:  # pragma: no cover - root is interior to (0, inradius)
        raise GeometryError("Cheeger inner set vanished at the root")
    a_in, p_in = measure(inner)
    area = a_in + p_in * r + math.pi * r * r
    perimeter = p_in + 2.0 * math.pi * r
    return CheegerResult(h=1.0 / r, r=r, inner_set=inner, area=area,
                         perimeter=perimeter, verification_ratio=perimeter / area)


# ---------------------------------------------------------------------------
# similarity transforms (used by scaling tests)


def scaled(d: Domain, t: float) -> Domain:
    """Scale a domain by factor ``t > 0`` about the origin."""
    if not (t > 0.0 and math.isfinite(t)):
        raise GeometryError("scale factor must be positive and finite")
    if d.kind == "polygon":
        return Domain.polygon(t * d.vertices)
    if d.kind == "disc":
        return Domain.disc(t * d.center, t * d.radius)
    return Domain.interval(t * d.a, t * d.b)
