"""Finite-difference grids, scalar fields, and the p-Laplace operator family.

Grids are uniform lattices over the domain's bounding box with spacing
``h = (longest bbox side)/n``.  Nodes are classified interior / boundary /
exterior from the signed boundary distance ``d``:

* interior:  ``d > h/2``
* exterior:  ``d < -(sqrt(2) - 1/2) h``
* boundary:  the collar in between (value-carrying, no operator values)

The collar width is chosen so that every interior node has a full 9-point
neighborhood of non-exterior nodes (a diagonal neighbor is at most
``sqrt(2) h`` away and distance is 1-Lipschitz), which every stencil below
relies on.  On grid-aligned polygons the collar collapses onto the exact
boundary nodes.  :func:`coarse_grid` finds the half-resolution grid whose
lattice nests in a grid's, and :func:`prolong` interpolates a field from it
(P1, exactly).

Operators use second-order central differences; the mixed derivative uses
the four diagonal neighbors.  With ``g = |grad u|`` the family is tied
together by

* ``lap_inf u  = sum_i sum_j u_i u_ij u_j``                    (trilinear form)
* ``lap_p u    = g^(p-2) ( lap u + (p-2) lap_inf u / g^2 )``   (expanded form)
* ``lap_p^N u  = (p-1)/p * u_nn + 1/p * (lap u - u_nn)``       (normalized)

where ``u_nn = lap_inf u / g^2`` is the second derivative along the
steepest-descent direction.  Nodes with ``g`` below a floor are flagged and
excluded from residual suprema; the default floor is
``1e-8 * oscillation(u) / h``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain, distance_to_boundary

__all__ = [
    "GridError",
    "FieldError",
    "Grid",
    "ScalarField",
    "OperatorSample",
    "build_grid",
    "coarse_grid",
    "prolong",
    "default_grad_floor",
    "gradient",
    "laplacian",
    "infinity_laplacian",
    "p_laplacian",
    "p_laplacian_divergence_form",
    "normalized_p_laplacian",
    "intrinsic_decomposition",
    "sample_at",
    "field_csv_rows",
]

INTERIOR, BOUNDARY, EXTERIOR = 0, 1, 2

#: exterior collar multiplier; see module docstring
_EXTERIOR_BAND = math.sqrt(2.0) - 0.5


class GridError(ValueError):
    """Invalid grid construction or resolution."""


class FieldError(ValueError):
    """Invalid field data or operator arguments."""


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over a domain's bounding box with node classification.

    ``codes`` holds INTERIOR/BOUNDARY/EXTERIOR per node; shape ``(nx,)`` in
    1-D and ``(nx, ny)`` in 2-D with axis 0 along x.
    """

    domain: Domain
    n: int
    h: float
    xs: np.ndarray
    ys: np.ndarray | None
    codes: np.ndarray

    @property
    def dim(self) -> int:
        return 1 if self.ys is None else 2

    @property
    def shape(self) -> tuple:
        return self.codes.shape

    @property
    def interior(self) -> np.ndarray:
        return self.codes == INTERIOR

    @property
    def boundary(self) -> np.ndarray:
        return self.codes == BOUNDARY

    @property
    def nonexterior(self) -> np.ndarray:
        return self.codes != EXTERIOR

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays broadcast to the grid shape."""
        if self.dim == 1:
            return (self.xs,)
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return (X, Y)

    def __repr__(self) -> str:
        return (f"Grid(n={self.n}, h={self.h:.6g}, shape={self.shape}, "
                f"interior={int(np.count_nonzero(self.interior))})")


def build_grid(domain: Domain, n: int) -> Grid:
    """Build a grid with ``h = (longest bbox side)/n``; requires ``n >= 8``.

    Raises ``GridError`` when the resolution is too small or the domain is
    too thin to contain any interior node.
    """
    if not isinstance(n, (int, np.integer)) or n < 8:
        raise GridError("resolution n must be an integer >= 8")
    xmin, ymin, xmax, ymax = domain.bounding_box
    if domain.dim == 1:
        h = (xmax - xmin) / n
        xs = xmin + h * np.arange(n + 1)
        dist = distance_to_boundary(domain, xs)
        codes = _classify(dist, h, scale=xmax - xmin)
        grid = Grid(domain=domain, n=int(n), h=h, xs=xs, ys=None, codes=codes)
    else:
        side = max(xmax - xmin, ymax - ymin)
        h = side / n
        nx = _axis_count(xmax - xmin, h)
        ny = _axis_count(ymax - ymin, h)
        xs = xmin + h * np.arange(nx + 1)
        ys = ymin + h * np.arange(ny + 1)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        dist = distance_to_boundary(domain, pts).reshape(X.shape)
        codes = _classify(dist, h, scale=side)
        grid = Grid(domain=domain, n=int(n), h=h, xs=xs, ys=ys, codes=codes)
    if not np.any(grid.interior):
        raise GridError("domain is too thin at this resolution: no interior nodes")
    _check_neighborhoods(grid)
    return grid


def _axis_count(extent: float, h: float) -> int:
    m = extent / h
    r = round(m)
    return int(r) if abs(m - r) < 1e-9 else int(math.ceil(m))


def _classify(dist: np.ndarray, h: float, scale: float) -> np.ndarray:
    tol = 1e-12 * max(scale, 1.0)
    codes = np.full(dist.shape, BOUNDARY, dtype=np.int8)
    codes[dist > 0.5 * h - tol] = INTERIOR
    codes[dist < -(_EXTERIOR_BAND * h + tol)] = EXTERIOR
    return codes


def coarse_grid(grid: Grid) -> Grid | None:
    """The grid at ``n // 2`` whose lattice nests in ``grid``'s: its nodes
    are every other node of ``grid`` along each axis (``codes[::2, ::2]``,
    1-D ``[::2]``), each with the same classification.  None when n is odd,
    the half grid cannot be built, or a shared node's class differs, as on
    curved boundaries, where the collar scales with h.  Squares, rectangles
    with an even number of cells along each side and intervals nest."""
    if grid.n % 2:
        return None
    try:
        coarse = build_grid(grid.domain, grid.n // 2)
    except GridError:
        return None
    shared = grid.codes[(slice(None, None, 2),) * grid.dim]
    if coarse.shape != shared.shape or not np.array_equal(coarse.codes, shared):
        return None
    return coarse


def prolong(f: ScalarField, fine: Grid) -> ScalarField:
    """The P1 interpolant of ``f``, a field on :func:`coarse_grid` of
    ``fine``, at the nodes of ``fine``: shared nodes keep their values, edge
    midpoints take the mean of the edge's ends, and cell centres the mean
    along the diagonal (i, j)-(i+1, j+1) that splits every cell into its two
    P1 triangles (``_variational._FAMILIES``).  Each coarse triangle is the
    union of four fine ones, so the result is the same piecewise-linear
    function."""
    c = f.values
    if fine.shape != tuple(2 * s - 1 for s in c.shape):
        raise FieldError(f"grid shape {fine.shape} does not refine {c.shape}")
    v = np.empty(fine.shape)
    if fine.dim == 1:
        v[::2] = c
        v[1::2] = 0.5 * (c[:-1] + c[1:])
    else:
        v[::2, ::2] = c
        v[1::2, ::2] = 0.5 * (c[:-1, :] + c[1:, :])
        v[::2, 1::2] = 0.5 * (c[:, :-1] + c[:, 1:])
        v[1::2, 1::2] = 0.5 * (c[:-1, :-1] + c[1:, 1:])
    return ScalarField(fine, np.where(fine.nonexterior, v, 0.0))


def _check_neighborhoods(grid: Grid) -> None:
    """Every interior node must have a full non-exterior stencil neighborhood."""
    ext = grid.codes == EXTERIOR
    inner = grid.interior
    if grid.dim == 1:
        if inner[0] or inner[-1]:
            raise GridError("interior node on lattice edge")
        if np.any(inner[1:-1] & (ext[:-2] | ext[2:])):
            raise GridError("interior node with exterior neighbor")
        return
    if np.any(inner[0, :]) or np.any(inner[-1, :]) or np.any(inner[:, 0]) or np.any(inner[:, -1]):
        raise GridError("interior node on lattice edge")
    core = inner[1:-1, 1:-1]
    bad = np.zeros_like(core)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            bad |= core & ext[1 + di:ext.shape[0] - 1 + di, 1 + dj:ext.shape[1] - 1 + dj]
    if np.any(bad):
        raise GridError("interior node with exterior stencil neighbor")


@dataclass
class ScalarField:
    """Nodal values on a grid; exterior entries are kept at 0 and never read.

    ``flagged`` optionally marks interior nodes where a gradient-degenerate
    operator was evaluated below the gradient floor.
    """

    grid: Grid
    values: np.ndarray
    flagged: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise FieldError(f"values shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values[self.grid.nonexterior])):
            raise FieldError("non-finite values on non-exterior nodes")
        self.values = self.values.copy()
        self.values[~self.grid.nonexterior] = 0.0

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        coords = grid.coordinates()
        vals = np.asarray(fn(*coords), dtype=float)
        vals = np.where(grid.nonexterior, vals, 0.0)
        return cls(grid=grid, values=vals)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy(),
                           None if self.flagged is None else self.flagged.copy())

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values[self.grid.nonexterior])))

    def oscillation(self) -> float:
        vals = self.values[self.grid.nonexterior]
        return float(vals.max() - vals.min())


def default_grad_floor(f: ScalarField) -> float:
    """Default degeneracy floor ``1e-8 * oscillation(u) / h``."""
    return 1e-8 * f.oscillation() / f.grid.h


# ---------------------------------------------------------------------------
# stencils


def _second_difference(ahead, mid, behind, out) -> None:
    """``ahead - 2 mid + behind``, evaluated left to right."""
    np.multiply(mid, 2.0, out=out)
    np.subtract(ahead, out, out=out)
    out += behind


def _derivs(f: ScalarField) -> dict[str, np.ndarray]:
    """Central derivatives as full arrays, valid on interior nodes only.

    They are formed on the flat span (``_span_shifts``) as in
    ``_normalized_stencil``; the span's halo nodes get finite garbage and
    the rest of the ring stays 0."""
    v, h = f.values, f.grid.h
    at = _span_shifts(v)
    names = ("ux", "uxx") if f.grid.dim == 1 else ("ux", "uy", "uxx", "uyy", "uxy")
    d = {name: np.zeros_like(v) for name in names}
    span = {name: _span_shifts(d[name])(0) for name in names}
    steps = (1,) if f.grid.dim == 1 else (v.shape[1], 1)  # flat offsets along x (, y)
    for first, second, s in zip(("ux", "uy"), ("uxx", "uyy"), steps):
        np.subtract(at(s), at(-s), out=span[first])
        span[first] /= 2.0 * h
        _second_difference(at(s), at(0), at(-s), span[second])
        span[second] /= h * h
    if f.grid.dim == 2:
        N, uxy = v.shape[1], span["uxy"]
        np.subtract(at(N + 1), at(N - 1), out=uxy)
        uxy -= at(1 - N)
        uxy += at(-N - 1)
        uxy /= 4.0 * h * h
    return d


def _span_start(v: np.ndarray) -> int:
    """``S``, the sum of the element strides of ``v`` in C order: the flat
    index of its first node with a full stencil (``N + 1`` in 2-D with rows
    of ``N`` nodes, 1 in 1-D).  ``_normalized_stencil`` evaluates the flat
    span ``[S, v.size - S)``."""
    return sum(math.prod(v.shape[k + 1:]) for k in range(v.ndim))


def _stencil_work(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Work buffers for ``_normalized_stencil`` on arrays shaped like ``v``."""
    return tuple(np.empty(v.size - 2 * _span_start(v)) for _ in range(6))


def _span_shifts(v: np.ndarray):
    """``at(k)``: the flat span ``[S, v.size - S)`` of ``v`` in C order
    (``S = _span_start(v)``) shifted by ``k`` nodes, as a view."""
    S = _span_start(v)
    flat = v.reshape(-1)
    return lambda k: flat[S + k:flat.size - S + k]


def _normalized_stencil(v: np.ndarray, h: float, p: float, delta: float, scale: float,
                        out: np.ndarray, work: tuple[np.ndarray, ...]) -> None:
    """``scale`` times the regularized normalized operator on the flat span
    of ``v`` (``_span_shifts``), written into ``out``; ``work`` comes from
    ``_stencil_work``.

    Neighbours are flat offsets (+-1, and +-N, +-N +- 1 in 2-D), so every
    operation is one contiguous loop.  Halo nodes inside the span (the ends
    of each row) get finite garbage, which callers discard.  With the
    unscaled differences ``a = 2h ux``, ``b = 2h uy``, ``Sxx = h^2 uxx``,
    ``Syy = h^2 uyy`` and ``Sxy = 4h^2 uxy``, the operator's degree-0
    homogeneity in the gradient gives

        h^2 u_nn = (a^2 Sxx + ab Sxy / 2 + b^2 Syy) / (a^2 + b^2 + 4h^2 delta^2)

    (0 where ``a = b = 0`` and ``delta = 0``), and the result is
    ``scale/(p h^2) (Sxx + Syy) + scale (1 - 2/p)/h^2 h^2 u_nn``, which is
    ``(p-1)/p u_nn + 1/p (lap - u_nn)`` times ``scale``; p = inf keeps
    ``u_nn`` alone.  One kernel, so both callers agree.

    The u_nn part runs only where its coefficient is nonzero: at p = 2 the
    kernel is the 5-point heat step (8 passes in 2-D against 27 at other p).
    """
    at = _span_shifts(v)
    unn_coeff = scale * (1.0 - 2.0 / p) / (h * h)
    g2, num, lap, t = work[:4]
    if v.ndim == 1:
        _second_difference(at(1), at(0), at(-1), lap)
        if unn_coeff:
            a = np.subtract(at(1), at(-1), out=t)
            np.multiply(a, a, out=g2)
            np.multiply(g2, lap, out=num)
    else:
        N = v.shape[1]
        syy = out
        _second_difference(at(N), at(0), at(-N), lap)
        _second_difference(at(1), at(0), at(-1), syy)
        if unn_coeff:
            a, b, sxy = t, work[4], work[5]
            np.subtract(at(N), at(-N), out=a)
            np.subtract(at(1), at(-1), out=b)
            np.subtract(at(N + 1), at(N - 1), out=sxy)
            sxy -= at(1 - N)
            sxy += at(-N - 1)
            sxy *= 0.5
            sxy *= a
            sxy *= b
            np.multiply(a, a, out=a)
            np.multiply(b, b, out=b)
            np.add(a, b, out=g2)
            np.multiply(a, lap, out=num)
            num += sxy
            np.multiply(b, syy, out=b)
            num += b
        lap += syy
    np.multiply(lap, scale / (p * h * h), out=out)
    if unn_coeff:
        # the floor keeps a flat node (numerator exactly 0) at 0 instead of 0/0
        np.add(g2, max(4.0 * h * h * delta * delta, np.finfo(float).smallest_subnormal), out=t)
        num /= t
        num *= unn_coeff
        out += num


def _interior_only(grid: Grid, arr: np.ndarray) -> np.ndarray:
    out = np.where(grid.interior, arr, 0.0)
    return out


def gradient(f: ScalarField) -> tuple[ScalarField, ...]:
    """Central-difference gradient; one component field per dimension."""
    d = _derivs(f)
    g = f.grid
    if g.dim == 1:
        return (ScalarField(g, _interior_only(g, d["ux"])),)
    return (ScalarField(g, _interior_only(g, d["ux"])),
            ScalarField(g, _interior_only(g, d["uy"])))


def laplacian(f: ScalarField) -> ScalarField:
    d = _derivs(f)
    lap = d["uxx"] if f.grid.dim == 1 else d["uxx"] + d["uyy"]
    return ScalarField(f.grid, _interior_only(f.grid, lap))


def _grad_sq(d: dict[str, np.ndarray], dim: int) -> np.ndarray:
    if dim == 1:
        return d["ux"] ** 2
    return d["ux"] ** 2 + d["uy"] ** 2


def _trilinear(d: dict[str, np.ndarray], dim: int) -> np.ndarray:
    if dim == 1:
        return d["ux"] ** 2 * d["uxx"]
    return (d["ux"] ** 2 * d["uxx"] + 2.0 * d["ux"] * d["uy"] * d["uxy"]
            + d["uy"] ** 2 * d["uyy"])


def _flags(f: ScalarField, grad_sq: np.ndarray, grad_floor: float | None = None) -> np.ndarray:
    """Interior nodes with ``|grad u|`` below ``grad_floor`` (default
    :func:`default_grad_floor`); a non-finite floor raises ``FieldError``."""
    floor = default_grad_floor(f) if grad_floor is None else float(grad_floor)
    if not math.isfinite(floor):
        raise FieldError("grad_floor must be finite")
    return f.grid.interior & (grad_sq < floor * floor)


def infinity_laplacian(f: ScalarField, grad_floor: float | None = None) -> ScalarField:
    """Trilinear form ``sum u_i u_ij u_j``; degenerate nodes flagged."""
    d = _derivs(f)
    g2 = _grad_sq(d, f.grid.dim)
    return ScalarField(f.grid, _interior_only(f.grid, _trilinear(d, f.grid.dim)),
                       flagged=_flags(f, g2, grad_floor))


def p_laplacian(f: ScalarField, p: float) -> ScalarField:
    """Expanded p-Laplacian ``g^(p-4) (g^2 lap u + (p-2) lap_inf u)``, 1 < p < inf."""
    if not (1.0 < p < math.inf):
        raise FieldError("p_laplacian requires 1 < p < inf")
    d = _derivs(f)
    g2 = _grad_sq(d, f.grid.dim)
    lap = d["uxx"] if f.grid.dim == 1 else d["uxx"] + d["uyy"]
    safe = np.where(g2 > 0.0, g2, 1.0)
    vals = safe ** ((p - 2.0) / 2.0) * (lap + (p - 2.0) * _trilinear(d, f.grid.dim) / safe)
    vals = np.where(g2 > 0.0, vals, 0.0)
    return ScalarField(f.grid, _interior_only(f.grid, vals), flagged=_flags(f, g2))


def p_laplacian_divergence_form(f: ScalarField, p: float) -> ScalarField:
    """``div(|grad u|^(p-2) grad u)`` by midpoint flux differencing.

    An independent route to the same operator: gradients are sampled at edge
    midpoints (forward difference along the edge, four-point average across
    it) and the flux divergence is taken between opposite midpoints.  Agrees
    with the expanded form at first order in ``h``; used as a cross-check.
    """
    if not (1.0 < p < math.inf):
        raise FieldError("divergence form requires 1 < p < inf")
    v = f.values
    h = f.grid.h
    if f.grid.dim == 1:
        dv = (v[1:] - v[:-1]) / h
        flux = np.abs(dv) ** (p - 2.0) * dv
        out = np.zeros_like(v)
        out[1:-1] = (flux[1:] - flux[:-1]) / h
        return ScalarField(f.grid, _interior_only(f.grid, out))
    out = np.zeros_like(v)
    # x-direction edge midpoints (i+1/2, j), interior j only
    dx = (v[1:, :] - v[:-1, :]) / h
    dy_at_x = np.zeros_like(dx)
    dy_at_x[:, 1:-1] = (v[1:, 2:] + v[:-1, 2:] - v[1:, :-2] - v[:-1, :-2]) / (4.0 * h)
    gx2 = dx**2 + dy_at_x**2
    fx = np.where(gx2 > 0.0, gx2 ** ((p - 2.0) / 2.0), 0.0) * dx
    # y-direction edge midpoints (i, j+1/2), interior i only
    dy = (v[:, 1:] - v[:, :-1]) / h
    dx_at_y = np.zeros_like(dy)
    dx_at_y[1:-1, :] = (v[2:, 1:] + v[2:, :-1] - v[:-2, 1:] - v[:-2, :-1]) / (4.0 * h)
    gy2 = dy**2 + dx_at_y**2
    fy = np.where(gy2 > 0.0, gy2 ** ((p - 2.0) / 2.0), 0.0) * dy
    out[1:-1, 1:-1] = ((fx[1:, 1:-1] - fx[:-1, 1:-1]) / h
                       + (fy[1:-1, 1:] - fy[1:-1, :-1]) / h)
    return ScalarField(f.grid, _interior_only(f.grid, out))


def normalized_p_laplacian(f: ScalarField, p: float, grad_floor: float | None = None,
                           delta: float = 0.0) -> ScalarField:
    """Normalized (game-theoretic) operator for ``1 <= p <= inf``.

    ``(p-1)/p * u_nn + 1/p * (lap u - u_nn)`` with ``u_nn`` regularized to
    ``lap_inf u / (g^2 + delta^2)``; ``p = inf`` gives ``u_nn`` and ``p = 1``
    gives ``lap u - u_nn``.  At flagged nodes the regularized value is used
    (0/0 resolved to 0 when ``delta = 0``).
    """
    if not (1.0 <= p):
        raise FieldError("normalized operator requires 1 <= p <= inf")
    if not 0.0 <= delta < math.inf:
        raise FieldError("delta must be nonnegative and finite")
    h = f.grid.h
    S = _span_start(f.values)
    span = np.s_[S:f.values.size - S]
    vals = np.zeros(f.values.size)
    g2 = np.zeros(f.values.size)
    _normalized_stencil(f.values, h, p, delta, 1.0, vals[span], _stencil_work(f.values))
    # a^2 + b^2 = 4 h^2 |grad u|^2, formed as the kernel's u_nn part does
    at = _span_shifts(f.values)
    steps = (1,) if f.grid.dim == 1 else (f.grid.shape[1], 1)
    diffs = [at(s) - at(-s) for s in steps]
    np.divide(sum(d * d for d in diffs), 4.0 * h * h, out=g2[span])
    return ScalarField(f.grid, _interior_only(f.grid, vals.reshape(f.grid.shape)),
                       flagged=_flags(f, g2.reshape(f.grid.shape), grad_floor))


# ---------------------------------------------------------------------------
# intrinsic decomposition


@dataclass
class OperatorSample:
    """Intrinsic quantities of a field sampled on deep-interior nodes.

    ``mask`` selects interior nodes whose full neighborhood is interior and
    unflagged, where the steepest-descent direction ``nu = -grad u/|grad u|``
    can itself be differentiated.  ``curvature_term`` is
    ``u_nu * div(nu)``, assembled from the differenced unit vector field, so
    the identity ``lap u = u_nn + curvature_term`` is a genuine two-route
    consistency check rather than an algebraic tautology.
    """

    grid: Grid
    mask: np.ndarray
    grad_norm: np.ndarray
    nu_x: np.ndarray
    nu_y: np.ndarray
    second_directional: np.ndarray
    curvature_term: np.ndarray
    laplacian: np.ndarray

    def identity_defect(self) -> float:
        """sup | lap u - (u_nn + curvature_term) | over the sample mask."""
        if not np.any(self.mask):
            return 0.0
        lhs = self.laplacian[self.mask]
        rhs = self.second_directional[self.mask] + self.curvature_term[self.mask]
        return float(np.max(np.abs(lhs - rhs)))


def intrinsic_decomposition(f: ScalarField) -> OperatorSample:
    """Assemble |grad u|, nu, u_nn and the mean-curvature term (2-D only)."""
    if f.grid.dim != 2:
        raise FieldError("intrinsic decomposition requires a 2-D grid")
    d = _derivs(f)
    g2 = _grad_sq(d, 2)
    usable = f.grid.interior & ~_flags(f, g2)
    gnorm = np.sqrt(g2)
    safe = np.where(usable, np.maximum(gnorm, 1e-300), 1.0)
    nu_x = np.where(usable, -d["ux"] / safe, 0.0)
    nu_y = np.where(usable, -d["uy"] / safe, 0.0)
    unn = np.where(usable, _trilinear(d, 2) / np.where(g2 > 0, g2, 1.0), 0.0)
    lap = d["uxx"] + d["uyy"]
    h = f.grid.h
    div_nu = np.zeros_like(nu_x)
    c = np.s_[1:-1]
    div_nu[c, c] = ((nu_x[2:, c] - nu_x[:-2, c]) + (nu_y[c, 2:] - nu_y[c, :-2])) / (2.0 * h)
    # the differenced nu is only trustworthy where all its stencil inputs were
    mask = np.zeros_like(usable)
    mask[c, c] = (usable[c, c] & usable[2:, c] & usable[:-2, c]
                  & usable[c, 2:] & usable[c, :-2])
    curv = np.where(mask, -gnorm * div_nu, 0.0)  # u_nu = -|grad u|
    return OperatorSample(grid=f.grid, mask=mask, grad_norm=np.where(usable, gnorm, 0.0),
                          nu_x=nu_x, nu_y=nu_y,
                          second_directional=unn, curvature_term=curv,
                          laplacian=np.where(f.grid.interior, lap, 0.0))


# ---------------------------------------------------------------------------
# sampling and serialization


def sample_at(f: ScalarField, points) -> np.ndarray:
    """Bilinear (linear in 1-D) interpolation of nodal values at points."""
    g = f.grid
    v = f.values
    if g.dim == 1:
        x = np.atleast_1d(np.asarray(points, dtype=float))
        t = (x - g.xs[0]) / g.h
        i = np.clip(np.floor(t).astype(int), 0, len(g.xs) - 2)
        w = t - i
        return (1.0 - w) * v[i] + w * v[i + 1]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tx = (pts[:, 0] - g.xs[0]) / g.h
    ty = (pts[:, 1] - g.ys[0]) / g.h
    i = np.clip(np.floor(tx).astype(int), 0, len(g.xs) - 2)
    j = np.clip(np.floor(ty).astype(int), 0, len(g.ys) - 2)
    wx = tx - i
    wy = ty - j
    return ((1 - wx) * (1 - wy) * v[i, j] + wx * (1 - wy) * v[i + 1, j]
            + (1 - wx) * wy * v[i, j + 1] + wx * wy * v[i + 1, j + 1])


def field_csv_rows(f: ScalarField):
    """Yield ``(x, y, value)`` tuples for non-exterior nodes, lexicographic
    by node index (x-index outer, y-index inner); 1-D fields report y = 0."""
    g = f.grid
    if g.dim == 1:
        for i in np.flatnonzero(g.nonexterior):
            yield (float(g.xs[i]), 0.0, float(f.values[i]))
        return
    mask = g.nonexterior
    for i in range(mask.shape[0]):
        cols = np.flatnonzero(mask[i])
        for j in cols:
            yield (float(g.xs[i]), float(g.ys[j]), float(f.values[i, j]))
