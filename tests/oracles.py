"""Independent oracle computations used to pin expected test values.

Everything here is deliberately computed by a different route than the
package uses: Fourier series instead of descent solvers, library Bessel
zeros and RK4 shooting instead of bisected zeros of J_nu, raster counting
instead of Steiner's formula, classical closed forms instead of grid
eigenproblems.  The frozen constants carry enough digits to be
bit-stable; the generating functions stay alongside them so each value can
be re-derived.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.sparse import coo_matrix
from scipy.special import jn_zeros, spherical_jn

#: value at the center of the p=2 unit-square torsion function (Fourier
#: series of -lap u = 1 with zero boundary values evaluated at (1/2, 1/2))
SQUARE_TORSION_CENTER = 0.07367135328151381

#: sup distance between the normalized 1-D cosine eigenprofile and the
#: straight line through its range (see cosine_line_deviation)
COSINE_LINE_DEVIATION = 0.21051366235298763

#: Cheeger constant of the unit square: root of h^2 - 4h + (4 - pi) = 0
SQUARE_CHEEGER = 2.0 + math.sqrt(math.pi)


def torsion_center_series(terms: int = 41) -> float:
    """Center value of the p=2 unit-square torsion function.

    Separation of variables gives u(x,y) = x(1-x)/2 - (4/pi^3)
    sum_{k odd} sin(k pi x)/k^3 * cosh(k pi (y-1/2))/cosh(k pi/2); at the
    center the cosh ratio makes the tail decay exponentially, so the
    default truncation is converged to the last float digit.
    """
    tail = sum(math.sin(0.5 * math.pi * k) / (k**3 * math.cosh(0.5 * math.pi * k))
               for k in range(1, terms + 1, 2))
    return 0.125 - 4.0 / math.pi**3 * tail


def bessel_dirichlet_eigenvalue(k: int = 1) -> float:
    """k-th eigenvalue of the p=2 radial problem on the unit disc,
    ``j_{0,k}^2 / 2`` in the normalized convention ``v'' + v'/r + 2 lam v = 0``."""
    return float(jn_zeros(0, k)[k - 1]) ** 2 / 2.0


def bessel_order_eigenvalue(p: float, n: int, R: float = 1.0, k: int = 1) -> float:
    """k-th radial eigenvalue ``((p-1)/p) (j_{nu,k}/R)^2`` of the normalized
    problem for an integer or half-integer order ``nu = (n-p)/(2(p-1))``.

    Integer orders take ``jn_zeros``.  A half-integer order l + 1/2 takes the
    k-th zero of the spherical Bessel function j_l, since
    ``J_{l+1/2}(x) = sqrt(2x/pi) j_l(x)``: a half-unit scan from l, whose
    sign flips at each zero, brackets it and brentq closes it.
    """
    nu = (n - p) / (2.0 * (p - 1.0))
    if abs(nu - round(nu)) < 1e-9:
        j = float(jn_zeros(round(nu), k)[k - 1])
    else:
        order = round(nu - 0.5)
        assert abs(nu - order - 0.5) < 1e-9, "order must be an integer or half-integer"
        x, sign = float(max(order, 0)), 1.0
        for _ in range(k):
            while sign * spherical_jn(order, x + 0.5) > 0.0:
                x += 0.5
            lo, x, sign = x, x + 0.5, -sign
        j = brentq(lambda t: spherical_jn(order, t), lo, lo + 0.5,
                   xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
    return (p - 1.0) / p * (j / R) ** 2


def radial_eigen_rk4(p: float, n: int, R: float, k: int = 1,
                     steps: int = 2048) -> float:
    """k-th radial eigenvalue of ``(p-1)v'' + (n-1)/r v' + p lam v = 0``,
    ``v'(0) = 0 = v(R)``, by shooting.

    Fixed-step RK4 integrates from the regularity expansion at
    eps = 1e-6 R, one trajectory per trial lam.  The boundary value v(R; lam)
    changes sign once across each eigenvalue: a geometric scan in
    mu = lam R^2 brackets the k-th, then 16-way subdivision (one
    vectorized integration per round) closes the bracket to 1e-12 relative.
    About 0.9 s per call.  For p <= 1.04 it raises or returns a wrong
    eigenvalue, whatever the step count.
    """
    def boundary_values(lam, nsteps):
        eps = 1e-6 * R
        r = np.linspace(eps, R, nsteps + 1)
        h = (R - eps) / nsteps
        v = np.ones(lam.shape)
        w = -p * lam * eps / (p - 1.0 + n - 1.0)

        def rhs(ri, vi, wi):
            return wi, -((n - 1.0) / ri * wi + p * lam * vi) / (p - 1.0)

        for i in range(nsteps):
            ri = r[i]
            k1v, k1w = rhs(ri, v, w)
            k2v, k2w = rhs(ri + h / 2, v + h / 2 * k1v, w + h / 2 * k1w)
            k3v, k3w = rhs(ri + h / 2, v + h / 2 * k2v, w + h / 2 * k2w)
            k4v, k4w = rhs(ri + h, v + h * k3v, w + h * k3w)
            v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            w = w + h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        return v

    mu = 0.05
    brackets = []
    prev_mu, prev_sign = 0.0, 1.0  # v(R) -> 1 as lam -> 0
    while len(brackets) < k:
        assert mu <= 1e8, f"no bracket for index {k}"
        grid = mu * np.geomspace(1.0, 1.6, 9)
        for m, val in zip(grid, boundary_values(grid / R**2, max(steps // 8, 256))):
            s = 1.0 if val >= 0 else -1.0
            if s != prev_sign:
                brackets.append((prev_mu, m))
                prev_sign = s
            prev_mu = m
        mu = grid[-1] * 1.6
    lo, hi = brackets[k - 1]
    lo_positive = bool(boundary_values(np.array([lo / R**2]), steps)[0] >= 0)
    while hi - lo > 1e-12 * hi:
        mids = np.linspace(lo, hi, 17)[1:-1]
        same = (boundary_values(mids / R**2, steps) >= 0) == lo_positive
        if same.all():
            lo = float(mids[-1])
        else:
            j = int(np.argmin(same))
            if j > 0:
                lo = float(mids[j - 1])
            hi = float(mids[j])
    return 0.5 * (lo + hi) / R**2


def pi_p(p: float) -> float:
    """First 1-D Dirichlet p-Laplacian eigenvalue root on a unit interval:
    ``pi_p = 2 pi (p-1)^(1/p) / (p sin(pi/p))``; equals pi at p = 2."""
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))


def interval_torsion(x, p: float):
    """Exact p-torsion function on (0, 1): the solution of
    ``-(|u'|^(p-2) u')' = 1`` with u(0) = u(1) = 0.

    Integrating once with the symmetry u'(1/2) = 0 gives
    |u'|^(p-2) u' = 1/2 - x, so u' = sign(1/2 - x) |x - 1/2|^(q-1) with the
    conjugate exponent q = p/(p-1); integrating again,
    u = (1/q) ((1/2)^q - |x - 1/2|^q).  As p -> oo, q -> 1 and u tends to
    the distance to the boundary.
    """
    q = p / (p - 1.0)
    return (0.5 ** q - np.abs(np.asarray(x, dtype=float) - 0.5) ** q) / q


def square_dirichlet_lower(p: float) -> float:
    """Slab (Hersch-type) lower bound on the unit square's Dirichlet root.

    The square lies in the slab 0 < x < 1.  For any admissible u,
    |grad u|^p >= |u_x|^p, and the 1-D Poincare inequality on each
    horizontal fibre gives int |u_x|^p >= pi_p^p int |u|^p, so by domain
    monotonicity root >= pi_p(p).  Tends to 1/inradius = 2 as p -> oo.
    """
    return pi_p(p)


def square_dirichlet_upper(p: float) -> float:
    """Distance-function upper bound on the unit square's Dirichlet root.

    The distance d to the boundary has |grad d| = 1 a.e., so its Rayleigh
    quotient is 1 / int d^p.  The diagonals cut the square into four
    triangles of base 1 and height 1/2 on which d is the height above the
    base, with cross-section 1 - 2t at height t:
    int d^p = 4 int_0^{1/2} t^p (1 - 2t) dt = 2^(1-p) / ((p+1)(p+2)).
    Hence root <= 2 ((p+1)(p+2)/2)^(1/p), which tends to 2.
    """
    return 2.0 * ((p + 1.0) * (p + 2.0) / 2.0) ** (1.0 / p)


def square_neumann_lower(p: float) -> float:
    """Payne-Weinberger lower bound on the unit square's Neumann root.

    For convex domains the first nonzero Neumann eigenvalue of the
    p-Laplacian satisfies mu_p >= (p-1) (pi_p / diam)^p (Ferone, Nitsch &
    Trombetti 2012; equality on an interval), where pi_p here is the
    ``2 pi / (p sin(pi/p))`` of the closed form without its (p-1)
    factor.  With diam = sqrt(2): root >= pi_p(p) / sqrt(2), which tends
    to 2/diameter = sqrt(2).
    """
    return pi_p(p) / math.sqrt(2.0)


def square_neumann_upper(p: float) -> float:
    """Diagonal-ramp upper bound on the unit square's Neumann root.

    v = x + y - 1 has |grad v| = sqrt(2) and the triangular density
    1 - |s| on [-1, 1]; being symmetric, its p-mean is zero, so it is an
    admissible competitor with int |v|^p = 2 int_0^1 s^p (1 - s) ds
    = 2 / ((p+1)(p+2)).  Its quotient gives
    root <= sqrt(2) ((p+1)(p+2)/2)^(1/p), which tends to sqrt(2).
    """
    return math.sqrt(2.0) * ((p + 1.0) * (p + 2.0) / 2.0) ** (1.0 / p)


def tail_limit(roots_by_p) -> float:
    """p -> oo limit L of ``root(p) ~ L + a ln(p)/p + b/p``.

    The model is the form of the exact 1-D tail, pi_p(p) = 2 + 2 ln(p)/p
    + O((ln p / p)^2), with a 1/p term for the constants that the
    square's bounds above carry (c^(1/p) = 1 + ln(c)/p + ...).  It is
    interpolated through the three highest exponents of the mapping
    ``{p: root}`` and L is returned.
    """
    ps = sorted(roots_by_p)[-3:]
    rows = [[1.0, math.log(p) / p, 1.0 / p] for p in ps]
    coeffs = np.linalg.solve(np.array(rows), [roots_by_p[p] for p in ps])
    return float(coeffs[0])


def pmean_shift_two_point(x1: float, x2: float, m1: float, m2: float,
                          p: float) -> float:
    """Zero of ``sum m |x - c|^(p-2) (x - c)`` for two nodes x1 < x2.

    Between the nodes the balance reads m1 (c - x1)^(p-1) = m2 (x2 - c)^(p-1),
    so (c - x1)/(x2 - c) = 1/r with r = (m1/m2)^(1/(p-1)), and
    c = (x2 + r x1)/(1 + r).
    """
    r = (m1 / m2) ** (1.0 / (p - 1.0))
    return (x2 + r * x1) / (1.0 + r)


def pmean_shift_bisection(vals, mass, p: float) -> float:
    """Zero of ``sum m |v - c|^(p-1) sign(v - c)`` over the mass-carrying
    nodes, by plain bisection on [min v, max v] down to 1e-12 of the span.

    The balance is strictly decreasing in c, so 40 halvings always
    converge; this is the slow reference for the package's Newton solve.
    """
    sel = np.asarray(mass) > 0.0
    x, m = np.asarray(vals)[sel], np.asarray(mass)[sel]

    def balance(c):
        w = x - c
        return float(np.sum(m * np.abs(w) ** (p - 1.0) * np.sign(w)))

    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    if span <= 0.0 or balance(lo) <= 0.0:
        return lo
    while hi - lo > 1e-12 * span:
        mid = 0.5 * (lo + hi)
        if balance(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cosine_line_deviation() -> float:
    """sup_t |sin(pi t / 2) - t| on [0, 1].

    The first nonconstant Neumann eigenfunction of the Laplacian traces a
    cosine; after normalizing the trace to [-1, 1] its distance to the
    straight line is attained where the derivative matches the line slope.
    """
    t_star = brentq(lambda t: 0.5 * math.pi * math.cos(0.5 * math.pi * t) - 1.0,
                    0.0, 1.0)
    return math.sin(0.5 * math.pi * t_star) - t_star


def raster_perimeter_area(vertices: np.ndarray, radius: float,
                          samples: int = 2001, pad: float = 0.05):
    """(perimeter, area) of a convex polygon dilated by ``radius``.

    Membership uses hand-rolled point-to-segment distances (halfplane test
    inside, Euclidean segment distance outside); the area is positive-node
    counting and the perimeter a marching-squares contour length of the
    level set.  Everything here is independent of the package geometry.
    """
    verts = np.asarray(vertices, dtype=float)
    xmin, ymin = verts.min(axis=0) - radius - pad
    xmax, ymax = verts.max(axis=0) + radius + pad
    xs = np.linspace(xmin, xmax, samples)
    ys = np.linspace(ymin, ymax, samples)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])

    seg_d2 = np.full(len(pts), np.inf)
    inside = np.ones(len(pts), dtype=bool)
    nv = len(verts)
    for k in range(nv):
        a = verts[k]
        b = verts[(k + 1) % nv]
        e = b - a
        t = np.clip(((pts - a) @ e) / (e @ e), 0.0, 1.0)
        proj = a + t[:, None] * e
        seg_d2 = np.minimum(seg_d2, np.sum((pts - proj) ** 2, axis=1))
        outward = np.array([e[1], -e[0]])
        inside &= (pts - a) @ outward <= 0.0
    segd = np.sqrt(seg_d2)
    F = np.where(inside, segd + radius, radius - segd).reshape(samples, samples)

    area = float(np.count_nonzero(F > 0)) * hx * hy

    corner_count = ((F[:-1, :-1] > 0).astype(np.int8) + (F[1:, :-1] > 0)
                    + (F[:-1, 1:] > 0) + (F[1:, 1:] > 0))
    perimeter = 0.0
    edges = [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 0), (0, 1)), ((1, 0), (1, 1))]
    for i, j in np.argwhere((corner_count > 0) & (corner_count < 4)):
        corner = {(0, 0): F[i, j], (1, 0): F[i + 1, j],
                  (0, 1): F[i, j + 1], (1, 1): F[i + 1, j + 1]}
        crossings = []
        for a, b in edges:
            fa, fb = corner[a], corner[b]
            if (fa > 0) != (fb > 0):
                t = fa / (fa - fb)
                crossings.append((a[0] + t * (b[0] - a[0]),
                                  a[1] + t * (b[1] - a[1])))
        if len(crossings) == 2:
            (x1, y1), (x2, y2) = crossings
            perimeter += math.hypot((x2 - x1) * hx, (y2 - y1) * hy)
    return perimeter, area


def p1_elements(grid):
    """Admissible elements of the lattice triangulation, one by one: the flat
    node indices of each, the gradients of its hat functions (one row per
    corner) and its measure.

    A plain loop over cells with barycentric coordinates: each cell splits
    along its (i, j)-(i+1, j+1) diagonal, and an element counts when all its
    nodes are non-exterior.  Node positions are index times h, so edge
    vectors are exact multiples of h.
    """
    shape, h = grid.shape, grid.h
    ok = grid.nonexterior.ravel()
    if grid.dim == 1:
        cells = [((i,), (i + 1,)) for i in range(shape[0] - 1)]
    else:
        cells = []
        for i in range(shape[0] - 1):
            for j in range(shape[1] - 1):
                cells.append(((i, j), (i + 1, j), (i + 1, j + 1)))
                cells.append(((i, j), (i + 1, j + 1), (i, j + 1)))
    for corners in cells:
        nodes = [int(np.ravel_multi_index(c, shape)) for c in corners]
        if not all(ok[k] for k in nodes):
            continue
        x = np.asarray(corners, dtype=float) * h
        edges_inv = np.linalg.inv((x[1:] - x[0]).T)  # row a: gradient of lambda_{a+1}
        grads = np.vstack([-edges_inv.sum(axis=0), edges_inv])
        measure = abs(np.linalg.det((x[1:] - x[0]).T)) / math.factorial(grid.dim)
        yield nodes, grads, measure


def p1_stiffness(grid, dofs):
    """P1 stiffness ``int grad phi_a . grad phi_b`` of the lattice
    triangulation on the flat node indices ``dofs`` (in that order),
    assembled element by element into a ``coo_matrix``."""
    pos = {int(k): i for i, k in enumerate(dofs)}
    rows, cols, vals = [], [], []
    for nodes, grads, measure in p1_elements(grid):
        local = measure * grads @ grads.T
        for a, na in enumerate(nodes):
            for b, nb in enumerate(nodes):
                if na in pos and nb in pos:
                    rows.append(pos[na])
                    cols.append(pos[nb])
                    vals.append(local[a, b])
    m = len(dofs)
    return coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()


def normalized_stencil_two_part(v, h: float, p: float, delta: float, scale: float,
                                out, work) -> None:
    """The flat normalized-operator kernel as it stood before it learnt to
    skip its u_nn part where that part's coefficient is zero: every p
    evaluates both parts.

    ``scale/(p h^2) (Sxx + Syy) + scale (1 - 2/p)/h^2 h^2 u_nn`` on the flat
    span ``[S, v.size - S)`` of ``v`` in C order, ``S`` the sum of its element
    strides, with ``h^2 u_nn = (a^2 Sxx + ab Sxy/2 + b^2 Syy) / (a^2 + b^2 +
    4h^2 delta^2)`` in the unscaled differences; ``work`` holds six buffers
    of the span's length.  The operations and their order are kept, so the
    package kernel must reproduce this bit for bit, up to the sign of zero.
    """
    S = sum(math.prod(v.shape[k + 1:]) for k in range(v.ndim))
    flat = v.reshape(-1)

    def at(k):
        return flat[S + k:flat.size - S + k]

    def second_difference(ahead, mid, behind, dest):
        np.multiply(mid, 2.0, out=dest)
        np.subtract(ahead, dest, out=dest)
        dest += behind

    g2, num, lap, t = work[:4]
    if v.ndim == 1:
        a = np.subtract(at(1), at(-1), out=t)
        second_difference(at(1), at(0), at(-1), lap)
        np.multiply(a, a, out=g2)
        np.multiply(g2, lap, out=num)
    else:
        N = v.shape[1]
        a, b = t, work[4]
        sxy, syy = work[5], out
        np.subtract(at(N), at(-N), out=a)
        np.subtract(at(1), at(-1), out=b)
        second_difference(at(N), at(0), at(-N), lap)
        second_difference(at(1), at(0), at(-1), syy)
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
    np.add(g2, max(4.0 * h * h * delta * delta, np.finfo(float).smallest_subnormal), out=t)
    num /= t
    np.multiply(lap, scale / (p * h * h), out=out)
    num *= scale * (1.0 - 2.0 / p) / (h * h)
    out += num


def bincount_metric(core, v, p: float, delta: float, shifted: bool):
    """A core's energy Hessian at ``v`` (with ``shifted``, for Neumann plus
    ``_neumann_sigma()`` times the weight-lumped mass) as the package
    assembled it before its lattice stencil: every element stamp
    ``cw btb[a, b] + (cr bg[a]) bg[b]`` gets a CSC data slot from a per-stamp
    table, and ``np.bincount`` sums the stamps in family, then corner pair,
    then element order.  Returns ``(data, indices, indptr)``; the stencil
    must give the same bits, up to the sign of zero."""
    families = core._families
    nc = [len(nodes) for nodes, _ in families]
    pairs = [[(a, a) for a in range(k)] + [q for a in range(k) for b in range(a + 1, k)
                                           for q in ((a, b), (b, a))] for k in nc]
    # the pattern: a (column, flat offset) table over the dofs
    groups = [(nodes, a, b) for (nodes, _), ab in zip(families, pairs) for a, b in ab]
    shift = [int(nodes[a][0] - nodes[b][0]) if len(nodes[0]) else 0 for nodes, a, b in groups]
    offsets = sorted(set(shift) | {0})
    m = len(core.dof_index)
    pos = np.full(int(np.prod(core.grid.shape)), -1, dtype=np.int32)
    pos[core.dof_index] = np.arange(m)
    present = np.zeros((m, len(offsets)), dtype=bool)
    present[:, offsets.index(0)] = True
    cols = []
    for (nodes, a, b), d in zip(groups, shift):
        col = pos[nodes[b]]
        col[pos[nodes[a]] < 0] = -1
        present[col[col >= 0], offsets.index(d)] = True
        cols.append(col)
    rows = np.full(present.shape, m, dtype=np.int32)
    col_idx, k_idx = np.nonzero(present)
    rows[col_idx, k_idx] = pos[core.dof_index[col_idx] + np.asarray(offsets)[k_idx]]
    rank = rows.argsort(axis=1).argsort(axis=1)
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
    nnz = int(indptr[-1])
    table = np.where(present, indptr[:-1, None] + rank, nnz)  # slot nnz: off the dofs
    slot = np.concatenate([np.where(col >= 0, table[col, offsets.index(d)], nnz)
                           for col, d in zip(cols, shift)])
    indices = np.sort(rows, axis=1)
    indices = indices[indices < m]
    # the stamps
    g, s, w = core._element_weights(v, p, delta)
    r = np.divide(p - 2.0, s, out=np.zeros_like(s), where=s > 0.0) * w
    vals = np.empty(len(slot))
    start = stop = 0
    measure = core._volume / core.h ** 2
    for (nodes, B), ab in zip(families, pairs):
        sl = slice(start, start + len(nodes[0]))
        start = sl.stop
        cw, cr = measure * w[sl], measure * r[sl]
        bg = B.T @ g[:, sl]
        btb = B.T @ B
        done = {}
        for a, b in ab:
            out = vals[stop:stop + len(nodes[0])]
            stop += len(nodes[0])
            if (b, a) in done:
                out[:] = done[b, a]
            else:
                np.multiply(cw, btb[a, b], out=out)
                out += cr * bg[a] * bg[b]
                done[a, b] = out
    data = np.bincount(slot, weights=vals, minlength=nnz + 1)[:-1]
    if shifted and core.bc == "neumann":
        data[table[:, offsets.index(0)]] += core._neumann_sigma() * core._lumped(w)[core.dof_index]
    return data, indices, indptr
