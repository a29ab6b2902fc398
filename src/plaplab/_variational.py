"""Shared discrete variational machinery for the Dirichlet and eigenvalue
solvers.

The lattice carries P1 elements: segments in 1-D and, in 2-D, the two
triangles of each cell split along the same diagonal, lower
(i,j)-(i+1,j)-(i+1,j+1) and upper (i,j)-(i,j+1)-(i+1,j+1).  The element
families (``_FAMILIES``) are the only description of the elements: corner
offsets, and for each gradient component the two corners of its difference
quotient,

    lower: ( (v10-v00)/h , (v11-v10)/h )
    upper: ( (v11-v01)/h , (v01-v00)/h )

An element is admissible when all its corners carry values (non-exterior).
Once per core the families give the admissible elements, the lumped masses
(each element gives its measure over its corner count to each corner, which
keeps boundary quadrature first-order consistent) and one sparse difference
operator ``D``: ``D v / h`` stacks the gradient components of every
admissible element and ``D^T`` scatters element fluxes back to the nodes.
``D v`` itself is evaluated as differences of shifted windows at the corner
offsets, bit for bit equal to the sparse product.  The regularized
p-Dirichlet energy needs ``D v`` and its gradient, and the gradient's
derivative in p (:meth:`VariationalCore.energy_grad_dp`, the right-hand
side of a continuation tangent), also ``D^T``; for p = 2 the energy reduces
exactly to the classical 5-point scheme.  The Newton matrix is the exact
Hessian of the regularized energy (:meth:`VariationalCore.hessian`), whose
element tensor ``w (I + (p-2) g g^T/(|g|^2 + delta^2))`` couples the two ends
of each cell's diagonal (a 7-point pattern); at p = 2 it is the 5-point
stiffness.  It is assembled as a lattice stencil (:meth:`VariationalCore._stencil`):
one node coefficient array per coupling offset (the diagonal and the three
positive offsets of a cell's corners in 2-D, two arrays in 1-D), into which
each family's element stamps are added with shifted windows of the cells,
inadmissible cells adding 0; one gather map, computed once per core with
the CSC pattern, then fills the matrix data.  Stamps are added in family,
then corner-pair order, so every entry is the sum an element-by-element
scatter in that order gives, bit for bit up to the sign of zero.  For
Neumann problems the preconditioning metric adds a multiple of the
weight-lumped mass to the diagonal (each element gives its Hessian weight
times its measure over its corner count to each corner), which follows the
Hessian's local scale where the gradient vanishes; :meth:`VariationalCore.assemble`
returns that diagonal with the Hessian of the same assembly, and
:meth:`VariationalCore.weighted_factor` factors their sum.
:meth:`VariationalCore.sweep` minimizes the energy less a
load node by node, one colour at a time: colouring nodes by their lattice
index sum mod dim + 1 gives every element one corner of each colour, so the
nodes of a colour are independent; its tables are also built once per core.

Degrees of freedom are the interior nodes for Dirichlet boundary conditions
and every mass-carrying node for natural (Neumann) conditions.  They are
numbered once per core (``dof_index``) in a nested-dissection order of the
lattice (``_dissection_order``; natural order in 1-D, where a line has no
fill), the fill-reducing order for these lattice matrices.  Every matrix
that is factored, the Hessian, the Neumann shifted Hessian and the
p = 2 stiffness, is symmetric positive definite, so :meth:`VariationalCore.factor`
eliminates on the diagonal in that order with no per-call ordering and no
row pivoting.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import Grid

__all__ = ["VariationalCore", "make_core"]

# Element families per dimension: corner offsets from the element's lowest
# node (every element fits in one lattice cell), and for each gradient
# component the (plus, minus) corners of its difference quotient,
# grad_k v = (v[plus] - v[minus]) / h.
_FAMILIES = {
    1: ((((0,), (1,)), ((1, 0),)),),  # segments
    2: ((((0, 0), (1, 0), (1, 1)), ((1, 0), (2, 1))),  # lower triangles
        (((0, 0), (0, 1), (1, 1)), ((2, 1), (1, 0)))),  # upper triangles
}


#: lattice boxes of at most this many nodes are leaves of the nested
#: dissection, numbered in natural order
_DISSECTION_LEAF = 16

#: Newton iterations per colour of :meth:`VariationalCore.sweep`
_SWEEP_ITERATIONS = 6


def _dissection_order(shape: tuple[int, int]) -> np.ndarray:
    """Flat node indices of a 2-D lattice of ``shape`` in nested-dissection
    order.

    A box of more than ``_DISSECTION_LEAF`` nodes is split at the middle
    lattice line of its longer extent: its two halves come first, each in
    its own such order, then the line.  Every element couples nodes at most
    one apart along each axis, so the line separates the halves within any
    subset of the nodes.  All boxes of one level split at once: each node's
    sort key gains one base-3 digit per level (0 first half, 1 second half,
    2 separator, 0 once its box is a leaf or a line), and the nodes of one
    leaf or one line tie and keep their natural order.
    """
    i, j = (a.ravel() for a in np.indices(shape))
    lo_i, lo_j = np.zeros_like(i), np.zeros_like(j)
    hi_i, hi_j = np.full_like(i, shape[0]), np.full_like(j, shape[1])
    key = np.zeros(i.size, dtype=np.int64)  # about log2(i.size) digits
    active = np.ones(i.size, dtype=bool)
    while True:
        ext_i, ext_j = hi_i - lo_i, hi_j - lo_j
        active &= ext_i * ext_j > _DISSECTION_LEAF
        if not active.any():
            return np.argsort(key, kind="stable")
        along_j = ext_j > ext_i  # ties split along i
        c = np.where(along_j, j, i)
        mid = np.where(along_j, lo_j + ext_j // 2, lo_i + ext_i // 2)
        digit = np.where(c < mid, 0, np.where(c > mid, 1, 2)) * active
        key = key * 3 + digit
        # the box of each node's half (finished nodes' boxes are never used)
        first, second = digit == 0, digit == 1
        lo_i = np.where(second & ~along_j, mid + 1, lo_i)
        hi_i = np.where(first & ~along_j, mid, hi_i)
        lo_j = np.where(second & along_j, mid + 1, lo_j)
        hi_j = np.where(first & along_j, mid, hi_j)
        active &= digit != 2


def _corner_pairs(nc: int) -> list[tuple[int, int]]:
    """Local (row, column) corner pairs of an element stamp: the diagonal,
    then each off-diagonal pair in both orders."""
    return [(a, a) for a in range(nc)] + [q for a in range(nc) for b in range(a + 1, nc)
                                          for q in ((a, b), (b, a))]


class VariationalCore:
    """Energy/gradient evaluations, the energy Hessian and its (for Neumann,
    weight-lumped mass shifted) factorizations, all on the admissible elements
    of ``_FAMILIES``."""

    def __init__(self, grid: Grid, bc: str):
        if bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {bc!r}")
        # the grid owns its cores (make_core); a strong reference back would
        # make a cycle that only the cyclic collector frees
        self._grid = weakref.ref(grid)
        self.bc = bc
        self.h = grid.h
        ok = grid.nonexterior
        # per family: the flat node index of each corner of every admissible
        # element and the unit gradient matrix B (grad v = B v_corners / h);
        # for _slopes and _stencil, each corner's window over the cells, the
        # (plus, minus) corners, the admissibility mask (None when every cell
        # is admissible) and the element count; per gradient component and
        # family: the (plus, minus) node pairs
        self._families, self._windows = [], []
        pairs = [[] for _ in range(grid.dim)]
        # the Hessian stencil: flat offsets between coupled nodes (0, the
        # diagonal, first), and per family one stamp per corner pair a <= b
        # in _corner_pairs order, as (a, b, coupling index, corner at the
        # lower node); the stamp of (b, a) is the same number
        strides = [int(np.prod(ok.shape[k + 1:])) for k in range(grid.dim)]
        self._couplings, self._stamps = [0], []
        for corners, grads in _FAMILIES[grid.dim]:
            stamps = []
            for a, b in _corner_pairs(len(corners)):
                if a > b:
                    continue
                offset = sum((cb - ca) * st for ca, cb, st in zip(corners[a], corners[b], strides))
                if abs(offset) not in self._couplings:
                    self._couplings.append(abs(offset))
                stamps.append((a, b, self._couplings.index(abs(offset)), a if offset >= 0 else b))
            self._stamps.append(stamps)
            # element origins run over the cells: shape - 1 nodes per axis
            windows = [tuple(slice(o, s - 1 + o) for o, s in zip(c, ok.shape)) for c in corners]
            mask = np.logical_and.reduce([ok[w] for w in windows])
            origin = np.nonzero(mask)
            self._windows.append((windows, grads, None if mask.all() else mask,
                                  len(origin[0])))
            nodes = [np.ravel_multi_index(tuple(o + d for o, d in zip(origin, c)), ok.shape)
                     for c in corners]
            B = np.zeros((len(grads), len(corners)))
            for k, (plus, minus) in enumerate(grads):
                B[k, plus], B[k, minus] = 1.0, -1.0
                pairs[k].append(np.stack([nodes[plus], nodes[minus]], axis=1))
            self._families.append((nodes, B))
        # every family's B columns side by side (the corners' gradients)
        self._columns = np.concatenate([B for _, B in self._families], axis=1)
        self._volume = self.h ** grid.dim / math.factorial(grid.dim)  # element measure
        elements = sum(len(nodes[0]) for nodes, _ in self._families)
        self.mass = self._lumped(np.ones(elements)).reshape(ok.shape)
        # D: row k*m + e holds v[plus] - v[minus] of gradient component k on
        # element e (m admissible elements, in family order)
        ends = np.concatenate([p for per_family in pairs for p in per_family]).astype(np.int32)
        self._D = sp.csr_matrix((np.tile([1.0, -1.0], len(ends)), ends.ravel(),
                                 np.arange(0, ends.size + 1, 2, dtype=np.int32)),
                                shape=(len(ends), ok.size))
        if bc == "dirichlet":
            self.dof_mask = grid.interior.copy()
        else:
            self.dof_mask = ok & (self.mass > 0.0)
        order = _dissection_order(ok.shape) if grid.dim > 1 else np.arange(ok.size)
        self.dof_index = order[self.dof_mask.ravel()[order]]
        self._cell_shape = tuple(n - 1 for n in ok.shape)
        self._csc_pattern = None
        self._colour_tables = None

    @property
    def grid(self) -> Grid:
        return self._grid()

    # -- energies ---------------------------------------------------------

    def _slopes(self, v: np.ndarray, delta: float):
        """Gradient components ``g = D v / h`` on every admissible element
        (one row per component, elements in family order) and
        ``s = |g|^2 + delta^2``.

        ``D v`` is evaluated as differences of the corner windows, gathered
        by each family's admissibility mask in ``np.nonzero`` order (the
        order of ``D``'s rows), which gives the bits of ``D @ v`` without
        its sparse gather."""
        g = np.empty((self.grid.dim, self._D.shape[0] // self.grid.dim))
        start = 0
        for windows, grads, mask, count in self._windows:
            for k, (plus, minus) in enumerate(grads):
                ahead, behind = v[windows[plus]], v[windows[minus]]
                cells = g[k, start:start + count]
                if mask is None:
                    np.subtract(ahead, behind, out=cells.reshape(ahead.shape))
                else:
                    cells[:] = np.subtract(ahead, behind)[mask]
            start += count
        g /= self.h
        return g, (g * g).sum(axis=0) + delta * delta

    def energy(self, v: np.ndarray, p: float, delta: float) -> float:
        """``sum (1/p)(|grad v|^2 + delta^2)^(p/2)`` over admissible elements."""
        _, s = self._slopes(v, delta)
        return float(np.sum(s ** (p / 2.0))) * self._volume / p

    def energy_grad(self, v: np.ndarray, p: float, delta: float):
        """(energy, gradient); the gradient is zeroed off the dof mask."""
        g, s = self._slopes(v, delta)
        e = float(np.sum(s ** (p / 2.0))) * self._volume / p
        # d/dv of volume (1/p) s^(p/2) is volume s^((p-2)/2) g . dg/dv, dg/dv = D / h
        flux = s ** (p / 2.0 - 1.0) * (self._volume / self.h) * g
        grad = (self._D.T @ flux.ravel()).reshape(v.shape)
        return e, np.where(self.dof_mask, grad, 0.0)

    def energy_grad_dp(self, v: np.ndarray, p: float, delta: float) -> np.ndarray:
        """Derivative in ``p`` of :meth:`energy_grad`'s gradient,
        ``D^T [(volume/h) (1/2) ln(s) s^(p/2-1) g]``, zeroed off the dof mask.
        A flat element (``s = 0``, possible only at ``delta = 0``) contributes
        0, the limit of ``ln(s) s^(p/2-1) g`` as ``g -> 0`` for p > 1."""
        g, s = self._slopes(v, delta)
        flat = s == 0.0
        safe = np.where(flat, 1.0, s)
        coef = np.where(flat, 0.0, 0.5 * np.log(safe) * safe ** (p / 2.0 - 1.0))
        flux = coef * (self._volume / self.h) * g
        grad = (self._D.T @ flux.ravel()).reshape(v.shape)
        return np.where(self.dof_mask, grad, 0.0)

    # -- nodal relaxation -----------------------------------------------

    def _colouring(self):
        """Per colour, the tables of :meth:`sweep`, computed once per core.

        A node's colour is its lattice index sum mod ``dim + 1``: (i + j)
        mod 3 in 2-D, i mod 2 in 1-D.  Each family's corner offsets sum to
        0, 1, ..., dim, so every element has one corner of each colour.
        Returns one ``(dofs, elements, b, bb, owner)`` per colour: the
        colour's dofs (flat indices); every admissible element with a corner
        among them (its column in ``_slopes``); that corner's hat-function
        gradient ``b`` (its column of ``_columns`` over h) and ``b.b``; and
        the corner's position in ``dofs``.  The indices are int32."""
        if self._colour_tables is not None:
            return self._colour_tables
        grid = self.grid
        colour = (np.indices(grid.shape).sum(axis=0) % (grid.dim + 1)).ravel()
        dof = self.dof_mask.ravel()
        columns = self._columns / self.h
        tables = []
        for c in range(grid.dim + 1):
            elements, column, node = [], [], []
            start = first_column = 0
            for nodes, _ in self._families:
                for k, corner in enumerate(nodes):
                    hit = np.flatnonzero((colour[corner] == c) & dof[corner])
                    elements.append(start + hit)
                    column.append(np.full(len(hit), first_column + k))
                    node.append(corner[hit])
                start += len(nodes[0])
                first_column += len(nodes)
            dofs, owner = np.unique(np.concatenate(node), return_inverse=True)
            b = columns[:, np.concatenate(column)]
            tables.append((dofs.astype(np.int32), np.concatenate(elements).astype(np.int32),
                           b, np.einsum("ij,ij->j", b, b), owner.astype(np.int32)))
        self._colour_tables = tables
        return tables

    def sweep(self, v: np.ndarray, p: float, delta: float, rhs: np.ndarray) -> np.ndarray:
        """One sweep of nodal minimization of ``energy(v, p, delta) - sum
        rhs v`` over the dofs, one colour at a time (:meth:`_colouring`),
        for p > 2 and delta > 0; returns the new array.

        The objective is separable in one colour's values, and each of a
        node's elements has a gradient affine in that value, ``g + t b``.
        Every node of the colour solves ``F(t) = rhs_i``, ``F`` the flux
        ``sum_T |T| s^(p/2-1) (g + t b).b``, at once by
        ``_SWEEP_ITERATIONS`` steps of a bracketed Newton method on the
        (p-1)-th root of both sides, which is close to affine where one
        element dominates; a step out of the bracket bisects it.  The root
        has an infinite slope where ``F`` vanishes, so a node without flux
        (a flat neighbourhood) does not move.  A node keeps its update only
        if its local energy falls, so the objective never rises (up to the
        rounding of the local sums), and the minimizer is resolved to about
        the square root of machine epsilon."""
        v = v.copy()
        flat = v.reshape(-1)
        rhs = rhs.ravel()
        root = 1.0 / (p - 1.0)
        floor = delta * delta
        for dofs, elements, b, bb, owner in self._colouring():
            g, s = self._slopes(v, delta)
            gb = np.einsum("ij,ij->j", g[:, elements], b)
            s = s[elements]
            k = len(dofs)
            goal = rhs[dofs]
            goal_root = np.sign(goal) * np.abs(goal) ** root
            t, lo, hi = np.zeros(k), np.full(k, -np.inf), np.full(k, np.inf)
            for _ in range(_SWEEP_ITERATIONS):
                te = t[owner]
                gt = gb + te * bb  # (g + t b).b
                st = np.maximum(s + te * (gb + gt), floor)  # |g + t b|^2 + delta^2
                w = st ** (p / 2.0 - 1.0)
                flux = np.bincount(owner, w * gt, k) * self._volume
                slope = np.bincount(owner, w * (bb + (p - 2.0) * gt * gt / st), k) * self._volume
                below = flux < goal
                lo, hi = np.where(below, t, lo), np.where(below, hi, t)
                phi = np.sign(flux) * np.abs(flux) ** root
                # d phi / dt = slope / ((p - 1) |phi|^(p-2))
                step = t + np.divide((goal_root - phi) * (p - 1.0) * np.abs(phi) ** (p - 2.0),
                                     slope, out=np.zeros(k), where=slope > 0.0)
                bisect = np.isfinite(lo) & np.isfinite(hi) & ((step < lo) | (step > hi))
                t = np.where(bisect, 0.5 * (lo + hi), step)
            te = t[owner]
            st = np.maximum(s + te * (2.0 * gb + te * bb), floor)
            after = np.bincount(owner, st ** (p / 2.0), k) * (self._volume / p) - goal * t
            before = np.bincount(owner, s ** (p / 2.0), k) * (self._volume / p)
            flat[dofs] += np.where(after < before, t, 0.0)
        return v

    # -- masses and p-norms ----------------------------------------------

    def _lumped(self, w: np.ndarray) -> np.ndarray:
        """Flat lumped mass of the element weights ``w`` (one per admissible
        element, in family order): each element gives ``w_T |T| / (d+1)`` to
        each of its corners."""
        size = int(np.prod(self.grid.shape))
        out, start = np.zeros(size), 0
        for nodes, _ in self._families:
            w_family = w[start:start + len(nodes[0])]
            start += len(w_family)
            for corner in nodes:
                out += np.bincount(corner, weights=w_family, minlength=size)
        return out * (self._volume / (self.grid.dim + 1))

    def pnorm_term(self, v: np.ndarray, p: float) -> float:
        """``sum mass * |v|^p`` over value-carrying nodes."""
        return float(np.sum(self.mass * np.abs(v) ** p))

    def load_grad(self, f_vals: np.ndarray) -> np.ndarray:
        """Gradient of ``-sum mass f v`` (linear load term)."""
        return np.where(self.dof_mask, -self.mass * f_vals, 0.0)

    # -- assembly patterns and factorizations -----------------------------

    def _element_weights(self, v: np.ndarray, p: float, delta: float):
        """Element gradients ``g``, ``s = |g|^2 + delta^2`` and the weights
        ``w = s^{(p-2)/2}``, floored at 1e-12 of their maximum so that a
        matrix built from them stays positive definite where ``g``
        vanishes."""
        g, s = self._slopes(v, delta)
        w = s ** (p / 2.0 - 1.0)
        return g, s, np.maximum(w, 1e-12 * max(w.max(initial=0.0), 1e-300))

    def _pattern(self):
        """CSC pattern on the dofs of the energy Hessian (every corner pair
        of every element, which adds each cell's diagonal to the 5-point
        stencil: 7 points) and its gather map from :meth:`_stencil`'s
        coefficients; computed once per core.  Rows and columns are dofs in
        ``dof_index`` order, and the rows of each column are sorted
        (canonical format), so that no sparse operation sorts the shared
        read-only arrays.

        Returns ``(gather, diag, indices, indptr)``: a Hessian's data is
        ``coef.ravel()[gather]``, and ``diag`` holds the slots of the
        diagonal."""
        if self._csc_pattern is not None:
            return self._csc_pattern
        size = int(np.prod(self.grid.shape))
        # couples[k, i]: an admissible element holds nodes i and i + couplings[k]
        couples = np.zeros((len(self._couplings), *self.grid.shape), dtype=bool)
        couples[0] = True
        for (windows, _, mask, _), stamps in zip(self._windows, self._stamps):
            for _, _, k, low in stamps:
                couples[k][windows[low]] |= True if mask is None else mask
        couples = couples.reshape(len(self._couplings), size)
        m = len(self.dof_index)
        pos = np.full(size, m)  # non-dofs sort after every row
        pos[self.dof_index] = np.arange(m)
        column = self.dof_index
        rows, sources = [], []
        for k, offset in enumerate(self._couplings):
            for other in (column,) if offset == 0 else (column + offset, column - offset):
                inside = (other >= 0) & (other < size)
                other = np.where(inside, other, column)
                low = np.minimum(column, other)
                rows.append(np.where(inside & couples[k, low], pos[other], m))
                sources.append(k * size + low)
        rows, sources = np.stack(rows, axis=1), np.stack(sources, axis=1)
        order = rows.argsort(axis=1)
        rows = np.take_along_axis(rows, order, axis=1)
        keep = rows < m
        indices = rows[keep].astype(np.int32)
        gather = np.take_along_axis(sources, order, axis=1)[keep]
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(np.int32)
        diag = np.flatnonzero(indices == np.repeat(np.arange(m), np.diff(indptr)))
        # every Hessian shares them: an in-place edit of one (eliminate_zeros,
        # prune) raises instead of rewriting the pattern of the next
        indices.flags.writeable = indptr.flags.writeable = False
        self._csc_pattern = (gather, diag, indices, indptr)
        return self._csc_pattern

    def _on_cells(self, x: np.ndarray, mask) -> np.ndarray:
        """Per-element values ``x`` (last axis: one family's admissible
        elements in ``np.nonzero`` order of its ``mask``) on the lattice
        cells, 0 on the inadmissible ones."""
        if mask is None:
            return x.reshape(*x.shape[:-1], *self._cell_shape)
        out = np.zeros((*x.shape[:-1], *self._cell_shape))
        out[..., mask] = x
        return out

    def _stencil(self, v: np.ndarray, p: float, delta: float):
        """The energy Hessian at ``v`` as a lattice stencil, and the floored
        element weights ``w`` (:meth:`_element_weights`).

        ``coef[k, i]`` couples node ``i`` to node ``i + _couplings[k]`` (the
        diagonal for k = 0), over all lattice nodes.  Each family's stamps
        are computed on the cells, 0 on inadmissible ones, and added with
        the window of the stamp's lower corner; stamps go in family, then
        ``_corner_pairs`` order, so each coefficient is the sum that a
        scatter of the element stamps in that order would give."""
        g, s, w = self._element_weights(v, p, delta)
        r = np.divide(p - 2.0, s, out=np.zeros_like(s), where=s > 0.0) * w
        coef = np.zeros((len(self._couplings), *self.grid.shape))
        stamp, term = np.empty(self._cell_shape), np.empty(self._cell_shape)
        start = 0
        # an element with coefficient tensor A adds volume/h^2 B^T A B
        measure = self._volume / self.h ** 2
        for (_, B), (windows, _, mask, count), stamps in zip(self._families, self._windows,
                                                             self._stamps):
            sl = slice(start, start + count)
            start = sl.stop
            # B^T A B = w B^T B + r (B^T g)(B^T g)^T, each stamp as
            # cw btb[a, b] + (cr bg[a]) bg[b]
            cw = self._on_cells(measure * w[sl], mask)
            bg = B.T @ g[:, sl]
            crbg = self._on_cells(measure * r[sl] * bg, mask)
            bg = self._on_cells(bg, mask)
            btb = B.T @ B
            for a, b, k, low in stamps:
                np.multiply(cw, btb[a, b], out=stamp)
                stamp += np.multiply(crbg[a], bg[b], out=term)
                coef[k][windows[low]] += stamp
        return coef, w

    def _dof_matrix(self, coef: np.ndarray) -> sp.csc_matrix:
        """The dof matrix of the stencil ``coef`` on the shared pattern."""
        gather, _, indices, indptr = self._pattern()
        m = len(self.dof_index)
        return sp.csc_matrix((coef.ravel()[gather], indices, indptr), shape=(m, m))

    @staticmethod
    def factor(matrix: sp.csc_matrix):
        """Sparse LU of a symmetric positive definite dof matrix.

        The dofs are already in nested-dissection order (``dof_index``,
        fixed per core), so SuperLU keeps the natural order and runs no
        ordering per call.  A symmetric positive definite matrix needs no
        pivoting: every pivot is eliminated on the diagonal, which keeps the
        fill of the order (threshold pivoting on a rough iterate swaps
        rows and multiplies the fill).  Stored zeros (at p = 2, the
        couplings along each cell's diagonal) are dropped first, on a copy
        that leaves the shared pattern intact, so that they cost no fill.
        """
        matrix = matrix.copy()
        matrix.eliminate_zeros()
        return spla.splu(matrix, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})

    def _neumann_sigma(self) -> float:
        return 1.0 / max(self.grid.domain.bounding_box[2]
                         - self.grid.domain.bounding_box[0], 1.0) ** 2

    def hessian(self, v: np.ndarray, p: float, delta: float) -> sp.csc_matrix:
        """Hessian of :meth:`energy` on the dofs (no Neumann mass shift).

        Each element contributes ``measure * B^T A_T B`` with the tensor
        ``A_T = w_T (I + (p-2) g g^T / (|g|^2 + delta^2))``, ``g`` its
        gradient and ``w_T = (|g|^2 + delta^2)^{(p-2)/2}``; a flat element at
        ``delta = 0`` keeps only ``w_T I``.  ``w_T`` is floored at 1e-12 of
        its maximum, so the matrix stays positive definite (for p > 1) where
        the gradient vanishes.  At p = 2 (``w_T = 1``) it is the P1
        stiffness.
        """
        return self._dof_matrix(self._stencil(v, p, delta)[0])

    def assemble(self, v: np.ndarray, p: float, delta: float):
        """``(hessian, shift)`` from one stencil assembly: :meth:`hessian`
        at ``v`` and the diagonal on the dofs that :meth:`weighted_metric`
        adds to it, None for Dirichlet, which adds nothing."""
        coef, w = self._stencil(v, p, delta)
        shift = None
        if self.bc == "neumann":
            shift = self._neumann_sigma() * self._lumped(w)[self.dof_index]
        return self._dof_matrix(coef), shift

    def plus_diagonal(self, matrix: sp.csc_matrix, diagonal) -> sp.csc_matrix:
        """``matrix + diag(diagonal)`` for a matrix on this core's pattern
        (a :meth:`hessian`), on a copy of its data that shares the pattern;
        ``matrix`` itself when ``diagonal`` is None."""
        if diagonal is None:
            return matrix
        data = matrix.data.copy()
        data[self._pattern()[1]] += diagonal
        return sp.csc_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape)

    def weighted_metric(self, v: np.ndarray, p: float, delta: float) -> sp.csc_matrix:
        """:meth:`hessian` at ``v`` plus, for Neumann, ``_neumann_sigma()``
        times the weight-lumped mass: each element gives ``w_T |T| / (d+1)``
        to each corner, with the floored weights of the Hessian.  The shift
        makes the matrix positive definite on the constants and follows the
        local scale of the Hessian, where one global weight would swamp it at
        the degenerate corners of a high-p iterate; at p = 2 (``w_T = 1``) it
        is ``_neumann_sigma() * M``, ``M`` the lumped mass."""
        return self.plus_diagonal(*self.assemble(v, p, delta))

    def weighted_factor(self, v: np.ndarray, p: float, delta: float):
        """LU of :meth:`weighted_metric`; :meth:`precond_solve` applies it."""
        return self.factor(self.weighted_metric(v, p, delta))

    def precond_solve(self, grad: np.ndarray, factor) -> np.ndarray:
        """Apply the inverse metric ``factor`` (from :meth:`weighted_factor`)
        to a gradient array; returns a full-shape array supported on the
        dofs."""
        g = grad.ravel()[self.dof_index]
        d = factor.solve(g)
        out = np.zeros(int(np.prod(self.grid.shape)))
        out[self.dof_index] = d
        return out.reshape(self.grid.shape)


def make_core(grid: Grid, bc: str) -> VariationalCore:
    """The core of ``(grid, bc)``, built on first use and kept on the grid
    (grids are immutable), so that it and its assembly pattern are freed
    with the grid."""
    cores = grid.__dict__.setdefault("_variational_cores", {})
    core = cores.get(bc)
    if core is None:
        core = cores[bc] = VariationalCore(grid, bc)
    return core
