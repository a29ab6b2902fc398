"""Shared discrete variational machinery for the Dirichlet and eigenvalue
solvers.

The lattice is triangulated by splitting each cell along the same diagonal:
lower triangle (i,j)-(i+1,j)-(i+1,j+1), upper triangle (i,j)-(i+1,j+1)-
(i,j+1).  Affine elements give per-triangle gradients

    lower: ( (v10-v00)/h , (v11-v10)/h )
    upper: ( (v11-v01)/h , (v01-v00)/h )

so the regularized p-Dirichlet energy and its gradient are a handful of
shifted-array operations.  For p = 2 this energy reduces exactly to the
classical 5-point scheme.  The one descent metric is the exact Hessian of
the regularized energy (:meth:`VariationalCore.hessian`), whose element
tensor ``w (I + (p-2) g g^T/(|g|^2 + delta^2))`` couples the two ends of
each cell's diagonal (a 7-point pattern); at p = 2 it is the 5-point
stiffness.  :meth:`VariationalCore.weighted_factor` factors it with a mass
shift for Neumann problems.  The pattern, and the map from element stamps to
CSC data slots, are computed once per core.  Masses are lumped (one third of
each incident triangle's area), which keeps boundary quadrature first-order
consistent.

A triangle enters the energy only when all its vertices carry values
(non-exterior); degrees of freedom are the interior nodes for Dirichlet
boundary conditions and every mass-carrying node for natural (Neumann)
conditions.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import Grid

__all__ = ["VariationalCore", "make_core"]

# Element families: corner offsets from the element's lowest node, and for
# each gradient component the (plus, minus) corners of its difference
# quotient, grad_k v = (v[plus] - v[minus]) / h.
_SEGMENTS = (((0,), (1,)), ((1, 0),))
_TRIANGLES = ((((0, 0), (1, 0), (1, 1)), ((1, 0), (2, 1))),  # lower
              (((0, 0), (0, 1), (1, 1)), ((2, 1), (1, 0))))  # upper


def _corner_pairs(nc: int) -> list[tuple[int, int]]:
    """Local (row, column) corner pairs of an element stamp: the diagonal,
    then each off-diagonal pair in both orders."""
    return [(a, a) for a in range(nc)] + [q for a in range(nc) for b in range(a + 1, nc)
                                          for q in ((a, b), (b, a))]


class VariationalCore:
    """Energy/gradient evaluations, the energy Hessian and its (mass-shifted)
    factorizations."""

    def __init__(self, grid: Grid, bc: str):
        if bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {bc!r}")
        # the grid owns its cores (make_core); a strong reference back would
        # make a cycle that only the cyclic collector frees
        self._grid = weakref.ref(grid)
        self.bc = bc
        self.h = grid.h
        if grid.dim == 2:
            self._setup_2d()
        else:
            self._setup_1d()
        self.dof_index = np.flatnonzero(self.dof_mask.ravel())
        self._families = None
        self._csc_pattern = None

    @property
    def grid(self) -> Grid:
        return self._grid()

    # -- setup ------------------------------------------------------------

    def _setup_2d(self) -> None:
        ok = self.grid.nonexterior
        self.tri_low = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:]
        self.tri_up = ok[:-1, :-1] & ok[1:, 1:] & ok[:-1, 1:]
        h = self.h
        mass = np.zeros(self.grid.shape)
        wl = self.tri_low.astype(float) * (h * h / 6.0)
        wu = self.tri_up.astype(float) * (h * h / 6.0)
        mass[:-1, :-1] += wl + wu
        mass[1:, :-1] += wl
        mass[1:, 1:] += wl + wu
        mass[:-1, 1:] += wu
        self.mass = mass
        if self.bc == "dirichlet":
            self.dof_mask = self.grid.interior.copy()
        else:
            self.dof_mask = ok & (mass > 0.0)

    def _setup_1d(self) -> None:
        ok = self.grid.nonexterior
        self.seg = ok[:-1] & ok[1:]
        mass = np.zeros(self.grid.shape)
        w = self.seg.astype(float) * (self.h / 2.0)
        mass[:-1] += w
        mass[1:] += w
        self.mass = mass
        if self.bc == "dirichlet":
            self.dof_mask = self.grid.interior.copy()
        else:
            self.dof_mask = ok & (mass > 0.0)

    # -- energies ---------------------------------------------------------

    def _tri_grads(self, v: np.ndarray):
        h = self.h
        dxl = (v[1:, :-1] - v[:-1, :-1]) / h
        dyl = (v[1:, 1:] - v[1:, :-1]) / h
        dxu = (v[1:, 1:] - v[:-1, 1:]) / h
        dyu = (v[:-1, 1:] - v[:-1, :-1]) / h
        return dxl, dyl, dxu, dyu

    def energy(self, v: np.ndarray, p: float, delta: float) -> float:
        """``sum (1/p)(|grad v|^2 + delta^2)^(p/2)`` over admissible elements."""
        d2 = delta * delta
        if self.grid.dim == 1:
            g2 = ((v[1:] - v[:-1]) / self.h) ** 2
            return float(np.sum(((g2 + d2) ** (p / 2.0))[self.seg]) * self.h / p)
        dxl, dyl, dxu, dyu = self._tri_grads(v)
        el = ((dxl**2 + dyl**2 + d2) ** (p / 2.0))[self.tri_low].sum()
        eu = ((dxu**2 + dyu**2 + d2) ** (p / 2.0))[self.tri_up].sum()
        return float((el + eu) * self.h * self.h / (2.0 * p))

    def energy_grad(self, v: np.ndarray, p: float, delta: float):
        """(energy, gradient); the gradient is zeroed off the dof mask."""
        d2 = delta * delta
        if self.grid.dim == 1:
            g = (v[1:] - v[:-1]) / self.h
            g2 = g * g + d2
            e = float(np.sum((g2 ** (p / 2.0))[self.seg]) * self.h / p)
            # d/dv of (h/p)(g^2+d^2)^(p/2): the h and the 1/h from dg/dv cancel
            flux = np.where(self.seg, g2 ** (p / 2.0 - 1.0), 0.0) * g
            grad = np.zeros_like(v)
            grad[:-1] -= flux
            grad[1:] += flux
            grad = np.where(self.dof_mask, grad, 0.0)
            return e, grad
        dxl, dyl, dxu, dyu = self._tri_grads(v)
        g2l = dxl**2 + dyl**2 + d2
        g2u = dxu**2 + dyu**2 + d2
        e = float((np.where(self.tri_low, g2l ** (p / 2.0), 0.0).sum()
                   + np.where(self.tri_up, g2u ** (p / 2.0), 0.0).sum())
                  * self.h * self.h / (2.0 * p))
        wl = np.where(self.tri_low, g2l ** (p / 2.0 - 1.0), 0.0) * (self.h / 2.0)
        wu = np.where(self.tri_up, g2u ** (p / 2.0 - 1.0), 0.0) * (self.h / 2.0)
        grad = np.zeros_like(v)
        grad[:-1, :-1] += wl * (-dxl) + wu * (-dyu)
        grad[1:, :-1] += wl * (dxl - dyl)
        grad[1:, 1:] += wl * dyl + wu * dxu
        grad[:-1, 1:] += wu * (dyu - dxu)
        grad = np.where(self.dof_mask, grad, 0.0)
        return e, grad

    # -- masses and p-norms ----------------------------------------------

    def pnorm_term(self, v: np.ndarray, p: float) -> float:
        """``sum mass * |v|^p`` over value-carrying nodes."""
        return float(np.sum(self.mass * np.abs(v) ** p))

    def pnorm_grad(self, v: np.ndarray, p: float) -> np.ndarray:
        g = p * self.mass * np.abs(v) ** (p - 1.0) * np.sign(v)
        return np.where(self.dof_mask, g, 0.0)

    def load_grad(self, f_vals: np.ndarray) -> np.ndarray:
        """Gradient of ``-sum mass f v`` (linear load term)."""
        return np.where(self.dof_mask, -self.mass * f_vals, 0.0)

    # -- element families, assembly patterns and factorizations -----------

    def _element_families(self) -> list:
        """Per admissible element family (segments in 1-D, lower then upper
        triangles in 2-D): the flat node index of each corner, the
        (plus, minus) corners of each gradient component and the unit
        gradient matrix ``B`` (``grad v = B v_corners / h``); built once."""
        if self._families is None:
            grid = self.grid
            if grid.dim == 1:
                kinds = zip((self.seg,), (_SEGMENTS,))
            else:
                kinds = zip((self.tri_low, self.tri_up), _TRIANGLES)
            self._families = []
            for mask, (corners, grads) in kinds:
                origin = np.nonzero(mask)
                nodes = [np.ravel_multi_index(tuple(o + d for o, d in zip(origin, c)),
                                              grid.shape) for c in corners]
                B = np.zeros((len(grads), len(corners)))
                for k, (plus, minus) in enumerate(grads):
                    B[k, plus], B[k, minus] = 1.0, -1.0
                self._families.append((nodes, grads, B))
        return self._families

    def _element_grads(self, v: np.ndarray) -> list[np.ndarray]:
        """Gradient components on every admissible element, in family order."""
        flat = v.ravel()
        return [np.concatenate([(flat[nodes[grads[k][0]]] - flat[nodes[grads[k][1]]]) / self.h
                                for nodes, grads, _ in self._element_families()])
                for k in range(self.grid.dim)]

    def _element_weights(self, v: np.ndarray, p: float, delta: float):
        """Element gradients ``g``, ``s = |g|^2 + delta^2`` and the weights
        ``w = s^{(p-2)/2}``, floored at 1e-12 of their maximum so that a
        matrix built from them stays positive definite where ``g``
        vanishes."""
        grads = self._element_grads(v)
        s = sum(g * g for g in grads) + delta * delta
        w = s ** (p / 2.0 - 1.0)
        return grads, s, np.maximum(w, 1e-12 * max(w.max(initial=0.0), 1e-300))

    def _measure(self) -> float:
        """Element measure over h^2: an element with coefficient tensor A
        adds ``measure * B^T A B`` to the matrix."""
        return 0.5 if self.grid.dim == 2 else 1.0 / self.h

    def _pattern(self):
        """CSC pattern on the dofs of the energy Hessian (every corner pair
        of every element, which adds each cell's diagonal to the 5-point
        stencil: 7 points) and the data slot of each element stamp; computed
        once per core.

        Stamps run over families, then corner pairs (``_corner_pairs``),
        then elements.  Returns ``(slot, diag, indices, indptr)``: stamp k
        adds to ``data[slot[k]]``, slot ``len(indices)`` collects the stamps
        that touch a non-dof, and ``diag`` holds the slots of the diagonal.
        """
        if self._csc_pattern is not None:
            return self._csc_pattern
        # stamp groups (nodes, a, b): one stamp per element of a family,
        # coupling corners a fixed flat-index offset apart, so the pattern is
        # a (column, offset) table; dofs are numbered in node order, so
        # offset order is row order in a column
        groups = [(nodes, a, b) for nodes, _, _ in self._element_families()
                  for a, b in _corner_pairs(len(nodes))]
        shift = [int(nodes[a][0] - nodes[b][0]) if len(nodes[0]) else 0
                 for nodes, a, b in groups]
        offsets = sorted(set(shift) | {0})
        m = len(self.dof_index)
        pos = np.full(int(np.prod(self.grid.shape)), -1, dtype=np.int32)
        pos[self.dof_index] = np.arange(m)
        # the diagonal is always in the pattern (Neumann adds its mass shift there)
        present = np.zeros((m, len(offsets)), dtype=bool)
        present[:, offsets.index(0)] = True
        cols = []
        for (nodes, a, b), d in zip(groups, shift):
            col = pos[nodes[b]]
            col[pos[nodes[a]] < 0] = -1
            present[col[col >= 0], offsets.index(d)] = True
            cols.append(col)
        nnz = int(present.sum())
        table = np.full(present.shape, nnz)  # slot nnz collects stamps off the dofs
        table[present] = np.arange(nnz)
        slot = np.concatenate([np.where(col >= 0, table[col, offsets.index(d)], nnz)
                               for col, d in zip(cols, shift)])
        col_idx, k_idx = np.nonzero(present)
        indices = pos[self.dof_index[col_idx] + np.asarray(offsets)[k_idx]]
        indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
        self._csc_pattern = (slot, table[:, offsets.index(0)], indices.astype(np.int32),
                             indptr.astype(np.int32))
        return self._csc_pattern

    @staticmethod
    def factor(matrix: sp.csc_matrix):
        """Sparse LU of a symmetric positive definite dof matrix.

        The Hessian has a symmetric pattern and a dominant diagonal, so a
        minimum-degree ordering of ``A^T + A`` keeps SuperLU's pivots on the
        diagonal and needs about half the fill of the default COLAMD
        ordering.  Stored zeros (at p = 2, the couplings along each cell's
        diagonal) are dropped first, on a copy that leaves the shared
        pattern intact, so that they cost no fill.
        """
        matrix = matrix.copy()
        matrix.eliminate_zeros()
        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")

    def _neumann_sigma(self) -> float:
        return 1.0 / max(self.grid.domain.bounding_box[2]
                         - self.grid.domain.bounding_box[0], 1.0) ** 2

    def _metric(self, v: np.ndarray, p: float, delta: float, shifted: bool) -> sp.csc_matrix:
        """The energy Hessian at ``v`` on the dofs; with ``shifted``, plus
        ``_neumann_sigma() * mean(w) * M`` for Neumann."""
        grads, s, w = self._element_weights(v, p, delta)
        r = np.divide(p - 2.0, s, out=np.zeros_like(s), where=s > 0.0) * w
        slot, diag, indices, indptr = self._pattern()
        vals = np.empty(len(slot))
        start = stop = 0
        for nodes, _, B in self._element_families():
            sl = slice(start, start + len(nodes[0]))
            start = sl.stop
            # B^T A B = w B^T B + r (B^T g)(B^T g)^T, in _pattern's stamp order
            cw, cr = self._measure() * w[sl], self._measure() * r[sl]
            bg = B.T @ np.stack([g[sl] for g in grads])
            btb = B.T @ B
            done = {}
            for a, b in _corner_pairs(len(nodes)):
                out = vals[stop:stop + len(nodes[0])]
                stop += len(nodes[0])
                if (b, a) in done:
                    out[:] = done[b, a]
                else:
                    np.multiply(cw, btb[a, b], out=out)
                    out += cr * bg[a] * bg[b]
                    done[a, b] = out
        data = np.bincount(slot, weights=vals, minlength=len(indices) + 1)[:-1]
        if shifted and self.bc == "neumann":
            scale = float(np.mean(w)) if len(w) else 1.0
            data[diag] += self._neumann_sigma() * scale * self.mass.ravel()[self.dof_index]
        m = len(self.dof_index)
        return sp.csc_matrix((data, indices, indptr), shape=(m, m))

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
        return self._metric(v, p, delta, shifted=False)

    def weighted_factor(self, v: np.ndarray, p: float, delta: float):
        """Factorized descent metric at ``v``: :meth:`hessian` plus, for
        Neumann, ``_neumann_sigma() * mean(w_T) * M`` with ``M`` the lumped
        mass, which makes it positive definite on the constants.  Returns an
        object with ``.solve`` usable via :meth:`precond_solve`.
        """
        return self.factor(self._metric(v, p, delta, shifted=True))

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
