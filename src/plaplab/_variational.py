"""Shared discrete variational machinery for the Dirichlet and eigenvalue
solvers.

The lattice is triangulated by splitting each cell along the same diagonal:
lower triangle (i,j)-(i+1,j)-(i+1,j+1), upper triangle (i,j)-(i+1,j+1)-
(i,j+1).  Affine elements give per-triangle gradients

    lower: ( (v10-v00)/h , (v11-v10)/h )
    upper: ( (v11-v01)/h , (v01-v00)/h )

so the regularized p-Dirichlet energy and its gradient are a handful of
shifted-array operations.  For p = 2 this energy reduces exactly to the
classical 5-point scheme, whose sparse factorization is the first descent
metric for all p.  :meth:`VariationalCore.weighted_factor` refactors the same
stiffness pattern with Picard (lagged-diffusivity) element weights; the
solvers rebuild that metric at most every ``METRIC_REFRESH`` accepted steps.
Masses are lumped (one third of each incident triangle's area), which keeps
boundary quadrature first-order consistent.

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

#: accepted descent steps a Picard metric serves at least before it is rebuilt
METRIC_REFRESH = 12


class VariationalCore:
    """Energy/gradient evaluations, a factorized p=2 preconditioner and
    Picard refactorizations on the same stiffness pattern."""

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
        self._pattern = None
        self._factor_p2 = None

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

    # -- stiffness pattern and preconditioners ----------------------------

    def _stiffness_pattern(self):
        """CSC pattern of the dof-restricted P1 stiffness and where each
        element stamp lands in its data vector; computed once per core.

        Returns ``(elem, coef, slot, diag, indices, indptr)``: stamp entry k
        adds ``coef[k] * w[elem[k]]`` to ``data[slot[k]]`` for weights ``w``
        of the admissible elements (segments in 1-D, lower then upper
        triangles in 2-D); ``diag`` holds the slots of the diagonal.
        """
        if self._pattern is not None:
            return self._pattern
        shape = self.grid.shape
        if self.grid.dim == 1:
            idx = np.flatnonzero(self.seg)
            k = 1.0 / self.h
            families = [([idx, idx + 1], {(0, 0): k, (1, 1): k, (0, 1): -k, (1, 0): -k})]
        else:
            ii, jj = np.meshgrid(np.arange(shape[0] - 1), np.arange(shape[1] - 1),
                                 indexing="ij")
            # element stiffness of a right isoceles P1 triangle with legs h:
            # E = 1/4[(v_b - v_a)^2 + (v_c - v_b)^2] for corner order a, b, c
            stamp = {(0, 0): 0.5, (1, 1): 1.0, (2, 2): 0.5,
                     (0, 1): -0.5, (1, 0): -0.5, (1, 2): -0.5, (2, 1): -0.5}
            families = []
            for tri, corners in ((self.tri_low, ((0, 0), (1, 0), (1, 1))),
                                 (self.tri_up, ((0, 0), (0, 1), (1, 1)))):
                sel = tri.ravel()
                families.append(([((ii + di) * shape[1] + jj + dj).ravel()[sel]
                                  for (di, dj) in corners], stamp))
        elem, rows, cols, coef = [], [], [], []
        offset = 0
        for nodes, stamp in families:
            e = offset + np.arange(len(nodes[0]))
            offset += len(e)
            for (a, b), w in stamp.items():
                elem.append(e)
                rows.append(nodes[a])
                cols.append(nodes[b])
                coef.append(np.full(len(e), w))
        m = len(self.dof_index)
        pos = np.full(int(np.prod(shape)), -1)
        pos[self.dof_index] = np.arange(m)
        r, c = pos[np.concatenate(rows)], pos[np.concatenate(cols)]
        keep = (r >= 0) & (c >= 0)
        # column-major keys; the diagonal is always in the pattern (Neumann
        # adds its mass shift there)
        keys = np.concatenate([c[keep] * m + r[keep], np.arange(m) * (m + 1)])
        uniq, slots = np.unique(keys, return_inverse=True)
        n_stamp = int(keep.sum())
        indptr = np.searchsorted(uniq // m, np.arange(m + 1))
        self._pattern = (np.concatenate(elem)[keep], np.concatenate(coef)[keep],
                         slots[:n_stamp], slots[n_stamp:],
                         (uniq % m).astype(np.int32), indptr.astype(np.int32))
        return self._pattern

    def _factor(self, weights: np.ndarray | None, mass_shift: float):
        """LU of the element-weighted stiffness on the dofs (unit weights for
        ``None``), plus ``mass_shift`` times the lumped mass for Neumann.

        The matrix is a symmetric M-matrix, so a minimum-degree ordering of
        ``A^T + A`` keeps SuperLU's pivots on the diagonal and needs about
        half the fill of the default COLAMD ordering.
        """
        elem, coef, slot, diag, indices, indptr = self._stiffness_pattern()
        vals = coef if weights is None else coef * weights[elem]
        data = np.bincount(slot, weights=vals, minlength=len(indices))
        if self.bc == "neumann":
            data[diag] += mass_shift * self.mass.ravel()[self.dof_index]
        m = len(self.dof_index)
        return spla.splu(sp.csc_matrix((data, indices, indptr), shape=(m, m)),
                         permc_spec="MMD_AT_PLUS_A")

    def _neumann_sigma(self) -> float:
        return 1.0 / max(self.grid.domain.bounding_box[2]
                         - self.grid.domain.bounding_box[0], 1.0) ** 2

    def _preconditioner(self):
        if self._factor_p2 is None:
            self._factor_p2 = self._factor(None, self._neumann_sigma())
        return self._factor_p2

    def weighted_factor(self, v: np.ndarray, p: float, delta: float):
        """Factorized lagged-diffusivity metric ``sum_T w_T E_T`` with
        ``w_T = (|grad v|_T^2 + delta^2)^{(p-2)/2}``.

        This is the Picard linearization of the p-energy around ``v``;
        weights are floored at 1e-12 of their maximum to keep the matrix
        positive definite where the gradient vanishes.  Returns an object
        with ``.solve`` usable via :meth:`precond_solve`.
        """
        if self.grid.dim == 1:
            g2 = (((v[1:] - v[:-1]) / self.h) ** 2)[self.seg]
        else:
            dxl, dyl, dxu, dyu = self._tri_grads(v)
            g2 = np.concatenate([(dxl**2 + dyl**2)[self.tri_low],
                                 (dxu**2 + dyu**2)[self.tri_up]])
        w = (g2 + delta * delta) ** (p / 2.0 - 1.0)
        w = np.maximum(w, 1e-12 * max(w.max(initial=0.0), 1e-300))
        scale = float(np.mean(w)) if len(w) else 1.0
        return self._factor(w, self._neumann_sigma() * scale)

    def precond_solve(self, grad: np.ndarray, factor=None) -> np.ndarray:
        """Apply an inverse metric (default: the p=2 stiffness, shifted for
        Neumann) to a gradient array; returns a full-shape array supported
        on the dofs."""
        if factor is None:
            factor = self._preconditioner()
        g = grad.ravel()[self.dof_index]
        d = factor.solve(g)
        out = np.zeros(int(np.prod(self.grid.shape)))
        out[self.dof_index] = d
        return out.reshape(self.grid.shape)


def make_core(grid: Grid, bc: str) -> VariationalCore:
    """The core of ``(grid, bc)``, built on first use and kept on the grid
    (grids are immutable), so that it and its factorization are freed with
    the grid."""
    cores = grid.__dict__.setdefault("_variational_cores", {})
    core = cores.get(bc)
    if core is None:
        core = cores[bc] = VariationalCore(grid, bc)
    return core
