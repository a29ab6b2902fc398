"""Radial solvers and closed-form verifiers for normalized p-Laplacian
problems on balls.

With the radial ansatz ``u(x) = v(|x|)`` on a ball of radius R the
normalized torsion problem becomes

    -(p-1) v'' - (n-1)/r v' = p,       v'(0) = 0 = v(R),

solved in closed form by ``v = c(p,n)(R^2 - r^2)`` with
``c = p/(2(n-2+p))``, and the normalized eigenvalue problem becomes

    (p-1) v'' + (n-1)/r v' + p lam v = 0,   v'(0) = 0 = v(R),

which is Bessel's equation of order ``nu = (n-p)/(2(p-1))`` in the
effective dimension ``(n-1)/(p-1) + 1``: its eigenvalues are
``lam_k = ((p-1)/p) (j_{nu,k}/R)^2`` and its profiles ``r^-nu J_nu(j r/R)``,
computed here from the Bessel zeros (Kawohl, Kroemer & Kurtz, Differential
Integral Equations 27, 2014).  Two singular limits round out
the module: as p -> 1 the first eigenprofile approaches the Gaussian
``exp(-lam r^2 / (2(n-1)))`` away from a boundary layer at r = R, and for
p > 2 the shifted-parabola "plateau" family shows how the equation
multiplied through by ``|v'|^(p-2)`` admits spurious piecewise solutions;
the family solves that degenerate form exactly only in one dimension, and
``plateau_family`` reports its genuine residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialError",
    "RadialProfile",
    "ShootingResult",
    "GaussianComparison",
    "GaussianLimitReport",
    "PlateauResult",
    "torsion_coefficient",
    "normalized_torsion_radial",
    "radial_eigen_shoot",
    "gaussian_limit_p1",
    "plateau_family",
]


class RadialError(RuntimeError):
    """Invalid radial-problem input or a profile that is not finite."""


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial profile v(r) on [0, R] with derivative and per-sample
    equation residual."""

    p: float
    n: int
    R: float
    r: np.ndarray
    values: np.ndarray
    derivative: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        scale = float(np.max(np.abs(self.derivative))) + 1e-300
        if abs(float(self.derivative[0])) > 1e-5 * scale + 1e-12:
            raise RadialError("radial profile must have v'(0) = 0")

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))


@dataclass(frozen=True)
class ShootingResult:
    """k-th radial eigenvalue with its profile.

    ``eigenvalue`` scales as R^-2; ``mismatch`` is |v(R)| relative to the
    profile's sup, at rounding level for the closed form; the profile has
    exactly ``index - 1`` interior sign changes.
    """

    p: float
    n: int
    R: float
    index: int
    eigenvalue: float
    r: np.ndarray
    values: np.ndarray
    derivative: np.ndarray
    mismatch: float

    def __post_init__(self):
        if self.mismatch > 1e-10:
            raise RadialError(
                f"boundary mismatch {self.mismatch:.3e} exceeds 1e-10")
        if self.interior_sign_changes != self.index - 1:
            raise RadialError(
                f"eigenvalue of index {self.index} must oscillate "
                f"{self.index - 1} times, found {self.interior_sign_changes}")

    @property
    def interior_sign_changes(self) -> int:
        """Sign changes among the nonzero samples: the closed form's signs
        are exact away from the zeros, however small the outer lobes."""
        v = self.values[:-1]  # boundary zero excluded
        s = np.sign(v[v != 0.0])
        return int(np.sum(s[1:] != s[:-1]))


def torsion_coefficient(p: float, n: int) -> float:
    """``c(p, n) = p / (2(n - 2 + p))``; nondecreasing in p for n >= 2."""
    if not 1.0 <= p < math.inf or n < 1 or n - 2 + p <= 0.0:
        raise RadialError("torsion coefficient requires 1 <= p < inf and n - 2 + p > 0")
    return p / (2.0 * (n - 2.0 + p))


def normalized_torsion_radial(p: float, n: int, R: float) -> RadialProfile:
    """Closed-form normalized torsion profile ``c(p,n)(R^2 - r^2)`` on 513
    equispaced radii of [0, R], with the per-sample residual of
    ``-(p-1)v'' - (n-1)/r v' - p``.

    At r = 0 the drift term is evaluated by its symmetry limit
    ``(n-1) v''(0)``.  In two dimensions c = 1/2 for every p.
    """
    if n < 2:
        raise RadialError("radial torsion requires dimension n >= 2")
    if not 0.0 < R < math.inf:
        raise RadialError("ball radius must be positive and finite")
    c = torsion_coefficient(p, n)
    r = np.linspace(0.0, R, 513)
    v = c * (R * R - r * r)
    dv = -2.0 * c * r
    d2v = np.full_like(r, -2.0 * c)
    drift = np.empty_like(r)
    drift[1:] = (n - 1.0) / r[1:] * dv[1:]
    drift[0] = (n - 1.0) * d2v[0]
    residual = -(p - 1.0) * d2v - drift - p
    return RadialProfile(p=p, n=n, R=R, r=r, values=v, derivative=dv,
                         residual=residual)


# ---------------------------------------------------------------------------
# eigenpairs from Bessel zeros


def _bessel_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu for nu > -1/2.

    J_nu is positive on (0, max(nu, 0)] and its zeros lie more than 2.9
    apart, so a unit-step scan from there crosses one zero per sign
    change; bisection then closes the bracket to adjacent floats.
    """
    from scipy.special import jv

    lo, sign = max(nu, 0.0), 1.0  # sign of J_nu at lo
    for index in range(1, k + 1):
        hi = lo + 1.0
        while sign * jv(nu, hi) > 0.0:
            lo, hi = hi, hi + 1.0
        if index < k:
            lo, sign = hi, -sign
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if sign * jv(nu, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bessel_profile(nu: float, x: np.ndarray) -> np.ndarray:
    """``phi_nu(x) = Gamma(nu+1) (2/x)^nu J_nu(x)``, so phi_nu(0) = 1.

    Where x^2 <= 4(nu+1) the power series ``sum_m (-x^2/4)^m / (m!
    (nu+1)_m)`` has terms falling in modulus from 1, so it neither cancels
    nor meets the underflow of J_nu(x) at small x for large nu; beyond it
    the prefactor is formed in logarithms.  J_nu underflows there too once
    nu exceeds about 350, and the profile is then not finite.
    """
    from scipy.special import gammaln, jv

    out = np.empty_like(x)
    near = x * x <= 4.0 * (nu + 1.0)
    y = -0.25 * x[near] ** 2
    term = np.ones_like(y)
    total = np.ones_like(y)
    m = 0
    while np.max(np.abs(term), initial=0.0) > 1e-17:
        m += 1
        term *= y / (m * (nu + m))
        total += term
    out[near] = total
    far = x[~near]
    with np.errstate(over="ignore", invalid="ignore"):
        out[~near] = (np.exp(gammaln(nu + 1.0) + nu * np.log(2.0 / far))
                      * jv(nu, far))
    return out


def radial_eigen_shoot(p: float, n: int, R: float, k: int = 1) -> ShootingResult:
    """k-th radial eigenvalue and its profile in closed form.

    The equation is Bessel's in the effective dimension
    ``(n-1)/(p-1) + 1``: with ``nu = (n-p)/(2(p-1)) > -1/2`` and
    ``kappa = j_{nu,k}/R`` the eigenpair is ``lam = ((p-1)/p) kappa^2`` and
    ``v(r) = phi_nu(kappa r)``, ``v'(r) = -kappa^2 r phi_{nu+1}(kappa r) /
    (2(nu+1))``, sampled on 2049 equispaced radii of [0, R] for every p.
    Since |phi_nu| <= 1 = phi_nu(0), the profile is sup-normalized.  In the
    plane the first eigenpair is finite down to p = 1.0014 (nu = 357).
    """
    if not (p > 1.0 and math.isfinite(p)):
        raise RadialError("radial eigenpairs require 1 < p < inf")
    if n < 2 or not 0.0 < R < math.inf or k < 1:
        raise RadialError("need dimension n >= 2, finite radius R > 0 and index k >= 1")
    nu = (n - p) / (2.0 * (p - 1.0))
    kappa = _bessel_zero(nu, k) / R
    r = np.linspace(0.0, R, 2049)
    v = _bessel_profile(nu, kappa * r)
    w = -kappa * kappa * r * _bessel_profile(nu + 1.0, kappa * r) / (2.0 * (nu + 1.0))
    if not (np.isfinite(v).all() and np.isfinite(w).all()):
        raise RadialError(f"Bessel profile of order {nu:.4g} underflows")
    return ShootingResult(p=p, n=n, R=R, index=k,
                          eigenvalue=(p - 1.0) / p * kappa * kappa,
                          r=r, values=v, derivative=w, mismatch=abs(float(v[-1])))


# ---------------------------------------------------------------------------
# p -> 1 Gaussian limit


@dataclass(frozen=True)
class GaussianComparison:
    p: float
    eigenvalue: float
    sup_distance_interior: float
    layer_onset: float
    layer_width: float


@dataclass(frozen=True)
class GaussianLimitReport:
    """First radial eigenprofiles against the p -> 1 Gaussian limit.

    The limit equation ``(n-1)/r v' + lam v = 0`` is solved by
    ``exp(-lam r^2/(2(n-1)))``, which never reaches zero: ``boundary_ratio``
    quantifies the classical boundary-condition violation v(R)/v(0).  Each
    entry compares the first eigenprofile at its own eigenvalue with the
    matching Gaussian: sup distance on [0, 0.9 R] plus the boundary layer
    (onset = last radius where the deviation is within 0.1, on profiles
    normalized to v(0) = 1).
    """

    n: int
    R: float
    lam: float
    formal_residual: float
    boundary_ratio: float
    entries: tuple[GaussianComparison, ...]


def gaussian_limit_p1(lam: float, n: int, R: float, p_list) -> GaussianLimitReport:
    if n < 2 or not 0.0 < R < math.inf or not 0.0 < lam < math.inf:
        raise RadialError("need n >= 2 and finite R > 0 and lam > 0")
    r = np.linspace(0.0, R, 2049)[1:]
    g = np.exp(-lam * r * r / (2.0 * (n - 1.0)))
    gp = -lam * r / (n - 1.0) * g
    formal = float(np.max(np.abs((n - 1.0) / r * gp + lam * g)))
    entries = []
    for p in p_list:
        shot = radial_eigen_shoot(float(p), n, R, k=1)
        prof = shot.values / shot.values[0]
        gauss = np.exp(-shot.eigenvalue * shot.r ** 2 / (2.0 * (n - 1.0)))
        dev = np.abs(prof - gauss)
        interior = shot.r <= 0.9 * R
        inside = np.flatnonzero(dev <= 0.1)
        onset = float(shot.r[inside[-1]]) if len(inside) else 0.0
        entries.append(GaussianComparison(
            p=float(p), eigenvalue=shot.eigenvalue,
            sup_distance_interior=float(np.max(dev[interior])),
            layer_onset=onset, layer_width=float(R - onset)))
    return GaussianLimitReport(
        n=n, R=R, lam=float(lam), formal_residual=formal,
        boundary_ratio=float(math.exp(-lam * R * R / (2.0 * (n - 1.0)))),
        entries=tuple(entries))


# ---------------------------------------------------------------------------
# plateau nonuniqueness family


@dataclass(frozen=True)
class PlateauResult:
    """Shifted-parabola plateau profile and its residual in the degenerate
    torsion form ``-(p-1)|v'|^(p-2) v'' - (n-1)/r |v'|^(p-2) v' - p|v'|^(p-2)``.

    On the plateau [0, rho] every term carries the factor |v'|^(p-2) = 0
    (p > 2), so the residual vanishes there by convention.  On (rho, R] the
    residual reduces to ``-(2c)^(p-2) (r-rho)^(p-2) p (n-1) rho /
    (r (n+p-2))``: identically zero in one dimension, where the family
    genuinely solves the degenerate form, and nonzero for n >= 2.
    ``gap_to_b`` is the sup distance to the unique normalized-torsion
    solution ``c (R^2 - r^2)``.
    """

    p: float
    n: int
    R: float
    rho: float
    r: np.ndarray
    values: np.ndarray
    derivative: np.ndarray
    residual_a: np.ndarray
    gap_to_b: float

    @property
    def max_residual_a(self) -> float:
        return float(np.max(np.abs(self.residual_a)))


def plateau_family(p: float, n: int, R: float, rho: float) -> PlateauResult:
    """The plateau profile of radius ``rho`` on 1025 equispaced radii of [0, R]."""
    if not p > 2.0:
        raise RadialError("the plateau family requires p > 2")
    if n < 1:
        raise RadialError("dimension must be >= 1")
    if not 0.0 < rho < R:
        raise RadialError("plateau radius must satisfy 0 < rho < R")
    c = torsion_coefficient(p, n)
    r = np.linspace(0.0, R, 1025)
    flat = r <= rho
    v = np.where(flat, c * (R - rho) ** 2,
                 c * ((R - rho) ** 2 - (r - rho) ** 2))
    dv = np.where(flat, 0.0, -2.0 * c * (r - rho))
    d2v = np.where(flat, 0.0, -2.0 * c)
    speed = np.abs(dv) ** (p - 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.where(r > 0, (n - 1.0) / np.where(r > 0, r, 1.0) * speed * dv, 0.0)
    residual = np.where(flat, 0.0,
                        -(p - 1.0) * speed * d2v - drift - p * speed)
    vb = c * (R * R - r * r)
    return PlateauResult(p=p, n=n, R=R, rho=rho, r=r, values=v, derivative=dv,
                         residual_a=residual,
                         gap_to_b=float(np.max(np.abs(v - vb))))
