"""Radial ball problems: closed-form torsion, eigenpairs from Bessel zeros,
and the two singular limits (Gaussian profile as p -> 1, plateau
nonuniqueness of the degenerate form for p > 2).

The normalized radial torsion profile is the exact parabola
``c(p,n)(R^2 - r^2)`` with ``c = p/(2(n-2+p))``; eigenvalues at p=2 are
Bessel (n=2) and sine (n=3) zeros, elsewhere RK4 shooting, library zeros of
integer and half-integer orders and the ODE residual of the profile check
them; everything else is pinned by scaling.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from plaplab.radial import (
    GaussianLimitReport,
    RadialError,
    gaussian_limit_p1,
    normalized_torsion_radial,
    plateau_family,
    radial_eigen_shoot,
    torsion_coefficient,
)


# ---------------------------------------------------------------------------
# torsion closed form


def test_torsion_coefficient_values():
    assert torsion_coefficient(2.0, 3) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert torsion_coefficient(3.0, 3) == pytest.approx(3.0 / 8.0, rel=1e-15)
    for p in (1.5, 2.0, 3.0, 10.0):
        assert torsion_coefficient(p, 2) == 0.5  # dimension 2: p drops out
    with pytest.raises(RadialError):
        torsion_coefficient(0.5, 2)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
@pytest.mark.parametrize("n", [2, 3])
def test_radial_torsion_residual_vanishes(p, n):
    prof = normalized_torsion_radial(p, n, 1.0)
    assert prof.max_residual < 1e-12
    assert prof.values[0] == pytest.approx(torsion_coefficient(p, n), rel=1e-15)
    assert prof.values[-1] == 0.0
    assert prof.derivative[0] == 0.0


def test_two_dimensional_profile_is_p_independent():
    base = normalized_torsion_radial(2.0, 2, 1.5)
    for p in (1.5, 3.0, 10.0):
        other = normalized_torsion_radial(p, 2, 1.5)
        assert float(np.max(np.abs(other.values - base.values))) < 1e-12


def test_radial_torsion_input_validation():
    with pytest.raises(RadialError):
        normalized_torsion_radial(2.0, 1, 1.0)
    with pytest.raises(RadialError):
        normalized_torsion_radial(2.0, 2, 0.0)
    for p, R in ((math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(RadialError):
            normalized_torsion_radial(p, 2, R)


# ---------------------------------------------------------------------------
# eigenpairs from Bessel zeros


def test_shoot_first_eigenvalue_matches_bessel():
    res = radial_eigen_shoot(2.0, 2, 1.0)
    assert abs(res.eigenvalue - oracles.bessel_dirichlet_eigenvalue(1)) < 1e-5
    assert res.mismatch < 1e-10
    assert res.interior_sign_changes == 0
    assert res.values[0] == pytest.approx(1.0, rel=1e-12)


def test_shoot_second_eigenvalue_matches_bessel():
    res = radial_eigen_shoot(2.0, 2, 1.0, k=2)
    assert abs(res.eigenvalue - oracles.bessel_dirichlet_eigenvalue(2)) < 1e-4
    assert res.interior_sign_changes == 1
    assert res.eigenvalue > radial_eigen_shoot(2.0, 2, 1.0).eigenvalue


def test_shoot_three_dimensional_sine_mode():
    res = radial_eigen_shoot(2.0, 3, 1.0)
    assert res.eigenvalue == pytest.approx(math.pi**2 / 2.0, rel=1e-10)


def test_shoot_eigenvalue_scales_as_inverse_radius_squared():
    lam1 = radial_eigen_shoot(2.0, 2, 1.0).eigenvalue
    lam2 = radial_eigen_shoot(2.0, 2, 2.0).eigenvalue
    assert abs(lam2 - lam1 / 4.0) <= 1e-8 * lam2


@pytest.mark.parametrize("p,n,R,k", [(2.0, 2, 1.0, 2), (1.1, 2, 1.0, 1),
                                     (3.0, 3, 1.0, 1), (32.0, 2, 1.0, 1)])
def test_closed_form_matches_rk4_shooting(p, n, R, k):
    # Bessel orders 0, 4.5, 0 and -0.484
    res = radial_eigen_shoot(p, n, R, k=k)
    oracle = oracles.radial_eigen_rk4(p, n, R, k=k)
    assert abs(res.eigenvalue - oracle) <= 1e-11 * oracle
    assert res.interior_sign_changes == k - 1


def _ode_residual(res, drift):
    """Max of ``(p-1)v'' + (n-1)/r drift + p lam v`` over the interior
    radii, v'' by second differences, relative to p lam (sup |v| = 1)."""
    h = res.r[1] - res.r[0]
    v = res.values
    d2v = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    out = ((res.p - 1.0) * d2v + (res.n - 1.0) / res.r[1:-1] * drift
           + res.p * res.eigenvalue * v[1:-1])
    return float(np.max(np.abs(out))) / (res.p * res.eigenvalue)


@pytest.mark.parametrize("p,lam", [(1.01, 31.7127808), (1.02, 17.9364604),
                                   (1.04, 10.7242904)])
def test_eigenpairs_near_p_one(p, lam):
    # Bessel orders 49.5, 24.5 and 12: half-integer orders against the
    # zeros of spherical Bessel functions, the integer one against jn_zeros
    res = radial_eigen_shoot(p, 2, 1.0)
    assert res.eigenvalue == pytest.approx(lam, rel=1e-8)
    oracle = oracles.bessel_order_eigenvalue(p, 2)
    assert abs(res.eigenvalue - oracle) <= 1e-12 * oracle
    assert abs(res.values[-1]) < 1e-15
    assert res.values[0] == 1.0
    h = res.r[1] - res.r[0]
    assert _ode_residual(res, (res.values[2:] - res.values[:-2]) / (2.0 * h)) <= 1e-4
    assert _ode_residual(res, res.derivative[1:-1]) <= 1e-4


@pytest.mark.parametrize("p", [1.01, 1.02])
def test_second_eigenpair_near_p_one(p):
    # orders 49.5 and 24.5; at p = 1.01 the negative lobe stays below 1e-8
    # of the sup, yet it is one exact sign change of the closed form
    res = radial_eigen_shoot(p, 2, 1.0, k=2)
    oracle = oracles.bessel_order_eigenvalue(p, 2, k=2)
    assert abs(res.eigenvalue - oracle) <= 1e-12 * oracle
    assert res.interior_sign_changes == 1


def test_profile_beyond_float_range_raises():
    # order 499.5: J_nu underflows where the power series stops
    with pytest.raises(RadialError, match="underflows"):
        radial_eigen_shoot(1.001, 2, 1.0)


def test_shoot_input_validation():
    with pytest.raises(RadialError):
        radial_eigen_shoot(1.0, 2, 1.0)
    with pytest.raises(RadialError):
        radial_eigen_shoot(2.0, 2, 1.0, k=0)
    with pytest.raises(RadialError):
        radial_eigen_shoot(2.0, 1, 1.0)
    for R in (math.nan, math.inf):
        with pytest.raises(RadialError):
            radial_eigen_shoot(2.0, 2, R)


# ---------------------------------------------------------------------------
# p -> 1 Gaussian limit


@pytest.fixture(scope="module")
def gaussian_report() -> GaussianLimitReport:
    return gaussian_limit_p1(2.0, 2, 1.0, (1.5, 1.2, 1.1))


def test_gaussian_solves_limit_equation(gaussian_report):
    assert gaussian_report.formal_residual < 1e-12
    assert gaussian_report.boundary_ratio == pytest.approx(math.exp(-1.0),
                                                           rel=1e-14)


def test_profiles_approach_gaussian_as_p_drops(gaussian_report):
    sups = [e.sup_distance_interior for e in gaussian_report.entries]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 0.1  # p = 1.1 hugs the Gaussian away from the layer
    widths = [e.layer_width for e in gaussian_report.entries]
    assert all(b <= a for a, b in zip(widths, widths[1:]))


def test_gaussian_input_validation():
    with pytest.raises(RadialError):
        gaussian_limit_p1(0.0, 2, 1.0, (1.5,))
    with pytest.raises(RadialError):
        gaussian_limit_p1(2.0, 2, -1.0, (1.5,))
    for lam, R in ((math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(RadialError):
            gaussian_limit_p1(lam, 2, R, (1.5,))


# ---------------------------------------------------------------------------
# plateau family (degenerate-form nonuniqueness)


def test_plateau_solves_degenerate_form_in_one_dimension():
    res = plateau_family(3.0, 1, 1.0, 0.5)
    assert res.max_residual_a == 0.0
    assert res.gap_to_b > 0.0


def test_plateau_residual_closed_form_in_the_plane():
    # residual on (rho, R]: -(2c)^(p-2) (r-rho)^(p-2) p (n-1) rho / (r (n+p-2));
    # for p=3, n=2, rho=1/2, R=1 its magnitude peaks at r=R with value 1/4
    res = plateau_family(3.0, 2, 1.0, 0.5)
    assert res.max_residual_a == pytest.approx(0.25, rel=1e-12)
    assert res.gap_to_b == pytest.approx(0.375, rel=1e-12)
    # flat part is genuinely flat and continuous at the junction
    flat = res.r <= 0.5
    assert np.all(res.derivative[flat] == 0.0)
    assert float(np.max(np.abs(np.diff(res.values)))) < 2e-3


def test_plateau_input_validation():
    with pytest.raises(RadialError):
        plateau_family(2.0, 2, 1.0, 0.5)  # needs p > 2
    with pytest.raises(RadialError):
        plateau_family(3.0, 2, 1.0, 1.5)  # rho inside (0, R)
    with pytest.raises(RadialError):
        plateau_family(3.0, 0, 1.0, 0.5)
