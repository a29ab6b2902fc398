"""Grids, node classification, and differential operators.

Central differences reproduce polynomials of degree <= 2 exactly, so most
operator tests are exact; cross-validation pairs (expanded vs divergence
form, Laplacian vs intrinsic decomposition) bound each implementation by
the other at second order in h.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from plaplab._variational import make_core
from plaplab.fields import (
    _derivs,
    _normalized_stencil,
    _stencil_work,
    FieldError,
    Grid,
    GridError,
    ScalarField,
    build_grid,
    coarse_grid,
    default_grad_floor,
    field_csv_rows,
    gradient,
    infinity_laplacian,
    intrinsic_decomposition,
    laplacian,
    normalized_p_laplacian,
    p_laplacian,
    p_laplacian_divergence_form,
    prolong,
    sample_at,
)
from plaplab.geometry import Domain


def _deep_interior(grid: Grid) -> np.ndarray:
    """Interior nodes whose full 8-neighborhood is interior."""
    inner = grid.interior
    deep = inner.copy()
    for ax in range(inner.ndim):
        for sh in (1, -1):
            deep &= np.roll(inner, sh, axis=ax)
    if inner.ndim == 2:
        for sx in (1, -1):
            for sy in (1, -1):
                deep &= np.roll(np.roll(inner, sx, axis=0), sy, axis=1)
    return deep


# ---------------------------------------------------------------------------
# grid construction


def test_square_grid_counts_and_spacing():
    g = build_grid(Domain.unit_square(), 16)
    assert g.h == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert g.shape == (17, 17)
    assert g.nonexterior.all()
    assert int(np.count_nonzero(g.interior)) == 15 * 15
    assert int(np.count_nonzero(g.boundary)) == 17 * 17 - 15 * 15


def test_rectangle_grid_uses_longest_side():
    g = build_grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 16)
    assert g.h == pytest.approx(2.0 / 16.0, rel=1e-15)
    assert g.shape == (17, 9)


def test_interval_grid_is_one_dimensional():
    g = build_grid(Domain.interval(0.0, 1.0), 16)
    assert g.dim == 1
    assert g.shape == (17,)
    assert int(np.count_nonzero(g.interior)) == 15
    assert int(np.count_nonzero(g.boundary)) == 2


def test_disc_grid_has_exterior_ring():
    g = build_grid(Domain.disc((0.0, 0.0), 1.0), 32)
    assert not g.nonexterior.all()
    assert np.count_nonzero(g.interior) > 0
    # corners of the bounding box lie outside the disc
    assert not g.nonexterior[0, 0] and not g.nonexterior[-1, -1]


def test_grid_resolution_errors():
    with pytest.raises(GridError):
        build_grid(Domain.unit_square(), 7)
    with pytest.raises(GridError):
        build_grid(Domain.rectangle(0.0, 0.0, 1.0, 0.01), 8)


# ---------------------------------------------------------------------------
# fields


def test_from_function_zeroes_exterior():
    g = build_grid(Domain.disc((0.0, 0.0), 1.0), 32)
    u = ScalarField.from_function(g, lambda x, y: np.ones_like(x))
    assert u.values[0, 0] == 0.0
    assert u.sup_norm() == 1.0
    assert u.oscillation() == 0.0


def test_field_shape_mismatch_rejected():
    g = build_grid(Domain.unit_square(), 16)
    with pytest.raises(FieldError):
        ScalarField(g, np.zeros((5, 5)))


def test_sample_at_reproduces_linear_fields():
    g = build_grid(Domain.unit_square(), 16)
    u = ScalarField.from_function(g, lambda x, y: 2.0 * x + 3.0 * y - 1.0)
    pts = np.array([[0.21, 0.37], [0.5, 0.5], [0.93, 0.08]])
    assert np.allclose(sample_at(u, pts), 2.0 * pts[:, 0] + 3.0 * pts[:, 1] - 1.0,
                       atol=1e-13)


# ---------------------------------------------------------------------------
# nested lattices


NESTING = {"square": (Domain.unit_square(), 32),
           "rectangle": (Domain.rectangle(0.0, 0.0, 2.0, 1.0), 32),
           "interval": (Domain.interval(-1.0, 1.0), 32)}


@pytest.mark.parametrize("name", sorted(NESTING))
def test_coarse_grid_takes_every_other_node(name):
    domain, n = NESTING[name]
    fine = build_grid(domain, n)
    coarse = coarse_grid(fine)
    assert coarse.n == n // 2 and coarse.h == pytest.approx(2.0 * fine.h, rel=1e-15)
    every_other = (slice(None, None, 2),) * fine.dim
    assert np.array_equal(coarse.codes, fine.codes[every_other])
    assert np.allclose(coarse.xs, fine.xs[::2], rtol=0.0, atol=1e-15)


def test_lattices_that_do_not_nest():
    assert coarse_grid(build_grid(Domain.unit_square(), 33)) is None  # odd n
    assert coarse_grid(build_grid(Domain.unit_square(), 14)) is None  # n/2 < 8
    # 2 x 1 with 25 cells across the short side: the half lattice overshoots it
    assert coarse_grid(build_grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 50)) is None
    # the disc's collar scales with h, so shared nodes change class
    for n in (32, 64, 128):
        assert coarse_grid(build_grid(Domain.disc((0.0, 0.0), 1.0), n)) is None


@pytest.mark.parametrize("name", sorted(NESTING))
@pytest.mark.parametrize("p", [1.5, 2.0, 15.0])
def test_prolongation_keeps_the_p1_energy(name, p):
    # V_2h lies in V_h: the fine P1 energy of the prolonged field is the
    # coarse energy, summed over four times as many elements
    domain, n = NESTING[name]
    fine = build_grid(domain, n)
    coarse = coarse_grid(fine)
    rng = np.random.default_rng(int(10 * p) + len(name))
    u = ScalarField(coarse, rng.standard_normal(coarse.shape))
    v = prolong(u, fine)
    assert np.array_equal(v.values[(slice(None, None, 2),) * fine.dim], u.values)
    e_coarse = make_core(coarse, "neumann").energy(u.values, p, 0.0)
    e_fine = make_core(fine, "neumann").energy(v.values, p, 0.0)
    assert e_fine == pytest.approx(e_coarse, rel=1e-13)


def test_prolongation_is_exact_on_affine_fields():
    fine = build_grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 32)
    coarse = coarse_grid(fine)

    def affine(x, y):
        return 2.0 * x - 3.0 * y + 0.5

    v = prolong(ScalarField.from_function(coarse, affine), fine)
    assert np.allclose(v.values, ScalarField.from_function(fine, affine).values,
                       rtol=0.0, atol=1e-14)
    with pytest.raises(FieldError):
        prolong(ScalarField.from_function(coarse, affine), build_grid(Domain.unit_square(), 32))


def test_field_csv_rows_cover_nonexterior():
    g = build_grid(Domain.unit_square(), 16)
    u = ScalarField.from_function(g, lambda x, y: x + y)
    rows = list(field_csv_rows(u))
    assert len(rows) == int(np.count_nonzero(g.nonexterior))
    assert rows[0] == (0.0, 0.0, 0.0)
    assert rows[-1] == (1.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# derivative operators: exact on quadratics


def test_gradient_and_laplacian_exact_on_quadratics():
    g = build_grid(Domain.unit_square(), 16)
    u = ScalarField.from_function(g, lambda x, y: x**2 + 3.0 * x * y + 2.0 * y**2)
    gx, gy = gradient(u)
    xs, ys = g.coordinates()
    inner = g.interior
    assert np.allclose(gx.values[inner], (2.0 * xs + 3.0 * ys)[inner], atol=1e-13)
    assert np.allclose(gy.values[inner], (3.0 * xs + 4.0 * ys)[inner], atol=1e-13)
    assert np.allclose(laplacian(u).values[inner], 6.0, atol=1e-12)


def test_infinity_laplacian_exact_on_quadratics():
    g = build_grid(Domain.unit_square(), 16)
    u = ScalarField.from_function(g, lambda x, y: x**2 + 3.0 * x * y + 2.0 * y**2)
    tri = infinity_laplacian(u, grad_floor=0.0)
    xs, ys = g.coordinates()
    ux, uy = 2.0 * xs + 3.0 * ys, 3.0 * xs + 4.0 * ys
    expect = ux**2 * 2.0 + 2.0 * ux * uy * 3.0 + uy**2 * 4.0
    assert np.allclose(tri.values[g.interior], expect[g.interior], rtol=1e-12)


def test_degenerate_gradient_nodes_are_flagged():
    g = build_grid(Domain.unit_square(), 16)
    u = ScalarField.from_function(g, lambda x, y: (x - 0.5)**2 + (y - 0.5)**2)
    tri = infinity_laplacian(u)
    center = (np.abs(g.xs - 0.5) < 1e-12)[:, None] & (np.abs(g.ys - 0.5) < 1e-12)[None, :]
    assert tri.flagged[center].all()
    assert int(np.count_nonzero(tri.flagged)) == 1
    assert default_grad_floor(u) > 0.0


def test_constant_field_has_zero_grad_floor():
    g = build_grid(Domain.unit_square(), 16)
    u = ScalarField.from_function(g, lambda x, y: np.full_like(x, 3.0))
    assert default_grad_floor(u) == 0.0


# ---------------------------------------------------------------------------
# p-Laplacian family


def test_p_laplacian_rejects_bad_exponents():
    g = build_grid(Domain.unit_square(), 16)
    u = ScalarField.from_function(g, lambda x, y: x + y)
    with pytest.raises(FieldError):
        p_laplacian(u, 1.0)
    with pytest.raises(FieldError):
        p_laplacian(u, np.inf)


def test_expanded_matches_divergence_form():
    sups = {}
    for n in (32, 64):
        g = build_grid(Domain.unit_square(), n)
        u = ScalarField.from_function(
            g, lambda x, y: np.sin(x + 0.3) + 0.5 * np.cos(y) + 2.0 * x)
        a = p_laplacian(u, 3.0)
        b = p_laplacian_divergence_form(u, 3.0)
        deep = _deep_interior(g)
        sups[n] = float(np.max(np.abs(a.values - b.values)[deep]))
    assert sups[32] <= 2e-5
    assert sups[64] <= 0.35 * sups[32]  # second-order mutual agreement


def test_normalized_p2_is_half_laplacian():
    g = build_grid(Domain.unit_square(), 24)
    u = ScalarField.from_function(g, lambda x, y: np.exp(x) * np.sin(y) + x * y)
    half = 0.5 * laplacian(u).values
    out = normalized_p_laplacian(u, 2.0)
    assert np.allclose(out.values[g.interior], half[g.interior], atol=1e-13)


def test_normalized_validation():
    g = build_grid(Domain.unit_square(), 16)
    u = ScalarField.from_function(g, lambda x, y: x**2 - y + 0.3 * x * y)
    for p in (0.5, -1.0, np.nan):
        with pytest.raises(FieldError):
            normalized_p_laplacian(u, p)
    for p in (1.0, 3.0, np.inf):
        for delta in (-1e-6, np.inf, np.nan):
            with pytest.raises(FieldError, match="delta"):
                normalized_p_laplacian(u, p, delta=delta)
        for grad_floor in (np.inf, -np.inf, np.nan):
            with pytest.raises(FieldError, match="grad_floor"):
                normalized_p_laplacian(u, p, grad_floor=grad_floor)
    # the same floor check guards the infinity Laplacian
    for grad_floor in (np.inf, np.nan):
        with pytest.raises(FieldError, match="grad_floor"):
            infinity_laplacian(u, grad_floor=grad_floor)


def test_normalized_branches_on_saddle():
    # u = x^2 - y^2: lap = 0, u_nn = 2(x^2-y^2)/(x^2+y^2)
    g = build_grid(Domain.rectangle(1.0, 1.0, 2.0, 2.0), 16)
    u = ScalarField.from_function(g, lambda x, y: x**2 - y**2)
    xs, ys = g.coordinates()
    unn = 2.0 * (xs**2 - ys**2) / (xs**2 + ys**2)
    inner = g.interior
    top = normalized_p_laplacian(u, np.inf, grad_floor=0.0)
    assert np.allclose(top.values[inner], unn[inner], rtol=1e-10)
    bottom = normalized_p_laplacian(u, 1.0, grad_floor=0.0)
    assert np.allclose(bottom.values[inner], -unn[inner], rtol=1e-10)


def test_normalized_value_independent_of_p_on_paraboloid():
    # u = r^2 has u_nn = lap - u_nn = 2, so every p gives exactly 2
    g = build_grid(Domain.rectangle(1.0, 1.0, 2.0, 2.0), 16)
    u = ScalarField.from_function(g, lambda x, y: x**2 + y**2)
    for p in (1.0, 1.5, 2.0, 4.0, np.inf):
        out = normalized_p_laplacian(u, p, grad_floor=0.0)
        assert np.allclose(out.values[g.interior], 2.0, atol=1e-10)


def test_normalized_is_one_homogeneous():
    g = build_grid(Domain.unit_square(), 24)
    u = ScalarField.from_function(g, lambda x, y: np.sin(3 * x) + np.cos(2 * y) + x)
    scaledu = ScalarField(g, 7.0 * u.values)
    a = normalized_p_laplacian(u, 4.0, grad_floor=0.0)
    b = normalized_p_laplacian(scaledu, 4.0, grad_floor=0.0)
    assert np.allclose(b.values[g.interior], 7.0 * a.values[g.interior], rtol=1e-12)


def _normalized_case(name: str) -> ScalarField:
    """A field with one node of exactly zero gradient (the symmetry centre),
    so that ``flagged`` is not empty, and a term that breaks the symmetry."""
    if name == "interval":
        g = build_grid(Domain.interval(0.0, 1.0), 64)
        return ScalarField.from_function(
            g, lambda x: np.cos(np.pi * (x - 0.5)) + 0.4 * (x - 0.5) ** 2)
    if name == "square":
        g = build_grid(Domain.unit_square(), 32)
        return ScalarField.from_function(
            g, lambda x, y: np.cos(np.pi * (x - 0.5)) * np.cos(np.pi * (y - 0.5))
            + 0.3 * (x - 0.5) ** 2 * (y - 0.5))
    g = build_grid(Domain.disc((0.0, 0.0), 1.0), 32)
    return ScalarField.from_function(
        g, lambda x, y: np.cos(0.5 * np.pi * np.hypot(x, y)) * (1.0 + 0.3 * x * y))


@pytest.mark.parametrize("delta", [0.0, 1e-3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
@pytest.mark.parametrize("name", ["square", "disc", "interval"])
def test_normalized_matches_the_expression_in_central_derivatives(name, p, delta):
    # the oracle evaluates the documented expression from the scaled central
    # derivatives of _derivs, independently of the flat stencil kernel
    u = _normalized_case(name)
    g = u.grid
    d = _derivs(u)
    if g.dim == 1:
        g2 = d["ux"] ** 2
        tri = d["ux"] ** 2 * d["uxx"]
        lap = d["uxx"]
    else:
        g2 = d["ux"] ** 2 + d["uy"] ** 2
        tri = (d["ux"] ** 2 * d["uxx"] + 2.0 * d["ux"] * d["uy"] * d["uxy"]
               + d["uy"] ** 2 * d["uyy"])
        lap = d["uxx"] + d["uyy"]
    denom = g2 + delta**2
    unn = np.divide(tri, denom, out=np.zeros_like(tri), where=denom > 0.0)
    expected = unn if np.isinf(p) else (p - 1.0) / p * unn + (lap - unn) / p
    expected = np.where(g.interior, expected, 0.0)
    floor = default_grad_floor(u)
    got = normalized_p_laplacian(u, p, delta=delta)
    assert np.array_equal(got.flagged, g.interior & (g2 < floor * floor))
    assert np.count_nonzero(got.flagged) >= 1
    assert np.max(np.abs(got.values - expected)) <= 1e-12 * np.max(np.abs(expected))


def _plateau_case(name: str) -> ScalarField:
    """``_normalized_case`` cut off at 90 % of its maximum: a flat top of
    exactly zero gradient, ringed by nodes whose gradient is tiny."""
    u = _normalized_case(name)
    return ScalarField(u.grid, np.minimum(u.values, 0.9 * u.values.max()))


@pytest.mark.parametrize("delta", [0.0, 1e-3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 32.0, np.inf])
@pytest.mark.parametrize("name", ["square", "disc", "interval"])
def test_stencil_matches_the_two_part_kernel(name, p, delta):
    # the kernel skips its u_nn part only where that part's coefficient is
    # zero, so it must reproduce the kernel that always evaluates both parts,
    # bit for bit up to the sign of zero, on the whole span (halo garbage
    # included)
    for u in (_normalized_case(name), _plateau_case(name)):
        for scale in (1.0, 0.37 * u.grid.h ** 2):
            work = _stencil_work(u.values)
            out = np.empty_like(work[0])
            _normalized_stencil(u.values, u.grid.h, p, delta, scale, out, work)
            ref_work = _stencil_work(u.values)
            ref = np.empty_like(ref_work[0])
            oracles.normalized_stencil_two_part(u.values, u.grid.h, p, delta, scale, ref, ref_work)
            assert np.array_equal(out, ref)


@pytest.mark.parametrize("name", ["square", "disc", "interval"])
def test_normalized_p2_flags_come_from_the_central_gradient(name):
    # the flags do not depend on p, although the kernel skips its u_nn part
    # (where it forms |grad u|^2) at p = 2
    u = _plateau_case(name)
    d = _derivs(u)
    g2 = d["ux"] ** 2 if u.grid.dim == 1 else d["ux"] ** 2 + d["uy"] ** 2
    floor = default_grad_floor(u)
    got = normalized_p_laplacian(u, 2.0)
    assert np.array_equal(got.flagged, u.grid.interior & (g2 < floor * floor))
    assert np.count_nonzero(got.flagged) >= 4
    assert np.array_equal(got.flagged, normalized_p_laplacian(u, 4.0).flagged)


def test_intrinsic_decomposition_identity():
    g = build_grid(Domain.unit_square(), 48)
    u = ScalarField.from_function(
        g, lambda x, y: np.sin(x + 0.3) + 0.5 * np.cos(y) + 2.0 * x)
    samp = intrinsic_decomposition(u)
    assert samp.identity_defect() <= 5e-4
    g1 = build_grid(Domain.interval(0.0, 1.0), 16)
    with pytest.raises(FieldError):
        intrinsic_decomposition(ScalarField.from_function(g1, lambda x: x))
