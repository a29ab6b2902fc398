"""Tests for limiting-equation residuals and exact quadratic touching checks."""

import math

import numpy as np
import pytest

from plaplab.fields import ScalarField, build_grid
from plaplab.geometry import Domain
from plaplab.eigen import neumann_eigen_first
from plaplab.viscosity import (
    check_1d_kink,
    check_1d_neumann_bc,
    residual_limit_eigen,
    residual_limit_torsion,
    residual_neumann_system,
    ridge_exclusion_mask,
)


def _distance_field(domain: Domain, n: int) -> ScalarField:
    from plaplab.dirichlet import distance_field

    return distance_field(build_grid(domain, n))


def _disc_cone(radius: float, n: int) -> tuple[ScalarField, np.ndarray]:
    """Smooth cone ``R - r`` on a disc grid, plus a mask keeping r >= R/4.

    The clipped distance field of a disc kinks where the circle cuts
    between lattice nodes; the analytic cone avoids that collar artifact
    so the residual reflects the interior scheme error only.  The apex
    neighbourhood is masked out because the cone gradient is genuinely
    singular there.
    """
    grid = build_grid(Domain.disc((0.0, 0.0), radius), n)
    X, Y = grid.coordinates()
    r = np.sqrt(X * X + Y * Y)
    vals = np.where(~grid.nonexterior, 0.0, radius - r)
    return ScalarField(grid, vals), r >= 0.25 * radius


# ---------------------------------------------------------------------------
# torsion limit |grad u| = 1


class TestTorsionLimitResidual:
    @pytest.mark.parametrize("n", [64, 128])
    def test_square_distance_is_exact_off_ridge(self, n):
        u = _distance_field(Domain.unit_square(), n)
        mask = ridge_exclusion_mask(u.grid)
        rep = residual_limit_torsion(u, mask=mask)
        assert rep.sup_residual == 0.0
        assert rep.flagged_count == 0
        assert rep.evaluated_count > 1000
        assert rep.region_residuals == {"all": 0.0}

    def test_wrong_scale_is_detected(self):
        u = _distance_field(Domain.unit_square(), 64)
        half = ScalarField(u.grid, 0.5 * u.values)
        rep = residual_limit_torsion(half, mask=ridge_exclusion_mask(u.grid))
        assert rep.sup_residual == pytest.approx(0.5, abs=1e-12)

    def test_disc_cone_residual_refines(self):
        sups = {}
        for n in (64, 128):
            cone, mask = _disc_cone(1.0, n)
            rep = residual_limit_torsion(cone, mask=mask)
            sups[n] = rep.sup_residual
        assert sups[64] <= 1e-2
        assert sups[128] <= 0.45 * sups[64]

    def test_report_serialization_and_determinism(self):
        u = _distance_field(Domain.unit_square(), 32)
        mask = ridge_exclusion_mask(u.grid)
        rep1 = residual_limit_torsion(u, mask=mask)
        rep2 = residual_limit_torsion(u, mask=mask)
        d = rep1.to_dict()
        assert set(d) == {"equation", "convention", "supResidual",
                          "flaggedCount", "evaluatedCount", "regionResiduals",
                          "band", "diagnostics"}
        assert d["equation"] == "torsion-limit"
        assert d["convention"] == "trilinear"
        assert d["band"] == 0.0
        assert rep1.to_dict() == rep2.to_dict()


# ---------------------------------------------------------------------------
# eigenvalue limit min{|grad u| - lam u, -lap_inf u} = 0


class TestEigenLimitResidual:
    def test_interval_tent_is_exact(self):
        grid = build_grid(Domain.interval(-1.0, 1.0), 64)
        (x,) = grid.coordinates()
        u = ScalarField(grid, np.where(grid.nonexterior, 1.0 - np.abs(x), 0.0))
        rep = residual_limit_eigen(u, 1.0)
        # the apex node has a vanishing central gradient and is flagged;
        # everywhere else both branches evaluate exactly
        assert rep.flagged_count == 1
        assert rep.sup_residual == 0.0
        assert rep.diagnostics["lambda"] == 1.0

    def test_interval_tent_wrong_lambda_fails(self):
        grid = build_grid(Domain.interval(-1.0, 1.0), 64)
        (x,) = grid.coordinates()
        u = ScalarField(grid, np.where(grid.nonexterior, 1.0 - np.abs(x), 0.0))
        rep = residual_limit_eigen(u, 0.5)
        # min{|u'| - 0.5 u, -u''} = min{1 - 0.5(1-|x|), 0} clips to zero
        # from below, so the residual stays zero; the detection lives in
        # the opposite direction:
        rep2 = residual_limit_eigen(u, 2.0)
        assert rep2.sup_residual > 0.4

    def test_rejects_a_rate_that_is_not_finite(self):
        grid = build_grid(Domain.interval(-1.0, 1.0), 16)
        (x,) = grid.coordinates()
        u = ScalarField(grid, np.where(grid.nonexterior, 1.0 - np.abs(x), 0.0))
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                residual_limit_eigen(u, lam)

    def test_disc_cone_residual_refines(self):
        sups = {}
        for n in (64, 128):
            cone, mask = _disc_cone(1.0, n)
            rep = residual_limit_eigen(cone, 1.0, mask=mask)
            sups[n] = rep.sup_residual
        assert sups[64] <= 5e-2
        assert sups[128] <= 0.5 * sups[64]


# ---------------------------------------------------------------------------
# three-branch Neumann system


@pytest.fixture(scope="module")
def linear_profile():
    grid = build_grid(Domain.rectangle(-1.0, -1.0, 1.0, 1.0), 64)
    X, _ = grid.coordinates()
    return ScalarField(grid, np.where(grid.nonexterior, X, 0.0))


class TestNeumannSystemResidual:
    def test_affine_profile_satisfies_system_for_any_lambda(self, linear_profile):
        # u = x has |grad u| = 1 and lap_inf u = 0; the min/max branches
        # clip to zero pointwise whatever lam is, so the residual cannot
        # distinguish candidate eigenvalues ...
        for lam in (1.0, 1.0 / math.sqrt(2.0)):
            rep = residual_neumann_system(linear_profile, lam)
            assert rep.sup_residual == 0.0
            assert set(rep.region_residuals) == {"positive", "negative",
                                                 "zeroBand"}
            assert all(v == 0.0 for v in rep.region_residuals.values())

    def test_branch_floor_diagnostic_discriminates(self, linear_profile):
        # ... the discriminating signal is how close |grad u| - lam u
        # comes to zero over {u > 0}: at the matching rate it bottoms out
        # at lattice scale h, at a mismatched rate it stays O(1).
        h = linear_profile.grid.h
        fit = residual_neumann_system(linear_profile, 1.0)
        off = residual_neumann_system(linear_profile, 1.0 / math.sqrt(2.0))
        assert fit.diagnostics["minBranchFloorPositive"] == pytest.approx(h)
        assert off.diagnostics["minBranchFloorPositive"] == pytest.approx(
            1.0 - (1.0 - h) / math.sqrt(2.0), abs=1e-12)
        assert off.diagnostics["minBranchFloorPositive"] > 0.25

    def test_rejects_a_rate_that_is_not_finite(self, linear_profile):
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                residual_neumann_system(linear_profile, lam)

    def test_band_is_twice_h_times_gradient_sup(self, linear_profile):
        rep = residual_neumann_system(linear_profile, 1.0)
        assert rep.band == pytest.approx(2.0 * linear_profile.grid.h, rel=1e-12)

    def test_residual_shrinks_as_p_grows(self, neumann_p15_128):
        # finite-p eigenfunctions do not satisfy the limit system, but the
        # residual should shrink as p moves toward the limit exponent
        grid = build_grid(Domain.unit_square(), 128)
        r2 = neumann_eigen_first(grid, p=2.0)
        rep2 = residual_neumann_system(r2.field, r2.root)
        rep15 = residual_neumann_system(neumann_p15_128.field,
                                        neumann_p15_128.root)
        assert rep15.flagged_count == 0
        assert rep15.evaluated_count == 127 * 127
        assert rep15.sup_residual == max(rep15.region_residuals.values())
        assert rep15.sup_residual <= 2.0
        assert rep15.sup_residual < 0.5 * rep2.sup_residual


# ---------------------------------------------------------------------------
# ridge exclusion mask


class TestRidgeExclusionMask:
    def test_excludes_diagonal_collar(self):
        grid = build_grid(Domain.unit_square(), 16)
        mask = ridge_exclusion_mask(grid)
        assert mask.dtype == np.bool_
        assert not mask[8, 8]          # centre sits on both diagonals
        assert not mask[4, 4]          # main diagonal
        assert not mask[4, 12]         # anti-diagonal
        assert mask[1, 8]              # 7h/sqrt(2) from either diagonal
        # collar width is monotone in the width parameter
        wide = ridge_exclusion_mask(grid, width=0.3)
        assert wide.sum() < mask.sum()

    def test_requires_square_domain(self):
        with pytest.raises(ValueError):
            ridge_exclusion_mask(build_grid(Domain.rectangle(0, 0, 2, 1), 16))
        with pytest.raises(ValueError):
            ridge_exclusion_mask(build_grid(Domain.interval(0, 1), 16))


# ---------------------------------------------------------------------------
# exhaustive quadratic touching checks at the 1-D kink


class TestKinkCheck:
    def test_unit_rate_passes(self):
        rep = check_1d_kink(1.0)
        assert rep.passed
        assert rep.witnesses == []
        assert rep.case == "kink"
        assert rep.admissible_count == 20000
        assert rep.branch_counts == {"eigen": 20000, "infinity": 0}

    def test_larger_rate_passes(self):
        rep = check_1d_kink(2.0)
        assert rep.passed
        assert rep.witnesses == []

    def test_small_rate_fails_with_witnesses(self):
        rep = check_1d_kink(0.5)
        assert not rep.passed
        assert len(rep.witnesses) == 5000
        assert rep.branch_counts == {"eigen": 10000, "infinity": 5000}
        # every witness genuinely violates both branch inequalities
        b = np.array([w["b"] for w in rep.witnesses])
        c = np.array([w["c"] for w in rep.witnesses])
        vals = np.array([w["value"] for w in rep.witnesses])
        recomputed = np.minimum(np.abs(b) - 0.5, -2.0 * b * b * c)
        assert np.all(recomputed > 0.0)
        np.testing.assert_allclose(recomputed, vals, rtol=0, atol=1e-15)

    def test_rejects_nonpositive_rate(self):
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                check_1d_kink(lam)

    def test_serialization_and_determinism(self):
        rep = check_1d_kink(0.5)
        d = rep.to_dict()
        assert set(d) == {"case", "lambda", "pass", "witnesses",
                          "branchCounts", "admissibleCount",
                          "belowAdmissibleCount"}
        assert d["lambda"] == 0.5
        assert d["pass"] is False
        assert d == check_1d_kink(0.5).to_dict()


# ---------------------------------------------------------------------------
# exhaustive quadratic touching checks at the Neumann boundary


class TestNeumannBoundaryCheck:
    def test_unit_rate_passes_using_all_branches(self):
        rep = check_1d_neumann_bc(1.0)
        assert rep.passed
        assert rep.witnesses == []
        assert rep.case == "neumann-bc"
        assert rep.branch_counts == {"eigen": 20000, "infinity": 5000,
                                     "slope": 5000}
        assert rep.below_admissible_count == 10000

    def test_larger_rate_passes_on_first_branch_alone(self):
        rep = check_1d_neumann_bc(2.0)
        assert rep.passed
        assert rep.branch_counts == {"eigen": 30000, "infinity": 0,
                                     "slope": 0}
        assert rep.below_admissible_count == 10000

    def test_small_rate_fails_from_above_only(self):
        lam = 1.0 / math.sqrt(2.0)
        rep = check_1d_neumann_bc(lam)
        assert not rep.passed
        assert len(rep.witnesses) == 1500
        assert {w["side"] for w in rep.witnesses} == {"above"}
        b = np.array([w["b"] for w in rep.witnesses])
        c = np.array([w["c"] for w in rep.witnesses])
        vals = np.array([w["value"] for w in rep.witnesses])
        # violation means every branch (eigen, second order, boundary
        # slope b = phi'(1)) is strictly positive at the touching point
        recomputed = np.minimum(np.minimum(np.abs(b) - lam,
                                           -2.0 * b * b * c), b)
        assert np.all(recomputed > 0.0)
        np.testing.assert_allclose(recomputed, vals, rtol=0, atol=1e-15)

    def test_rejects_nonpositive_rate(self):
        for lam in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                check_1d_neumann_bc(lam)
