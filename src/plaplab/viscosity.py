"""Pointwise residuals of the infinity-limit equations, plus exact
test-function checks at their non-smooth points.

The large-p limits of the torsion and eigenvalue problems satisfy
first-order/infinity-Laplacian systems that hold in the viscosity sense:

* torsion limit:      min{ |grad u| - 1,      -lap_inf u } = 0
* Dirichlet eigen:    min{ |grad u| - lam u,  -lap_inf u } = 0
* Neumann system:     min-branch on {u > 0}, the mirrored max-branch
                      max{ -|grad u| - Lam u, -lap_inf u } = 0 on {u < 0},
                      and -lap_inf u = 0 on {u = 0}.

``lap_inf`` here is the unnormalized trilinear form ``sum u_i u_ij u_j``
(the gradient-direction second derivative scaled by |grad u|^2); every
report names this convention.  The residual operators evaluate the
relevant branch node-wise at unflagged interior nodes and report sup
magnitudes; they never modify their inputs.  Since {u = 0} has no exact
grid realization, the Neumann system uses a sign band of width
``2 h ||grad u||_inf`` that vanishes under refinement.

At non-smooth points the equations only constrain smooth test functions
touching from above or below.  ``check_1d_kink`` and
``check_1d_neumann_bc`` verify the two classical 1-D cases — the interior
kink of ``v = 1 - |x|`` and the right-endpoint slope condition for
``u = x`` — exhaustively over a grid of quadratic test functions, with
admissibility decided in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField, gradient, infinity_laplacian

__all__ = [
    "TRILINEAR_CONVENTION",
    "LimitResidualReport",
    "residual_limit_torsion",
    "residual_limit_eigen",
    "residual_neumann_system",
    "ridge_exclusion_mask",
    "TouchingCheckReport",
    "check_1d_kink",
    "check_1d_neumann_bc",
]

#: Convention tag: the second branch uses the unnormalized trilinear form.
TRILINEAR_CONVENTION = "trilinear"


@dataclass(frozen=True)
class LimitResidualReport:
    """Sup residual of a limiting equation over unflagged interior nodes.

    ``region_residuals`` splits the sup by branch region (a single ``all``
    entry except for the three-branch Neumann system); ``band`` is the
    half-width of the {u = 0} realization (zero when unused);
    ``diagnostics`` carries branch-activation scalars such as the smallest
    value of ``|grad u| - Lam u`` over the positive region.
    """

    equation: str
    convention: str
    sup_residual: float
    flagged_count: int
    evaluated_count: int
    region_residuals: dict
    band: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "convention": self.convention,
            "supResidual": self.sup_residual,
            "flaggedCount": self.flagged_count,
            "evaluatedCount": self.evaluated_count,
            "regionResiduals": dict(self.region_residuals),
            "band": self.band,
            "diagnostics": dict(self.diagnostics),
        }


def _branch_parts(u: ScalarField):
    """(|grad u|, trilinear values, flagged mask) on interior nodes, flagged
    below the default gradient floor."""
    tri = infinity_laplacian(u)
    comps = gradient(u)
    g2 = np.zeros(u.grid.shape)
    for c in comps:
        g2 += c.values * c.values
    return np.sqrt(g2), tri.values, tri.flagged


def _eval_mask(u: ScalarField, flagged, mask):
    keep = u.grid.interior & ~flagged
    if mask is not None:
        keep &= mask
    return keep


def _region_sup(vals: np.ndarray, region: np.ndarray) -> float:
    if not region.any():
        return 0.0
    return float(np.max(np.abs(vals[region])))


def residual_limit_torsion(u: ScalarField, mask=None) -> LimitResidualReport:
    """Residual of ``min{|grad u| - 1, -lap_inf u}`` for boundary-zero u.

    ``mask`` restricts evaluation (e.g. excluding the ridge where a
    distance function is not differentiable).
    """
    g, tri, flagged = _branch_parts(u)
    keep = _eval_mask(u, flagged, mask)
    residual = np.minimum(g - 1.0, -tri)
    sup = _region_sup(residual, keep)
    return LimitResidualReport(
        equation="torsion-limit",
        convention=TRILINEAR_CONVENTION,
        sup_residual=sup,
        flagged_count=int(np.count_nonzero(flagged & (mask if mask is not None else True) & u.grid.interior)),
        evaluated_count=int(np.count_nonzero(keep)),
        region_residuals={"all": sup},
    )


def residual_limit_eigen(u: ScalarField, lam: float, mask=None) -> LimitResidualReport:
    """Residual of ``min{|grad u| - lam u, -lap_inf u}`` (Dirichlet limit)."""
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    g, tri, flagged = _branch_parts(u)
    keep = _eval_mask(u, flagged, mask)
    residual = np.minimum(g - lam * u.values, -tri)
    sup = _region_sup(residual, keep)
    return LimitResidualReport(
        equation="eigen-limit",
        convention=TRILINEAR_CONVENTION,
        sup_residual=sup,
        flagged_count=int(np.count_nonzero(flagged & (mask if mask is not None else True) & u.grid.interior)),
        evaluated_count=int(np.count_nonzero(keep)),
        region_residuals={"all": sup},
        diagnostics={"lambda": float(lam)},
    )


def residual_neumann_system(u: ScalarField, lam: float) -> LimitResidualReport:
    """Three-branch residual of the Neumann infinity-eigenvalue system.

    min-branch ``min{|grad u| - Lam u, -lap_inf u}`` on {u > band},
    max-branch ``max{-|grad u| - Lam u, -lap_inf u}`` on {u < -band},
    plain ``-lap_inf u`` on the sign band |u| <= band = 2h ||grad u||_inf.

    Diagnostics record how close the first-order branches come to
    activating: ``minBranchFloorPositive`` is the smallest
    ``|grad u| - Lam u`` over the positive region (near zero when the
    profile genuinely attains the eigenvalue relation at its maximum,
    bounded away from zero when ``lam`` does not fit the profile), and
    ``maxBranchCeilNegative`` is the mirrored quantity.
    """
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    g, tri, flagged = _branch_parts(u)
    keep = u.grid.interior & ~flagged
    band = 2.0 * u.grid.h * _region_sup(g, u.grid.interior)
    vals = u.values
    pos = keep & (vals > band)
    neg = keep & (vals < -band)
    mid = keep & (np.abs(vals) <= band)
    min_branch = np.minimum(g - lam * vals, -tri)
    max_branch = np.maximum(-g - lam * vals, -tri)
    regions = {
        "positive": _region_sup(min_branch, pos),
        "negative": _region_sup(max_branch, neg),
        "zeroBand": _region_sup(-tri, mid),
    }
    diagnostics = {"lambda": float(lam)}
    first_pos = g - lam * vals
    first_neg = -g - lam * vals
    diagnostics["minBranchFloorPositive"] = (
        float(np.min(first_pos[pos])) if pos.any() else math.inf)
    diagnostics["maxBranchCeilNegative"] = (
        float(np.max(first_neg[neg])) if neg.any() else -math.inf)
    return LimitResidualReport(
        equation="neumann-system",
        convention=TRILINEAR_CONVENTION,
        sup_residual=max(regions.values()),
        flagged_count=int(np.count_nonzero(flagged)),  # interior nodes only
        evaluated_count=int(np.count_nonzero(keep)),
        region_residuals=regions,
        band=band,
        diagnostics=diagnostics,
    )


def ridge_exclusion_mask(grid, width: float | None = None) -> np.ndarray:
    """Nodes farther than ``width`` (default 2h) from the square's diagonals.

    The distance function of a square is smooth except on the two
    diagonals (its ridge); residual evaluation excludes a collar around
    them.  Requires a square domain.
    """
    dom = grid.domain
    if grid.dim != 2 or not dom.is_square():
        raise ValueError("ridge exclusion is defined for square domains")
    if width is None:
        width = 2.0 * grid.h
    x0, y0, x1, y1 = dom.bounding_box
    X, Y = grid.coordinates()
    main = np.abs((Y - y0) - (X - x0)) / math.sqrt(2.0)
    anti = np.abs((X - x0) + (Y - y0) - (x1 - x0)) / math.sqrt(2.0)
    return np.minimum(main, anti) > width


# ---------------------------------------------------------------------------
# exact 1-D touching-function checks


@dataclass(frozen=True)
class TouchingCheckReport:
    """Result of an exhaustive quadratic test-function check.

    ``witnesses`` lists every admissible ``(b, c)`` violating the
    inequality (empty iff ``passed``); ``branch_counts`` records which
    branch certified each admissible quadratic; ``admissible``/''below''
    counts describe the sampled family.
    """

    case: str
    lam: float
    passed: bool
    witnesses: list
    branch_counts: dict
    admissible_count: int
    below_admissible_count: int = 0

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "lambda": self.lam,
            "pass": self.passed,
            "witnesses": [dict(w) for w in self.witnesses],
            "branchCounts": dict(self.branch_counts),
            "admissibleCount": self.admissible_count,
            "belowAdmissibleCount": self.below_admissible_count,
        }


def _coefficient_grid():
    """The sampled quadratics' ``(b, c)``: 200 x 200 equispaced in [-2, 2]^2."""
    axis = np.linspace(-2.0, 2.0, 200)
    b, c = np.meshgrid(axis, axis, indexing="ij")
    return b.ravel(), c.ravel()


def check_1d_kink(lam: float) -> TouchingCheckReport:
    """Viscosity conditions for ``v = 1 - |x|`` at its kink ``x = 0``.

    Quadratics ``phi = 1 + b x + c x^2`` touch v from above at 0 exactly
    when ``|b| < 1``, or ``|b| = 1`` with ``c >= 0`` (each side of the
    kink bounds the slope).  Every admissible quadratic must satisfy the
    subsolution inequality

        min{ |phi'(0)| - lam * phi(0), -|phi'(0)|^2 phi''(0) } <= 0,

    which holds for all of them iff ``lam >= 1``: for ``lam < 1`` the
    slopes ``lam < |b| < 1`` with ``c < 0`` violate both branches and are
    returned as witnesses.  Touching from below requires ``b <= -1`` and
    ``b >= 1`` simultaneously, which is infeasible, so the supersolution
    condition holds vacuously; the check confirms no sampled quadratic
    stays below v on either side of 0.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    b, c = _coefficient_grid()
    admissible = (np.abs(b) < 1.0) | ((np.abs(b) == 1.0) & (c >= 0.0))
    eigen_branch = np.abs(b) - lam
    infinity_branch = -(b * b) * (2.0 * c)
    value = np.minimum(eigen_branch, infinity_branch)
    bad = admissible & (value > 0.0)
    witnesses = [
        {"b": float(bi), "c": float(ci), "value": float(vi)}
        for bi, ci, vi in zip(b[bad], c[bad], value[bad])
    ]
    ok = admissible & ~bad
    branch_counts = {
        "eigen": int(np.count_nonzero(ok & (eigen_branch <= 0.0))),
        "infinity": int(np.count_nonzero(ok & (eigen_branch > 0.0))),
    }
    # touching from below: 1 + b x + c x^2 <= 1 - |x| near 0 forces the
    # one-sided slopes b <= -1 and b >= 1 at once
    below = ((b < -1.0) | ((b == -1.0) & (c <= 0.0))) & \
            ((b > 1.0) | ((b == 1.0) & (c <= 0.0)))
    below_count = int(np.count_nonzero(below))
    return TouchingCheckReport(
        case="kink",
        lam=float(lam),
        passed=(not witnesses) and below_count == 0,
        witnesses=witnesses,
        branch_counts=branch_counts,
        admissible_count=int(np.count_nonzero(admissible)),
        below_admissible_count=below_count,
    )


def check_1d_neumann_bc(lam: float) -> TouchingCheckReport:
    """Boundary viscosity conditions for ``u = x`` at ``x = 1``.

    Quadratics ``phi = 1 + b (x-1) + c (x-1)^2`` touching u from above on
    ``(1-eps, 1]`` satisfy ``b < 1`` (or ``b = 1`` with ``c >= 0``); each
    must obey the subsolution boundary inequality

        min{ min{|phi'| - Lam*phi, -|phi'|^2 phi''}, phi' }(1) <= 0.

    Touching from below forces ``b > 1`` (or ``b = 1`` with ``c <= 0``)
    and the supersolution counterpart

        max{ max{-|psi'| - Lam*psi, -|psi'|^2 psi''}, psi' }(1) >= 0

    then holds through the slope branch ``psi'(1) >= 1 > 0``.  The check
    passes exactly when ``Lam >= 1``: for ``Lam < 1`` the slopes
    ``Lam < b < 1`` with ``c < 0`` make all three branches positive, and
    those quadratics are returned as witnesses — this is how a candidate
    eigenvalue smaller than 1 is rejected for this profile.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    b, c = _coefficient_grid()

    above = (b < 1.0) | ((b == 1.0) & (c >= 0.0))
    eigen_branch = np.abs(b) - lam
    infinity_branch = -(b * b) * (2.0 * c)
    slope_branch = b
    value = np.minimum(np.minimum(eigen_branch, infinity_branch), slope_branch)
    bad_above = above & (value > 0.0)

    below = (b > 1.0) | ((b == 1.0) & (c <= 0.0))
    value_below = np.maximum(np.maximum(-np.abs(b) - lam, infinity_branch),
                             slope_branch)
    bad_below = below & (value_below < 0.0)

    witnesses = [
        {"side": "above", "b": float(bi), "c": float(ci), "value": float(vi)}
        for bi, ci, vi in zip(b[bad_above], c[bad_above], value[bad_above])
    ] + [
        {"side": "below", "b": float(bi), "c": float(ci), "value": float(vi)}
        for bi, ci, vi in zip(b[bad_below], c[bad_below], value_below[bad_below])
    ]
    ok_above = above & ~bad_above
    branch_counts = {
        "eigen": int(np.count_nonzero(ok_above & (eigen_branch <= 0.0))),
        "infinity": int(np.count_nonzero(
            ok_above & (eigen_branch > 0.0) & (infinity_branch <= 0.0))),
        "slope": int(np.count_nonzero(
            ok_above & (eigen_branch > 0.0) & (infinity_branch > 0.0))),
    }
    return TouchingCheckReport(
        case="neumann-bc",
        lam=float(lam),
        passed=not witnesses,
        witnesses=witnesses,
        branch_counts=branch_counts,
        admissible_count=int(np.count_nonzero(above)),
        below_admissible_count=int(np.count_nonzero(below)),
    )
