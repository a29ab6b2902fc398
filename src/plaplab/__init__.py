"""Numerical laboratory for p-Laplace problems and their geometric limits.

The package computes, at desk scale, the objects tied together by the
geometry of a convex plane domain: torsion and eigenvalue problems for the
p-Laplacian and its normalized (game-theoretic) variant, the large-p limits
governed by the distance function, inradius and diameter, the small-p limit
governed by the Cheeger constant, parabolic decay rates, radial closed forms,
and viscosity-solution residual checks for the limit equations.

Modules
-------
geometry   exact convex geometry: inradius, diameter, Cheeger sets
fields     finite-difference grids, scalar fields and differential operators
dirichlet  variational p-harmonic and p-torsion solvers
eigen      first (and exploratory second) eigenpairs by projected Newton
radial     radial torsion and eigenpairs in closed form on balls
flow       explicit normalized p-Laplacian evolution and decay rates
viscosity  residuals of the limit equations; 1-D test-function checks
cli        command-line driver with reproducible run manifests
"""

__version__ = "0.1.0"
