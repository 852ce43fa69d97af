"""Numerical tolerances shared across the package.

All geometric quantities live on the unit Bloch ball, so absolute
tolerances are meaningful at scale 1.
"""

# positive semidefiniteness of density matrices (eigenvalue floor)
TOL_PSD = 1e-9

# lengths, conic coefficients, containment tests
TOL_GEOM = 1e-9

# probabilities and convex weights
TOL_PROB = 1e-12

# coincidence of characteristic roots (relative to the root scale in
# ellipsoid.tangency)
TOL_ROOT = 1e-7

# verdicts with |margin| below this band are reported indeterminate
BOUNDARY_BAND = 1e-8
