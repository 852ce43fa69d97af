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

# ellipsoid.tangency, relative to the largest squared semiaxis a_max^2.
# A secular gap lambda - a_max^2 up to TOL_SECULAR_GAP a_max^2 is the hard
# case, where the centre has no component along the largest axis; axes whose
# squared semiaxis lies that close to a_max^2 count as largest too. Rounding
# leaves gaps up to 6e-9 on rotated maximally obese states (c up to
# 1 - 1e-6), whose contact is osculating.
TOL_SECULAR_GAP = 1e-7

# ellipsoid.tangency, hard case: tau^2 up to TOL_TAU a_max^2 is one
# osculating contact point, and above it two points or a circle (tau is half
# their distance). Rounding leaves tau^2 up to 4e-9 on rotated maximally
# obese states (c down to 1e-6). The point reported then lies off the sphere
# by at most tau^2 / 2.
TOL_TAU = 1e-7

# ellipsoid.check_on_both_surfaces, relative to tr W^-1, the scale of its
# rounding: how far the least eigenvalue of W^-1 on the tangent plane at p
# may fall below g.p. They are equal on the unit sphere and on maximally
# obese states, which fall below by up to 4.9e-9 g.p at c = 1 - 1e-7.
TOL_CURVATURE = 1e-9

# verdicts with |margin| below this band are reported indeterminate
BOUNDARY_BAND = 1e-8
