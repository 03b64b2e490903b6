"""Exact deformation computations for smooth complete toric fans.

The package computes admissible degree data on a fan, the graded pieces of
the tangent cohomology H^1(X, T_X) from Cech cocycles in the generic stalk
N_Q (the full Cech complex is the tests' oracle), one-parameter
deformation ambients cut out by a trinomial in Cox coordinates, rational
normal scroll deformation paths, and lifts of hypersurfaces to the ambient.
All arithmetic is exact (arbitrary-precision integers and rationals).
"""

__version__ = "0.1.0"
