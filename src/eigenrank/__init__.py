"""Desk-scale laboratory for low-rank structure of eigenfunction products.

Builds finite-difference Schrodinger operators on boxes, solves for their
lowest eigenpairs, expands pointwise products of eigenfunctions in spectral
bases, and measures how few basis functions are needed to approximate every
product in L2 and in the H^-1 (Coulomb) norm.  A density-fitting benchmark
for four-center repulsion integrals rides on top of the H^-1 machinery.

Submodules are imported explicitly (``import eigenrank.grid``); the package
root stays import-light so the CLI can configure BLAS threading before numpy
loads.
"""

__version__ = "0.1.0"

COMMANDS = ("spectrum", "tail-curves", "rank-scan", "eri-bench", "verify-all")
PRESETS = ("flat-1d", "flat-2d", "harmonic-1d", "random-2d")
