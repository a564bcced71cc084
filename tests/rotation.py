"""Rotations inside degenerate eigenspaces, for the invariance tests.

A solver may return any orthonormal basis of a degenerate cluster; rotating
one by hand probes which reported quantities depend only on eigenspaces.
"""

import numpy as np

from eigenrank.eigensolve import SpectralBasis, _gram_defect


def rotate_cluster(basis: SpectralBasis, indices, rotation=None, seed=0) -> SpectralBasis:
    """Apply an orthogonal rotation (seeded random by default) to the listed
    columns; the result is a dense basis that measures its own Gram defect."""
    indices = list(indices)
    size = len(indices)
    if rotation is None:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        rotation = np.linalg.qr(rng.standard_normal((size, size)))[0]
    rotation = np.asarray(rotation)
    if rotation.shape != (size, size):
        raise ValueError(f"rotation must be {size}x{size}, got {rotation.shape}")
    if np.max(np.abs(rotation.T @ rotation - np.eye(size))) > 1e-12:
        raise ValueError("rotation matrix is not orthogonal")
    vec = basis.vectors.copy()
    vec[:, indices] = vec[:, indices] @ rotation
    return SpectralBasis(
        grid=basis.grid,
        eigenvalues=basis.eigenvalues.copy(),
        vectors=vec,
        residuals=basis.residuals.copy(),
        ortho_defect=_gram_defect(vec, basis.grid.quadrature_weight),
    )
