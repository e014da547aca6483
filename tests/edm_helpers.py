"""Gram/distance-matrix conversions and a direct membership test, for the tests' cross-checks.

The library reaches the same facts through one factorization per geometry
(edm_core.factor_anchors, factor_edm) and the augmented check; these are the
textbook forms the tests compare it against.
"""

import numpy as np

from edmpos.edm_core import EdmClass, _check_hollow_symmetric, _edm_classes, build_v_basis


def gram_from_edm(D: np.ndarray) -> np.ndarray:
    """Centered Gram matrix of a squared-distance matrix: -J D J / 2."""
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    B = -0.5 * (J @ D @ J)
    return 0.5 * (B + B.T)


def edm_from_gram(B: np.ndarray) -> np.ndarray:
    """Squared-distance matrix of a Gram matrix: diag*1' + 1*diag' - 2B."""
    B = np.asarray(B, dtype=float)
    b = np.diag(B)
    return b[:, None] + b[None, :] - 2.0 * B


def classify_edm(D: np.ndarray) -> EdmClass:
    """Decide whether D is a squared-distance matrix and of which dimension.

    The test matrix is -V' D V: D is a distance matrix exactly when that
    matrix is positive semidefinite, and the embedding dimension is its rank.
    """
    D = _check_hollow_symmetric(D)
    V = build_v_basis(D.shape[0])
    M = -(V.T @ D @ V)
    M = 0.5 * (M + M.T)
    return _edm_classes(np.linalg.eigh(M[None])[0])[0]
