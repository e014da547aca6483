"""Gram/distance-matrix conversions, a direct membership test and an eigh factorization.

The library reaches the same facts through one SVD of the anchors per
geometry (edm_core.factor_anchors) and the augmented check; these are the
textbook forms the tests compare it against.
"""

import numpy as np

from edmpos.edm_core import DEFAULT_RANK_TOL, EdmBundle, EdmClass, _edm_classes, build_v_basis


def hollow_symmetric(D: np.ndarray) -> np.ndarray:
    """D as a float array, after checking that it is square, symmetric and zero on the diagonal."""
    D = np.asarray(D, dtype=float)
    assert D.ndim == 2 and D.shape[0] == D.shape[1], f"not a square matrix: {D.shape}"
    assert np.array_equal(D, D.T) and not np.diag(D).any(), "not a hollow symmetric matrix"
    return D


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
    D = hollow_symmetric(D)
    V = build_v_basis(D.shape[0])
    M = -(V.T @ D @ V)
    M = 0.5 * (M + M.T)
    return _edm_classes(np.linalg.eigh(M[None])[0])[0]


def eigh_bundle(D: np.ndarray) -> EdmBundle:
    """The bundle of a squared-distance matrix, from an eigh of X = -V' D V / 2.

    X = W diag(evals) W' gives delta (the eigenvalues above the rank cut that
    factor_anchors applies to S**2), P_eigen = (V W_r) sqrt(delta),
    Z = V W_{r:} and b = diag(V X V').  Its D is built from P_eigen, whose
    squared distances are D's to round-off.
    """
    D = hollow_symmetric(D)
    n = D.shape[0]
    V = build_v_basis(n)
    X = -0.5 * (V.T @ D @ V)
    evals, evecs = np.linalg.eigh(0.5 * (X + X.T))
    evals, VW = evals[::-1], V @ evecs[:, ::-1]
    thr = DEFAULT_RANK_TOL * max(float(np.abs(evals).max(initial=0.0)), 1.0)
    assert evals[-1] >= -thr, f"not a distance matrix: eigenvalue {evals[-1]:.3e}"
    r = int(np.count_nonzero(evals > thr))
    delta = evals[:r].copy()
    P_eigen, Z = VW[:, :r] * np.sqrt(delta), VW[:, r:]
    b = np.diag(V @ X @ V.T).copy()
    return EdmBundle(b=b, Z=Z, r=r, delta=delta, P_eigen=P_eigen,
                     E=np.column_stack([P_eigen, Z, np.ones(n)]).T,
                     delta_sq=tuple(d * d for d in delta.tolist()),
                     b_norm=float(np.linalg.norm(b)), points=P_eigen)
