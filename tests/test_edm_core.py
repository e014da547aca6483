"""Distance-matrix construction and factorization against brute-force oracles."""

import numpy as np
import pytest

from edm_helpers import classify_edm, edm_from_gram, gram_from_edm
from edmpos.edm_core import (
    EdmClass,
    _augmented_eigs,
    _classify_eigs,
    _squared_distances,
    augmented_edm_check,
    build_v_basis,
    factor_anchors,
)
from edmpos.errors import BadShape, SingularGeometry

SIMPLEX = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
SIMPLEX_D = np.array([
    [0.0, 1.0, 1.0, 1.0],
    [1.0, 0.0, 2.0, 2.0],
    [1.0, 2.0, 0.0, 2.0],
    [1.0, 2.0, 2.0, 0.0],
])


def brute_force_sq_distances(points):
    """Independent pairwise oracle: plain double loop, no vectorization."""
    n = points.shape[0]
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = points[i] - points[j]
            D[i, j] = float(diff @ diff)
    return D


def random_shell_geometry(rng, n, r=3, radius=2.66e7, scale=1e-7):
    """(config, bundle) of n anchors drawn on a shell, redrawn until factor_anchors accepts them."""
    while True:
        pts = rng.normal(size=(n, r))
        pts = radius * pts / np.linalg.norm(pts, axis=1)[:, None]
        try:
            return factor_anchors(pts, scale)
        except SingularGeometry:
            continue


def test_centering_simplex():
    config = factor_anchors(SIMPLEX, scale=1.0)[0]
    assert np.allclose(config.centroid, [0.25, 0.25, 0.25])
    assert np.abs(config.P.sum(axis=0)).max() <= 1e-9 * np.abs(config.P).max()
    assert config.n == 4 and config.r == 3


def test_centering_rejects_collinear():
    pts = np.outer(np.arange(4.0), [1.0, 2.0, 3.0])
    with pytest.raises(SingularGeometry):
        factor_anchors(pts, scale=1.0)


def test_centering_rejects_too_few_points():
    with pytest.raises(BadShape):
        factor_anchors(SIMPLEX[:3], scale=1.0)


def test_anchors_without_coordinates_rejected():
    with pytest.raises(BadShape):
        factor_anchors(np.zeros((4, 0)), scale=1.0)


def test_centering_shell_points_order_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        config = random_shell_geometry(rng, 6)[0]
        assert np.abs(config.P).max() < 10.0
        assert np.abs(config.P.sum(axis=0)).max() <= 1e-9 * np.abs(config.P).max()
        assert np.linalg.matrix_rank(config.P) == 3


def test_build_edm_simplex_exact():
    D = factor_anchors(SIMPLEX, scale=1.0)[1].D
    # centering is a translation, so the unit-simplex distances survive exactly
    assert np.array_equal(D, SIMPLEX_D)


def test_build_edm_matches_brute_force():
    rng = np.random.default_rng(23)
    for n in (4, 5, 7, 10):
        config, bundle = random_shell_geometry(rng, n)
        D = bundle.D
        D_ref = brute_force_sq_distances(config.P)
        assert np.abs(D - D_ref).max() <= 1e-12 * max(D_ref.max(), 1.0)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)


def test_identical_points_give_zero_matrix():
    pts = np.ones((4, 3))
    D = brute_force_sq_distances(pts)
    assert np.array_equal(D, np.zeros((4, 4)))
    with pytest.raises(SingularGeometry):
        factor_anchors(pts, scale=1.0)


def test_v_basis_n2():
    V = build_v_basis(2)
    expected = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
    assert np.abs(np.abs(V) - np.abs(expected)).max() <= 1e-15


def test_v_basis_orthonormal_and_annihilates_ones():
    for n in range(2, 13):
        V = build_v_basis(n)
        assert V.shape == (n, n - 1)
        assert np.abs(V.T @ V - np.eye(n - 1)).max() <= 1e-12
        assert np.abs(V.T @ np.ones(n)).max() <= 1e-12


def test_v_basis_projector_identity():
    V = build_v_basis(4)
    J = np.eye(4) - np.full((4, 4), 0.25)
    assert np.abs(V @ V.T - J).max() <= 1e-12


def test_factor_simplex():
    bundle = factor_anchors(SIMPLEX, scale=1.0)[1]
    assert bundle.r == 3
    assert bundle.Z.shape == (4, 0)
    B = gram_from_edm(bundle.D)
    V = build_v_basis(4)
    assert np.abs(B @ np.ones(4)).max() <= 1e-12
    assert np.all(np.linalg.eigvalsh(-0.5 * (V.T @ bundle.D @ V)) >= -1e-12)


def test_factor_coplanar_five_points():
    """Five points in a plane: rank 2 in three columns, two affine dependencies in two."""
    rng = np.random.default_rng(31)
    pts = np.zeros((5, 3))
    pts[:, :2] = rng.normal(size=(5, 2))
    with pytest.raises(SingularGeometry):
        factor_anchors(pts, scale=1.0)
    bundle = factor_anchors(pts[:, :2], scale=1.0)[1]
    assert bundle.r == 2
    assert bundle.Z.shape == (5, 2)
    centered = pts - pts.mean(axis=0)
    assert np.abs(bundle.Z.T @ centered).max() <= 1e-9
    assert np.abs(bundle.Z.T @ np.ones(5)).max() <= 1e-9


def pseudo_inverse(bundle):
    """B^+ from the bundle's eigen realization: P_eigen diag(1/delta^2) P_eigen'."""
    Bdag = (bundle.P_eigen / bundle.delta**2) @ bundle.P_eigen.T
    return 0.5 * (Bdag + Bdag.T)


def test_bundle_identities():
    rng = np.random.default_rng(47)
    for n in (4, 6, 9):
        config, bundle = random_shell_geometry(rng, n)
        B, Bdag, V = gram_from_edm(bundle.D), pseudo_inverse(bundle), build_v_basis(n)
        X = -0.5 * (V.T @ bundle.D @ V)
        ref = max(np.abs(B).max(), 1.0)
        assert np.abs(B - V @ X @ V.T).max() <= 1e-9 * ref
        assert np.abs(X - V.T @ B @ V).max() <= 1e-9 * ref
        # Moore-Penrose axioms
        assert np.abs(Bdag @ B @ Bdag - Bdag).max() <= 1e-9 * max(np.abs(Bdag).max(), 1.0)
        assert np.abs(B @ Bdag @ B - B).max() <= 1e-9 * ref
        assert np.abs(Bdag @ np.ones(n)).max() <= 1e-12 * max(np.abs(Bdag).max(), 1.0)
        # the pseudoinverse written directly in terms of the point coordinates
        P = config.P
        G2 = np.linalg.inv(P.T @ P)
        direct = P @ G2 @ G2 @ P.T
        assert np.abs(Bdag - direct).max() <= 1e-9 * max(np.abs(direct).max(), 1.0)


def test_gale_matrix_orthogonality():
    rng = np.random.default_rng(59)
    for n in (6, 8, 10):
        config, bundle = random_shell_geometry(rng, n)
        assert bundle.Z.shape == (n, n - 4)
        assert np.abs(bundle.Z.T @ config.P).max() <= 1e-9
        assert np.abs(bundle.Z.T @ np.ones(n)).max() <= 1e-9
        assert np.abs(bundle.Z.T @ bundle.Z - np.eye(n - 4)).max() <= 1e-12


def test_eigen_configuration_realizes_gram():
    rng = np.random.default_rng(61)
    bundle = random_shell_geometry(rng, 7)[1]
    Pe = bundle.P_eigen
    B = gram_from_edm(bundle.D)
    assert np.abs(Pe @ Pe.T - B).max() <= 1e-10 * max(np.abs(B).max(), 1.0)


def test_gram_edm_round_trip():
    rng = np.random.default_rng(71)
    for n in (4, 6, 8):
        D = random_shell_geometry(rng, n)[1].D
        D2 = edm_from_gram(gram_from_edm(D))
        assert np.abs(D2 - D).max() <= 1e-10 * max(np.abs(D).max(), 1.0)


def test_classify_simplex_and_triangle_violation():
    assert str(classify_edm(SIMPLEX_D)) == "EdmOfDim(3)"
    D = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    verdict = classify_edm(D)
    assert not verdict.is_edm
    assert verdict.witness < 0.0


def mds_reconstruction_check(D, rank_tol=1e-9):
    """Definition-level oracle: rebuild points from the Gram matrix, recompute
    distances, and accept only when they reproduce D.
    """
    B = gram_from_edm(D)
    evals, evecs = np.linalg.eigh(B)
    thr = rank_tol * max(np.abs(evals).max(), 1.0)
    keep = evals > thr
    pts = evecs[:, keep] * np.sqrt(np.maximum(evals[keep], 0.0))
    D_hat = brute_force_sq_distances(pts)
    ok = np.abs(D_hat - D).max() <= 1e-6 * max(np.abs(D).max(), 1.0)
    return ok, int(keep.sum())


def test_classify_agrees_with_mds_reconstruction():
    rng = np.random.default_rng(83)
    genuine = 0
    for trial in range(1000):
        n = int(rng.integers(4, 8))
        if trial % 2 == 0:
            pts = rng.normal(size=(n, 3))
            D = brute_force_sq_distances(pts)
        else:
            A = rng.normal(size=(n, n))
            D = np.abs(A + A.T)
            np.fill_diagonal(D, 0.0)
        verdict = classify_edm(D)
        ok, dim = mds_reconstruction_check(D)
        assert verdict.is_edm == ok
        if ok:
            genuine += 1
            assert verdict.dim == dim
    assert genuine >= 500  # every point-built matrix must pass


def test_augmented_check_examples():
    rng = np.random.default_rng(97)
    for n in (4, 6):
        bundle = random_shell_geometry(rng, n)[1]
        e = np.ones(n)
        at_centroid = augmented_edm_check(bundle, bundle.b)
        assert at_centroid.is_edm and at_centroid.dim == 3
        lifted = augmented_edm_check(bundle, bundle.b + e)
        assert lifted.is_edm and lifted.dim == 4
    simplex_bundle = factor_anchors(SIMPLEX, scale=1.0)[1]
    sunk = augmented_edm_check(simplex_bundle, simplex_bundle.b - np.ones(4))
    assert not sunk.is_edm


@pytest.mark.parametrize("n", [4, 6, 12, "flat"])
def test_eigenvalues_only_oracle_decides_every_lane_as_eigh(n):
    """_augmented_eigs computes no eigenvectors; eigh's eigenvalues decide every lane alike."""
    rng = np.random.default_rng(113)
    lanes, flat = 300, n == "flat"
    n = 6 if flat else n
    pts = rng.normal(size=(lanes, n, 3))
    P = 2.66 * pts / np.linalg.norm(pts, axis=2)[:, :, None]  # the scaled frame's shell
    q = 0.64 * rng.uniform(-1.0, 1.0, size=(lanes, 3))
    if flat:  # anchors in one plane, and half the receivers in it too
        P[:, :, 2] = 0.3
        q[::2, 2] = 0.3
    D = _squared_distances(P)
    exact = np.einsum("bij,bij->bi", P - q[:, None, :], P - q[:, None, :])
    noisy = exact + 10.0 ** rng.uniform(-10, -4, size=(lanes, 1)) * rng.normal(size=(lanes, n))
    faulted = exact.copy()
    faulted[np.arange(lanes), rng.integers(n, size=lanes)] += (
        rng.choice([-1.0, 1.0], size=lanes) * 10.0 ** rng.uniform(-8, 1, size=lanes))
    seen = set()
    for Y in (exact, noisy, faulted):
        M = Y[:, :, None] + Y[:, None, :] - D
        M = 0.5 * (M + M.transpose(0, 2, 1))
        want_edm, want_dim, _ = _classify_eigs(np.linalg.eigh(M)[0])
        got_edm, got_dim, _ = _classify_eigs(_augmented_eigs(D, Y))
        assert np.array_equal(got_edm, want_edm) and np.array_equal(got_dim, want_dim)
        seen |= set(zip(want_edm.tolist(), np.where(want_edm, want_dim, -1).tolist()))
    # the stacks reach the cut from both sides: extensions at dimension 3 and 4
    # (2 and 3 when flat) and rejected ones
    assert seen >= ({(True, 2), (True, 3)} if flat else {(True, 3), (True, 4)}) | {(False, -1)}


def test_augmented_check_rejects_bad_length():
    bundle = factor_anchors(SIMPLEX, scale=1.0)[1]
    with pytest.raises(BadShape):
        augmented_edm_check(bundle, np.ones(5))


def test_scale_equivariance():
    rng = np.random.default_rng(101)
    pts = rng.normal(size=(6, 3)) * 1e7
    D1 = factor_anchors(pts, scale=1e-7)[1].D
    D2 = factor_anchors(pts, scale=2e-7)[1].D
    assert np.allclose(D2, 4.0 * D1, rtol=1e-14, atol=0.0)
    t1, t2 = classify_edm(D1), classify_edm(D2)
    assert t1.is_edm == t2.is_edm and t1.dim == t2.dim


def test_classify_generated_configs_recovers_dimension():
    rng = np.random.default_rng(103)
    for n, r in ((4, 3), (5, 2), (7, 3)):
        while True:
            pts = rng.normal(size=(n, r)) * 1e6
            try:
                bundle = factor_anchors(pts, scale=1e-6)[1]
                break
            except SingularGeometry:
                continue
        verdict = classify_edm(bundle.D)
        assert verdict == EdmClass.edm_of_dim(r)
