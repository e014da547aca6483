"""The stored measurement operator E against the forms it replaced.

Every number a solve reports about a measurement and about its projection is
read off E z for z = y - b.  These tests recompute each one from its direct
definition: kappa from the pseudoinverse B^+, the Gale residual from a
least-squares fit of z on [P_eigen 1], and the receiver from
position_from_coordinates on the reported y_star and from a least-squares
solve of 2 P q = b - y - mean(b - y).
"""

import numpy as np
import pytest

from edmpos.consistency import GALE_NORM_FLOOR, eigen_coordinates, self_consistency_test
from edm_helpers import eigh_bundle
from edmpos.edm_core import factor_anchors
from edmpos.harness import (
    GaussianSq,
    SingleFault,
    apply_noise,
    generate_scenario,
    prepare_scenario,
)
from edmpos.position import position_from_coordinates
from edmpos.solver_general import solve_qcqp, solve_unconstrained

FAULT_SQ = 5.0e9
EPS = np.finfo(float).eps


def pseudo_inverse(bundle):
    """B^+ from the bundle's eigen realization: P_eigen diag(1/delta^2) P_eigen'."""
    Bdag = (bundle.P_eigen / bundle.delta**2) @ bundle.P_eigen.T
    return 0.5 * (Bdag + Bdag.T)


def kappa_bdag(y, bundle):
    """kappa in its pseudoinverse form (4/n) 1'z - z' B^+ z."""
    z = y - bundle.b
    return float((4.0 / bundle.n) * z.sum() - z @ (pseudo_inverse(bundle) @ z))


def gale_direct(z, bundle):
    """|z outside span[P_eigen 1]| / max(|z|, GALE_NORM_FLOOR |b|), with no Gale basis.

    The least-squares residual of z on [P_eigen 1] is the part of z the Gale
    coordinates measure, whichever orthonormal Z the factorization returned.
    """
    A = np.column_stack([bundle.P_eigen, np.ones(bundle.n)])
    resid = z - A @ np.linalg.lstsq(A, z, rcond=None)[0]
    ref = max(float(np.linalg.norm(z)), GALE_NORM_FLOOR * float(np.linalg.norm(bundle.b)))
    return float(np.linalg.norm(resid)) / ref


def lstsq_position(y, bundle, config):
    """Centred receiver by np.linalg.lstsq on the demeaned system."""
    z = bundle.b - y
    return 0.5 * np.linalg.lstsq(config.P, z - z.mean(), rcond=None)[0]


def condition(sc):
    s = np.linalg.svd(sc.satellites - sc.satellites.mean(axis=0), compute_uv=False)
    return float((s[0] / s[-1]) ** 2)


def geometries():
    """17 draws for each n in {4, 5, 6, 12} plus the first 10 four-anchor draws with cond > 1e4."""
    found = [generate_scenario(n, seed=30_000 + 100 * n + k) for n in (4, 5, 6, 12) for k in range(17)]
    ill = (generate_scenario(4, seed=40_000 + k) for k in range(3000))
    found += [sc for sc, _ in zip((sc for sc in ill if condition(sc) > 1e4), range(10))]
    return found


def instances():
    """Each geometry clean, with 2 m noise, and with 2 m noise plus a +-5e9 m^2 fault."""
    for k, sc in enumerate(geometries()):
        noisy = apply_noise(sc, GaussianSq(2.0), seed=k)
        sign = 1.0 if k % 2 else -1.0
        yield sc
        yield noisy
        yield apply_noise(noisy, SingleFault(k % sc.n, sign * FAULT_SQ))


INSTANCES = list(instances())


def test_instance_set_covers_the_stated_range():
    assert len(INSTANCES) >= 200
    assert {sc.n for sc in INSTANCES} == {4, 5, 6, 12}
    assert max(condition(sc) for sc in INSTANCES) > 5e4


@pytest.mark.parametrize("solve", [solve_qcqp, solve_unconstrained])
def test_operator_identities_match_direct_forms(solve):
    for sc in INSTANCES:
        config, bundle, meas = prepare_scenario(sc)
        y = meas.dm
        ref = max(1.0, float(np.abs(y).mean()))
        verdict = self_consistency_test(y, bundle)
        z = y - bundle.b
        assert abs(verdict.gale_residual - gale_direct(z, bundle)) <= 1e-12
        assert abs(verdict.kappa - kappa_bdag(y, bundle)) <= 1e-11 * ref

        report = solve(y, bundle, config=config)
        assert report.verdict == verdict
        y_star = report.y_star
        assert report.objective == float(np.sum((y_star - y) ** 2))
        assert abs(report.kappa_residual - kappa_bdag(y_star, bundle)) <= 1e-11 * ref
        z_star = y_star - bundle.b
        assert abs(report.fix.gale_residual - gale_direct(z_star, bundle)) <= 1e-12

        tol = 16.0 * np.sqrt(condition(sc)) * EPS * float(np.abs(config.P).max())
        q = report.fix.q_centered
        fix = position_from_coordinates(eigen_coordinates(y_star, bundle), bundle, config)
        assert np.abs(q - fix.q_centered).max() <= tol
        assert np.abs(q - lstsq_position(y_star, bundle, config)).max() <= tol


def test_anchor_route_matches_distance_matrix_route():
    # the clean instances are the geometries themselves, each once
    rng = np.random.default_rng(17)
    for sc in INSTANCES[::3]:
        config, bundle = factor_anchors(sc.satellites)
        ref = eigh_bundle(bundle.D)
        assert bundle.r == ref.r == config.r
        # eigh resolves every eigenvalue to round-off of the largest one, so
        # the smallest is compared on that scale, not on its own
        assert np.abs(bundle.delta - ref.delta).max() <= 1e-12 * ref.delta[0]
        assert np.abs(bundle.b - ref.b).max() <= 1e-12 * np.abs(ref.b).max()
        gram, gram_ref = bundle.P_eigen @ bundle.P_eigen.T, ref.P_eigen @ ref.P_eigen.T
        assert np.abs(gram - gram_ref).max() <= 1e-12 * np.abs(gram_ref).max()
        assert np.abs(bundle.Z @ bundle.Z.T - ref.Z @ ref.Z.T).max() <= 1e-12
        pinv = np.linalg.pinv(config.P)
        assert np.abs(config.P_pinv - pinv).max() <= 1e-12 * np.abs(pinv).max()
        for _ in range(5):
            y = bundle.b + float(np.abs(bundle.b).mean()) * rng.normal(size=bundle.n)
            got, want = eigen_coordinates(y, bundle), eigen_coordinates(y, ref)
            # kappa's two terms carry that same error relative to their size
            terms = 4.0 / bundle.n * abs(want.total) + sum(
                w * w / d2 for w, d2 in zip(want.w, ref.delta_sq))
            assert abs(got.kappa - want.kappa) <= 1e-10 * terms
            assert abs(got.gale_residual - want.gale_residual) <= 1e-12
