"""Property test: every accepted instance ends in a report or a typed error.

Geometries come from generate_scenario (normal-matrix condition up to 1e5),
receivers from a ball of 1e-6 to 3 shell radii, and measurements carry
either Gaussian noise of up to 1e5 m or one clamped fault of 1e6 to 1e13 m^2
of either sign.  A report must be kappa-flat and its y_star must be the
squared ranges of its own q, both within the kappa band of y_star.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edmpos.consistency import kappa_band
from edmpos.errors import EdmPosError
from edmpos.harness import (
    DEFAULT_SHELL_RADIUS,
    GaussianSq,
    PipelineOptions,
    SingleFault,
    apply_noise,
    generate_scenario,
    run_pipeline,
)



def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


gaussian = st.builds(GaussianSq, st.just(0.0) | log_uniform(-3.0, 5.0))
# (index, delta_sq); the index is taken modulo the anchor count
fault = st.builds(
    lambda index, sign, magnitude: (index, sign * magnitude),
    st.integers(0, 11),
    st.sampled_from((-1.0, 1.0)),
    log_uniform(6.0, 13.0),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n=st.sampled_from((4, 5, 6, 12)),
    seed=st.integers(0, 2**32 - 1),
    radius_factor=log_uniform(-6.0, float(np.log10(3.0))),
    model=st.one_of(gaussian, fault),
)
def test_pipeline_returns_report_or_typed_error(n, seed, radius_factor, model):
    sc = generate_scenario(
        n, seed=seed, receiver_radius=radius_factor * DEFAULT_SHELL_RADIUS
    )
    if isinstance(model, tuple):
        index, delta_sq = model
        model = SingleFault(index % n, delta_sq)
    sc = apply_noise(sc, model, seed=seed, clamp=True)
    try:
        report = run_pipeline(sc)
    except EdmPosError:
        return
    assert np.all(np.isfinite(report.q))
    band = kappa_band(report.y_star)
    assert abs(report.kappa_residual) <= band
    # y_star must be the scaled squared ranges of the reported receiver
    scale = PipelineOptions().scale
    realized = scale**2 * ((sc.satellites - report.q) ** 2).sum(axis=1)
    assert np.abs(realized - report.y_star).max() <= band
