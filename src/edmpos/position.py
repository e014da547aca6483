"""Closed-form receiver position recovery from a feasible squared-range vector.

A receiver q realizes y_i = |p_i - q|^2, so y - b = -2 P q + |q|^2 1 with P
the centred anchors and b their squared norms.  The centred part u of y - b
is therefore -2 P q, and q = -P_pinv u / 2 with P_pinv the anchor
configuration's stored position operator.  The Gale residual that decides
whether y is realizable at all, and the offset 1'(y - b) = n |q|^2 behind the
|q|^2 cross-check, come from the bundle's measurement operator
(consistency.eigen_coordinates).  The solvers' shared tail calls
position_from_coordinates with the coordinates it has already read for its
y_star.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consistency import DEFAULT_GALE_TOL, EigenCoordinates
from .edm_core import EdmBundle, SatelliteConfig
from .errors import BadShape, GaleInfeasible


@dataclass(frozen=True)
class PositionFix:
    """Recovered receiver position with its consistency cross-checks.

    qtq_direct is |q|^2 computed from the recovered coordinates; qtq_identity
    is the same quantity read off the feasible vector as mean(y - b).  The two
    agree to round-off exactly when y came from a real point.
    """

    q_centered: np.ndarray
    q_world: np.ndarray
    qtq_direct: float
    qtq_identity: float
    gale_residual: float

    def to_dict(self) -> dict:
        return {
            "q_world_m": self.q_world.tolist(),
            "q_centered": self.q_centered.tolist(),
            "qtq_direct": self.qtq_direct,
            "qtq_identity": self.qtq_identity,
            "gale_residual": self.gale_residual,
        }


def position_from_coordinates(
    coords: EigenCoordinates, bundle: EdmBundle, config: SatelliteConfig
) -> PositionFix:
    """Solve 2 P q = |q|^2 * 1 + b - y for the receiver q, from the coordinates of y - b.

    The system is consistent only when y - b lies in the column space of
    [P 1]; for n > r+1 that is checked through the null-space residual and a
    violation raises GaleInfeasible.  Multiplying out the ones-component gives
    |q|^2 = 1'(y - b) / n, and q = -P_pinv u / 2 with u the centred part of
    y - b.  Raises BadShape when config and bundle differ in anchor count.
    """
    if config.n != bundle.n:
        raise BadShape(f"configuration has {config.n} anchors, bundle has {bundle.n}")
    gale_res = coords.gale_residual
    if gale_res > DEFAULT_GALE_TOL:
        raise GaleInfeasible(
            f"relative null-space residual {gale_res:.3e} exceeds {DEFAULT_GALE_TOL:.1e}; "
            "no point realizes this squared-range vector"
        )
    # demean first: the |q|^2 * 1 component would otherwise sit in the
    # least-squares residual and amplify conditioning error
    u = coords.z - coords.total / bundle.n
    q = -0.5 * (config.P_pinv @ u)
    return PositionFix(
        q_centered=q,
        q_world=q / config.scale + config.centroid,
        qtq_direct=float(q @ q),
        qtq_identity=coords.total / bundle.n,
        gale_residual=gale_res,
    )
