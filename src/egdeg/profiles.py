"""Radial profile functions for the tube perturbation.

``well`` is the piecewise-quadratic well used to push zeros away from the
stratum: quadratic growth from a pit of depth eps^2/9, an inverted cap
landing with matching slope, and identically zero on the outer third.  The
retraction strength ``bump`` vanishes on the inner two thirds and climbs to
one at the tube boundary via a C^1 smoothstep; the quintic variant exists to
demonstrate that results do not depend on the choice.  Both take an array of
normal offsets s in [0, eps] and return the profile and its derivative.
``PerturbationLayer.coeffs`` combines them into the homotopy schedule.
"""
from __future__ import annotations

import numpy as np

from .errors import OutOfRange
from .records import Record
from .tubes import TubeGeometry

MU_KINDS = ("cubic", "quintic")


def _checked(s, eps: float) -> np.ndarray:
    if eps <= 0:
        raise OutOfRange("epsilon must be positive")
    s = np.asarray(s, dtype=float)
    if (s < -1e-15).any() or (s > eps * (1 + 1e-12)).any():
        raise OutOfRange(f"argument outside [0, {eps}]: values in "
                         f"[{float(np.min(s))}, {float(np.max(s))}]")
    return s


def well(s, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The well profile omega and omega': s^2/2 - eps^2/9 with slope s, then
    -(s - 2eps/3)^2/2 with slope 2eps/3 - s, then 0."""
    s = _checked(s, eps)
    omega = np.where(s <= eps / 3, 0.5 * s ** 2 - eps ** 2 / 9,
                     np.where(s < 2 * eps / 3, -0.5 * (s - 2 * eps / 3) ** 2, 0.0))
    return omega, _well_slope(s, eps)


def _well_slope(s: np.ndarray, eps: float) -> np.ndarray:
    return np.where(s <= eps / 3, s, np.where(s < 2 * eps / 3, 2 * eps / 3 - s, 0.0))


def bump(s, eps: float, kind: str = "cubic") -> tuple[np.ndarray, np.ndarray]:
    """Retraction strength mu and mu': 0 on [0, 2eps/3], then the ``kind``
    smoothstep of u = (s - 2eps/3)/(eps/3) up to 1 at eps."""
    if kind not in MU_KINDS:
        raise OutOfRange(f"unknown smoothstep kind {kind!r}")
    s = _checked(s, eps)
    u = np.clip((s - 2 * eps / 3) / (eps / 3), 0.0, 1.0)
    if kind == "cubic":
        mu, du = 3 * u ** 2 - 2 * u ** 3, 6 * u - 6 * u ** 2
    else:
        mu = 6 * u ** 5 - 15 * u ** 4 + 10 * u ** 3
        du = 30 * u ** 4 - 60 * u ** 3 + 30 * u ** 2
    hi = s > 2 * eps / 3
    return np.where(hi, mu, 0.0), np.where(hi, du / (eps / 3), 0.0)


class PerturbationLayer(Record):
    """One applied tube perturbation: geometry plus the retraction choice."""

    geometry: TubeGeometry
    mu_kind: str = "cubic"

    @property
    def epsilon(self) -> float:
        return self.geometry.epsilon

    def coeffs(self, s: np.ndarray, t: float = 1.0):
        """(mu_t, mu_t', omega_t') at normal offsets s on the homotopy from
        the identity (t = 0) to this layer (t = 1).

        With tt = min(2t, 1), the retraction factor is mu_t = tt mu + 1 - tt
        and the well is switched on as max(2t - 1, 0) omega: the first half
        retracts toward the stratum, the second half deepens the well.
        """
        mu, mu_d = bump(s, self.epsilon, self.mu_kind)   # the one range check
        tt = min(2 * t, 1.0)
        return (tt * mu + (1 - tt), tt * mu_d,
                max(2 * t - 1, 0.0) * _well_slope(np.asarray(s, float), self.epsilon))
