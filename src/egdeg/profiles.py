"""Radial profile functions for the tube perturbation.

``well_omega`` is the piecewise-quadratic well used to push zeros away from
the stratum: quadratic growth from a pit of depth eps^2/9, an inverted cap
landing with matching slope, and identically zero on the outer third.  The
retraction strength ``bump_mu`` vanishes on the inner two thirds and climbs
to one at the tube boundary via a C^1 smoothstep; the quintic variant exists
to demonstrate that results do not depend on the choice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .tubes import TubeGeometry, TubeSpec

MU_KINDS = ("cubic", "quintic")


def _check_range(s: np.ndarray, eps: float, scalar_input: bool):
    if eps <= 0:
        raise OutOfRange("epsilon must be positive")
    if np.any(s < -1e-15) or np.any(s > eps * (1 + 1e-12)):
        bad = float(np.asarray(s).ravel()[0]) if scalar_input else None
        raise OutOfRange(f"argument outside [0, eps]: {bad if bad is not None else ''}")


def well_omega(s, eps: float):
    """The well profile: s^2/2 - eps^2/9, then -(s - 2eps/3)^2/2, then 0."""
    scalar = np.isscalar(s)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    _check_range(s, eps, scalar)
    out = np.zeros_like(s)
    lo = s <= eps / 3
    mid = (s > eps / 3) & (s < 2 * eps / 3)
    out[lo] = 0.5 * s[lo] ** 2 - eps ** 2 / 9
    out[mid] = -0.5 * (s[mid] - 2 * eps / 3) ** 2
    return float(out[0]) if scalar else out


def well_omega_deriv(s, eps: float):
    scalar = np.isscalar(s)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    _check_range(s, eps, scalar)
    out = np.zeros_like(s)
    lo = s <= eps / 3
    mid = (s > eps / 3) & (s < 2 * eps / 3)
    out[lo] = s[lo]
    out[mid] = 2 * eps / 3 - s[mid]
    return float(out[0]) if scalar else out


def _smoothstep(u: np.ndarray, kind: str) -> np.ndarray:
    if kind == "cubic":
        return 3 * u ** 2 - 2 * u ** 3
    if kind == "quintic":
        return 6 * u ** 5 - 15 * u ** 4 + 10 * u ** 3
    raise OutOfRange(f"unknown smoothstep kind {kind!r}")


def _smoothstep_deriv(u: np.ndarray, kind: str) -> np.ndarray:
    if kind == "cubic":
        return 6 * u - 6 * u ** 2
    if kind == "quintic":
        return 30 * u ** 4 - 60 * u ** 3 + 30 * u ** 2
    raise OutOfRange(f"unknown smoothstep kind {kind!r}")


def bump_mu(s, eps: float, kind: str = "cubic"):
    """Retraction strength: 0 on [0, 2eps/3], smoothstep up to 1 at eps."""
    scalar = np.isscalar(s)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    _check_range(s, eps, scalar)
    out = np.zeros_like(s)
    hi = s > 2 * eps / 3
    u = (s[hi] - 2 * eps / 3) / (eps / 3)
    out[hi] = _smoothstep(np.clip(u, 0.0, 1.0), kind)
    return float(out[0]) if scalar else out


def bump_mu_deriv(s, eps: float, kind: str = "cubic"):
    scalar = np.isscalar(s)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    _check_range(s, eps, scalar)
    out = np.zeros_like(s)
    hi = s > 2 * eps / 3
    u = (s[hi] - 2 * eps / 3) / (eps / 3)
    out[hi] = _smoothstep_deriv(np.clip(u, 0.0, 1.0), kind) / (eps / 3)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PerturbationLayer:
    """One applied tube perturbation: geometry plus the retraction choice."""

    geometry: TubeGeometry
    mu_kind: str = "cubic"

    @property
    def spec(self) -> TubeSpec:
        return self.geometry.spec

    @property
    def epsilon(self) -> float:
        return self.geometry.spec.epsilon
