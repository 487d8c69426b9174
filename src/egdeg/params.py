"""Numerical parameter block shared across the pipeline."""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError

POLISH_TOL = 1e-9  # newton_zeros keeps only points with residual <= this

_FIELDS = ("grid_h", "bbox", "newton_tol", "seed", "mu_kind")


@dataclass(frozen=True)
class Numerics:
    grid_h: float = 0.1
    bbox: float = 2.0
    newton_tol: float = 1e-10
    seed: int = 20240601
    mu_kind: str = "cubic"

    def __post_init__(self):
        if not self.newton_tol <= POLISH_TOL:
            raise ConfigError(
                f"newton_tol={self.newton_tol!r} exceeds {POLISH_TOL}: Newton "
                f"would stop above the residual {POLISH_TOL} that a zero must "
                f"reach to be kept, so converged zeros would be dropped")

    def with_(self, **kwargs) -> "Numerics":
        return replace(self, **kwargs)

    @classmethod
    def from_config(cls, cfg: dict) -> "Numerics":
        unknown = set(cfg) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown numerics keys: {sorted(unknown)}")
        return cls(**cfg)
