"""Numerical parameter block shared across the pipeline."""
from __future__ import annotations

from .errors import ConfigError
from .records import Record, replace

POLISH_TOL = 1e-9  # newton_zeros keeps only points with residual <= this


class Numerics(Record):
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

    with_ = replace  # a copy with some fields changed, validated again

    @classmethod
    def from_config(cls, cfg: dict) -> "Numerics":
        unknown = set(cfg) - set(cls._fields)
        if unknown:
            raise ConfigError(f"unknown numerics keys: {sorted(unknown)}")
        return cls(**cfg)
