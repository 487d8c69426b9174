"""Numerical parameter block shared across the pipeline."""
from __future__ import annotations

from .errors import ConfigError
from .records import Record, replace

NEWTON_TOL = 1e-10  # the residual newton_zeros iterates towards
POLISH_TOL = 1e-9   # newton_zeros keeps only points with residual <= this


class Numerics(Record):
    grid_h: float = 0.1
    bbox: float = 2.0
    seed: int = 20240601
    mu_kind: str = "cubic"

    with_ = replace  # a copy with some fields changed

    @classmethod
    def from_config(cls, cfg: dict) -> "Numerics":
        unknown = set(cfg) - set(cls._fields)
        if unknown:
            raise ConfigError(f"unknown numerics keys: {sorted(unknown)}")
        return cls(**cfg)
