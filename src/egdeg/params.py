"""Numerical parameter block shared across the pipeline."""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ConfigError

POLISH_TOL = 1e-9  # newton_zeros keeps only points with residual <= this

_FIELDS = ("grid_h", "bbox", "newton_tol", "zero_thresh", "seed",
           "max_halvings", "refinement_check", "mu_kind", "workers")


@dataclass(frozen=True)
class Numerics:
    grid_h: float = 0.1
    bbox: float = 2.0
    newton_tol: float = 1e-10
    zero_thresh: float = 1e-8
    seed: int = 20240601
    max_halvings: int = 20
    refinement_check: bool = False
    mu_kind: str = "cubic"
    workers: int = 0  # 0: read EGDEG_WORKERS, default 1

    def __post_init__(self):
        if not self.newton_tol <= POLISH_TOL:
            raise ConfigError(
                f"newton_tol={self.newton_tol!r} exceeds {POLISH_TOL}: Newton "
                f"would stop above the residual {POLISH_TOL} that a zero must "
                f"reach to be kept, so converged zeros would be dropped")

    def effective_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        env = os.environ.get("EGDEG_WORKERS", "1")
        try:
            return max(1, int(env))
        except ValueError:
            return 1

    def with_(self, **kwargs) -> "Numerics":
        return replace(self, **kwargs)

    @classmethod
    def from_config(cls, cfg: dict) -> "Numerics":
        unknown = set(cfg) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown numerics keys: {sorted(unknown)}")
        return cls(**cfg)
