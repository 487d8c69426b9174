"""Run configuration: schema-validated JSON blocks for the CLI."""
from __future__ import annotations

import json

import numpy as np

from .domains import DomainExpr, expr_from_config
from .errors import ConfigError
from .groups import (
    CircleRep,
    FiniteGroupRep,
    antipodal,
    cyclic,
    dihedral,
    from_generators,
    symmetric,
    trivial,
)
from .params import Numerics
from .potentials import PolynomialPotential, Potential
from .records import Record

_TOP_KEYS = {"schema", "group", "domain", "potential", "numerics", "output",
             "degree"}
_GROUP_KEYS = {"kind", "n", "dim", "matrices", "cap", "weights", "trivial_dim"}
_POTENTIAL_KEYS = {"kind", "expr", "name", "coeffs"}
_DEGREE_KEYS = {"box_lo", "box_hi", "mode"}


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


class RunConfig(Record, frozen=False):
    group: FiniteGroupRep | CircleRep
    domain: DomainExpr
    potential_block: dict
    numerics: Numerics
    output: str | None = None
    degree_block: dict | None = None

    @property
    def is_circle(self) -> bool:
        return isinstance(self.group, CircleRep)


def group_from_config(cfg: dict):
    _check_keys(cfg, _GROUP_KEYS, "group")
    kind = cfg.get("kind")
    if kind == "cyclic":
        return cyclic(int(cfg["n"]))
    if kind == "dihedral":
        return dihedral(int(cfg["n"]))
    if kind == "symmetric":
        return symmetric(int(cfg["n"]))
    if kind == "antipodal":
        return antipodal(int(cfg["dim"]))
    if kind == "trivial":
        return trivial(int(cfg["dim"]))
    if kind == "generators":
        mats = [np.array(m, dtype=float) for m in cfg["matrices"]]
        return from_generators(mats, cap=int(cfg.get("cap", 64)))
    if kind == "circle":
        return CircleRep(tuple(int(w) for w in cfg["weights"]),
                         int(cfg.get("trivial_dim", 0)))
    raise ConfigError(f"unknown group kind {kind!r}")


def load_config(path_or_dict) -> RunConfig:
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        with open(path_or_dict, encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")
    schema = raw.get("schema", "egdeg/1")
    if schema != "egdeg/1":
        raise ConfigError(f"unsupported schema {schema!r}")
    if "group" not in raw:
        raise ConfigError("config requires a group block")
    group = group_from_config(raw["group"])
    domain = expr_from_config(raw.get("domain", {"kind": "full"}))
    pot_block = dict(raw.get("potential", {}))
    if pot_block:
        _check_keys(pot_block, _POTENTIAL_KEYS, "potential")
    numerics = Numerics.from_config(dict(raw.get("numerics", {})))
    degree_block = raw.get("degree")
    if degree_block is not None:
        _check_keys(degree_block, _DEGREE_KEYS, "degree")
    return RunConfig(group=group, domain=domain, potential_block=pot_block,
                     numerics=numerics, output=raw.get("output"),
                     degree_block=degree_block)


def potential_from_block(block: dict, dim: int) -> Potential:
    kind = block.get("kind", "expr")
    if kind == "expr":
        if "expr" not in block:
            raise ConfigError("potential block needs an 'expr' string")
        return PolynomialPotential.from_expression(block["expr"], dim)
    if kind == "radial_r2":
        return PolynomialPotential.radial_from_r2_poly(radial_coeffs(block), dim)
    raise ConfigError(f"unknown potential kind {kind!r}")


def radial_coeffs(block: dict) -> dict[int, float]:
    """Power of r^2 to coefficient, from a ``radial_r2`` potential block."""
    return {int(k): float(v) for k, v in block.get("coeffs", {}).items()}


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, 12-significant-digit floats."""
    def convert(o):
        if isinstance(o, dict):
            return {k: convert(o[k]) for k in sorted(o)}
        if isinstance(o, (list, tuple)):
            return [convert(x) for x in o]
        if isinstance(o, np.ndarray):
            return [convert(x) for x in o.tolist()]
        if isinstance(o, (bool, np.bool_)):
            return bool(o)
        if isinstance(o, (float, np.floating)):
            return float(f"{float(o):.12g}")
        if isinstance(o, (int, np.integer)):
            return int(o)
        if o is None or isinstance(o, str):
            return o
        return str(o)
    return json.dumps(convert(obj), sort_keys=True, indent=1) + "\n"
