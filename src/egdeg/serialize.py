"""Descriptors for maps and their parts: JSON-able, evaluation-exact.

Floats survive a JSON round trip exactly (repr-based encoding), so a
reconstructed map reproduces values bit-for-bit, as the round-trip tests pin.
A domain is its expression, its bbox and two lists of tagged regions, the
kept and the removed ones.
"""
from __future__ import annotations

import numpy as np

from .domains import (
    AnyOf,
    Balls,
    MapDomain,
    Shell,
    Subspaces,
    Tube,
    expr_from_config,
    expr_to_config,
)
from .errors import ConfigError
from .maps import LocalGradientMap
from .potentials import PiecewisePotential, potential_from_descriptor
from .profiles import PerturbationLayer
from .tubes import SubspaceFamily, TubeGeometry


def tube_descriptor(geo: TubeGeometry) -> dict:
    return {
        "bases": [b.tolist() for b in geo.family.bases],
        "centers": geo.centers.tolist(),
        "rho": geo.rho,
        "epsilon": geo.epsilon,
        "point_stratum": geo.point_stratum,
        "margin": None if geo.margin == float("inf") else geo.margin,
    }


def tube_from_descriptor(desc: dict) -> TubeGeometry:
    fam = SubspaceFamily([np.array(b) for b in desc["bases"]])
    margin = desc.get("margin")
    return TubeGeometry(fam, np.array(desc["centers"]).reshape(-1, fam.dim),
                        desc["rho"], desc["epsilon"],
                        point_stratum=desc["point_stratum"],
                        margin=float("inf") if margin is None else margin)


def region_descriptor(region) -> dict:
    if isinstance(region, Subspaces):
        return {"kind": "subspaces",
                "bases": [b.tolist() for b in region.family.bases]}
    if isinstance(region, Balls):
        return {"kind": "balls", "centers": region.centers.tolist(),
                "radius": region.radius, "closed": region.closed}
    if isinstance(region, Tube):
        return {"kind": "tube", "tube": tube_descriptor(region.geometry),
                "scale": region.scale, "closed": region.closed}
    if isinstance(region, Shell):
        return {"kind": "shell", "tube": tube_descriptor(region.geometry)}
    return {"kind": "any_of", "parts": [domain_descriptor(p) for p in region.parts]}


def region_from_descriptor(desc: dict):
    kind = desc["kind"]
    if kind == "subspaces":
        return Subspaces(SubspaceFamily([np.array(b) for b in desc["bases"]]))
    if kind == "balls":
        return Balls(np.array(desc["centers"]), desc["radius"], desc["closed"])
    if kind == "tube":
        return Tube(tube_from_descriptor(desc["tube"]), desc["scale"],
                    desc["closed"])
    if kind == "shell":
        return Shell(tube_from_descriptor(desc["tube"]))
    if kind == "any_of":
        return AnyOf(tuple(domain_from_descriptor(p) for p in desc["parts"]))
    raise ConfigError(f"unknown region descriptor {kind!r}")


def domain_descriptor(domain: MapDomain) -> dict:
    return {"expr": expr_to_config(domain.expr), "bbox": domain.bbox,
            "kept": [region_descriptor(r) for r in domain.kept],
            "removed": [region_descriptor(r) for r in domain.removed]}


def domain_from_descriptor(desc: dict) -> MapDomain:
    return MapDomain(
        expr_from_config(desc["expr"]), desc["bbox"],
        kept=tuple(region_from_descriptor(r) for r in desc["kept"]),
        removed=tuple(region_from_descriptor(r) for r in desc["removed"]))


def potential_descriptor(pot) -> dict:
    if isinstance(pot, PiecewisePotential):
        return {"kind": "piecewise",
                "pieces": [{"domain": domain_descriptor(d),
                            "potential": p.descriptor()}
                           for d, p in pot.pieces]}
    return pot.descriptor()


def potential_from_full_descriptor(desc: dict):
    if desc.get("kind") == "piecewise":
        pieces = [(domain_from_descriptor(p["domain"]),
                   potential_from_descriptor(p["potential"]))
                  for p in desc["pieces"]]
        return PiecewisePotential(pieces)
    return potential_from_descriptor(desc)


def map_descriptor(f: LocalGradientMap) -> dict:
    return {
        "schema": "egdeg/1",
        "domain": domain_descriptor(f.domain),
        "potential": potential_descriptor(f.potential),
        "layers": [{"tube": tube_descriptor(layer.geometry),
                    "mu_kind": layer.mu_kind} for layer in f.layers],
        "seed_hints": [list(h) for h in f.seed_hints],
    }


def map_from_descriptor(desc: dict, group) -> LocalGradientMap:
    layers = tuple(
        PerturbationLayer(tube_from_descriptor(l["tube"]), l["mu_kind"])
        for l in desc["layers"])
    return LocalGradientMap(
        group=group,
        domain=domain_from_descriptor(desc["domain"]),
        potential=potential_from_full_descriptor(desc["potential"]),
        layers=layers,
        seed_hints=tuple(tuple(h) for h in desc.get("seed_hints", [])),
    )
