"""Every record class against a standard-library dataclass of the same
fields: field order, defaults, construction, equality, hashing, repr and
freezing, plus ``replace`` and the records that validate themselves."""
import dataclasses
from functools import cached_property

import numpy as np
import pytest

from egdeg.config import RunConfig
from egdeg.degree import ZeroRecord
from egdeg.domains import AnyOf, Balls, DomainExpr, MapDomain, Shell, Subspaces, Tube
from egdeg.factory import CatalogEntry
from egdeg.groups import CircleRep, Isotropy, OrthogonalTransform, SubgroupRecord
from egdeg.maps import LocalGradientMap
from egdeg.params import Numerics
from egdeg.perturb import SplitParts
from egdeg.profiles import PerturbationLayer
from egdeg.records import Factory, Record, replace
from egdeg.strata import OrbitTypeLattice, StratumComponent
from egdeg.theta import RecursionTrace, Step, ThetaVector

FRESH = object()  # a default made afresh for each record
RECORDS = {  # class: (fields in order, defaults)
    RunConfig: (("group", "domain", "potential_block", "numerics", "output",
                 "degree_block"), {"output": None, "degree_block": None}),
    ZeroRecord: (("point", "index"), {}),
    DomainExpr: (("kind", "r1", "r2", "left", "right"),
                 {"r1": 0.0, "r2": 0.0, "left": None, "right": None}),
    Subspaces: (("family",), {}),
    Balls: (("centers", "radius", "closed"), {}),
    Tube: (("geometry", "scale", "closed"), {}),
    Shell: (("geometry",), {}),
    AnyOf: (("parts",), {}),
    MapDomain: (("expr", "bbox", "kept", "removed"), {"kept": (), "removed": ()}),
    CatalogEntry: (("name", "provenance", "expected_theta11", "expected_entries",
                    "numerics", "row_label"),
                   {"expected_entries": (), "numerics": FRESH, "row_label": None}),
    OrthogonalTransform: (("matrix",), {}),
    CircleRep: (("weights", "trivial_dim"), {"trivial_dim": 0}),
    SubgroupRecord: (("member_indices", "order", "normalizer_indices",
                      "weyl_coset_reps", "fixed_basis", "class_id"), {}),
    Isotropy: (("member_indices", "class_id"), {}),
    LocalGradientMap: (("group", "domain", "potential", "layers", "seed_hints"),
                       {"layers": (), "seed_hints": ()}),
    Numerics: (("grid_h", "bbox", "seed", "mu_kind"),
               {"grid_h": 0.1, "bbox": 2.0, "seed": 20240601, "mu_kind": "cubic"}),
    SplitParts: (("core", "off_stratum", "trimmed"), {}),
    PerturbationLayer: (("geometry", "mu_kind"), {"mu_kind": "cubic"}),
    OrbitTypeLattice: (("group", "class_ids"), {}),
    StratumComponent: (("index", "label", "cells", "centers"), {}),
    ThetaVector: (("entries", "origin_slot"), {"entries": (), "origin_slot": None}),
    RecursionTrace: (("steps",), {"steps": FRESH}),
    Step: (("index", "class_id", "label", "fixed_dim", "f", "stratum", "restricted",
            "zeros", "ambient", "margin", "newton", "tube", "family", "parts"),
           {"stratum": None, "restricted": None, "zeros": FRESH, "ambient": None,
            "margin": None, "newton": None, "tube": None, "family": None,
            "parts": None}),
}
MUTABLE = {RunConfig, SubgroupRecord, OrbitTypeLattice, StratumComponent,
           RecursionTrace, Step}
VALID = {Numerics: (0.2, 1.5, 7, "quintic"), CircleRep: ((1, -2), 1),
         OrthogonalTransform: (np.eye(2),)}
# OrthogonalTransform compares and hashes its matrix itself (below)
PLAIN = [cls for cls in RECORDS if cls is not OrthogonalTransform]


def values(cls):
    return VALID.get(cls) or tuple(f"<{n}>" for n in RECORDS[cls][0])


def reference(cls):
    """A standard-library dataclass with the fields and defaults of ``cls``."""
    fields, defaults = RECORDS[cls]
    spec = [(n, object) if n not in defaults else
            (n, object, dataclasses.field(default_factory=type(getattr(cls, n))))
            if defaults[n] is FRESH else (n, object, defaults[n]) for n in fields]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=cls not in MUTABLE)


def ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_fields_and_defaults(cls):
    fields, defaults = RECORDS[cls]
    assert issubclass(cls, Record) and cls._fields == fields
    required = [n for n in fields if n not in defaults]
    rec = cls(*values(cls)[:len(required)])
    assert rec == cls(**dict(zip(required, values(cls))))
    for n in fields[len(required):]:
        if defaults[n] is FRESH:  # a new empty container per record
            assert getattr(rec, n) == type(getattr(cls, n))()
            assert getattr(rec, n) is not getattr(cls(*values(cls)[:len(required)]), n)
        else:
            assert getattr(rec, n) == defaults[n]


@pytest.mark.parametrize("cls", PLAIN, ids=ids)
def test_equal_to_reference_dataclass(cls):
    vals, ref = values(cls), reference(cls)
    rec, want = cls(*vals), ref(*vals)
    assert repr(rec) == repr(want)
    assert repr(cls(*vals[:1], **dict(zip(cls._fields[1:], vals[1:])))) == repr(want)
    assert rec == cls(*vals) and not rec != cls(*vals)
    changed = replace(rec, **{cls._fields[0]: VALID.get(cls, ("other",))[0] * 2})
    assert changed != rec and changed == cls(changed.__dict__[cls._fields[0]], *vals[1:])
    assert rec.__eq__(want) is NotImplemented and rec != want
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
        setattr(rec, cls._fields[0], "new")
        assert getattr(rec, cls._fields[0]) == "new"
    else:
        assert hash(rec) == hash(vals) == hash(want)
        with pytest.raises(AttributeError):
            setattr(rec, cls._fields[0], "new")
        with pytest.raises(AttributeError):
            delattr(rec, cls._fields[0])
        assert getattr(rec, cls._fields[0]) == vals[0]


@pytest.mark.parametrize("args, kwargs", [
    ((0.1, 2.0, 1, "cubic", "extra"), {}),
    ((0.1,), {"grid_h": 0.2}),
    ((), {"h": 0.1}),
], ids=["too-many", "twice", "unknown"])
def test_bad_arguments_raise(args, kwargs):
    with pytest.raises(TypeError, match="takes the fields"):
        Numerics(*args, **kwargs)


def test_missing_field_raises():
    with pytest.raises(TypeError, match="takes the fields"):
        ZeroRecord((0.0,))
    with pytest.raises(TypeError, match="takes the fields"):
        replace(ZeroRecord((0.0,), 1), sign=1)


def test_post_init_validates():
    with pytest.raises(ValueError, match="nonzero"):
        CircleRep((0,))
    with pytest.raises(ValueError, match="nonzero"):
        CircleRep(weights=(2, 0), trivial_dim=1)
    with pytest.raises(ValueError, match="nonzero"):
        replace(CircleRep((1,)), weights=(0,))
    with pytest.raises(ValueError, match="nonempty"):
        replace(CircleRep((1,), 1), weights=())
    assert replace(CircleRep((1,)), trivial_dim=2) == CircleRep((1,), 2)
    assert Numerics().with_(seed=3) == Numerics(seed=3)
    with pytest.raises(ValueError, match="nonempty"):
        CircleRep(())


def test_records_of_other_classes_are_not_equal():
    # equal field tuples, different classes: neither side claims equality
    assert Subspaces("x").__eq__(Shell("x")) is NotImplemented
    assert Subspaces("x") != Shell("x")


def test_orthogonal_transform_keeps_its_comparison():
    a = OrthogonalTransform(np.eye(2))
    b = OrthogonalTransform(np.eye(2) + 1e-10)
    assert a == b and hash(a) == hash(b) == hash((2, 2))
    assert a != OrthogonalTransform(-np.eye(2))
    assert repr(a) == f"OrthogonalTransform(matrix={np.eye(2)!r})"


def test_cached_property_on_frozen_record():
    class Squares(Record):
        n: int

        @cached_property
        def values(self):
            return [i * i for i in range(self.n)]

    rec = Squares(4)
    assert rec.values is rec.values and rec.values == [0, 1, 4, 9]
    assert rec == Squares(4) and hash(rec) == hash((4,))


def test_factory_default_is_per_record():
    class Bag(Record, frozen=False):
        items: list = Factory(list)

    a, b = Bag(), Bag()
    a.items.append(1)
    assert a.items == [1] and b.items == [] and Bag([2]).items == [2]
