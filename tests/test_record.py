"""The value protocol every record class shares: immutable fields, equality
and hashing over them, copy and pickle round trips, and the repr format
the classes had as dataclasses."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from zkwander import (Interval, Radical, SearchConfig, attach_register,
                      minimize, perturbed, recover, reduce_system, verify)
from zkwander.model import orthogonality_relations
from zkwander.reduction import compute_C

RECORD_CLASSES = ("Interval", "Radical", "WeightSequence", "DegreePattern",
                  "GeneratorPair", "AQuantities", "ReducedSystem",
                  "CQuantities", "RecoveredParameters", "SearchConfig",
                  "SearchResult", "Certificate")
# classes that print themselves in their own notation
OWN_REPR = {"Interval": "[0.5, 2.0]", "Radical": "Radical(3*sqrt(2))"}


@pytest.fixture(scope="module")
def records(seq16, pattern6):
    """One instance of each record class, from the headline system."""
    rs = reduce_system(seq16, pattern6)
    params = attach_register(
        recover(rs, (1, 1, 4, 6), z3=Fraction(-2 * 10 ** 13)), 1, 1)
    config = SearchConfig(alpha=-16, strategy="grid")
    found = [Interval(0.5, 2.0), 3 * Radical.sqrt(2),
             perturbed(seq16, {3: Fraction(1, 7)}), pattern6, params.pair,
             orthogonality_relations(params.pair, seq16)[0], rs, params.c,
             params, config, minimize(config), verify(params.pair, seq16)]
    return {type(r).__name__: r for r in found}


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__slots__}


@pytest.mark.parametrize("name", RECORD_CLASSES)
def test_record_protocol(records, name):
    record = records[name]
    fields = _fields(record)
    assert set(records) == set(RECORD_CLASSES) and len(fields) >= 2
    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert _fields(record) == fields

    twin = type(record)(**fields)
    assert twin == record and twin is not record
    assert record != tuple(fields.values())
    if name != "Certificate":           # it holds lists and dicts
        assert hash(twin) == hash(record)

    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record

    # the repr the dataclass of the same fields gives
    mirror = dataclasses.make_dataclass(name, list(fields))(**fields)
    assert repr(record) == OWN_REPR.get(name, repr(mirror))


# records built past __init__, through their slot descriptors
HOT_PATHS = {
    "Interval+": lambda rs: Interval(0.5, 2.0) + Interval(1.0, 4.0),
    "Interval-": lambda rs: Interval(0.5, 2.0) - Interval(1.0, 4.0),
    "Interval*": lambda rs: Interval(0.5, 2.0) * Interval(1.0, 4.0),
    "Interval/": lambda rs: Interval(0.5, 2.0) / Interval(1.0, 4.0),
    "Interval.exact-int": lambda rs: Interval.exact(3),
    "Interval.exact-Fraction": lambda rs: Interval.exact(Fraction(1, 3)),
    "CQuantities": lambda rs: compute_C(rs, (1, 1, 4, 6)),
}


@pytest.mark.parametrize("path", sorted(HOT_PATHS))
def test_a_record_built_on_the_hot_path(rs16, path):
    record = HOT_PATHS[path](rs16)
    fields = _fields(record)
    twin = type(record)(**fields)
    assert twin == record and hash(twin) == hash(record)
    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record
        assert hash(clone) == hash(record)
