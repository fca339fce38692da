"""The immutable value classes of the package, all on `dehn._value.Value`."""

import copy
import pickle

import pytest

from conftest import TREFOIL
from dehn._value import Value
from dehn.diagram import wirtinger
from dehn.invariants import DefectValue, TorsionValue
from dehn.mscomplex import ExactnessReport, check_exactness
from dehn.pipeline import run_pipeline


def trefoil_values() -> dict:
    """One instance of each value class, from a fresh trefoil run."""
    run = run_pipeline(TREFOIL)
    values = [run.pd, run.diagram.crossings[0], run.diagram.regions[0], run.diagram,
              wirtinger(run.diagram), run.graph.edges[0].label, run.graph.vertices[0],
              run.graph.edges[0], run.graph, run.complex, check_exactness(run.complex),
              run.propagator, run.tor, run.d, run.alexander, run]
    return {type(v).__name__: v for v in values}


CLASSES = sorted(trefoil_values())


def test_every_value_class_is_covered():
    assert sorted(cls.__name__ for cls in Value.__subclasses__()) == CLASSES
    assert len(CLASSES) == 16


@pytest.mark.parametrize("name", CLASSES)
def test_value_class(name):
    value = trefoil_values()[name]
    cls, fields = type(value), type(value)._fields
    args = [getattr(value, f) for f in fields]

    with pytest.raises(AttributeError):
        setattr(value, fields[0], args[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, fields[0])

    try:
        want = hash(value)
    except TypeError:  # a field is a list or a dict
        want = None
    for same in (cls(*args), cls(**dict(zip(fields, args))), copy.copy(value)):
        assert same == value and not same != value
        assert want is None or hash(same) == want
    # A Representation compares by identity, so a PipelineRun never equals its copy.
    assert pickle.loads(pickle.dumps(value)) == value or name == "PipelineRun"

    for i in range(len(fields)):
        changed = list(args)
        changed[i] = object()
        assert cls(*changed) != value

    assert repr(value).startswith(f"{name}(")
    assert value != object() and value != tuple(args)

    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], args[1:])))
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


def test_exactness_report_witness_defaults_to_none():
    report = ExactnessReport(True)
    assert report.witness is None
    assert report == ExactnessReport(True, None) == ExactnessReport(exact=True)
    assert repr(report) == "ExactnessReport(exact=True, witness=None)"


def test_cached_properties_are_read_once():
    value = trefoil_values()["TorsionValue"]
    assert value.raw is value.raw
    assert value.normalized is value.normalized
    assert copy.copy(value) == value  # the cached forms are not fields


def test_equal_pairs_of_different_classes_differ():
    assert TorsionValue((1,), (1,)) != DefectValue((1,), (1,))
