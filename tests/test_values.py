"""The immutable value classes of the package, all on `dehn._value.Value`."""

import copy
import importlib
import json
import pickle
import pkgutil

import pytest

import dehn
from conftest import TREFOIL
from dehn._value import Value, _set
from dehn.cli import _Parser
from dehn.diagram import wirtinger
from dehn.errors import DehnError
from dehn.invariants import DefectValue, TorsionValue
from dehn.mscomplex import ExactnessReport, check_exactness
from dehn.pipeline import run_pipeline


def trefoil_values() -> dict:
    """One instance of each value class, from a fresh trefoil run. Reading
    `tor.raw` and `propagator.g2` fills their cached Q(t) forms, so the run's
    copies and pickles carry them."""
    run = run_pipeline(TREFOIL)
    values = [run.pd, run.diagram.crossings[0], run.diagram.regions[0], run.diagram,
              wirtinger(run.diagram), run.graph.edges[0].label, run.graph.edges[0], run.graph, run.complex, check_exactness(run.complex),
              run.propagator, run.tor, run.d, run.alexander, run, run.alexander.poly,
              run.tor.raw, run.propagator.g2, run.rep]
    return {type(v).__name__: v for v in values}


CLASSES = sorted(trefoil_values())
# Every class but the three whose constructors normalize their arguments
# stores its fields as given.
FIELD_BUILT = [name for name in CLASSES
               if name not in {"Polynomial", "RatFunc", "FieldMatrix"}]
# The two classes with dicts among their fields do not hash; every other does.
UNHASHABLE = {"KnotDiagram", "PipelineRun"}


def test_every_value_class_is_covered():
    for info in pkgutil.iter_modules(dehn.__path__):
        module = importlib.import_module(f"dehn.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                assert issubclass(obj, (Value, DehnError)) or obj is _Parser, obj
    assert sorted(cls.__name__ for cls in Value.__subclasses__()) == CLASSES


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

    want = None if name in UNHASHABLE else hash(value)
    if want is None:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    for same in (cls(*args), copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert same == value and not same != value
        assert want is None or hash(same) == want

    for f in fields:
        changed = copy.copy(value)
        _set(changed, f, object())
        assert changed != value

    assert repr(value).startswith(f"{name}(")
    assert value != object() and value != tuple(args)

    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


@pytest.mark.parametrize("name", FIELD_BUILT)
def test_field_constructor(name):
    value = trefoil_values()[name]
    cls, fields = type(value), type(value)._fields
    args = [getattr(value, f) for f in fields]

    assert cls(**dict(zip(fields, args))) == value
    for i in range(len(fields)):
        changed = list(args)
        changed[i] = object()
        assert cls(*changed) != value

    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], args[1:])))


def test_a_used_run_copies_and_pickles():
    """A run whose JSON and G2 were read holds cached Polynomial, RatFunc and
    FieldMatrix values; its copy and its unpickled form equal it, and the
    unpickled run writes the same JSON."""
    run = run_pipeline(TREFOIL)
    want = json.dumps(run.to_json_dict())
    g2 = run.propagator.g2
    for value in (run, run.tor, run.tor.raw, run.alexander.poly, g2):
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    assert json.dumps(pickle.loads(pickle.dumps(run)).to_json_dict()) == want


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
