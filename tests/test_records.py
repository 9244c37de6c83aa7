"""The value records: frozen, slotted, compared, hashed, printed and pickled by field."""
import copy
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import synchro
from synchro import (
    ANNIHILATOR,
    SHORT,
    BalancedLattice,
    BalanceResult,
    CirTrace,
    FreeCommutative,
    MonoidRegistry,
    NaturalAdd,
    NaturalMul,
    Network,
    Partition,
    PolyPoint,
    ProductMonoid,
    ResistorParallel,
    WithAnnihilator,
    dynamics,
    quotient,
    row_signature,
)

import checks


def _network():
    """Three cells whose weights include SHORT and ANNIHILATOR."""
    registry = MonoidRegistry({
        (0, 0): ResistorParallel(),
        (0, 1): WithAnnihilator(NaturalMul()),
        (1, 0): NaturalAdd(),
        (1, 1): FreeCommutative(("x",)),
    })
    edges = [("a", "b", SHORT), ("a", "c", ANNIHILATOR), ("c", "a", 2), ("c", "c", (("x", 1),))]
    return Network.build(["a", "b", "c"], ["s", "s", "t"], ["s", "t"], registry, edges)


def _records():
    """(class, fields by name) for every record class and every report in ``checks``;
    each call builds fresh values."""
    net = _network()
    p = Partition((1, 1, 2))
    hit = dynamics.IndicatorOracle(0, 1, NaturalAdd(), 1.0, 3)
    arrays = {name: np.arange(3) + k for k, name in enumerate(
        ("tgt", "src", "codes", "pairs", "gains", "diffusive", "slope", "zero_g"))}
    return [
        (ResistorParallel, {}),
        (NaturalAdd, {}),
        (NaturalMul, {}),
        (FreeCommutative, dict(generators=("x", "y"))),
        (ProductMonoid, dict(parts=(NaturalAdd(), ResistorParallel()))),
        (WithAnnihilator, dict(inner=NaturalMul())),
        (checks.LawViolation, dict(law="commutativity", operands=(1, 2), left=3, right=4)),
        (checks.LawCheckReport, dict(spec=NaturalAdd(), trials=10, violations=())),
        (Partition, dict(colors=(1, 1, 2))),
        (PolyPoint, dict(partition=Partition((1, 2, 1)), reduced=(1.0, 2.0),
                         full=(1.0, 2.0, 1.0))),
        (BalanceResult, dict(balanced=False, counterexample=("a", "b", 1))),
        (checks.TransitivityReport, dict(ok=True, via_two_steps=net, direct=net, composed=p)),
        (CirTrace, dict(iterations=((Partition((1, 2, 3)), 3),) * 2, ops=(5, 5))),
        (BalancedLattice, dict(elements=(p, Partition.trivial(3)), covers=((1, 0),),
                               complete=True)),
        (dynamics.GFunc, dict(kind="scale", a=2.0, fn=None)),
        (dynamics.Coupling, dict(kind="diffusive", fn=None)),
        (dynamics.IndicatorOracle, dict(target_type=0, source_type=1, spec=WithAnnihilator(),
                                        target_state=1.0, target_sum=ANNIHILATOR)),
        (checks.ConsistencyViolation, dict(law="merge", type_pair=(0, 0),
                                           raw_inputs=((0, 1, 1.0),), reduced_inputs=(),
                                           raw_value=1.0, reduced_value=2.0)),
        (checks.ConsistencyReport, dict(trials=10, skipped=1, violations=())),
        (checks.LinearityReport, dict(additive_deviation=0.0, homogeneous_deviation=1e-13)),
        (dynamics.Trajectory, dict(times=(0, 1), states=np.zeros((2, 3)), kind="map")),
        (dynamics._LinearField, arrays),
    ]


_ARRAYS = (dynamics.Trajectory, dynamics._LinearField)  # fields that == cannot compare


def _same_fields(a, b, names):
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


@pytest.mark.parametrize("index", range(len(_records())), ids=[c.__name__ for c, _ in _records()])
def test_records_keep_what_frozen_dataclasses_gave(index):
    cls, fields = _records()[index]
    values = tuple(fields.values())
    a, b = cls(*values), cls(**_records()[index][1])
    assert not hasattr(a, "__dict__")
    _same_fields(a, b, fields)
    if cls is dynamics.Trajectory:  # compares and hashes by identity
        assert a == a and a != b and len({a, b}) == 2
    elif cls not in _ARRAYS:
        assert a == b and not a != b
        try:
            expected = hash(values)
        except TypeError:  # a Network field: as unhashable as the field tuple
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == expected
    name = next(iter(fields), "kind")
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    for again in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(again) is cls
        _same_fields(a, again, fields)
        assert cls in _ARRAYS or again == a
    assert repr(a).startswith(f"{cls.__name__}(")


def test_reprs_are_the_dataclass_reprs():
    assert repr(NaturalAdd()) == "NaturalAdd()"
    assert repr(FreeCommutative(["y", "x", "y"])) == "FreeCommutative(generators=('x', 'y'))"
    assert repr(Partition((1, 1, 2))) == "Partition(colors=(1, 1, 2))"
    assert repr(BalanceResult(True)) == "BalanceResult(balanced=True, counterexample=None)"
    assert repr(WithAnnihilator()) == "WithAnnihilator(inner=NaturalAdd())"


def test_equality_stays_within_one_class():
    assert NaturalAdd() != NaturalMul()
    assert hash(NaturalAdd()) == hash(NaturalMul()) == hash(())
    assert BalanceResult(True) != (True, None)


def test_fields_bind_once_each_by_position_or_name():
    p = Partition((1, 1))
    assert PolyPoint(p, reduced=(1.0,), full=(1.0, 1.0)) == PolyPoint(p, (1.0,), (1.0, 1.0))
    assert dynamics.GFunc("scale", a=2.0) == dynamics.GFunc(kind="scale", a=2.0, fn=None)
    # a field missing, one too many, one given twice, a name that is no field
    bad = [((p,), {}), ((p, (1.0,), (1.0, 1.0), 4), {}),
           ((p, (1.0,)), {"full": (1.0, 1.0), "partition": p}), ((p, (1.0,)), {"total": ()})]
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            PolyPoint(*args, **kwargs)


def test_records_of_a_network_with_absorbing_weights_pickle_and_copy():
    q = quotient(_network(), Partition.trivial(3))
    for again in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q)):
        assert again == q
        assert again.entry("a", "b") is SHORT
        assert again.entry("a", "c") is ANNIHILATOR


def test_partitions_take_weak_references():
    p = Partition.from_colors("aab")
    ref = weakref.ref(p)
    assert ref() is p


# Imports synchro.cli in a fresh interpreter and reports which modules it loaded.
_IMPORT = """
import json, sys
import synchro.cli
print(json.dumps(sorted(sys.modules)))
"""


def test_importing_the_cli_loads_no_dataclasses():
    src = str(Path(synchro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _IMPORT], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    loaded = json.loads(done.stdout)
    assert "synchro.cli" in loaded
    assert {"dataclasses", "click"}.isdisjoint(loaded)


def test_no_synchro_class_is_a_dataclass():
    names = [m.name for m in pkgutil.iter_modules(synchro.__path__) if m.name != "__main__"]
    modules = [importlib.import_module(f"synchro.{name}") for name in names]
    assert "dynamics" in names and "cli" in names
    classes = {v for m in modules for v in vars(m).values() if isinstance(v, type)}
    assert {cls for cls, _ in _records() if cls.__module__ != checks.__name__} <= classes
    assert [c.__name__ for c in classes if hasattr(c, "__dataclass_fields__")] == []


def test_results_hold_nothing_their_call_already_knows():
    net = _network()
    assert type(quotient(net, Partition.trivial(3))) is Network
    assert row_signature(net, Partition.trivial(3), "c") == (2, NaturalAdd().identity, (("x", 1),))
    assert CirTrace._fields == ("iterations", "ops")
    names = [m.name for m in pkgutil.iter_modules(synchro.__path__) if m.name != "__main__"]
    for name in names:
        module = importlib.import_module(f"synchro.{name}")
        assert {"QuotientResult", "RowSignature"}.isdisjoint(vars(module)), name
