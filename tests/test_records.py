"""The package's value classes behave as the dataclasses they replace, and
importing the command line loads none of the modules dataclasses pulls in.

Each class is checked against a dataclass twin with the same name and
fields: the same repr, equality by fields within the class, the same hash
(TypeError for a profile, whose dicts are unhashable), AttributeError on
any assignment or deletion, and copies and pickles that compare equal.
"""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from dataclasses import make_dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import numelast
from numelast import (
    ArithmeticalParams,
    ComparisonVerdict,
    ElasticityProfile,
    ElasticityTuple,
    Factorization,
    LengthStats,
    NumericalMonoid,
    SequenceAlignment,
    TupleComparison,
    build_profile,
    new_monoid,
)
from numelast.records import FrozenRecord

from profile_helpers import field_names, finite_values, replaced

SRC = Path(__file__).resolve().parents[1] / "src"


def _profile_fields(gens):
    prof = build_profile(new_monoid(gens))
    return tuple(getattr(prof, name) for name in field_names(prof))


# class, its fields, two sets of field values that differ in every field
CASES = [
    (NumericalMonoid, ("generators",), ((3, 5),), ((4, 7, 9),)),
    (ArithmeticalParams, ("a", "d", "k"), (7, 3, 3), (8, 5, 2)),
    (ElasticityTuple, ("c", "s", "x"), (1, 2, 3), (0, 0, 0)),
    (
        TupleComparison,
        ("relation", "rule", "lhs", "rhs"),
        (-1, "exact", Fraction(3, 2), Fraction(5, 3)),
        (1, "row", Fraction(2), Fraction(1)),
    ),
    (Factorization, ("exponents",), ((1, 0, 2),), ((3,),)),
    (
        LengthStats,
        ("n", "max_len", "min_len", "elasticity"),
        (10, 4, 3, Fraction(4, 3)),
        (0, 0, 0, Fraction(1)),
    ),
    (
        ElasticityProfile,
        ("monoid", "base", "period", "finite", "key_scale", "starts", "lines"),
        _profile_fields([2, 3]),
        _profile_fields([3, 7, 11]),
    ),
    (SequenceAlignment, ("source", "target", "alpha", "beta", "t0"), (0, 3, 1, 0, 0), (2, 1, 3, 4, 5)),
    (
        ComparisonVerdict,
        ("outcome", "witness", "certificate", "reason"),
        ("equal", None, ((SequenceAlignment(0, 0, 1, 0, 0),), ()), "alignment"),
        ("not_equal", Fraction(7, 5), None, "cross-check"),
    ),
]
# classes with a field that cannot be hashed
UNHASHABLE = {ElasticityProfile}


def test_every_value_class_has_a_case():
    for info in pkgutil.iter_modules(numelast.__path__):
        if info.name != "__main__":  # importing it runs the command line
            importlib.import_module(f"numelast.{info.name}")
    defined = {cls for cls in FrozenRecord.__subclasses__() if cls.__module__.startswith("numelast.")}
    assert defined == {cls for cls, *_ in CASES}


@pytest.mark.parametrize("cls, names, values, others", CASES, ids=lambda c: getattr(c, "__name__", None))
def test_value_class_matches_its_dataclass_twin(cls, names, values, others):
    twin = make_dataclass(cls.__name__, names, frozen=True)
    obj = cls(*values)
    assert field_names(obj) == names
    assert tuple(getattr(obj, name) for name in names) == values
    assert repr(obj) == repr(twin(*values))
    assert cls(**dict(zip(names, values))) == obj
    assert obj != twin(*values) and obj.__eq__(twin(*values)) is NotImplemented
    for i, name in enumerate(names):  # unequal when any one field differs
        changed = values[:i] + others[i : i + 1] + values[i + 1 :]
        assert cls(*changed) != obj and replaced(obj, **{name: others[i]}) == cls(*changed)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin(*values)) == hash(values)
        assert len({obj, cls(*values), cls(*others)}) == 2
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, others[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in names) == values
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj


def test_reprs_are_pinned():
    # the pinned verdict digest of test_compare_reference hashes these reprs
    assert repr(SequenceAlignment(0, 3, 1, 0, 0)) == (
        "SequenceAlignment(source=0, target=3, alpha=1, beta=0, t0=0)"
    )
    assert repr(ComparisonVerdict("not_equal", Fraction(7, 5), None, "cross-check")) == (
        "ComparisonVerdict(outcome='not_equal', witness=Fraction(7, 5), "
        "certificate=None, reason='cross-check')"
    )
    assert repr(new_monoid([5, 3, 8])) == "NumericalMonoid(generators=(3, 5))"


def test_built_profile_is_immutable_and_finite_part_is_the_fraction_view():
    prof = build_profile(new_monoid([6, 10, 13, 14]))
    for name in field_names(prof):
        with pytest.raises(AttributeError):
            setattr(prof, name, None)
    view = prof.finite_part
    assert list(view.items()) == list(finite_values(prof).items())
    assert list(view) == sorted(view)


SLOW_START = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _loaded_after(statement):
    """Which of SLOW_START a fresh ``python -S`` holds after ``statement``,
    with numelast imported from the source tree."""
    code = f"import sys\n{statement}\nprint(*(m for m in {SLOW_START!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_imports_no_dataclasses():
    assert _loaded_after("import numelast.cli") == []
    # the probe sees a module once something imports it
    assert _loaded_after("import numelast.cli, dataclasses") == list(SLOW_START)
