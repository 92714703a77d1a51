"""The ``frozen`` class decorator against ``dataclasses.dataclass(frozen=True)``,
and the import guard that keeps ``dataclasses`` and ``inspect`` out of
``import plasti``.

Each shape below is built twice from the same class body, once by each
decorator, and the two must agree on ``repr``, ``==``, ``hash``,
``__post_init__`` errors and frozenness.
"""

import dataclasses
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import plasti
from plasti.frozen import frozen
from plasti.space import Materialization, Window

SRC = str(Path(plasti.__file__).resolve().parent.parent)

# the same program as the CLI smoke step in .github/workflows/tests.yml
IMPORT_GUARD = (
    "import sys; sys.path.insert(0, {src!r}); import plasti; "
    "sys.exit(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)) or None)"
)


def _plain():
    class Pair:
        left: int
        right: str

    return Pair


def _defaults():
    class Report:
        check: str
        passed: bool = True
        notes: tuple = ()
        witness: object = None

    return Report


def _validated():
    class Gap:
        value: Fraction
        closed: bool = False

        def __post_init__(self):
            if self.value <= 0:
                raise ValueError(f"gap {self.value} is not positive")

    return Gap


def _unannotated():
    class Constant:
        value: int
        trend = 0  # a class attribute, not a field

        def __str__(self):
            return f"const({self.value})"

    return Constant


def _cached():
    class Sums:
        values: tuple

        @cached_property
        def total(self):
            return sum(self.values)

    return Sums


SHAPES = {
    "plain": (_plain, [((1, "a"), {}), ((), {"left": 2, "right": "b"}), ((1,), {"right": "a"})]),
    "defaults": (_defaults, [(("c",), {}), (("c", False), {}), (("c", False), {"notes": ("n",)}),
                             ((), {"check": "c", "witness": (1, 2)}), (("c", True, (), None), {})]),
    "validated": (_validated, [((Fraction(1, 3),), {}), ((Fraction(1, 3), True), {}),
                               ((), {"value": Fraction(2), "closed": False})]),
    "unannotated": (_unannotated, [((3,), {}), ((), {"value": 3}), ((-1,), {})]),
    "cached": (_cached, [(((1, 2),), {}), (((),), {}), ((), {"values": (1, 2)})]),
}


def _twins(shape: str):
    body = SHAPES[shape][0]
    return dataclasses.dataclass(frozen=True)(body()), frozen(body())


def _call(cls, args, kwargs):
    """What a call returns or raises, comparable across the two decorators."""
    try:
        return cls(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the errors themselves are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("shape", SHAPES)
def test_repr_eq_and_hash_match_dataclasses(shape):
    stdlib, ours = _twins(shape)
    calls = SHAPES[shape][1]
    for args, kwargs in calls:
        a, b = stdlib(*args, **kwargs), ours(*args, **kwargs)
        assert repr(a) == repr(b)
        assert hash(a) == hash(b)
        assert str(a) == str(b)
        assert b == ours(*args, **kwargs)
        for other_args, other_kwargs in calls:
            assert (a == stdlib(*other_args, **other_kwargs)) == (b == ours(*other_args, **other_kwargs))


@given(st.integers(), st.text(max_size=5) | st.none(), st.booleans())
def test_drawn_values_print_compare_and_hash_alike(left, right, flag):
    stdlib, ours = _twins("defaults")
    a, b = stdlib(right, flag, (left,)), ours(right, flag, (left,))
    assert (repr(a), hash(a)) == (repr(b), hash(b))
    assert (a == stdlib(right, not flag, (left,))) == (b == ours(right, not flag, (left,)))


def test_post_init_errors_match_dataclasses():
    stdlib, ours = _twins("validated")
    for value in (Fraction(0), Fraction(-1, 2)):
        assert _call(stdlib, (value,), {}) == _call(ours, (value,), {}) == (
            ValueError, f"gap {value} is not positive")


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # a field without a default is missing
    ((1, "a", 2), {}),  # too many positional arguments
    ((1,), {"left": 1, "right": "a"}),  # left given twice
    ((1, "a"), {"middle": 0}),  # not a field
])
def test_bad_calls_raise_the_type_error_dataclasses_raise(args, kwargs):
    stdlib, ours = _twins("plain")
    assert _call(stdlib, args, kwargs) == _call(ours, args, kwargs)
    assert _call(ours, args, kwargs)[0] is TypeError


@pytest.mark.parametrize("shape", SHAPES)
def test_assignment_and_deletion_raise_attribute_error(shape):
    args, kwargs = SHAPES[shape][1][0]
    for cls in _twins(shape):
        obj = cls(*args, **kwargs)
        name = next(iter(cls.__annotations__))
        before = repr(obj)
        for mutate in (lambda: setattr(obj, name, 0), lambda: delattr(obj, name),
                       lambda: setattr(obj, "extra", 0)):
            with pytest.raises(AttributeError):
                mutate()
        assert repr(obj) == before


def test_a_class_attribute_without_annotation_is_no_field():
    stdlib, ours = _twins("unannotated")
    for cls in (stdlib, ours):
        assert cls(3).trend == 0
        assert repr(cls(3)).endswith("Constant(value=3)")
        with pytest.raises(TypeError):
            cls(3, trend=1)


def test_cached_property_computes_once_and_stays_out_of_eq():
    stdlib, ours = _twins("cached")
    for cls in (stdlib, ours):
        obj = cls((1, 2, 3))
        assert obj.total == 6 and obj.__dict__["total"] == 6
        assert obj.total is obj.total
        assert obj == cls((1, 2, 3)) and hash(obj) == hash(cls((1, 2, 3)))
        assert "total" not in repr(obj)


def test_two_classes_with_equal_fields_are_unequal():
    first, second = frozen(_plain()), frozen(_plain())
    assert first(1, "a") == first(1, "a")
    assert first(1, "a") != second(1, "a")
    assert first(1, "a") != dataclasses.dataclass(frozen=True)(_plain())(1, "a")
    assert first(1, "a") != (1, "a")
    assert first(1, "a").__eq__((1, "a")) is NotImplemented


def test_a_class_body_frozen_cannot_build_is_refused():
    class Shared:  # dataclasses refuses it too
        keys: dict = {}

    class Unordered:  # dataclasses refuses it too
        first: int = 0
        second: int

    class Empty:
        pass

    wide = type("Wide", (), {"__annotations__": {f"f{k}": "int" for k in range(8)}})
    for body in (Shared, Unordered, Empty, wide):
        with pytest.raises(TypeError):
            frozen(body)


def test_materializations_differing_only_in_float_keys_are_alike():
    def build(float_keys):
        return Materialization(Window(Fraction(0), Fraction(3)), (Fraction(0), Fraction(1)), (),
                               ((Fraction(0), Fraction(1)),), _float_keys=float_keys)

    bare, keyed = build({}), build({None: "keys"})
    assert bare == keyed and hash(bare) == hash(keyed) and repr(bare) == repr(keyed)
    assert "_float_keys" not in repr(bare)
    assert build(None)._float_keys == {} and build(None)._float_keys is not build(None)._float_keys


@pytest.mark.parametrize("flags", [(), ("-OO",)], ids=["plain", "optimized"])
def test_import_plasti_loads_neither_dataclasses_nor_inspect(flags):
    """A fresh interpreter, since the test session has loaded both already.
    ``-I`` keeps the environment and user site out; ``-OO`` strips
    docstrings and asserts, which the decorator must not need."""
    run = subprocess.run([sys.executable, "-I", *flags, "-c", IMPORT_GUARD.format(src=SRC)],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


def test_src_has_no_dataclasses_import():
    for path in Path(SRC, "plasti").glob("*.py"):
        assert "from dataclasses import" not in path.read_text(), path.name


def test_every_public_name_imports():
    assert plasti.__all__ and len(set(plasti.__all__)) == len(plasti.__all__)
    namespace = {}
    exec("from plasti import *", namespace)
    assert set(plasti.__all__) <= namespace.keys()
    for name in plasti.__all__:
        assert getattr(plasti, name) is namespace[name]
