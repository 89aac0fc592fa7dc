"""The record decorator against dataclasses, and what the CLI imports."""

import dataclasses
import os
import subprocess
import sys

import pytest

import wcilinks
from wcilinks._records import FrozenInstanceError, record


@record
class Point:
    x: int
    y: int = 0
    tags: object = None

    def __post_init__(self):
        object.__setattr__(self, "x", int(self.x))


@dataclasses.dataclass(frozen=True)
class DataPoint:
    x: int
    y: int = 0
    tags: object = None

    def __post_init__(self):
        object.__setattr__(self, "x", int(self.x))


@record
class Pair:
    a: object
    b: object = None


@dataclasses.dataclass(frozen=True)
class DataPair:
    a: object
    b: object = None


def _twins(*args, **kwargs):
    return Point(*args, **kwargs), DataPoint(*args, **kwargs)


@pytest.mark.parametrize("args, kwargs", [
    ((3,), {}),
    (("3", 4), {}),
    ((3,), {"y": 4}),
    ((), {"x": 3, "y": 4}),
    ((3, 4, {"a": 1}), {}),
])
def test_record_behaves_like_a_frozen_dataclass(args, kwargs):
    rec, data = _twins(*args, **kwargs)
    assert repr(rec) == repr(data).replace("DataPoint", "Point")
    assert (rec.x, rec.y, rec.tags) == (data.x, data.y, data.tags)
    assert rec == Point(*args, **kwargs)
    assert rec != Point(rec.x + 1, rec.y, rec.tags)
    assert rec != data and data != rec  # equality only within one class
    if isinstance(rec.tags, dict):
        for obj in (rec, data):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(obj)
    else:
        assert hash(rec) == hash(data)
    for obj in (rec, data):
        with pytest.raises(AttributeError) as caught:
            obj.x = 5
        assert str(caught.value) == "cannot assign to field 'x'"
        with pytest.raises(AttributeError) as caught:
            obj.other = 5
        assert str(caught.value) == "cannot assign to field 'other'"
        with pytest.raises(AttributeError) as caught:
            del obj.y
        assert str(caught.value) == "cannot delete field 'y'"
    with pytest.raises(FrozenInstanceError):
        rec.y = 1


def test_record_hash_and_equality_match_dataclass():
    for args in ((1,), (1, 2), ((1, "a"),), ((), frozenset({3}))):
        rec, data = Pair(*args), DataPair(*args)
        assert hash(rec) == hash(data) == hash(Pair(*args))
        assert repr(rec) == repr(data).replace("DataPair", "Pair")
    assert Pair(1) == Pair(1, None) != Pair(None, 1)
    assert Pair(1) != (1, None) and Pair(1) != DataPair(1)


def test_record_defaults_match_dataclass():
    assert Point.y == DataPoint.y == 0
    assert Point.tags is DataPoint.tags is None
    assert Point(1).tags is None


def test_record_rejects_bad_arguments():
    for bad in ((), (1, 2, {}, 4)):
        with pytest.raises(TypeError):
            Point(*bad)
    with pytest.raises(TypeError):
        Point(1, x=2)
    with pytest.raises(TypeError):
        Point(1, z=2)


def test_record_refuses_fewer_than_two_fields():
    # with one field the compared and hashed value would not be a tuple
    for body in ({"__annotations__": {"a": int}}, {}):
        with pytest.raises(TypeError, match="two or more fields"):
            record(type("Small", (), dict(body)))


def test_cli_import_leaves_out_dataclasses_and_futures():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wcilinks.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, wcilinks.cli; "
            "print(sorted(m for m in ('dataclasses', 'concurrent.futures')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
