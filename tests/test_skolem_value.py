"""Labeled nulls as values: one hash per null, immutable, pickle-safe."""

import copy
import json
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

import repro
from repro.datalog import SemiNaiveEngine
from repro.datalog.ast import (
    Atom,
    Constant,
    Program,
    Rule,
    SkolemFunction,
    SkolemTerm,
    SkolemValue,
    Variable,
    apply_term,
)
from repro.storage import Database
from repro.storage.codec import decode_value, encode_value

X, Y = Variable("x"), Variable("y")
F, G, H = SkolemFunction("f"), SkolemFunction("g"), SkolemFunction("h")

# U(x, f(x, g(y)), h(x, y), f(x, "c")) :- B(x, y) — a mixed head whose
# Skolem arguments cover the nested, all-variable and constant cases.
HEAD_TERMS = (
    X,
    SkolemTerm(F, (X, SkolemTerm(G, (Y,)))),
    SkolemTerm(H, (X, Y)),
    SkolemTerm(F, (X, Constant("c"))),
)


def _by_call():
    return (1, F(1, G("a")), H(1, "a"), F(1, "c"))


def _by_apply_term():
    return tuple(apply_term(term, {X: 1, Y: "a"}) for term in HEAD_TERMS)


def _by_engine():
    db = Database()
    db.create("B", 2, [(1, "a")])
    rule = Rule(Atom("U", HEAD_TERMS), (Atom("B", (X, Y)),))
    SemiNaiveEngine().run(Program([rule]), db)
    (row,) = db["U"]
    return row


def _by_codec():
    encoded = json.loads(json.dumps([encode_value(v) for v in _by_call()]))
    return tuple(decode_value(v) for v in encoded)


@pytest.mark.parametrize(
    "build", [_by_apply_term, _by_engine, _by_codec], ids=lambda f: f.__name__
)
def test_construction_paths_agree(build):
    expected = _by_call()
    row = build()
    assert row == expected
    for got, want in zip(row[1:], expected[1:]):
        assert type(got) is SkolemValue
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
    assert repr(row[1]) == "f(1, g('a'))"


def test_hash_is_the_tuple_hash():
    value = F(1, G("a"))
    assert hash(value) == hash(("f", (1, G("a"))))
    assert hash(G("a")) == hash(("g", ("a",)))


def test_immutable_and_slotted():
    value = F(1)
    with pytest.raises(FrozenInstanceError):
        value.args = (2,)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        del value.function_name
    assert not hasattr(value, "__dict__")
    assert value == F(1)


class _CountingHash:
    calls = 0

    def __hash__(self):
        type(self).calls += 1
        return 7


def test_hash_computed_once():
    value = SkolemValue("f0", (_CountingHash(),))
    for depth in range(1, 6):
        value = SkolemValue(f"f{depth}", (value, depth))
    before = _CountingHash.calls
    assert before == 1
    for _ in range(1000):
        hash(value)
    assert {value, value} == {value}
    assert _CountingHash.calls == before


def test_equality():
    assert F(1) == F(1)
    assert F(1) != G(1)
    assert F(1) != F(2)
    assert SkolemValue("f", (1,)) != ("f", (1,))
    assert ("f", (1,)) != SkolemValue("f", (1,))
    assert F(1) != "f(1)"


@pytest.mark.parametrize(
    "roundtrip",
    [
        lambda v: pickle.loads(pickle.dumps(v)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "copy", "deepcopy"],
)
def test_roundtrip(roundtrip):
    value = F("k", G("a", H(3)))
    back = roundtrip(value)
    assert back == value
    assert hash(back) == hash(value)
    assert repr(back) == repr(value)


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_PRODUCE = """
import pickle, sys
from repro.datalog.ast import SkolemValue as S
nulls = {S("f", ("k%d" % i, S("g", ("a", i)))) for i in range(50)}
sys.stdout.buffer.write(pickle.dumps((hash("f"), nulls)))
"""

_CONSUME = """
import pickle, sys
from repro.datalog.ast import SkolemValue as S
seed_hash, nulls = pickle.loads(sys.stdin.buffer.read())
assert seed_hash != hash("f"), "hash seeds must differ"
assert len(nulls) == 50
for i in range(50):
    assert S("f", ("k%d" % i, S("g", ("a", i)))) in nulls, i
for value in nulls:
    assert hash(value) == hash((value.function_name, value.args))
print("ok")
"""


def _python(code, seed, stdin=b""):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        env=env,
        capture_output=True,
        check=True,
        timeout=60,
    )
    return done.stdout


def test_unpickled_set_under_another_hash_seed():
    payload = _python(_PRODUCE, seed=1)
    assert _python(_CONSUME, seed=2, stdin=payload).strip() == b"ok"
