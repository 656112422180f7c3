"""Differential tests of the one table form of ``FiniteAlgebra``.

An algebra used to store its tables twice: as tuples of ints, and as the
int64 arity stacks ``_op_stacks`` built from them on first use, which every
kernel read.  Now it stores only the stacks (``_stacks``) and derives
``tables`` from them.  The oracles below are that tuple-storing class and
``_op_stacks``, kept verbatim up to imports and names.  They are compared
with the new class on the dualizer suite, its squares, random small
algebras, and the quotients, subalgebras and function algebras of the
algebras in ``tests/test_table_gather.py``: on ``tables``, ``apply`` at every
argument tuple, the stacks, equality and hashing across tables given as
tuples, lists and arrays, ``repr``, and every ``InvalidInput`` message.
"""

import itertools
import random

import numpy as np
import pytest

from dualkit.algebras import (
    FiniteAlgebra,
    InvalidInput,
    Signature,
    direct_power,
    quotient,
    subalgebra,
    subuniverses,
)
from dualkit.catalog import BOOL_SIGNATURE, DL_SIGNATURE, MV_SIGNATURE, POSMV_SIGNATURE
from dualkit.corpus import dualizer_suite, sample_function_algebra
from test_table_gather import ALGEBRAS, _partitions, old_induced_tables


# --- oracles: the tuple-storing class and its stacks ------------------------------------

class OldFiniteAlgebra:
    """A finite algebra: carrier ``0..size-1`` plus one flat table per symbol.

    Tables are row-major in the argument tuple (mixed-radix with the first
    argument most significant).  A size-0 algebra is permitted exactly when
    the signature has no constants.
    """

    __slots__ = ("signature", "size", "tables", "_key", "_arity", "_stacks", "_powers")

    def __init__(self, signature: Signature, size: int, tables: dict):
        if size < 0:
            raise InvalidInput("negative size")
        if size == 0 and signature.constants:
            raise InvalidInput("empty algebra requires a constant-free signature")
        if set(tables) != set(signature.names):
            raise InvalidInput("tables do not match signature symbols")
        frozen = {}
        carrier = frozenset(range(size))
        for name, arity in signature.ops:
            table = tuple(tables[name])
            if len(table) != size**arity:
                raise InvalidInput(
                    "table for %r has %d entries, expected %d"
                    % (name, len(table), size**arity)
                )
            # one set test for the common case; the loop names the first bad entry
            if not carrier.issuperset(table):
                for value in table:
                    if not 0 <= value < size:
                        raise InvalidInput("table entry %r out of range for %r" % (value, name))
            frozen[name] = table
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "tables", frozen)
        key = (signature, size, tuple(frozen[name] for name in signature.names))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_arity", dict(signature.ops))
        # the numpy view of the tables, and the small powers by exponent,
        # built on first use (_op_stacks, _power)
        object.__setattr__(self, "_stacks", None)
        object.__setattr__(self, "_powers", None)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteAlgebra is immutable")

    def __eq__(self, other):
        return isinstance(other, FiniteAlgebra) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "FiniteAlgebra(size=%d, ops=%r)" % (self.size, list(self.signature.names))

    def apply(self, name: str, *args: int) -> int:
        """Apply a basic operation to element indices."""
        arity = self._arity.get(name)
        if arity is None:
            raise InvalidInput("unknown operation symbol %r" % name)
        if len(args) != arity:
            raise InvalidInput("%r expects %d arguments, got %d" % (name, arity, len(args)))
        index = 0
        for a in args:
            index = index * self.size + a
        return self.tables[name][index]

    @property
    def elements(self) -> range:
        return range(self.size)


def old_op_stacks(A):
    """Non-constant operations grouped by arity: (names, tables) pairs where
    tables has shape (len(names),) + (n,)*arity.  Built once per algebra."""
    if A._stacks is None:
        groups: dict[int, list[str]] = {}
        for name, arity in A.signature.ops:
            if arity > 0:
                groups.setdefault(arity, []).append(name)
        stacks = []
        for arity, names in sorted(groups.items()):
            tables = np.array([A.tables[name] for name in names], dtype=np.int64)
            # read-only: every caller, and every user of a catalog entry, shares it
            tables.flags.writeable = False
            stacks.append((names, tables.reshape((len(names),) + (A.size,) * arity)))
        object.__setattr__(A, "_stacks", stacks)
    return A._stacks


# --- tables computed without the class --------------------------------------------------

def _luk_table(name, n):
    """A Lukasiewicz chain operation on 0..n as a tuple, from its definition."""
    ops = {"oplus": lambda a, b: min(a + b, n), "odot": lambda a, b: max(a + b - n, 0),
           "join": max, "meet": min, "neg": lambda a: n - a}
    if name == "zero":
        return (0,)
    if name == "one":
        return (n,)
    op = ops[name]
    arity = 1 if name == "neg" else 2
    return tuple(op(*args) for args in itertools.product(range(n + 1), repeat=arity))


SIGNATURES = {"bool2": BOOL_SIGNATURE, "dl2": DL_SIGNATURE, "luk": MV_SIGNATURE,
              "posluk": POSMV_SIGNATURE}


def _catalog_case(entry):
    n = entry.params[0] if entry.params else 1
    signature = SIGNATURES[entry.name]
    return signature, n + 1, {name: _luk_table(name, n) for name in signature.names}


def _square_case(signature, size, tables):
    """The square's tables, pair (a, b) numbered a * size + b."""
    old = OldFiniteAlgebra(signature, size, tables)
    pairs = list(itertools.product(range(size), repeat=2))
    square = {}
    for name, arity in signature.ops:
        square[name] = tuple(
            old.apply(name, *(a for a, _ in args)) * size + old.apply(name, *(b for _, b in args))
            for args in itertools.product(pairs, repeat=arity))
    return signature, size * size, square


def _vector_tables(L, length, carrier):
    """The tables of the vectors ``carrier``, of the given length, under L's
    pointwise operations."""
    old = OldFiniteAlgebra(L.signature, L.size, L.tables)
    position = {v: i for i, v in enumerate(carrier)}
    return {name: tuple(position[tuple(old.apply(name, *(v[c] for v in args)) for c in range(length))]
                        for args in itertools.product(carrier, repeat=arity))
            for name, arity in L.signature.ops}


def _random_case(rng):
    size = rng.randint(1, 4)
    arities = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    signature = Signature(tuple(("o%d" % i, r) for i, r in enumerate(arities)))
    return signature, size, {name: tuple(rng.randrange(size) for _ in range(size**r))
                             for name, r in signature.ops}


def _produced():
    """(algebra, its expected tuple tables): algebras that dualkit's own
    producers built, each with tables computed by the oracle loops."""
    for entry in dualizer_suite():
        signature, size, tables = _catalog_case(entry)
        yield entry.algebra, tables
        yield direct_power(entry.algebra, 2), _square_case(signature, size, tables)[2]
    for name, A in sorted(ALGEBRAS.items()):
        old = OldFiniteAlgebra(A.signature, A.size, A.tables)
        for theta in _partitions(A.size):
            tables = old_induced_tables(old, theta.blocks, theta.num_blocks)
            if tables is not None:
                yield quotient(A, theta)[0], tables
        if A.size <= 9:
            for universe in subuniverses(A):
                carrier = sorted(universe)
                S, _ = subalgebra(A, carrier)
                yield S, _vector_tables(A, 1, [(x,) for x in carrier])
    for entry in dualizer_suite():
        L = entry.algebra
        rng = random.Random("table-gather|%s|%s" % (entry.name, entry.params))
        for _ in range(12):
            length, vectors, A, _ = sample_function_algebra(L, rng, 3 if L.size == 2 else 2)
            yield A, _vector_tables(L, length, vectors)


def _cases():
    """(signature, size, tuple tables) inputs for both classes."""
    for entry in dualizer_suite():
        yield _catalog_case(entry)
        yield _square_case(*_catalog_case(entry))
    rng = random.Random("table-form")
    for _ in range(60):
        yield _random_case(rng)
    for A, tables in _produced():
        yield A.signature, A.size, tables


FORMS = {"tuple": lambda t: t, "list": list, "array": lambda t: np.array(t, dtype=np.int64)}


# --- the comparisons --------------------------------------------------------------------

def _assert_same(new, old):
    assert new.tables == old.tables
    assert all(type(v) is int for table in new.tables.values() for v in table)
    assert list(new.tables) == list(old.tables)
    for name, arity in old.signature.ops:
        for args in itertools.product(old.elements, repeat=arity):
            value = new.apply(name, *args)
            assert type(value) is int and value == old.apply(name, *args)
    got, expected = new._stacks, old_op_stacks(old)
    assert [list(names) for names, _ in got] == [names for names, _ in expected]
    for (_, tables), (_, old_tables) in zip(got, expected):
        assert tables.dtype == np.int64 and not tables.flags.writeable
        assert tables.shape == old_tables.shape and np.array_equal(tables, old_tables)
    assert repr(new) == repr(old)


def test_every_form_stores_the_old_tables():
    cases = list(_cases())
    assert len(cases) > 200
    for signature, size, tables in cases:
        old = OldFiniteAlgebra(signature, size, tables)
        built = [FiniteAlgebra(signature, size, {name: form(t) for name, t in tables.items()})
                 for form in FORMS.values()]
        for new in built:
            _assert_same(new, old)
            assert new == built[0] and hash(new) == hash(built[0])


def test_produced_algebras_have_the_old_tables():
    count = 0
    for A, tables in _produced():
        old = OldFiniteAlgebra(A.signature, A.size, tables)
        _assert_same(A, old)
        assert A == FiniteAlgebra(A.signature, A.size, tables)
        count += 1
    assert count > 130


def test_equality_follows_the_tables():
    rng = random.Random("table-form|eq")
    cases = [_random_case(rng) for _ in range(40)]
    for (s1, n1, t1), (s2, n2, t2) in itertools.product(cases[:20], cases[20:]):
        old = OldFiniteAlgebra(s1, n1, t1) == OldFiniteAlgebra(s2, n2, t2)
        for f1, f2 in itertools.product(FORMS.values(), repeat=2):
            new1 = FiniteAlgebra(s1, n1, {k: f1(v) for k, v in t1.items()})
            new2 = FiniteAlgebra(s2, n2, {k: f2(v) for k, v in t2.items()})
            assert (new1 == new2) == old
    # one entry changed: unequal in both classes
    for signature, size, tables in cases:
        if size == 1:
            continue
        name = signature.names[0]
        changed = dict(tables, **{name: ((tables[name][0] + 1) % size,) + tables[name][1:]})
        assert FiniteAlgebra(signature, size, tables) != FiniteAlgebra(signature, size, changed)
        assert OldFiniteAlgebra(signature, size, tables) != OldFiniteAlgebra(signature, size, changed)


UNARY = Signature((("f", 1),))
MIXED = Signature((("g", 2), ("f", 1), ("c", 0)))

#: inputs that both classes reject with InvalidInput
BAD = [
    (UNARY, -1, {"f": ()}),
    (MIXED, 0, {"g": (), "f": (), "c": ()}),
    (UNARY, 2, {"g": (0, 1)}),
    (UNARY, 2, {"f": (0, 1), "g": (0, 1)}),
    (UNARY, 2, {"f": (0,)}),
    (UNARY, 2, {"f": (0, 1, 1)}),
    (UNARY, 2, {"f": (0, 2)}),
    (UNARY, 2, {"f": (-1, 0)}),
    (UNARY, 2, {"f": (0, 2**70)}),
    (UNARY, 2, {"f": (0, -2**70)}),
    (UNARY, 2, {"f": (0, float("nan"))}),
    (UNARY, 2, {"f": (0, 2.5)}),
    (MIXED, 2, {"g": (0, 1, 1), "f": (0, 5), "c": (0,)}),
    (MIXED, 2, {"g": (0, 1, 1, 1), "f": (0, 5), "c": (7,)}),
    (MIXED, 2, {"g": (0, 1, 9, 1), "f": (0, 5), "c": (7,)}),
    (MIXED, 2, {"g": (0, 1, 1, 1), "f": (0,), "c": (0,)}),
    (MIXED, 2, {"g": (0, 1, 1, 1), "f": (0, 1), "c": (0, 0)}),
    (MIXED, 3, {"g": (0,) * 9, "f": (0, 1, 2), "c": (3,)}),
]


def _message(cls, signature, size, tables):
    with pytest.raises(InvalidInput) as info:
        cls(signature, size, tables)
    return str(info.value)


@pytest.mark.parametrize("signature, size, tables", BAD)
def test_invalid_input_messages_match(signature, size, tables):
    expected = _message(OldFiniteAlgebra, signature, size, tables)
    for form in ("tuple", "list"):
        given = {name: FORMS[form](t) for name, t in tables.items()}
        assert _message(FiniteAlgebra, signature, size, given) == expected
    # an array of Python ints keeps huge and fractional entries as given
    given = {name: np.array(t, dtype=object) for name, t in tables.items()}
    assert _message(FiniteAlgebra, signature, size, given) == expected
    if all(isinstance(v, int) and -2**63 <= v < 2**63 for t in tables.values() for v in t):
        given = {name: np.array(t, dtype=np.int64) for name, t in tables.items()}
        assert _message(FiniteAlgebra, signature, size, given) == expected
