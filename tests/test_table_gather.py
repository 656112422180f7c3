"""Differential tests of the table-gather congruence and product code.

Quotient tables and congruence generation are read off the table stacks
``_stacks``, and product tables are built by broadcasting each
factor's table.  The oracles below are the versions they replaced, kept
verbatim up to imports and names: the ``A.apply`` loops of
``_induced_tables``, ``generate_congruence`` and ``direct_product``, the
pairwise loop of ``in_prevariety``, and ``relative_congruences`` as it
was: every congruence of A, kept when its quotient lies in the prevariety,
with its runtime meet-closure assertion.
"""

import itertools
import random

import pytest

from dualkit.algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Congruence,
    FiniteAlgebra,
    InvalidInput,
    Signature,
    _find,
    direct_power,
    direct_product,
    enumerate_homs,
    generate_congruence,
    in_prevariety,
    is_congruence,
    product_index,
    product_tuple,
    quotient,
    relative_congruences,
)
from dualkit.catalog import bool2, dl2, luk, posluk, reduct
from dualkit.corpus import dualizer_suite, entry_label, sample_function_algebra
from test_join_closure import old_all_congruences


# --- oracles: the versions before the table gather ----------------------------------

def old_induced_tables(A, blocks, num_blocks):
    tables = {}
    for name, arity in A.signature.ops:
        entries = {}
        for args in itertools.product(A.elements, repeat=arity):
            key = tuple(blocks[a] for a in args)
            value = blocks[A.apply(name, *args)]
            if entries.setdefault(key, value) != value:
                return None
        table = []
        for key in itertools.product(range(num_blocks), repeat=arity):
            table.append(entries[key])
        tables[name] = tuple(table)
    return tables


def old_quotient(A, theta):
    if len(theta.blocks) != A.size:
        raise InvalidInput("partition does not match carrier")
    tables = old_induced_tables(A, theta.blocks, theta.num_blocks)
    if tables is None:
        raise InvalidInput("partition is not compatible with the operations")
    return FiniteAlgebra(A.signature, theta.num_blocks, tables)


def old_generate_congruence(A, pairs):
    n = A.size
    parent = list(range(n))
    queue = []

    def union(a, b):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            queue.append((a, b))

    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidInput("pair outside carrier")
        union(a, b)
    while queue:
        a, b = queue.pop()
        for name, arity in A.signature.ops:
            if arity == 0:
                continue
            for pos in range(arity):
                for context in itertools.product(range(n), repeat=arity - 1):
                    args_a = context[:pos] + (a,) + context[pos:]
                    args_b = context[:pos] + (b,) + context[pos:]
                    union(A.apply(name, *args_a), A.apply(name, *args_b))
    return Congruence.from_blocks(_find(parent, x) for x in range(n))


def old_direct_product(factors, budget=DEFAULT_BUDGET):
    factors = list(factors)
    if not factors:
        raise InvalidInput("empty factor list; use direct_power(A, 0) for the empty power")
    signature = factors[0].signature
    for f in factors:
        if f.signature != signature:
            raise InvalidInput("factors must share a signature")
    size = 1
    for f in factors:
        size *= f.size
    if size > budget:
        raise BudgetExceeded("product carrier %d exceeds budget %d" % (size, budget))
    sizes = [f.size for f in factors]
    tables = {}
    for name, arity in signature.ops:
        entries = []
        for args in itertools.product(range(size), repeat=arity):
            coords = [product_tuple(sizes, a) for a in args]
            value = [factors[i].apply(name, *(c[i] for c in coords))
                     for i in range(len(factors))]
            entries.append(product_index(sizes, value))
        tables[name] = tuple(entries)
    return FiniteAlgebra(signature, size, tables)


def old_direct_power(A, exponent, budget=DEFAULT_BUDGET):
    if exponent < 0:
        raise InvalidInput("negative exponent")
    if exponent == 0:
        tables = {name: (0,) * (1 if arity == 0 else 1)
                  for name, arity in A.signature.ops}
        return FiniteAlgebra(A.signature, 1, tables)
    return old_direct_product([A] * exponent, budget=budget)


def old_in_prevariety(A, L):
    if A.signature != L.signature:
        raise InvalidInput("algebras must share a signature")
    if A.size == 0:
        return not A.signature.constants
    if A.size == 1:
        return True
    homs = enumerate_homs(A, L)
    for a in A.elements:
        for b in range(a + 1, A.size):
            if not any(h.values[a] != h.values[b] for h in homs):
                return False
    return True


def old_relative_congruences(A, L, budget=DEFAULT_BUDGET):
    out = []
    for theta in old_all_congruences(A, budget=budget):
        Q = old_quotient(A, theta)
        if old_in_prevariety(Q, L):
            out.append(theta)
    for t1 in out:
        for t2 in out:
            if t1.meet(t2) not in out:
                raise AssertionError("relative congruences not meet-closed")
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InvalidInput, BudgetExceeded) as exc:
        return type(exc), str(exc)


# --- the algebras -------------------------------------------------------------------

def _wide_algebra():
    """Three elements with a ternary and a unary operation."""
    table = [max(a, b) if c == 0 else (a + b * c) % 3
             for a, b, c in itertools.product(range(3), repeat=3)]
    return FiniteAlgebra(Signature((("t", 3), ("s", 1))), 3, {"t": table, "s": [0, 2, 1]})


def _last_argument(arity):
    """One operation sending its last argument x to x mod 3 + 1 whatever the
    others are, so only translations at the last position merge anything."""
    table = [args[-1] % 3 + 1 for args in itertools.product(range(4), repeat=arity)]
    return FiniteAlgebra(Signature((("r", arity),)), 4, {"r": table})


def _n5():
    """The pentagon 0 < a < b < 1, c beside a and b, in the signature of dl2.
    It is not distributive, and every hom into dl2 identifies a with b."""
    below = {0: {0}, 1: {0, 1}, 2: {0, 1, 2}, 3: {0, 3}, 4: {0, 1, 2, 3, 4}}
    meet = [max(below[x] & below[y], key=lambda z: len(below[z]))
            for x, y in itertools.product(range(5), repeat=2)]
    join = [min((z for z in range(5) if below[z] >= below[x] | below[y]),
                key=lambda z: len(below[z]))
            for x, y in itertools.product(range(5), repeat=2)]
    return FiniteAlgebra(dl2().algebra.signature, 5,
                         {"meet": meet, "join": join, "zero": (0,), "one": (4,)})


DL = dl2().algebra
LATTICE = Signature((("meet", 2), ("join", 2)))
EMPTY = FiniteAlgebra(LATTICE, 0, {"meet": (), "join": ()})
LATTICE2 = reduct(dl2().algebra, ("meet", "join"))

ALGEBRAS = {
    "bool2": bool2().algebra,
    "dl2": dl2().algebra,
    "luk2": luk(2).algebra,
    "luk3": luk(3).algebra,
    "posluk2": posluk(2).algebra,
    "posluk3": posluk(3).algebra,
    "dl2^2": direct_power(dl2().algebra, 2),
    "luk2^2": direct_power(luk(2).algebra, 2),
    "luk1*luk2": direct_product([luk(1).algebra, luk(2).algebra]),
    "wide": _wide_algebra(),
    "last2": _last_argument(2),
    "last3": _last_argument(3),
    "n5": _n5(),
    "empty": EMPTY,
}


def _partitions(n):
    """Every partition of 0..n-1 as a restricted growth string."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield Congruence(tuple(prefix))
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))
    yield from grow([], -1)


# --- quotients and the compatibility test -------------------------------------------

@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_quotients_of_every_partition(name):
    A = ALGEBRAS[name]
    for theta in _partitions(A.size):
        old = old_induced_tables(A, theta.blocks, theta.num_blocks)
        assert is_congruence(A, theta) == (old is not None)
        if old is not None:
            Q, proj = quotient(A, theta)
            assert Q == old_quotient(A, theta)
            assert proj.values == theta.blocks
        else:
            assert _outcome(quotient, A, theta) == _outcome(old_quotient, A, theta)


# --- congruence generation ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_generate_congruence_on_every_generating_pair(name):
    A = ALGEBRAS[name]
    assert generate_congruence(A, []) == old_generate_congruence(A, [])
    for pair in itertools.product(A.elements, repeat=2):
        assert generate_congruence(A, [pair]) == old_generate_congruence(A, [pair])
    pairs = list(itertools.combinations(A.elements, 2))[:12]
    for two in itertools.combinations(pairs, 2):
        assert generate_congruence(A, two) == old_generate_congruence(A, two)
    bad = [(0, A.size)]
    assert _outcome(generate_congruence, A, bad) == _outcome(old_generate_congruence, A, bad)


# --- products and powers ------------------------------------------------------------

MV = [luk(n).algebra for n in (1, 2, 3)]
PRODUCTS = [
    [MV[0]], [MV[2]], [MV[0], MV[1]], [MV[2], MV[0]], [MV[1], MV[0], MV[2]],
    [MV[0], MV[0], MV[1]], [dl2().algebra, direct_power(dl2().algebra, 2)],
    [_wide_algebra(), _wide_algebra()],
    [EMPTY], [EMPTY, LATTICE2], [LATTICE2, EMPTY, LATTICE2],
]


@pytest.mark.parametrize("factors", PRODUCTS)
def test_products_of_mixed_factors(factors):
    assert direct_product(factors) == old_direct_product(factors)


@pytest.mark.parametrize("A", [bool2().algebra, luk(1).algebra, luk(2).algebra,
                               posluk(2).algebra, _wide_algebra(), EMPTY, LATTICE2])
@pytest.mark.parametrize("exponent", [0, 1, 2, 3])
def test_powers(A, exponent):
    assert direct_power(A, exponent) == old_direct_power(A, exponent)


def test_product_errors_match():
    cases = [([],), ([MV[1], MV[1]], 8), ([MV[1], dl2().algebra],), ([MV[1]] * 3, 27)]
    for args in cases:
        assert _outcome(direct_product, *args) == _outcome(old_direct_product, *args)
    assert _outcome(direct_power, MV[1], -1) == _outcome(old_direct_power, MV[1], -1)


# --- prevariety membership and relative congruences ---------------------------------

def _draws(count):
    """(L, A) pairs: function algebras drawn from each dualizer's small powers,
    with criterion 6's exponent cap."""
    for entry in dualizer_suite():
        L = entry.algebra
        rng = random.Random("table-gather|%s|%s" % (entry.name, entry.params))
        for _ in range(count):
            yield L, sample_function_algebra(L, rng, 3 if L.size == 2 else 2)[2]


def test_relative_congruences_match_the_asserting_version():
    for L, A in _draws(8):
        assert relative_congruences(A, L) == old_relative_congruences(A, L)
    for name in ("dl2", "dl2^2", "luk2", "luk2^2", "luk1*luk2"):
        A = ALGEBRAS[name]
        L = dl2().algebra if name.startswith("dl2") else luk(2).algebra
        assert relative_congruences(A, L) == old_relative_congruences(A, L)


@pytest.mark.parametrize("seed", [0, 7])
def test_relative_congruences_match_on_the_congruence_criterion(seed):
    """Criterion 6's instances at a seed, drawn as it draws them, and its
    anchor, the dl2 square."""
    cases = [(direct_power(DL, 2), DL)]
    for entry in (dl2(), luk(2)):
        L = entry.algebra
        rng = random.Random("%s|congruences|%s" % (seed, entry_label(entry)))
        for _ in range(25):
            cases.append((sample_function_algebra(L, rng, 3 if L.size == 2 else 2)[2], L))
    for A, L in cases:
        assert relative_congruences(A, L) == old_relative_congruences(A, L)


def test_in_prevariety_matches_the_pairwise_loop():
    for L, A in _draws(8):
        for theta in old_all_congruences(A):
            Q, _ = quotient(A, theta)
            assert in_prevariety(Q, L) == old_in_prevariety(Q, L)


def test_in_prevariety_with_one_unseparated_pair():
    N5 = _n5()
    assert {h.values[1] == h.values[2] for h in enumerate_homs(N5, DL)} == {True}
    assert not in_prevariety(N5, DL) and not old_in_prevariety(N5, DL)
    for theta in old_all_congruences(N5):
        Q, _ = quotient(N5, theta)
        assert in_prevariety(Q, DL) == old_in_prevariety(Q, DL)
    assert relative_congruences(N5, DL) == old_relative_congruences(N5, DL)


def test_relative_congruences_are_meet_closed():
    # A/(t1 meet t2) embeds in A/t1 x A/t2
    for L, A in _draws(12):
        rel = relative_congruences(A, L)
        for t1, t2 in itertools.product(rel, repeat=2):
            assert t1.meet(t2) in rel
