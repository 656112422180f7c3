"""Differential tests of the vector-closure kernel against the loops it replaced.

The oracles below are the pure-Python closure loops that ``generate_vectors``,
``algebra_from_vectors``, L-space validation (``_check_subuniverse``),
constrained-space validation (``_subuniverse_of_tuples``) and
``generate_subalgebra`` (``_closure_mask``) used before the kernel, and the
per-argument ``ElementMap.is_homomorphism`` loop, kept verbatim up to
imports.  ``_closure_mask`` reads the argument-column view ``_op_columns``
that ``FiniteAlgebra`` no longer caches, so a copy of it lives here too.

Short vectors are elements of a cached power (``algebras._power``).  The
builder of that power's tables (``_power_stacks``), the mask loop that
closed their codes in ``generate_vectors``, and the codes of
``constrained`` (``_encode``/``_decode``) that ``power_index`` and
``power_tuple`` replaced are kept at the end, verbatim up to names; the
builder caches its views in a dict of its own.

Long vectors were once rows cut into int64 limbs, folded into dense ranks
per batch; now every vector is one code, an exact integer past 2**63.  The
row kernels on limbs and ranks (``_radix``, ``_ranks``, ``_close`` and
``_row_images``) are kept last, verbatim up to names, as oracles of the
kernels on codes.
"""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualkit import algebras
from dualkit.algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ElementMap,
    FiniteAlgebra,
    InvalidInput,
    Signature,
    algebra_from_vectors,
    direct_power,
    enumerate_homs,
    generate_subalgebra,
    generate_vectors,
    power_index,
    power_tuple,
    product_index,
    product_tuple,
    subuniverses,
    unclosed_operation,
)
from dualkit.catalog import bool2, dl2, luk, posluk, reduct
from dualkit.corpus import dualizer_suite
from dualkit.properties import classify_square_subalgebras
from dualkit.spaces import lspace
from dualkit.topology import discrete_topology


# --- oracles: the loops before the kernel ----------------------------------------

def old_generate_vectors(L, length, seeds, budget=algebras.DEFAULT_BUDGET):
    seeds = [tuple(s) for s in seeds]
    for s in seeds:
        if len(s) != length:
            raise InvalidInput("seed vector of wrong length")
        if any(not 0 <= v < L.size for v in s):
            raise InvalidInput("seed vector outside carrier")
    known = set(seeds)
    for name in L.signature.constants:
        known.add((L.apply(name),) * length)
    frontier = list(known)
    while frontier:
        new = []
        ordered = sorted(known)
        fresh = set(frontier)
        for name, arity in L.signature.ops:
            if arity == 0:
                continue
            table = L.tables[name]
            n = L.size
            for args in itertools.product(ordered, repeat=arity):
                if not fresh.intersection(args):
                    continue
                if arity == 2:
                    u, v = args
                    vec = tuple(table[a * n + b] for a, b in zip(u, v))
                else:
                    vec = tuple(table[product_index([n] * arity, pointwise)]
                                for pointwise in zip(*args))
                if vec not in known:
                    known.add(vec)
                    new.append(vec)
                    if len(known) > budget:
                        raise BudgetExceeded("vector closure exceeds budget %d" % budget)
        frontier = new
    return sorted(known)


def old_algebra_from_vectors(L, length, vectors):
    carrier = sorted(set(tuple(v) for v in vectors))
    index = {v: i for i, v in enumerate(carrier)}
    n = L.size
    tables = {}
    for name, arity in L.signature.ops:
        table = L.tables[name]
        entries = []
        for args in itertools.product(carrier, repeat=arity):
            if arity == 0:
                vec = (table[0],) * length
            elif arity == 2:
                vec = tuple(table[a * n + b] for a, b in zip(args[0], args[1]))
            else:
                vec = tuple(table[product_index([n] * arity, pw)] for pw in zip(*args))
            if vec not in index:
                raise InvalidInput("vector set is not closed under %r" % name)
            entries.append(index[vec])
        tables[name] = tuple(entries)
    return FiniteAlgebra(L.signature, len(carrier), tables), carrier


def old_check_subuniverse(L, length, vectors):
    vectors = set(vectors)
    for name, arity in L.signature.ops:
        if arity == 0:
            if (L.apply(name),) * length not in vectors:
                raise InvalidInput("compatible functions miss the constant %r" % name)
            continue
        for args in itertools.product(sorted(vectors), repeat=arity):
            value = tuple(L.apply(name, *pw) for pw in zip(*args)) if args else ()
            if value not in vectors:
                raise InvalidInput("compatible functions not closed under %r" % name)


def old_subuniverse_of_tuples(L, width, funs) -> bool:
    funs = set(funs)
    for name, arity in L.signature.ops:
        if arity == 0:
            if (L.apply(name),) * width not in funs:
                return False
            continue
        for args in itertools.product(sorted(funs), repeat=arity):
            if tuple(L.apply(name, *pw) for pw in zip(*args)) not in funs:
                return False
    return True


def _op_columns(A):
    """Per operation: argument index columns and the flat result array.

    The flat table is already in lexicographic argument order, so the result
    array is the table itself; the argument columns are its mixed-radix
    decode.  Built on every call; the algebra holds no cache for it.
    """
    n = A.size
    out = {}
    for name, arity in A.signature.ops:
        if arity == 0:
            continue
        idx = np.arange(n**arity)
        cols = [(idx // n ** (arity - 1 - i)) % n for i in range(arity)]
        out[name] = (cols, np.array(A.tables[name], dtype=np.int64))
    return out


def old_closure_mask(A, seed):
    known = np.zeros(A.size, dtype=bool)
    for s in seed:
        if not 0 <= s < A.size:
            raise InvalidInput("seed element %r outside carrier" % (s,))
        known[s] = True
    for name in A.signature.constants:
        known[A.apply(name)] = True
    columns = _op_columns(A)
    changed = True
    while changed:
        changed = False
        for cols, res in columns.values():
            mask = ~known[res]
            for c in cols:
                mask &= known[c]
            if mask.any():
                known[res[mask]] = True
                changed = True
    return known


def old_is_homomorphism(h):
    A, B, values = h.domain, h.codomain, h.values
    for name, arity in A.signature.ops:
        for args in itertools.product(A.elements, repeat=arity):
            if values[A.apply(name, *args)] != B.apply(name, *(values[a] for a in args)):
                return False
    return True


# --- inputs ---------------------------------------------------------------------------

def _median3():
    """A 3-chain with the ternary median and a unary reversal: no constants,
    and an operation of arity 3 for the semi-naive positions p = 0, 1, 2."""
    median = tuple(sorted(args)[1] for args in itertools.product(range(3), repeat=3))
    return FiniteAlgebra(Signature((("med", 3), ("rev", 1))), 3,
                         {"med": median, "rev": (2, 1, 0)})


def _affine3():
    """Z/3 with x - y + z and x - y: operations whose value depends on the
    argument position, so a semi-naive round must try delta in every one."""
    sub = tuple((x - y) % 3 for x, y in itertools.product(range(3), repeat=2))
    mal = tuple((x - y + z) % 3 for x, y, z in itertools.product(range(3), repeat=3))
    return FiniteAlgebra(Signature((("mal", 3), ("sub", 2))), 3, {"mal": mal, "sub": sub})


def _late_pair():
    """f(3, 3) = 1 and f(0, 1) = 2, else f(x, y) = x: from {0, 3}, 2 is
    reached only by pairing an old row (0) with a row the last round added (1)."""
    f = tuple({(3, 3): 1, (0, 1): 2}.get((x, y), x)
              for x, y in itertools.product(range(4), repeat=2))
    return FiniteAlgebra(Signature((("f", 2),)), 4, {"f": f})


SUITE = [entry.algebra for entry in dualizer_suite()]
ALGEBRAS = SUITE + [_median3(), _affine3(), _late_pair(),
                    reduct(luk(2).algebra, ["oplus", "neg"])]
IDS = ["bool2", "dl2", "luk2", "luk3", "posluk2", "median3", "affine3", "late-pair",
       "luk2-oplus-neg"]


def _instance(L, max_length=4):
    """(length, seeds) with lengths 0..max_length and 0..3 seeds.  The oracle
    tries every argument tuple each round, so the power is kept to at most
    81 vectors, and to 27 with a ternary operation."""
    arity = max(arity for _, arity in L.signature.ops)
    lengths = [x for x in range(max_length + 1) if L.size ** (x * arity) <= 81**2]
    return st.sampled_from(lengths).flatmap(lambda x: st.tuples(
        st.just(x),
        st.lists(st.tuples(*[st.integers(0, L.size - 1)] * x), max_size=3)))


def _closed_and_subset(L):
    """A closed vector set and a subset of it with some vectors dropped."""
    return _instance(L).flatmap(lambda inst: st.tuples(
        st.just(inst[0]),
        st.just(old_generate_vectors(L, *inst)),
        st.sets(st.integers(0, 80), max_size=3)))


def _error(call, *args):
    try:
        call(*args)
    except (InvalidInput, BudgetExceeded) as exc:
        return type(exc), str(exc)
    return None


# --- closure ------------------------------------------------------------------------

@pytest.mark.parametrize("L", ALGEBRAS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generate_vectors_matches_oracle(L, data):
    length, seeds = data.draw(_instance(L))
    expected = old_generate_vectors(L, length, seeds)
    assert generate_vectors(L, length, seeds) == expected
    A, carrier = algebra_from_vectors(L, length, expected)
    old_A, old_carrier = old_algebra_from_vectors(L, length, expected)
    assert carrier == old_carrier
    assert A == old_A
    assert unclosed_operation(L, length, expected) is None


@pytest.mark.parametrize("L", ALGEBRAS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_small_blocks_match_oracle(L, data):
    """Blocks of a few cells: chunked grids and flushes inside a round."""
    length, seeds = data.draw(_instance(L, max_length=3))
    cells, algebras._BLOCK_CELLS = algebras._BLOCK_CELLS, data.draw(st.integers(1, 12))
    try:
        got = generate_vectors(L, length, seeds)
        A, _ = algebra_from_vectors(L, length, got)
    finally:
        algebras._BLOCK_CELLS = cells
    assert got == old_generate_vectors(L, length, seeds)
    assert A == old_algebra_from_vectors(L, length, got)[0]


@pytest.mark.parametrize("L", ALGEBRAS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_non_closed_sets_report_the_same_operation(L, data):
    length, closed, drop = data.draw(_closed_and_subset(L))
    vectors = [v for i, v in enumerate(closed) if i not in drop]
    assert (_error(algebra_from_vectors, L, length, vectors)
            == _error(old_algebra_from_vectors, L, length, vectors))
    assert (unclosed_operation(L, length, vectors) is None) == \
        old_subuniverse_of_tuples(L, length, vectors)
    assert _error(lspace, discrete_topology(length), L, vectors) == \
        _error(old_check_subuniverse, L, length, vectors)


@pytest.mark.parametrize("L", ALGEBRAS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_arbitrary_sets_report_the_same_operation(L, data):
    length = data.draw(st.integers(0, 2))
    vectors = data.draw(st.sets(st.tuples(*[st.integers(0, L.size - 1)] * length), max_size=6))
    assert (_error(algebra_from_vectors, L, length, vectors)
            == _error(old_algebra_from_vectors, L, length, vectors))
    assert (_error(lspace, discrete_topology(length), L, vectors)
            == _error(old_check_subuniverse, L, length, vectors))


@pytest.mark.parametrize("L", ALGEBRAS, ids=IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_budget_boundary(L, data):
    length, seeds = data.draw(_instance(L))
    closure = old_generate_vectors(L, length, seeds)
    start = set(map(tuple, seeds)) | {(L.apply(c),) * length for c in L.signature.constants}
    size = len(closure)
    assert generate_vectors(L, length, seeds, budget=size) == closure
    expected = _error(old_generate_vectors, L, length, seeds, size - 1)
    assert _error(generate_vectors, L, length, seeds, size - 1) == expected
    # the closure only raises once it adds a vector past the budget
    if size > len(start):
        assert expected == (BudgetExceeded, "vector closure exceeds budget %d" % (size - 1))
    else:
        assert expected is None


def test_seed_errors_match_oracle():
    L = luk(2).algebra
    # numpy integers and bools are integers, and are accepted
    for seeds in ([(0, 1), (1,)], [(0, 3)], [(-1, 0)], [(np.int64(2), True)]):
        assert _error(generate_vectors, L, 2, seeds) == _error(old_generate_vectors, L, 2, seeds)


def test_old_rows_meet_new_rows_in_every_position():
    A = _late_pair()
    assert generate_subalgebra(A, [0, 3]) == frozenset(range(4))
    assert generate_vectors(A, 1, [(0,), (3,)]) == [(0,), (1,), (2,), (3,)]


def test_empty_and_constant_free():
    free = _median3()
    assert generate_vectors(free, 3, []) == []
    assert generate_vectors(free, 0, [()]) == [()]
    assert generate_vectors(luk(2).algebra, 0, []) == [()]
    A, carrier = algebra_from_vectors(free, 2, [])
    assert (A.size, carrier) == (0, [])
    assert unclosed_operation(free, 2, []) is None
    assert unclosed_operation(luk(2).algebra, 2, []) == "zero"
    assert unclosed_operation(luk(2).algebra, 0, []) == "zero"
    assert unclosed_operation(luk(2).algebra, 0, [()]) is None
    assert generate_subalgebra(free, ()) == frozenset()


def test_wide_vectors_past_int64_codes():
    """luk(8) on 20 points: 9**20 > 2**63, so a row needs more than one code."""
    L = luk(8).algebra
    assert L.size ** 20 > 2**63
    u = (0, 4, 8, 4, 0, 8, 8, 4, 0, 0, 4, 4, 8, 0, 8, 4, 0, 8, 4, 4)
    v = tuple(8 if x == 0 else 0 for x in u)
    closure = old_generate_vectors(L, 20, [u, v])
    assert generate_vectors(L, 20, [u, v]) == closure
    A, carrier = algebra_from_vectors(L, 20, closure)
    assert (A, carrier) == old_algebra_from_vectors(L, 20, closure)
    space = lspace(discrete_topology(20), L, closure)
    assert len(space.functions) == len(closure)
    broken = closure[:-1]
    assert _error(lspace, discrete_topology(20), L, broken) == \
        _error(old_check_subuniverse, L, 20, broken)
    assert _error(algebra_from_vectors, L, 20, broken) == \
        _error(old_algebra_from_vectors, L, 20, broken)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 8)] * 20), min_size=1, max_size=30),
       st.integers(0, 19))
def test_wide_codes_order_rows_as_tuples(rows, column):
    # rows that agree on every column but one, so any column can decide
    rows = rows + [r[:column] + (8 - r[column],) + r[column + 1:] for r in rows]
    codes = algebras._codes(np.array(rows, dtype=np.int64), 9)
    assert codes.dtype == object                    # 9**20 > 2**63: exact ints
    assert [rows[i] for i in np.argsort(codes, kind="stable")] == sorted(rows)
    for i, j in itertools.combinations(range(len(rows)), 2):
        assert (codes[i] == codes[j]) == (rows[i] == rows[j])
    assert list(map(tuple, algebras._decode(codes, 9, 20).tolist())) == rows


# --- subalgebras of one algebra (length 1) ----------------------------------------------

POWERS = ALGEBRAS + [direct_power(L, 2) for L in SUITE]


@pytest.mark.parametrize("A", POWERS, ids=IDS + [name + "^2" for name in IDS[:len(SUITE)]])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generate_subalgebra_matches_closure_mask(A, data):
    seed = data.draw(st.lists(st.integers(0, A.size - 1), max_size=3))
    expected = frozenset(int(x) for x in np.nonzero(old_closure_mask(A, seed))[0])
    assert generate_subalgebra(A, seed) == expected


def test_generate_subalgebra_rejects_outside_seed():
    A = luk(2).algebra
    assert _error(generate_subalgebra, A, [1, 3]) == _error(old_closure_mask, A, [1, 3])
    # the mask loop read 0.5 as index 0; an element is an integer
    assert _error(generate_subalgebra, A, [0.5]) == (
        InvalidInput, "seed element 0.5 outside carrier")


@pytest.mark.parametrize("L", SUITE + [_median3()], ids=IDS[:len(SUITE)] + ["median3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_is_homomorphism_matches_oracle(L, data):
    A = direct_power(L, 2) if L.size < 4 else L
    homs = enumerate_homs(A, L)
    if homs and data.draw(st.booleans()):
        h = data.draw(st.sampled_from(homs))
    else:
        h = ElementMap(A, L, data.draw(st.tuples(*[st.integers(0, L.size - 1)] * A.size)))
    assert h.is_homomorphism() == old_is_homomorphism(h)


def broken_operations(h):
    """The operations h fails to preserve, found by the per-argument loop of
    ``old_is_homomorphism``."""
    A, B, values = h.domain, h.codomain, h.values
    return {name for name, arity in A.signature.ops
            for args in itertools.product(A.elements, repeat=arity)
            if values[A.apply(name, *args)] != B.apply(name, *(values[a] for a in args))}


def _random_ternary(size, seed):
    """Random tables for a ternary and a unary operation, as in test_hom_plan."""
    rng = random.Random(seed)
    tables = {"t": tuple(rng.randrange(size) for _ in range(size**3)),
              "s": tuple(rng.randrange(size) for _ in range(size))}
    return FiniteAlgebra(Signature((("t", 3), ("s", 1))), size, tables)


def _hom_groups():
    """Algebras of at most four elements, grouped by signature; every map
    between two algebras of a group is checked."""
    groups = {
        "bool2": [bool2().algebra, direct_power(bool2().algebra, 2)],
        "dl2": [dl2().algebra, direct_power(dl2().algebra, 2)],
        "luk": [direct_power(luk(2).algebra, 0)] + [luk(n).algebra for n in (1, 2, 3)],
        "posluk": [posluk(n).algebra for n in (1, 2, 3)],
        "median3": [_median3()],
        "affine3": [_affine3()],
        "late-pair": [_late_pair()],
        "ternary": [_random_ternary(size, seed) for size, seed in ((2, 0), (3, 1), (3, 2))],
    }
    free = reduct(luk(3).algebra, ["oplus", "neg"])
    empty = FiniteAlgebra(free.signature, 0, {name: () for name in free.signature.names})
    groups["luk-oplus-neg"] = [empty, reduct(luk(2).algebra, ["oplus", "neg"]), free]
    return groups


HOM_GROUPS = _hom_groups()


@pytest.mark.parametrize("group", list(HOM_GROUPS.values()), ids=list(HOM_GROUPS))
def test_is_homomorphism_on_every_map(group):
    for A, B in itertools.product(group, repeat=2):
        for values in itertools.product(B.elements, repeat=A.size):
            h = ElementMap(A, B, values)
            assert h.is_homomorphism() == (not broken_operations(h)), (A, B, values)


def test_is_homomorphism_sees_one_broken_constant_or_operation():
    """Maps that preserve everything but one constant, or but one of the two
    operations in DL's binary stack (meet and join)."""
    DL = dl2().algebra
    square = direct_power(DL, 2)            # elements 00, 01, 10, 11
    cases = [
        (ElementMap(DL, DL, (1, 1)), {"zero"}),
        (ElementMap(square, DL, (0, 1, 1, 1)), {"meet"}),    # the join of the coordinates
        (ElementMap(square, DL, (0, 0, 0, 1)), {"join"}),    # their meet
        (ElementMap(square, DL, (0, 0, 1, 1)), set()),       # the first projection
    ]
    for h, broken in cases:
        assert broken_operations(h) == broken
        assert h.is_homomorphism() == (not broken)


def test_is_homomorphism_needs_one_signature():
    """The stacks of two signatures do not line up; the old per-operation
    lookup failed on them too, with a KeyError."""
    h = ElementMap(bool2().algebra, dl2().algebra, (0, 1))
    assert _error(h.is_homomorphism) == (InvalidInput, "algebras must share a signature")


# --- the power view: short vectors as elements of a small power ---------------------------
#
# Below the cap, ``generate_vectors`` and ``_images`` read the tables of
# L**length (``_power``) with each vector as its code.  They are
# checked against the row kernels ``_close`` and ``_row_images``, called
# directly on the same input, and against the oracles above.

def _free_dl2():
    return reduct(dl2().algebra, ["meet", "join"])


VIEW_ALGEBRAS = [bool2().algebra, dl2().algebra] + [luk(n).algebra for n in (1, 2, 3, 4)] + [
    posluk(2).algebra, reduct(luk(2).algebra, ["oplus", "neg"]),
    reduct(luk(3).algebra, ["odot", "join"]), _free_dl2(), _median3()]
VIEW_IDS = ["bool2", "dl2", "luk1", "luk2", "luk3", "luk4", "posluk2", "luk2-oplus-neg",
            "luk3-odot-join", "dl2-meet-join", "median3"]


def _cells(L, length):
    """The cells of L**length's carrier and tables, as ``_power`` counts them."""
    size = L.size ** length
    return size + sum(size**arity for _, arity in L.signature.ops if arity)


def _view_lengths(L):
    """Every length whose power fits the cap: 0 up to the last one."""
    length = 0
    while _cells(L, length + 1) <= algebras._BLOCK_CELLS:
        length += 1
    return list(range(length + 1))


def _pieces(images):
    """Each operation's positions, its pieces joined in the order they come
    (an empty piece adds nothing: on no rows the row lookup yields none)."""
    out = {}
    for name, positions in images:
        if len(positions):
            out.setdefault(name, []).extend(positions.tolist())
    return out


def _count_calls(monkeypatch, name):
    calls = []
    kernel = getattr(algebras, name)

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(algebras, name, counting)
    return calls


@pytest.mark.parametrize("L", VIEW_ALGEBRAS, ids=VIEW_IDS)
def test_power_view_is_the_stacks_of_the_power(L):
    lengths = _view_lengths(L)
    assert len(lengths) > 1
    for length in lengths:
        view = old_power_stacks(L, length)
        expected = direct_power(L, length)._stacks
        assert [names for names, _ in view] == [names for names, _ in expected]
        for (_, tables), (_, power_tables) in zip(view, expected):
            assert tables.shape == power_tables.shape
            assert np.array_equal(tables, power_tables)
        assert old_power_stacks(L, length) is view
    # the first length past the cap has no view
    assert _cells(L, lengths[-1] + 1) > algebras._BLOCK_CELLS
    assert old_power_stacks(L, lengths[-1] + 1) is None


@pytest.mark.parametrize("L", VIEW_ALGEBRAS, ids=VIEW_IDS)
def test_codes_order_vectors_lexicographically(L):
    for length in _view_lengths(L):
        vectors = list(itertools.product(range(L.size), repeat=length))
        codes = algebras._codes(algebras._rows(vectors, length), L.size)
        assert codes.tolist() == list(range(L.size**length))
        assert list(map(tuple, algebras._decode(codes, L.size, length).tolist())) == vectors


def _seeds(L, length, rng, count):
    return [tuple(rng.randrange(L.size) for _ in range(length)) for _ in range(count)]


@pytest.mark.parametrize("L", VIEW_ALGEBRAS, ids=VIEW_IDS)
def test_power_closure_matches_the_row_kernel(L, monkeypatch):
    rng = random.Random(L.size * 31 + len(L.signature.ops))
    rows = _count_calls(monkeypatch, "_close")
    for length in _view_lengths(L):
        for count in (0, 1, 2, 3):
            seeds = _seeds(L, length, rng, count)
            start = set(seeds) | {(L.apply(c),) * length for c in L.signature.constants}
            expected = algebras._close(L, algebras._rows(list(start), length), DEFAULT_BUDGET)
            got = generate_vectors(L, length, seeds)
            assert got == list(map(tuple, expected.tolist()))
            if L.size**length <= 81:
                assert got == old_generate_vectors(L, length, seeds)
    # every closure above went through the view; only the direct calls ran _close
    assert len(rows) == 4 * len(_view_lengths(L))


@pytest.mark.parametrize("L", VIEW_ALGEBRAS, ids=VIEW_IDS)
def test_power_lookup_matches_the_row_lookup(L, monkeypatch):
    rng = random.Random(L.size * 17 + len(L.signature.ops))
    row_calls = _count_calls(monkeypatch, "_row_images")
    for length in _view_lengths(L):
        closed = generate_vectors(L, length, _seeds(L, length, rng, 2))
        arbitrary = sorted(set(_seeds(L, length, rng, 6)))
        broken = [v for v in closed if rng.random() < 0.8]
        for vectors in (closed, broken, arbitrary, []):
            vectors = rng.sample(vectors, len(vectors))     # in no particular order
            rows = algebras._rows(vectors, length)
            before = len(row_calls)
            got = _pieces(algebras._images(L, rows))
            assert len(row_calls) == before                  # the view served it
            expected = _pieces(algebras._row_images(L, rows))
            assert got == expected
            unclosed = algebras._first_in_signature(
                L, {name for name, positions in expected.items() if min(positions, default=0) < 0})
            assert unclosed_operation(L, length, vectors) == unclosed
            tables, name = algebras._tables_on(L, rows)
            assert name == unclosed
            assert {name: table.tolist() for name, table in tables.items()} == {
                name: expected.get(name, []) for name in L.signature.names}


@pytest.mark.parametrize("L", [dl2().algebra, luk(3).algebra, _median3()],
                         ids=["dl2", "luk3", "median3"])
def test_cap_boundary_on_both_sides(L, monkeypatch):
    """At a cap of exactly the power's cells the view serves a length; one
    cell less and the row kernels do, with the same results."""
    closes = _count_calls(monkeypatch, "_close")
    lookups = _count_calls(monkeypatch, "_row_images")
    rng = random.Random(5)
    for length in (1, 2, 3):
        seeds = _seeds(L, length, rng, 2)
        results = []
        for cap, path in ((_cells(L, length), 0), (_cells(L, length) - 1, 1)):
            monkeypatch.setattr(algebras, "_BLOCK_CELLS", cap)
            before = (len(closes), len(lookups))
            assert (algebras._power(L, length) is None) == bool(path)
            closed = generate_vectors(L, length, seeds)
            A, carrier = algebra_from_vectors(L, length, closed)
            missing = unclosed_operation(L, length, closed[1:])
            assert (len(closes) - before[0], len(lookups) - before[1]) == (path, 2 * path)
            results.append((closed, A, carrier, missing))
        assert results[0] == results[1]
        assert results[0][0] == old_generate_vectors(L, length, seeds)


def test_length_zero_and_empty_seeds():
    free, empty = _free_dl2(), FiniteAlgebra(_free_dl2().signature, 0, {"meet": (), "join": ()})
    L = luk(2).algebra
    for A, length, seeds in ((L, 0, []), (L, 0, [()]), (L, 3, []), (free, 0, []), (free, 0, [()]),
                             (free, 2, []), (empty, 0, []), (empty, 0, [()]), (empty, 2, [])):
        assert algebras._power(A, length) is not None
        got = generate_vectors(A, length, seeds)
        assert got == old_generate_vectors(A, length, seeds)
        rows = algebras._rows(got, length)
        assert _pieces(algebras._images(A, rows)) == _pieces(algebras._row_images(A, rows))
        assert algebra_from_vectors(A, length, got) == old_algebra_from_vectors(A, length, got)
    assert generate_vectors(L, 3, []) == [(0, 0, 0), (2, 2, 2)]
    assert generate_vectors(free, 2, []) == []
    assert generate_vectors(empty, 0, [()]) == [()]


def _least_budget(call, hi=DEFAULT_BUDGET):
    """The least budget below ``hi`` at which ``call(budget)`` does not
    raise, found by bisection, and the error one below it."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _error(call, mid) is None:
            hi = mid
        else:
            lo = mid + 1
    return lo, (_error(call, lo - 1) if lo else None)


@pytest.mark.parametrize("L", VIEW_ALGEBRAS, ids=VIEW_IDS)
def test_budget_parity_by_bisection(L):
    rng = random.Random(L.size)
    for length in _view_lengths(L):
        for count in (0, 1, 3):
            seeds = _seeds(L, length, rng, count)
            start = set(seeds) | {(L.apply(c),) * length for c in L.signature.constants}
            rows = algebras._rows(list(start), length)
            dense = _least_budget(lambda b: generate_vectors(L, length, seeds, budget=b))
            row = _least_budget(lambda b: algebras._close(L, rows, b))
            assert dense == row
            closure = len(generate_vectors(L, length, seeds))
            # past the budget only once the closure adds a vector to the start
            assert dense[0] == (closure if closure > len(start) else 0)


@pytest.mark.parametrize("length, vectors, error", [
    # -1 would index a table from its end, and 2 past it
    (2, [(0, -1), (0, 0), (0, 1), (1, 1)], "vector outside carrier"),
    (2, [(0, 0), (0, 2), (1, 1)], "vector outside carrier"),
    (2, [(0, 1, 1), (0, 0)], "vector of wrong length"),
    (2, [(0, 0), (1,)], "vector of wrong length"),
    # past the cap, where the row kernels would read them
    (12, [(0,) * 12, (1,) * 11 + (-1,)], "vector outside carrier"),
    (12, [(0,) * 12, (1,) * 11], "vector of wrong length"),
    # entries that are not integers: once truncated, kept, or a bare TypeError
    (2, [(0.5, 1)], "vector outside carrier"),
    (1, [(0,), (1.0,)], "vector outside carrier"),
    (2, [("a", 1)], "vector outside carrier"),
    (2, [(None, 1)], "vector outside carrier"),
    (12, [(0,) * 12, (1.0,) * 12], "vector outside carrier"),
])
def test_vectors_off_the_power_are_rejected(length, vectors, error):
    L = dl2().algebra
    for call in (algebra_from_vectors, unclosed_operation):
        assert _error(call, L, length, vectors) == (InvalidInput, error)
    # generate_vectors words its check of seeds the same way
    assert _error(generate_vectors, L, length, vectors) == (InvalidInput, "seed " + error)


# --- oracles: the power view before the cached power ------------------------------

def old_product_stack(stacks, sizes, ops: int, arity: int) -> np.ndarray:
    k = len(sizes)
    total = np.zeros((ops,) + (1,) * (arity * k), dtype=np.int64)
    for i, (stack, size) in enumerate(zip(stacks, sizes)):
        shape = [ops] + [1] * (arity * k)
        shape[1 + i::k] = [size] * arity
        total = total + math.prod(sizes[i + 1:]) * np.asarray(stack, dtype=np.int64).reshape(shape)
    return total.reshape((ops,) + (math.prod(sizes),) * arity)


_OLD_POWERS = {}


def old_power_stacks(L, length):
    stacks = L._stacks
    size = L.size ** length
    cells = size + sum(len(names) * size ** (tables.ndim - 1) for names, tables in stacks)
    if cells > algebras._BLOCK_CELLS:
        return None
    powers = _OLD_POWERS.setdefault(L, {})
    if length not in powers:
        view = []
        for names, tables in stacks:
            power = old_product_stack([tables] * length, [L.size] * length, len(names), tables.ndim - 1)
            power.flags.writeable = False
            view.append((names, power))
        powers[length] = view
    return powers[length]


def old_mask_generate_vectors(L, length, seeds, budget=DEFAULT_BUDGET):
    seeds = [tuple(s) for s in seeds]
    for s in seeds:
        if len(s) != length:
            raise InvalidInput("seed vector of wrong length")
        if any(not 0 <= v < L.size for v in s):
            raise InvalidInput("seed vector outside carrier")
    start = set(seeds).union((L.apply(name),) * length for name in L.signature.constants)
    view = old_power_stacks(L, length)
    if view is None:
        closed = algebras._close(L, algebras._rows(list(start), length), budget)
        return list(map(tuple, closed.tolist()))
    known = np.zeros(L.size ** length, dtype=bool)
    known[algebras._codes(algebras._rows(list(start), length), L.size)] = True
    count = len(start)
    for fresh in algebras._rounds(view, known):
        count += len(fresh)
        if count > budget:
            raise BudgetExceeded("vector closure exceeds budget %d" % budget)
    return list(map(tuple, algebras._decode(np.flatnonzero(known), L.size, length).tolist()))


def old_encode(values, size: int) -> int:
    code = 0
    for v in values:
        code = code * size + v
    return code


def old_decode(code: int, length: int, size: int) -> tuple[int, ...]:
    values = [0] * length
    for i in range(length - 1, -1, -1):
        code, values[i] = divmod(code, size)
    return tuple(values)


# --- the cached power and the one element closure ----------------------------------

@pytest.mark.parametrize("L", VIEW_ALGEBRAS, ids=VIEW_IDS)
def test_mask_loop_and_element_closure_agree_by_bisection(L):
    """Short vectors close as elements of the cached power; results and the
    least budget each closure passes match the mask loop's."""
    rng = random.Random(L.size * 7 + 3)
    for length in _view_lengths(L):
        for count in (0, 1, 3):
            seeds = _seeds(L, length, rng, count)
            assert generate_vectors(L, length, seeds) == old_mask_generate_vectors(L, length, seeds)
            new = _least_budget(lambda b: generate_vectors(L, length, seeds, budget=b))
            old = _least_budget(lambda b: old_mask_generate_vectors(L, length, seeds, budget=b))
            assert new == old


@pytest.mark.parametrize("L", VIEW_ALGEBRAS, ids=VIEW_IDS)
def test_small_powers_are_shared_and_read_only(L):
    assert direct_power(L, 1) is L
    assert _error(direct_power, L, 1, L.size - 1) == (
        BudgetExceeded, "product carrier %d exceeds budget %d" % (L.size, L.size - 1))
    lengths = _view_lengths(L)
    for length in lengths:
        power = direct_power(L, length)
        assert direct_power(L, length) is power
        assert algebras._power(L, length) is power
        for _, tables in power._stacks:
            assert not tables.flags.writeable
        with pytest.raises(AttributeError):
            power.size = 0
    assert algebras._power(L, lengths[-1] + 1) is None
    singleton = direct_power(L, 0, budget=0)
    assert (singleton.size, singleton.tables) == (1, {name: (0,) for name in L.signature.names})


def test_powers_past_the_cap_are_built_afresh():
    L = dl2().algebra
    length = _view_lengths(L)[-1] + 1
    power = direct_power(L, length)
    assert algebras._power(L, length) is None
    assert direct_power(L, length) is not power
    assert direct_power(L, length) == power
    for (_, tables), (names, factor) in zip(power._stacks, L._stacks):
        arity = factor.ndim - 1
        expected = old_product_stack([factor] * length, [L.size] * length, len(names), arity)
        assert np.array_equal(tables, expected)


def test_power_codes_match_the_constrained_codes():
    rng = random.Random(2)
    for _ in range(3000):
        size, length = rng.randint(1, 1000), rng.randint(0, 20)
        values = tuple(rng.randrange(size) for _ in range(length))
        code = old_encode(values, size)
        assert power_index(size, values) == power_index(size, iter(values)) == code
        assert power_tuple(size, length, code) == old_decode(code, length, size) == values
        code = rng.randrange(size ** length)
        assert power_tuple(size, length, code) == old_decode(code, length, size)
        assert power_tuple(size, length, code) == product_tuple([size] * length, code)
        assert power_index(size, old_decode(code, length, size)) == code


def _counter(n):
    """n elements and one unary operation, the cycle x -> x + 1 mod n."""
    return FiniteAlgebra(Signature((("s", 1),)), n, {"s": tuple(range(1, n)) + (0,)})


def test_budget_messages_at_the_default_budget():
    L = dl2().algebra
    assert _error(direct_power, L, 20) == (
        BudgetExceeded, "product carrier 1048576 exceeds budget 1000000")
    assert _error(direct_power, L, 3, 7) == (BudgetExceeded, "product carrier 8 exceeds budget 7")
    assert direct_power(L, 3, budget=8).size == 8
    assert direct_power(_counter(1001), 2, budget=1002001).size == 1002001
    assert _error(subuniverses, _counter(65)) == (
        BudgetExceeded, "subuniverse enumeration capped at carrier 64")
    free = _free_dl2()                      # subuniverses {}, {0}, {1}, {0, 1}
    assert _error(subuniverses, free, 3) == (BudgetExceeded, "more than 3 subuniverses")
    assert len(subuniverses(free, 4)) == 4
    assert _error(classify_square_subalgebras, _counter(1001)) == (
        BudgetExceeded, "product carrier 1002001 exceeds budget 1000000")
    assert _error(classify_square_subalgebras, _counter(9)) == (
        BudgetExceeded, "subuniverse enumeration capped at carrier 64")
    # 011 and 110 with the constants 000 and 111, and their meet 010
    seeds = [(0, 1, 1), (1, 1, 0)]
    assert _error(generate_vectors, L, 3, seeds, 4) == (
        BudgetExceeded, "vector closure exceeds budget 4")
    assert len(generate_vectors(L, 3, seeds, 5)) == len(generate_vectors(L, 3, seeds)) == 5
    assert generate_subalgebra(_counter(64), [5]) == frozenset(range(64))


# --- oracles: the row kernels on limbs and ranks ------------------------------------

_INT64_MAX = 2**63 - 1


@functools.lru_cache(maxsize=256)
def old_radix(n: int, length: int) -> np.ndarray:
    """Weights (length, limbs): ``rows @ weights`` gives each row's limb codes.

    Column c goes to limb c // per with weight n**(per - 1 - c % per), so
    comparing limb codes in order compares rows lexicographically.
    """
    per = 1
    while per < length and n ** (per + 1) <= _INT64_MAX:
        per += 1
    limbs = max(1, -(-length // per))
    per = max(1, -(-length // limbs))
    weights = np.zeros((length, limbs), dtype=np.int64)
    for c in range(length):
        weights[c, c // per] = n ** (per - 1 - c % per)
    weights.flags.writeable = False
    return weights


def old_ranks(codes: np.ndarray) -> np.ndarray:
    """One int64 per row of limb codes, ordered as the rows are; equal
    exactly when the rows are.  Meaningful only within one batch."""
    key = codes[:, 0]
    for j in range(1, codes.shape[1]):
        _, hi = np.unique(key, return_inverse=True)
        values, lo = np.unique(codes[:, j], return_inverse=True)
        key = hi.reshape(-1) * len(values) + lo.reshape(-1)
    return key


def old_close(A: FiniteAlgebra, rows: np.ndarray, budget: int) -> np.ndarray:
    """The closure of ``rows`` (distinct vectors over A) under A's
    non-constant operations, sorted lexicographically.

    Semi-naive rounds: with old the rows known before the last round and
    delta the rows it added, position p of an r-ary operation draws from
    old^p x delta x known^(r-1-p), so each argument tuple is tried once.
    Candidates are deduplicated against the known rows one flush at a time,
    a flush holding at least as many cells as the known rows (so sorting the
    known codes again costs no more than the candidates themselves);
    BudgetExceeded as soon as more than ``budget`` rows are known.
    """
    weights = old_radix(A.size, rows.shape[1])
    known, codes = rows, rows @ weights
    pending: list[np.ndarray] = []

    def flush():
        nonlocal known, codes
        cand = np.concatenate(pending)
        pending.clear()
        cand_codes = cand @ weights
        keys = old_ranks(np.concatenate((codes, cand_codes)))
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        # first occurrences of each key, and of those the ones not yet known
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        fresh = order[first & (order >= len(codes))] - len(codes)
        if len(fresh):
            known = np.concatenate((known, cand[fresh]))
            codes = np.concatenate((codes, cand_codes[fresh]))
            if len(known) > budget:
                raise BudgetExceeded("vector closure exceeds budget %d" % budget)

    start, end = 0, len(known)
    while start < end:
        old, delta, current = known[:start], known[start:end], known[:end]
        size = 0
        for _, tables in A._stacks:
            r = tables.ndim - 1
            for p in range(r):
                parts = [old] * p + [delta] + [current] * (r - 1 - p)
                for block in algebras._pointwise(tables, parts, algebras._BLOCK_CELLS):
                    pending.append(block)
                    size += block.size
                    if size >= max(algebras._BLOCK_CELLS, known.size):
                        flush()
                        size = 0
        if pending:
            flush()
        start, end = end, len(known)
    return known[np.argsort(old_ranks(codes))]


def old_row_images(A: FiniteAlgebra, rows: np.ndarray):
    """``_images`` on rows of any length, through rank and ``searchsorted``."""
    length = rows.shape[1]
    weights = old_radix(A.size, length)
    # a sentinel row of -1 codes, which no vector has, keeps the lookup nonempty
    codes = np.concatenate((rows @ weights, np.full((1, weights.shape[1]), -1, dtype=np.int64)))
    cells = max(algebras._BLOCK_CELLS, rows.size)

    def blocks():
        constants = A.signature.constants
        if constants:
            values = np.array([A.tables[name] for name in constants], dtype=np.int64)
            yield constants, np.repeat(values, length, axis=1)
        for names, tables in A._stacks:
            for block in algebras._pointwise(tables, [rows] * (tables.ndim - 1), cells):
                yield names, block

    for names, block in blocks():
        keys = old_ranks(np.concatenate((codes, block @ weights)))
        known, wanted = keys[:len(codes)], keys[len(codes):]
        order = np.argsort(known)
        spot = order[np.minimum(np.searchsorted(known, wanted, sorter=order), len(rows))]
        positions = np.where(known[spot] == wanted, spot, -1)
        share = len(positions) // len(names)
        for i, name in enumerate(names):
            yield name, positions[i * share:(i + 1) * share]


# --- one code per vector: the row kernels against limbs and ranks -----------------------

def _misses(images):
    """Each operation's -1 mask: where a repeated row stands is not fixed."""
    return {name: [p < 0 for p in positions] for name, positions in _pieces(images).items()}


def _row_kernels_agree(L, length, seeds, rng, bisect=True):
    """``_close`` and ``_row_images`` equal the oracles on the closure of the
    seeds, on every other vector of it and on the start rows (in no
    particular order); the -1 masks agree on rows repeated and shuffled.
    With ``bisect``, so does the least budget the closure passes."""
    start = set(seeds) | {(L.apply(c),) * length for c in L.signature.constants}
    rows = algebras._rows(list(start), length)
    closed = algebras._close(L, rows, DEFAULT_BUDGET)
    expected = old_close(L, rows, DEFAULT_BUDGET)
    assert closed.dtype == np.int64 and np.array_equal(closed, expected)
    for sample in (closed, closed[::2], rows):
        assert _pieces(algebras._row_images(L, sample)) == _pieces(old_row_images(L, sample))
    repeated = closed[rng.choices(range(len(closed)), k=2 * len(closed))]
    assert _misses(algebras._row_images(L, repeated)) == _misses(old_row_images(L, repeated))
    if bisect:
        hi = len(closed) + 1
        assert (_least_budget(lambda b: algebras._close(L, rows, b), hi)
                == _least_budget(lambda b: old_close(L, rows, b), hi))
    return closed


@pytest.mark.parametrize("L", VIEW_ALGEBRAS, ids=VIEW_IDS)
def test_row_kernels_match_limbs_and_ranks_past_the_cap(L):
    rng = random.Random(L.size * 13 + len(L.signature.ops))
    first = _view_lengths(L)[-1] + 1
    for length in (first, first + 1):
        assert algebras._power(L, length) is None
        for count in (0, 1, 2):
            _row_kernels_agree(L, length, _seeds(L, length, rng, count), rng)


def test_row_kernels_match_across_the_int64_boundary():
    """dl2 at 62-65 coordinates: one limb, then two; int64 codes up to
    2**63, then exact ints.  Bisection on two seeds, the rest on four."""
    L, rng = dl2().algebra, random.Random(62)
    for length, dtype, limbs in ((62, np.int64, 1), (63, np.int64, 2), (64, object, 2),
                                 (65, object, 2)):
        assert algebras._radix(2, length).dtype == dtype
        assert old_radix(2, length).shape == (length, limbs)
        _row_kernels_agree(L, length, _seeds(L, length, rng, 2), rng)
        _row_kernels_agree(L, length, _seeds(L, length, rng, 4), rng, bisect=False)


def test_row_kernels_match_on_wide_lukasiewicz_rows():
    """luk(8) on 20 points, 9**20 > 2**63: the seeds of
    ``test_wide_vectors_past_int64_codes``, and seeded ones with few values
    (two free seeds already close to more than 3,000 vectors)."""
    L, rng = luk(8).algebra, random.Random(8)
    assert algebras._radix(9, 20).dtype == object
    u = (0, 4, 8, 4, 0, 8, 8, 4, 0, 0, 4, 4, 8, 0, 8, 4, 0, 8, 4, 4)
    assert len(_row_kernels_agree(L, 20, [u, tuple(8 if x == 0 else 0 for x in u)], rng)) == 12
    for values, count in (((0, 8), 3), ((0, 4, 8), 1)):
        _row_kernels_agree(L, 20, [tuple(rng.choice(values) for _ in range(20))
                                   for _ in range(count)], rng)


@pytest.mark.parametrize("L", VIEW_ALGEBRAS, ids=VIEW_IDS)
def test_row_kernels_match_on_empty_inputs(L):
    """Length 0, and no rows at length 0 and past the cap."""
    rng = random.Random(0)
    past = _view_lengths(L)[-1] + 1
    for length, vectors in ((0, []), (0, [()]), (past, [])):
        rows = algebras._rows(vectors, length)
        for budget in (0, 1, DEFAULT_BUDGET):
            assert _error(algebras._close, L, rows, budget) == _error(old_close, L, rows, budget)
        assert _pieces(algebras._row_images(L, rows)) == _pieces(old_row_images(L, rows))
        _row_kernels_agree(L, length, vectors, rng)
