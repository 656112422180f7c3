"""Differential tests of the shared implementations against the copies they replaced.

The near-unanimity table test, the clone-closure step, union-find, block
numbering by first occurrence, the convexity loop and the subalgebra tables
each had several hand-written copies.  The oracles below are those copies,
kept verbatim up to imports and names: ``check_near_unanimity`` with its own
cell loop, ``_is_nu_table`` and ``_nu_violations``, the three-branch
(unary, binary, wider) ``clone_search`` (with its budget charging every
table tried, as the shared step's does), ``is_convex`` with its own loop,
``Congruence.join`` and ``generate_congruence`` with their own ``find``, the
numbering loops of ``cons(X, 1)``, ``separated_quotient`` and
``binary_to_unary``, and the ``A.apply`` loop of ``subalgebra``.
"""

import heapq
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualkit import algebras
from dualkit.algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Congruence,
    FiniteAlgebra,
    InvalidInput,
    Signature,
    direct_power,
    generate_congruence,
    power_index,
    subalgebra,
    subuniverses,
)
from dualkit.catalog import bool2, dl2, luk, posluk, reduct
from dualkit.constrained import (
    ConstrainedSpace,
    UnaryConstrainedSpace,
    binary_to_unary,
    cons,
    unary_to_binary,
)
from dualkit.corpus import sample_lspace
from dualkit.spaces import separated_quotient
from dualkit.terms import (
    App,
    NUCheck,
    TermFunction,
    Var,
    _nu_cells,
    check_near_unanimity,
    clone_search,
    is_convex,
    projection_function,
    search_nu_function,
)
from dualkit.topology import bits_of, topology_from_subbasis


def _ternary_algebra(with_unary=True):
    """A three-element algebra with a ternary operation, so that the clone
    step for arity > 2 runs."""
    table = []
    for a, b, c in itertools.product(range(3), repeat=3):
        if a == b:
            table.append(a)
        elif c in (a, b):
            table.append(c)
        else:
            table.append(max(a, b, c) if (a + b + c) % 2 else min(a, b, c))
    if not with_unary:
        return FiniteAlgebra(Signature((("m", 3),)), 3, {"m": table})
    return FiniteAlgebra(Signature((("m", 3), ("s", 1))), 3,
                         {"m": table, "s": [1, 2, 0]})


def _mixed_algebra():
    """Operations of arity 4, 3, 2 and 1 declared widest first, so the clone
    step's unary-binary-rest order differs from signature order."""
    n = 2
    tables = {
        "q": [(a & b) | (c & d) for a, b, c, d in itertools.product(range(n), repeat=4)],
        "m": [(a & b) | (b & c) | (a & c) for a, b, c in itertools.product(range(n), repeat=3)],
        "x": [a ^ b for a, b in itertools.product(range(n), repeat=2)],
        "neg": [1 - a for a in range(n)],
    }
    sig = Signature((("q", 4), ("m", 3), ("x", 2), ("neg", 1)))
    return FiniteAlgebra(sig, n, tables)


TERN = _ternary_algebra()
TERN_M = _ternary_algebra(with_unary=False)
BUILTINS = (
    [bool2().algebra, dl2().algebra]
    + [luk(n).algebra for n in range(1, 5)]
    + [posluk(n).algebra for n in range(1, 5)]
    + [reduct(dl2().algebra, ("meet", "join")), reduct(luk(3).algebra, ("meet", "join"))]
)


# --- oracles: the copies before the merge ------------------------------------------

def old_check_near_unanimity(L, f):
    if f.arity < 3:
        raise InvalidInput("near-unanimity check requires arity >= 3")
    n = L.size
    if len(f.table) != n**f.arity:
        raise InvalidInput("table size does not match the carrier")
    for a in L.elements:
        for b in L.elements:
            for pos in range(f.arity):
                args = [a] * f.arity
                args[pos] = b
                if f.table[power_index(n, args)] != a:
                    return NUCheck(False, tuple(args))
    return NUCheck(True)


def _is_nu_table(n, arity, table):
    for a in range(n):
        for b in range(n):
            for pos in range(arity):
                args = [a] * arity
                args[pos] = b
                if table[power_index(n, args)] != a:
                    return False
    return True


def _nu_violations(n, arity, table):
    count = 0
    for a in range(n):
        for b in range(n):
            for pos in range(arity):
                args = [a] * arity
                args[pos] = b
                if table[power_index(n, args)] != a:
                    count += 1
    return count


def old_clone_search(L, arity, predicate, budget=DEFAULT_BUDGET, priority=None):
    length = L.size**arity
    if length > budget:
        raise BudgetExceeded("clone tables of size %d exceed budget" % length)
    if priority is None:
        priority = lambda table: 0
    n = L.size
    tables = []
    recipe = []
    index = {}
    heap = []
    hit = []
    tried = 0

    def witness(i):
        kind, payload = recipe[i]
        if kind == "var":
            return Var(payload)
        op, args = payload
        return App(op, tuple(witness(a) for a in args))

    def insert(candidate, entry):
        nonlocal tried
        tried += 1
        if tried > budget:
            raise BudgetExceeded("clone search exceeds budget %d" % budget)
        if candidate in index:
            return False
        i = len(tables)
        index[candidate] = i
        tables.append(candidate)
        recipe.append(entry)
        if predicate(candidate):
            hit.append(i)
            return True
        heapq.heappush(heap, (priority(candidate), i))
        return False

    for i in range(arity):
        if insert(projection_function(L, arity, i).table, ("var", i)):
            return TermFunction(arity, tables[hit[0]], witness(hit[0]))
    for name, op_arity in L.signature.ops:
        if op_arity == 0:
            if insert((L.apply(name),) * length, ("app", (name, ()))):
                return TermFunction(arity, tables[hit[0]], witness(hit[0]))

    binary_ops = [(name, L.tables[name]) for name, r in L.signature.ops if r == 2]
    unary_ops = [(name, L.tables[name]) for name, r in L.signature.ops if r == 1]
    other_ops = [(name, r) for name, r in L.signature.ops if r > 2]
    done = []
    while heap:
        _, current = heapq.heappop(heap)
        done.append(current)
        t = tables[current]
        for name, table in unary_ops:
            if insert(tuple(table[x] for x in t), ("app", (name, (current,)))):
                return TermFunction(arity, tables[hit[0]], witness(hit[0]))
        for name, table in binary_ops:
            for other in done:
                u = tables[other]
                for args, cols in (((current, other), (t, u)), ((other, current), (u, t))):
                    candidate = tuple(table[x * n + y] for x, y in zip(*cols))
                    if insert(candidate, ("app", (name, args))):
                        return TermFunction(arity, tables[hit[0]], witness(hit[0]))
        for name, r in other_ops:
            for rest in itertools.product(done, repeat=r - 1):
                for pos in range(r):
                    args = rest[:pos] + (current,) + rest[pos:]
                    cols = [tables[a] for a in args]
                    candidate = tuple(L.apply(name, *pw) for pw in zip(*cols))
                    if insert(candidate, ("app", (name, args))):
                        return TermFunction(arity, tables[hit[0]], witness(hit[0]))
    return None


def old_search_nu_function(L, arity, budget=DEFAULT_BUDGET):
    if arity < 3:
        raise InvalidInput("near-unanimity arity must be >= 3")
    return old_clone_search(L, arity, lambda t: _is_nu_table(L.size, arity, t),
                            budget=budget,
                            priority=lambda t: _nu_violations(L.size, arity, t))


def old_is_convex(L, m, M):
    if not check_near_unanimity(L, m):
        raise InvalidInput("convexity is defined relative to a near-unanimity function")
    M = sorted(set(M))
    for x in M:
        if not 0 <= x < L.size:
            raise InvalidInput("subset element outside carrier")
    n = L.size
    arity = m.arity
    for pos in range(arity):
        for inside in itertools.product(M, repeat=arity - 1):
            for outside in L.elements:
                args = inside[:pos] + (outside,) + inside[pos:]
                if m.table[power_index(n, args)] not in M:
                    return False
    return True


def old_join(self, other):
    n = len(self.blocks)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for theta in (self, other):
        rep = {}
        for x, b in enumerate(theta.blocks):
            if b in rep:
                parent[find(x)] = find(rep[b])
            else:
                rep[b] = x
    return Congruence.from_blocks([find(x) for x in range(n)])


def old_generate_congruence(A, pairs):
    n = A.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = []

    def union(a, b):
        ra, rb = find(a), find(b)
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
    return Congruence.from_blocks([find(x) for x in range(n)])


def old_cons_classes(X):
    functions = sorted(X.functions)
    classes = []
    seen = {}
    for x in range(X.n):
        profile = tuple(f[x] for f in functions)
        if profile not in seen:
            seen[profile] = len(seen)
        classes.append(seen[profile])
    return tuple(classes)


def old_separated_classes(X):
    classes = []
    seen = {}
    for x in range(X.n):
        signature = tuple(f[x] for f in sorted(X.functions))
        if signature not in seen:
            seen[signature] = len(seen)
        classes.append(seen[signature])
    return tuple(classes)


def old_binary_to_unary(space):
    if space.k != 2:
        raise InvalidInput("binary_to_unary expects a binary space")
    n = space.n
    fibers = [frozenset(f[0] for f in space.constraint((x,))) for x in range(n)]
    related = [[False] * n for _ in range(n)]
    for x in range(n):
        related[x][x] = True
    for x, y in itertools.combinations(range(n), 2):
        pairs = space.constraint_tuple((x, y))
        if all(a == b for a, b in pairs):
            if pairs != frozenset((a, a) for a in fibers[x]):
                raise InvalidInput("pair %r is a proper subdiagonal" % ((x, y),))
            related[x][y] = related[y][x] = True
        elif pairs == frozenset(itertools.product(fibers[x], fibers[y])):
            pass
        else:
            raise InvalidInput(
                "pair %r is neither a subdiagonal nor the product of its fibers"
                % ((x, y),))
    classes = []
    seen = {}
    for x in range(n):
        root = min(y for y in range(n) if related[x][y])
        if root not in seen:
            seen[root] = len(seen)
        classes.append(seen[root])
    for x in range(n):
        for y in range(n):
            if (classes[x] == classes[y]) != related[x][y]:
                raise InvalidInput("induced relation is not transitive at %r" % ((x, y),))
    a_empty = () in space.constraint(())
    return UnaryConstrainedSpace(space.topology, space.dualizer, fibers, classes, a_empty)


def old_subalgebra(A, universe):
    old = tuple(sorted(set(universe)))
    index = {x: i for i, x in enumerate(old)}
    tables = {}
    for name, arity in A.signature.ops:
        entries = []
        for args in itertools.product(old, repeat=arity):
            value = A.apply(name, *args)
            if value not in index:
                raise InvalidInput("set is not closed under %r" % name)
            entries.append(index[value])
        tables[name] = tuple(entries)
    return FiniteAlgebra(A.signature, len(old), tables), old


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InvalidInput, BudgetExceeded) as exc:
        return type(exc), str(exc)


# --- near-unanimity cells ------------------------------------------------------------

@st.composite
def nu_tables(draw):
    """A table of arity 3 or 4 over n <= 4 elements: random, or forced to be
    near-unanimous and then perturbed in a few cells."""
    n = draw(st.integers(0, 4))
    arity = draw(st.sampled_from((3, 4)))
    size = n**arity
    if n == 0:
        return n, arity, ()
    table = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    if draw(st.booleans()):
        for a in range(n):
            for b in range(n):
                for pos in range(arity):
                    args = [a] * arity
                    args[pos] = b
                    table[power_index(n, args)] = a
        for i, v in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(0, n - 1)), max_size=3)):
            table[i] = v
    return n, arity, tuple(table)


@settings(max_examples=300, deadline=None)
@given(case=nu_tables())
def test_nu_cells_match_the_three_loops(case):
    n, arity, table = case
    L = FiniteAlgebra(Signature(()), n, {})
    f = TermFunction(arity, table)
    new, old = check_near_unanimity(L, f), old_check_near_unanimity(L, f)
    assert (new.ok, new.witness) == (old.ok, old.witness)
    cells = _nu_cells(n, arity)
    assert all(table[i] == a for i, a in cells) == _is_nu_table(n, arity, table) == old.ok
    assert sum(table[i] != a for i, a in cells) == _nu_violations(n, arity, table)


def test_nu_check_errors_match():
    L = luk(2).algebra
    for f in (TermFunction(2, (0,) * 9), TermFunction(3, (0,) * 26)):
        assert _outcome(check_near_unanimity, L, f) == _outcome(old_check_near_unanimity, L, f)


# --- the clone step --------------------------------------------------------------------
#
# clone_search tries its tables in batches and scores them with array-level
# predicates and priorities; the oracle tries one tuple at a time.  The same
# tables must come in the same order, with the same hit, witness and budget
# outcome.

CLONE_CASES = BUILTINS + [TERN, TERN_M, _mixed_algebra()]
NU_CASES = [(L, arity) for L in CLONE_CASES for arity in (3, 4, 5)] + [(luk(6).algebra, 4)]


def _term_and_table(f):
    return f if f is None or isinstance(f, tuple) else (f.term, f.table)


@pytest.mark.parametrize("L", CLONE_CASES)
@pytest.mark.parametrize("arity", (3, 4, 5))
def test_nu_search_returns_the_same_term_and_table(L, arity):
    new, old = search_nu_function(L, arity), old_search_nu_function(L, arity)
    assert _term_and_table(new) == _term_and_table(old)


def test_nu_search_returns_the_same_term_and_table_on_luk6_at_arity_4():
    L = luk(6).algebra
    new, old = search_nu_function(L, 4), old_search_nu_function(L, 4)
    assert new is not None and _term_and_table(new) == _term_and_table(old)


def _least_passing_budget(L, arity):
    """The least budget at which the oracle's NU search does not raise."""
    low, high = 0, 1
    while isinstance(_outcome(old_search_nu_function, L, arity, high), tuple):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        if isinstance(_outcome(old_search_nu_function, L, arity, middle), tuple):
            low = middle
        else:
            high = middle
    return high


def test_nu_search_budgets_match_on_every_small_case():
    # every budget from 0 to one past the least passing one, wherever the
    # search passes within 300 tables tried
    small = 0
    for L, arity in NU_CASES:
        least = _least_passing_budget(L, arity)
        if least >= 300:
            continue
        small += 1
        for budget in range(least + 2):
            new = _outcome(search_nu_function, L, arity, budget)
            old = _outcome(old_search_nu_function, L, arity, budget)
            assert _term_and_table(new) == _term_and_table(old), (L, arity, budget)
    assert small == 38


def recording(seen):
    """An array-level predicate that never holds and records each table it
    is shown, as a tuple."""
    return lambda rows: seen.extend(map(tuple, rows.tolist())) or np.zeros(len(rows), bool)


def _enumeration(L, arity, budget, weigh=False):
    """Every table clone_search meets, in order, and how it ends."""
    seen = []
    priority = (lambda rows: rows.sum(axis=1) % 3) if weigh else None
    return _outcome(clone_search, L, arity, recording(seen), budget, priority), seen


def _old_enumeration(L, arity, budget, weigh=False):
    seen = []
    priority = (lambda t: sum(t) % 3) if weigh else None
    return _outcome(old_clone_search, L, arity, lambda t: seen.append(t) or False,
                    budget, priority), seen


@pytest.mark.parametrize("L, arity, budget", [
    (bool2().algebra, 2, DEFAULT_BUDGET),
    (dl2().algebra, 3, DEFAULT_BUDGET),
    (posluk(2).algebra, 2, DEFAULT_BUDGET),
    (luk(2).algebra, 1, DEFAULT_BUDGET),
    (TERN, 1, DEFAULT_BUDGET),
    (TERN, 2, 150),            # stops at the budget, after running the ternary step
    (TERN_M, 3, DEFAULT_BUDGET),
    (_mixed_algebra(), 2, DEFAULT_BUDGET),
    (_mixed_algebra(), 3, 120),
    (TERN, 0, DEFAULT_BUDGET),  # tables of one cell
    (FiniteAlgebra(Signature((("f", 2), ("m", 3), ("s", 1))), 0,
                   {"f": [], "m": [], "s": []}), 2, DEFAULT_BUDGET),    # of none
])
def test_clone_tables_come_in_the_same_order(L, arity, budget):
    for weigh in (False, True):
        assert _enumeration(L, arity, budget, weigh) == _old_enumeration(L, arity, budget, weigh)


def test_clone_hit_and_witness_match_on_the_mixed_algebra():
    A = _mixed_algebra()
    for goal in itertools.product(range(2), repeat=4):
        new = clone_search(A, 2, lambda rows: (rows == goal).all(axis=1))
        old = old_clone_search(A, 2, lambda t: t == goal)
        assert _term_and_table(new) == _term_and_table(old)
    # predicates that many tables of one batch meet: the first of them wins
    for cell, value in itertools.product(range(8), range(2)):
        new = clone_search(A, 3, lambda rows: (rows[:, cell] == value) & (rows.sum(axis=1) == 4))
        old = old_clone_search(A, 3, lambda t: t[cell] == value and sum(t) == 4)
        assert new is not None and _term_and_table(new) == _term_and_table(old)


def test_clone_batches_cut_inside_a_pop_match(monkeypatch):
    """Batches of a few rows: the cap falls inside one pop's candidates,
    inside one run of operations, and (at one row) inside one grid cell."""
    cases = [(dl2().algebra, 3, DEFAULT_BUDGET), (luk(2).algebra, 2, 2000),
             (TERN, 2, 150), (_mixed_algebra(), 3, 120), (bool2().algebra, 2, DEFAULT_BUDGET)]
    for L, arity, budget in cases:
        old = {weigh: _old_enumeration(L, arity, budget, weigh) for weigh in (False, True)}
        old_nu = {(a, b): _outcome(old_search_nu_function, L, a, b)
                  for a in (3, 4) for b in (40, 90, DEFAULT_BUDGET)}
        for rows in (1, 2, 3, 7):
            monkeypatch.setattr(algebras, "_BLOCK_CELLS", rows * L.size**arity)
            for weigh in (False, True):
                assert _enumeration(L, arity, budget, weigh) == old[weigh]
            for (a, b), outcome in old_nu.items():
                assert _term_and_table(_outcome(search_nu_function, L, a, b)) == \
                    _term_and_table(outcome)
            monkeypatch.undo()


# --- convexity ---------------------------------------------------------------------------

@pytest.mark.parametrize("L", [reduct(luk(3).algebra, ("meet", "join")), dl2().algebra])
@pytest.mark.parametrize("arity", (3, 4))
def test_is_convex_on_every_subset(L, arity):
    m = search_nu_function(L, arity)
    for size in range(L.size + 1):
        for M in itertools.combinations(range(L.size), size):
            assert is_convex(L, m, M) == old_is_convex(L, m, M)
    for bad in ({L.size}, {-1}):
        assert _outcome(is_convex, L, m, bad) == _outcome(old_is_convex, L, m, bad)
    projection = projection_function(L, arity, 0)
    assert _outcome(is_convex, L, projection, {0}) == \
        _outcome(old_is_convex, L, projection, {0})


# --- union-find -------------------------------------------------------------------------

def _partitions(n):
    """Every partition of 0..n-1 as a restricted growth string."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield Congruence(tuple(prefix))
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))
    yield from grow([], -1)


UNION_FIND_ALGEBRAS = [direct_power(dl2().algebra, 2), luk(2).algebra, TERN]


@pytest.mark.parametrize("A", UNION_FIND_ALGEBRAS)
def test_join_of_every_pair_of_partitions(A):
    partitions = list(_partitions(A.size))
    for p, q in itertools.product(partitions, repeat=2):
        assert p.join(q) == old_join(p, q)


@pytest.mark.parametrize("A", UNION_FIND_ALGEBRAS)
def test_generate_congruence_on_every_pair_of_generating_pairs(A):
    pairs = list(itertools.product(A.elements, repeat=2))
    assert generate_congruence(A, []) == old_generate_congruence(A, [])
    for one in pairs:
        assert generate_congruence(A, [one]) == old_generate_congruence(A, [one])
    for two in itertools.combinations(pairs, 2):
        assert generate_congruence(A, two) == old_generate_congruence(A, two)
    bad = [(0, A.size)]
    assert _outcome(generate_congruence, A, bad) == _outcome(old_generate_congruence, A, bad)


# --- block numbering by first occurrence --------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), which=st.sampled_from((0, 1, 2)))
def test_cons_and_separated_quotient_classes(seed, which):
    L = (dl2().algebra, luk(2).algebra, reduct(dl2().algebra, ("meet", "join")))[which]
    X = sample_lspace(L, random.Random(seed), max_points=4)
    assert cons(X, 1).equiv == old_cons_classes(X)
    quotient, classes = separated_quotient(X)
    assert classes == old_separated_classes(X)
    assert quotient.n == len(set(classes))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_binary_to_unary_classes(data):
    L = data.draw(st.sampled_from((dl2().algebra, luk(2).algebra)))
    n = data.draw(st.integers(0, 4))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
    pool = [set(u) for u in subuniverses(L)]
    fibers = [data.draw(st.sampled_from(pool)) for _ in range(n)]
    equiv = [data.draw(st.integers(0, max(n - 1, 0))) for _ in range(n)]
    space = unary_to_binary(UnaryConstrainedSpace(
        topology_from_subbasis(n, masks), L, fibers, equiv, True))
    # non-transitive relations: relate one more pair by its diagonal
    if n >= 2 and data.draw(st.booleans()):
        x, y = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                         unique=True)))
        family = {key: space.constraint_tuple(tuple(sorted(key)))
                  for key in space.constraints}
        family[frozenset((x, y))] = {(a, a) for a in fibers[x]}
        try:
            space = ConstrainedSpace(2, space.topology, L, family)
        except InvalidInput:
            return
    new, old = _outcome(binary_to_unary, space), _outcome(old_binary_to_unary, space)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert (new.equiv, new.fibers, new.a_empty) == (old.equiv, old.fibers, old.a_empty)


# --- subalgebra tables ------------------------------------------------------------------

SUBALGEBRA_CASES = [dl2().algebra, luk(2).algebra, posluk(3).algebra, TERN, _mixed_algebra(),
                    reduct(dl2().algebra, ("meet", "join")), direct_power(luk(2).algebra, 2)]


@pytest.mark.parametrize("A", SUBALGEBRA_CASES)
def test_subalgebra_on_every_subset(A):
    for size in range(A.size + 1):
        for U in itertools.combinations(range(A.size), size):
            assert _outcome(subalgebra, A, U) == _outcome(old_subalgebra, A, U)


def test_subalgebra_rejects_elements_outside_the_carrier():
    A = luk(2).algebra
    # 1.0 equals 1, but an element is an integer; "a" did not even sort
    for U in ({0, 3}, {-1, 2}, [0, 1.0, 2], [0, "a"]):
        with pytest.raises(InvalidInput, match="outside carrier"):
            subalgebra(A, U)


# --- bits_of --------------------------------------------------------------------------

def test_bits_of_rejects_a_negative_mask():
    with pytest.raises(InvalidInput):
        bits_of(-1)
    assert bits_of(0) == ()
    assert bits_of(0b1011) == (0, 1, 3)
