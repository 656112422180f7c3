"""Differential tests of the extension-mask kernel of constrained spaces.

The oracles below are the functions the kernel replaced, kept verbatim up to
imports and names: ``is_compatible_local`` with its subset/restrict_local
loop, ``compatible_local_functions`` filtering all of L^|I|,
``has_local_extension`` testing one candidate value at a time, ``ccomp``
with its ``admissible`` check, ``possible_extensions`` by membership,
``local_to_global_verify`` on top of them, and
``_family_is_scott_continuous``, once a runtime self-check of
``validate_constrained``.  Spaces are drawn at random: k-ary (k = 2, 3) and
unary, over discrete and subbasis topologies, with families that need not
be subdirect or continuous, empty constraints, and no points at all.
"""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualkit.algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    InvalidInput,
    direct_power,
    power_tuple,
    subuniverses,
)
from dualkit.catalog import dl2, luk, posluk, reduct
from dualkit.constrained import (
    ConstrainedSpace,
    LocalToGlobalVerdict,
    UnaryConstrainedSpace,
    _family_is_continuous,
    ccomp,
    compatible_local_functions,
    cons,
    has_global_extension,
    has_local_extension,
    local_to_global_verify,
    possible_extensions,
    restrict_local,
    validate_constrained,
)
from dualkit.corpus import sample_lspace
from dualkit.terms import _convex_within, check_near_unanimity, search_nu_function
from dualkit.topology import bits_of, topology_from_subbasis

DL = dl2().algebra
BARE_DL = reduct(DL, ("meet", "join"))      # constant-free: empty fibers exist
L2 = luk(2).algebra
P2 = posluk(2).algebra
ALGEBRAS = (DL, BARE_DL, L2)


# --- oracles: the searches before the extension masks ------------------------------

def old_is_compatible_local(space, points_sorted, fun, check_continuity=True) -> bool:
    """Compatibility of a local function on a subset (both space kinds)."""
    points_sorted = tuple(points_sorted)
    if isinstance(space, UnaryConstrainedSpace):
        if not space.a_empty:
            return False
        for i, p in enumerate(points_sorted):
            if fun[i] not in space.fibers[p]:
                return False
        for i, p in enumerate(points_sorted):
            for j, q in enumerate(points_sorted):
                if space.related(p, q) and fun[i] != fun[j]:
                    return False
    else:
        for size in range(min(space.k, len(points_sorted)) + 1):
            for J in itertools.combinations(points_sorted, size):
                if restrict_local(fun, points_sorted, J) not in space.constraint(J):
                    return False
    if check_continuity and not space.topology.is_locally_constant(points_sorted, fun):
        return False
    return True


def old_ccomp(space, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """The continuous compatible global functions, backtracking over points."""
    L, top, n = space.dualizer, space.topology, space.n
    if L.size and L.size**n > budget:
        raise BudgetExceeded("ccomp search exceeds budget")
    unary = isinstance(space, UnaryConstrainedSpace)
    if unary:
        fibers = space.fibers
        empty_ok = space.a_empty
    else:
        fibers = tuple(frozenset(f[0] for f in space.constraint((x,))) for x in range(n))
        empty_ok = () in space.constraint(())
    if not empty_ok:
        return []
    if n == 0:
        return [()]
    order = sorted(range(n), key=lambda x: (len(fibers[x]), x))
    components = top.components()
    values: list[int | None] = [None] * n
    out = []

    def admissible(p, v):
        for q in range(n):
            if values[q] is None or q == p:
                continue
            if components[q] == components[p] and values[q] != v:
                return False
        if unary:
            return all(values[q] is None or q == p or not space.related(p, q)
                       or values[q] == v
                       for q in range(n))
        assigned = [q for q in range(n) if values[q] is not None and q != p]
        for size in range(min(space.k, len(assigned) + 1)):
            for rest in itertools.combinations(assigned, size):
                S = tuple(sorted(rest + (p,)))
                local = tuple(v if q == p else values[q] for q in S)
                if local not in space.constraint(S):
                    return False
        return True

    def extend(idx):
        if idx == n:
            out.append(tuple(values))
            return
        p = order[idx]
        for v in sorted(fibers[p]):
            if admissible(p, v):
                values[p] = v
                extend(idx + 1)
                values[p] = None

    extend(0)
    return sorted(out)


def old_compatible_local_functions(space, points_sorted):
    L = space.dualizer
    out = []
    for fun in itertools.product(L.elements, repeat=len(points_sorted)):
        if old_is_compatible_local(space, points_sorted, fun):
            out.append(fun)
    return out


def old_has_local_extension(space, n_arity: int):
    n = space.n
    for size in range(min(n_arity, n) + 1):
        for I in itertools.combinations(range(n), size):
            for g in old_compatible_local_functions(space, I):
                for j in range(n):
                    if j in I:
                        continue
                    J = tuple(sorted(I + (j,)))
                    extended = False
                    for b in space.dualizer.elements:
                        candidate = tuple(b if q == j else g[I.index(q)] for q in J)
                        if old_is_compatible_local(space, J, candidate):
                            extended = True
                            break
                    if not extended:
                        return False, (I, j, g)
    return True, None


def old_possible_extensions(space, points_sorted, fun, y: int) -> frozenset:
    points_sorted = tuple(points_sorted)
    if len(points_sorted) > space.k - 1:
        raise InvalidInput("possible_extensions needs |I| <= k-1")
    if y in points_sorted:
        raise InvalidInput("extension point must lie outside I")
    J = tuple(sorted(points_sorted + (y,)))
    out = set()
    for b in sorted(f[0] for f in space.constraint((y,))):
        candidate = tuple(b if q == y else fun[points_sorted.index(q)] for q in J)
        if candidate in space.constraint(J):
            out.add(b)
    return frozenset(out)


def old_local_to_global_verify(space, m, budget=DEFAULT_BUDGET):
    if not check_near_unanimity(space.dualizer, m):
        raise InvalidInput("local_to_global_verify needs a near-unanimity function")
    if m.arity != space.k + 1:
        raise InvalidInput("near-unanimity arity must be k+1")
    k = space.k
    for size in range(k):
        for I in itertools.combinations(range(space.n), size):
            for g in old_compatible_local_functions(space, I):
                for y in range(space.n):
                    if y in I:
                        continue
                    M = old_possible_extensions(space, I, g, y)
                    fiber = {f[0] for f in space.constraint((y,))}
                    if not _convex_within(space.dualizer, m, M, fiber):
                        raise AssertionError(
                            "possible-extension set is not convex: lemma violated")
    lep, lep_wit = old_has_local_extension(space, k * (k - 1))
    if not lep:
        return LocalToGlobalVerdict(False, lep_wit, None, None)
    gep, gep_wit, _ = has_global_extension(space, budget=budget)
    return LocalToGlobalVerdict(True, None, gep, gep_wit)


def old_family_is_scott_continuous(space) -> bool:
    """The map xbar -> A_xbar is continuous into Sub(L^k) with the Scott topology."""
    top, L, k, n = space.topology, space.dualizer, space.k, space.n
    square = direct_power(L, k)
    subs = [frozenset(power_tuple(L.size, k, u) for u in universe)
            for universe in subuniverses(square)]
    nbhd = [bits_of(top.min_nbhd(x)) for x in range(n)]
    for C in subs:
        for xbar in itertools.product(range(n), repeat=k):
            if not C <= space.constraint_tuple(xbar):
                continue
            for ybar in itertools.product(*(nbhd[x] for x in xbar)):
                if not C <= space.constraint_tuple(ybar):
                    return False
    return True


# --- random spaces ---------------------------------------------------------------------

@st.composite
def topologies(draw, n):
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
    return topology_from_subbasis(n, masks)


@st.composite
def kary_spaces(draw, algebras=ALGEBRAS, arities=(2, 3), max_points=4):
    """A k-ary space whose stored constraints are arbitrary sets of tuples:
    projections of random global functions, then perturbed, so the family
    may or may not be subdirect, continuous or closed."""
    L = draw(st.sampled_from(algebras))
    k = draw(st.sampled_from(arities))
    n = draw(st.integers(0, max_points))
    top = draw(topologies(n))
    m = min(k, n)
    cells = list(itertools.product(range(L.size), repeat=n))
    funs = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=6))
    family = {}
    for key in itertools.combinations(range(n), m):
        local = {tuple(f[p] for p in key) for f in funs}
        flips = draw(st.lists(st.tuples(*[st.integers(0, L.size - 1)] * m), max_size=2))
        family[frozenset(key)] = local ^ set(flips)
    for x in draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else ():
        family[frozenset((x,))] = {(a,) for a in draw(st.sets(st.integers(0, L.size - 1)))}
    if draw(st.integers(0, 3)) == 0:
        family[frozenset()] = draw(st.sampled_from([set(), {()}]))
    return ConstrainedSpace(k, top, L, family)


@st.composite
def unary_spaces(draw, max_points=4):
    L = draw(st.sampled_from(ALGEBRAS))
    n = draw(st.integers(0, max_points))
    top = draw(topologies(n))
    smallest = draw(st.sampled_from([0, 1, 1, 1]))
    pool = [set(c) for size in range(smallest, L.size + 1)
            for c in itertools.combinations(range(L.size), size)]
    fibers = [draw(st.sampled_from(pool)) for _ in range(n)]
    equiv = [draw(st.sampled_from(range(max(n, 1)))) for _ in range(n)]
    a_empty = draw(st.integers(0, 3)) > 0
    return UnaryConstrainedSpace(top, L, fibers, equiv, a_empty)


any_spaces = st.one_of(kary_spaces(), unary_spaces())


def subsets(n):
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


# --- the kernel against the oracles ----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(space=any_spaces)
def test_compatible_local_functions_match_the_product_filter(space):
    for I in subsets(space.n):
        assert compatible_local_functions(space, I) == old_compatible_local_functions(space, I)


@settings(max_examples=200, deadline=None)
@given(space=any_spaces)
def test_local_extension_matches_with_the_same_witness(space):
    for n_arity in range(-1, space.n + 2):
        assert has_local_extension(space, n_arity) == old_has_local_extension(space, n_arity)


@settings(max_examples=200, deadline=None)
@given(space=any_spaces)
def test_ccomp_matches_backtracking_with_admissible(space):
    assert ccomp(space) == old_ccomp(space)


@settings(max_examples=150, deadline=None)
@given(space=kary_spaces(), data=st.data())
def test_possible_extensions_match_membership(space, data):
    L, n, k = space.dualizer, space.n, space.k
    for I in subsets(n):
        shuffled = data.draw(st.permutations(I))
        for fun in itertools.product(range(L.size), repeat=len(I)):
            for y in range(n):
                expected = _outcome(old_possible_extensions, space, I, fun, y)
                assert _outcome(possible_extensions, space, I, fun, y) == expected
                # the points need not come sorted
                unsorted_fun = tuple(fun[I.index(p)] for p in shuffled)
                assert _outcome(possible_extensions, space, shuffled,
                                unsorted_fun, y) == expected
        if len(I) > k - 1:
            break


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidInput as exc:
        return ("InvalidInput", str(exc))


@lru_cache(maxsize=None)
def near_unanimity(L, arity):
    return search_nu_function(L, arity)


def verdict(fn, space, m):
    """The verdict, or the lemma violation raised on a family that is not
    a valid constrained space."""
    try:
        return fn(space, m)
    except AssertionError as exc:
        return ("AssertionError", str(exc))


@settings(max_examples=100, deadline=None)
@given(space=kary_spaces(max_points=3))
def test_local_to_global_verify_matches(space):
    m = near_unanimity(space.dualizer, space.k + 1)
    assert m is not None
    expected = verdict(old_local_to_global_verify, space, m)
    assert verdict(local_to_global_verify, space, m) == expected


def test_local_to_global_verify_matches_over_luk2_with_gapped_fibers():
    # the median term of luk(2), on families whose fibers are not intervals;
    # a pair constraint whose section is {0, 2} over a full fiber breaks the
    # convexity lemma, and both versions must say so
    m = near_unanimity(L2, 3)
    outcomes = set()
    for fibers in itertools.product([{0, 2}, {0, 1, 2}, {1}], repeat=3):
        family = {frozenset((x,)): {(a,) for a in fibers[x]} for x in range(3)}
        for x, y in itertools.combinations(range(3), 2):
            family[frozenset((x, y))] = {(a, b) for a in fibers[x] for b in fibers[y]
                                         if a <= b or x == 0}
        space = ConstrainedSpace(2, topology_from_subbasis(3, []), L2, family)
        expected = verdict(old_local_to_global_verify, space, m)
        assert verdict(local_to_global_verify, space, m) == expected
        outcomes.add(expected[0] if isinstance(expected, tuple) else expected.lep)
    gap = ConstrainedSpace(2, topology_from_subbasis(2, []), L2,
                           {frozenset((0, 1)): {(0, 0), (0, 2), (1, 1)}})
    expected = verdict(old_local_to_global_verify, gap, m)
    assert expected[0] == "AssertionError"
    assert verdict(local_to_global_verify, gap, m) == expected
    assert outcomes == {True, False}


def test_unary_spaces_on_two_points_exhaustively():
    # every fiber pair, equivalence and a_empty over dl2, on the discrete
    # and the Sierpinski space
    for top in (topology_from_subbasis(2, []), topology_from_subbasis(2, [1])):
        for fibers in itertools.product([set(), {0}, {1}, {0, 1}], repeat=2):
            for equiv in ([0, 0], [0, 1]):
                for a_empty in (False, True):
                    space = UnaryConstrainedSpace(top, DL, fibers, equiv, a_empty)
                    for I in subsets(2):
                        assert (compatible_local_functions(space, I)
                                == old_compatible_local_functions(space, I))
                    for n_arity in range(-1, 4):
                        assert (has_local_extension(space, n_arity)
                                == old_has_local_extension(space, n_arity))
                    assert ccomp(space) == old_ccomp(space)


def test_witnesses_on_the_first_failure_in_loop_order():
    # a three-point cycle of strict inequalities over dl2: the first failing
    # (I, j, g) in size/lexicographic order is the oracle's
    family = {frozenset((0, 1)): {(0, 1)}, frozenset((1, 2)): {(0, 0), (1, 1)},
              frozenset((0, 2)): {(0, 0), (0, 1), (1, 1)}}
    space = ConstrainedSpace(2, topology_from_subbasis(3, []), DL, family)
    for n_arity in range(4):
        assert has_local_extension(space, n_arity) == old_has_local_extension(space, n_arity)


# --- the Scott self-check, now a test --------------------------------------------------

@lru_cache(maxsize=None)
def closed_sets(L, m):
    return [frozenset(power_tuple(L.size, m, u) for u in universe)
            for universe in subuniverses(direct_power(L, m))]


@st.composite
def closed_kary_spaces(draw):
    """Families of subuniverses: they pass the closedness check of
    validate_constrained, but need not be subdirect or continuous."""
    L, k = draw(st.sampled_from([(DL, 2), (DL, 3), (BARE_DL, 2), (L2, 2), (P2, 2)]))
    n = draw(st.integers(1, 3))
    top = draw(topologies(n))
    m = min(k, n)
    family = {frozenset(key): draw(st.sampled_from(closed_sets(L, m)))
              for key in itertools.combinations(range(n), m)}
    if m > 1:
        for x in draw(st.sets(st.integers(0, n - 1))):
            family[frozenset((x,))] = draw(st.sampled_from(closed_sets(L, 1)))
    if not L.signature.constants:
        family[frozenset()] = draw(st.sampled_from([set(), {()}]))
    return ConstrainedSpace(k, top, L, family)


@settings(max_examples=150, deadline=None)
@given(space=closed_kary_spaces())
def test_scott_continuity_is_fiber_openness_on_closed_families(space):
    scott = old_family_is_scott_continuous(space)
    assert scott == _family_is_continuous(space)
    report = validate_constrained(space)
    assert report.scott_continuous == report.continuous == scott


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.sampled_from((2, 3)))
def test_scott_continuity_on_cons_of_random_lspaces(seed, k):
    import random
    for L in (DL, L2):
        space = cons(sample_lspace(L, random.Random(seed)), k)
        assert old_family_is_scott_continuous(space)
        assert validate_constrained(space).scott_continuous

