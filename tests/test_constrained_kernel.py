"""Differential tests of the constrained-space store and searches.

The oracles below are the functions the kernel replaced, kept verbatim up to
imports and names: ``is_compatible_local`` with its subset/restrict_local
loop, ``compatible_local_functions`` filtering all of L^|I|,
``has_local_extension`` testing one candidate value at a time, ``ccomp``
with its ``admissible`` check, ``possible_extensions`` by membership and
``local_to_global_verify`` on top of them.  ``local_to_global_verify``
names the failed hypothesis (InvalidInput) where the oracle raised the lemma
violation, and each such family is checked to fail closedness or
subdirectness.  ``product_filter`` keeps every function in L^n whose
preimages are open and whose restrictions are compatible.  Spaces are drawn
at random: k-ary (k = 2, 3) and unary, over discrete and subbasis
topologies, with families that need not be subdirect or continuous, empty
constraints, and no points at all.

A second set of oracles covers the code that one re-indexing helper and the
binary presentation of unary spaces replaced: ``validate_constrained`` with
its pairwise subdirectness loop and its two-pass continuity test (local
constancy, then the whole product of neighbourhoods), which also decides
Scott continuity on closed families, ``is_constrained_map`` pulling
constraints back one tuple at a time, ``priestley_to_order`` reading the
forbidden pair (1, 0), and ``unary_to_binary`` building its family pair by
pair; they run on the random spaces and on every reflexive relation over
dl2 on up to four points.  The rows a unary search reads off the fibers are
compared with those of ``unary_to_binary`` on every value of L, and both
with the masks read off its constraints.

The coded store is compared with the family it was given
(``projected_constraint``), and with it every search, on k-ary and unary
spaces and on all 4,166 reflexive relations over dl2: ``ccomp`` against
``product_filter``, ``has_global_extension`` against the first member of a
stored A_I that no such function restricts to (``first_unextended``), and
``has_local_extension`` and ``compatible_local_functions`` against the
loops above, with the same results, witnesses and function lists.  Budgets
are counted on tuples: ``ascending_budget`` for ``ccomp``, which assigns
points in ascending order, and ``local_extension_budget`` for
``has_local_extension``.
"""


import itertools
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualkit.algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FiniteAlgebra,
    InvalidInput,
    Signature,
    direct_power,
    power_tuple,
    subuniverses,
    unclosed_operation,
)
from dualkit.catalog import dl2, luk, posluk, reduct
from dualkit.constrained import (
    ConstrainedReport,
    ConstrainedSpace,
    LocalToGlobalVerdict,
    UnaryConstrainedSpace,
    _family_is_continuous,
    _kary,
    _table,
    ccomp,
    compatible_local_functions,
    cons,
    has_global_extension,
    has_local_extension,
    is_constrained_map,
    local_to_global_verify,
    possible_extensions,
    priestley_from_order,
    priestley_to_order,
    unary_to_binary,
    validate_constrained,
)
from dualkit import constrained
from dualkit.corpus import sample_lspace
from dualkit.terms import _convex_within, check_near_unanimity, search_nu_function
from dualkit.topology import (
    FiniteTopology,
    bits_of,
    discrete_topology,
    indiscrete_topology,
    mask_of,
    topology_from_subbasis,
)

DL = dl2().algebra
BARE_DL = reduct(DL, ("meet", "join"))      # constant-free: empty fibers exist
L2 = luk(2).algebra
P2 = posluk(2).algebra
ALGEBRAS = (DL, BARE_DL, L2)


# --- oracles: the searches before the extension masks ------------------------------

def restrict_local(fun, I_sorted, J_sorted):
    position = {p: i for i, p in enumerate(I_sorted)}
    return tuple(fun[position[q]] for q in J_sorted)


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


# --- random spaces ---------------------------------------------------------------------

@st.composite
def topologies(draw, n):
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
    return topology_from_subbasis(n, masks)


def kary_spaces(algebras=ALGEBRAS, arities=(2, 3), max_points=4):
    return kary_families(algebras, arities, max_points).map(
        lambda args: ConstrainedSpace(*args))


@st.composite
def kary_families(draw, algebras=ALGEBRAS, arities=(2, 3), max_points=4):
    """(k, topology, L, family) of a k-ary space whose stored constraints are
    arbitrary sets of tuples: projections of random global functions, then
    perturbed, so the family may or may not be subdirect, continuous or
    closed."""
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
    return k, top, L, family


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
    for n_arity in range(0, space.n + 2):
        assert has_local_extension(space, n_arity) == old_has_local_extension(space, n_arity)
    with pytest.raises(InvalidInput, match="local extension arity must be >= 0"):
        has_local_extension(space, -1)


@settings(max_examples=200, deadline=None)
@given(space=any_spaces)
def test_ccomp_matches_backtracking_with_admissible(space):
    assert ccomp(space) == old_ccomp(space)


def product_filter(space) -> list[tuple[int, ...]]:
    """Every function in L^n, in lexicographic order, whose preimages are
    open and whose restriction to every set of at most k points is
    compatible; k = 1 for a unary space, which asks for the fibers, equal
    values on related points, and a_empty."""
    L, top, n = space.dualizer, space.topology, space.n
    if isinstance(space, UnaryConstrainedSpace):
        def compatible(f):
            return space.a_empty and all(
                f[x] in space.fibers[x] and (f[x] == f[y] or not space.related(x, y))
                for x in range(n) for y in range(n))
    else:
        sets = [I for size in range(min(space.k, n) + 1)
                for I in itertools.combinations(range(n), size)]

        def compatible(f):
            return all(tuple(f[p] for p in I) in space.constraint(I) for I in sets)
    return [f for f in itertools.product(range(L.size), repeat=n)
            if compatible(f)
            and all(top.is_open(mask_of(x for x in range(n) if f[x] == a)) for a in f)]


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ccomp_is_the_product_filter_on_coarse_topologies(k, data):
    # where the topology links points, the search pins each component at
    # its least point; the filter asks only that every preimage be open
    spaces = unary_spaces() if k == 1 else kary_spaces(arities=(k,))
    space = data.draw(spaces.filter(lambda space: not space.topology.is_discrete()))
    assert ccomp(space) == product_filter(space)


def zigzag(m: int) -> FiniteTopology:
    """m points a_i with N(a_i) = {a_i, b_i}, then m points b_i with
    N(b_i) = {b_i}, then one point c with N(c) = {c} and every b_i: one
    component, in which each a_i reaches the points before it only through
    the later b_i and c."""
    return FiniteTopology(2 * m + 1, tuple(
        [1 << i | 1 << (m + i) for i in range(m)] + [1 << (m + i) for i in range(m)]
        + [1 << (2 * m) | mask_of(range(m, 2 * m))]))


def test_ccomp_pins_a_component_at_its_least_point():
    # a_0 pins the whole component, so every later point tries one value.
    # Pinning only the points local constancy ties to each a_i would try all
    # 5^9 values of a_0..a_8 before the b_i pin c, past the default budget
    L, m = luk(4).algebra, 9
    n = 2 * m + 1
    space = UnaryConstrainedSpace(zigzag(m), L, [range(L.size)] * n, range(n))
    assert ccomp(space) == [(v,) * n for v in range(L.size)]
    assert least_budget(lambda b: ccomp(space, budget=b)) == ascending_budget(space) == L.size * n
    small = UnaryConstrainedSpace(zigzag(2), L, [range(L.size)] * 5, range(5))
    assert ccomp(small) == product_filter(small)


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
    except (AssertionError, InvalidInput) as exc:
        return (type(exc).__name__, str(exc))


def meets_the_lemma(space) -> bool:
    """The convexity lemma's hypotheses: a closed, subdirect family."""
    try:
        return two_loop_validate_constrained(space).subdirect
    except InvalidInput:
        return False


def same_verdicts(space, m):
    """The verdict of the oracle; where it raised the lemma violation, the
    family fails a hypothesis of the lemma and InvalidInput names it."""
    expected = verdict(old_local_to_global_verify, space, m)
    got = verdict(local_to_global_verify, space, m)
    if isinstance(expected, tuple):
        assert expected[0] == "AssertionError"
        assert not meets_the_lemma(space)
        assert got[0] == "InvalidInput"
        assert "subdirect" in got[1] or "not a subuniverse" in got[1]
    else:
        assert got == expected
    return expected


@settings(max_examples=100, deadline=None)
@given(space=kary_spaces(max_points=3))
def test_local_to_global_verify_matches(space):
    m = near_unanimity(space.dualizer, space.k + 1)
    assert m is not None
    same_verdicts(space, m)


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
        expected = same_verdicts(space, m)
        outcomes.add(expected[0] if isinstance(expected, tuple) else expected.lep)
    gap = ConstrainedSpace(2, topology_from_subbasis(2, []), L2,
                           {frozenset((0, 1)): {(0, 0), (0, 2), (1, 1)}})
    assert same_verdicts(gap, m)[0] == "AssertionError"
    assert outcomes == {True, False}


def test_local_to_global_verify_names_the_failed_hypothesis():
    # over luk(2) the pair set {0, 1}^2 is a subuniverse, but its
    # projections miss 1/2 in the full fibers: not subdirect
    m = near_unanimity(L2, 3)
    family = {frozenset((0, 1)): set(itertools.product((0, 2), repeat=2)),
              frozenset((0,)): {(0,), (1,), (2,)}, frozenset((1,)): {(0,), (1,), (2,)}}
    space = ConstrainedSpace(2, discrete_topology(2), L2, family)
    with pytest.raises(InvalidInput, match="not subdirect: the convexity lemma"):
        local_to_global_verify(space, m)
    assert not validate_constrained(space).subdirect
    unary = UnaryConstrainedSpace(discrete_topology(2), L2, [range(3)] * 2, range(2))
    with pytest.raises(InvalidInput, match="needs a k-ary constrained space"):
        local_to_global_verify(unary, m)


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
                    for n_arity in range(0, 4):
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


# --- Scott continuity on closed families ----------------------------------------------

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
    scott = two_pass_family_is_continuous(space)
    assert scott == _family_is_continuous(space)
    report = validate_constrained(space)
    assert report.scott_continuous == report.continuous == scott


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.sampled_from((2, 3)))
def test_scott_continuity_on_cons_of_random_lspaces(seed, k):
    import random
    for L in (DL, L2):
        space = cons(sample_lspace(L, random.Random(seed)), k)
        assert two_pass_family_is_continuous(space)
        assert validate_constrained(space).scott_continuous



# --- oracles: the per-call re-indexing and the binary presentation ------------------
#
# ``validate_constrained`` with its second, pairwise subdirectness loop and
# ``_family_is_continuous`` as it was, in two passes, ``is_constrained_map``
# pulling constraints back one tuple at a time, ``priestley_to_order``
# reading the forbidden pair (1, 0), and ``unary_to_binary`` building its
# family pair by pair.

def table_from_constraints(space, T, j) -> dict:
    """The extension masks of T and j read off ``constraint()``: values of
    a function on the sorted tuple T -> mask of the values at j that
    A_{T+{j}} allows with them."""
    S = tuple(sorted(T + (j,)))
    at = S.index(j)
    table = {}
    for f in space.constraint(S):
        key = f[:at] + f[at + 1:]
        table[key] = table.get(key, 0) | 1 << f[at]
    return table


def two_loop_validate_constrained(space: ConstrainedSpace) -> ConstrainedReport:
    """Exact flags for subdirectness, continuity, separation, Scott continuity."""
    L, n, k = space.dualizer, space.n, space.k
    m = min(k, n)
    subdirect = True
    for key, funs in space.constraints.items():
        if unclosed_operation(L, len(key), funs) is not None:
            raise InvalidInput("constraint for %r is not a subuniverse" % sorted(key))
    stored_m = [key for key in space.constraints if len(key) == m]
    for key in stored_m:
        I_sorted = tuple(sorted(key))
        for size in range(m):
            for J in itertools.combinations(I_sorted, size):
                projected = frozenset(restrict_local(f, I_sorted, J) for f in space.constraints[key])
                if projected != space.constraint(J):
                    subdirect = False
    for k1, k2 in itertools.combinations(stored_m, 2):
        common = k1 & k2
        for size in range(len(common) + 1):
            for J in itertools.combinations(sorted(common), size):
                p1 = frozenset(restrict_local(f, tuple(sorted(k1)), J) for f in space.constraints[k1])
                p2 = frozenset(restrict_local(f, tuple(sorted(k2)), J) for f in space.constraints[k2])
                if p1 != p2:
                    subdirect = False

    continuous = two_pass_family_is_continuous(space)

    separated = True
    for x in range(n):
        for y in range(x + 1, n):
            pairs = space.constraint_tuple((x, y))
            if not any(a != b for a, b in pairs):
                separated = False
    return ConstrainedReport(subdirect, continuous, separated, continuous)


def two_pass_family_is_continuous(space: ConstrainedSpace) -> bool:
    top, k, n = space.topology, space.k, space.n
    for key, funs in space.constraints.items():
        order = tuple(sorted(key))
        for f in funs:
            if not top.is_locally_constant(order, f):
                return False
    # Each X_a = { xbar : abar in A_xbar } must be open in the product
    # topology: A_xbar lies in A_ybar for every ybar in N(x1) x ... x N(xk).
    nbhd = [bits_of(top.min_nbhd(x)) for x in range(n)]
    for xbar in itertools.product(range(n), repeat=k):
        here = space.constraint_tuple(xbar)
        for ybar in itertools.product(*(nbhd[x] for x in xbar)):
            if not here <= space.constraint_tuple(ybar):
                return False
    return True


def pull_back_is_constrained_map(values, X, Y, check_continuity: bool = True) -> bool:
    """Constraint reflection (plus continuity, plus the unary equivalence)."""
    values = tuple(values)
    if len(values) != X.n or any(not 0 <= v < Y.n for v in values):
        raise InvalidInput("point map does not match the spaces")
    if check_continuity and not X.topology.is_continuous_map(Y.topology, values):
        return False
    if isinstance(X, UnaryConstrainedSpace) != isinstance(Y, UnaryConstrainedSpace):
        raise InvalidInput("spaces must be of the same kind")
    if isinstance(X, UnaryConstrainedSpace):
        if Y.a_empty and not X.a_empty:
            return False
        for x in range(X.n):
            if not Y.fibers[values[x]] <= X.fibers[x]:
                return False
        for x in range(X.n):
            for y in range(X.n):
                if X.related(x, y) and not Y.related(values[x], values[y]):
                    return False
        return True
    if X.k != Y.k:
        raise InvalidInput("spaces must share the constraint arity")
    for size in range(min(X.k, X.n) + 1):
        for I in itertools.combinations(range(X.n), size):
            image_sorted = tuple(sorted({values[p] for p in I}))
            for g in Y.constraint(image_sorted):
                pulled = tuple(g[image_sorted.index(values[p])] for p in I)
                if pulled not in X.constraint(I):
                    return False
    return True


DL_LEQ_FORBIDDEN = (1, 0)      # x <= y  iff  (1,0) is not a constraint pair


def forbidden_pair_priestley_to_order(space: ConstrainedSpace):
    """Extract x <= y  iff  (1,0) not in A_{x,y} from a binary 2_DL space."""
    if space.dualizer.size != 2:
        raise InvalidInput("the Priestley bridge needs the two-element lattice")
    n = space.n
    leq = [[False] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            leq[x][y] = DL_LEQ_FORBIDDEN not in space.constraint_tuple((x, y))
    return leq


def reflexive_relations(max_points=4):
    """Every reflexive relation on up to max_points points, as a matrix."""
    for n in range(max_points + 1):
        off = [(x, y) for x in range(n) for y in range(n) if x != y]
        for chosen in itertools.product((False, True), repeat=len(off)):
            leq = [[x == y for y in range(n)] for x in range(n)]
            for (x, y), on in zip(off, chosen):
                leq[x][y] = on
            yield leq


def reflexive_relation_spaces(max_points=4):
    """The Priestley space of every reflexive relation over dl2 on up to
    max_points points (discrete, so every relation is closed)."""
    for leq in reflexive_relations(max_points):
        yield priestley_from_order(discrete_topology(len(leq)), leq, DL)


def same_projections(space):
    """Validation and the order reading against their oracles; returns the
    validation outcome."""
    report = _outcome(validate_constrained, space)
    assert report == _outcome(two_loop_validate_constrained, space)
    assert (_outcome(priestley_to_order, space)
            == _outcome(forbidden_pair_priestley_to_order, space))
    return report


def same_maps(X, Y, values):
    """is_constrained_map against the pull-back, with and without the
    continuity test."""
    for check in (True, False):
        assert (_outcome(is_constrained_map, values, X, Y, check)
                == _outcome(pull_back_is_constrained_map, values, X, Y, check))


@settings(max_examples=200, deadline=None)
@given(space=st.one_of(kary_spaces(), unary_spaces().map(unary_to_binary)))
def test_validation_and_order_reading_match_their_oracles(space):
    same_projections(space)


@settings(max_examples=300, deadline=None)
@given(space=st.one_of(kary_spaces(), closed_kary_spaces(),
                       unary_spaces().map(unary_to_binary)))
def test_continuity_steps_match_the_two_pass_test(space):
    assert _family_is_continuous(space) == two_pass_family_is_continuous(space)


def constants_family(top: FiniteTopology, k: int) -> ConstrainedSpace:
    """The k-ary family over dl2 whose every A_I holds the two constants."""
    return ConstrainedSpace(k, top, DL, {frozenset(I): {(0,) * k, (1,) * k}
                                         for I in itertools.combinations(range(top.n), k)})


def test_continuity_reads_each_tuple_and_each_step_once(monkeypatch):
    # the continuity pass reads A_xbar for every xbar whose first point has a
    # step, and A_ybar for each of its steps: n^(k-1) n (1 + (n - 1)) reads
    # on an indiscrete space, within the n^k (1 + k (n - 1)) of stepping every
    # coordinate, where the product of neighbourhoods took about n^2k;
    # separation reads each pair once more
    reads, read = [], ConstrainedSpace.constraint_tuple

    def counting(space, xs):
        reads.append(xs)
        return read(space, xs)

    monkeypatch.setattr(ConstrainedSpace, "constraint_tuple", counting)
    n, k = 12, 3
    report = validate_constrained(constants_family(indiscrete_topology(n), k))
    assert report.continuous and report.subdirect
    assert len(reads) - n * (n - 1) // 2 == n ** (k + 1) == 20_736
    reads.clear()
    report = validate_constrained(constants_family(discrete_topology(n), k))
    assert report.continuous and report.subdirect
    assert len(reads) == n * (n - 1) // 2


@st.composite
def space_pairs_with_a_map(draw):
    k = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        X, Y = (draw(kary_spaces(arities=(k,))) for _ in range(2))
    else:
        X, Y = (unary_to_binary(draw(unary_spaces())) for _ in range(2))
    if Y.n == 0:
        return X, Y, (0,) * X.n
    return X, Y, tuple(draw(st.integers(0, Y.n - 1)) for _ in range(X.n))


@settings(max_examples=300, deadline=None)
@given(pair=space_pairs_with_a_map())
def test_is_constrained_map_matches_the_pull_back(pair):
    X, Y, values = pair
    same_maps(X, Y, values)
    same_maps(X, X, tuple(range(X.n)))


def test_projections_on_every_reflexive_relation_over_dl2(monkeypatch):
    # the subuniverse test is the same code on both sides, and these spaces
    # hold six distinct constraint sets, so it is answered once per set
    answers, check = {}, unclosed_operation

    def closure_check(L, arity, funs):
        key = (id(L), arity, frozenset(funs))
        if key not in answers:
            answers[key] = check(L, arity, funs)
        return answers[key]

    monkeypatch.setattr("dualkit.constrained.unclosed_operation", closure_check)
    monkeypatch.setitem(globals(), "unclosed_operation", closure_check)
    spaces = list(reflexive_relation_spaces())
    assert len(spaces) == 4166
    separated = set()
    for space in spaces:
        separated.add(same_projections(space).separated)
        n = space.n
        # every map for up to 3 points; on 4, the identity and a cycle
        maps = itertools.product(range(n), repeat=n) if n <= 3 else [(0, 1, 2, 3), (1, 2, 3, 0)]
        for values in maps:
            same_maps(space, space, tuple(values))
    assert separated == {True, False}
    # maps between spaces of different sizes: into the two-chain and out of it
    chain = priestley_from_order(discrete_topology(2), [[True, True], [False, True]], DL)
    for space in spaces[:70]:
        for values in itertools.product(range(2), repeat=space.n):
            same_maps(space, chain, values)
        for values in itertools.product(range(space.n), repeat=2):
            same_maps(chain, space, values)


def budget_outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceeded as exc:
        return ("BudgetExceeded", str(exc))


def family_unary_to_binary(space: UnaryConstrainedSpace) -> ConstrainedSpace:
    """A_{x,y} := A_x x A_y off the equivalence, the diagonal of A_x on it."""
    n = space.n
    family: dict = {frozenset(): {()} if space.a_empty else set()}
    for x in range(n):
        family[frozenset((x,))] = {(a,) for a in space.fibers[x]}
    for x, y in itertools.combinations(range(n), 2):
        if space.related(x, y):
            funs = {(a, a) for a in space.fibers[x]}
        else:
            funs = set(itertools.product(sorted(space.fibers[x]), sorted(space.fibers[y])))
        family[frozenset((x, y))] = funs
    return ConstrainedSpace(2, space.topology, space.dualizer, family)


def row_fields(row: int, n: int, size: int) -> list[int]:
    """The value masks of a packed row, one field of |L| + 1 bits per point."""
    return [row >> q * (size + 1) & (1 << size) - 1 for q in range(n)]


@st.composite
def packed_rows(draw):
    """(|L|, n, the value masks of a packed row, its points T): every field
    on T is full, and empty fields are common elsewhere."""
    size = draw(st.sampled_from([1, 2, 3, 5, 41]))
    n = draw(st.integers(0, 20))
    full = (1 << size) - 1
    T = draw(st.sets(st.integers(0, n - 1))) if n else set()
    fields = [full if q in T else draw(st.one_of(st.just(0), st.integers(0, full)))
              for q in range(n)]
    return size, n, fields, T


def pack(fields, size) -> int:
    return sum(f << q * (size + 1) for q, f in enumerate(fields))


@settings(max_examples=300, deadline=None)
@given(case=packed_rows(), data=st.data())
def test_packed_row_primitives_match_a_loop_over_fields(case, data):
    # the field read, the dead-end test, the first empty field, the pin and
    # the narrowing step against the same operations on a list of masks
    size, n, fields, T = case
    w, full, add, guard = constrained._layout(n, size)
    row = pack(fields, size)
    assert row_fields(row, n, size) == fields
    assert ((row + add) & guard != guard) == (0 in fields)
    if 0 in fields:
        assert constrained._first_empty(row, w, add, guard) == fields.index(0)
    v = data.draw(st.integers(0, size - 1))
    points = data.draw(st.integers(0, (1 << n) - 1))
    (keep, one), = constrained._pins([points], n, size)
    pinned = [f & 1 << v if points >> q & 1 else f for q, f in enumerate(fields)]
    assert row_fields(row & (keep | one << v), n, size) == pinned
    # one own table and one held table, each read at its code for v; the
    # tables' fields on T are full, as a built table's are
    own_fields, held_fields = (
        [full if q in T else data.draw(st.integers(0, full)) for q in range(n)]
        for _ in range(2))
    base = data.draw(st.integers(0, 3)) * size
    own, held = {v: pack(own_fields, size)}, [({base + v: pack(held_fields, size)}, base)]
    narrowed = constrained._narrow(row, own, held, (keep, one), v)
    expected = [a & b & c for a, b, c in zip(fields, own_fields, held_fields)]
    expected = [f & 1 << v if points >> q & 1 else f for q, f in enumerate(expected)]
    assert row_fields(narrowed, n, size) == expected
    assert all(expected[q] == fields[q] for q in T if not points >> q & 1)


@settings(max_examples=200, deadline=None)
@given(space=unary_spaces())
def test_possible_extensions_read_the_binary_presentation(space):
    # on a unary space M_{f,y} is the set of unary_to_binary(space), for f
    # on no point or on one point, at any values of L
    binary, n, size = unary_to_binary(space), space.n, space.dualizer.size
    for I in itertools.chain([()], ((x,) for x in range(n))):
        for f in itertools.product(range(size), repeat=len(I)):
            for y in range(n):
                if y not in I:
                    assert (possible_extensions(space, I, f, y)
                            == possible_extensions(binary, I, f, y))


@settings(max_examples=200, deadline=None)
@given(space=unary_spaces())
def test_unary_search_reads_the_binary_presentation(space):
    # unary_to_binary stores what the loop over pairs stored, and the search
    # reads a unary space through A_I and rows computed from its fibers; on
    # every value of L they agree with the rows of unary_to_binary, and both
    # with the tuple-keyed tables read off its constraints (a row's field on
    # T holds all of L)
    binary, presented = unary_to_binary(space), _kary(space)
    assert binary.constraints == family_unary_to_binary(space).constraints
    n, size = space.n, space.dualizer.size
    for I in subsets(n):
        if len(I) <= 2:
            assert presented.constraint(I) == binary.constraint(I)
    assert (row_fields(_table(presented, ())[0], n, size)
            == row_fields(_table(binary, ())[0], n, size)
            == [table_from_constraints(binary, (), j).get((), 0) for j in range(n)])
    for q in range(n):
        for a in range(size):
            expected = [(1 << size) - 1 if j == q
                        else table_from_constraints(binary, (q,), j).get((a,), 0)
                        for j in range(n)]
            assert (row_fields(_table(presented, (q,))[a], n, size)
                    == row_fields(_table(binary, (q,))[a], n, size) == expected)


def test_unary_spaces_charge_the_ascending_budget_on_wide_fibers():
    # four points whose fibers shrink along the order, under three
    # equivalences that the binary presentation prunes by its diagonals; the
    # ascending search tries the wide fibers first
    fibers = [{0, 1, 2}, {0, 2}, {0, 1, 2}, {2}]
    for equiv, units in (([0, 0, 0, 0], 6), ([0, 1, 0, 1], 15), ([0, 1, 2, 3], 45)):
        space = UnaryConstrainedSpace(discrete_topology(4), L2, fibers, equiv)
        functions = product_filter(space)
        assert ascending_budget(space) == units
        for budget in range(0, 50):
            expected = functions if budget >= units else (
                "BudgetExceeded", "ccomp search exceeds budget")
            assert budget_outcome(ccomp, space, budget) == expected


# --- the store and the searches against their definitions ----------------------------

def priestley_family(leq) -> dict:
    """The family ``priestley_from_order`` builds for a relation, pair by pair."""
    n = len(leq)
    family: dict = {frozenset(): {()}}
    for x in range(n):
        family[frozenset((x,))] = {(0,), (1,)}
    for x, y in itertools.combinations(range(n), 2):
        funs = {(0, 0), (1, 1)}
        if not leq[y][x]:
            funs.add((0, 1))
        if not leq[x][y]:
            funs.add((1, 0))
        family[frozenset((x, y))] = funs
    return family


def projected_constraint(k, n, family, J) -> frozenset:
    """A_J read off the family a k-ary space on n points was given: the
    given set, on no points the empty function, else the projection on J of
    the set given on J and the first points outside it, m = min(k, n) in all."""
    given = {tuple(sorted(key)): {tuple(f) for f in funs} for key, funs in family.items()}
    m = min(k, n)
    if J in given:
        return frozenset(given[J])
    if len(J) == m:                 # no points, and a constant in L
        return frozenset({()})
    rest = [p for p in range(n) if p not in J]
    S = tuple(sorted(J + tuple(rest[:m - len(J)])))
    return frozenset(tuple(f[S.index(p)] for p in J) for f in given[S])


def first_unextended(space):
    """``has_global_extension`` by its definition: the functions of
    ``product_filter``, and the first member of a stored A_I, keys by size and
    then lexicographically, that none of them restricts to.  A unary space
    asks that the empty function, when compatible, extend, that every fiber
    value be taken, and that every two unrelated points be told apart."""
    functions, n = product_filter(space), space.n
    if isinstance(space, UnaryConstrainedSpace):
        if space.a_empty and not functions:
            return False, ((), ()), functions
        for x in range(n):
            for a in sorted(space.fibers[x]):
                if all(f[x] != a for f in functions):
                    return False, ((x,), (a,)), functions
        for x, y in itertools.product(range(n), repeat=2):
            if not space.related(x, y) and all(f[x] == f[y] for f in functions):
                return False, ((x, y), None), functions
        return True, None, functions
    for I in sorted((tuple(sorted(key)) for key in space.constraints), key=lambda I: (len(I), I)):
        restrictions = {tuple(f[p] for p in I) for f in functions}
        for g in sorted(space.constraint(I)):
            if g not in restrictions:
                return False, (I, g), functions
    return True, None, functions


def finishes(run, budget) -> bool:
    try:
        run(budget)
    except BudgetExceeded:
        return False
    return True


def least_budget(run) -> int:
    """The fewest budget units under which run(budget) finishes."""
    high = 1
    while not finishes(run, high):
        high *= 2
    low = high // 2 - 1 if high > 1 else -1
    while high - low > 1:
        mid = (low + high) // 2
        if finishes(run, mid):
            high = mid
        else:
            low = mid
    return high


def ascending_budget(space) -> int:
    """The budget ``ccomp`` charges, counted on tuples: the values tried at
    the next point, summed over the prefixes the search extends.

    A function h on the points below j is live when every later point q
    keeps a value b of its fiber with (h on T, b) in A_{T+{q}} for every T
    of 1 to k-1 points below j, and with b = h(p) for every p below j in
    q's topological component (the classes of the equivalence generated by
    q in N(p)).  The values tried at
    j are those that j keeps.  The search extends the empty function when
    it is compatible, and every live function it reaches.  A unary space is
    read through the pair family of ``family_unary_to_binary``."""
    if isinstance(space, UnaryConstrainedSpace):
        space = family_unary_to_binary(space)
    k, n, nbhds = space.k, space.n, space.topology.nbhds
    if () not in space.constraint(()):
        return 0
    component = [{q for q in range(n) if nbhds[p] >> q & 1 or nbhds[q] >> p & 1}
                 for p in range(n)]
    for r in range(n):
        for linked in component:
            if r in linked:
                linked |= component[r]

    def kept(h, q):
        below = range(len(h))
        sets = [T for size in range(1, k) for T in itertools.combinations(below, size)]
        return [b for b in sorted(f[0] for f in space.constraint((q,)))
                if all(tuple(h[p] for p in T) + (b,) in space.constraint(T + (q,))
                       for T in sets)
                and all(b == h[p] for p in below if p in component[q])]

    def tried(h):
        if len(h) == n:
            return 0
        values = kept(h, len(h))
        return len(values) + sum(tried(h + (v,)) for v in values
                                 if all(kept(h + (v,), q) for q in range(len(h) + 1, n)))

    return tried(())


def local_extension_budget(space, n_arity, witness) -> int:
    """The budget ``has_local_extension`` charges, counted on the product
    filter: each compatible local function on I, for I by size and then
    lexicographically, and its n - |I| extension tests, up to the first
    function that some point does not extend, the ``witness`` of
    ``old_has_local_extension`` (None when every one extends)."""
    n, work = space.n, 0
    for I in subsets(n):
        if len(I) > n_arity:
            break
        funs = old_compatible_local_functions(space, I)
        if witness and witness[0] == I:
            return work + len(funs) + (funs.index(witness[2]) + 1) * (n - len(I))
        work += len(funs) * (1 + n - len(I))
    return work


def same_store(space, family):
    """The coded store holds what ``projected_constraint`` reads off the
    family given: the stored keys, larger first, then lexicographically,
    every A_J, and A_xbar at tuples with repeats."""
    k, n = space.k, space.n
    m = min(k, n)
    stored = sorted((I for size in {0, min(m, 1), m} for I in itertools.combinations(range(n), size)),
                    key=lambda I: (-len(I), I))
    assert list(space.constraints) == [frozenset(I) for I in stored]
    for J in subsets(n):
        if len(J) <= k:
            assert space.constraint(J) == projected_constraint(k, n, family, J)
    for xs in itertools.product(range(n), repeat=min(k, 2)):
        J = tuple(sorted(set(xs)))
        assert space.constraint_tuple(xs) == {
            tuple(f[J.index(x)] for x in xs) for f in projected_constraint(k, n, family, J)}


def same_searches(space):
    """The searches on the coded store (or a unary space) against their
    oracles: results, witnesses, function lists and budget counts."""
    n = space.n
    assert ccomp(space) == product_filter(space)
    assert has_global_extension(space) == first_unextended(space)
    verdicts = [old_has_local_extension(space, n_arity) for n_arity in range(0, n + 2)]
    for n_arity, verdict in enumerate(verdicts):
        assert has_local_extension(space, n_arity) == verdict
    for I in subsets(n):
        assert compatible_local_functions(space, I) == old_compatible_local_functions(space, I)
    assert least_budget(lambda b: ccomp(space, budget=b)) == ascending_budget(space)
    for n_arity in range(n + 1):
        assert (least_budget(lambda b: has_local_extension(space, n_arity, budget=b))
                == local_extension_budget(space, n_arity, verdicts[n_arity][1]))


@settings(max_examples=150, deadline=None)
@given(family=kary_families())
def test_the_coded_store_matches_its_oracles(family):
    space = ConstrainedSpace(*family)
    same_store(space, family[3])
    same_searches(space)


@settings(max_examples=150, deadline=None)
@given(space=unary_spaces())
def test_unary_searches_match_the_tuple_store(space):
    # the searches read a unary space through its binary presentation; the
    # results the tuple-keyed store gave are those of the oracles
    same_searches(space)


@settings(max_examples=200, deadline=None)
@given(space=unary_spaces())
def test_unary_search_counts_the_budget_of_the_unary_branch(space):
    # the functions the unary branch found are those of the product filter;
    # the budget is the count of the ascending search over the binary
    # presentation, on tuples
    assert ccomp(space) == product_filter(space)
    assert least_budget(lambda b: ccomp(space, budget=b)) == ascending_budget(space)
    # has_local_extension charges each compatible local function on I and
    # its n - |I| extension tests; with LEP(n) every one is charged
    n = space.n
    for n_arity in range(n + 1):
        if not has_local_extension(space, n_arity)[0]:
            continue
        work = sum(len(old_compatible_local_functions(space, I)) * (1 + n - len(I))
                   for I in subsets(n) if len(I) <= n_arity)
        assert has_local_extension(space, n_arity, budget=work)[0]
        if work:
            with pytest.raises(BudgetExceeded):
                has_local_extension(space, n_arity, budget=work - 1)


def test_the_coded_store_rejects_what_the_tuple_store_rejected():
    # each malformed family with the message the tuple-keyed store gave it
    top2, top3, top4 = (discrete_topology(n) for n in (2, 3, 4))
    pair = {frozenset((0, 1)): {(0, 1)}}
    rejected = [
        ((1, top2, DL, pair), "k-ary constrained spaces require k >= 2; use the unary form"),
        ((2, top2, DL, {frozenset((0, 2)): {(0, 1)}}), "constraint key outside the point set"),
        ((2, top2, DL, {**pair, frozenset(("a",)): {(0,)}}), "constraint key outside the point set"),
        ((2, top3, DL, {frozenset((0, 1, 2)): {(0, 0, 0)}}), "constraint key larger than k"),
        ((3, top4, DL, {frozenset((0, 1)): {(0, 0)}}),
         "constraint key [0, 1] has 2 points; stored keys have 3 or at most one"),
        ((2, top3, DL, pair), "missing constraint for [0, 2]"),
        ((2, top2, DL, {frozenset((0, 1)): {(0, 1, 1)}}), "local function of wrong length for (0, 1)"),
        ((2, top2, DL, {frozenset((0, 1)): {(0, 2)}}), "local function value outside the carrier"),
        ((2, top2, DL, {frozenset((0, 1)): {(0, -1)}}), "local function value outside the carrier"),
        ((2, topology_from_subbasis(0, []), BARE_DL, {}), "missing constraint for []"),
    ]
    for case, message in rejected:
        assert _outcome(ConstrainedSpace, *case) == ("InvalidInput", message)
    accepted = [
        (2, top2, DL, {frozenset((0,)): {(0,)}, frozenset((0, 1)): [(0, 1), (1, 1)]}),
        (2, topology_from_subbasis(0, []), DL, {}),
        (2, top2, BARE_DL, {**pair, frozenset(): set()}),
    ]
    for case in accepted:
        same_store(ConstrainedSpace(*case), case[3])


def test_searches_match_their_oracles_on_every_reflexive_relation_over_dl2():
    # results, witnesses and function lists on all 4,166 relations; the
    # budget counts, by bisection, on every seventh
    for count, leq in enumerate(reflexive_relations()):
        space = priestley_from_order(discrete_topology(len(leq)), leq, DL)
        assert space.constraints == priestley_family(leq)
        verdict = old_has_local_extension(space, 2)
        assert has_local_extension(space, 2) == verdict
        assert has_global_extension(space) == first_unextended(space)
        if count % 7 == 0:
            assert least_budget(lambda b: ccomp(space, budget=b)) == ascending_budget(space)
            assert (least_budget(lambda b: has_local_extension(space, 2, budget=b))
                    == local_extension_budget(space, 2, verdict[1]))
    assert count + 1 == 4166


def test_the_store_stays_sparse_over_a_thousand_elements():
    # k = 3 over a constant-free carrier of 1000 elements, a handful of
    # triples per key: a store or a table dense in |L|^|I| would hold 10^6
    # entries per pair and 10^9 per triple
    big = FiniteAlgebra(Signature((("s", 1),)), 1000, {"s": tuple(range(1000))})
    n = 6
    globals_ = [tuple((37 * i + 101 * x) % 1000 for x in range(n)) for i in range(4)]
    family = {frozenset(I): {tuple(f[p] for p in I) for f in globals_}
              for I in itertools.combinations(range(n), 3)}
    family[frozenset((2, 4, 5))].add((1, 2, 3))
    tracemalloc.start()
    try:
        space = ConstrainedSpace(3, discrete_topology(n), big, family)
        functions = ccomp(space)
        lep = has_local_extension(space, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert functions == sorted(globals_)
    # (1, 2, 3) on {2, 4, 5} projects onto no pair the globals take there, so
    # the compatible local functions are the globals' restrictions, and
    # each extends by every point
    assert compatible_local_functions(space, (2, 4, 5)) == sorted(
        (f[2], f[4], f[5]) for f in globals_)
    assert lep == (True, None)
    assert peak < 2 * 2**20


def test_local_extension_stops_building_a_level_at_the_budget(monkeypatch):
    # five points over a constant-free carrier of 300 elements, every fiber
    # full: the first pair of points has 90,000 local functions, each with a
    # row of five masks; the budget is spent on the points alone, so the
    # search must stop a few thousand functions into that pair
    big = FiniteAlgebra(Signature((("s", 1),)), 300, {"s": tuple(range(300))})
    space = UnaryConstrainedSpace(discrete_topology(5), big, [range(300)] * 5, range(5))
    built, extend_all = [], constrained._extend_all

    def counting(*args):
        funs, rows = extend_all(*args)
        built.append(len(funs))
        return funs, rows

    monkeypatch.setattr(constrained, "_extend_all", counting)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="local extension search exceeds budget"):
            has_local_extension(space, 2, budget=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    # the empty function and the 1,500 functions on one point take 7,506
    # units, so 2,491 functions on the first pair would still fit; the
    # extensions of one function on a point (300) may overshoot that
    assert built[:5] == [300] * 5 and len(built) == 6
    assert 2_491 < built[5] <= 2_491 + 300
    work = 1 * (1 + 5) + 5 * 300 * (1 + 4)
    assert has_local_extension(space, 1, budget=work) == (True, None)
    assert not finishes(lambda b: has_local_extension(space, 1, budget=b), work - 1)
