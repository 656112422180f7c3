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

A second set of oracles covers the code that one re-indexing helper and the
binary presentation of unary spaces replaced: ``ccomp`` with its unary
branch (its budget count included), ``validate_constrained`` with its
pairwise subdirectness loop, ``is_constrained_map`` pulling constraints back
one tuple at a time, ``priestley_to_order`` reading the forbidden pair
(1, 0), and ``unary_to_binary`` building its family pair by pair; they run
on the random spaces and on every reflexive relation over dl2 on up to four
points.  The tables a unary search reads off the fibers are compared with
those of ``unary_to_binary`` on every value of L.
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
from dualkit.corpus import sample_lspace
from dualkit.terms import _convex_within, check_near_unanimity, search_nu_function
from dualkit.topology import bits_of, discrete_topology, mask_of, topology_from_subbasis

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



# --- oracles: the unary search branch and the per-call re-indexing ---------------------
#
# ``ccomp`` as it was with its unary branch (and the two helpers that branched
# with it), ``validate_constrained`` with its second, pairwise subdirectness
# loop, ``is_constrained_map`` pulling constraints back one tuple at a time,
# ``priestley_to_order`` reading the forbidden pair (1, 0), and
# ``unary_to_binary`` building its family pair by pair.

def unary_branch_fiber_mask(space, x: int) -> int:
    if isinstance(space, UnaryConstrainedSpace):
        return mask_of(space.fibers[x])
    return _table(space, (), x).get((), 0)


def unary_branch_empty_compatible(space) -> bool:
    """Whether the empty local function is compatible."""
    if isinstance(space, UnaryConstrainedSpace):
        return space.a_empty
    return () in space.constraint(())


def unary_branch_ccomp(space, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """The continuous compatible global functions, by forward checking."""
    top, n = space.topology, space.n
    if not unary_branch_empty_compatible(space):
        return []
    if n == 0:
        return [()]
    unary = isinstance(space, UnaryConstrainedSpace)
    start = [unary_branch_fiber_mask(space, x) for x in range(n)]
    order = sorted(range(n), key=lambda x: (start[x].bit_count(), x))
    components = top.components()
    values: list[int | None] = [None] * n
    out = []
    tried = 0

    def supports(idx, p):
        """(S, values on S) for every sorted S holding p and at most k-2
        points assigned before it."""
        found = []
        for size in range(min(space.k - 2, idx) + 1):
            for rest in itertools.combinations(order[:idx], size):
                S = tuple(sorted(rest + (p,)))
                found.append((S, tuple(values[s] for s in S)))
        return found

    def extend(idx, domains):
        nonlocal tried
        if idx == n:
            out.append(tuple(values))
            return
        p = order[idx]
        for v in bits_of(domains[p]):
            tried += 1
            if tried > budget:
                raise BudgetExceeded("ccomp search exceeds budget")
            values[p] = v
            held = () if unary else supports(idx, p)
            narrowed = list(domains)
            for q in order[idx + 1:]:
                mask = narrowed[q]
                if components[q] == components[p] or (unary and space.related(p, q)):
                    mask &= 1 << v
                for S, key in held:
                    mask &= _table(space, S, q).get(key, 0)
                if not mask:
                    break
                narrowed[q] = mask
            else:
                extend(idx + 1, narrowed)
        values[p] = None

    extend(0, start)
    return sorted(out)


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

    continuous = _family_is_continuous(space)

    separated = True
    for x in range(n):
        for y in range(x + 1, n):
            pairs = space.constraint_tuple((x, y))
            if not any(a != b for a, b in pairs):
                separated = False
    return ConstrainedReport(subdirect, continuous, separated, continuous)


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


def reflexive_relation_spaces(max_points=4):
    """The Priestley space of every reflexive relation over dl2 on up to
    max_points points (discrete, so every relation is closed)."""
    for n in range(max_points + 1):
        off = [(x, y) for x in range(n) for y in range(n) if x != y]
        for chosen in itertools.product((False, True), repeat=len(off)):
            leq = [[x == y for y in range(n)] for x in range(n)]
            for (x, y), on in zip(off, chosen):
                leq[x][y] = on
            yield priestley_from_order(discrete_topology(n), leq, DL)


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


@settings(max_examples=200, deadline=None)
@given(space=unary_spaces())
def test_unary_search_counts_the_budget_of_the_unary_branch(space):
    # the fewest units that let the old unary branch finish
    low, high = -1, 10**4
    while high - low > 1:
        mid = (low + high) // 2
        if isinstance(budget_outcome(unary_branch_ccomp, space, mid), list):
            high = mid
        else:
            low = mid
    assert ccomp(space, budget=high) == unary_branch_ccomp(space, budget=high)
    if high > 0:
        with pytest.raises(BudgetExceeded):
            ccomp(space, budget=high - 1)
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


@settings(max_examples=200, deadline=None)
@given(space=unary_spaces())
def test_unary_search_reads_the_binary_presentation(space):
    # unary_to_binary stores what the loop over pairs stored, and the search
    # reads a unary space through A_I and tables computed from its fibers; on
    # every value of L they agree with those of unary_to_binary
    binary, presented = unary_to_binary(space), _kary(space)
    assert binary.constraints == family_unary_to_binary(space).constraints
    n, size = space.n, space.dualizer.size
    for I in subsets(n):
        if len(I) <= 2:
            assert presented.constraint(I) == binary.constraint(I)
    for j in range(n):
        assert _table(presented, (), j).get((), 0) == _table(binary, (), j).get((), 0)
        for q in range(n):
            if q != j:
                assert ([_table(presented, (q,), j).get((a,), 0) for a in range(size)]
                        == [_table(binary, (q,), j).get((a,), 0) for a in range(size)])


def test_unary_spaces_keep_the_unary_branch_budget_on_wide_fibers():
    # four equivalent points whose fibers shrink along the order: the unary
    # branch prunes by the equivalence, the binary presentation by the
    # diagonals, and both try the same values
    fibers = [{0, 1, 2}, {0, 2}, {0, 1, 2}, {2}]
    for equiv in ([0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 2, 3]):
        space = UnaryConstrainedSpace(discrete_topology(4), L2, fibers, equiv)
        for budget in range(0, 40):
            assert (budget_outcome(ccomp, space, budget)
                    == budget_outcome(unary_branch_ccomp, space, budget))
