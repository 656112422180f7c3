import itertools

import pytest

from dualkit.algebras import BudgetExceeded, InvalidInput, generate_vectors, unclosed_operation
from dualkit.catalog import bool2, dl2, luk, posluk
from dualkit.constrained import (
    ConstrainedSpace,
    UnaryConstrainedSpace,
    binary_to_unary,
    ccomp,
    compatible_local_functions,
    cons,
    func,
    has_global_extension,
    has_local_extension,
    is_constrained_map,
    local_to_global_verify,
    mv_priestley_validate,
    possible_extensions,
    priestley_from_order,
    priestley_to_order,
    unary_to_binary,
    validate_constrained,
    validate_unary,
)
from dualkit.spaces import full_function_space, lspace
from dualkit.terms import App, Var, term_function
from dualkit.topology import discrete_topology, mask_of, topology_from_subbasis

DL = dl2().algebra
BA = bool2().algebra
L2 = luk(2).algebra
P2 = posluk(2).algebra

MEDIAN = App("join", (
    App("join", (App("meet", (Var(0), Var(1))), App("meet", (Var(1), Var(2))))),
    App("meet", (Var(2), Var(0)))))

LEFT = {(0, 0), (0, 1), (1, 1)}          # functions x -> y increasing
FULL2 = {(a, b) for a in range(2) for b in range(2)}
DIAG2 = {(0, 0), (1, 1)}


def pair_space(L, n, pair_map, k=2, top=None, singles=None):
    family = {frozenset(p): funs for p, funs in pair_map.items()}
    if singles:
        for x, fib in singles.items():
            family[frozenset((x,))] = {(a,) for a in fib}
    return ConstrainedSpace(k, top or discrete_topology(n), L, family)


def chain_order(n):
    return [[x <= y for y in range(n)] for x in range(n)]


# --- validation -------------------------------------------------------------------

def test_cons_of_a_space_is_structurally_valid():
    X = lspace(discrete_topology(2), DL, LEFT)
    space = cons(X, 2)
    report = validate_constrained(space)
    assert report.subdirect and report.continuous
    assert report.separated


def test_projection_mismatch_breaks_subdirectness():
    # an empty point constraint needs the constant-free reduct to even exist
    from dualkit.catalog import reduct
    bare = reduct(DL, ("meet", "join"))
    space = pair_space(bare, 2, {(0, 1): DIAG2}, singles={0: set(), 1: {0, 1}})
    space_family = dict(space.constraints)
    space_family[frozenset()] = frozenset({()})
    space = ConstrainedSpace(2, discrete_topology(2), bare, space_family)
    report = validate_constrained(space)
    assert not report.subdirect


def test_intermediate_constraint_keys_are_rejected():
    # a ternary family on four points stores its 3-sets and its points; a
    # pair key between the two would never be read, so it is refused
    cube = set(itertools.product(range(2), repeat=3))
    family = {frozenset(key): cube for key in itertools.combinations(range(4), 3)}
    family[frozenset((0, 1))] = DIAG2
    with pytest.raises(InvalidInput, match=r"constraint key \[0, 1\] has 2 points; "
                                           r"stored keys have 3 or at most one"):
        ConstrainedSpace(3, discrete_topology(4), DL, family)
    del family[frozenset((0, 1))]
    assert len(ccomp(ConstrainedSpace(3, discrete_topology(4), DL, family))) == 16


def test_a_short_local_function_is_rejected_by_name():
    # the store checks each function's length before it projects the
    # function onto the points of a smaller key
    with pytest.raises(InvalidInput, match=r"local function of wrong length for \(0, 1\)"):
        ConstrainedSpace(2, discrete_topology(2), DL, {frozenset((0, 1)): {(0,)}})


def test_non_antisymmetric_relation_is_not_separated():
    # x <= y and y <= x on distinct points: the pair constraint is a diagonal
    space = pair_space(DL, 2, {(0, 1): DIAG2})
    report = validate_constrained(space)
    assert not report.separated


def test_continuity_of_the_family_over_a_non_discrete_space():
    # on the two-point space with only {0} open, a diagonal pair constraint
    # is continuous (its local functions are constant), the full product is
    # not: (0,1) would need an open neighborhood inside X_(0,1)
    top = topology_from_subbasis(2, [mask_of([0])])
    diagonal = pair_space(DL, 2, {(0, 1): DIAG2}, top=top)
    report = validate_constrained(diagonal)
    assert report.continuous and report.scott_continuous
    full = pair_space(DL, 2, {(0, 1): FULL2}, top=top)
    report = validate_constrained(full)
    assert not report.continuous and not report.scott_continuous


# --- compatible global functions ----------------------------------------------------

def test_priestley_two_chain_has_three_monotone_functions():
    space = priestley_from_order(discrete_topology(2), chain_order(2), DL)
    assert ccomp(space) == [(0, 0), (0, 1), (1, 1)]


def test_full_constraints_admit_every_function():
    space = pair_space(L2, 2, {(0, 1): {(a, b) for a in range(3) for b in range(3)}})
    assert len(ccomp(space)) == 9


def test_unary_fibers_multiply():
    space = UnaryConstrainedSpace(discrete_topology(2), L2,
                                  [{0, 2}, {0, 1, 2}], [0, 1])
    assert len(ccomp(space)) == 6


def test_ccomp_respects_equivalence():
    space = UnaryConstrainedSpace(discrete_topology(2), L2,
                                  [{0, 1, 2}, {0, 1, 2}], [0, 0])
    assert ccomp(space) == [(0, 0), (1, 1), (2, 2)]


def test_ccomp_respects_topology():
    top = topology_from_subbasis(2, [mask_of([0])])
    space = UnaryConstrainedSpace(top, DL, [{0, 1}, {0, 1}], [0, 1])
    assert ccomp(space) == [(0, 0), (1, 1)]


def test_ccomp_budget_counts_values_tried():
    for n in range(1, 6):
        space = priestley_from_order(discrete_topology(n), chain_order(n), DL)
        # points are tried in order, and forward checking leaves each one
        # only the values that keep the prefix monotone: every monotone
        # prefix of length m >= 1 is one value tried, and there are m + 1
        work = sum(m + 1 for m in range(1, n + 1))
        assert len(ccomp(space, budget=work)) == n + 1
        with pytest.raises(BudgetExceeded, match="ccomp search exceeds budget"):
            ccomp(space, budget=work - 1)


def test_ccomp_budget_does_not_refuse_by_carrier_size():
    # 3**13 exceeds the default budget, but the search tries few values
    seeds = [(0,) * 11 + (0, 1), (0,) * 11 + (1, 0)]
    X = lspace(discrete_topology(13), L2, generate_vectors(L2, 13, seeds))
    assert len(X.functions) == 18
    assert ccomp(cons(X, 2)) == sorted(X.functions)


# --- cons --------------------------------------------------------------------------

def test_cons_of_monotone_functions_is_the_chain():
    X = lspace(discrete_topology(2), DL, LEFT)
    space = cons(X, 2)
    assert priestley_to_order(space) == chain_order(2)


def test_cons_of_full_power_gives_full_constraints():
    X = full_function_space(discrete_topology(2), L2)
    space = cons(X, 2)
    assert space.constraint((0, 1)) == frozenset(
        (a, b) for a in range(3) for b in range(3))


def test_cons_of_constants_gives_subdiagonals():
    X = lspace(discrete_topology(2), DL, [(0, 0), (1, 1)])
    space = cons(X, 2)
    assert space.constraint((0, 1)) == frozenset(DIAG2)


def test_cons_has_global_extension_by_construction():
    X = lspace(discrete_topology(3), DL, [(0, 0, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1),
                                          (0, 0, 0), (1, 1, 1)])
    space = cons(X, 2)
    ok, witness, _ = has_global_extension(space)
    assert ok, witness


# --- extension properties ------------------------------------------------------------

def test_two_chain_has_global_extension():
    space = priestley_from_order(discrete_topology(2), chain_order(2), DL)
    ok, witness, _ = has_global_extension(space)
    assert ok


def test_non_transitive_relation_fails_global_extension():
    leq = [[True, True, False],
           [False, True, True],
           [False, False, True]]      # x<=y, y<=z, x!<=z
    space = priestley_from_order(discrete_topology(3), leq, DL)
    ok, witness, _ = has_global_extension(space)
    assert not ok
    points, local = witness
    assert points == (0, 2) and local == (1, 0)


def test_non_transitive_relation_fails_local_extension_two():
    leq = [[True, True, False],
           [False, True, True],
           [False, False, True]]
    space = priestley_from_order(discrete_topology(3), leq, DL)
    ok, witness = has_local_extension(space, 2)
    assert not ok
    I, j, g = witness
    assert j not in I


def test_local_extension_down_monotone():
    space = priestley_from_order(discrete_topology(3), chain_order(3), DL)
    for n in (3, 2, 1, 0):
        ok, _ = has_local_extension(space, n)
        assert ok
    # monotone also through a failing instance: LEP(2) fails but LEP(1) holds
    broken = priestley_from_order(
        discrete_topology(3),
        [[True, True, False], [False, True, True], [False, False, True]], DL)
    assert not has_local_extension(broken, 2)[0]
    assert has_local_extension(broken, 1)[0]


def test_local_extension_zero_is_nonemptiness():
    space = pair_space(DL, 2, {(0, 1): LEFT})
    ok, _ = has_local_extension(space, 0)
    assert ok


def test_gep_implies_lep_k_and_small_spaces_converse():
    # exhaustive over reflexive relations on 3 points
    points = [(x, y) for x in range(3) for y in range(3) if x != y]
    for bits in itertools.product([False, True], repeat=len(points)):
        leq = [[x == y for y in range(3)] for x in range(3)]
        for (x, y), bit in zip(points, bits):
            leq[x][y] = leq[x][y] or bit
        space = priestley_from_order(discrete_topology(3), leq, DL)
        gep, _, _ = has_global_extension(space)
        lep2, _ = has_local_extension(space, 2)
        if gep:
            assert lep2
        if lep2:        # |X| = 2 + 1, so binary local extension is enough
            assert gep


def test_local_extension_budget_counts_functions_and_tests():
    space = priestley_from_order(discrete_topology(4), chain_order(4), DL)
    for bound in range(5):
        # each compatible function on I, then one test per point outside I
        work = sum(len(compatible_local_functions(space, I)) * (1 + 4 - len(I))
                   for size in range(min(bound, 4) + 1)
                   for I in itertools.combinations(range(4), size))
        assert has_local_extension(space, bound, budget=work) == (True, None)
        with pytest.raises(BudgetExceeded, match="local extension search exceeds budget"):
            has_local_extension(space, bound, budget=work - 1)


def test_local_extension_budget_is_not_spent_by_an_early_witness():
    leq = [[True, True, False],
           [False, True, True],
           [False, False, True]]
    space = priestley_from_order(discrete_topology(3), leq, DL)
    # 4 on the empty set, 18 on points, 6 on (0, 1), then 4 functions on
    # (0, 2) and one test for each of the first three: the search stops at 35
    # of the 42 units it would need to finish
    witness = ((0, 2), 1, (1, 0))
    assert has_local_extension(space, 2, budget=35) == (False, witness)
    with pytest.raises(BudgetExceeded):
        has_local_extension(space, 2, budget=34)


def test_possible_extensions_are_fiber_convex():
    space = priestley_from_order(discrete_topology(2), chain_order(2), DL)
    M = possible_extensions(space, (0,), (1,), 1)
    assert M == frozenset({1})


def test_local_function_helpers_reject_malformed_points():
    chain = priestley_from_order(discrete_topology(3), chain_order(3), DL)
    monotone = [tuple(int(x >= i) for x in range(4)) for i in range(5)]
    ternary = cons(lspace(discrete_topology(4), DL, monotone), 3)
    cases = [
        (compatible_local_functions, (chain, (0, 0)), "point 0 repeated"),
        (compatible_local_functions, (chain, (0, 9)), "point 9 outside the space"),
        (compatible_local_functions, (chain, (0.5,)), "point 0.5 outside the space"),
        (compatible_local_functions, (ternary, (3, 1, 0)),
         "points (3, 1, 0) are not in ascending order"),
        (possible_extensions, (chain, (0,), (5,), 1), "local function value 5 outside the carrier"),
        (possible_extensions, (chain, (0,), (1, 1), 1), "local function of wrong length for (0,)"),
        (possible_extensions, (chain, (0,), (1,), 7), "extension point 7 outside the space"),
        (possible_extensions, (chain, (0,), (1,), -1), "extension point -1 outside the space"),
        (possible_extensions, (ternary, (1, 1), (0, 0), 2), "point 1 repeated"),
        (possible_extensions, (ternary, (1, 4), (0, 0), 2), "point 4 outside the space"),
    ]
    for fn, args, message in cases:
        with pytest.raises(InvalidInput) as raised:
            fn(*args)
        assert str(raised.value) == message
    # the well-formed calls next to them
    assert compatible_local_functions(ternary, (0, 1, 3)) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert possible_extensions(chain, (0,), (1,), 2) == frozenset({1})
    assert possible_extensions(ternary, (3, 1), (1, 0), 2) == frozenset({0, 1})


def test_local_to_global_verdicts():
    median = term_function(DL, MEDIAN, 3)
    transitive = priestley_from_order(discrete_topology(3), chain_order(3), DL)
    verdict = local_to_global_verify(transitive, median)
    assert verdict.lep and verdict.gep and verdict.theorem_holds
    broken = priestley_from_order(
        discrete_topology(3),
        [[True, True, False], [False, True, True], [False, False, True]], DL)
    verdict = local_to_global_verify(broken, median)
    assert not verdict.lep
    assert verdict.theorem_holds


# --- unary <-> binary ------------------------------------------------------------------

def test_unary_binary_round_trip_over_luk2():
    space = UnaryConstrainedSpace(discrete_topology(3), L2,
                                  [{0, 2}, {0, 1, 2}, {0, 2}], [0, 1, 2])
    binary = unary_to_binary(space)
    back = binary_to_unary(binary)
    assert back.fibers == space.fibers
    assert back.equiv == space.equiv
    assert back.a_empty == space.a_empty


def test_binary_unary_round_trip_over_bool():
    family = {(0, 1): {(a, b) for a in range(2) for b in range(2)},
              (0, 2): DIAG2, (1, 2): {(a, b) for a in range(2) for b in range(2)}}
    space = pair_space(BA, 3, family)
    unary = binary_to_unary(space)
    again = unary_to_binary(unary)
    for key in again.constraints:
        assert again.constraints[key] == space.constraint(tuple(key))


def test_graded_pair_is_rejected_by_unary_translation():
    space = pair_space(DL, 2, {(0, 1): LEFT})
    with pytest.raises(InvalidInput):
        binary_to_unary(space)


def test_intransitive_diagonal_pattern_rejected():
    family = {(0, 1): DIAG2, (1, 2): DIAG2, (0, 2): FULL2}
    space = pair_space(BA, 3, family)
    with pytest.raises(InvalidInput):
        binary_to_unary(space)


def test_unary_with_identity_equivalence_gives_products():
    space = UnaryConstrainedSpace(discrete_topology(2), L2,
                                  [{0, 1, 2}, {0, 1, 2}], [0, 1])
    binary = unary_to_binary(space)
    assert binary.constraint((0, 1)) == frozenset(
        (a, b) for a in range(3) for b in range(3))


# --- constrained maps ---------------------------------------------------------------------

def test_identity_is_constrained_map():
    space = priestley_from_order(discrete_topology(2), chain_order(2), DL)
    assert is_constrained_map((0, 1), space, space)


def test_constrained_iff_monotone_on_small_posets():
    chains = priestley_from_order(discrete_topology(3), chain_order(3), DL)
    v = priestley_from_order(
        discrete_topology(3),
        [[True, False, True], [False, True, True], [False, False, True]], DL)
    for X, Y in [(chains, chains), (v, chains), (chains, v), (v, v)]:
        for values in itertools.product(range(3), repeat=3):
            lx, ly = priestley_to_order(X), priestley_to_order(Y)
            monotone = all(not lx[a][b] or ly[values[a]][values[b]]
                           for a in range(3) for b in range(3))
            assert is_constrained_map(values, X, Y) == monotone


def test_collapse_to_full_point_is_constrained():
    space = priestley_from_order(discrete_topology(2), chain_order(2), DL)
    point = pair_space(DL, 1, {}, singles={0: {0, 1}})
    assert is_constrained_map((0, 0), space, point)


def test_unary_constrained_map_is_constraint_decreasing():
    X = UnaryConstrainedSpace(discrete_topology(2), L2, [{0, 1, 2}, {0, 2}], [0, 1])
    Y = UnaryConstrainedSpace(discrete_topology(1), L2, [{0, 2}], [0])
    assert is_constrained_map((0, 0), X, Y)
    Z = UnaryConstrainedSpace(discrete_topology(1), L2, [{0, 1, 2}], [0])
    assert not is_constrained_map((0, 0), X, Z)   # fiber {0,1,2} !<= {0,2}


# --- the Priestley bridge ---------------------------------------------------------------------

def test_antichain_gives_full_constraints():
    space = priestley_from_order(discrete_topology(2),
                                 [[True, False], [False, True]], DL)
    assert space.constraint((0, 1)) == frozenset(FULL2)


def test_two_chain_gives_graded_constraint():
    space = priestley_from_order(discrete_topology(2), chain_order(2), DL)
    assert space.constraint((0, 1)) == frozenset(LEFT)


def test_bridge_round_trip():
    for bits in itertools.product([False, True], repeat=6):
        leq = [[x == y for y in range(3)] for x in range(3)]
        pairs = [(x, y) for x in range(3) for y in range(3) if x != y]
        for (x, y), bit in zip(pairs, bits):
            leq[x][y] = leq[x][y] or bit
        space = priestley_from_order(discrete_topology(3), leq, DL)
        assert priestley_to_order(space) == leq


def test_bridge_rejects_irreflexive_input():
    with pytest.raises(InvalidInput):
        priestley_from_order(discrete_topology(2),
                             [[False, False], [False, True]], DL)


def test_poset_gep_matches_transitivity_on_samples():
    transitive = priestley_from_order(discrete_topology(3), chain_order(3), DL)
    ok, _, _ = has_global_extension(transitive)
    assert ok


def test_compatible_functions_are_monotone_maps():
    space = priestley_from_order(discrete_topology(3), chain_order(3), DL)
    leq = priestley_to_order(space)
    monotone = [f for f in itertools.product(range(2), repeat=3)
                if all(not leq[x][y] or f[x] <= f[y]
                       for x in range(3) for y in range(3))]
    assert ccomp(space) == sorted(monotone)


# --- MV-Priestley -----------------------------------------------------------------------------

def mv_two_chain():
    graded = {(a, b) for a in range(3) for b in range(3) if a <= b}
    return pair_space(P2, 2, {(0, 1): graded})


def test_mv_two_chain_is_valid():
    report = mv_priestley_validate(mv_two_chain())
    assert report.valid, report
    assert report.local_extension_cases
    assert report.local_matches_generic


def test_subdiagonal_off_diagonal_is_rejected():
    space = pair_space(P2, 2, {(0, 1): {(a, a) for a in range(3)}})
    report = mv_priestley_validate(space)
    assert not report.subdiagonal_iff_equal
    assert not report.valid


def test_extracted_order_is_antisymmetric_on_separated_spaces():
    report = mv_priestley_validate(mv_two_chain())
    assert report.order_is_partial_order


def test_mv_three_chain_with_graded_pairs_is_valid():
    from dualkit.catalog import posluk
    P3 = posluk(3).algebra
    graded = {(a, b) for a in range(4) for b in range(4) if a <= b}
    family = {(x, y): set(graded) for x, y in [(0, 1), (0, 2), (1, 2)]}
    space = pair_space(P3, 3, family)
    report = mv_priestley_validate(space)
    assert report.valid, report
    assert report.local_extension_cases and report.local_matches_generic


def test_mv_validate_requires_positive_chain():
    space = pair_space(DL, 2, {(0, 1): LEFT})
    with pytest.raises(InvalidInput):
        mv_priestley_validate(space)


# --- Cons/Func round trips ----------------------------------------------------------------------

@pytest.mark.parametrize("L", [DL, BA, L2, P2])
def test_func_cons_identity_on_small_spaces(L):
    from dualkit.algebras import generate_vectors
    for seeds in [[tuple([0] * 2)], [(0, 1)], [(1, 0), (0, 1)]]:
        seeds = [tuple(min(s, L.size - 1) for s in seed) for seed in seeds]
        comp = generate_vectors(L, 2, seeds)
        X = lspace(discrete_topology(2), L, comp)
        Y = func(cons(X, 2))
        assert Y.functions == X.functions
        assert Y.topology == X.topology


def test_cons_func_identity_on_gep_space():
    space = priestley_from_order(discrete_topology(3), chain_order(3), DL)
    again = cons(func(space), 2)
    for key in space.constraints:
        assert again.constraint(tuple(key)) == space.constraint(tuple(key))


@pytest.mark.parametrize("k", [3, 4])
def test_higher_constraint_arities_share_the_code_path(k):
    monotone = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    X = lspace(discrete_topology(3), DL, monotone)
    space = cons(X, k)
    report = validate_constrained(space)
    assert report.subdirect and report.continuous and report.separated
    ok, witness, functions = has_global_extension(space)
    assert ok, witness
    assert sorted(functions) == sorted(monotone)
    assert has_local_extension(space, k * (k - 1))[0]


def test_specialization_preorder_helper():
    from dualkit.topology import topology_from_subbasis, mask_of
    top = topology_from_subbasis(2, [mask_of([0])])  # only {0} is open besides X
    order = top.specialization()
    assert order[0][1] and not order[1][0]


def test_unary_cons_func_identity_over_unary_bp_dualizers():
    # with the unary interpolation property, fibers plus the agreement
    # relation already determine the function algebra
    import random
    from dualkit.corpus import sample_lspace
    from dualkit.properties import check_unary_bp_via_classification
    for entry in (bool2(), luk(2)):
        assert check_unary_bp_via_classification(entry.algebra)
        rng = random.Random("unary-rep|" + entry.name)
        for _ in range(50):
            X = sample_lspace(entry.algebra, rng)
            Y = func(cons(X, 1))
            assert Y.functions == X.functions
            assert Y.topology == X.topology


def test_unary_cons_forgets_structure_without_unary_bp():
    # the two-point chain of monotone functions over the lattice collapses:
    # its order is not recoverable from fibers and agreement alone
    X = lspace(discrete_topology(2), DL, LEFT)
    Y = func(cons(X, 1))
    assert Y.functions > X.functions


def test_unary_separated_finite_spaces_have_gep():
    # finite separated unary spaces are discrete, hence Stone, hence extendable
    for fibers in itertools.product([frozenset({0, 2}), frozenset({0, 1, 2})], repeat=2):
        space = UnaryConstrainedSpace(discrete_topology(2), L2, fibers, [0, 1])
        assert validate_unary(space).valid
        ok, witness, _ = has_global_extension(space)
        assert ok, witness


def test_validation_checks_each_distinct_constraint_set_once(monkeypatch):
    # a seven-point Priestley space stores 29 constraints, but only six
    # distinct sets: the empty function, the points, and one pair set for
    # each of comparable, equivalent, reversed and incomparable points
    calls = []

    def counting(L, arity, funs):
        calls.append((arity, frozenset(funs)))
        return unclosed_operation(L, arity, funs)

    monkeypatch.setattr("dualkit.constrained.unclosed_operation", counting)
    leq = [[x == y or x <= y < 4 for y in range(7)] for x in range(7)]
    leq[4][5] = leq[5][4] = leq[5][0] = True
    space = priestley_from_order(discrete_topology(7), leq, DL)
    assert len(space.constraints) == 29
    assert validate_constrained(space).valid
    assert len(calls) == len(set(calls)) == 6
