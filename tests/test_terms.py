import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualkit.algebras import (
    BudgetExceeded,
    FiniteAlgebra,
    InvalidInput,
    Signature,
    enumerate_homs,
)
from dualkit.catalog import bool2, dl2, luk, posluk
from dualkit.terms import (
    App,
    Var,
    check_near_unanimity,
    clone_search,
    eval_term,
    free_one_generated,
    is_convex,
    pad_nu_function,
    projection_function,
    search_nu_function,
    separating_term_posmv,
    term_from_text,
    term_function,
    term_to_text,
)
from test_one_implementation import recording

DL = dl2().algebra
BA = bool2().algebra
L2 = luk(2).algebra
L3 = luk(3).algebra

MEDIAN = App("join", (
    App("join", (App("meet", (Var(0), Var(1))), App("meet", (Var(1), Var(2))))),
    App("meet", (Var(2), Var(0)))))


def lattice_median_table(L, arity=3):
    """Pointwise median of a chain, computed by sorting; oracle for the term."""
    out = []
    for args in itertools.product(L.elements, repeat=arity):
        out.append(sorted(args)[len(args) // 2])
    return tuple(out)


def test_median_term_tabulates_to_majority():
    tf = term_function(DL, MEDIAN, 3)
    assert tf.table == lattice_median_table(DL)


def test_doubling_table_on_luk2():
    tf = term_function(L2, App("oplus", (Var(0), Var(0))), 1)
    assert tf.table == (0, 2, 2)


def test_negation_table_swaps():
    tf = term_function(BA, App("neg", (Var(0),)), 1)
    assert tf.table == (1, 0)


def test_term_function_rejects_unbound_arity():
    with pytest.raises(InvalidInput):
        term_function(DL, Var(2), 2)


# --- near-unanimity checks -----------------------------------------------------

def test_median_is_near_unanimity():
    assert check_near_unanimity(DL, term_function(DL, MEDIAN, 3)).ok


def test_projection_is_not_near_unanimity():
    verdict = check_near_unanimity(DL, projection_function(DL, 3, 0))
    assert not verdict.ok
    b, a1, a2 = verdict.witness
    assert a1 == a2 and b != a1


def test_luk3_lattice_median_is_near_unanimity():
    assert check_near_unanimity(L3, term_function(L3, MEDIAN, 3)).ok


def test_nu_check_rejects_low_arity():
    with pytest.raises(InvalidInput):
        check_near_unanimity(DL, projection_function(DL, 2, 0))


# --- clone search ----------------------------------------------------------------

def test_clone_search_finds_majority_for_dl():
    found = search_nu_function(DL, 3)
    assert found is not None
    assert found.table == lattice_median_table(DL)
    # witness round-trip: the reported term tabulates to the reported table
    assert term_function(DL, found.term, 3).table == found.table


def test_clone_of_empty_signature_has_no_nu():
    bare = FiniteAlgebra(Signature(()), 2, {})
    assert search_nu_function(bare, 3) is None


def test_clone_search_finds_majority_for_bool():
    found = search_nu_function(BA, 3)
    assert found is not None
    assert check_near_unanimity(BA, found).ok
    assert term_function(BA, found.term, 3).table == found.table


@pytest.mark.parametrize("entry", [luk(2), luk(3), posluk(2)])
def test_clone_search_on_chains(entry):
    found = search_nu_function(entry.algebra, 3)
    assert found is not None
    assert check_near_unanimity(entry.algebra, found).ok
    assert term_function(entry.algebra, found.term, 3).table == found.table


def never(rows):
    return np.zeros(len(rows), bool)


def test_clone_search_enumerates_unary_boolean_clone():
    seen = []
    clone_search(BA, 1, recording(seen))
    assert sorted(set(seen)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_clone_search_budget_charges_every_table_tried():
    # the ternary clone of dl2 has 20 tables, reached by trying 845: the 3
    # projections, the 2 constants and 840 argument tuples, most of them
    # rebuilding a table already found
    seen = []
    assert clone_search(DL, 3, recording(seen), budget=845) is None
    assert len(seen) == 20
    for budget in (100, 844):
        with pytest.raises(BudgetExceeded, match="clone search exceeds budget %d" % budget):
            clone_search(DL, 3, never, budget=budget)


def test_clone_search_absence_proof_stops_at_the_budget():
    # luk(2)'s binary clone is large: the work budget, not the closure, ends this search
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="clone search"):
        clone_search(L2, 2, never, budget=5000)
    assert time.perf_counter() - start < 1.0


def test_nu_padding_stays_nu():
    median = term_function(DL, MEDIAN, 3)
    padded = pad_nu_function(DL, median, 5)
    assert check_near_unanimity(DL, padded).ok


# --- the free one-generated algebra ------------------------------------------------

def test_free_one_generated_boolean_has_four_elements():
    F, gen = free_one_generated(BA)
    assert F.size == 4


def test_free_one_generated_dl_has_three_elements():
    F, gen = free_one_generated(DL)
    assert F.size == 3


@pytest.mark.parametrize("L", [BA, DL, L2])
def test_free_algebra_universal_property(L):
    # |Hom(F, A)| = |A| for every algebra A in the prevariety, within budget
    from dualkit.algebras import direct_power, generate_subalgebra, subalgebra
    F, _ = free_one_generated(L)
    square = direct_power(L, 2)
    diagonal, _ = subalgebra(square, generate_subalgebra(square, [0, L.size**2 - 1]))
    for A in (L, square, diagonal):
        assert len(enumerate_homs(F, A)) == A.size


def test_spec_of_free_algebra_is_the_dualizer_carrier():
    F, gen = free_one_generated(L2)
    homs = enumerate_homs(F, L2)
    images = sorted(h.values[gen] for h in homs)
    assert images == list(L2.elements)  # h -> h(id) is a bijection onto L


# --- the separating-term construction ------------------------------------------------

def test_separating_term_one_doubling_step():
    t = separating_term_posmv(2, 1, 0)
    P2 = posluk(2).algebra
    assert eval_term(P2, t, {0: 1}) == 2
    assert eval_term(P2, t, {0: 0}) == 0
    assert t == App("oplus", (Var(0), Var(0)))


def test_separating_term_cubing():
    t = separating_term_posmv(3, 3, 2)
    P3 = posluk(3).algebra
    assert eval_term(P3, t, {0: 3}) == 3
    assert eval_term(P3, t, {0: 2}) == 0
    assert t == App("odot", (App("odot", (Var(0), Var(0))), Var(0)))


def test_separating_term_top_bottom_is_variable():
    assert separating_term_posmv(5, 5, 0) == Var(0)


def test_separating_term_rejects_comparable_pairs():
    with pytest.raises(InvalidInput):
        separating_term_posmv(3, 1, 2)
    with pytest.raises(InvalidInput):
        separating_term_posmv(3, 2, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_separating_term_separates_every_pair(n):
    P = posluk(n).algebra
    for b in range(n + 1):
        for a in range(b + 1, n + 1):
            t = separating_term_posmv(n, a, b)
            assert eval_term(P, t, {0: a}) == n
            assert eval_term(P, t, {0: b}) == 0


def test_separating_term_handles_exact_half():
    # smaller value sitting exactly at 1/2 forces a squaring step
    t = separating_term_posmv(4, 3, 2)
    P4 = posluk(4).algebra
    assert eval_term(P4, t, {0: 3}) == 4
    assert eval_term(P4, t, {0: 2}) == 0


# --- convexity -----------------------------------------------------------------------

def test_singletons_are_convex():
    median = term_function(L3, MEDIAN, 3)
    for a in L3.elements:
        assert is_convex(L3, median, {a})


def test_whole_carrier_is_convex():
    median = term_function(DL, MEDIAN, 3)
    assert is_convex(DL, median, {0, 1})


def test_chain_convex_iff_order_convex():
    median = term_function(L3, MEDIAN, 3)
    for r in range(1, 5):
        for subset in itertools.combinations(L3.elements, r):
            order_convex = all(subset[0] <= c <= subset[-1] and (c in subset)
                               for c in range(subset[0], subset[-1] + 1))
            assert is_convex(L3, median, subset) == order_convex


def test_convexity_requires_nu_function():
    with pytest.raises(InvalidInput):
        is_convex(DL, projection_function(DL, 3, 0), {0})


# --- term text form ---------------------------------------------------------------------

def test_term_text_round_trip():
    text = term_to_text(MEDIAN)
    assert term_from_text(text) == MEDIAN


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=4))
def test_variable_text_round_trip(i):
    assert term_from_text(term_to_text(Var(i))) == Var(i)


def test_term_text_rejects_garbage():
    with pytest.raises(InvalidInput):
        term_from_text("(join x0")
    with pytest.raises(InvalidInput):
        term_from_text("x0 x1")
