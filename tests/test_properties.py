import itertools

import pytest

from dualkit.algebras import (
    InvalidInput,
    direct_power,
    generate_vectors,
    identity_congruence,
    relative_congruences,
    subalgebra,
    subuniverses,
    total_congruence,
)
from dualkit.catalog import bool2, dl2, luk, posluk, reduct
from dualkit.properties import (
    InterpolationInstance,
    all_covers,
    check_finite_bp,
    check_unary_bp_via_classification,
    chinese_remainder_check,
    chinese_remainder_sweep,
    classify_square_subalgebras,
    congruence_spectrum_antiisomorphism,
    helly_check,
    is_k_interpolated,
    jonsson_finite_cover_check,
    partial_endomorphisms,
    separates_at_most,
)
from dualkit.terms import App, Var, free_one_generated, term_function

DL = dl2().algebra
BA = bool2().algebra
L2 = luk(2).algebra

MEDIAN = App("join", (
    App("join", (App("meet", (Var(0), Var(1))), App("meet", (Var(1), Var(2))))),
    App("meet", (Var(2), Var(0)))))

MONOTONE_CHAIN3 = frozenset({(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)})


# --- partial endomorphisms ------------------------------------------------------

def test_dl_has_only_inclusions():
    assert partial_endomorphisms(DL).all_trivial


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_posluk_chains_have_trivial_partial_endomorphisms(n):
    assert partial_endomorphisms(posluk(n).algebra).all_trivial


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_luk_chains_have_trivial_partial_endomorphisms(n):
    assert partial_endomorphisms(luk(n).algebra).all_trivial


def test_oplus_reduct_has_a_doubling_endomorphism():
    R = reduct(L2, ("oplus", "meet", "join", "zero", "one"))
    report = partial_endomorphisms(R)
    assert not report.all_trivial
    witnesses = [e for e in report.endomorphisms if not e.is_inclusion]
    assert any(e.domain == (0, 1, 2) and e.values == (0, 2, 2) for e in witnesses)


# --- square classification -------------------------------------------------------

def test_dl_square_has_exactly_four_subalgebras():
    classification = classify_square_subalgebras(DL)
    assert len(classification.classes) == 4
    tags = {c.pairs: c.tag for c in classification.classes}
    assert tags[((0, 0), (1, 1))] == "subdiagonal"
    assert tags[((0, 0), (0, 1), (1, 1))] == "other"
    assert tags[((0, 0), (1, 0), (1, 1))] == "other"
    assert tags[((0, 0), (0, 1), (1, 0), (1, 1))] == "product"
    assert not classification.only_subdiagonal_or_product


def test_boolean_square_has_diagonal_and_product_only():
    classification = classify_square_subalgebras(BA)
    assert len(classification.classes) == 2
    assert classification.only_subdiagonal_or_product


def test_luk2_square_flag_true():
    assert classify_square_subalgebras(L2).only_subdiagonal_or_product


def test_posluk2_square_flag_false():
    assert not classify_square_subalgebras(posluk(2).algebra).only_subdiagonal_or_product


# --- interpolation -----------------------------------------------------------------

def test_members_are_interpolated():
    for f in MONOTONE_CHAIN3:
        inst = InterpolationInstance(DL, 3, MONOTONE_CHAIN3, f, 2)
        ok, witness = is_k_interpolated(inst)
        assert ok and witness is None


def test_non_monotone_candidate_fails_on_a_pair():
    inst = InterpolationInstance(DL, 3, MONOTONE_CHAIN3, (1, 0, 0), 2)
    ok, witness = is_k_interpolated(inst)
    assert not ok
    assert witness == (0, 1)


def test_empty_family_interpolates_nothing():
    inst = InterpolationInstance(DL, 2, frozenset(), (0, 0), 1)
    ok, witness = is_k_interpolated(inst)
    assert not ok and witness == ()


def test_separates_at_most():
    separating = {(0, 1), (0, 0), (1, 1)}
    assert separates_at_most((1, 0), separating, 2)
    constants = {(0, 0), (1, 1)}          # also the diagonal of the square
    assert not separates_at_most((0, 1), constants, 2)


# --- finite Baker-Pixley ---------------------------------------------------------------

def test_dl_has_binary_bp_exhaustively():
    verdict = check_finite_bp(DL, 2, 3)
    assert verdict.passed
    assert verdict.instances > 0


def test_dl_fails_unary_bp_with_the_graded_witness():
    verdict = check_finite_bp(DL, 1, 2)
    assert not verdict.passed
    x_size, functions, candidate = verdict.counterexample
    assert x_size == 2
    assert functions == ((0, 0), (0, 1), (1, 1))
    assert candidate == (1, 0)


def test_boolean_has_unary_bp_exhaustively():
    assert check_finite_bp(BA, 1, 3).passed


def test_sampled_bp_on_luk2():
    verdict = check_finite_bp(L2, 2, 3, strategy="sampled", seed=7, samples=100)
    assert verdict.passed
    assert verdict.seed == 7


def test_unary_bp_via_classification_matches_direct_check():
    assert check_unary_bp_via_classification(BA) == check_finite_bp(BA, 1, 2).passed
    assert check_unary_bp_via_classification(DL) == check_finite_bp(DL, 1, 2).passed
    assert check_unary_bp_via_classification(L2) == check_finite_bp(L2, 1, 2).passed


# --- Chinese remainder -------------------------------------------------------------------

def test_single_equation_always_solvable():
    theta = total_congruence(DL)
    verdict = chinese_remainder_check(DL, 2, [(0, theta)])
    assert verdict.passed and verdict.solvable


def test_total_congruences_solved_by_anything():
    P = direct_power(DL, 2)
    system = [(a, total_congruence(P)) for a in P.elements]
    verdict = chinese_remainder_check(P, 2, system)
    assert verdict.solvable


def test_dl_square_chinese_remainder_sweep():
    P = direct_power(DL, 2)
    checked, failure = chinese_remainder_sweep(P, DL, 2, 3)
    assert failure is None
    assert checked > 0


def _old_crp_sweep(A, L, k, max_equations):
    """The sweep as it was, validating every system through the public check."""
    pool = [(a, theta) for theta in relative_congruences(A, L) for a in A.elements]
    checked = 0
    for size in range(1, max_equations + 1):
        for system in itertools.combinations_with_replacement(pool, size):
            checked += 1
            if not chinese_remainder_check(A, k, list(system)).passed:
                return checked, list(system)
    return checked, None


@pytest.mark.parametrize("entry", [dl2(), luk(2), posluk(2)])
@pytest.mark.parametrize("k", [1, 2])
def test_crp_sweep_matches_the_validating_sweep(monkeypatch, entry, k):
    L = entry.algebra
    for A in (L, direct_power(L, 2)):
        expected = _old_crp_sweep(A, L, k, 2)
        # every system entry comes from relative_congruences: none is re-checked
        monkeypatch.setattr("dualkit.properties.is_congruence", None)
        assert chinese_remainder_sweep(A, L, k, 2) == expected
        monkeypatch.undo()


def test_crp_rejects_non_congruence():
    from dualkit.algebras import Congruence
    with pytest.raises(InvalidInput):
        chinese_remainder_check(L2, 2, [(0, Congruence((0, 0, 1)))])


# --- the Jonsson property ------------------------------------------------------------------

def test_dl_square_factors_through_projections():
    functions = [(a, b) for a in range(2) for b in range(2)]
    verdict = jonsson_finite_cover_check(DL, 2, functions,
                                         covers=[(frozenset({0}), frozenset({1}))])
    assert verdict.passed


def test_full_cover_always_factors():
    functions = generate_vectors(L2, 2, [(1, 0)])
    verdict = jonsson_finite_cover_check(L2, 2, functions,
                                         covers=[(frozenset({0, 1}),)])
    assert verdict.passed


def test_empty_representation_fails_for_constant_free_dualizer():
    bare = reduct(DL, ("meet", "join"))
    verdict = jonsson_finite_cover_check(bare, 0, [()], covers=[()])
    assert not verdict.passed


def test_jonsson_passes_on_small_corpus():
    for L in (DL, L2):
        for seeds in [[(0, 1)], [(1, 0), (0, 1)]]:
            functions = generate_vectors(L, 2, seeds)
            verdict = jonsson_finite_cover_check(L, 2, functions)
            assert verdict.passed, verdict.witness


# --- congruence representation ----------------------------------------------------------------

def test_congruence_spectrum_for_dl_square():
    P = direct_power(DL, 2)
    report = congruence_spectrum_antiisomorphism(P, DL)
    assert report.ok
    assert report.spectrum_size == 2
    assert report.relative_count == 4


def test_congruence_spectrum_for_dl_itself():
    report = congruence_spectrum_antiisomorphism(DL, DL)
    assert report.ok
    assert report.spectrum_size == 1
    assert report.relative_count == 2


def test_congruence_spectrum_for_free_boolean():
    F, _ = free_one_generated(BA)
    report = congruence_spectrum_antiisomorphism(F, BA)
    assert report.ok
    assert report.spectrum_size == 2
    assert report.relative_count == 4


def test_trivial_endos_give_two_relative_congruences_on_subalgebras():
    for L in (DL, BA, L2, posluk(2).algebra):
        assert partial_endomorphisms(L).all_trivial
        for universe in subuniverses(L):
            C, _ = subalgebra(L, universe)
            rel = set(relative_congruences(C, L))
            expected = {identity_congruence(C), total_congruence(C)}
            assert rel == expected


# --- Helly ----------------------------------------------------------------------------------

def intervals(n):
    return [frozenset(range(lo, hi + 1)) for lo in range(n) for hi in range(lo, n)]


def test_helly_on_chain_intervals():
    L3 = luk(3).algebra
    median = term_function(L3, MEDIAN, 3)
    for family in itertools.combinations(intervals(4), 3):
        pairwise = all(a & b for a, b in itertools.combinations(family, 2)) \
            and all(bool(m) for m in family)
        result = helly_check(L3, median, family)
        if pairwise:
            assert not result.vacuous
            assert result.ok
            assert all(result.point in m for m in family)
        else:
            assert result.vacuous


def test_small_families_pass_trivially():
    L3 = luk(3).algebra
    median = term_function(L3, MEDIAN, 3)
    result = helly_check(L3, median, [frozenset({1, 2})])
    assert result.ok and result.point in {1, 2}


def test_singleton_family():
    L3 = luk(3).algebra
    median = term_function(L3, MEDIAN, 3)
    result = helly_check(L3, median, [{2}, {2}, {2}])
    assert result.ok and result.point == 2


def test_non_convex_member_is_vacuous():
    L3 = luk(3).algebra
    median = term_function(L3, MEDIAN, 3)
    result = helly_check(L3, median, [{0, 3}, {0, 1}])
    assert result.vacuous and not result.ok


# --- catalog dualizers meet the duality hypotheses -------------------------------------------------

@pytest.mark.parametrize("entry", [bool2(), dl2(), luk(2), luk(3), posluk(2)])
def test_catalog_dualizers_satisfy_cd_nu_hypotheses(entry):
    from dualkit.terms import search_nu_function
    L = entry.algebra
    assert L.size >= 2
    assert L.signature.constants                      # no empty subalgebra
    assert partial_endomorphisms(L).all_trivial
    assert search_nu_function(L, 3) is not None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_luk_square_classification_matches_unary_bp_prediction(n):
    # the MV chain behaves like [0,1] (unary BP), the positive reduct does not
    assert classify_square_subalgebras(luk(n).algebra).only_subdiagonal_or_product
    assert not classify_square_subalgebras(posluk(n).algebra).only_subdiagonal_or_product


def test_every_finite_space_is_full_under_cd_hypotheses():
    # compactness (here: finiteness) forces fullness when the dualizer is
    # nontrivial, constant-bearing, with trivial partial endomorphisms and a
    # congruence distributive variety
    import random
    from dualkit.corpus import sample_lspace
    from dualkit.spaces import space_properties
    for entry in (dl2(), bool2(), luk(2), posluk(2)):
        rng = random.Random("full|" + entry.name)
        for _ in range(25):
            X = sample_lspace(entry.algebra, rng)
            assert space_properties(X).full


# --- metatheorem-level properties ----------------------------------------------------------------

@pytest.mark.parametrize("entry", [dl2(), bool2()])
def test_nu_implies_bp_exhaustive(entry):
    from dualkit.terms import search_nu_function
    assert search_nu_function(entry.algebra, 3) is not None
    assert check_finite_bp(entry.algebra, 2, 2).passed


def test_nu_implies_crp_instances():
    from dualkit.terms import search_nu_function
    assert search_nu_function(DL, 3) is not None
    P = direct_power(DL, 2)
    checked, failure = chinese_remainder_sweep(P, DL, 2, 3)
    assert failure is None


def test_all_covers_of_empty_set():
    assert all_covers(0, 2) == [()]


def test_all_covers_cover():
    for cover in all_covers(3, 2):
        assert frozenset().union(*cover) == frozenset(range(3)) if cover else True
