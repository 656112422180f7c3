import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualkit.algebras import (
    Congruence,
    ElementMap,
    FiniteAlgebra,
    InvalidInput,
    Signature,
    direct_power,
    direct_product,
    enumerate_homs,
    generate_congruence,
    generate_subalgebra,
    generate_vectors,
    identity_congruence,
    in_prevariety,
    is_congruence,
    kernel,
    minimal_generating_set,
    power_index,
    power_tuple,
    quotient,
    relative_congruences,
    subalgebra,
    subuniverses,
    total_congruence,
)
from dualkit.catalog import bool2, dl2, luk
from dualkit.spaces import check_duality_roundtrip_algebra
from dualkit.terms import App, Var, eval_term

DL = dl2().algebra
BA = bool2().algebra
L2 = luk(2).algebra
L3 = luk(3).algebra


# --- independent oracles ---------------------------------------------------

def brute_force_homs(A, B):
    """All homomorphisms by scanning every map; oracle for enumerate_homs."""
    out = []
    for values in itertools.product(range(B.size), repeat=A.size):
        if ElementMap(A, B, values).is_homomorphism():
            out.append(values)
    return sorted(out)


def all_partitions(n):
    """Every partition of range(n) as restricted-growth block vectors."""
    if n == 0:
        yield ()
        return

    def grow(prefix, maximum):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(maximum + 2):
            yield from grow(prefix + [b], max(maximum, b))

    yield from grow([0], 0)


def brute_force_congruences(A):
    """Con A: the compatible partitions, by exhaustive filtering."""
    out = []
    for blocks in all_partitions(A.size):
        compatible = True
        for name, arity in A.signature.ops:
            seen = {}
            for args in itertools.product(A.elements, repeat=arity):
                key = tuple(blocks[a] for a in args)
                value = blocks[A.apply(name, *args)]
                if seen.setdefault(key, value) != value:
                    compatible = False
                    break
            if not compatible:
                break
        if compatible:
            out.append(Congruence.from_blocks(blocks))
    return set(out)


# --- term evaluation --------------------------------------------------------

def test_eval_lattice_term():
    t = App("meet", (Var(0), App("join", (Var(1), Var(2)))))
    assert eval_term(DL, t, {0: 1, 1: 0, 2: 1}) == 1


def test_eval_variable_identity():
    for e in L3.elements:
        assert eval_term(L3, Var(0), {0: e}) == e


def test_eval_truncated_addition():
    t = App("oplus", (Var(0), Var(0)))
    assert eval_term(L2, t, {0: 1}) == 2  # 1/2 + 1/2 = 1


def test_eval_unbound_variable_rejected():
    with pytest.raises(InvalidInput):
        eval_term(DL, Var(3), {0: 1})


def test_eval_arity_mismatch_rejected():
    with pytest.raises(InvalidInput):
        eval_term(DL, App("meet", (Var(0),)), {0: 1})


def test_apply_rejects_unknown_symbol_and_wrong_arity():
    with pytest.raises(InvalidInput, match="unknown operation symbol 'nope'"):
        DL.apply("nope", 0)
    with pytest.raises(InvalidInput, match="'meet' expects 2 arguments, got 1"):
        DL.apply("meet", 0)


def test_out_of_range_table_entry_is_named():
    sig = Signature((("meet", 2),))
    with pytest.raises(InvalidInput, match="table entry 2 out of range for 'meet'"):
        FiniteAlgebra(sig, 2, {"meet": (0, 2, -1, 1)})
    with pytest.raises(InvalidInput, match="table entry -1 out of range for 'meet'"):
        FiniteAlgebra(sig, 2, {"meet": (0, 0, -1, 1)})
    # NaN compares false both ways, so it is out of range too
    with pytest.raises(InvalidInput, match="table entry nan out of range for 'meet'"):
        FiniteAlgebra(sig, 2, {"meet": (0, 0, 0, float("nan"))})
    assert FiniteAlgebra(sig, 2, {"meet": (0, 0, 0, 1)}).apply("meet", 1, 1) == 1


UNARY = Signature((("f", 1),))


@pytest.mark.parametrize("entry", [1.5, 1.0])
def test_float_table_entry_is_rejected(entry):
    with pytest.raises(InvalidInput, match=r"^table entry %r out of range for 'f'$" % entry):
        FiniteAlgebra(UNARY, 2, {"f": (0, entry)})


def test_string_table_entry_is_invalid_input():
    with pytest.raises(InvalidInput, match=r"^table entry '1' out of range for 'f'$"):
        FiniteAlgebra(UNARY, 2, {"f": (0, "1")})


def test_huge_table_entry_is_out_of_range():
    with pytest.raises(InvalidInput, match=r"^table entry %d out of range for 'f'$" % 2**70):
        FiniteAlgebra(UNARY, 2, {"f": (0, 2**70)})


@pytest.mark.parametrize("table", [(np.int64(0), np.int64(5)),
                                   np.array([0, np.int64(5)], dtype=object)])
def test_numpy_scalar_entry_is_named_as_an_int(table):
    with pytest.raises(InvalidInput, match=r"^table entry 5 out of range for 'f'$"):
        FiniteAlgebra(UNARY, 2, {"f": table})


def test_true_table_entry_is_stored_as_an_int():
    A = FiniteAlgebra(UNARY, 2, {"f": (0, True)})
    assert type(A.apply("f", 1)) is int and A.apply("f", 1) == 1
    assert [type(v) for v in A.tables["f"]] == [int, int]


def test_first_bad_entry_in_signature_order_is_named():
    sig = Signature((("g", 2), ("f", 1)))
    # f's bad entry would come first in arity order, g's in signature order
    with pytest.raises(InvalidInput, match=r"^table entry 'x' out of range for 'g'$"):
        FiniteAlgebra(sig, 2, {"g": (0, 1, "x", 5), "f": (1.5, 0)})


@pytest.mark.parametrize("value", [1.5, "1"])
def test_element_map_rejects_non_integer_values(value):
    with pytest.raises(InvalidInput, match=r"^map value %r outside codomain$" % (value,)):
        ElementMap(DL, DL, (0, value))


def test_generate_congruence_rejects_non_integer_pairs():
    for pair in [(0, 1.0), ("0", 1), (0, 1.5)]:
        with pytest.raises(InvalidInput, match="^pair outside carrier$"):
            generate_congruence(DL, [pair])


# --- subalgebra generation ----------------------------------------------------

def test_constants_closure_of_luk3():
    assert generate_subalgebra(L3, ()) == frozenset({0, 3})


def test_half_generates_luk2():
    assert generate_subalgebra(L2, (1,)) == frozenset({0, 1, 2})


def test_identity_generates_free_boolean_algebra():
    vectors = generate_vectors(BA, 2, [(0, 1)])
    assert sorted(vectors) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=3), max_size=4))
def test_closure_idempotent(seed):
    closed = generate_subalgebra(L3, seed)
    assert generate_subalgebra(L3, closed) == closed


# --- products -------------------------------------------------------------------

def test_power_of_dl_has_pointwise_meet():
    P = direct_power(DL, 3)
    assert P.size == 8
    a = power_index(2, (1, 0, 1))
    b = power_index(2, (1, 1, 0))
    assert power_tuple(2, 3, P.apply("meet", a, b)) == (1, 0, 0)


def test_empty_power_is_singleton():
    P = direct_power(L2, 0)
    assert P.size == 1
    assert P.apply("oplus", 0, 0) == 0


def test_luk2_square_arithmetic():
    P = direct_power(L2, 2)
    assert P.size == 9
    a = power_index(3, (1, 1))
    b = power_index(3, (1, 2))
    assert power_tuple(3, 2, P.apply("oplus", a, b)) == (2, 2)


# --- homomorphism enumeration ----------------------------------------------------

def test_hom_free_boolean_to_two():
    F, _ = subalgebra(direct_power(BA, 2),
                      generate_subalgebra(direct_power(BA, 2),
                                          (power_index(2, (0, 1)),)))
    homs = enumerate_homs(F, BA)
    assert len(homs) == 2
    assert sorted(h.values for h in homs) == brute_force_homs(F, BA)


def test_hom_dl_to_itself_is_identity():
    homs = enumerate_homs(DL, DL)
    assert [h.values for h in homs] == [(0, 1)]


def test_hom_luk2_to_itself_is_identity():
    homs = enumerate_homs(L2, L2)
    assert sorted(h.values for h in homs) == brute_force_homs(L2, L2)
    assert [h.values for h in homs] == [(0, 1, 2)]


@pytest.mark.parametrize("A,B", [(DL, DL), (L2, L2), (L2, L3), (BA, BA)])
def test_hom_enumeration_matches_brute_force(A, B):
    if A.signature != B.signature:
        return
    assert sorted(h.values for h in enumerate_homs(A, B)) == brute_force_homs(A, B)


def test_hom_enumeration_on_powers_matches_brute_force():
    P = direct_power(DL, 2)
    assert sorted(h.values for h in enumerate_homs(P, DL)) == brute_force_homs(P, DL)


def test_hom_enumeration_when_two_operations_derive_one_element():
    # f and g both derive 1 from the generator 0 in the same stage; h(0) = 0
    # gives f(0) = 1 and g(0) = 2 in B, so it passes only if each derivation
    # is compared before the other one overwrites h(1)
    unary = Signature((("f", 1), ("g", 1)))
    A = FiniteAlgebra(unary, 2, {"f": (1, 1), "g": (1, 1)})
    B = FiniteAlgebra(unary, 3, {"f": (1, 1, 2), "g": (2, 1, 2)})
    expected = [(1, 1), (2, 2)]
    assert brute_force_homs(A, B) == expected
    assert [h.values for h in enumerate_homs(A, B, gens=(0,))] == expected
    assert [h.values for h in enumerate_homs(A, B)] == expected


def test_hom_rejects_non_generating_set():
    with pytest.raises(InvalidInput):
        enumerate_homs(L2, L2, gens=())
    with pytest.raises(InvalidInput, match="generator 1.5 outside carrier"):
        enumerate_homs(L2, L2, gens=[1.5])


def test_hom_composition_is_homomorphism():
    P = direct_power(DL, 2)
    for h in enumerate_homs(P, DL):
        for g in enumerate_homs(DL, DL):
            assert g.compose(h).is_homomorphism()


# --- kernels, quotients, congruences ------------------------------------------------

def test_kernel_of_identity_is_diagonal():
    ident = ElementMap(L2, L2, (0, 1, 2))
    assert kernel(ident) == identity_congruence(L2)


def test_kernel_of_projection():
    P = direct_power(DL, 2)
    pi_x = ElementMap(P, DL, tuple(power_tuple(2, 2, e)[0] for e in P.elements))
    assert kernel(pi_x).blocks == (0, 0, 1, 1)


def test_kernel_rejects_non_homomorphism():
    with pytest.raises(InvalidInput):
        kernel(ElementMap(DL, DL, (1, 0)))


def test_quotient_by_diagonal_is_the_algebra():
    Q, proj = quotient(L2, identity_congruence(L2))
    assert Q == L2
    assert proj.values == (0, 1, 2)


def test_quotient_by_total_is_singleton():
    Q, _ = quotient(DL, total_congruence(DL))
    assert Q.size == 1


def test_quotient_of_square_by_first_coordinate():
    P = direct_power(DL, 2)
    theta = generate_congruence(P, [(power_index(2, (0, 0)), power_index(2, (0, 1)))])
    assert theta.blocks == (0, 0, 1, 1)
    Q, proj = quotient(P, theta)
    assert Q == DL
    assert kernel(proj) == theta


def test_quotient_rejects_incompatible_partition():
    with pytest.raises(InvalidInput):
        quotient(L2, Congruence((0, 0, 1)))  # merges 0 with 1/2 only


@pytest.mark.parametrize("blocks", [(0, 2, 2), (0, -1, 1), (1, 1, 1)])
def test_blocks_must_be_numbered_from_zero_without_gaps(blocks):
    # (0, 2, 2) skips block 1, (0, -1, 1) uses a negative block, (1, 1, 1)
    # never uses block 0: none numbers its blocks exactly 0..k-1
    theta = Congruence(blocks)
    assert not is_congruence(L2, theta)
    with pytest.raises(InvalidInput):
        quotient(L2, theta)


def test_generate_congruence_from_nothing():
    assert generate_congruence(DL, []) == identity_congruence(DL)


def test_dl_is_simple():
    assert generate_congruence(DL, [(0, 1)]) == total_congruence(DL)


@pytest.mark.parametrize("A", [DL, BA, L2, direct_power(DL, 2)])
def test_congruence_enumeration_matches_partition_filter(A):
    # every quotient of these algebras lies in ISP(A), so all of A's
    # congruences are relative to A itself
    assert set(relative_congruences(A, A)) == brute_force_congruences(A)


def test_generated_congruence_is_least():
    P = direct_power(DL, 2)
    pair = (power_index(2, (0, 0)), power_index(2, (0, 1)))
    theta = generate_congruence(P, [pair])
    for psi in brute_force_congruences(P):
        if psi.same(*pair):
            assert theta.leq(psi)


# --- prevariety membership and relative congruences ----------------------------------

def test_square_in_prevariety():
    assert in_prevariety(direct_power(DL, 2), DL)


def test_three_chain_in_prevariety_of_dl():
    chain = FiniteAlgebra(
        DL.signature, 3,
        {"meet": _chain_table(3, min), "join": _chain_table(3, max),
         "zero": (0,), "one": (2,)})
    assert in_prevariety(chain, DL)
    assert len(enumerate_homs(chain, DL)) == 2


def _chain_table(n, fn):
    return tuple(fn(a, b) for a in range(n) for b in range(n))


def test_singleton_in_prevariety():
    single = FiniteAlgebra(DL.signature, 1,
                           {"meet": (0,), "join": (0,), "zero": (0,), "one": (0,)})
    assert in_prevariety(single, DL)
    assert relative_congruences(single, DL) == [total_congruence(single)]


def test_relative_congruences_of_subalgebra_of_simple_dualizer():
    # trivial partial endomorphisms force exactly the two extremes
    assert set(relative_congruences(L2, L2)) == {
        identity_congruence(L2), total_congruence(L2)}


def test_relative_congruences_of_dl_square():
    P = direct_power(DL, 2)
    rel = relative_congruences(P, DL)
    assert len(rel) == 4
    assert identity_congruence(P) in rel
    assert total_congruence(P) in rel


def test_relative_quotients_stay_in_prevariety():
    P = direct_power(DL, 2)
    for theta in relative_congruences(P, DL):
        Q, _ = quotient(P, theta)
        assert in_prevariety(Q, DL)


@pytest.mark.parametrize("L,seeds", [
    (DL, [(0, 1)]), (L2, [(1, 0)]), (L2, [(1, 2), (0, 1)]), (BA, [(1, 0)])])
def test_relative_congruences_contain_extremes(L, seeds):
    vectors = generate_vectors(L, 2, seeds)
    P = direct_power(L, 2)
    A, _ = subalgebra(P, {power_index(L.size, v) for v in vectors})
    rel = relative_congruences(A, L)
    assert total_congruence(A) in rel
    if in_prevariety(A, L):
        assert identity_congruence(A) in rel


# luk(n) embeds in luk(m) exactly when n divides m, and a product of simple
# MV-chains maps to a simple chain only through a projection, so Hom(A, luk(m))
# has one homomorphism per factor luk(n_i) with n_i | m, and their kernels
# meet freely
LUK_PRODUCTS = [(2,), (3,), (4,), (6,), (2, 2), (2, 3), (3, 4), (2, 6), (1, 2, 3), (2, 2, 2),
                (2, 2, 3), (1, 1, 5)]


@pytest.mark.parametrize("ns", LUK_PRODUCTS, ids=lambda ns: "x".join(map(str, ns)))
def test_relative_congruences_of_luk_products_in_closed_form(ns):
    A = direct_product([luk(n).algebra for n in ns])
    for m in range(1, 13):
        L = luk(m).algebra
        d = sum(m % n == 0 for n in ns)
        assert len(enumerate_homs(A, L)) == d, m
        assert len(relative_congruences(A, L)) == 2 ** d, m
        assert in_prevariety(A, L) == (d == len(ns)), m


def test_subuniverses_of_luk_chains_in_closed_form():
    # the subalgebras of luk(m) are the chains luk(d) for d | m, the multiples
    # of m/d, in ascending d: 4, 6 and 8 of them at m = 6, 12 and 30
    for m in list(range(1, 13)) + [30]:
        chains = [frozenset(range(0, m + 1, m // d)) for d in range(1, m + 1) if m % d == 0]
        assert subuniverses(luk(m).algebra) == chains, m


def test_duality_roundtrips_of_luk_products_in_closed_form():
    # A lies in ISP(luk(m)) exactly when every factor's n_i divides m, and
    # there the round-trip of the duality holds
    cases = 0
    for ns in LUK_PRODUCTS:
        A = direct_product([luk(n).algebra for n in ns])
        for m in range(1, 13):
            if all(m % n == 0 for n in ns):
                report = check_duality_roundtrip_algebra(A, luk(m).algebra)
                assert report.ok, (ns, m, report.failures)
                cases += 1
    assert cases == 38


# --- homomorphism theorem spot check ---------------------------------------------------

def test_first_isomorphism_instances():
    P = direct_power(L2, 2)
    for h in enumerate_homs(P, L2):
        image, _ = subalgebra(L2, set(h.values))
        Q, _ = quotient(P, kernel(h))
        bijections = [g for g in enumerate_homs(Q, image)
                      if g.is_injective() and g.is_surjective()]
        assert bijections, "quotient by the kernel must match the image"


# --- subuniverse enumeration -------------------------------------------------------

def test_subuniverses_of_dl_square():
    P = direct_power(DL, 2)
    subs = subuniverses(P)
    assert [sorted(u) for u in subs] == [[0, 3], [0, 1, 3], [0, 2, 3], [0, 1, 2, 3]]


def test_subuniverses_of_luk2():
    assert [sorted(u) for u in subuniverses(L2)] == [[0, 2], [0, 1, 2]]


def test_minimal_generating_set_regenerates():
    P = direct_power(L2, 2)
    gens = minimal_generating_set(P)
    assert generate_subalgebra(P, gens) == frozenset(P.elements)


# --- degenerate carriers ---------------------------------------------------------------

def test_empty_algebra_requires_constant_free_signature():
    with pytest.raises(InvalidInput):
        FiniteAlgebra(DL.signature, 0, {"meet": (), "join": (), "zero": (), "one": ()})
    sig = Signature((("meet", 2),))
    empty = FiniteAlgebra(sig, 0, {"meet": ()})
    assert in_prevariety(empty, FiniteAlgebra(sig, 2, {"meet": _chain_table(2, min)}))
