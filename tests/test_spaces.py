import dataclasses
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from dualkit import algebras, spaces
from dualkit.algebras import (
    FiniteAlgebra,
    InvalidInput,
    algebra_from_vectors,
    direct_power,
    enumerate_homs,
    generate_vectors,
    in_prevariety,
    power_index,
    subalgebra,
)
from dualkit.catalog import bool2, dl2, luk, reduct
from dualkit.constrained import cons, func
from dualkit.corpus import dualizer_suite, entry_label, sample_function_algebra, sample_lspace
from dualkit.fileformat import parse_algebra, parse_document, parse_space, resolve_algebra
from dualkit.spaces import (
    LMap,
    RoundtripReport,
    _comp_triangle,
    _spectrum_triangle,
    canonical_embedding,
    check_duality_roundtrip_algebra,
    check_duality_roundtrip_space,
    check_naturality,
    continuous_functions,
    discretize,
    evaluation_map,
    full_function_space,
    is_continuous_vector,
    is_lmap,
    is_lspace_isomorphism,
    lspace,
    regularize,
    separated_quotient,
    space_properties,
    spec_contravariant_check,
    spectrum,
)
from dualkit.terms import free_one_generated
from dualkit.topology import (
    discrete_topology,
    indiscrete_topology,
    mask_of,
    topology_from_subbasis,
)
from test_property_kernels import _documents
from test_table_gather import _n5

DL = dl2().algebra
BA = bool2().algebra
L2 = luk(2).algebra

SIERPINSKI = topology_from_subbasis(2, [mask_of([0])])


def constants_space(top, L):
    return lspace(top, L, [(a,) * top.n for a in L.elements])


# --- continuous functions -----------------------------------------------------

def test_discrete_two_points_all_functions_continuous():
    assert len(continuous_functions(discrete_topology(2), DL)) == 4


def test_sierpinski_admits_only_constants():
    # both fibers must be open, and only one singleton is
    fns = continuous_functions(SIERPINSKI, DL)
    assert fns == [(0, 0), (1, 1)]
    by_filter = [f for f in itertools.product(range(2), repeat=2)
                 if is_continuous_vector(SIERPINSKI, f)]
    assert fns == by_filter


def test_indiscrete_admits_only_constants():
    fns = continuous_functions(indiscrete_topology(3), L2)
    assert fns == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]


# --- spectra -------------------------------------------------------------------

def test_spectrum_of_free_boolean_algebra():
    F, _ = free_one_generated(BA)
    spec = spectrum(F, BA)
    assert spec.space.n == 2
    assert spec.space.topology.is_discrete()


def test_spectrum_of_inconsistent_singleton_is_empty():
    single = FiniteAlgebra(DL.signature, 1,
                           {"meet": (0,), "join": (0,), "zero": (0,), "one": (0,)})
    spec = spectrum(single, DL)
    assert spec.space.n == 0
    assert spec.space.functions == frozenset({()})


def test_spectrum_of_dl_cube_has_three_points():
    spec = spectrum(direct_power(DL, 3), DL)
    assert spec.space.n == 3
    assert len(spec.homs) == len(enumerate_homs(direct_power(DL, 3), DL))


# --- the unit ------------------------------------------------------------------

def test_embedding_of_dl_itself():
    eta = canonical_embedding(DL, DL)
    assert eta.spectrum.space.n == 1
    assert eta.is_isomorphism
    assert eta.comp_algebra.size == 2


def test_embedding_of_three_chain_injective():
    chain = FiniteAlgebra(
        DL.signature, 3,
        {"meet": tuple(min(a, b) for a in range(3) for b in range(3)),
         "join": tuple(max(a, b) for a in range(3) for b in range(3)),
         "zero": (0,), "one": (2,)})
    eta = canonical_embedding(chain, DL)
    assert eta.is_injective and eta.is_isomorphism


def test_embedding_of_singleton():
    single = FiniteAlgebra(DL.signature, 1,
                           {"meet": (0,), "join": (0,), "zero": (0,), "one": (0,)})
    eta = canonical_embedding(single, DL)
    assert eta.is_isomorphism
    assert eta.comp_algebra.size == 1


# --- the counit -----------------------------------------------------------------

def test_evaluation_bijective_on_full_power():
    X = full_function_space(discrete_topology(2), DL)
    ev = evaluation_map(X)
    assert ev.is_injective and ev.is_surjective


def test_evaluation_not_injective_on_constants():
    X = constants_space(discrete_topology(2), DL)
    ev = evaluation_map(X)
    assert not ev.is_injective


def test_evaluation_bijective_on_spectra():
    spec = spectrum(direct_power(DL, 2), DL)
    ev = evaluation_map(spec.space)
    assert ev.is_injective and ev.is_surjective
    assert is_lspace_isomorphism(ev.map)


@pytest.mark.parametrize("entry", dualizer_suite(), ids=lambda e: e.name + str(e.params))
def test_evaluation_map_is_an_lmap(entry):
    # true of every L-space by construction: g after ev is the compatible
    # function g itself, and the preimage of each subbasic open is a fiber of
    # a compatible function, open because compatible functions are continuous
    L = entry.algebra
    tops = [discrete_topology(2), indiscrete_topology(2), SIERPINSKI,
            topology_from_subbasis(3, [mask_of([0, 1]), mask_of([1, 2])])]
    spaces = [full_function_space(top, L) for top in tops]
    rng = random.Random("evaluation|%s|%s" % (entry.name, entry.params))
    spaces += [sample_lspace(L, rng) for _ in range(12)]
    for X in spaces:
        assert is_lmap(evaluation_map(X).map)


# --- property flags ---------------------------------------------------------------

def test_separated_finite_space_is_discrete():
    # property forced by the lemma on separated spaces; checked on samples
    for vectors in [[(0, 1)], [(0, 1), (1, 0)], [(0, 0, 1), (0, 1, 1)]]:
        n = len(vectors[0])
        closed = generate_vectors(DL, n, vectors)
        X = regularize(lspace(discrete_topology(n), DL, closed))
        props = space_properties(X)
        if props.separated:
            assert props.discrete


def test_constants_not_separated():
    props = space_properties(constants_space(discrete_topology(2), DL))
    assert not props.separated


def test_spectra_are_full_separated_regular():
    spec = spectrum(direct_power(L2, 2), L2)
    props = space_properties(spec.space)
    assert props.separated and props.full and props.completely_regular
    assert props.compact


def test_fullness_can_fail_without_constants():
    # over the constant-free lattice reduct the diagonal's constant
    # homomorphisms are not point evaluations
    bare = reduct(DL, ("meet", "join"))
    X = lspace(discrete_topology(2), bare, [(0, 0), (1, 1)])
    props = space_properties(X)
    assert not props.full
    assert not props.separated


# --- separated quotients -----------------------------------------------------------

def test_quotient_of_constants_is_a_point():
    X = constants_space(discrete_topology(2), DL)
    Q, classes = separated_quotient(X)
    assert Q.n == 1
    assert classes == (0, 0)


def test_quotient_of_separated_space_is_itself():
    X = full_function_space(discrete_topology(2), DL)
    Q, classes = separated_quotient(X)
    assert Q.n == X.n
    assert sorted(Q.functions) == sorted(X.functions)


def test_quotient_matches_topological_indistinguishability_when_regular():
    # x and y indistinguishable, z separated; comp generated by (0,0,1)
    comp = generate_vectors(DL, 3, [(0, 0, 1)])
    top = topology_from_subbasis(3, [mask_of([0, 1]), mask_of([2])])
    X = lspace(top, DL, comp)
    assert space_properties(X).completely_regular
    Q, classes = separated_quotient(X)
    assert classes == (0, 0, 1)
    assert space_properties(Q).separated


def test_quotient_preserves_fullness():
    X = constants_space(indiscrete_topology(2), L2)
    assert space_properties(X).full
    Q, _ = separated_quotient(X)
    assert space_properties(Q).full


# --- regularize / discretize ----------------------------------------------------------

def test_regularize_full_power_is_discrete():
    X = full_function_space(discrete_topology(2), DL)
    assert regularize(X).topology.is_discrete()


def test_regularize_constants_is_indiscrete():
    X = constants_space(discrete_topology(2), DL)
    assert regularize(X).topology == indiscrete_topology(2)


def test_regularize_monotone_functions_on_chain():
    monotone = [(0, 0), (0, 1), (1, 1)]
    X = lspace(discrete_topology(2), DL, monotone)
    R = regularize(X)
    # fibers: {x}, {y}, {x,y} and complements arise, so the topology is discrete
    assert R.topology.is_discrete()
    assert regularize(R).topology == R.topology


def test_discretize():
    X = constants_space(indiscrete_topology(2), DL)
    assert discretize(X).topology.is_discrete()


# --- round-trips and naturality ----------------------------------------------------------

def test_roundtrip_dl_square():
    report = check_duality_roundtrip_algebra(direct_power(DL, 2), DL)
    assert report.ok, report.failures


def test_roundtrip_full_discrete_space():
    X = full_function_space(discrete_topology(3), DL)
    report = check_duality_roundtrip_space(X)
    assert report.ok, report.failures


def test_roundtrip_luk2_subalgebras():
    P = direct_power(L2, 2)
    from dualkit.algebras import generate_subalgebra
    universe = generate_subalgebra(P, (power_index(3, (1, 0)),))
    A, _ = subalgebra(P, universe)
    report = check_duality_roundtrip_algebra(A, L2)
    assert report.ok, report.failures


def old_roundtrip_algebra(A, L, gens=None):
    """check_duality_roundtrip_algebra as it was, testing membership in the
    prevariety with its own search of Hom(A, L) before the embedding's."""
    report = RoundtripReport()
    if not in_prevariety(A, L):
        report.record("algebra in prevariety", False, "Hom(A, L) does not separate")
        return report
    eta = canonical_embedding(A, L, gens=gens)
    report.record("eta injective", eta.is_injective)
    report.record("eta isomorphism", eta.is_isomorphism)
    props = space_properties(eta.spectrum.space)
    report.record("spectrum separated", props.separated)
    report.record("spectrum full", props.full)
    report.record("spectrum completely regular", props.completely_regular)
    ev = evaluation_map(eta.spectrum.space)
    for i, values, transported in _spectrum_triangle(eta, ev):
        report.record("triangle on spectrum point %d" % i, transported == values,
                      (values, transported))
    return report


@pytest.mark.parametrize("seed", [0, 7])
def test_roundtrip_reports_are_unchanged_for_one_hom_search_less(monkeypatch, seed):
    """The benchmark's algebra documents at a seed, the one-element and the
    empty algebra, and N5, which is outside the prevariety of dl2.  Inside it
    the check searches Hom(A, L), Hom(Comp Spec A, L) for fullness and again
    for the evaluation map; the prevariety test searched Hom(A, L) a second
    time, except on at most one element."""
    lattice = reduct(DL, ("meet", "join"))
    cases = [(doc.algebra, resolve_algebra(dualizer).algebra)
             for kind, doc, dualizer in _documents(seed) if kind == "algebra"]
    cases += [(direct_power(DL, 0), DL),
              (FiniteAlgebra(lattice.signature, 0, {"meet": (), "join": ()}), lattice),
              (_n5(), DL)]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_homs(*args, **kwargs)

    monkeypatch.setattr(algebras, "enumerate_homs", counting)
    monkeypatch.setattr(spaces, "enumerate_homs", counting)
    outside = 0
    for A, L in cases:
        calls.clear()
        old = old_roundtrip_algebra(A, L)
        old_calls = len(calls)
        calls.clear()
        report = check_duality_roundtrip_algebra(A, L)
        assert report == old
        if report.checked == ["algebra in prevariety"]:
            outside += 1
            assert (old_calls, len(calls)) == (1, 1)
        else:
            assert (old_calls, len(calls)) == (4 if A.size > 1 else 3, 3)
    assert outside == 1 and not report.ok


def test_generators_are_checked_outside_the_prevariety_too():
    """The one change of the single hom search: generators that do not
    generate were not read when A lay outside the prevariety."""
    N5 = _n5()
    assert old_roundtrip_algebra(N5, DL, gens=(0,)).failures == [
        ("algebra in prevariety", "Hom(A, L) does not separate")]
    with pytest.raises(InvalidInput, match="given generators do not generate"):
        check_duality_roundtrip_algebra(N5, DL, gens=(0,))


def _triangle_identities_hold(A, eta, ev) -> bool:
    """Both unit/counit triangles, pointwise on the spectrum of A."""
    # Spec(eta) after ev is the identity on the points of Spec A
    for i, h in enumerate(eta.spectrum.homs):
        point = ev.map.values[i]
        transported = tuple(ev.spectrum.homs[point].values[eta.map.values[a]]
                            for a in A.elements)
        if transported != h.values:
            return False
    # Comp(ev) after eta is the identity on the compatible functions
    for i, vec in enumerate(ev.comp_carrier):
        eta_vec = tuple(h.values[i] for h in ev.spectrum.homs)
        if tuple(eta_vec[ev.map.values[x]] for x in range(len(vec))) != vec:
            return False
    return True


@pytest.mark.parametrize("entry", dualizer_suite(), ids=lambda e: e.name + str(e.params))
def test_triangle_generators_match_the_criterion_check(entry):
    # the check criterion 1 ran before the two triangles had one generator
    # each, on its own draws and on evaluation maps with the points permuted
    L = entry.algebra
    rng = random.Random("triangles|%s" % entry.name)
    outcomes = set()
    for _ in range(25):
        _, _, A, gens = sample_function_algebra(L, rng)
        eta = canonical_embedding(A, L, gens=gens)
        ev = evaluation_map(eta.spectrum.space)
        values = list(ev.map.values)
        shuffled = dataclasses.replace(
            ev, map=dataclasses.replace(ev.map, values=tuple(rng.sample(values, len(values)))))
        for candidate in (ev, shuffled):
            triangles = itertools.chain(_spectrum_triangle(eta, candidate),
                                        _comp_triangle(candidate))
            held = all(want == got for _, want, got in triangles)
            assert held == _triangle_identities_hold(A, eta, candidate)
            outcomes.add(held)
        report = check_duality_roundtrip_algebra(A, L, gens=gens)
        points = ["triangle on spectrum point %d" % i for i in range(len(eta.spectrum.homs))]
        assert [name for name in report.checked if name.startswith("triangle")] == points
    assert outcomes == {True, False}


def test_naturality_square():
    P = direct_power(DL, 2)
    for h in enumerate_homs(P, DL):
        report = check_naturality(h, DL)
        assert report.ok, report.failures


def test_spec_contravariant():
    P = direct_power(DL, 2)
    for h in enumerate_homs(P, DL):          # h : P -> DL
        for g in enumerate_homs(DL, DL):     # g : DL -> DL
            assert spec_contravariant_check(h, g, DL)


# --- L-maps ---------------------------------------------------------------------------

def test_identity_is_lmap():
    X = full_function_space(discrete_topology(2), DL)
    assert is_lmap(LMap(X, X, (0, 1)))


def test_collapse_to_constants_space():
    X = full_function_space(discrete_topology(2), DL)
    Y = constants_space(discrete_topology(1), DL)
    assert is_lmap(LMap(X, Y, (0, 0)))


def test_non_lmap_detected():
    X = constants_space(discrete_topology(2), DL)
    Y = full_function_space(discrete_topology(2), DL)
    # identity points, but Y has functions that do not pull back to constants
    assert not is_lmap(LMap(X, Y, (0, 1)))


def test_lspace_rejects_discontinuous_functions():
    with pytest.raises(InvalidInput):
        lspace(indiscrete_topology(2), DL, [(0, 1), (0, 0), (1, 1)])


def test_lspace_rejects_non_subuniverse():
    with pytest.raises(InvalidInput):
        lspace(discrete_topology(2), DL, [(0, 1)])


# --- Comp X, tabulated by validation or read off a trusted construction ---------------

def _assert_comp_is_tabulated(X):
    """Comp X is the tabulation of X's functions, and full validation
    accepts X (which spectrum and func skip) and tabulates the same Comp X."""
    comp, carrier = X.comp_algebra()
    expected, expected_carrier = algebra_from_vectors(X.dualizer, X.n, X.functions)
    assert comp == expected
    assert isinstance(carrier, tuple) and carrier == tuple(expected_carrier)
    validated = lspace(X.topology, X.dualizer, X.functions)
    assert validated == X
    assert validated.comp_algebra() == (comp, carrier)


@pytest.mark.parametrize("entry", dualizer_suite(), ids=lambda e: e.name + str(e.params))
def test_comp_algebra_is_the_tabulation_validation_built(entry):
    L = entry.algebra
    rng = random.Random("comp-from-validation|%r" % (entry,))
    for _ in range(15):
        _, _, A, gens = sample_function_algebra(L, rng)
        for X in (sample_lspace(L, rng), spectrum(A, L, gens=gens).space):
            for Y in (X, regularize(X), discretize(X), separated_quotient(X)[0],
                      func(cons(X, 2))):
                _assert_comp_is_tabulated(Y)


@pytest.mark.parametrize("entry", dualizer_suite(), ids=lambda e: e.name + str(e.params))
def test_criterion_one_spectra_pass_validation(entry):
    """Spec A and Spec Comp Spec A on all of criterion 1's draws at seed 0."""
    L = entry.algebra
    rng = random.Random("0|roundtrip|%s" % entry_label(entry))
    for _ in range(200):
        _, _, A, gens = sample_function_algebra(L, rng)
        X = spectrum(A, L, gens=gens).space
        _assert_comp_is_tabulated(X)
        _assert_comp_is_tabulated(spectrum(X.comp_algebra()[0], L).space)


def test_spectrum_of_the_empty_algebra():
    names = [n for n in L2.signature.names if n not in ("zero", "one")]
    bare = reduct(L2, names)
    empty = FiniteAlgebra(bare.signature, 0, {n: () for n in names})
    X = spectrum(empty, bare).space
    assert X.n == 1 and X.functions == frozenset()
    assert X.comp_algebra() == (empty, ())
    _assert_comp_is_tabulated(X)


def _docgen():
    path = Path(__file__).resolve().parents[1] / "bench" / "docgen.py"
    spec = importlib.util.spec_from_file_location("docgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 7])
def test_comp_algebra_on_the_benchmark_documents(tmp_path, seed):
    """Every L-space the ``documents`` workload reads, builds with ``func``
    or gets as a spectrum."""
    commands = _docgen().generate(seed, str(tmp_path))
    dualizers = {argv[1]: argv[argv.index("--dualizer") + 1]
                 for _, argv in commands if "--dualizer" in argv[2:]}
    checked = 0
    for path in sorted(tmp_path.iterdir()):
        text = path.read_text()
        kind = parse_document(text).get("kind")
        if kind == "lspace":
            space = parse_space(text).space
        elif kind.startswith("constrained"):
            space = func(parse_space(text).space)
        elif kind == "algebra":
            L = resolve_algebra(dualizers[str(path)]).algebra
            space = spectrum(parse_algebra(text).algebra, L).space
        else:
            continue
        _assert_comp_is_tabulated(space)
        checked += 1
    assert checked == 94


def _count_images(monkeypatch):
    calls = []
    images = algebras._images

    def counting(A, rows):
        calls.append(len(rows))
        return images(A, rows)

    monkeypatch.setattr(algebras, "_images", counting)
    return calls


def test_unit_and_counit_run_no_closure_lookup(monkeypatch):
    """canonical_embedding reads Comp Spec A off A's tables, and
    evaluation_map reads Comp Spec Comp Spec A off Comp Spec A's."""
    calls = _count_images(monkeypatch)
    eta = canonical_embedding(direct_power(DL, 2), DL)
    evaluation_map(eta.spectrum.space)
    for _ in range(3):
        eta.spectrum.space.comp_algebra()
    assert calls == []


def test_func_tabulates_comp_on_first_read(monkeypatch):
    X = full_function_space(discrete_topology(2), DL)
    constrained = cons(X, 2)
    calls = _count_images(monkeypatch)
    Y = func(constrained)
    assert calls == []
    for _ in range(3):
        assert Y.comp_algebra() == X.comp_algebra()
    assert calls == [len(X.functions)]
