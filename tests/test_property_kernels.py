"""The property checks against the loops they replaced.

``properties.jonsson_finite_cover_check`` tests partitions, not covers;
``properties._is_distributive`` compares numbered congruences, the order
check of ``congruence_spectrum_antiisomorphism`` reads covering pairs of
subsets only, and the kernels it compares are meets of one-hom kernels;
``terms._convex_within`` gathers one table slice per position, and
``constrained.local_to_global_verify`` asks it once per distinct pair of
masks; ``properties.chinese_remainder_sweep`` solves each sub-system once.
The old loops stay here as oracles, and the work each new check does is
counted, not timed.
"""

import functools
import importlib.util
import itertools
import random
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from dualkit import algebras, constrained, properties, terms
from dualkit.algebras import (
    Congruence,
    algebra_from_vectors,
    direct_power,
    enumerate_homs,
    generate_vectors,
    in_prevariety,
    relative_congruences,
    total_congruence,
)
from dualkit.catalog import bool2, dl2, luk, posluk, reduct
from dualkit.corpus import dualizer_suite, entry_label, sample_function_algebra
from dualkit.constrained import ConstrainedSpace, bits_of, local_to_global_verify
from dualkit.fileformat import parse_algebra, parse_document, parse_space, resolve_algebra
from dualkit.properties import (
    all_covers,
    congruence_spectrum_antiisomorphism,
    jonsson_finite_cover_check,
    partial_endomorphisms,
)
from dualkit.spaces import spectrum
from dualkit.topology import mask_of, topology_from_subbasis
from dualkit.terms import TermFunction, pad_nu_function, search_nu_function
from test_join_closure import _set_algebra, chain
from test_table_gather import old_all_congruences, old_relative_congruences

DL = dl2().algebra
BA = bool2().algebra
L2 = luk(2).algebra
PL2 = posluk(2).algebra

DUALIZERS = {
    "bool2": BA, "dl2": DL, "luk(2)": L2, "posluk(2)": PL2,
    # constant-free reducts: constant homomorphisms appear, and some of them
    # factor through no part of a cover
    "dl2 lattice": reduct(DL, ("meet", "join")),
    "bool2 lattice": reduct(BA, ("meet", "join")),
    "luk(2) oplus": reduct(L2, ("oplus",)),
    "luk(2) lattice+neg": reduct(L2, ("meet", "join", "neg")),
    "posluk(2) odot": reduct(PL2, ("odot", "join")),
}


def _docgen():
    path = Path(__file__).resolve().parents[1] / "bench" / "docgen.py"
    spec = importlib.util.spec_from_file_location("docgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def _documents(seed):
    """(kind, parsed document, dualizer reference) of every document the
    ``documents`` workload reads at ``seed``."""
    with tempfile.TemporaryDirectory() as directory:
        commands = _docgen().generate(seed, directory)
        dualizers = {argv[1]: argv[argv.index("--dualizer") + 1]
                     for _, argv in commands if "--dualizer" in argv[2:]}
        out = []
        for path in sorted(Path(directory).iterdir()):
            text = path.read_text()
            kind = parse_document(text).get("kind")
            if kind == "algebra":
                out.append((kind, parse_algebra(text), dualizers[str(path)]))
            elif kind == "lspace" or kind.startswith("constrained"):
                out.append((kind, parse_space(text), None))
        return tuple(out)


# chains and Boolean lattices of up to 7 elements, with their dualizer
SMALL_ALGEBRAS = ([("chain(%d)" % n, chain(n), DL) for n in range(1, 8)]
                  + [("2^%d over %s" % (k, name), direct_power(L, k), L)
                     for k in range(3) for name, L in (("dl2", DL), ("bool2", BA))])


# --- the Jonsson property ------------------------------------------------------

def old_jonsson(L, x_size, functions, covers=None):
    """The check as it was: every cover, every part, one grouping each."""
    if covers is None:
        covers = all_covers(x_size, max_parts=min(3, max(x_size, 1)))
    comp, carrier = algebra_from_vectors(L, x_size, functions)
    homs = sorted(enumerate_homs(comp, L), key=lambda h: h.values)
    for h in homs:
        for cover in covers:
            factored = False
            for part in cover:
                groups = {}
                ok = True
                for i, vec in enumerate(carrier):
                    key = tuple(vec[p] for p in sorted(part))
                    if groups.setdefault(key, h.values[i]) != h.values[i]:
                        ok = False
                        break
                if ok:
                    factored = True
                    break
            if not factored:
                return properties.JonssonVerdict(False, (h.values, cover))
    return properties.JonssonVerdict(True, None)


def _random_lspaces(rng, L, count, max_points):
    for _ in range(count):
        x = rng.randint(0, max_points)
        seeds = [tuple(rng.randrange(L.size) for _ in range(x))
                 for _ in range(rng.randint(0, 3))]
        yield x, sorted(generate_vectors(L, x, seeds))


def _assert_same_jonsson(L, x, functions):
    new = jonsson_finite_cover_check(L, x, functions)
    old = old_jonsson(L, x, functions)
    assert new == old
    assert repr(new.witness) == repr(old.witness)
    return new


@pytest.mark.parametrize("name", sorted(DUALIZERS))
def test_jonsson_matches_all_covers_on_random_lspaces(name):
    L = DUALIZERS[name]
    rng = random.Random("jonsson|" + name)
    failures = 0
    for x, functions in _random_lspaces(rng, L, 40, 4):
        failures += not _assert_same_jonsson(L, x, functions).passed
    if name in ("dl2 lattice", "bool2 lattice", "luk(2) oplus"):
        assert failures        # the witnesses compared include failing ones


def test_jonsson_matches_all_covers_on_spectra_of_small_algebras():
    for _, A, L in SMALL_ALGEBRAS:
        X = spectrum(A, L).space
        assert _assert_same_jonsson(L, X.n, sorted(X.functions)).passed


@pytest.mark.parametrize("seed", [0, 7])
def test_jonsson_matches_all_covers_on_the_benchmark_lspaces(seed):
    checked = 0
    for kind, doc, _ in _documents(seed):
        if kind == "lspace":
            _assert_same_jonsson(doc.dualizer.algebra, doc.space.n, sorted(doc.space.functions))
            checked += 1
    assert checked == 30


def test_given_covers_are_used_as_given():
    rng = random.Random("given covers")
    for name, L in sorted(DUALIZERS.items()):
        for x, functions in _random_lspaces(rng, L, 10, 3):
            subsets = [frozenset(s) for r in range(x + 1)
                       for s in itertools.combinations(range(x), r)]
            for _ in range(5):
                # any families, covering or not, with the empty part too
                covers = [tuple(rng.sample(subsets, rng.randint(0, min(3, len(subsets)))))
                          for _ in range(rng.randint(0, 4))]
                new = jonsson_finite_cover_check(L, x, functions, covers=covers)
                assert new == old_jonsson(L, x, functions, covers=covers)


def test_a_given_part_past_the_points_raises_as_it_did():
    functions = generate_vectors(DL, 2, [(0, 1)])
    for check in (jonsson_finite_cover_check, old_jonsson):
        with pytest.raises(IndexError):
            check(DL, 2, functions, covers=[(frozenset({2}),)])


def _stirling2(n, k):
    if n == k:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_jonsson_examines_each_partition_into_at_most_three_blocks_once(monkeypatch):
    seen = []
    partitions = properties._set_partitions

    def counting(x_size, max_blocks):
        for partition in partitions(x_size, max_blocks):
            seen.append(partition)
            yield partition

    monkeypatch.setattr(properties, "_set_partitions", counting)
    for x in range(9):
        seen.clear()
        functions = generate_vectors(DL, x, [(0,) * (x - i) + (1,) * i for i in range(x + 1)])
        assert jonsson_finite_cover_check(DL, x, functions).passed
        assert len(seen) == len(set(seen)) == sum(_stirling2(x, k) for k in (1, 2, 3))
        for partition in seen:
            assert 1 <= len(partition) <= 3 and all(partition)
            assert sorted(itertools.chain(*partition)) == list(range(x))
    assert sum(_stirling2(8, k) for k in (1, 2, 3)) == 1094


def test_first_failing_cover_is_found_without_listing_every_cover(monkeypatch):
    """The witness search walks the covers in order, through the parts that
    fail; it never calls all_covers."""
    bare = DUALIZERS["dl2 lattice"]
    cases = list(_random_lspaces(random.Random("witness"), bare, 30, 4))
    expected = [old_jonsson(bare, x, functions) for x, functions in cases]
    monkeypatch.setattr(properties, "all_covers", None)
    assert [jonsson_finite_cover_check(bare, x, functions) for x, functions in cases] == expected
    assert not all(verdict.passed for verdict in expected)


def test_all_covers_keeps_its_list():
    """Families of distinct nonempty parts, by size, then lexicographically
    in the order of the parts (by size, then lexicographically)."""
    assert all_covers(0, 1) == [()]
    for x in range(1, 6):
        parts = sorted(range(1, 1 << x), key=lambda b: (bin(b).count("1"),
                                                         bits_of(b)))
        expected = [tuple(frozenset(bits_of(b)) for b in family)
                    for size in range(1, 4)
                    for family in itertools.combinations(parts, size)
                    if functools.reduce(int.__or__, family) == (1 << x) - 1]
        assert all_covers(x, 3) == expected
    assert len(all_covers(6, 3)) == 19245


# --- distributivity and the order check --------------------------------------------

def old_is_distributive(thetas):
    """The triple loop over Con A's meet and join, each pair computed once."""
    join = functools.lru_cache(maxsize=None)(Congruence.join)
    meet = functools.lru_cache(maxsize=None)(Congruence.meet)
    return all(meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
               for x in thetas for y in thetas for z in thetas)


def old_spectrum(A, L):
    """congruence_spectrum_antiisomorphism as it was, with the order checked
    on all 4^|homs| pairs of subsets, and the kernels compared with the
    relative congruences found over Con A."""
    failures = []
    if L.size < 2:
        failures.append("dualizer is trivial")
    if not partial_endomorphisms(L).all_trivial:
        failures.append("dualizer has nontrivial partial endomorphisms")
    if not in_prevariety(A, L):
        failures.append("algebra is not in the prevariety")
    thetas = old_relative_congruences(A, L)
    if not old_is_distributive(thetas):
        failures.append("relative congruence lattice is not distributive")
    if failures:
        return properties.CongruenceSpectrumReport(False, tuple(failures), 0, len(thetas),
                                                   False, False)
    homs = sorted(enumerate_homs(A, L), key=lambda h: h.values)
    kernels = {}
    for mask in range(1 << len(homs)):
        chosen = [homs[i] for i in range(len(homs)) if mask & (1 << i)]
        profile = [tuple(h.values[a] for h in chosen) for a in A.elements]
        kernels[mask] = Congruence.from_blocks(profile)
    bijective = (len(set(kernels.values())) == len(kernels)
                 and set(kernels.values()) == set(thetas))
    order_reversing = all(kernels[big].leq(kernels[small])
                          for small in kernels for big in kernels if small & big == small)
    ok = bijective and order_reversing
    return properties.CongruenceSpectrumReport(ok, (), len(homs), len(thetas), bijective,
                                               order_reversing)


def test_spectrum_matches_the_triple_loop_on_chains_and_boolean_lattices():
    for label, A, L in SMALL_ALGEBRAS:
        report = congruence_spectrum_antiisomorphism(A, L)
        assert report == old_spectrum(A, L), label
        assert report.ok, label


@pytest.mark.parametrize("seed", [0, 7])
def test_spectrum_matches_the_triple_loop_on_the_benchmark_algebras(seed):
    checked = 0
    for kind, doc, dualizer in _documents(seed):
        if kind == "algebra":
            L = resolve_algebra(dualizer).algebra
            assert congruence_spectrum_antiisomorphism(doc.algebra, L) == old_spectrum(
                doc.algebra, L)
            assert relative_congruences(doc.algebra, L) == old_relative_congruences(
                doc.algebra, L)
            checked += 1
    assert checked == 20


@pytest.mark.parametrize("name", sorted(DUALIZERS))
def test_spectrum_matches_the_triple_loop_on_random_subalgebras(name):
    """Generated subalgebras of small powers; the reducts fail hypotheses."""
    L = DUALIZERS[name]
    rng = random.Random("spectrum|" + name)
    for _ in range(6):
        length = rng.randint(1, 3)
        seeds = [tuple(rng.randrange(L.size) for _ in range(length))
                 for _ in range(rng.randint(1, 2))]
        A, _ = algebra_from_vectors(L, length, generate_vectors(L, length, seeds))
        assert congruence_spectrum_antiisomorphism(A, L) == old_spectrum(A, L)


def test_distributivity_matches_the_triple_loop_off_the_relative_congruences():
    """Partition lattices are not distributive, and in subsets of them
    joins and meets leave the set."""
    rng = random.Random("distributive")
    verdicts = set()
    for n in range(5):
        partitions = old_all_congruences(_set_algebra(n))
        assert properties._is_distributive(partitions) == old_is_distributive(partitions)
        for _ in range(40):
            thetas = rng.sample(partitions, rng.randint(0, min(6, len(partitions))))
            verdict = properties._is_distributive(thetas)
            assert verdict == old_is_distributive(thetas)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    assert not properties._is_distributive(old_all_congruences(_set_algebra(3)))


def test_each_join_of_relative_congruences_is_computed_once(monkeypatch):
    joins = []
    join = Congruence.join

    def counting(self, other):
        joins.append((self, other))
        return join(self, other)

    for label, A, L in SMALL_ALGEBRAS:
        thetas = relative_congruences(A, L)
        joins.clear()
        monkeypatch.setattr(Congruence, "join", counting)
        assert properties._is_distributive(thetas)
        monkeypatch.undo()
        assert len(joins) <= len(thetas) * (len(thetas) + 1) // 2, label
        assert len({frozenset(pair) for pair in joins}) == len(joins), label


def test_order_check_reads_covering_pairs_only(monkeypatch):
    calls = []
    leq = Congruence.leq

    def counting(self, other):
        calls.append(1)
        return leq(self, other)

    monkeypatch.setattr(Congruence, "leq", counting)
    report = congruence_spectrum_antiisomorphism(chain(7), DL)
    assert report.ok and report.spectrum_size == 6
    assert len(calls) <= 6 * 2 ** 5


def old_subset_kernels(A, homs):
    """The kernel of each subset of ``homs``, at its mask, from the subset's
    value profile, as the spectrum check built them."""
    kernels = []
    for mask in range(1 << len(homs)):
        chosen = [homs[i] for i in range(len(homs)) if mask & (1 << i)]
        profile = [tuple(h.values[a] for h in chosen) for a in A.elements]
        kernels.append(Congruence.from_blocks(profile))
    return kernels


def _report_kernels(monkeypatch, A, L):
    """The kernels ``_spectrum_report`` compares, read off the meets it
    makes from the sorted homs; the relative congruences and the checks
    before the kernels are passed, so that every algebra, of any size,
    reaches them.  The algebras given are in the prevariety."""
    monkeypatch.setattr(properties, "_kernel_meets", lambda A, homs, budget: [])
    monkeypatch.setattr(properties, "partial_endomorphisms",
                        lambda L, budget: SimpleNamespace(all_trivial=True))
    monkeypatch.setattr(properties, "_is_distributive", lambda thetas: True)
    meets = []
    meet = Congruence.meet

    def recording(self, other):
        meets.append(meet(self, other))
        return meets[-1]

    monkeypatch.setattr(Congruence, "meet", recording)
    properties._spectrum_report(A, L, properties.DEFAULT_BUDGET)
    monkeypatch.undo()
    return [total_congruence(A)] + meets


@pytest.mark.parametrize("seed", [None, 0, 7], ids=["lattices", "documents-0", "documents-7"])
def test_subset_kernels_are_the_per_subset_profiles(monkeypatch, seed):
    """Chains of 1 to 12 elements and Boolean lattices 2^0 to 2^3 over dl2,
    or the algebra documents of the benchmark at a seed."""
    if seed is None:
        cases = ([(chain(n), DL) for n in range(1, 13)]
                 + [(direct_power(DL, k), DL) for k in range(4)])
    else:
        cases = [(doc.algebra, resolve_algebra(dualizer).algebra)
                 for kind, doc, dualizer in _documents(seed) if kind == "algebra"]
        assert len(cases) == 20
    for A, L in cases:
        homs = sorted(enumerate_homs(A, L), key=lambda h: h.values)
        assert _report_kernels(monkeypatch, A, L) == old_subset_kernels(A, homs)


def test_spectrum_budget_counts_subsets_of_the_spectrum():
    """The dl2 square has 4 congruences and 4 subsets of Spec A; at budget 3
    the congruence sweep stops before the spectrum search starts."""
    square = direct_power(DL, 2)
    assert congruence_spectrum_antiisomorphism(square, DL, budget=4).ok
    with pytest.raises(properties.BudgetExceeded, match="congruence lattice exceeds budget"):
        congruence_spectrum_antiisomorphism(square, DL, budget=3)


def test_spectrum_report_searches_hom_once(monkeypatch):
    # the relative congruences and the spectrum are read off one Hom(A, L);
    # the dualizer's partial endomorphisms search homs between its parts
    searched, search = [], properties.enumerate_homs

    def searching(A, B, gens=None):
        searched.append((A.size, B.size))
        return search(A, B, gens)

    for module in (algebras, properties):
        monkeypatch.setattr(module, "enumerate_homs", searching)
    assert congruence_spectrum_antiisomorphism(direct_power(DL, 2), DL).ok
    assert searched.count((4, 2)) == 1


def test_spectrum_search_stops_past_its_own_budget(monkeypatch):
    # the relative congruences are met at the default budget, so that the
    # spectrum search, not the congruence sweep, meets the budget given
    meets = properties._kernel_meets
    monkeypatch.setattr(properties, "_kernel_meets",
                        lambda A, homs, budget: meets(A, homs, properties.DEFAULT_BUDGET))
    square = direct_power(DL, 2)
    assert properties._spectrum_report(square, DL, 4)[1].ok
    with pytest.raises(properties.BudgetExceeded) as raised:
        properties._spectrum_report(square, DL, 3)
    assert str(raised.value) == ("congruence spectrum search over the 2^2 subsets of Spec A "
                                 "exceeds budget 3")


# --- Spec A is discrete ---------------------------------------------------------

def old_spectrum_topology(A, L, gens=None):
    """The topology of Spec A as ``spectrum`` built it, from the subbasis
    U_{a -> w}."""
    homs = sorted(enumerate_homs(A, L, gens=gens), key=lambda h: h.values)
    vectors = [tuple(h.values[a] for h in homs) for a in A.elements]
    subbasis = [mask_of(i for i, v in enumerate(vec) if v == w)
                for vec in vectors for w in L.elements]
    return topology_from_subbasis(len(homs), subbasis)


def _spectrum_inputs():
    """(A, L, gens) for the algebras criteria 1, 6 and 9 take spectra of at
    seed 0, drawn as they draw them, and the benchmark's algebra documents
    at seeds 0 and 7."""
    for entry in dualizer_suite():
        rng = random.Random("0|roundtrip|%s" % entry_label(entry))
        for _ in range(200):
            _, _, A, gens = sample_function_algebra(entry.algebra, rng)
            yield A, entry.algebra, gens
    for entry in (dl2(), luk(2)):
        rng = random.Random("0|congruences|%s" % entry_label(entry))
        for _ in range(25):
            _, _, A, _ = sample_function_algebra(entry.algebra, rng, 3 if entry.algebra.size == 2 else 2)
            yield A, entry.algebra, None
    yield direct_power(DL, 2), DL, None
    g1, g2 = (0, 0, 1, 1), (0, 1, 0, 1)
    free, carrier = algebra_from_vectors(DL, 4, generate_vectors(DL, 4, [g1, g2]))
    yield free, DL, (carrier.index(g1), carrier.index(g2))
    for seed in (0, 7):
        for kind, doc, dualizer in _documents(seed):
            if kind == "algebra":
                yield doc.algebra, resolve_algebra(dualizer).algebra, None


def test_spectrum_topology_is_the_subbasis_topology():
    count = 0
    for A, L, gens in _spectrum_inputs():
        top = spectrum(A, L, gens=gens).space.topology
        old = old_spectrum_topology(A, L, gens)
        assert (top.n, top.nbhds) == (old.n, old.nbhds)
        count += 1
    assert count == 1000 + 50 + 1 + 1 + 40
    # past MAX_POINTS both raise alike: the 21-element chain has 22
    # homomorphisms to the two-element lattice
    lattice = reduct(DL, ("meet", "join"))
    A = algebra_from_vectors(lattice, 20, [(0,) * (20 - i) + (1,) * i for i in range(21)])[0]
    for build in (lambda: spectrum(A, lattice), lambda: old_spectrum_topology(A, lattice)):
        with pytest.raises(properties.BudgetExceeded, match="too many points for an explicit topology"):
            build()


# --- convexity -------------------------------------------------------------------

def old_convex_within(L, m, subset, ambient):
    """One table lookup per argument tuple."""
    subset, ambient = sorted(subset), sorted(ambient)
    for pos in range(m.arity):
        for inside in itertools.product(subset, repeat=m.arity - 1):
            for odd in ambient:
                args = inside[:pos] + (odd,) + inside[pos:]
                index = 0
                for a in args:
                    index = index * L.size + a
                if m.table[index] not in subset:
                    return False
    return True


def _term_functions(rng):
    for L in (DL, BA, L2, PL2, luk(3).algebra):
        m = search_nu_function(L, 3)
        yield L, m
        yield L, pad_nu_function(L, m, 4)
        for arity in (1, 2, 3):
            yield L, TermFunction(arity, tuple(rng.randrange(L.size)
                                               for _ in range(L.size ** arity)))


def test_convexity_matches_the_tuple_loop():
    rng = random.Random("convex")
    outcomes = set()
    for L, m in _term_functions(rng):
        for subset in itertools.chain.from_iterable(
                itertools.combinations(L.elements, r) for r in range(L.size + 1)):
            for _ in range(3):
                ambient = rng.sample(L.elements, rng.randint(0, L.size))
                verdict = terms._convex_within(L, m, subset, ambient)
                assert verdict == old_convex_within(L, m, subset, ambient)
                outcomes.add(verdict)
    assert outcomes == {True, False}


def _benchmark_constrained(seed):
    return [doc.space for kind, doc, _ in _documents(seed)
            if kind.startswith("constrained") and isinstance(doc.space, ConstrainedSpace)]


def _mask_pairs(space):
    """The (possible-extension mask, fiber mask) pairs local_to_global_verify
    meets, listed as the old loop visited them."""
    n, size = space.n, space.dualizer.size

    def fields(row):        # the value masks of a packed row, |L| + 1 bits per point
        return [row >> q * (size + 1) & (1 << size) - 1 for q in range(n)]

    fibers = fields(constrained._table(space, ())[0])
    pairs = []
    for I, funs, _ in constrained._local_functions(space, space.k - 1):
        for g in funs:
            row = fields(constrained._table(space, I)[constrained.power_index(size, g)])
            pairs.extend((row[y] & fibers[y], fibers[y]) for y in range(n) if y not in I)
    return pairs


@pytest.mark.parametrize("seed", [0, 7])
def test_each_extension_set_is_tested_once(monkeypatch, seed):
    spaces = _benchmark_constrained(seed)
    assert len(spaces) == 44
    visits = distinct = 0
    for space in spaces:
        m = search_nu_function(space.dualizer, space.k + 1)
        expected = local_to_global_verify(space, m)
        calls = []

        def counting(L, m, subset, ambient):
            calls.append((tuple(subset), tuple(ambient)))
            return old_convex_within(L, m, subset, ambient)

        monkeypatch.setattr(constrained, "_convex_within", counting)
        assert local_to_global_verify(space, m) == expected
        monkeypatch.undo()
        pairs = _mask_pairs(space)
        assert len(calls) == len(set(calls)) == len(set(pairs))
        assert set(calls) == {(bits_of(a & f), bits_of(f)) for a, f in pairs}
        visits, distinct = visits + len(pairs), distinct + len(calls)
    assert distinct < visits


def test_a_non_convex_set_still_raises_once_remembered(monkeypatch):
    space = _benchmark_constrained(0)[0]
    m = search_nu_function(space.dualizer, space.k + 1)
    monkeypatch.setattr(constrained, "_convex_within", lambda *args: False)
    with pytest.raises(AssertionError, match="not convex"):
        local_to_global_verify(space, m)


# --- Chinese remainder ---------------------------------------------------------------

def old_crp_sweep(A, L, k, max_equations):
    """The sweep as it was: every sub-system of every system solved anew."""
    pool = [(a, theta) for theta in relative_congruences(A, L) for a in A.elements]
    checked = 0
    for size in range(1, max_equations + 1):
        for system in itertools.combinations_with_replacement(pool, size):
            k_wise = True
            for sub_size in range(1, min(k, len(system)) + 1):
                for sub in itertools.combinations(system, sub_size):
                    if properties._solve_system(A, sub) is None:
                        k_wise = False
            checked += 1
            if k_wise and properties._solve_system(A, system) is None:
                return checked, list(system)
    return checked, None


def test_crp_sweep_solves_each_sub_system_once(monkeypatch):
    calls = []
    solve = properties._solve_system

    def counting(A, system):
        calls.append(tuple(system))
        return solve(A, system)

    old_calls = new_calls = 0
    for kind, doc, dualizer in _documents(0):
        if kind != "algebra":
            continue
        A, L = doc.algebra, resolve_algebra(dualizer).algebra
        bound = 3 if A.size <= 4 else 2
        monkeypatch.setattr(properties, "_solve_system", counting)
        calls.clear()
        expected = old_crp_sweep(A, L, 2, bound)
        old_calls += len(calls)
        calls.clear()
        assert properties.chinese_remainder_sweep(A, L, 2, bound) == expected
        monkeypatch.undo()
        assert len(calls) == len(set(calls)) <= expected[0]
        new_calls += len(calls)
    assert new_calls < old_calls / 3


def test_crp_sweep_finds_the_first_failing_system():
    """A dualizer with unsolvable pairwise-solvable systems: the witness and
    the count of systems checked match the old loop."""
    rng = random.Random("crp")
    compared = failing = 0
    for name in ("dl2 lattice", "luk(2) oplus", "posluk(2) odot"):
        L = DUALIZERS[name]
        for _ in range(4):
            seeds = [tuple(rng.randrange(L.size) for _ in range(2)) for _ in range(2)]
            A, _ = algebra_from_vectors(L, 2, generate_vectors(L, 2, seeds))
            for k in (1, 2):
                expected = old_crp_sweep(A, L, k, 3)
                assert properties.chinese_remainder_sweep(A, L, k, 3) == expected
                compared += 1
                failing += expected[1] is not None
    assert compared == 24
    assert failing
