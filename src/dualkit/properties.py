"""Hypothesis-side checks for the CD/NU duality theorems.

Partial endomorphisms, classification of the subalgebras of L x L,
Baker-Pixley interpolation, Chinese remainder instances, the Jonsson
finite-cover property, the congruence/spectrum anti-isomorphism, and the
Helly-style intersection of convex sets.  Everything is decided by
exhaustive search at the configured scale; sampled sweeps are documented
falsification attempts, not proofs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebras import (
    DEFAULT_BUDGET,
    Congruence,
    FiniteAlgebra,
    InvalidInput,
    algebra_from_vectors,
    direct_power,
    enumerate_homs,
    generate_vectors,
    in_prevariety,
    is_congruence,
    power_index,
    power_tuple,
    relative_congruences,
    subalgebra,
    subuniverses,
)
from .spaces import _separates_points
from .terms import TermFunction, check_near_unanimity, is_convex, search_nu_function


# --- partial endomorphisms ----------------------------------------------------

@dataclass(frozen=True)
class PartialEndomorphism:
    domain: tuple[int, ...]       # subuniverse of L, ascending
    values: tuple[int, ...]       # images, aligned with domain
    is_inclusion: bool


@dataclass(frozen=True)
class PartialEndomorphismReport:
    endomorphisms: tuple[PartialEndomorphism, ...]
    all_trivial: bool


def partial_endomorphisms(L: FiniteAlgebra,
                          budget: int = DEFAULT_BUDGET) -> PartialEndomorphismReport:
    """Every homomorphism C -> L for every subalgebra C of L."""
    out = []
    for universe in subuniverses(L, budget=budget):
        C, old = subalgebra(L, universe)
        for h in enumerate_homs(C, L):
            values = tuple(h.values[i] for i in range(len(old)))
            out.append(PartialEndomorphism(old, values, values == old))
    out.sort(key=lambda e: (len(e.domain), e.domain, e.values))
    return PartialEndomorphismReport(tuple(out), all(e.is_inclusion for e in out))


# --- subalgebras of the square ------------------------------------------------

@dataclass(frozen=True)
class SquareSubalgebraClass:
    pairs: tuple[tuple[int, int], ...]
    tag: str                                  # "subdiagonal" | "product" | "other"
    factors: tuple[tuple[int, ...], tuple[int, ...]] | None


@dataclass(frozen=True)
class SquareClassification:
    classes: tuple[SquareSubalgebraClass, ...]
    only_subdiagonal_or_product: bool


def classify_square_subalgebras(L: FiniteAlgebra,
                                budget: int = DEFAULT_BUDGET) -> SquareClassification:
    """Complete enumeration of Sub(L^2) with one tag per subalgebra."""
    square = direct_power(L, 2, budget=budget)
    classes = []
    for universe in subuniverses(square, budget=budget):
        pairs = tuple(sorted(power_tuple(L.size, 2, u) for u in universe))
        left = tuple(sorted({a for a, _ in pairs}))
        right = tuple(sorted({b for _, b in pairs}))
        if all(a == b for a, b in pairs):
            tag, factors = "subdiagonal", None
        elif len(pairs) == len(left) * len(right):
            tag, factors = "product", (left, right)
        else:
            tag, factors = "other", None
        classes.append(SquareSubalgebraClass(pairs, tag, factors))
    flag = all(c.tag != "other" for c in classes)
    return SquareClassification(tuple(classes), flag)


# --- interpolation and the Baker-Pixley property -------------------------------

@dataclass(frozen=True)
class InterpolationInstance:
    """An algebra of functions A <= L^X with a candidate function to test."""

    dualizer: FiniteAlgebra
    x_size: int
    functions: frozenset
    candidate: tuple[int, ...]
    k: int


def _projection_sets(functions, subsets):
    return {I: {tuple(g[i] for i in I) for g in functions} for I in subsets}


def _small_subsets(x_size, k):
    out = []
    for r in range(min(k, x_size) + 1):
        out.extend(itertools.combinations(range(x_size), r))
    return out


def is_k_interpolated(inst: InterpolationInstance):
    """True iff some member of A agrees with f on every subset of size <= k.

    Returns (flag, failing subset or None); the empty subset counts, so an
    empty A interpolates nothing.
    """
    if inst.k < 1:
        raise InvalidInput("interpolation arity must be >= 1")
    subsets = _small_subsets(inst.x_size, inst.k)
    projections = _projection_sets(inst.functions, subsets)
    for I in subsets:
        if tuple(inst.candidate[i] for i in I) not in projections[I]:
            return False, I
    return True, None


def separates_at_most(f, functions, x_size: int) -> bool:
    """Wherever all of A agrees, f agrees too."""
    for x in range(x_size):
        for y in range(x + 1, x_size):
            if all(g[x] == g[y] for g in functions) and f[x] != f[y]:
                return False
    return True


@dataclass(frozen=True)
class BPVerdict:
    passed: bool
    counterexample: tuple | None      # (x_size, sorted functions, candidate)
    instances: int
    strategy: str
    seed: int | None = None


def check_finite_bp(L: FiniteAlgebra, k: int, x_bound: int,
                    strategy: str = "exhaustive", seed: int | None = None,
                    samples: int = 500, budget: int = DEFAULT_BUDGET) -> BPVerdict:
    """Finite k-ary Baker-Pixley property at desk scale.

    Exhaustive mode visits every subuniverse of L^X for |X| <= x_bound; for
    k >= 2 only separated representations matter, for k = 1 candidates are
    limited to functions separating at most as much as the representation.
    Sampled mode draws seeded random generated subalgebras instead, as a
    falsification attempt over the same bound.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if strategy not in ("exhaustive", "sampled"):
        raise InvalidInput("strategy must be exhaustive or sampled")
    rng = random.Random(seed)
    instances = 0

    def candidate_algebras():
        if strategy == "exhaustive":
            for x_size in range(x_bound + 1):
                power = direct_power(L, x_size, budget=budget)
                for universe in subuniverses(power, budget=budget):
                    yield x_size, frozenset(power_tuple(L.size, x_size, u) for u in universe)
        else:
            for _ in range(samples):
                x_size = rng.randint(1, x_bound)
                seeds = [tuple(rng.randrange(L.size) for _ in range(x_size))
                         for _ in range(rng.randint(1, 3))]
                yield x_size, frozenset(generate_vectors(L, x_size, seeds, budget=budget))

    for x_size, functions in candidate_algebras():
        if k >= 2 and not _separates_points(functions, x_size):
            continue
        instances += 1
        subsets = _small_subsets(x_size, k)
        projections = _projection_sets(functions, subsets)
        for f in itertools.product(L.elements, repeat=x_size):
            if f in functions:
                continue
            if k == 1 and not separates_at_most(f, functions, x_size):
                continue
            if all(tuple(f[i] for i in I) in projections[I] for I in subsets):
                witness = (x_size, tuple(sorted(functions)), f)
                return BPVerdict(False, witness, instances, strategy, seed)
    return BPVerdict(True, None, instances, strategy, seed)


def check_unary_bp_via_classification(L: FiniteAlgebra, x_bound: int = 2,
                                      budget: int = DEFAULT_BUDGET) -> bool:
    """Unary BP decided as: binary BP plus only subdiagonal/product squares."""
    if not classify_square_subalgebras(L, budget=budget).only_subdiagonal_or_product:
        return False
    if search_nu_function(L, 3, budget=budget) is not None:
        return True
    return check_finite_bp(L, 2, x_bound, budget=budget).passed


# --- Chinese remainder --------------------------------------------------------

@dataclass(frozen=True)
class CRPVerdict:
    k_wise_solvable: bool
    solvable: bool
    solution: int | None

    @property
    def passed(self) -> bool:
        return self.solvable or not self.k_wise_solvable


def _solve_system(A, system):
    for x in A.elements:
        if all(theta.same(x, a) for a, theta in system):
            return x
    return None


def chinese_remainder_check(A: FiniteAlgebra, k: int, system) -> CRPVerdict:
    """One instance of the k-ary Chinese remainder property.

    ``system`` is a list of pairs (element, congruence); congruence-ness of
    each entry is validated, relativity is the caller's responsibility.
    """
    system = list(system)
    for a, theta in system:
        if not 0 <= a < A.size:
            raise InvalidInput("system element outside carrier")
        if not is_congruence(A, theta):
            raise InvalidInput("system entry is not a congruence")
    return _crp_verdict(A, k, system)


def _crp_verdict(A: FiniteAlgebra, k: int, system) -> CRPVerdict:
    """``chinese_remainder_check`` on a system already known to be valid."""
    k_wise = True
    for size in range(1, min(k, len(system)) + 1):
        for sub in itertools.combinations(system, size):
            if _solve_system(A, sub) is None:
                k_wise = False
    solution = _solve_system(A, system)
    return CRPVerdict(k_wise, solution is not None, solution)


def chinese_remainder_sweep(A: FiniteAlgebra, L: FiniteAlgebra, k: int,
                            max_equations: int,
                            budget: int = DEFAULT_BUDGET):
    """All systems over the relative congruences up to the given size.

    Returns (number of systems checked, first failing system or None); a
    failing system is k-wise solvable but globally unsolvable.  Every entry
    comes from ``relative_congruences``, so no system is re-validated.
    """
    thetas = relative_congruences(A, L, budget=budget)
    pool = [(a, theta) for theta in thetas for a in A.elements]
    checked = 0
    for size in range(1, max_equations + 1):
        for system in itertools.combinations_with_replacement(pool, size):
            verdict = _crp_verdict(A, k, system)
            checked += 1
            if not verdict.passed:
                return checked, list(system)
    return checked, None


# --- the Jonsson property for finite covers ------------------------------------

@dataclass(frozen=True)
class JonssonVerdict:
    passed: bool
    witness: tuple | None    # (hom values over the function carrier, cover)


def all_covers(x_size: int, max_parts: int):
    """Every cover of range(x_size) by at most max_parts nonempty subsets."""
    points = range(x_size)
    subsets = [frozenset(s) for r in range(1, x_size + 1)
               for s in itertools.combinations(points, r)]
    full = frozenset(points)
    covers = []
    if x_size == 0:
        covers.append(())          # the empty family covers the empty set
    for parts in range(1, max_parts + 1):
        for family in itertools.combinations(subsets, parts):
            if frozenset().union(*family) == full:
                covers.append(family)
    return covers


def jonsson_finite_cover_check(L: FiniteAlgebra, x_size: int, functions,
                               covers=None) -> JonssonVerdict:
    """Each homomorphism Comp -> L factors through a projection of each cover.

    ``functions`` is a subuniverse of L^X given as vectors.  Factoring
    through pi_Y means ker pi_Y <= ker h, i.e. h is constant on each class
    of agreement-on-Y.
    """
    if covers is None:
        covers = all_covers(x_size, max_parts=min(3, max(x_size, 1)))
    comp, carrier = algebra_from_vectors(L, x_size, functions)
    homs = sorted(enumerate_homs(comp, L), key=lambda h: h.values)
    for h in homs:
        for cover in covers:
            factored = False
            for part in cover:
                groups: dict[tuple, int] = {}
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
                return JonssonVerdict(False, (h.values, cover))
    return JonssonVerdict(True, None)


# --- representation of relative congruences ------------------------------------

@dataclass(frozen=True)
class CongruenceSpectrumReport:
    ok: bool
    hypothesis_failures: tuple[str, ...]
    spectrum_size: int
    relative_count: int
    bijective: bool
    order_reversing: bool


def congruence_spectrum_antiisomorphism(A: FiniteAlgebra, L: FiniteAlgebra,
                                        budget: int = DEFAULT_BUDGET) -> CongruenceSpectrumReport:
    """Y |-> ker pi_Y from subsets of Spec A onto the relative congruences.

    Finite spectra are discrete, so closed subsets are all subsets.  The
    hypotheses of the representation theorem (nontrivial L, trivial partial
    endomorphisms, membership of A in the prevariety, distributivity of the
    relative congruence lattice) are checked, not assumed.
    """
    failures = []
    if L.size < 2:
        failures.append("dualizer is trivial")
    if not partial_endomorphisms(L, budget=budget).all_trivial:
        failures.append("dualizer has nontrivial partial endomorphisms")
    if not in_prevariety(A, L):
        failures.append("algebra is not in the prevariety")
    thetas = relative_congruences(A, L, budget=budget)
    distributive = True
    for x in thetas:
        for y in thetas:
            for z in thetas:
                if x.meet(y.join(z)) != x.meet(y).join(x.meet(z)):
                    distributive = False
    if not distributive:
        failures.append("relative congruence lattice is not distributive")
    if failures:
        return CongruenceSpectrumReport(False, tuple(failures), 0, len(thetas), False, False)

    homs = sorted(enumerate_homs(A, L), key=lambda h: h.values)
    kernels = {}
    for mask in range(1 << len(homs)):
        chosen = [homs[i] for i in range(len(homs)) if mask & (1 << i)]
        profile = [tuple(h.values[a] for h in chosen) for a in A.elements]
        kernels[mask] = Congruence.from_blocks(profile)
    bijective = (len(set(kernels.values())) == len(kernels)
                 and set(kernels.values()) == set(thetas))
    order_reversing = all(
        kernels[big].leq(kernels[small])
        for small in kernels for big in kernels
        if small & big == small
    )
    ok = bijective and order_reversing
    return CongruenceSpectrumReport(ok, (), len(homs), len(thetas), bijective, order_reversing)


# --- Helly-style intersection of convex sets ------------------------------------

@dataclass(frozen=True)
class HellyResult:
    vacuous: bool
    reason: str | None
    ok: bool
    point: int | None


def helly_check(L: FiniteAlgebra, m: TermFunction, family) -> HellyResult:
    """Pairwise-style intersection for sets convex under an NU function.

    Preconditions (convexity of each member, nonempty intersections of all
    subfamilies of size <= arity-1) are verified; failures make the check
    vacuous.  The common point is constructed by the inductive application
    of m to partial witnesses, then verified against the actual intersection.
    """
    if not check_near_unanimity(L, m):
        raise InvalidInput("helly_check needs a near-unanimity function")
    k = m.arity - 1
    family = [frozenset(M) for M in family]
    if not family:
        return HellyResult(False, None, True, None)
    for M in family:
        if not is_convex(L, m, M):
            return HellyResult(True, "family member is not convex", False, None)
    for size in range(1, min(k, len(family)) + 1):
        for sub in itertools.combinations(family, size):
            if not frozenset.intersection(*sub):
                return HellyResult(True, "a small subfamily has empty intersection", False, None)

    def point_of(members):
        if len(members) <= k:
            return min(frozenset.intersection(*members))
        witnesses = [point_of(members[:i] + members[i + 1:]) for i in range(k + 1)]
        return m.table[power_index(L.size, witnesses)]

    point = point_of(list(family))
    ok = all(point in M for M in family) and bool(frozenset.intersection(*family))
    return HellyResult(False, None, ok, point)
