"""Hypothesis-side checks for the CD/NU duality theorems.

Partial endomorphisms, classification of the subalgebras of L x L,
Baker-Pixley interpolation, Chinese remainder instances, the Jonsson
finite-cover property, the congruence/spectrum anti-isomorphism, and the
Helly-style intersection of convex sets.  Everything is decided by
exhaustive search at the configured scale; sampled sweeps are documented
falsification attempts, not proofs.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Congruence,
    FiniteAlgebra,
    InvalidInput,
    algebra_from_vectors,
    direct_power,
    enumerate_homs,
    generate_vectors,
    is_congruence,
    power_index,
    power_tuple,
    relative_congruences,
    subalgebra,
    subuniverses,
    total_congruence,
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
    falsification attempt over the same bound.  k must be at least 1 and the
    bound at least 0 (1 when sampled, as are the samples at least 0), or
    the sweep would pass vacuously.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if strategy not in ("exhaustive", "sampled"):
        raise InvalidInput("strategy must be exhaustive or sampled")
    if x_bound < 0:
        raise InvalidInput("bound must be >= 0")
    if strategy == "sampled" and (samples < 0 or x_bound < 1):
        raise InvalidInput("sampled sweeps need samples >= 0 and a bound >= 1")
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
    k must be at least 1: below that every system is k-wise solvable.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    system = list(system)
    for a, theta in system:
        if not 0 <= a < A.size:
            raise InvalidInput("system element outside carrier")
        if not is_congruence(A, theta):
            raise InvalidInput("system entry is not a congruence")
    return _crp_verdict(k, system, functools.partial(_solve_system, A))


def _crp_verdict(k: int, system, solve) -> CRPVerdict:
    """``chinese_remainder_check`` on a system already known to be valid,
    with ``solve`` returning a solution of a sub-system or None."""
    k_wise = True
    for size in range(1, min(k, len(system)) + 1):
        for sub in itertools.combinations(system, size):
            if solve(sub) is None:
                k_wise = False
    solution = solve(system)
    return CRPVerdict(k_wise, solution is not None, solution)


def chinese_remainder_sweep(A: FiniteAlgebra, L: FiniteAlgebra, k: int,
                            max_equations: int,
                            budget: int = DEFAULT_BUDGET):
    """All systems over the relative congruences up to the given size.

    Returns (number of systems checked, first failing system or None); a
    failing system is k-wise solvable but globally unsolvable.  Every entry
    comes from ``relative_congruences``, so no system is re-validated.  A
    system is a sorted tuple of positions in the pool of equations, so its
    sub-systems are too, and each is solved once for the whole sweep.
    k must be at least 1 and ``max_equations`` at least 0.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if max_equations < 0:
        raise InvalidInput("bound must be >= 0")
    thetas = relative_congruences(A, L, budget=budget)
    pool = [(a, theta) for theta in thetas for a in A.elements]
    solutions: dict[tuple[int, ...], int | None] = {}

    def solve(positions):
        if positions not in solutions:
            solutions[positions] = _solve_system(A, [pool[p] for p in positions])
        return solutions[positions]

    checked = 0
    for size in range(1, max_equations + 1):
        for system in itertools.combinations_with_replacement(range(len(pool)), size):
            verdict = _crp_verdict(k, system, solve)
            checked += 1
            if not verdict.passed:
                return checked, [pool[p] for p in system]
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


def _set_partitions(x_size: int, max_blocks: int):
    """Every partition of range(x_size) into 1..max_blocks blocks, each block
    an ascending tuple, as restricted growth strings: point i joins one of
    the blocks opened so far or opens the next."""
    blocks: list[list[int]] = []

    def extend(i):
        if i == x_size:
            yield tuple(map(tuple, blocks))
            return
        for block in blocks:
            block.append(i)
            yield from extend(i + 1)
            block.pop()
        if len(blocks) < max_blocks:
            blocks.append([i])
            yield from extend(i + 1)
            blocks.pop()

    if x_size:
        yield from extend(0)


def jonsson_finite_cover_check(L: FiniteAlgebra, x_size: int, functions,
                               covers=None) -> JonssonVerdict:
    """Each homomorphism Comp -> L factors through a projection of each cover.

    ``functions`` is a subuniverse of L^X given as vectors.  Factoring
    through pi_Y means ker pi_Y <= ker h, i.e. h is constant on each class
    of agreement-on-Y.  Whether h factors through a part is decided once
    per part for all homomorphisms, as a bitmask over them.

    Without ``covers``, every cover of X by at most 3 parts is checked
    through the partitions of X into at most 3 blocks: a homomorphism that
    factors through Y factors through every superset of Y, and every cover
    refines to such a partition, so both families fail the same
    homomorphisms.  The witness is the first failing homomorphism with the
    first cover it fails in ``all_covers`` order.
    """
    comp, carrier = algebra_from_vectors(L, x_size, functions)
    homs = sorted(enumerate_homs(comp, L), key=lambda h: h.values)
    rows = np.array(carrier, dtype=np.int64).reshape(len(carrier), x_size)
    values = np.array([h.values for h in homs], dtype=np.int64).reshape(len(homs), len(carrier))
    factoring: dict[tuple[int, ...], int] = {}

    def factors(part: tuple[int, ...]) -> int:
        """The homomorphisms constant on each class of agreement on the
        ascending positions ``part``, as a bitmask over ``homs``: sorted by
        their values on the part, the vectors of one class are adjacent."""
        mask = factoring.get(part)
        if mask is None:
            keys = rows[:, list(part)]
            order = np.lexsort(keys.T[::-1]) if part else np.arange(len(keys))
            keys = keys[order]
            same = np.flatnonzero((keys[1:] == keys[:-1]).all(axis=1))
            ordered = values[:, order]
            ok = (ordered[:, same] == ordered[:, same + 1]).all(axis=1)
            mask = factoring[part] = sum(1 << i for i in np.flatnonzero(ok).tolist())
        return mask

    if covers is not None:
        for i, h in enumerate(homs):
            for cover in covers:
                if not any(factors(tuple(sorted(part))) >> i & 1 for part in cover):
                    return JonssonVerdict(False, (h.values, cover))
        return JonssonVerdict(True, None)
    if x_size == 0:
        # the one cover is the empty family, and nothing factors through it
        return JonssonVerdict(not homs, (homs[0].values, ()) if homs else None)

    max_parts = min(3, x_size)
    everyone, failing = (1 << len(homs)) - 1, 0
    for partition in _set_partitions(x_size, max_parts):
        passing = 0
        for block in partition:
            passing |= factors(block)
        failing |= everyone & ~passing
    if not failing:
        return JonssonVerdict(True, None)
    i = (failing & -failing).bit_length() - 1
    # the covers homs[i] fails are the families of parts it fails; listing
    # those parts in all_covers order keeps the order of the families
    failing_parts = [frozenset(s) for r in range(1, x_size + 1)
                     for s in itertools.combinations(range(x_size), r)
                     if not factors(s) >> i & 1]
    full = frozenset(range(x_size))
    for parts in range(1, max_parts + 1):
        for family in itertools.combinations(failing_parts, parts):
            if frozenset().union(*family) == full:
                return JonssonVerdict(False, (homs[i].values, family))
    raise AssertionError("a failing partition is a failing cover")


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
    relative congruence lattice) are checked, not assumed.  More than
    ``budget`` subsets of Spec A raise BudgetExceeded before any kernel is
    built.
    """
    return _spectrum_report(A, L, relative_congruences(A, L, budget=budget), budget)


def _is_distributive(thetas) -> bool:
    """x meet (y join z) == (x meet y) join (x meet z) for all x, y, z in
    ``thetas``, joins and meets taken in Con A.

    Every congruence met is numbered once, joins may leave ``thetas``, and
    each join and each meet of a pair of numbers is computed once; the two
    sides are then compared as arrays of numbers, one x at a time.
    """
    number: dict[Congruence, int] = {}
    congruences: list[Congruence] = []
    joins: dict[tuple[int, int], int] = {}
    meets: dict[tuple[int, int], int] = {}

    def numbered(theta):
        if theta not in number:
            number[theta] = len(congruences)
            congruences.append(theta)
        return number[theta]

    def table(memo, combine, xs, ys):
        out = np.empty((len(xs), len(ys)), dtype=np.int64)
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                key = (a, b) if a <= b else (b, a)
                if key not in memo:
                    memo[key] = numbered(combine(congruences[a], congruences[b]))
                out[i, j] = memo[key]
        return out

    ids = [numbered(theta) for theta in thetas]
    join = table(joins, Congruence.join, ids, ids)           # y join z
    meet = table(meets, Congruence.meet, ids, ids)           # x meet y
    # x meet w for each distinct join w, and the joins of the meets
    ws = sorted(set(join.ravel().tolist()))
    meet_w = np.full((len(ids), len(congruences)), -1, dtype=np.int64)
    meet_w[:, ws] = table(meets, Congruence.meet, ids, ws)
    vs = sorted(set(meet.ravel().tolist()))
    join_v = np.full((len(congruences),) * 2, -1, dtype=np.int64)
    join_v[np.ix_(vs, vs)] = table(joins, Congruence.join, vs, vs)
    for x in range(len(ids)):
        row = meet[x]
        if not np.array_equal(meet_w[x][join], join_v[np.ix_(row, row)]):
            return False
    return True


def _spectrum_report(A: FiniteAlgebra, L: FiniteAlgebra, thetas,
                     budget: int) -> CongruenceSpectrumReport:
    """``congruence_spectrum_antiisomorphism`` with the relative congruences
    ``thetas`` already found.

    The relative congruences are the meets of the kernels built here, so
    Y |-> ker pi_Y is onto them by construction; ``bijective`` is its
    injectivity."""
    homs = sorted(enumerate_homs(A, L), key=lambda h: h.values)
    failures = []
    if L.size < 2:
        failures.append("dualizer is trivial")
    if not partial_endomorphisms(L, budget=budget).all_trivial:
        failures.append("dualizer has nontrivial partial endomorphisms")
    if not _separates_points([h.values for h in homs], A.size):
        failures.append("algebra is not in the prevariety")
    if not _is_distributive(thetas):
        failures.append("relative congruence lattice is not distributive")
    if failures:
        return CongruenceSpectrumReport(False, tuple(failures), 0, len(thetas), False, False)

    if 1 << len(homs) > budget:
        raise BudgetExceeded("congruence spectrum search over the 2^%d subsets of "
                             "Spec A exceeds budget %d" % (len(homs), budget))
    kernels = [total_congruence(A)]     # at a subset's mask, the meet of its homs' kernels
    for kernel_h in (Congruence.from_blocks(h.values) for h in homs):
        kernels += [theta.meet(kernel_h) for theta in kernels]
    bijective = len(set(kernels)) == len(kernels)
    # refinement is transitive, so pairs Y, Y + {h} suffice for all Y <= Z
    order_reversing = all(
        kernels[small | 1 << i].leq(kernels[small])
        for small in range(len(kernels)) for i in range(len(homs))
        if not small >> i & 1
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
