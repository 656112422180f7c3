"""Differential tests of homomorphism enumeration on the staged element closure.

``generate_subalgebra`` and ``_HomPlan`` close a mask over the carrier with
``_rounds``, ``minimal_generating_set`` is the generators ``_HomPlan`` picks
itself, and ``enumerate_homs`` replays each stage with one table gather per
stack of operations of one arity.  The oracles below are the versions they replaced, kept verbatim
up to names: ``generate_subalgebra`` on the vector kernel ``_close``, the
greedy ``minimal_generating_set`` that closed again after every generator,
``subuniverses`` on those, and ``_HomPlan`` with its provenance closure and
the per-element ``B.apply`` replay of ``enumerate_homs``.  Both read the
argument-column view ``_op_columns`` of ``tests/test_closure.py``, which
``FiniteAlgebra`` no longer caches.
"""

import itertools
import random

import numpy as np
import pytest

from dualkit.algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ElementMap,
    FiniteAlgebra,
    InvalidInput,
    Signature,
    _close,
    _HomPlan,
    _rows,
    direct_power,
    enumerate_homs,
    generate_subalgebra,
    minimal_generating_set,
    subuniverses,
)
from dualkit.catalog import bool2, dl2, luk, posluk, reduct
from dualkit.corpus import dualizer_suite, entry_label, sample_function_algebra
from test_closure import _error, _op_columns


# --- oracles: the versions before the staged closure ----------------------------

def old_generate_subalgebra(A: FiniteAlgebra, seed) -> frozenset:
    """Least subuniverse of A containing ``seed`` and all constants."""
    seed = list(seed)
    for s in seed:
        if not 0 <= s < A.size:
            raise InvalidInput("seed element %r outside carrier" % (s,))
    start = set(seed).union(A.apply(name) for name in A.signature.constants)
    closed = _close(A, _rows(list(start), 1), A.size)
    return frozenset(closed[:, 0].tolist())


def old_minimal_generating_set(A: FiniteAlgebra) -> tuple[int, ...]:
    """Small generating set, grown greedily from the constants closure."""
    gens: list[int] = []
    closed = old_generate_subalgebra(A, gens)
    while len(closed) < A.size:
        missing = min(set(A.elements) - closed)
        gens.append(missing)
        closed = old_generate_subalgebra(A, gens)
    return tuple(gens)


def old_subuniverses(A: FiniteAlgebra, budget: int = DEFAULT_BUDGET) -> list[frozenset]:
    """All subuniverses of A, by closing generated subalgebras upward.

    Every subuniverse is reached by adding one element at a time to a
    smaller one, so a breadth-first sweep over ``Sg(U + {x})`` is complete.
    """
    if A.size > 64:
        raise BudgetExceeded("subuniverse enumeration capped at carrier 64")
    base = old_generate_subalgebra(A, ())
    found = {base}
    queue = [base]
    while queue:
        u = queue.pop()
        for x in A.elements:
            if x in u:
                continue
            bigger = old_generate_subalgebra(A, tuple(u) + (x,))
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
        if len(found) > budget:
            raise BudgetExceeded("more than %d subuniverses" % budget)
    return sorted(found, key=lambda u: (len(u), sorted(u)))


class OldHomPlan:
    """Derivation plan for backtracking over generator images.

    Elements are replayed level by level (level i = closure of the first i
    generators together with the constants); operation-consistency checks are
    grouped by the level at which all their arguments become known, so a bad
    partial assignment is rejected as early as possible.
    """

    def __init__(self, A: FiniteAlgebra, gens):
        self.gens = tuple(gens)
        levels = len(self.gens) + 1
        columns = _op_columns(A)
        known = np.zeros(A.size, dtype=bool)
        level_of = np.full(A.size, -1, dtype=np.int64)
        recipes: list[list] = []

        def close(level, steps):
            changed = True
            while changed:
                changed = False
                for name, (cols, res) in columns.items():
                    mask = ~known[res]
                    for c in cols:
                        mask &= known[c]
                    if not mask.any():
                        continue
                    fresh, first = np.unique(res[mask], return_index=True)
                    spots = np.nonzero(mask)[0][first]
                    for value, spot in zip(fresh.tolist(), spots.tolist()):
                        known[value] = True
                        level_of[value] = level
                        steps.append((value, name, tuple(int(c[spot]) for c in cols)))
                    changed = True
            return steps

        consts = []
        for name in A.signature.constants:
            value = A.apply(name)
            if not known[value]:
                known[value] = True
                level_of[value] = 0
                consts.append((value, name, ()))
        recipes.append(close(0, consts))
        # a generator already derived at an earlier level has a forced image
        self.gen_fresh: list[bool] = []
        for i, g in enumerate(self.gens, start=1):
            steps = []
            self.gen_fresh.append(not known[g])
            if not known[g]:
                known[g] = True
                level_of[g] = i
                steps.append((g, None, ()))
            recipes.append(close(i, steps))
        if not known.all():
            raise InvalidInput("given generators do not generate the algebra")
        self.recipes = recipes
        # Constant agreement must hold outright.
        self.const_checks = [(A.apply(name), name) for name in A.signature.constants]
        # Group every op application by the level where its arguments exist.
        self.checks: list[dict] = [{} for _ in range(levels)]
        for name, (cols, res) in columns.items():
            lvl = level_of[cols[0]]
            for c in cols[1:]:
                lvl = np.maximum(lvl, level_of[c])
            for level in range(levels):
                mask = lvl == level
                if mask.any():
                    self.checks[level][name] = (
                        np.stack([c[mask] for c in cols], axis=1), res[mask])


def old_enumerate_homs(A: FiniteAlgebra, B: FiniteAlgebra, gens=None) -> list[ElementMap]:
    """All homomorphisms A -> B, in lexicographic order of generator images.

    Backtracks over images of a generating set, forward-propagating forced
    values (closure replay) and rejecting on the first operation or constant
    disagreement.
    """
    if A.signature != B.signature:
        raise InvalidInput("algebras must share a signature")
    if A.size == 0:
        return [ElementMap(A, B, ())]
    if B.size == 0:
        return []
    if gens is None:
        gens = old_minimal_generating_set(A)
    else:
        gens = tuple(gens)
        for g in gens:
            if not 0 <= g < A.size:
                raise InvalidInput("generator %r outside carrier" % (g,))
    plan = OldHomPlan(A, gens)  # raises if the generators do not generate
    b_tables = {name: res.reshape((B.size,) * len(cols))
                for name, (cols, res) in _op_columns(B).items()}
    image = np.full(A.size, -1, dtype=np.int64)
    results: list[ElementMap] = []

    def replay(level, gen_image):
        if level > 0 and not plan.gen_fresh[level - 1]:
            # the generator was derived earlier; its image is already forced
            if image[gens[level - 1]] != gen_image:
                return False
        for element, name, args in plan.recipes[level]:
            if name is None:
                image[element] = gen_image
            elif not args:
                image[element] = B.apply(name)
            else:
                image[element] = B.apply(name, *(int(image[a]) for a in args))
        if level == 0:
            for element, name in plan.const_checks:
                if image[element] != B.apply(name):
                    return False
        for name, (args, res) in plan.checks[level].items():
            lhs = b_tables[name][tuple(image[args[:, i]] for i in range(args.shape[1]))]
            if not np.array_equal(lhs, image[res]):
                return False
        return True

    def search(level):
        if level > len(gens):
            results.append(ElementMap(A, B, tuple(int(v) for v in image)))
            return
        if level == 0:
            if replay(0, None):
                search(1)
            return
        for b in B.elements:
            if replay(level, b):
                search(level + 1)
    search(0)
    return results


# --- helpers -------------------------------------------------------------------------

def _homs(A, B, gens=None):
    """enumerate_homs and its oracle as value lists, in order, or their errors."""
    new, old = _error(enumerate_homs, A, B, gens), _error(old_enumerate_homs, A, B, gens)
    if new is None:
        new = [h.values for h in enumerate_homs(A, B, gens)]
    if old is None:
        old = [h.values for h in old_enumerate_homs(A, B, gens)]
    return new, old


SMALL = [bool2(), dl2(), luk(2), luk(3), luk(4), posluk(2), posluk(3)]


def _ternary(size, seed):
    rng = random.Random(seed)
    signature = Signature((("t", 3), ("s", 1)))
    tables = {"t": tuple(rng.randrange(size) for _ in range(size**3)),
              "s": tuple(rng.randrange(size) for _ in range(size))}
    return FiniteAlgebra(signature, size, tables)


# --- enumerate_homs and the generating set --------------------------------------------

@pytest.mark.parametrize("entry", dualizer_suite() + [luk(4), posluk(3)], ids=entry_label)
def test_sampled_function_algebras_match_oracle(entry):
    L = entry.algebra
    rng = random.Random("hom-plan|%r" % (entry,))
    for _ in range(20):
        _, _, A, gens = sample_function_algebra(L, rng)
        assert minimal_generating_set(A) == old_minimal_generating_set(A)
        new, old = _homs(A, L)
        assert new == old
        new, old = _homs(A, L, gens)
        assert new == old


@pytest.mark.parametrize("entry", SMALL, ids=entry_label)
@pytest.mark.parametrize("exponent", [0, 1, 2])
def test_powers_match_oracle(entry, exponent):
    L = entry.algebra
    P = direct_power(L, exponent)
    assert minimal_generating_set(P) == old_minimal_generating_set(P)
    assert _HomPlan(P).gens == old_minimal_generating_set(P)
    for B in (L, P):
        new, old = _homs(P, B)
        assert new == old


@pytest.mark.parametrize("entry", SMALL, ids=entry_label)
def test_given_generators_match_oracle(entry):
    L = entry.algebra
    P = direct_power(L, 2)
    gens = minimal_generating_set(P)
    everything = tuple(P.elements)
    cases = [
        gens + gens,                       # repeated
        everything,                        # every element, most already derived
        tuple(reversed(everything)),       # out of order
        (),                                # generates only when the constants do
        gens[:-1],                         # one short
        (P.size,),                         # outside the carrier
    ]
    for given in cases:
        new, old = _homs(P, L, given)
        assert new == old, given


def test_non_generating_set_has_the_same_message():
    P = direct_power(luk(2).algebra, 2)
    message = (InvalidInput, "given generators do not generate the algebra")
    assert _homs(P, luk(2).algebra, ()) == (message, message)


def test_constant_free_reduct_and_empty_algebra():
    for entry in (luk(2), luk(3), posluk(2)):
        names = [n for n in entry.algebra.signature.names if n not in ("zero", "one")]
        R = reduct(entry.algebra, names)
        for A in (R, reduct(direct_power(entry.algebra, 2), names)):
            assert minimal_generating_set(A) == old_minimal_generating_set(A)
            new, old = _homs(A, R)
            assert new == old
        empty = FiniteAlgebra(R.signature, 0, {n: () for n in R.signature.names})
        assert _homs(empty, R) == ([()], [()])
        assert _homs(R, empty) == ([], [])
        assert minimal_generating_set(empty) == old_minimal_generating_set(empty) == ()


@pytest.mark.parametrize("seed", range(6))
def test_ternary_operation_matches_oracle(seed):
    A, B = _ternary(3, seed), _ternary(2, seed + 100)
    for X, Y in ((A, A), (A, B), (B, A), (B, B)):
        new, old = _homs(X, Y)
        assert new == old
        new, old = _homs(X, Y, tuple(X.elements))
        assert new == old


def test_two_operations_of_one_arity_derive_one_element():
    """In A, f and g both send (0, 0) to 1 and every other pair to 0, so the
    stage after the generator 0 derives 1 twice.  B's f and g differ at
    (0, 0) only: sending 0 to 0 derives 1 -> 1 and 1 -> 2, and every later
    application agrees with either image, so only the stage that derives 1
    can reject it, however its two writes are ordered."""
    signature = Signature((("f", 2), ("g", 2)))
    A = FiniteAlgebra(signature, 2, {"f": (1, 0, 0, 0), "g": (1, 0, 0, 0)})
    B = FiniteAlgebra(signature, 3, {"f": (1,) + (0,) * 8, "g": (2,) + (0,) * 8})
    stage = next(entries for entries in _HomPlan(A).stages if entries)
    ((_, _, res, derive),) = stage
    assert res[derive].tolist() == [1, 1]
    for X, Y in ((A, A), (A, B), (B, A), (B, B)):
        for gens in (None, tuple(X.elements)):
            new, old = _homs(X, Y, gens)
            assert new == old
    assert _homs(A, B) == ([], [])


def test_trivial_algebra_into_dl2_has_no_homomorphism():
    # zero and one coincide in the singleton but not in dl2
    trivial = direct_power(dl2().algebra, 0)
    assert _homs(trivial, dl2().algebra) == ([], [])
    assert _homs(trivial, trivial) == ([(0,)], [(0,)])


# --- the closure under generate_subalgebra and subuniverses ------------------------

@pytest.mark.parametrize("entry", SMALL, ids=entry_label)
def test_generate_subalgebra_on_every_subset(entry):
    A = entry.algebra
    for r in range(A.size + 1):
        for seed in itertools.combinations(A.elements, r):
            assert generate_subalgebra(A, seed) == old_generate_subalgebra(A, seed)
    assert _error(generate_subalgebra, A, [A.size]) == _error(old_generate_subalgebra, A, [A.size])


@pytest.mark.parametrize("entry", SMALL, ids=entry_label)
def test_subuniverses_of_squares(entry):
    square = direct_power(entry.algebra, 2)
    assert subuniverses(square) == old_subuniverses(square)
