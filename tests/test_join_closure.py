"""The join-closure sweep against the loops it replaced.

``algebras._join_closure`` enumerates Sub A as the joins of the
1-generated subuniverses, the relative congruences as the meets of the
kernels of Hom(A, L), and the open sets of a finite space as the unions of
the minimal neighbourhoods.  The loops that ``subuniverses`` and
``FiniteTopology.opens`` ran before stay here as oracles, verbatim up to
names, and so does the one that listed Con A, which the other test modules
read partitions from.  Results, their order, errors and budget boundaries
are compared, and the work (closures and meets) is counted, not timed.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualkit import algebras, topology
from dualkit.algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FiniteAlgebra,
    InvalidInput,
    Signature,
    algebra_from_vectors,
    direct_power,
    direct_product,
    generate_congruence,
    identity_congruence,
    relative_congruences,
    subuniverses,
)
from dualkit.catalog import bool2, dl2, luk, posluk, reduct
from dualkit.topology import FiniteTopology, discrete_topology, topology_from_subbasis

SRC = str(Path(__file__).resolve().parents[1] / "src")


# --- oracles: the loops before the sweep ------------------------------------------

def old_subuniverses(A, budget=DEFAULT_BUDGET):
    if A.size > 64:
        raise BudgetExceeded("subuniverse enumeration capped at carrier 64")
    base = algebras.generate_subalgebra(A, ())
    found = {base}
    queue = [base]
    while queue:
        u = queue.pop()
        for x in A.elements:
            if x in u:
                continue
            bigger = algebras.generate_subalgebra(A, tuple(u) + (x,))
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
        if len(found) > budget:
            raise BudgetExceeded("more than %d subuniverses" % budget)
    return sorted(found, key=lambda u: (len(u), sorted(u)))


def old_all_congruences(A, budget=DEFAULT_BUDGET):
    delta = identity_congruence(A)
    principals = set()
    for a in A.elements:
        for b in range(a + 1, A.size):
            principals.add(generate_congruence(A, [(a, b)]))
    found = {delta} | principals
    queue = list(found)
    while queue:
        theta = queue.pop()
        for p in principals:
            j = theta.join(p)
            if j not in found:
                found.add(j)
                queue.append(j)
                if len(found) > budget:
                    raise BudgetExceeded("congruence lattice exceeds budget")
    return sorted(found, key=lambda t: (t.num_blocks, t.blocks), reverse=True)


def old_opens(top):
    opens = {0}
    for u in set(top.nbhds):
        for v in list(opens):
            opens.add(u | v)
            if len(opens) > topology.DEFAULT_BUDGET:
                raise BudgetExceeded("open-set family exceeds budget")
    return frozenset(opens)


# --- inputs -------------------------------------------------------------------------

DL = dl2().algebra
BA = bool2().algebra
TWO_ELEMENT = {"bool2": BA, "dl2": DL, "luk(1)": luk(1).algebra, "posluk(1)": posluk(1).algebra}


def _set_algebra(n):
    """n elements and one unary identity: every subset is a subuniverse and
    every partition a congruence."""
    return FiniteAlgebra(Signature((("id", 1),)), n, {"id": tuple(range(n))})


def chain(n):
    """The n-element bounded chain, as the step vectors of dl2^(n-1)."""
    vectors = [(0,) * (n - 1 - i) + (1,) * i for i in range(n)]
    return algebra_from_vectors(DL, n - 1, vectors)[0]


def _algebras():
    """name -> (algebra, the dualizer it is a power or a reduct of)."""
    out = {}
    for name, L in [("bool2", BA), ("dl2", DL)] + [
            ("%s(%d)" % (family.__name__, n), family(n).algebra)
            for family in (luk, posluk) for n in range(1, 5)]:
        out[name + "^2"] = (direct_power(L, 2), L)
    for name, L in TWO_ELEMENT.items():
        out[name + "^3"] = (direct_power(L, 3), L)
    # reducts without constants (the empty set is a subuniverse) and with them
    for name, L, names in (("dl2 lattice", DL, ("meet", "join")),
                           ("luk(2) oplus neg", luk(2).algebra, ("oplus", "neg")),
                           ("luk(3) odot join", luk(3).algebra, ("odot", "join")),
                           ("luk(2) oplus zero", luk(2).algebra, ("oplus", "zero")),
                           ("posluk(2) odot one", posluk(2).algebra, ("odot", "one"))):
        R = reduct(L, names)
        out[name] = (R, R)
        out[name + "^2"] = (direct_power(R, 2), R)
    binary = Signature((("f", 2),))
    out["empty"] = (FiniteAlgebra(binary, 0, {"f": ()}),
                    FiniteAlgebra(binary, 2, {"f": (0, 0, 0, 1)}))
    out["set(5)"] = (_set_algebra(5), _set_algebra(2))
    return out


ALGEBRAS_OVER = _algebras()
ALGEBRAS = {name: A for name, (A, _) in ALGEBRAS_OVER.items()}
# chains and Boolean lattices over dl2: every congruence is relative
LATTICES = ([("chain(%d)" % n, chain(n)) for n in range(1, 13)]
            + [("2^%d" % k, direct_power(DL, k)) for k in range(4)])


def old_relative_congruences(A, L):
    """The oracle of ``tests/test_table_gather.py``, imported when first
    called, since that module reads ``old_all_congruences`` from this one."""
    from test_table_gather import old_relative_congruences
    return old_relative_congruences(A, L)


def _error(call, *args):
    try:
        call(*args)
    except (InvalidInput, BudgetExceeded) as exc:
        return type(exc), str(exc)
    return None


def _least_budget(call, hi=DEFAULT_BUDGET):
    """The least budget at which ``call(budget)`` does not raise, found by
    bisection, and the error one below it."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _error(call, mid) is None:
            hi = mid
        else:
            lo = mid + 1
    return lo, (_error(call, lo - 1) if lo else None)


def _same_for_less_work(monkeypatch, owner, name, new, old, A):
    """new(A) equals old(A), list and order, with no more calls of
    ``owner.name``; returns the list."""
    calls = [0]
    function = getattr(owner, name)

    def counting(*args):
        calls[0] += 1
        return function(*args)

    monkeypatch.setattr(owner, name, counting)
    found = new(A)
    work = calls[0]
    assert found == old(A)
    assert work <= calls[0] - work
    monkeypatch.undo()
    return found


# --- the same lists, in the same order, for less work -----------------------------

@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_subuniverses_match_the_oracle(name, monkeypatch):
    _same_for_less_work(monkeypatch, algebras, "generate_subalgebra",
                        subuniverses, old_subuniverses, ALGEBRAS[name])


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_congruences_match_the_oracle(name):
    A, L = ALGEBRAS_OVER[name]
    assert relative_congruences(A, L) == old_relative_congruences(A, L)


@pytest.mark.parametrize("name, A", LATTICES, ids=[name for name, _ in LATTICES])
def test_congruences_of_chains_and_boolean_lattices_match_the_oracle(name, A):
    found = relative_congruences(A, DL)
    assert found == old_all_congruences(A)
    # every partition of a chain into intervals, and of 2^k the 2^k products
    assert len(found) == (2 ** (A.size - 1) if name.startswith("chain") else A.size)


def test_carriers_past_the_cap_are_refused_alike():
    for A in (_set_algebra(65), direct_power(DL, 7)):
        assert _error(subuniverses, A) == _error(old_subuniverses, A) == (
            BudgetExceeded, "subuniverse enumeration capped at carrier 64")
    assert len(subuniverses(_set_algebra(6))) == 64


def _small_algebra(draw):
    """An algebra of at most 4 elements with operations of arity 0 to 2 and
    random tables; constants only on a nonempty carrier."""
    size = draw(st.integers(0, 4))
    arities = draw(st.lists(st.integers(0 if size else 1, 2), min_size=1, max_size=3))
    ops = tuple(("f%d" % i, arity) for i, arity in enumerate(arities))
    tables = {name: tuple(draw(st.lists(st.integers(0, max(size - 1, 0)),
                                        min_size=size**arity, max_size=size**arity)))
              for name, arity in ops}
    return FiniteAlgebra(Signature(ops), size, tables)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_algebras_match_the_oracles(data):
    A = _small_algebra(data.draw)
    budget = data.draw(st.integers(0, 20))
    assert subuniverses(A) == old_subuniverses(A)
    assert _error(subuniverses, A, budget) == _error(old_subuniverses, A, budget)
    assert relative_congruences(A, A) == old_relative_congruences(A, A)


def _random_topologies(count, max_points, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_points)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 2 * n))]
        yield topology_from_subbasis(n, masks)


def test_opens_match_the_oracle_on_random_topologies():
    for top in _random_topologies(150, 12, "opens"):
        assert top.opens == old_opens(top)
    for n in (0, 1, 12):
        assert discrete_topology(n).opens == old_opens(discrete_topology(n)) == frozenset(
            range(1 << n))


# --- the work is the same under every hash seed --------------------------------

_WORK = """
from dualkit import algebras
from dualkit.algebras import Congruence, algebra_from_vectors, direct_power
from dualkit.catalog import dl2, posluk
count = {"closures": 0, "meets": 0}
closure, meet = algebras.generate_subalgebra, Congruence.meet
def counted(key, function):
    def counting(*args):
        count[key] += 1
        return function(*args)
    return counting
algebras.generate_subalgebra = counted("closures", closure)
Congruence.meet = counted("meets", meet)
subs = algebras.subuniverses(direct_power(posluk(4).algebra, 2))
steps = [(0,) * (10 - i) + (1,) * i for i in range(11)]
L = dl2().algebra
cons = algebras.relative_congruences(algebra_from_vectors(L, 10, steps)[0], L)
print(len(subs), count["closures"], len(cons), count["meets"])
"""


def test_work_is_the_same_under_two_hash_seeds():
    """posluk(4)^2 took 865 closures in the loop above.  The 11-element
    chain has 10 homomorphisms into dl2 with distinct kernels, and each
    kernel doubles the meets found: 1 + 2 + ... + 512 meets for its 1,024
    congruences, which are all relative."""
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _WORK], env=env, check=True,
                             capture_output=True, text=True).stdout
        runs.append(tuple(map(int, out.split())))
    assert runs[0] == runs[1]
    subs, closures, cons, meets = runs[0]
    assert (subs, cons) == (52, 1024)
    assert closures <= 865 and meets == 1023


# --- budgets --------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["dl2^2", "luk(2)^2", "posluk(2)^2", "bool2^3", "dl2^3",
                                  "dl2 lattice^2", "luk(2) oplus zero^2", "set(5)", "empty"])
def test_subuniverse_budget_boundary_is_unchanged(name):
    A = ALGEBRAS[name]
    least = _least_budget(lambda b: subuniverses(A, budget=b))
    assert least == _least_budget(lambda b: old_subuniverses(A, budget=b))
    assert least[0] == len(subuniverses(A))


BUDGET_CASES = [(name, A, DL) for name, A in LATTICES[:8]] + [
    ("posluk(2)^2",) + ALGEBRAS_OVER["posluk(2)^2"], ("set(4)", _set_algebra(4), _set_algebra(2)),
    ("empty",) + ALGEBRAS_OVER["empty"]]


@pytest.mark.parametrize("name, A, L", BUDGET_CASES, ids=[name for name, _, _ in BUDGET_CASES])
def test_congruence_budget_is_the_lattice_size(name, A, L):
    """The budget counts the relative congruences found, the total one
    included; the sweep over Con A before counted every congruence."""
    size = len(relative_congruences(A, L))
    assert _least_budget(lambda b: relative_congruences(A, L, budget=b)) == (
        size, (BudgetExceeded, "congruence lattice exceeds budget"))


def _luk_product(*ns):
    return direct_product([luk(n).algebra for n in ns])


@pytest.mark.parametrize("A, L, before, after", [
    (_luk_product(2, 2, 3), luk(5).algebra, 8, 1),
    (_luk_product(2, 3), luk(2).algebra, 4, 2),
    (luk(3).algebra, luk(2).algebra, 2, 1),
    (direct_power(DL, 2), DL, 4, 4),
    (chain(4), DL, 8, 8),
], ids=["luk(2)xluk(2)xluk(3) over luk(5)", "luk(2)xluk(3) over luk(2)",
        "luk(3) over luk(2)", "dl2^2 over dl2", "chain(4) over dl2"])
def test_congruence_budget_counts_relative_congruences_only(A, L, before, after):
    """The least budget was |Con A|, counted here by the oracle, and is now
    the number of relative congruences; the two agree where every
    congruence is relative, as on the dl2 square and the 4-element chain."""
    assert len(old_all_congruences(A)) == before
    assert _least_budget(lambda b: relative_congruences(A, L, budget=b))[0] == after


def test_open_set_budget_boundary_is_unchanged(monkeypatch):
    def opens(top, module_budget, oracle):
        monkeypatch.setattr(topology, "DEFAULT_BUDGET", module_budget)
        fresh = FiniteTopology(top.n, top.nbhds)     # opens is cached per object
        return (old_opens if oracle else lambda t: t.opens)(fresh)

    tops = list(itertools.islice((t for t in _random_topologies(60, 9, "budget") if t.n), 30))
    for top, size in [(top, len(top.opens)) for top in tops]:
        least = _least_budget(lambda b: opens(top, b, False), hi=1 << top.n)
        assert least == _least_budget(lambda b: opens(top, b, True), hi=1 << top.n)
        assert least == (size, (BudgetExceeded, "open-set family exceeds budget"))


def test_the_empty_space_counts_its_one_open(monkeypatch):
    """The one semantic change for opens: the loop before never checked the
    budget on a space without points, and the sweep counts the empty set."""
    monkeypatch.setattr(topology, "DEFAULT_BUDGET", 0)
    with pytest.raises(BudgetExceeded, match="open-set family exceeds budget"):
        discrete_topology(0).opens
    assert old_opens(discrete_topology(0)) == frozenset({0})
    monkeypatch.setattr(topology, "DEFAULT_BUDGET", 1)
    assert discrete_topology(0).opens == frozenset({0})
